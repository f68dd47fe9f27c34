//! The metric registry: every name the benchmark prints, its unit and
//! direction, and — for per-layer metrics — which end-to-end metric it
//! is expected to move on which workload. `BENCHMARK.json` carries the
//! same names, units, directions and bounds (checked by a test); the
//! `moves` column lives here and in the README because the file's
//! schema has no place for it.

pub const WORKLOADS: [&str; 4] = [
    "local-lifecycle",
    "serve-read",
    "serve-mixed",
    "serve-mixed-remote",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which workloads report an end-to-end metric: those whose timed
/// rounds perform the operation, or whose end state has the property.
pub const ALL: &[&str] = &WORKLOADS;
const SERVE_MIXED: &[&str] = &["serve-mixed", "serve-mixed-remote"];
const LOCAL: &[&str] = &["local-lifecycle"];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening that counts as a regression when `compare`
    /// sets two result files side by side, seed by seed. No timing
    /// bound is above 0.10 (`setup_s`: 0.15).
    pub bound: f64,
    /// The workloads that report it, and on which `compare` gates it.
    pub on: &'static [&'static str],
    /// A count the program makes, which two runs of one build on one
    /// seed repeat bit for bit.
    pub exact: bool,
    /// The bound inside which runs on *different* seeds — different
    /// histories, at different minutes of a shared box — repeat, if they
    /// do: such a metric is in every workload's result line and under
    /// `end_to_end` in `BENCHMARK.json`, which whoever accepts a change
    /// gates on. `None` is the issue's rule 5: the metric does not
    /// repeat inside its bound that way (README, "Observed spread"), is
    /// listed under `per_layer` there, and is gated by `compare` alone.
    pub across_seeds: Option<f64>,
}

use Better::{Higher, Lower};

/// A timing, which interference spells of the shared box move by more
/// than any bound the issue allows (rule 5).
const fn timing(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound: 0.10,
        on,
        exact: false,
        across_seeds: None,
    }
}

/// Bytes per logical byte of a workload's end state: exact per seed,
/// and within 0.10 from one seed's history to another's.
const fn byte_ratio(name: &'static str) -> EndToEnd {
    EndToEnd {
        name,
        unit: "B/B",
        better: Lower,
        bound: 0.01,
        on: ALL,
        exact: true,
        across_seeds: Some(0.10),
    }
}

pub const END_TO_END: [EndToEnd; 12] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.15,
        on: ALL,
        exact: false,
        across_seeds: Some(0.15),
    },
    byte_ratio("stored_bytes_per_logical_byte"),
    byte_ratio("recreation_bytes_per_logical_byte"),
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        // Runs of one seed differ by ±3 %, and seeds by up to 4 %
        // (interquartile), on the remote workload, whose peak follows how
        // its threads interleave.
        bound: 0.10,
        on: ALL,
        exact: false,
        across_seeds: Some(0.10),
    },
    timing("requests_per_s", "1/s", Higher, ALL),
    timing("cpu_us_per_request", "us", Lower, ALL),
    timing("checkout_p50_us", "us", Lower, ALL),
    timing("commit_p50_ms", "ms", Lower, SERVE_MIXED),
    timing("commit_online_p50_ms", "ms", Lower, SERVE_MIXED),
    timing("ingest_commits_per_s", "1/s", Higher, LOCAL),
    timing("optimize_s", "s", Lower, LOCAL),
    timing("recover_s", "s", Lower, LOCAL),
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `end-to-end metric @ workload` this layer metric should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

pub const PER_LAYER: [Layer; 55] = [
    layer("workloads.generate_s", "s", Lower, "setup_s @ all"),
    layer("delta.line_diff_mb_per_s", "MB/s", Higher, "none today: commit and optimize diff with bytes_delta; the text-delta alternative"),
    layer("delta.byte_diff_mb_per_s", "MB/s", Higher, "optimize_s, ingest_commits_per_s @ local-lifecycle; commit_online_p50_ms @ serve-mixed"),
    layer("delta.bytes_per_target_byte", "B/B", Lower, "stored_bytes_per_logical_byte @ local-lifecycle"),
    layer("delta.pairs_revealed", "count", Lower, "optimize_s @ local-lifecycle"),
    layer("delta.apply_mb_per_s", "MB/s", Higher, "checkout_p50_us, recover_s @ local-lifecycle"),
    layer("compress.compress_mb_per_s", "MB/s", Higher, "ingest_commits_per_s @ local-lifecycle"),
    layer("compress.decompress_mb_per_s", "MB/s", Higher, "checkout_p50_us @ local-lifecycle"),
    layer("compress.ratio", "B/B", Lower, "stored_bytes_per_logical_byte @ local-lifecycle"),
    layer("core.plan_ms", "ms", Lower, "optimize_s @ local-lifecycle; flat @ serve-read"),
    layer("core.materialized_versions", "count", Lower, "stored_bytes_per_logical_byte @ local-lifecycle"),
    layer("core.planned_storage_error", "ratio", Lower, "stored_bytes_per_logical_byte @ local-lifecycle"),
    layer("core.planned_max_recreation_error", "ratio", Lower, "recreation_bytes_per_logical_byte @ local-lifecycle"),
    layer("core.max_recreation_ratio", "ratio", Lower, "recreation_bytes_per_logical_byte @ local-lifecycle"),
    layer("storage.put_us_per_object", "us", Lower, "commit_p50_ms @ serve-mixed; ingest_commits_per_s @ local-lifecycle"),
    layer("storage.fs_ops_per_commit", "count", Lower, "commit_p50_ms @ serve-mixed; ingest_commits_per_s @ local-lifecycle"),
    layer("storage.fsyncs_per_commit", "count", Lower, "commit_p50_ms @ serve-mixed; ingest_commits_per_s @ local-lifecycle"),
    layer("storage.get_us_per_object", "us", Lower, "checkout_p50_us @ local-lifecycle, serve-mixed"),
    layer("storage.materialize_us_per_version", "us", Lower, "checkout_p50_us @ local-lifecycle, serve-mixed; flat @ serve-read"),
    layer("storage.objects_fetched_per_checkout", "count", Lower, "checkout_p50_us @ local-lifecycle; flat @ serve-read"),
    layer("storage.bytes_read_per_served_byte", "B/B", Lower, "checkout_p50_us @ local-lifecycle; flat @ serve-read"),
    layer("storage.cache_hit_rate", "ratio", Higher, "checkout_p50_us @ serve-mixed; ~1 @ serve-read"),
    layer("storage.cache_evictions", "count", Lower, "checkout_p50_us @ serve-mixed; 0 @ serve-read"),
    layer("storage.cache_bytes_saved", "B", Higher, "checkout_p50_us @ serve-mixed"),
    layer("storage.stats_us", "us", Lower, "requests_per_s @ serve-mixed"),
    layer("storage.pack_s", "s", Lower, "optimize_s @ local-lifecycle"),
    layer("vcs.commit_ms", "ms", Lower, "commit_p50_ms @ serve-mixed; ingest_commits_per_s @ local-lifecycle; flat @ serve-mixed-remote"),
    layer("vcs.commit_online_ms", "ms", Lower, "commit_online_p50_ms @ serve-mixed; ingest_commits_per_s @ local-lifecycle"),
    layer("vcs.persist_save_ms", "ms", Lower, "commit_p50_ms @ serve-mixed; flat @ serve-mixed-remote"),
    layer("vcs.meta_bytes", "B", Lower, "commit_p50_ms @ serve-mixed"),
    layer("vcs.prepare_repack_s", "s", Lower, "optimize_s @ local-lifecycle"),
    layer("vcs.apply_repack_ms", "ms", Lower, "optimize_s @ local-lifecycle"),
    layer("vcs.gc_ms", "ms", Lower, "optimize_s @ local-lifecycle"),
    layer("vcs.load_ms", "ms", Lower, "recover_s @ local-lifecycle"),
    layer("vcs.fsck_s", "s", Lower, "recover_s @ local-lifecycle"),
    layer("vcs.checkout_us", "us", Lower, "checkout_p50_us @ local-lifecycle"),
    layer("vcs.reader_stall_p99_us", "us", Lower, "requests_per_s @ serve-mixed"),
    layer("net.connect_ms", "ms", Lower, "setup_s @ serve-*"),
    layer("net.ping_rtt_us", "us", Lower, "checkout_p50_us @ serve-read"),
    layer("net.req_encode_us", "us", Lower, "checkout_p50_us @ serve-read"),
    layer("net.resp_encode_us_per_mb", "us/MB", Lower, "checkout_p50_us, requests_per_s, cpu_us_per_request @ serve-read; <= noise @ serve-mixed"),
    layer("net.resp_decode_us_per_mb", "us/MB", Lower, "checkout_p50_us, requests_per_s, cpu_us_per_request @ serve-read"),
    layer("net.frame_write_us_per_mb", "us/MB", Lower, "checkout_p50_us, requests_per_s, cpu_us_per_request @ serve-read"),
    layer("net.frame_read_us_per_mb", "us/MB", Lower, "checkout_p50_us, requests_per_s, cpu_us_per_request @ serve-read"),
    layer("net.wire_bytes_per_payload_byte", "B/B", Lower, "checkout_p50_us @ serve-read"),
    layer("net.remote_put_us_per_object", "us", Lower, "commit_p50_ms @ serve-mixed-remote"),
    layer("net.remote_get_us_per_object", "us", Lower, "commit_online_p50_ms @ serve-mixed-remote"),
    layer("net.remote_round_trips_per_commit", "count", Lower, "commit_p50_ms @ serve-mixed-remote only"),
    layer("net.remote_round_trips_per_online_commit", "count", Lower, "commit_online_p50_ms @ serve-mixed-remote only"),
    layer("net.unaccounted_share", "ratio", Lower, "checkout_p50_us @ serve-read"),
    layer("trace.overhead_share", "ratio", Lower, "none: the cost of tracing itself"),
    layer("checkout_p99_us", "us", Lower, "tail of checkout_p50_us; ungated"),
    layer("commit_p95_ms", "ms", Lower, "tail of commit_p50_ms; ungated"),
    layer("commit_online_p95_ms", "ms", Lower, "tail of commit_online_p50_ms; ungated"),
    layer("rounds", "count", Higher, "none: rounds behind this run's numbers"),
];

/// Per-layer counts the program makes: two traced runs of one build on
/// one seed repeat them bit for bit, and `compare` checks that they do.
pub const EXACT_LAYERS: [&str; 8] = [
    "delta.pairs_revealed",
    "core.materialized_versions",
    "storage.fs_ops_per_commit",
    "storage.fsyncs_per_commit",
    "storage.objects_fetched_per_checkout",
    "vcs.meta_bytes",
    "net.remote_round_trips_per_commit",
    "net.remote_round_trips_per_online_commit",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` and the registry must name the same things.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let file = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let keys: Vec<&str> = file.as_object().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            file.get(key)
                .expect(key)
                .as_array()
                .iter()
                .map(|e| {
                    e.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_owned()
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        // `end_to_end`: what every workload reports; `per_layer`: what
        // only some report, then the layers.
        let (everywhere, some): (Vec<&EndToEnd>, Vec<&EndToEnd>) =
            END_TO_END.iter().partition(|m| m.across_seeds.is_some());
        let listed = file.get("end_to_end").unwrap().as_array();
        assert_eq!(
            names("end_to_end"),
            everywhere.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (entry, m) in listed.iter().zip(&everywhere) {
            let text = |key: &str| entry.get(key).and_then(Json::as_str);
            assert_eq!(text("unit"), Some(m.unit), "{}", m.name);
            assert_eq!(text("better"), Some(m.better.as_str()), "{}", m.name);
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                m.across_seeds,
                "{}",
                m.name
            );
            assert_eq!(
                entry.as_object().len(),
                4,
                "{}: name, unit, better, bound",
                m.name
            );
        }
        let layers: Vec<(&str, &str, Better)> = some
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
            .collect();
        let listed = file.get("per_layer").unwrap().as_array();
        assert_eq!(
            names("per_layer"),
            layers.iter().map(|l| l.0).collect::<Vec<_>>()
        );
        for (entry, (name, unit, better)) in listed.iter().zip(&layers) {
            let text = |key: &str| entry.get(key).and_then(Json::as_str);
            assert_eq!(text("unit"), Some(*unit), "{name}");
            assert_eq!(text("better"), Some(better.as_str()), "{name}");
            assert_eq!(
                entry.as_object().len(),
                3,
                "{name}: name, unit, better only"
            );
        }
        // The issue's rule 5: no timing bound above 0.10, `setup_s` 0.15;
        // what every result line carries, every workload reports.
        for m in &END_TO_END {
            let cap = if m.name == "setup_s" { 0.15 } else { 0.10 };
            assert!(m.bound > 0.0 && m.bound <= cap, "{}", m.name);
            if let Some(across) = m.across_seeds {
                assert!(across >= m.bound && across <= cap, "{}", m.name);
                assert_eq!(m.on, ALL, "{}", m.name);
            }
        }
        assert!(EXACT_LAYERS
            .iter()
            .all(|n| PER_LAYER.iter().any(|l| l.name == *n)));
        for w in file.get("workloads").unwrap().as_array() {
            assert!(w
                .get("why")
                .and_then(Json::as_str)
                .is_some_and(|s| s.len() <= 200));
        }
    }
}
