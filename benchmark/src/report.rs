//! What a run reports: named values with the sample summary behind
//! them, the correctness verdict, and the provenance every row carries.

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{summarize, Summary};
use crate::sys;
use std::collections::BTreeMap;

/// One reported number and the samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    /// Quartiles of the underlying samples (round values or pooled
    /// per-op samples); `None` for counts and single readings.
    pub samples: Option<Summary>,
}

impl Value {
    pub fn single(value: f64) -> Value {
        Value {
            value,
            samples: None,
        }
    }

    /// `value` as the headline, `samples` as its q1/median/q3/n.
    pub fn of(value: f64, samples: &[f64]) -> Value {
        Value {
            value,
            samples: (!samples.is_empty()).then(|| summarize(samples)),
        }
    }
}

/// The outcome of one run of one workload.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub quick: bool,
    pub rounds: usize,
    pub scratch: String,
    pub filesystem: String,
    /// The one CPU the process pinned itself to, if the kernel let it.
    pub pinned_cpu: Option<usize>,
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the outputs are wrong beyond failed ops (a count that
    /// differed between rounds, a cache that did not behave as stated).
    pub violations: Vec<String>,
    pub values: BTreeMap<&'static str, Value>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: Value) {
        self.values.insert(name, value);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    pub fn violation(&mut self, what: String) {
        self.violations.push(what);
    }

    /// The registry rows of this run's result line as `(name, unit)` —
    /// untraced, the end-to-end metrics every workload reports; traced,
    /// everything `BENCHMARK.json` lists under `per_layer`: the
    /// end-to-end metrics only some workloads report, then the layers.
    fn line_rows(&self) -> Vec<(&'static str, &'static str)> {
        let e2e = END_TO_END
            .iter()
            .filter(|m| m.across_seeds.is_some() != self.traced)
            .map(|m| (m.name, m.unit));
        if self.traced {
            e2e.chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
                .collect()
        } else {
            e2e.collect()
        }
    }

    /// The table for people: every end-to-end metric this workload
    /// reports, and — traced — every per-layer metric.
    pub fn print(&self) {
        let mode = match (self.quick, self.traced) {
            (true, _) => "QUICK (smoke only)",
            (false, true) => "traced",
            (false, false) => "untraced",
        };
        println!(
            "workload {} · seed {} · {mode} · {} rounds · {} hardware threads · scratch {} ({})",
            self.workload,
            self.seed,
            self.rounds,
            sys::hardware_threads(),
            self.scratch,
            self.filesystem
        );
        // An end-to-end metric a workload reports must be there; a layer
        // it does not have (no cache, no wire, no remote store) is not.
        let row = |name: &str, unit: &str, note: String, absent: &str| match self.values.get(name) {
            Some(v) => {
                let spread = v.samples.map_or(String::new(), |s| {
                    format!(
                        "   [q1 {:.6} · median {:.6} · q3 {:.6} · n {}]",
                        s.q1, s.median, s.q3, s.n
                    )
                });
                println!("  {name:<40} {:>16.6} {unit:<6}{spread}{note}", v.value);
            }
            None => println!("  {name:<40} {absent:>16} {unit:<6}"),
        };
        for m in END_TO_END
            .iter()
            .filter(|m| m.on.contains(&self.workload.as_str()))
        {
            let exact = if m.exact { ", exact per seed" } else { "" };
            let gate = match m.across_seeds {
                Some(b) => format!("bound {:.0} % across seeds{exact}", b * 100.0),
                None => format!("bound {:.0} % seed by seed: compare", m.bound * 100.0),
            };
            let note = format!("   ({} is better, {gate})", m.better.as_str());
            row(m.name, m.unit, note, "MISSING");
        }
        if self.traced {
            for m in &PER_LAYER {
                let note = format!("   ({} is better) → {}", m.better.as_str(), m.moves);
                row(m.name, m.unit, note, "-");
            }
        }
        println!(
            "  attempted {} · failed {} · outputs {}",
            self.attempted,
            self.failed,
            if self.correct() { "correct" } else { "WRONG" }
        );
        for v in &self.violations {
            println!("  WRONG: {v}");
        }
    }

    /// The one-line result the driver parses: exactly `correct`,
    /// `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        // A traced line names every per-layer metric; a layer (or an
        // operation) this workload does not have reads 0.
        let metrics = self.line_rows().into_iter().filter_map(|(name, unit)| {
            let value = match self.values.get(name) {
                Some(v) => v.value,
                None if self.traced => 0.0,
                None => return None,
            };
            Some((
                name,
                Json::object([("value", Json::from(value)), ("unit", Json::from(unit))]),
            ))
        });
        Json::object([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted.max(1))),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::object(metrics)),
        ])
        .to_string()
    }

    /// The full row for result files (`--out`, baseline, compare).
    pub fn to_json(&self) -> Json {
        let registry = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        let metrics = registry.filter_map(|(name, unit)| {
            let v = self.values.get(name)?;
            let mut fields = vec![("value", Json::from(v.value)), ("unit", Json::from(unit))];
            if let Some(s) = v.samples {
                fields.extend([
                    ("q1", Json::from(s.q1)),
                    ("median", Json::from(s.median)),
                    ("q3", Json::from(s.q3)),
                    ("samples", Json::from(s.n)),
                ]);
            }
            Some((name, Json::object(fields)))
        });
        Json::object([
            ("workload", Json::from(self.workload.as_str())),
            ("seed", Json::from(self.seed)),
            ("traced", Json::from(self.traced)),
            ("quick", Json::from(self.quick)),
            ("rounds", Json::from(self.rounds)),
            ("git_revision", Json::from(sys::git_revision())),
            ("hardware_threads", Json::from(sys::hardware_threads())),
            ("pinned_cpu", self.pinned_cpu.map_or(Json::Null, Json::from)),
            ("scratch", Json::from(self.scratch.as_str())),
            ("filesystem", Json::from(self.filesystem.as_str())),
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::object(metrics)),
        ])
    }
}
