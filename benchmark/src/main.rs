//! `dsv-benchmark`: the round-based lifecycle + serve benchmark.
//!
//! ```text
//! dsv-benchmark [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1]
//!               [--quick] [--out FILE]
//! dsv-benchmark compare <a.json> <b.json>
//! dsv-benchmark selfcheck [--runs N] [--seconds S] [--out-prefix PATH]
//! ```
//!
//! A run is one process (`selfcheck` starts one per run); see `README.md`
//! next to the manifest for what is measured and why.

mod compare;
mod gen;
mod json;
mod layers;
mod lifecycle;
mod metrics;
mod report;
mod serve;
mod stats;
mod sys;
mod trace;
mod workloads;

use json::Json;
use report::Report;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Env, Options, Workload};

/// Before the first timer of the process: at least two seconds busy on
/// smoke-scale lifecycle passes. A process that starts timing cold pays
/// a first-run penalty (frequency ramp-up, page faults, cold caches) of
/// tens of percent on set-up.
fn warm_up(env: &Env) {
    let deadline = Instant::now() + Duration::from_secs(2);
    let inputs = gen::Inputs::generate(gen::Scale::QUICK, 0);
    let off = trace::Recorder::new(false);
    while Instant::now() < deadline {
        let dir = sys::fresh_dir(&env.root, "warm");
        lifecycle::run(&inputs, &dir, &off);
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value '{v}' for {flag}")),
    }
}

fn workloads_named(name: &str) -> Result<Vec<Workload>, String> {
    if name == "all" {
        return Ok(metrics::WORKLOADS
            .iter()
            .filter_map(|w| Workload::parse(w))
            .collect());
    }
    Workload::parse(name).map(|w| vec![w]).ok_or_else(|| {
        format!(
            "unknown workload '{name}' (one of: {}, all)",
            metrics::WORKLOADS.join(", ")
        )
    })
}

/// The result file: provenance, one row per run, and per workload ×
/// metric the median and quartiles over the (untraced) runs.
fn result_file(runs: Vec<Json>) -> Json {
    let mut summary: Vec<(String, Json)> = Vec::new();
    for workload in metrics::WORKLOADS {
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let of_workload = runs.iter().filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("traced").and_then(Json::as_bool) == Some(false)
        });
        for run in of_workload {
            for (name, metric) in run.get("metrics").map(Json::as_object).unwrap_or(&[]) {
                if let Some(v) = metric.get("value").and_then(Json::as_f64) {
                    values.entry(name).or_default().push(v);
                }
            }
        }
        if values.is_empty() {
            continue;
        }
        let rows = values.into_iter().map(|(name, values)| {
            let s = stats::summarize(&values);
            let row = Json::object([
                ("runs", Json::from(s.n)),
                ("median", Json::from(s.median)),
                ("q1", Json::from(s.q1)),
                ("q3", Json::from(s.q3)),
            ]);
            (name.to_owned(), row)
        });
        summary.push((workload.to_owned(), Json::Object(rows.collect())));
    }
    Json::object([
        ("git_revision", Json::from(sys::git_revision())),
        ("summary", Json::Object(summary)),
        ("runs", Json::Array(runs)),
    ])
}

/// `selfcheck`: two sets of `runs` full runs of this build on the same
/// seeds, interleaved A/B seed by seed, every run a process of its own
/// (as whoever accepts the benchmark runs it), plus one traced run per
/// workload and side for the exact per-layer counts; then `compare`.
fn selfcheck(args: &[String], env: &Env) -> Result<ExitCode, String> {
    let runs: u64 = parse(args, "--runs", 5)?;
    let seconds = flag_value(args, "--seconds").unwrap_or(DEFAULT_SECONDS);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = env.root.join("run.json");
    let mut sides: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
    for seed in 1..=runs {
        for side in &mut sides {
            for workload in metrics::WORKLOADS {
                for trace in ["0", "1"] {
                    if trace == "1" && seed > 1 {
                        continue;
                    }
                    let status = std::process::Command::new(&exe)
                        .args(["--workload", workload, "--seed", &seed.to_string()])
                        .args(["--seconds", seconds, "--trace", trace, "--out"])
                        .arg(&out)
                        .status()
                        .map_err(|e| format!("starting a run: {e}"))?;
                    if !status.success() {
                        return Err(format!("{workload} seed {seed} trace {trace}: {status}"));
                    }
                    let text = std::fs::read_to_string(&out).map_err(|e| e.to_string())?;
                    let file = Json::parse(&text)?;
                    side.extend(file.get("runs").map(Json::as_array).unwrap_or(&[]).to_vec());
                }
            }
        }
    }
    let [a, b] = sides.map(result_file);
    if let Some(prefix) = flag_value(args, "--out-prefix") {
        for (side, file) in [("a", &a), ("b", &b)] {
            std::fs::write(format!("{prefix}-{side}.json"), file.pretty())
                .map_err(|e| e.to_string())?;
        }
    }
    let outcome = compare::compare(&compare::read_results(&a)?, &compare::read_results(&b)?);
    let agree = outcome.agrees();
    println!(
        "selfcheck: two sets of {runs} runs of the same build {}",
        if agree { "AGREE" } else { "DISAGREE" }
    );
    Ok(if agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

const DEFAULT_SECONDS: &str = "12";

fn real_main(args: &[String]) -> Result<ExitCode, String> {
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args else {
            return Err("usage: dsv-benchmark compare <a.json> <b.json>".into());
        };
        let read = |path: &str| -> Result<compare::ResultFile, String> {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            compare::read_results(&Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
                .map_err(|e| format!("{path}: {e}"))
        };
        let outcome = compare::compare(&read(a)?, &read(b)?);
        return Ok(if outcome.regressed() {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }

    // Before the first thread starts: everything after inherits the pin.
    // One CPU, so one client and one `dsv_par` thread.
    let pinned_cpu = sys::pin_to_one_cpu();
    dsv_par::set_thread_count(Some(1));
    let (root, filesystem) = sys::scratch_root();
    let env = Env {
        root,
        filesystem,
        pinned_cpu,
    };
    if args.first().map(String::as_str) == Some("selfcheck") {
        return selfcheck(args, &env);
    }
    match pinned_cpu {
        Some(cpu) => println!("pinned to CPU {cpu}: one client, one dsv_par thread"),
        None => println!("NOT pinned to one CPU (the kernel refused): expect noisy timings"),
    }
    println!(
        "scratch directories under {} ({}); Durability::Full, fsyncs issued and counted",
        env.root.display(),
        env.filesystem
    );

    let seconds: f64 = parse(
        args,
        "--seconds",
        DEFAULT_SECONDS.parse().expect("a number"),
    )?;
    let quick = args.iter().any(|a| a == "--quick");
    let traced = match flag_value(args, "--trace").unwrap_or("0") {
        "0" | "off" => false,
        "1" | "on" => true,
        other => {
            return Err(format!(
                "invalid value '{other}' for --trace (0, 1, off, on)"
            ))
        }
    };
    let list = workloads_named(flag_value(args, "--workload").unwrap_or("all"))?;
    let seed: u64 = parse(args, "--seed", 1)?;
    if quick {
        println!("QUICK (smoke only): small inputs, two rounds; not comparable");
    }
    warm_up(&env);
    let mut reports = Vec::new();
    for workload in list {
        // Reset the peak-RSS mark so each workload reports its own peak.
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        let report = workloads::run(
            &Options {
                workload,
                seed,
                seconds,
                traced,
                quick,
            },
            &env,
        );
        report.print();
        // The last line printed is the last workload's result line.
        println!("{}", report.result_line());
        reports.push(report);
    }
    if let Some(path) = flag_value(args, "--out") {
        let file = result_file(reports.iter().map(Report::to_json).collect());
        std::fs::write(path, file.pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(if reports.iter().all(Report::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("dsv-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
