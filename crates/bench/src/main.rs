//! `dsv-bench <experiment> [--quick]` — paper reproduction + substrate
//! benches: runs one experiment harness, or `all` for the whole sequence.
//! `--quick` shrinks every workload to a seconds-scale smoke run. Tables
//! go to stdout; CSV and `BENCH_*.json` outputs land under the workspace's
//! `target/experiments/` ([`dsv_bench::report::out_dir`]).
//!
//! This binary answers "do the paper's figures reproduce". "How fast is
//! the system" — put/get, checkout, commit and serve timings, repeated
//! with spread — is `benchmark/`'s question (see `BENCHMARK.json`).
//!
//! - `fig12` … `fig17` regenerate Figures 12–17: dataset properties;
//!   directed storage vs ΣR; directed storage vs max R; the undirected
//!   panels; workload-aware LMG; LMG running times.
//! - `table2` regenerates Table 2 (exact vs MP); `sec52` the §5.2
//!   storage-scheme comparison.
//! - `substrates`: Full / Delta / Chunked on the dedup-chain workload →
//!   `BENCH_substrates.json`.
//! - `hybrid`: solver-chosen per-version modes vs the pure regimes on
//!   LC/DD/BF → `BENCH_hybrid.json`.
//! - `solver_matrix`: every registered solver × Problems 1–6 × LC/BF/DD
//!   plus portfolio runs with provenance → `BENCH_solvers.json`;
//!   `--quick` doubles as the CI smoke (every registered solver must
//!   produce a validating plan).

use dsv_bench::{experiments as ex, timed, Scale};

type Experiment = (&'static str, fn(Scale));

/// The paper's evaluation (§5), in the order `all` runs it.
const REPRODUCTION: [Experiment; 11] = [
    ("fig12", |s| drop(ex::fig12::run(s))),
    ("fig13", |s| drop(ex::fig13::run(s))),
    ("fig14", |s| drop(ex::fig14::run(s))),
    ("fig15", |s| drop(ex::fig15::run(s))),
    ("fig16", |s| drop(ex::fig16::run(s))),
    ("fig17", |s| drop(ex::fig17::run(s))),
    ("table2", |s| drop(ex::table2::run(s))),
    ("sec52", |s| drop(ex::sec52::run(s))),
    ("substrates", |s| drop(ex::substrates::run(s))),
    ("hybrid", |s| drop(ex::hybrid::run(s))),
    ("solver_matrix", |s| drop(ex::solver_matrix::run(s))),
];

fn main() -> std::process::ExitCode {
    let (scale, wanted) = match dsv_bench::parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("dsv-bench: {e} (usage: dsv-bench <experiment|all> [--quick])");
            return std::process::ExitCode::FAILURE;
        }
    };
    match wanted.as_deref() {
        Some("all") => {
            println!("# Reproduction run ({scale:?} scale)\n");
            for (name, run) in REPRODUCTION {
                let ((), d) = timed(|| run(scale));
                println!("[{name} done in {:.1}s]\n", d.as_secs_f64());
            }
            println!(
                "CSV outputs: target/experiments/ (plus BENCH_substrates.json, \
                 BENCH_hybrid.json, BENCH_solvers.json)"
            );
        }
        Some(name) => match REPRODUCTION.iter().find(|e| e.0 == name) {
            Some((_, run)) => run(scale),
            None => {
                eprintln!(
                    "dsv-bench: no experiment named '{name}' (run without arguments to list)"
                );
                return std::process::ExitCode::FAILURE;
            }
        },
        None => {
            let names: Vec<&str> = REPRODUCTION.iter().map(|e| e.0).collect();
            println!("usage: dsv-bench <experiment|all> [--quick]");
            println!("experiments: {}", names.join(" "));
        }
    }
    std::process::ExitCode::SUCCESS
}
