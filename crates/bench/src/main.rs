//! `dsv-bench <experiment> [--quick]` — runs one experiment harness, or
//! `all` for the paper reproduction in sequence (the EXPERIMENTS.md
//! driver). `--quick` shrinks every workload to a seconds-scale smoke
//! run. Tables go to stdout; CSV and `BENCH_*.json` outputs land under
//! `target/experiments/` relative to the working directory.
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
//! - `perf`: build / estimate / solve / pack at 1–N dsv-par workers,
//!   parallel ≡ sequential asserted → `BENCH_perf.json`.
//! - `store`: single vs batch vs sharded-batch put/get on the LC/BF/DD
//!   pack corpora, byte-identical stores asserted → `BENCH_store.json`.
//! - `read`: a Zipf(2) checkout trace with and without the bounded
//!   `CheckoutCache`, byte-identical checkouts and a strict store-read
//!   reduction asserted → `BENCH_read.json`.
//! - `serve`: N concurrent `dsv-net` clients replaying a Zipf(2) trace
//!   with interleaved online commits against one loopback `dsvd`, every
//!   checkout verified against a local mirror → `BENCH_serve.json`.

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

/// Measurements of this system rather than of the paper's claims.
const SYSTEM: [Experiment; 4] = [
    ("perf", |s| drop(ex::perf::run(s))),
    ("store", |s| drop(ex::store::run(s))),
    ("read", |s| drop(ex::read::run(s))),
    ("serve", |s| drop(ex::serve::run(s))),
];

fn main() -> std::process::ExitCode {
    let scale = Scale::from_args();
    let wanted = std::env::args().skip(1).find(|a| !a.starts_with("--"));
    let mut known = REPRODUCTION.iter().chain(&SYSTEM);
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
        Some(name) => match known.find(|e| e.0 == name) {
            Some((_, run)) => run(scale),
            None => {
                eprintln!(
                    "dsv-bench: no experiment named '{name}' (run without arguments to list)"
                );
                return std::process::ExitCode::FAILURE;
            }
        },
        None => {
            let names: Vec<&str> = known.map(|e| e.0).collect();
            println!("usage: dsv-bench <experiment|all> [--quick]");
            println!("experiments: {}", names.join(" "));
        }
    }
    std::process::ExitCode::SUCCESS
}
