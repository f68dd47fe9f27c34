#![warn(missing_docs)]

//! Experiment harnesses regenerating every table and figure of the paper.
//!
//! Each module in [`experiments`] corresponds to one element of the
//! paper's evaluation (§5) and produces the same rows/series the paper
//! reports, printed as aligned tables and written as CSV under the
//! workspace's `target/experiments/` ([`report::out_dir`]). The one
//! binary, `dsv-bench <experiment> [--quick]`, runs any of them by name
//! and `dsv-bench all` runs the paper reproduction in sequence. Criterion
//! benches (in `benches/`) cover the runtime-flavoured results and the
//! substrate kernels; how fast the *system* is — put/get, checkout,
//! commit, serve — is measured by `benchmark/`, not here. Every experiment
//! reaches the solver suite through the planner (`dsv_core::plan` with a
//! `PlanSpec` naming a registry solver); `experiments::solver_matrix`
//! runs the whole registry × Problems 1–6 × workloads and writes
//! `BENCH_solvers.json` with portfolio provenance.
//!
//! Absolute numbers differ from the paper (scaled workloads, different
//! hardware, our own substrates); the *shape* of each result — orderings,
//! ratios, crossovers — is the reproduction target. EXPERIMENTS.md in the
//! workspace root records measured-vs-paper for each experiment.

pub mod experiments;
pub mod report;

pub use report::{write_csv, Table};

use std::time::{Duration, Instant};

/// Runs `f`, returning its result and wall-clock duration.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Experiment scale: `--quick` shrinks the workloads (useful for smoke
/// tests and CI), default mirrors EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small versions of every workload (seconds).
    Quick,
    /// The scale EXPERIMENTS.md records (minutes).
    Full,
}

impl Scale {
    /// Parses process args: any `--quick` flag selects [`Scale::Quick`].
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// Picks between the quick and full variants of a parameter.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_measures_something() {
        let (value, d) = timed(|| {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(value, 42);
        assert!(d >= Duration::from_millis(5));
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }
}
