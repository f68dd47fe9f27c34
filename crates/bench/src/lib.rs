#![warn(missing_docs)]

//! Experiment harnesses regenerating every table and figure of the paper.
//!
//! Each module in [`experiments`] corresponds to one element of the
//! paper's evaluation (§5) and produces the same rows/series the paper
//! reports, printed as aligned tables and written as CSV under the
//! workspace's `target/experiments/` ([`report::out_dir`]). The one
//! binary, `dsv-bench <experiment> [--quick]`, runs any of them by name
//! and `dsv-bench all` runs the paper reproduction in sequence. How fast
//! the *system* is — put/get, checkout, commit, serve, and the kernels
//! under them — is measured by `benchmark/`, not here. Every experiment
//! reaches the solver suite through the planner (`dsv_core::plan` with a
//! `PlanSpec` naming a registry solver); `experiments::solver_matrix`
//! runs the whole registry × Problems 1–6 × workloads and writes
//! `BENCH_solvers.json` with portfolio provenance.
//!
//! Absolute numbers differ from the paper (scaled workloads, different
//! hardware, our own substrates); the *shape* of each result — orderings,
//! ratios, crossovers — is the reproduction target.

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
/// tests and CI); the default runs them at full size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small versions of every workload (seconds).
    Quick,
    /// Every workload at full size (minutes).
    Full,
}

impl Scale {
    /// Picks between the quick and full variants of a parameter.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Parses `dsv-bench`'s arguments: at most one experiment name (none
/// means "list them") and `--quick`. Anything else is an error, so a typo
/// cannot fall back to the full-scale sweep and a second name cannot be
/// dropped.
pub fn parse_args<S: AsRef<str>>(
    args: impl IntoIterator<Item = S>,
) -> Result<(Scale, Option<String>), String> {
    let mut scale = Scale::Full;
    let mut name: Option<String> = None;
    for arg in args {
        match arg.as_ref() {
            "--quick" if scale == Scale::Full => scale = Scale::Quick,
            "--quick" => return Err("--quick given more than once".into()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
            second if name.is_some() => {
                let first = name.unwrap_or_default();
                return Err(format!(
                    "one experiment at a time, not '{first}' and '{second}'"
                ));
            }
            first => name = Some(first.to_owned()),
        }
    }
    Ok((scale, name))
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

    #[test]
    fn args_name_one_experiment_and_nothing_else() {
        assert_eq!(
            parse_args(["fig12"]),
            Ok((Scale::Full, Some("fig12".into())))
        );
        assert_eq!(
            parse_args(["--quick", "all"]),
            Ok((Scale::Quick, Some("all".into())))
        );
        assert_eq!(parse_args::<&str>([]), Ok((Scale::Full, None)));
        assert_eq!(
            parse_args(["fig12", "--quik"]),
            Err("unknown flag '--quik'".into())
        );
        assert_eq!(
            parse_args(["fig12", "fig13"]),
            Err("one experiment at a time, not 'fig12' and 'fig13'".into())
        );
    }
}
