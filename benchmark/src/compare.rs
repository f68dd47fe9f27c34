//! `compare`: two result files, the bounds of the registry, one verdict
//! per workload × end-to-end metric that is gated there (and that at
//! least one file holds).
//!
//! A seed is a history, and how much work a history is differs a little
//! from seed to seed; so the two sides are compared seed by seed, on the
//! seeds both ran. Counts the program makes (`exact` metrics, and the
//! exact per-layer counts of traced runs) must moreover repeat bit for
//! bit on every seed for two sets of runs of one build to agree.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, EXACT_LAYERS, WORKLOADS};
use crate::stats::{median, summarize, Summary};
use std::collections::BTreeMap;

/// Runs a side needs before its spread means anything.
pub const MIN_RUNS: usize = 3;

/// One run of a result file.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub values: BTreeMap<String, f64>,
}

/// What a result file holds.
pub struct ResultFile {
    pub runs: Vec<Run>,
    /// Failed ÷ attempted over all runs.
    pub failed_share: f64,
    pub all_correct: bool,
}

impl ResultFile {
    /// `metric` of every run of `workload`, traced or not, by seed.
    fn by_seed(&self, workload: &str, metric: &str, traced: bool) -> BTreeMap<u64, f64> {
        self.runs
            .iter()
            .filter(|r| r.workload == workload && r.traced == traced)
            .filter_map(|r| Some((r.seed, *r.values.get(metric)?)))
            .collect()
    }
}

pub fn read_results(file: &Json) -> Result<ResultFile, String> {
    let runs = file
        .get("runs")
        .ok_or("no `runs` in result file")?
        .as_array();
    if runs.is_empty() {
        return Err("result file holds no runs".into());
    }
    let mut out = ResultFile {
        runs: Vec::new(),
        failed_share: 0.0,
        all_correct: true,
    };
    let (mut attempted, mut failed) = (0.0, 0.0);
    for run in runs {
        if run.get("quick").and_then(Json::as_bool) == Some(true) {
            return Err("QUICK (smoke only) results are not comparable".into());
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without workload")?;
        attempted += run.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        failed += run.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        out.all_correct &= run.get("correct").and_then(Json::as_bool) == Some(true);
        let metrics = run.get("metrics").map(Json::as_object).unwrap_or(&[]);
        out.runs.push(Run {
            workload: workload.to_owned(),
            seed: run.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            traced: run.get("traced").and_then(Json::as_bool) == Some(true),
            values: metrics
                .iter()
                .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                .collect(),
        });
    }
    out.failed_share = if attempted > 0.0 {
        failed / attempted
    } else {
        0.0
    };
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The change differs between seeds by more than the bound: no claim
    /// either way.
    Unresolved,
    /// Fewer than [`MIN_RUNS`] seeds on both sides: the spread is unknown.
    TooFew,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved (spread wider than bound)",
            Verdict::TooFew => "no verdict (fewer than 3 seeds on both sides)",
        }
    }
}

/// Compares side `b` against side `a` on one metric, seed by seed:
/// `pairs` holds `(a, b)` of every seed both sides ran. Returns the
/// verdict and the quartiles of the per-seed change — by how much `b` is
/// worse than `a` as a share of `a`, negative when better — which are
/// what the verdict is reached on: its median against the bound, and
/// *unresolved* when its interquartile range is wider than the bound.
pub fn judge(pairs: &[(f64, f64)], better: Better, bound: f64) -> (Verdict, Summary) {
    let changes: Vec<f64> = pairs
        .iter()
        .map(|&(a, b)| match better {
            Better::Lower => (b - a) / a.abs(),
            Better::Higher => (a - b) / a.abs(),
        })
        .collect();
    let change = summarize(&changes);
    let verdict = if change.n < MIN_RUNS {
        Verdict::TooFew
    } else if change.q3 - change.q1 > bound {
        Verdict::Unresolved
    } else if change.median > bound {
        Verdict::Worse
    } else if change.median < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (verdict, change)
}

/// The outcome of a whole comparison.
#[derive(Debug, Default)]
pub struct Comparison {
    pub regressions: usize,
    /// Rows without a verdict.
    pub unresolved: usize,
    /// … of them on metrics that are gated across runs, other than
    /// `setup_s` (whose spread is not gated: it is a median of few
    /// set-ups by construction).
    pub unresolved_gated: usize,
    pub missing: usize,
    /// Seeds on which an exact count differs between the sides.
    pub exact_differences: usize,
    pub failed_share_rose: bool,
}

impl Comparison {
    /// What `compare` exits on.
    pub fn regressed(&self) -> bool {
        self.regressions > 0 || self.failed_share_rose || self.missing > 0
    }

    /// What `selfcheck` passes on — two sets of runs of one build: no
    /// median moved by more than its bound, no metric that is gated
    /// across runs spread wider than its bound, and every count the same
    /// on every seed. The metrics demoted under rule 5 are shown with
    /// their verdict, *unresolved* included, and decide nothing here.
    pub fn agrees(&self) -> bool {
        !self.regressed() && self.unresolved_gated == 0 && self.exact_differences == 0
    }
}

/// Prints one row per workload × gated end-to-end metric, then the
/// exact per-layer counts of traced runs both files hold, and returns
/// the tally.
pub fn compare(a: &ResultFile, b: &ResultFile) -> Comparison {
    let mut out = Comparison {
        failed_share_rose: b.failed_share > a.failed_share || (a.all_correct && !b.all_correct),
        ..Comparison::default()
    };
    println!(
        "{:<20} {:<36} {:>12} {:>12} {:>9} {:>20} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "q1 … q3 over seeds", "bound"
    );
    for workload in WORKLOADS {
        for m in END_TO_END.iter().filter(|m| m.on.contains(&workload)) {
            let (va, vb) = (
                a.by_seed(workload, m.name, false),
                b.by_seed(workload, m.name, false),
            );
            if va.is_empty() && vb.is_empty() {
                continue; // a workload neither file ran
            }
            let pairs: Vec<(f64, f64)> = va
                .iter()
                .filter_map(|(seed, x)| Some((*x, *vb.get(seed)?)))
                .collect();
            if pairs.is_empty() {
                println!(
                    "{workload:<20} {:<36} MISSING: no seed on both sides",
                    m.name
                );
                out.missing += 1;
                continue;
            }
            let (verdict, change) = judge(&pairs, m.better, m.bound);
            let side = |f: fn(&(f64, f64)) -> f64| median(&pairs.iter().map(f).collect::<Vec<_>>());
            let differing = pairs.iter().filter(|(x, y)| x != y).count();
            let identical = if m.exact {
                out.exact_differences += differing;
                format!(
                    " ({} of {} seeds identical)",
                    pairs.len() - differing,
                    pairs.len()
                )
            } else {
                String::new()
            };
            println!(
                "{workload:<20} {:<36} {:>12.5} {:>12.5} {:>+8.2}% {:>20} {:>5.0}%  {}{identical}",
                m.name,
                side(|p| p.0),
                side(|p| p.1),
                change.median * 100.0,
                format!("{:+.2}% … {:+.2}%", change.q1 * 100.0, change.q3 * 100.0),
                m.bound * 100.0,
                verdict.word(),
            );
            match verdict {
                Verdict::Worse => out.regressions += 1,
                Verdict::Unresolved | Verdict::TooFew => {
                    out.unresolved += 1;
                    out.unresolved_gated +=
                        usize::from(m.across_seeds.is_some() && m.name != "setup_s");
                }
                Verdict::Better | Verdict::Same => {}
            }
        }
    }
    for workload in WORKLOADS {
        for name in EXACT_LAYERS {
            let (va, vb) = (
                a.by_seed(workload, name, true),
                b.by_seed(workload, name, true),
            );
            for (seed, x) in &va {
                let Some(y) = vb.get(seed) else { continue };
                let word = if x == y { "identical" } else { "DIFFERS" };
                println!("{workload:<20} {name:<36} seed {seed}: {x} vs {y}  {word}");
                out.exact_differences += usize::from(x != y);
            }
        }
    }
    println!(
        "failed share: A {:.6}, B {:.6}{}",
        a.failed_share,
        b.failed_share,
        if out.failed_share_rose {
            "  — ROSE"
        } else {
            ""
        }
    );
    println!(
        "{} regression(s), {} without verdict ({} of them gated across runs), {} missing, {} exact count(s) differing",
        out.regressions, out.unresolved, out.unresolved_gated, out.missing, out.exact_differences
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_direction_bound_spread_and_the_run_minimum() {
        // Five seeds whose values differ by 30 % from seed to seed, which
        // no bound cares about: each seed is compared with itself.
        let a = [100.0, 130.0, 70.0, 115.0, 85.0];
        let side = |scale: f64| -> Vec<(f64, f64)> {
            let wobble = [1.0, 1.01, 0.99, 1.0, 1.005];
            a.iter()
                .zip(wobble)
                .map(|(x, w)| (*x, x * scale * w))
                .collect()
        };
        let verdict = |scale, better| judge(&side(scale), better, 0.10).0;
        // Lower is better: +20 % is worse, −20 % better, +5 % the same.
        assert_eq!(verdict(1.2, Better::Lower), Verdict::Worse);
        assert_eq!(verdict(0.8, Better::Lower), Verdict::Better);
        assert_eq!(verdict(1.05, Better::Lower), Verdict::Same);
        // Higher is better flips the sign.
        assert_eq!(verdict(1.2, Better::Higher), Verdict::Better);
        assert_eq!(verdict(0.8, Better::Higher), Verdict::Worse);
        let (_, change) = judge(&side(1.1), Better::Lower, 0.25);
        assert!((change.median - 0.10).abs() < 1e-9);
        // Changes that disagree between seeds by more than the bound
        // resolve nothing, and the quartiles handed back are the ones
        // that say so.
        let noisy: Vec<(f64, f64)> = [0.8, 1.0, 1.2, 1.4, 1.6].map(|r| (100.0, 100.0 * r)).into();
        let (v, change) = judge(&noisy, Better::Lower, 0.10);
        assert_eq!(v, Verdict::Unresolved);
        assert!((change.q1 - -0.1).abs() < 1e-9 && (change.q3 - 0.5).abs() < 1e-9);
        // Two seeds have no spread to speak of: no verdict.
        assert_eq!(
            judge(&side(3.0)[..2], Better::Lower, 0.10).0,
            Verdict::TooFew
        );
    }

    fn run(seed: u64, quick: bool, metrics: &[(&str, f64)], failed: u64) -> Json {
        Json::object([
            ("workload", Json::from("serve-mixed")),
            ("seed", Json::from(seed)),
            ("quick", Json::from(quick)),
            ("traced", Json::from(false)),
            ("correct", Json::from(failed == 0)),
            ("attempted", Json::from(100u64)),
            ("failed", Json::from(failed)),
            (
                "metrics",
                Json::object(
                    metrics
                        .iter()
                        .map(|&(name, v)| (name, Json::object([("value", Json::from(v))])))
                        .collect::<Vec<_>>(),
                ),
            ),
        ])
    }

    fn file(runs: Vec<Json>) -> ResultFile {
        read_results(&Json::object([("runs", Json::Array(runs))])).unwrap()
    }

    #[test]
    fn quick_results_refuse_to_be_compared() {
        let quick = Json::object([("runs", Json::Array(vec![run(1, true, &[], 0)]))]);
        assert!(read_results(&quick).is_err());
        let ok = file(vec![run(7, false, &[("setup_s", 1.5)], 0)]);
        assert_eq!(ok.by_seed("serve-mixed", "setup_s", false)[&7], 1.5);
    }

    #[test]
    fn a_higher_failed_share_is_a_regression() {
        let a = file(vec![run(1, false, &[("setup_s", 1.0)], 0)]);
        let b = file(vec![run(1, false, &[("setup_s", 1.0)], 3)]);
        assert!(compare(&a, &b).failed_share_rose);
    }

    #[test]
    fn exact_counts_must_repeat_on_every_seed() {
        let stored = "stored_bytes_per_logical_byte";
        let side = |scale: f64| {
            file(
                (1..=3)
                    .map(|s| {
                        run(
                            s,
                            false,
                            &[(stored, 0.05 * scale * (1.0 + 0.2 * s as f64))],
                            0,
                        )
                    })
                    .collect(),
            )
        };
        let same = compare(&side(1.0), &side(1.0));
        assert_eq!((same.exact_differences, same.regressions), (0, 0));
        assert!(same.agrees());
        let grown = compare(&side(1.0), &side(1.02));
        assert_eq!((grown.exact_differences, grown.regressions), (3, 1));
        let nudged = compare(&side(1.0), &side(1.001));
        assert_eq!((nudged.exact_differences, nudged.regressions), (3, 0));
        assert!(!nudged.agrees() && !nudged.regressed());
    }
}
