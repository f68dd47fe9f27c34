//! Order statistics: the only aggregation the benchmark does.

/// `n`, quartiles and median of a sample — what every result row carries
/// next to its headline value, and what `compare` judges spread by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The one quartile rule of the benchmark, for the rows it prints and
/// for the verdicts of `compare` alike: the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, which is what the benchmark's
/// acceptance is computed with. A single value is its own quartiles.
/// Panics on an empty sample.
pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return Summary {
            n,
            q1: s[0],
            median: s[0],
            q3: s[0],
        };
    }
    let at = |k: usize| {
        // Position k(n+1)/4 on a 1-based scale, between the two nearest
        // ranks; beyond the ends it extrapolates, as Python's does.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        s[j - 1] + (s[j] - s[j - 1]) * (pos - j as f64)
    };
    Summary {
        n,
        q1: at(1),
        median: at(2),
        q3: at(3),
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// The round-level estimator: the ⌈R/10⌉-th fastest of `R` round
/// values (the fastest, up to ten rounds). Rounds do identical work, so
/// whatever a round took beyond the fast ones is interference from the
/// rest of the machine, and on a shared box interference comes in spells
/// that outlast most of a run: only the low end of the rounds repeats
/// from run to run (README, "Estimators").
pub fn fast_tenth(values: &[f64]) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "fast tenth of no rounds");
    s[s.len().div_ceil(10) - 1]
}

/// The same estimator for a per-op latency: each round's median is a
/// round-level value like its duration, so the reported latency is the
/// fast tenth of the rounds' medians. Rounds without the op are skipped;
/// `None` when no round has it.
pub fn fast_tenth_of_medians<'a>(rounds: impl Iterator<Item = &'a Vec<f64>>) -> Option<f64> {
    let medians: Vec<f64> = rounds
        .filter(|r| !r.is_empty())
        .map(|r| median(r))
        .collect();
    (!medians.is_empty()).then(|| fast_tenth(&medians))
}

/// Percentile `p` (e.g. 0.99) of a sample, reported only when at least
/// ten samples lie beyond it; otherwise the tail is too thin to name.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    let beyond = (values.len() as f64 * (1.0 - p)).floor() as usize;
    (beyond >= 10).then(|| {
        let s = sorted(values);
        s[s.len() - 1 - beyond]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.n, s.q1, s.median, s.q3), (10, 2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5].
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
        let s = summarize(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let one = summarize(&[3.0]);
        assert_eq!((one.q1, one.median, one.q3), (3.0, 3.0, 3.0));
    }

    #[test]
    fn fast_tenth_is_the_ceil_r_over_10_th_fastest() {
        // R = 7 → the fastest; R = 10 → the fastest; R = 11 → 2nd; R = 30 → 3rd.
        assert_eq!(fast_tenth(&[9.0, 1.0, 7.0, 2.0, 8.0, 3.0, 6.0]), 1.0);
        let rounds = |n: u32| (1..=n).rev().map(f64::from).collect::<Vec<_>>();
        assert_eq!(fast_tenth(&rounds(10)), 1.0);
        assert_eq!(fast_tenth(&rounds(11)), 2.0);
        assert_eq!(fast_tenth(&rounds(30)), 3.0);
        assert_eq!(fast_tenth(&[4.2]), 4.2);
        // Slow rounds, however many, do not move it.
        assert_eq!(fast_tenth(&[1.0, 50.0, 50.0, 50.0, 50.0, 50.0, 50.0]), 1.0);
    }

    #[test]
    fn latency_is_the_fast_tenth_of_round_medians() {
        // Twelve rounds with medians 10..=20 and one disturbed round at
        // 90 → the 2nd lowest median, 11; rounds without the op do not
        // count.
        let rounds: Vec<Vec<f64>> = (10..=20)
            .map(f64::from)
            .chain([90.0])
            .map(|m| vec![m - 1.0, m, m + 1.0])
            .chain([Vec::new()])
            .collect();
        assert_eq!(fast_tenth_of_medians(rounds.iter()), Some(11.0));
        assert_eq!(fast_tenth_of_medians([Vec::new()].iter()), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail_percentile(&few, 0.99), None, "9 beyond p99");
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&enough, 0.99), Some(989.0));
        assert_eq!(tail_percentile(&enough, 0.95), Some(949.0));
        let eighty: Vec<f64> = (0..80).map(f64::from).collect();
        assert_eq!(tail_percentile(&eighty, 0.95), None, "4 beyond p95");
        assert_eq!(tail_percentile(&eighty, 0.5), Some(39.0));
    }
}
