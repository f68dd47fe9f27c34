//! Fork-style workloads: the BF / LF analogues.
//!
//! The paper's real-world datasets are 986 forks of Twitter Bootstrap and
//! 100 forks of Linux: for each fork the latest version is checked out and
//! all files concatenated, then deltas are computed "between all pairs of
//! versions … provided the size difference between the versions under
//! consideration is less than a threshold" (§5.1). GitHub data is not
//! available here, so this generator reproduces those structural
//! properties: one common ancestor, per-fork divergence of varying depth
//! (fork activity is heavy-tailed), **no version graph**, and all-pairs
//! deltas under a size-difference threshold, revealed as line-script
//! sizes by the shared `line_matrix` (`Φ = Δ` = bytes).

use crate::dataset::{line_matrix, Dataset};
use crate::table_gen::{base_table, random_commit, EditParams};
use dsv_obs as obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the fork-workload generator.
#[derive(Debug, Clone, Copy)]
pub struct ForkParams {
    /// Number of forks (= versions).
    pub forks: usize,
    /// Content/edit shape.
    pub edits: EditParams,
    /// Per-fork divergence: number of commits is geometric with this
    /// continuation probability, capped at `max_commits_per_fork`.
    pub divergence_continue_prob: f64,
    /// Upper bound on per-fork commits.
    pub max_commits_per_fork: usize,
    /// Number of fork *families*: forks within a family share a heavily
    /// diverged family base, so cross-family deltas are near-full-size
    /// while in-family deltas stay small (real fork populations cluster
    /// this way, which is what makes base *choice* matter — §5.2).
    pub clusters: usize,
    /// Commits separating each family base from the common ancestor.
    pub cluster_spread_commits: usize,
    /// Reveal deltas only for pairs whose size difference is at most this
    /// many bytes (the paper's 100KB / 10MB thresholds, scaled).
    pub size_diff_threshold: u64,
    /// Directed or undirected deltas.
    pub directed: bool,
    /// Keep raw contents.
    pub keep_contents: bool,
}

impl Default for ForkParams {
    fn default() -> Self {
        ForkParams {
            forks: 50,
            edits: EditParams::default(),
            divergence_continue_prob: 0.6,
            max_commits_per_fork: 12,
            clusters: 1,
            cluster_spread_commits: 0,
            size_diff_threshold: 64 * 1024,
            directed: true,
            keep_contents: false,
        }
    }
}

/// Builds a fork workload.
pub fn build(name: &str, params: &ForkParams, seed: u64) -> Dataset {
    assert!(params.forks >= 1);
    assert!(params.clusters >= 1);
    let _build = obs::span!("build", versions = params.forks).entered();
    let mut rng = StdRng::seed_from_u64(seed);
    let base = base_table(&params.edits, &mut rng);

    // Family bases: heavily diverged from the common ancestor.
    let mut cluster_bases = Vec::with_capacity(params.clusters);
    for _ in 0..params.clusters {
        let mut table = base.clone();
        for _ in 0..params.cluster_spread_commits {
            let (_, next) = random_commit(&params.edits, &table, &mut rng);
            table = next;
        }
        cluster_bases.push(table);
    }

    // Each fork picks a family at random, then diverges by a geometric
    // number of commits (heavy-tailed fork activity). Random family
    // assignment means fork *ids* interleave families — a linear import
    // order (as SVN would use) keeps crossing family boundaries.
    let mut contents: Vec<Vec<u8>> = Vec::with_capacity(params.forks);
    for _ in 0..params.forks {
        let family = rng.gen_range(0..params.clusters);
        let mut table = cluster_bases[family].clone();
        let mut commits = 1usize;
        while commits < params.max_commits_per_fork && rng.gen_bool(params.divergence_continue_prob)
        {
            commits += 1;
        }
        for _ in 0..commits {
            let (_, next) = random_commit(&params.edits, &table, &mut rng);
            table = next;
        }
        contents.push(table.to_csv());
    }
    let sizes: Vec<u64> = contents.iter().map(|c| c.len() as u64).collect();

    // All-pairs deltas under the size-difference threshold. BF's
    // undirected deltas come from diff itself: the larger direction is the
    // symmetric cost.
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for a in 0..params.forks as u32 {
        for b in (a + 1)..params.forks as u32 {
            if sizes[a as usize].abs_diff(sizes[b as usize]) <= params.size_diff_threshold {
                pairs.push((a, b));
            }
        }
    }
    let matrix = line_matrix(&contents, &pairs, params.directed, u64::max);

    Dataset {
        name: name.to_owned(),
        graph: None,
        matrix,
        contents: params.keep_contents.then_some(contents),
        sizes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_core::{plan, PlanSpec, Problem};

    fn solve(
        inst: &dsv_core::ProblemInstance,
        problem: Problem,
    ) -> Result<dsv_core::StorageSolution, dsv_core::SolveError> {
        plan(inst, &PlanSpec::new(problem)).map(|p| p.solution)
    }

    fn small() -> ForkParams {
        ForkParams {
            forks: 20,
            edits: EditParams {
                base_rows: 80,
                base_cols: 4,
                edits_per_commit: 2,
                ..EditParams::default()
            },
            ..ForkParams::default()
        }
    }

    #[test]
    fn builds_all_forks() {
        let ds = build("bf", &small(), 42);
        assert_eq!(ds.version_count(), 20);
        assert!(ds.graph.is_none(), "fork workloads have no version graph");
    }

    #[test]
    fn forks_share_enough_for_small_deltas() {
        let ds = build("bf", &small(), 1);
        // At least some pairs should have deltas much smaller than
        // materializations.
        let avg = ds.average_version_size();
        let small_deltas = ds
            .matrix
            .revealed_entries()
            .filter(|(_, _, p)| (p.storage as f64) < avg / 4.0)
            .count();
        assert!(small_deltas > ds.version_count(), "found {small_deltas}");
    }

    #[test]
    fn size_threshold_limits_reveals() {
        let mut p = small();
        p.size_diff_threshold = 0;
        let sparse = build("bf", &p, 3);
        p.size_diff_threshold = u64::MAX;
        let dense = build("bf", &p, 3);
        assert!(sparse.matrix.revealed_count() < dense.matrix.revealed_count());
        // Dense = all pairs (directed: both directions).
        assert_eq!(dense.matrix.revealed_count(), 20 * 19);
    }

    #[test]
    fn fork_instance_is_solvable() {
        let ds = build("bf", &small(), 9);
        let inst = ds.instance();
        let mca = solve(&inst, Problem::MinStorage).unwrap();
        let naive = ds.matrix.total_materialization_storage();
        assert!(
            mca.storage_cost() < naive / 2,
            "dedup must pay off: {} vs naive {naive}",
            mca.storage_cost()
        );
    }

    #[test]
    fn divergence_is_heavy_tailed() {
        let ds = build("bf", &small(), 11);
        // Sizes should vary across forks (different divergence depths).
        let min = ds.sizes.iter().min().unwrap();
        let max = ds.sizes.iter().max().unwrap();
        assert!(max > min, "forks should differ in size");
    }

    #[test]
    fn undirected_fork_matrix_is_symmetric() {
        let mut p = small();
        p.directed = false;
        let ds = build("bf", &p, 17);
        assert!(ds.matrix.is_symmetric());
        let some = ds.matrix.revealed_entries().next().unwrap();
        assert_eq!(ds.matrix.get(some.0, some.1), ds.matrix.get(some.1, some.0));
    }
}
