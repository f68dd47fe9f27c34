//! Cost-only instance generation for scaling experiments.
//!
//! The paper's running-time experiment (Fig. 17) uses version graphs with
//! up to 8×10⁴ versions. Materializing contents at that scale serves no
//! purpose — only the `Δ`/`Φ` matrices reach the solver — so this
//! generator produces matrices directly: version sizes follow a bounded
//! random walk along the version graph, per-edge delta sizes are drawn
//! around a configurable mean, and k-hop pair deltas grow with hop
//! distance (deltas between distant versions are bigger, as in the
//! materialized datasets). Distributions were tuned to match the
//! materializing builder on small instances (see the crate tests). As in
//! the content builders' `line_matrix`, every entry has `Φ = Δ` = bytes.

use crate::dataset::Dataset;
use crate::version_graph::{GraphParams, VersionGraph};
use dsv_core::{CostMatrix, CostPair};
use dsv_obs as obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the cost-only generator.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticParams {
    /// Version-graph shape.
    pub graph: GraphParams,
    /// Reveal deltas within this hop distance.
    pub reveal_hops: usize,
    /// Mean full version size in bytes.
    pub base_size: u64,
    /// Mean delta size between adjacent versions.
    pub delta_mean: u64,
    /// Directed (asymmetric jitter per direction) or undirected.
    pub directed: bool,
}

impl Default for SyntheticParams {
    fn default() -> Self {
        SyntheticParams {
            graph: GraphParams::default(),
            reveal_hops: 5,
            base_size: 400_000,
            delta_mean: 4_000,
            directed: true,
        }
    }
}

/// Builds a cost-only dataset (no contents).
pub fn build(name: &str, params: &SyntheticParams, seed: u64) -> Dataset {
    let _build = obs::span!("build", versions = params.graph.commits).entered();
    let graph = VersionGraph::generate(&params.graph, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x517c_c1b7_2722_0a95);

    // Version sizes: random walk along the first-parent tree, bounded
    // below at half the base size.
    let mut sizes = vec![0u64; graph.n];
    sizes[0] = params.base_size;
    for v in 1..graph.n {
        let parent = graph.parents[v][0] as usize;
        let step = params.delta_mean.max(1);
        let up = rng.gen_bool(0.5);
        let amount = rng.gen_range(0..=step);
        sizes[v] = if up {
            sizes[parent].saturating_add(amount)
        } else {
            sizes[parent]
                .saturating_sub(amount)
                .max(params.base_size / 2)
        };
    }

    let diag: Vec<CostPair> = sizes.iter().map(|&s| CostPair::proportional(s)).collect();
    let mut matrix = if params.directed {
        CostMatrix::directed(diag)
    } else {
        CostMatrix::undirected(diag)
    };

    // Per-pair deltas: grow with hop distance, jittered, clamped below the
    // smaller version's full size (triangle-ish sanity).
    let delta_for = |hops: u32, a: u32, b: u32, rng: &mut StdRng| -> u64 {
        let mean = params.delta_mean.max(1) * u64::from(hops);
        let jitter = rng.gen_range(mean / 2..=mean + mean / 2);
        jitter.min(sizes[a as usize].min(sizes[b as usize]))
    };
    let pairs = graph.pairs_within_hops_dist(params.reveal_hops);
    let reveal_span = obs::span!("reveal", pairs = pairs.len()).entered();
    for (a, b, hops) in pairs {
        if params.directed {
            let fwd = delta_for(hops, a, b, &mut rng);
            matrix.reveal(a, b, CostPair::proportional(fwd));
            let rev = delta_for(hops, a, b, &mut rng);
            matrix.reveal(b, a, CostPair::proportional(rev));
        } else {
            let d = delta_for(hops, a, b, &mut rng);
            matrix.reveal(a, b, CostPair::proportional(d));
        }
    }
    drop(reveal_span);

    Dataset {
        name: name.to_owned(),
        graph: Some(graph),
        matrix,
        contents: None,
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

    #[test]
    fn scales_to_thousands_quickly() {
        let params = SyntheticParams {
            graph: GraphParams {
                commits: 5000,
                ..GraphParams::default()
            },
            ..SyntheticParams::default()
        };
        let ds = build("syn", &params, 1);
        assert_eq!(ds.version_count(), 5000);
        assert!(ds.contents.is_none());
        assert!(ds.matrix.revealed_count() > 5000);
    }

    #[test]
    fn instances_are_solvable() {
        let params = SyntheticParams {
            graph: GraphParams {
                commits: 300,
                ..GraphParams::default()
            },
            ..SyntheticParams::default()
        };
        let ds = build("syn", &params, 2);
        let inst = ds.instance();
        let mca = solve(&inst, Problem::MinStorage).unwrap();
        let spt = solve(&inst, Problem::MinRecreation).unwrap();
        assert!(mca.storage_cost() < spt.storage_cost() / 5);
    }

    #[test]
    fn deltas_grow_with_hops() {
        let params = SyntheticParams {
            graph: GraphParams {
                commits: 200,
                branch_prob: 0.0,
                ..GraphParams::default()
            },
            reveal_hops: 8,
            ..SyntheticParams::default()
        };
        let ds = build("syn", &params, 3);
        let g = ds.graph.as_ref().unwrap();
        let mut by_hops: Vec<(u32, u64)> = g
            .pairs_within_hops_dist(8)
            .into_iter()
            .map(|(a, b, h)| (h, ds.matrix.get(a, b).unwrap().storage))
            .collect();
        by_hops.sort();
        let avg = |h: u32| {
            let v: Vec<u64> = by_hops
                .iter()
                .filter(|(x, _)| *x == h)
                .map(|(_, d)| *d)
                .collect();
            v.iter().sum::<u64>() as f64 / v.len().max(1) as f64
        };
        assert!(avg(8) > avg(1) * 3.0);
    }

    #[test]
    fn deterministic() {
        let params = SyntheticParams::default();
        let a = build("a", &params, 77);
        let b = build("b", &params, 77);
        assert_eq!(a.sizes, b.sizes);
    }
}
