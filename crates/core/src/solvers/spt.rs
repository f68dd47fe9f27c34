//! Problem 2 (minimize recreation): the shortest-path tree.
//!
//! Dijkstra from `V0` over the `Φ` weights yields, for every version
//! simultaneously, its minimum possible recreation cost (Lemma 3) — at the
//! price of storing many versions in full. This is the other end of the
//! tradeoff spectrum from [`crate::solvers::mst`] and the reference line in
//! all of the paper's figures.

use crate::error::SolveError;
use crate::graph::{dijkstra, NodeId};
use crate::instance::ProblemInstance;
use crate::solution::StorageSolution;
use crate::solvers::augmented_to_solution;

/// Computes the minimum-recreation solution (shortest-path tree over `Φ`).
pub fn solve(instance: &ProblemInstance) -> Result<StorageSolution, SolveError> {
    if instance.version_count() == 0 {
        return Err(SolveError::EmptyInstance);
    }
    let g = instance.augmented_graph();
    let sp = dijkstra(&g, NodeId(0), |e| e.weight.recreation);
    if !sp.all_reachable() {
        return Err(SolveError::Disconnected);
    }
    let sol = augmented_to_solution(instance, &sp.parent)?;
    debug_assert!(
        (0..instance.version_count()).all(|i| {
            sp.dist[ProblemInstance::node_of(i as u32).index()]
                == Some(sol.recreation_cost(i as u32))
        }),
        "solution recreation costs must equal Dijkstra distances"
    );
    Ok(sol)
}

/// The minimum achievable recreation cost of every version (the Dijkstra
/// distances themselves), used by other solvers as lower bounds.
pub fn min_recreation_costs(instance: &ProblemInstance) -> Result<Vec<u64>, SolveError> {
    if instance.version_count() == 0 {
        return Err(SolveError::EmptyInstance);
    }
    let g = instance.augmented_graph();
    let sp = dijkstra(&g, NodeId(0), |e| e.weight.recreation);
    (0..instance.version_count() as u32)
        .map(|i| sp.dist[ProblemInstance::node_of(i).index()].ok_or(SolveError::Disconnected))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::fixtures::paper_example;

    #[test]
    fn paper_example_spt() {
        let inst = paper_example();
        let sol = solve(&inst).unwrap();
        // Every version's recreation is its minimum possible. For the
        // paper's example, materializing everything is optimal for V1, V3,
        // V4, V5; V2 is cheaper via V1 (10000 + 200 = 10200 > 10100, so V2
        // materializes too).
        assert_eq!(sol.recreation_costs(), &[10000, 10100, 9700, 9800, 10120]);
        assert!(sol.validate(&inst).is_ok());
    }

    #[test]
    fn spt_uses_cheap_delta_chains_when_recreation_wins() {
        use crate::matrix::{CostMatrix, CostPair};
        // Materializing v1 costs 1000 to recreate; v0 (100) + delta (10)
        // recreates it in 110.
        let mut m = CostMatrix::directed(vec![CostPair::new(100, 100), CostPair::new(1000, 1000)]);
        m.reveal(0, 1, CostPair::new(10, 10));
        let inst = ProblemInstance::new(m);
        let sol = solve(&inst).unwrap();
        assert_eq!(sol.parents(), &[None, Some(0)]);
        assert_eq!(sol.recreation_cost(1), 110);
    }

    #[test]
    fn min_recreation_costs_matches_solution() {
        let inst = paper_example();
        let sol = solve(&inst).unwrap();
        let mins = min_recreation_costs(&inst).unwrap();
        assert_eq!(sol.recreation_costs(), mins.as_slice());
    }

    #[test]
    fn spt_is_recreation_lower_bound_of_mst() {
        let inst = paper_example();
        let spt = solve(&inst).unwrap();
        let mst = crate::solvers::mst::solve(&inst).unwrap();
        for i in 0..5u32 {
            assert!(spt.recreation_cost(i) <= mst.recreation_cost(i));
        }
        assert!(spt.storage_cost() >= mst.storage_cost());
    }
}
