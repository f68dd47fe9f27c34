//! Problem 1 (minimize storage): minimum spanning tree / arborescence.
//!
//! Undirected case: Prim's MST over the symmetric `Δ` (Lemma 2). Directed
//! case: Edmonds' minimum-cost arborescence (the paper's "MCA") rooted at
//! `V0`. Both are exact and polynomial (first row of Table 1).

use crate::error::SolveError;
use crate::graph::{min_cost_arborescence, prim_mst, NodeId};
use crate::instance::ProblemInstance;
use crate::solution::StorageSolution;
use crate::solvers::augmented_to_solution;

/// Computes the minimum-storage solution (MST for symmetric matrices,
/// MCA for directed ones).
pub fn solve(instance: &ProblemInstance) -> Result<StorageSolution, SolveError> {
    if instance.version_count() == 0 {
        return Err(SolveError::EmptyInstance);
    }
    if instance.matrix().is_symmetric() {
        let g = instance.undirected_graph();
        let mst = prim_mst(&g, NodeId(0), |e| e.weight.storage).ok_or(SolveError::Disconnected)?;
        augmented_to_solution(instance, &mst.parent)
    } else {
        let g = instance.augmented_graph();
        let arb = min_cost_arborescence(&g, NodeId(0), |e| e.weight.storage)
            .ok_or(SolveError::Disconnected)?;
        augmented_to_solution(instance, &arb.parent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::fixtures::paper_example;
    use crate::matrix::{CostMatrix, CostPair};

    #[test]
    fn paper_example_mca() {
        let inst = paper_example();
        let sol = solve(&inst).unwrap();
        // Minimum storage: materialize V1 only, deltas V1->V2 (200),
        // V1->V3 (1000), V2->V4 (50), V3->V5 (200): C = 11450
        // (the paper's Figure 1(iii)).
        assert_eq!(sol.storage_cost(), 11450);
        assert_eq!(sol.materialized().collect::<Vec<_>>(), vec![0]);
        assert!(sol.validate(&inst).is_ok());
    }

    #[test]
    fn undirected_small_instance() {
        let mut m = CostMatrix::undirected(vec![
            CostPair::proportional(100),
            CostPair::proportional(110),
            CostPair::proportional(120),
        ]);
        m.reveal(0, 1, CostPair::proportional(10));
        m.reveal(1, 2, CostPair::proportional(15));
        m.reveal(0, 2, CostPair::proportional(40));
        let inst = ProblemInstance::new(m);
        let sol = solve(&inst).unwrap();
        // materialize the cheapest version (100) + deltas 10 + 15.
        assert_eq!(sol.storage_cost(), 125);
        assert!(sol.validate(&inst).is_ok());
    }

    #[test]
    fn empty_instance_rejected() {
        let inst = ProblemInstance::new(CostMatrix::directed(vec![]));
        assert_eq!(solve(&inst).unwrap_err(), SolveError::EmptyInstance);
    }

    #[test]
    fn single_version_materialized() {
        let inst = ProblemInstance::new(CostMatrix::directed(vec![CostPair::new(42, 7)]));
        let sol = solve(&inst).unwrap();
        assert_eq!(sol.storage_cost(), 42);
        assert_eq!(sol.parents(), &[None]);
    }

    #[test]
    fn hybrid_mca_uses_chunked_edges_when_cheapest() {
        // Two unrelated versions (no deltas revealed): binary MCA must
        // materialize both; with cheap chunked increments revealed, the
        // hybrid MCA chunks both.
        let mut m = CostMatrix::directed(vec![CostPair::new(1000, 1000), CostPair::new(900, 900)]);
        m.set_chunked(0, CostPair::new(300, 1050));
        m.set_chunked(1, CostPair::new(50, 950));
        let inst = ProblemInstance::new(m);
        let sol = solve(&inst).unwrap();
        assert_eq!(sol.storage_cost(), 350);
        assert_eq!(sol.chunked().collect::<Vec<_>>(), vec![0, 1]);
        assert!(sol.validate(&inst).is_ok());
    }

    #[test]
    fn hybrid_mca_never_stores_more_than_binary() {
        use crate::instance::fixtures::{paper_example, paper_example_chunked};
        let binary = solve(&paper_example()).unwrap();
        let hybrid = solve(&paper_example_chunked()).unwrap();
        // The hybrid graph is a supergraph: its minimum arborescence can
        // only be cheaper or equal.
        assert!(hybrid.storage_cost() <= binary.storage_cost());
        // The paper example's root materialization (10000) loses to its
        // 4000-byte chunked increment.
        assert!(hybrid.chunked().count() >= 1);
    }

    #[test]
    fn hybrid_undirected_mst_handles_chunk_root() {
        let mut m = CostMatrix::undirected(vec![
            CostPair::proportional(100),
            CostPair::proportional(110),
            CostPair::proportional(120),
        ]);
        m.reveal(0, 1, CostPair::proportional(10));
        m.reveal(1, 2, CostPair::proportional(15));
        // Chunking version 0 (40) beats materializing it (100).
        m.set_chunked(0, CostPair::new(40, 105));
        let inst = ProblemInstance::new(m);
        let sol = solve(&inst).unwrap();
        assert_eq!(sol.storage_cost(), 40 + 10 + 15);
        assert_eq!(sol.mode(0), crate::solution::StorageMode::Chunked);
        assert!(sol.validate(&inst).is_ok());
    }

    #[test]
    fn directed_asymmetry_exploited() {
        // Storing 1 as a delta from 0 is cheap; the reverse is expensive.
        let mut m = CostMatrix::directed(vec![CostPair::new(100, 100), CostPair::new(100, 100)]);
        m.reveal(0, 1, CostPair::new(1, 1));
        m.reveal(1, 0, CostPair::new(99, 99));
        let inst = ProblemInstance::new(m);
        let sol = solve(&inst).unwrap();
        assert_eq!(sol.storage_cost(), 101);
        assert_eq!(sol.parents(), &[None, Some(0)]);
    }
}
