//! MP — the Modified Prim's heuristic (§4.2, Algorithm 2).
//!
//! Targets a bound on the **maximum** recreation cost: Problem 6 (minimize
//! `C` with `max Ri ≤ θ`) directly, Problem 4 (minimize `max Ri` with
//! `C ≤ β`) via binary search on `θ`.
//!
//! Like Prim's algorithm it grows a tree from `V0`, always dequeuing the
//! version with the smallest *marginal storage cost* `l(v)`; unlike Prim's,
//! (a) an edge is only usable if the recreation cost through it stays
//! within `θ`, and (b) a version already in the tree may later be
//! *re-parented* when a newly added version offers a storage-cheaper
//! in-edge that does not worsen its recreation cost (the paper's lines
//! 10–17; see its Example 5/Figure 10 where `V2` is re-parented onto `V3`
//! after both are in the tree).

use crate::error::SolveError;
use crate::graph::{DiGraph, IndexedMinHeap, NodeId};
use crate::instance::ProblemInstance;
use crate::matrix::CostPair;
use crate::solution::StorageSolution;
use crate::solvers::{augmented_to_solution, mst};

/// Solves Problem 6: minimize total storage such that every version's
/// recreation cost is at most `theta`.
pub fn solve_storage_given_max(
    instance: &ProblemInstance,
    theta: u64,
) -> Result<StorageSolution, SolveError> {
    let n = instance.version_count();
    if n == 0 {
        return Err(SolveError::EmptyInstance);
    }
    let g = instance.augmented_graph();
    // Node universe includes the chunk root when the instance has chunked
    // costs; MP treats it like any other node (it joins the tree over the
    // zero-cost root edge, then offers chunk edges to every version).
    let total = g.node_count();

    let mut in_tree = vec![false; total];
    let mut parent: Vec<Option<NodeId>> = vec![None; total];
    // l(v): marginal storage of v's tentative in-edge; d(v): recreation.
    let mut l = vec![u64::MAX; total];
    let mut d = vec![u64::MAX; total];
    let mut heap: IndexedMinHeap<u64> = IndexedMinHeap::with_capacity(total);

    l[0] = 0;
    d[0] = 0;
    heap.push_or_decrease(0, 0);

    // Walks x's parent chain to decide whether `anc` is an ancestor of (or
    // equal to) `x`; used to refuse re-parenting that would form a cycle.
    let is_ancestor_or_self = |parent: &[Option<NodeId>], anc: NodeId, mut x: NodeId| -> bool {
        loop {
            if x == anc {
                return true;
            }
            match parent[x.index()] {
                Some(p) => x = p,
                None => return false,
            }
        }
    };

    while let Some((_, vid)) = heap.pop() {
        let vi = NodeId(vid);
        in_tree[vi.index()] = true;
        for &eid in g.out_edges(vi) {
            let e = g.edge(eid);
            let vj = e.dst;
            let CostPair {
                storage: delta,
                recreation: phi,
            } = e.weight;
            let through = d[vi.index()].saturating_add(phi);
            if in_tree[vj.index()] {
                // Re-parenting: must not worsen recreation, must strictly
                // improve storage, and must not create a cycle.
                if through <= d[vj.index()]
                    && delta < l[vj.index()]
                    && !is_ancestor_or_self(&parent, vj, vi)
                {
                    parent[vj.index()] = Some(vi);
                    d[vj.index()] = through;
                    l[vj.index()] = delta;
                }
            } else if through <= theta && delta < l[vj.index()] {
                parent[vj.index()] = Some(vi);
                d[vj.index()] = through;
                l[vj.index()] = delta;
                heap.push_or_decrease(vj.0, delta);
            }
        }
    }

    if !in_tree.iter().all(|&b| b) {
        // Greedy-by-storage growth can strand versions whose only
        // θ-feasible recreation runs along their shortest path: a
        // prerequisite on that path may have been admitted through a
        // storage-cheaper edge with a longer recreation chain, after which
        // no in-edge to the stranded version fits θ. (The paper's
        // Algorithm 2 has the same failure mode and simply reports no
        // solution.) Completion: make every stranded version adopt its
        // whole shortest-path chain. Each adopted node's recreation cost
        // becomes exactly its Dijkstra distance (≤ θ whenever a solution
        // exists at all), descendants of adopted nodes only get cheaper,
        // and the adopted edges are a subtree of the SPT, so no cycles can
        // form.
        let sp = crate::graph::dijkstra(&g, NodeId(0), |e| e.weight.recreation);
        for v in 0..total as u32 {
            let v = NodeId(v);
            if in_tree[v.index()] || v == NodeId(0) {
                continue;
            }
            let Some(path) = sp.path_to(v) else {
                return Err(SolveError::Disconnected);
            };
            let dist = sp.dist[v.index()].expect("path exists");
            if dist > theta {
                let minimum = min_feasible_theta(instance, &g);
                return Err(SolveError::RecreationThresholdInfeasible { theta, minimum });
            }
            for node in path.into_iter().skip(1) {
                parent[node.index()] = sp.parent[node.index()];
                d[node.index()] = sp.dist[node.index()].expect("on path");
                in_tree[node.index()] = true;
            }
        }
    }
    let sol = augmented_to_solution(instance, &parent)?;
    debug_assert!(sol.max_recreation() <= theta);
    Ok(sol)
}

/// The smallest `θ` for which a solution exists: `max_i SP_Φ(i)`, the
/// largest shortest-path recreation cost.
fn min_feasible_theta(instance: &ProblemInstance, g: &DiGraph<CostPair>) -> u64 {
    let sp = crate::graph::dijkstra(g, NodeId(0), |e| e.weight.recreation);
    (0..instance.version_count() as u32)
        .filter_map(|i| sp.dist[ProblemInstance::node_of(i).index()])
        .max()
        .unwrap_or(0)
}

/// Solves Problem 4: minimize `max Ri` subject to `C ≤ beta`, by binary
/// search on MP's threshold. The MST/MCA solution serves as the initial
/// feasibility witness (its storage is the minimum possible).
pub fn solve_max_given_storage(
    instance: &ProblemInstance,
    beta: u64,
) -> Result<StorageSolution, SolveError> {
    let mst_sol = mst::solve(instance)?;
    if mst_sol.storage_cost() > beta {
        return Err(SolveError::StorageBudgetInfeasible {
            beta,
            minimum: mst_sol.storage_cost(),
        });
    }
    let g = instance.augmented_graph();
    let mut lo = min_feasible_theta(instance, &g); // θ below this: infeasible
    let mut best = mst_sol;
    let mut hi = best.max_recreation(); // feasible witness

    // Try the lower bound outright (common case: plenty of budget).
    if let Ok(sol) = solve_storage_given_max(instance, lo) {
        if sol.storage_cost() <= beta {
            return Ok(sol);
        }
    }
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        match solve_storage_given_max(instance, mid) {
            Ok(sol) if sol.storage_cost() <= beta => {
                hi = sol.max_recreation().min(mid);
                best = sol;
            }
            Ok(_) => lo = mid,
            Err(SolveError::RecreationThresholdInfeasible { .. }) => lo = mid,
            Err(e) => return Err(e),
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::fixtures::paper_example;
    use crate::matrix::CostMatrix;
    use crate::solvers::spt;

    /// An instance in the spirit of the paper's Figure 8/10 walkthrough:
    /// with θ = 6 the cheapest tree materializes V3 and hangs both other
    /// versions off it, which requires the algorithm's in-tree update path.
    fn figure8() -> ProblemInstance {
        let diag = vec![
            CostPair::new(4, 4), // V1
            CostPair::new(4, 4), // V2
            CostPair::new(3, 3), // V3
        ];
        let mut m = CostMatrix::directed(diag);
        m.reveal(0, 1, CostPair::new(2, 3)); // V1->V2
        m.reveal(0, 2, CostPair::new(4, 4)); // V1->V3
        m.reveal(2, 1, CostPair::new(1, 3)); // V3->V2
        m.reveal(2, 0, CostPair::new(1, 2)); // V3->V1
        ProblemInstance::new(m)
    }

    #[test]
    fn figure8_walkthrough_final_answer() {
        // θ = 6: materialize V3 (3), V1 <- V3 (1, d=5), V2 <- V3 (1, d=6).
        let inst = figure8();
        let sol = solve_storage_given_max(&inst, 6).unwrap();
        assert!(sol.max_recreation() <= 6);
        assert_eq!(sol.parent(1), Some(2));
        assert_eq!(sol.parent(0), Some(2));
        assert_eq!(sol.materialized().collect::<Vec<_>>(), vec![2]);
        assert_eq!(sol.storage_cost(), 5);
    }

    #[test]
    fn figure8_tight_theta_forces_materialization() {
        // θ = 4: chains through V3 cost 5 and 6; V1 and V2 must be stored
        // in full.
        let inst = figure8();
        let sol = solve_storage_given_max(&inst, 4).unwrap();
        assert_eq!(sol.storage_cost(), 4 + 4 + 3);
        assert_eq!(sol.materialized().count(), 3);
    }

    #[test]
    fn theta_at_materialization_gives_spt_like_solution() {
        let inst = paper_example();
        let spt_sol = spt::solve(&inst).unwrap();
        let sol = solve_storage_given_max(&inst, spt_sol.max_recreation()).unwrap();
        assert!(sol.max_recreation() <= spt_sol.max_recreation());
        assert!(sol.validate(&inst).is_ok());
    }

    #[test]
    fn loose_theta_approaches_mca_storage() {
        let inst = paper_example();
        let mca = mst::solve(&inst).unwrap();
        let sol = solve_storage_given_max(&inst, u64::MAX / 2).unwrap();
        // MP is a heuristic: allow it to match or come close to optimal
        // storage, never beat it.
        assert!(sol.storage_cost() >= mca.storage_cost());
        assert!(sol.storage_cost() <= mca.storage_cost() * 12 / 10);
    }

    #[test]
    fn storage_decreases_as_theta_relaxes() {
        let inst = paper_example();
        let spt_sol = spt::solve(&inst).unwrap();
        let t0 = spt_sol.max_recreation();
        let mut last = u64::MAX;
        for factor in [10u64, 12, 15, 20, 40] {
            let sol = solve_storage_given_max(&inst, t0 * factor / 10).unwrap();
            assert!(sol.max_recreation() <= t0 * factor / 10);
            assert!(sol.storage_cost() <= last);
            last = sol.storage_cost();
        }
    }

    #[test]
    fn hybrid_mp_chunks_to_meet_tight_theta_cheaply() {
        use crate::instance::fixtures::paper_example_chunked;
        use crate::solvers::mst;
        let inst = paper_example_chunked();
        // θ at the SPT bound forces every version onto a root-ish edge;
        // chunked roots satisfy slightly looser θ at far less storage.
        let spt_sol = spt::solve(&inst).unwrap();
        let theta = spt_sol.max_recreation() + 200; // admits Φ_c = Φ_ii + 64
        let sol = solve_storage_given_max(&inst, theta).unwrap();
        assert!(sol.max_recreation() <= theta);
        assert!(sol.validate(&inst).is_ok());
        // The binary solution at the same θ cannot use the cheap chunk
        // edges and must pay more storage.
        let binary =
            solve_storage_given_max(&crate::instance::fixtures::paper_example(), theta).unwrap();
        assert!(
            sol.storage_cost() < binary.storage_cost(),
            "hybrid {} vs binary {}",
            sol.storage_cost(),
            binary.storage_cost()
        );
        // And it still respects the true minimum-storage floor.
        assert!(sol.storage_cost() >= mst::solve(&inst).unwrap().storage_cost());
    }

    #[test]
    fn infeasible_theta_reports_minimum() {
        let inst = paper_example();
        match solve_storage_given_max(&inst, 5).unwrap_err() {
            SolveError::RecreationThresholdInfeasible { theta, minimum } => {
                assert_eq!(theta, 5);
                assert_eq!(minimum, 10120); // max over SPT distances
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn problem4_respects_budget() {
        let inst = paper_example();
        let mca = mst::solve(&inst).unwrap();
        for slack in [0u64, 500, 5000, 50000] {
            let beta = mca.storage_cost() + slack;
            let sol = solve_max_given_storage(&inst, beta).unwrap();
            assert!(sol.storage_cost() <= beta, "slack={slack}");
            assert!(sol.validate(&inst).is_ok());
        }
    }

    #[test]
    fn problem4_more_budget_never_worse() {
        let inst = paper_example();
        let mca = mst::solve(&inst).unwrap();
        let mut last = u64::MAX;
        for slack in [0u64, 1000, 10000, 100000] {
            let sol = solve_max_given_storage(&inst, mca.storage_cost() + slack).unwrap();
            assert!(sol.max_recreation() <= last);
            last = sol.max_recreation();
        }
    }

    #[test]
    fn problem4_budget_below_minimum() {
        let inst = paper_example();
        assert!(matches!(
            solve_max_given_storage(&inst, 10).unwrap_err(),
            SolveError::StorageBudgetInfeasible { .. }
        ));
    }
}
