//! LAST — balancing the MST against the shortest-path tree (§4.3).
//!
//! An adaptation of Khuller, Raghavachari & Young's *Light Approximate
//! Shortest-path Trees*: start from the minimum-storage tree and walk it
//! depth-first, carrying the accumulated recreation cost `d(v)`. Whenever a
//! node's accumulated cost exceeds `α` times its shortest-path recreation
//! cost, graft its shortest path in. For undirected graphs with `Φ = Δ`
//! this guarantees (both bounds are property-tested in the crate tests):
//!
//! - every recreation cost is within `α ×` its minimum, and
//! - the total storage is within `(1 + 2/(α−1)) ×` the MST weight.
//!
//! The paper applies the same procedure to directed instances without the
//! guarantees; so does this implementation (relaxations simply skip edges
//! whose reverse direction is not revealed).

use crate::error::SolveError;
use crate::graph::{dijkstra, NodeId, RootedTree};
use crate::instance::ProblemInstance;
use crate::solution::{StorageMode, StorageSolution};
use crate::solvers::{augmented_to_solution, mst};

/// Runs LAST with balance parameter `alpha` (> 1). Smaller `alpha` leans
/// toward the SPT (lower recreation, more storage); larger toward the MST.
pub fn solve(instance: &ProblemInstance, alpha: f64) -> Result<StorageSolution, SolveError> {
    if instance.version_count() == 0 {
        return Err(SolveError::EmptyInstance);
    }
    if alpha <= 1.0 || !alpha.is_finite() {
        return Err(SolveError::InvalidParameter("LAST requires α > 1"));
    }
    let g = instance.augmented_graph();
    let sp = dijkstra(&g, NodeId(0), |e| e.weight.recreation);
    if !sp.all_reachable() {
        return Err(SolveError::Disconnected);
    }
    let mst_sol = mst::solve(instance)?;

    let n1 = g.node_count(); // includes the chunk root for hybrid instances
    let chunk = instance.chunk_node();
    // Parent/d over augmented nodes; start from the MST. The chunk root
    // (when present) always hangs off `V0` by its zero-cost edge.
    let mut parent: Vec<Option<NodeId>> = vec![None; n1];
    if let Some(cn) = chunk {
        parent[cn.index()] = Some(NodeId(0));
    }
    for (i, m) in mst_sol.modes().iter().enumerate() {
        let node = ProblemInstance::node_of(i as u32);
        parent[node.index()] = Some(match m {
            StorageMode::Materialized => NodeId(0),
            StorageMode::Chunked => chunk.expect("chunked mode implies chunk node"),
            StorageMode::Delta(j) => ProblemInstance::node_of(*j),
        });
    }
    let mst_tree = RootedTree::from_parents(NodeId(0), parent.clone())
        .map_err(|_| SolveError::Internal("MST solution is not a tree"))?;
    let mut d: Vec<u64> = vec![0; n1];
    for i in 0..instance.version_count() as u32 {
        d[ProblemInstance::node_of(i).index()] = mst_sol.recreation_cost(i);
    }

    // Φ lookup on the augmented graph (None if the arc is not revealed).
    // The chunk root is never a relaxation *target* (the store depends on
    // no version); as a source it offers each version its chunked Φ.
    let phi = |from: NodeId, to: NodeId| -> Option<u64> {
        if Some(to) == chunk {
            return None;
        }
        let t = ProblemInstance::version_of(to)?;
        if Some(from) == chunk {
            return instance.matrix().chunked(t).map(|p| p.recreation);
        }
        match ProblemInstance::version_of(from) {
            None => Some(instance.matrix().materialization(t).recreation),
            Some(f) => instance.matrix().get(f, t).map(|p| p.recreation),
        }
    };
    // Cycle guard: is `anc` on `x`'s current parent chain (or equal)?
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

    // Relaxes the arc a→b if it exists, improves d(b), and keeps the
    // structure acyclic.
    let relax = |parent: &mut Vec<Option<NodeId>>, d: &mut Vec<u64>, a: NodeId, b: NodeId| {
        if b == NodeId(0) {
            return;
        }
        if let Some(w) = phi(a, b) {
            let nd = d[a.index()].saturating_add(w);
            if nd < d[b.index()] && !is_ancestor_or_self(parent, b, a) {
                d[b.index()] = nd;
                parent[b.index()] = Some(a);
            }
        }
    };
    // Grafts v's shortest path when the α check fails: every node on the
    // path whose shortest-path cost beats its current cost adopts its SPT
    // parent.
    let check = |parent: &mut Vec<Option<NodeId>>, d: &mut Vec<u64>, v: NodeId| {
        if v == NodeId(0) {
            return;
        }
        let limit = alpha * sp.dist[v.index()].expect("reachable") as f64;
        if (d[v.index()] as f64) > limit {
            let path = sp.path_to(v).expect("reachable");
            for node in path.into_iter().skip(1) {
                let spd = sp.dist[node.index()].expect("reachable");
                let spp = sp.parent[node.index()].expect("non-root");
                if spd < d[node.index()] && !is_ancestor_or_self(parent, node, spp) {
                    d[node.index()] = spd;
                    parent[node.index()] = Some(spp);
                }
            }
        }
    };

    // Iterative DFS over the MST, relaxing along tree edges in both
    // directions and checking the α condition on entry and on return
    // (Algorithm 3's traversal, including the back-edge relaxations its
    // Example 6 walks through).
    #[derive(Clone, Copy)]
    enum Step {
        Enter(NodeId),
        Return(NodeId, NodeId), // (child we return from, parent)
    }
    let mut stack = vec![Step::Enter(NodeId(0))];
    while let Some(step) = stack.pop() {
        match step {
            Step::Enter(v) => {
                if v != NodeId(0) {
                    // Relax the down-edge parent→v, then check.
                    if let Some(p) = mst_tree.parent(v) {
                        relax(&mut parent, &mut d, p, v);
                    }
                    check(&mut parent, &mut d, v);
                }
                for &c in mst_tree.children(v) {
                    stack.push(Step::Return(c, v));
                    stack.push(Step::Enter(c));
                }
            }
            Step::Return(c, v) => {
                // Back-edge c→v: the child may now offer a cheaper path.
                relax(&mut parent, &mut d, c, v);
                check(&mut parent, &mut d, v);
            }
        }
    }

    augmented_to_solution(instance, &parent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::fixtures::paper_example;
    use crate::matrix::{CostMatrix, CostPair};
    use crate::solvers::spt;

    #[test]
    fn alpha_guarantees_hold_on_paper_example() {
        let inst = paper_example();
        let mst_sol = mst::solve(&inst).unwrap();
        let mins = spt::min_recreation_costs(&inst).unwrap();
        for alpha in [1.2f64, 1.5, 2.0, 4.0] {
            let sol = solve(&inst, alpha).unwrap();
            assert!(sol.validate(&inst).is_ok());
            for i in 0..5u32 {
                assert!(
                    sol.recreation_cost(i) as f64 <= alpha * mins[i as usize] as f64 + 1e-9,
                    "alpha={alpha} version={i}"
                );
            }
            let bound = (1.0 + 2.0 / (alpha - 1.0)) * mst_sol.storage_cost() as f64;
            assert!(
                sol.storage_cost() as f64 <= bound + 1e-9,
                "alpha={alpha}: {} > {bound}",
                sol.storage_cost()
            );
        }
    }

    #[test]
    fn khuller_example_from_figure9() {
        // The paper's Figure 9/11 walkthrough: undirected graph, α = 2.
        // Nodes: v0..v4. Edges: v0-v1:3(?), per Figure 9: v0-v1 = 3,
        // v0-v2 = 3, v0-v3 = 3, v0-v4 = 4(5?), v1-v2 = 2, v1-v3 = 2(?),
        // v3-v4 = 2, v2-v3 = 3, v1-v4 = 4.
        // We reproduce the documented outcome qualitatively: the resulting
        // tree keeps every node within 2x its shortest path.
        let mut m = CostMatrix::undirected(vec![
            CostPair::proportional(3), // v1
            CostPair::proportional(3), // v2
            CostPair::proportional(3), // v3
            CostPair::proportional(4), // v4
        ]);
        m.reveal(0, 1, CostPair::proportional(2));
        m.reveal(1, 2, CostPair::proportional(3));
        m.reveal(2, 3, CostPair::proportional(2));
        m.reveal(0, 3, CostPair::proportional(4));
        let inst = ProblemInstance::new(m);
        let sol = solve(&inst, 2.0).unwrap();
        let mins = spt::min_recreation_costs(&inst).unwrap();
        for i in 0..4u32 {
            assert!(sol.recreation_cost(i) as f64 <= 2.0 * mins[i as usize] as f64);
        }
    }

    #[test]
    fn small_alpha_approaches_spt() {
        let inst = paper_example();
        let spt_sol = spt::solve(&inst).unwrap();
        let sol = solve(&inst, 1.0001).unwrap();
        assert_eq!(sol.sum_recreation(), spt_sol.sum_recreation());
    }

    #[test]
    fn large_alpha_approaches_mst() {
        let inst = paper_example();
        let mst_sol = mst::solve(&inst).unwrap();
        let sol = solve(&inst, 1e9).unwrap();
        assert_eq!(sol.storage_cost(), mst_sol.storage_cost());
    }

    #[test]
    fn hybrid_instance_keeps_alpha_guarantee() {
        use crate::instance::fixtures::paper_example_chunked;
        let inst = paper_example_chunked();
        let mins = spt::min_recreation_costs(&inst).unwrap();
        for alpha in [1.2f64, 2.0, 8.0] {
            let sol = solve(&inst, alpha).unwrap();
            assert!(sol.validate(&inst).is_ok());
            for i in 0..5u32 {
                assert!(
                    sol.recreation_cost(i) as f64 <= alpha * mins[i as usize] as f64 + 1e-9,
                    "alpha={alpha} version={i}"
                );
            }
        }
        // Large α keeps the hybrid MST, which chunks the root version.
        let sol = solve(&inst, 1e9).unwrap();
        assert!(sol.chunked().count() >= 1);
    }

    #[test]
    fn invalid_alpha_rejected() {
        let inst = paper_example();
        assert!(matches!(
            solve(&inst, 1.0).unwrap_err(),
            SolveError::InvalidParameter(_)
        ));
        assert!(matches!(
            solve(&inst, 0.5).unwrap_err(),
            SolveError::InvalidParameter(_)
        ));
        assert!(matches!(
            solve(&inst, f64::NAN).unwrap_err(),
            SolveError::InvalidParameter(_)
        ));
    }

    #[test]
    fn alpha_interpolates_storage_monotonically_enough() {
        // Storage at α=1.1 should be >= storage at α=8 (more slack).
        let inst = paper_example();
        let tight = solve(&inst, 1.1).unwrap();
        let loose = solve(&inst, 8.0).unwrap();
        assert!(tight.storage_cost() >= loose.storage_cost());
        assert!(tight.sum_recreation() <= loose.sum_recreation());
    }
}
