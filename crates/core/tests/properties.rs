//! Property tests for the core optimization library: edge-case instance
//! shapes (zero-cost deltas, identical costs, extreme asymmetry) that the
//! integration-level suite does not stress, and the graph substrate's
//! algorithms against brute-force oracles.

use dsv_core::graph::digraph::DiGraph;
use dsv_core::graph::undirected::UnGraph;
use dsv_core::graph::{dijkstra, min_cost_arborescence, prim_mst, NodeId, RootedTree};
use dsv_core::online::{insert_version, OnlinePolicy};
use dsv_core::solvers::{hop, lmg, mp, mst, spt};
use dsv_core::{
    plan, CostMatrix, CostPair, PlanSpec, Problem, ProblemInstance, SolutionError, SolverChoice,
    StorageMode, StorageSolution,
};
use proptest::prelude::*;

/// Shorthand: the Table-1 prescribed solve through the planner.
fn auto_solve(inst: &ProblemInstance, problem: Problem) -> StorageSolution {
    plan(inst, &PlanSpec::new(problem)).unwrap().solution
}

/// Instances with potentially zero-cost deltas and ties everywhere.
fn arb_degenerate_instance() -> impl Strategy<Value = ProblemInstance> {
    (2usize..10).prop_flat_map(|n| {
        let diag = proptest::collection::vec(0u64..3, n);
        let attach = proptest::collection::vec((0u32..u32::MAX, 0u64..3), n - 1);
        let extra = proptest::collection::vec((0u32..n as u32, 0u32..n as u32, 0u64..3), 0..4 * n);
        (Just(n), diag, attach, extra).prop_map(|(_n, diag, attach, extra)| {
            let mut m = CostMatrix::directed(
                diag.into_iter()
                    .map(|c| CostPair::proportional(c + 1))
                    .collect(),
            );
            for (v, (r, w)) in attach.iter().enumerate() {
                let v = (v + 1) as u32;
                m.reveal(r % v, v, CostPair::proportional(*w));
            }
            for (a, b, w) in extra {
                if a != b {
                    m.reveal(a, b, CostPair::proportional(w));
                }
            }
            ProblemInstance::new(m)
        })
    })
}

/// Hybrid cases: chunked costs revealed on a subset of versions (never
/// version 0, so rejection tests always have a chunk-less version), plus
/// a valid mixed mode assignment whose delta parents point at revealed
/// in-edges of earlier versions (acyclic by construction).
fn arb_hybrid_case() -> impl Strategy<Value = (ProblemInstance, Vec<StorageMode>)> {
    (2usize..10).prop_flat_map(|n| {
        let diag = proptest::collection::vec(1u64..1000, n);
        let attach = proptest::collection::vec((0u32..u32::MAX, 1u64..200), n - 1);
        let chunk = proptest::collection::vec((0u8..2, 1u64..400, 1u64..1400), n);
        let mode_sel = proptest::collection::vec(0u8..3, n);
        (Just(n), diag, attach, chunk, mode_sel).prop_map(|(_n, diag, attach, chunk, mode_sel)| {
            let mut m =
                CostMatrix::directed(diag.into_iter().map(CostPair::proportional).collect());
            for (v, (r, w)) in attach.iter().enumerate() {
                let v = (v + 1) as u32;
                m.reveal(r % v, v, CostPair::proportional(*w));
            }
            for (i, (has, s, r)) in chunk.iter().enumerate() {
                if *has == 1 && i > 0 {
                    m.set_chunked(i as u32, CostPair::new(*s, *r));
                }
            }
            let modes: Vec<StorageMode> = mode_sel
                .iter()
                .enumerate()
                .map(|(i, sel)| match sel {
                    1 if i > 0 => StorageMode::Delta(attach[i - 1].0 % i as u32),
                    2 if m.chunked(i as u32).is_some() => StorageMode::Chunked,
                    _ => StorageMode::Materialized,
                })
                .collect();
            (ProblemInstance::new(m), modes)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Zero-cost deltas and ties must not break any solver (no panics,
    /// no cycles, valid trees).
    #[test]
    fn degenerate_costs_are_handled(inst in arb_degenerate_instance()) {
        let mca = mst::solve(&inst).unwrap();
        prop_assert!(mca.validate(&inst).is_ok());
        let spt_sol = spt::solve(&inst).unwrap();
        prop_assert!(spt_sol.validate(&inst).is_ok());
        let l = lmg::solve_sum_given_storage(&inst, mca.storage_cost() + 2, false).unwrap();
        prop_assert!(l.validate(&inst).is_ok());
        let m = mp::solve_storage_given_max(&inst, spt_sol.max_recreation() + 2).unwrap();
        prop_assert!(m.validate(&inst).is_ok());
    }

    /// Hop-bounded solutions respect the chain-length bound and loosen
    /// monotonically toward minimum storage.
    #[test]
    fn hop_bounds_respected(inst in arb_degenerate_instance(), max_hops in 1u32..6) {
        let sol = hop::solve_storage_given_hops(&inst, max_hops).unwrap();
        prop_assert!(sol.validate(&inst).is_ok());
        for v in 0..inst.version_count() as u32 {
            prop_assert!(sol.recreation_chain(v).len() <= max_hops as usize);
        }
        let mca = mst::solve(&inst).unwrap();
        prop_assert!(sol.storage_cost() >= mca.storage_cost());
    }

    /// Online insertion after any sequence of instances stays valid and
    /// never beats the offline optimum.
    #[test]
    fn online_insertion_valid(
        sizes in proptest::collection::vec(100u64..1000, 2..10),
        deltas in proptest::collection::vec(1u64..200, 1..9),
    ) {
        let mut matrix = CostMatrix::directed(vec![CostPair::proportional(sizes[0])]);
        let mut instance = ProblemInstance::new(matrix.clone());
        let mut sol: StorageSolution = auto_solve(&instance, Problem::MinStorage);
        for (k, &size) in sizes.iter().enumerate().skip(1) {
            let v = matrix.push_version(CostPair::proportional(size));
            let d = deltas[(k - 1) % deltas.len()];
            matrix.reveal(v - 1, v, CostPair::proportional(d));
            instance = ProblemInstance::new(matrix.clone());
            sol = insert_version(&instance, &sol, OnlinePolicy::MinStorage).unwrap();
            prop_assert!(sol.validate(&instance).is_ok());
            let offline = auto_solve(&instance, Problem::MinStorage);
            prop_assert!(sol.storage_cost() >= offline.storage_cost());
        }
    }

    /// Problem 5's binary search always returns a θ-feasible solution
    /// whose storage does not exceed the SPT's.
    #[test]
    fn problem5_feasible_and_bounded(inst in arb_degenerate_instance()) {
        let spt_sol = spt::solve(&inst).unwrap();
        let theta = spt_sol.sum_recreation().saturating_add(5);
        let sol = auto_solve(&inst, Problem::MinStorageGivenSumRecreation { theta });
        prop_assert!(sol.sum_recreation() <= theta);
        prop_assert!(sol.storage_cost() <= spt_sol.storage_cost());
    }

    /// Any mode assignment containing `Chunked` round-trips through
    /// `StorageSolution::from_modes` with costs matching an independent
    /// recomputation.
    #[test]
    fn hybrid_modes_round_trip_with_recomputed_costs((inst, modes) in arb_hybrid_case()) {
        let sol = StorageSolution::from_modes(&inst, modes.clone()).unwrap();
        prop_assert_eq!(sol.modes(), modes.as_slice());
        prop_assert!(sol.validate(&inst).is_ok());
        // Recompute both cost accounts from scratch, independently of the
        // solution's internal tree machinery.
        let m = inst.matrix();
        let pair_of = |i: u32| match modes[i as usize] {
            StorageMode::Materialized => m.materialization(i),
            StorageMode::Chunked => m.chunked(i).expect("validated"),
            StorageMode::Delta(p) => m.get(p, i).expect("revealed"),
        };
        let storage: u64 = (0..modes.len() as u32).map(|i| pair_of(i).storage).sum();
        prop_assert_eq!(sol.storage_cost(), storage);
        for i in 0..modes.len() as u32 {
            let mut r = 0u64;
            let mut cur = i;
            loop {
                r += pair_of(cur).recreation;
                match modes[cur as usize] {
                    StorageMode::Delta(p) => cur = p,
                    _ => break,
                }
            }
            prop_assert_eq!(sol.recreation_cost(i), r, "version {}", i);
        }
        // And the binary view is consistent with the modes.
        for (i, mode) in modes.iter().enumerate() {
            prop_assert_eq!(sol.parent(i as u32), mode.delta_parent());
        }
    }

    /// Invalid mixed assignments are rejected: chunking a version without
    /// a revealed chunked cost, and delta cycles threaded between chunked
    /// roots.
    #[test]
    fn invalid_hybrid_assignments_rejected((inst, modes) in arb_hybrid_case()) {
        // Version 0 never has a chunked cost (by construction).
        let mut bad = modes.clone();
        bad[0] = StorageMode::Chunked;
        prop_assert_eq!(
            StorageSolution::from_modes(&inst, bad).unwrap_err(),
            SolutionError::ChunkedUnavailable(0)
        );
        // A two-cycle among deltas invalidates the assignment even when
        // every other version is a valid root mode.
        if modes.len() >= 3 {
            let mut cyclic = modes;
            cyclic[1] = StorageMode::Delta(2);
            cyclic[2] = StorageMode::Delta(1);
            prop_assert!(StorageSolution::from_modes(&inst, cyclic).is_err());
        }
    }

    /// Every solver stays valid on hybrid instances (chunked costs on a
    /// random subset of versions).
    #[test]
    fn solvers_handle_hybrid_instances((inst, _modes) in arb_hybrid_case()) {
        let mca = mst::solve(&inst).unwrap();
        prop_assert!(mca.validate(&inst).is_ok());
        let spt_sol = spt::solve(&inst).unwrap();
        prop_assert!(spt_sol.validate(&inst).is_ok());
        for i in 0..inst.version_count() as u32 {
            prop_assert!(spt_sol.recreation_cost(i) <= mca.recreation_cost(i));
        }
        let l = lmg::solve_sum_given_storage(&inst, mca.storage_cost() + 50, false).unwrap();
        prop_assert!(l.validate(&inst).is_ok());
        prop_assert!(l.storage_cost() <= mca.storage_cost() + 50);
        let m = mp::solve_storage_given_max(&inst, spt_sol.max_recreation() + 50).unwrap();
        prop_assert!(m.validate(&inst).is_ok());
        prop_assert!(m.max_recreation() <= spt_sol.max_recreation() + 50);
    }

    /// A `Portfolio` plan is never worse than the Table-1 prescribed
    /// solver, on binary and hybrid random instances alike: the
    /// prescribed solver is one of the portfolio's candidates, so
    /// whenever it succeeds the portfolio must return a feasible plan
    /// with an equal-or-better objective.
    #[test]
    fn portfolio_never_worse_than_prescribed((inst, _modes) in arb_hybrid_case()) {
        for hybrid in [false, true] {
            let inst = if hybrid { inst.clone() } else { inst.without_chunked() };
            let mca = mst::solve(&inst).unwrap();
            let spt_sol = spt::solve(&inst).unwrap();
            let problems = [
                Problem::MinStorage,
                Problem::MinRecreation,
                Problem::MinSumRecreationGivenStorage {
                    beta: mca.storage_cost() + mca.storage_cost() / 2,
                },
                Problem::MinMaxRecreationGivenStorage {
                    beta: mca.storage_cost() + mca.storage_cost() / 2,
                },
                Problem::MinStorageGivenSumRecreation {
                    theta: spt_sol.sum_recreation() + spt_sol.sum_recreation() / 2,
                },
                Problem::MinStorageGivenMaxRecreation {
                    theta: spt_sol.max_recreation() + spt_sol.max_recreation() / 2,
                },
            ];
            for problem in problems {
                let Ok(auto) = plan(&inst, &PlanSpec::new(problem)) else {
                    continue; // prescribed solver infeasible: nothing to bound
                };
                let port = plan(
                    &inst,
                    &PlanSpec::new(problem).solver(SolverChoice::Portfolio),
                )
                .unwrap_or_else(|e| {
                    panic!("portfolio failed where prescribed succeeded ({problem}): {e}")
                });
                prop_assert!(port.provenance.feasible);
                prop_assert!(port.provenance.portfolio);
                prop_assert!(port.solution.validate(&inst).is_ok());
                prop_assert!(
                    problem.objective_value(&port.solution)
                        <= problem.objective_value(&auto.solution),
                    "{} (hybrid={}): portfolio {} vs prescribed {} (winner {})",
                    problem,
                    hybrid,
                    problem.objective_value(&port.solution),
                    problem.objective_value(&auto.solution),
                    port.provenance.solver,
                );
            }
        }
    }

    /// Extreme asymmetry: forward deltas free, reverse deltas enormous.
    /// The MCA must use the cheap direction.
    #[test]
    fn asymmetry_is_exploited(n in 3usize..10) {
        let mut m = CostMatrix::directed(
            (0..n).map(|_| CostPair::proportional(1_000)).collect(),
        );
        for v in 1..n as u32 {
            m.reveal(v - 1, v, CostPair::proportional(1));
            m.reveal(v, v - 1, CostPair::proportional(900));
        }
        let inst = ProblemInstance::new(m);
        let mca = mst::solve(&inst).unwrap();
        // One materialization + chain of cheap forward deltas.
        prop_assert_eq!(mca.storage_cost(), 1_000 + (n as u64 - 1));
        prop_assert_eq!(mca.materialized().count(), 1);
    }
}

#[test]
fn recreation_chain_matches_costs() {
    // A hand-built instance where the chain structure is known exactly.
    let mut m = CostMatrix::directed(vec![
        CostPair::new(100, 100),
        CostPair::new(100, 100),
        CostPair::new(100, 100),
    ]);
    m.reveal(0, 1, CostPair::new(10, 20));
    m.reveal(1, 2, CostPair::new(10, 30));
    let inst = ProblemInstance::new(m);
    let sol = StorageSolution::from_parents(&inst, vec![None, Some(0), Some(1)]).unwrap();
    assert_eq!(sol.recreation_chain(2), vec![0, 1, 2]);
    assert_eq!(sol.recreation_cost(2), 100 + 20 + 30);
    assert_eq!(sol.storage_cost(), 100 + 10 + 10);
}

// The graph substrate (`dsv_core::graph`).

/// Strategy: a random directed graph as (n, edges) with weights.
fn arb_digraph(
    max_n: usize,
    max_edges: usize,
) -> impl Strategy<Value = (usize, Vec<(u32, u32, u64)>)> {
    (2..=max_n).prop_flat_map(move |n| {
        let edge = (0..n as u32, 0..n as u32, 0u64..1000);
        (Just(n), proptest::collection::vec(edge, 0..=max_edges))
    })
}

/// Strategy: a random *connected* undirected graph: a random spanning tree
/// plus extra edges.
fn arb_connected_ungraph(max_n: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32, u64)>)> {
    (2..=max_n).prop_flat_map(move |n| {
        let tree_weights = proptest::collection::vec(0u64..1000, n - 1);
        let tree_attach = proptest::collection::vec(0u32..u32::MAX, n - 1);
        let extra = proptest::collection::vec((0..n as u32, 0..n as u32, 0u64..1000), 0..2 * n);
        (Just(n), tree_weights, tree_attach, extra).prop_map(|(n, tw, ta, extra)| {
            let mut edges: Vec<(u32, u32, u64)> = Vec::new();
            for v in 1..n as u32 {
                // attach v to a uniformly chosen earlier node
                let p = ta[(v - 1) as usize] % v;
                edges.push((p, v, tw[(v - 1) as usize]));
            }
            for (a, b, w) in extra {
                if a != b {
                    edges.push((a, b, w));
                }
            }
            (n, edges)
        })
    })
}

fn build_digraph(n: usize, edges: &[(u32, u32, u64)]) -> DiGraph<u64> {
    let mut g = DiGraph::new(n);
    for &(u, v, w) in edges {
        g.add_edge(NodeId(u), NodeId(v), w);
    }
    g
}

fn build_ungraph(n: usize, edges: &[(u32, u32, u64)]) -> UnGraph<u64> {
    let mut g = UnGraph::new(n);
    for &(a, b, w) in edges {
        if a != b {
            g.add_edge(NodeId(a), NodeId(b), w);
        }
    }
    g
}

proptest! {
    /// Dijkstra agrees with the Bellman–Ford oracle — n − 1 rounds of
    /// relaxing every edge — on arbitrary digraphs.
    #[test]
    fn dijkstra_matches_bellman_ford((n, edges) in arb_digraph(12, 40)) {
        let g = build_digraph(n, &edges);
        let sp = dijkstra(&g, NodeId(0), |e| e.weight);
        let mut bf: Vec<Option<u64>> = vec![None; n];
        bf[0] = Some(0);
        for _ in 1..n {
            for &(u, v, w) in &edges {
                if let Some(du) = bf[u as usize] {
                    let relaxed = du + w;
                    if bf[v as usize].is_none_or(|old| relaxed < old) {
                        bf[v as usize] = Some(relaxed);
                    }
                }
            }
        }
        prop_assert_eq!(sp.dist, bf);
    }

    /// Dijkstra parents encode paths whose cost equals the distance.
    #[test]
    fn dijkstra_paths_are_consistent((n, edges) in arb_digraph(12, 40)) {
        let g = build_digraph(n, &edges);
        let sp = dijkstra(&g, NodeId(0), |e| e.weight);
        for v in 0..n as u32 {
            if let Some(path) = sp.path_to(NodeId(v)) {
                // Each consecutive pair must be an edge; total = dist.
                let mut total = 0u64;
                for win in path.windows(2) {
                    let best = g.out_edges(win[0]).iter()
                        .map(|&e| g.edge(e))
                        .filter(|e| e.dst == win[1])
                        .map(|e| e.weight)
                        .min();
                    // The tree edge might not be the *cheapest* parallel
                    // edge, but dist uses the relaxed weight; using min is
                    // a lower bound, so check total >= dist via min and
                    // exact match via recomputation below.
                    prop_assert!(best.is_some(), "path uses a non-edge");
                    total += best.unwrap();
                }
                prop_assert!(total >= sp.dist[v as usize].unwrap());
            }
        }
    }

    /// An MST is never heavier than the random spanning tree we generated
    /// the graph around (the first n-1 edges form a spanning tree).
    #[test]
    fn mst_is_minimal_vs_known_tree((n, edges) in arb_connected_ungraph(14)) {
        let g = build_ungraph(n, &edges);
        let known_tree_weight: u64 = edges[..n - 1].iter().map(|&(_, _, w)| w).sum();
        let p = prim_mst(&g, NodeId(0), |e| e.weight).expect("connected");
        prop_assert!(p.total_weight <= known_tree_weight);
    }

    /// Edmonds' arborescence: valid parent structure, weight no larger than
    /// the star solution from the root (when the root connects to all).
    #[test]
    fn edmonds_no_worse_than_star((n, mut edges) in arb_digraph(10, 30), star in proptest::collection::vec(1u64..1000, 10)) {
        // Ensure feasibility: add a root edge to every node.
        for v in 1..n as u32 {
            edges.push((0, v, star[v as usize % star.len()]));
        }
        let g = build_digraph(n, &edges);
        let arb = min_cost_arborescence(&g, NodeId(0), |e| e.weight).expect("feasible");
        let star_weight: u64 = (1..n as u32)
            .map(|v| g.in_edges(NodeId(v)).iter()
                .map(|&e| g.edge(e))
                .filter(|e| e.src == NodeId(0))
                .map(|e| e.weight).min().unwrap())
            .sum();
        prop_assert!(arb.total_weight <= star_weight);
        // Structure check: tree reaches root from everywhere.
        let tree = RootedTree::from_parents(NodeId(0), arb.parent.clone());
        prop_assert!(tree.is_ok());
        // Reported weight equals recomputed weight of chosen edges.
        let recomputed: u64 = arb.parent_edge.iter().flatten()
            .map(|&e| g.edge(e).weight).sum();
        prop_assert_eq!(recomputed, arb.total_weight);
    }

    /// Edmonds on undirected-style graphs (both arcs present) matches the
    /// undirected MST weight... is false in general, but it must always be
    /// >= MST (arborescence is constrained by direction) and <= 2*MST here.
    /// We only check validity and a sane bound.
    #[test]
    fn edmonds_on_symmetric_graphs_bounded((n, edges) in arb_connected_ungraph(10)) {
        let mut g = DiGraph::new(n);
        for &(a, b, w) in &edges {
            if a != b {
                g.add_edge(NodeId(a), NodeId(b), w);
                g.add_edge(NodeId(b), NodeId(a), w);
            }
        }
        let ug = build_ungraph(n, &edges);
        let mst = prim_mst(&ug, NodeId(0), |e| e.weight).expect("connected");
        let arb = min_cost_arborescence(&g, NodeId(0), |e| e.weight).expect("feasible");
        // For symmetric weights the optimal arborescence weight equals the
        // MST weight (orient the MST away from the root).
        prop_assert_eq!(arb.total_weight, mst.total_weight);
    }

    /// Subtree sizes sum telescope: root subtree = n; sizes of children
    /// partition the parent's subtree.
    #[test]
    fn subtree_sizes_partition((n, edges) in arb_connected_ungraph(14)) {
        let g = build_ungraph(n, &edges);
        let p = prim_mst(&g, NodeId(0), |e| e.weight).expect("connected");
        let tree = RootedTree::from_parents(NodeId(0), p.parent).unwrap();
        let sizes = tree.subtree_sizes();
        prop_assert_eq!(sizes[0] as usize, n);
        for v in 0..n {
            let child_sum: u32 = tree.children(NodeId(v as u32)).iter()
                .map(|c| sizes[c.index()]).sum();
            prop_assert_eq!(sizes[v], child_sum + 1);
        }
    }
}
