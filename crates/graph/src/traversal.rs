//! Graph traversals: bounded undirected BFS and topological sort.
//!
//! The paper's running-time experiment (Fig. 17) samples sub-version-graphs
//! by breadth-first traversal from a random node until `n` versions are
//! collected; [`bfs_undirected_limited`] implements exactly that.
//! [`topo_sort`] is used to validate that generated version graphs are
//! DAGs.

use crate::digraph::DiGraph;
use crate::ids::NodeId;
use std::collections::VecDeque;

/// BFS ignoring edge direction (treats the digraph as undirected); useful
/// for sampling connected sub-version-graphs that include merge parents.
pub fn bfs_undirected_limited<W>(graph: &DiGraph<W>, start: NodeId, limit: usize) -> Vec<NodeId> {
    let mut visited = vec![false; graph.node_count()];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    visited[start.index()] = true;
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        if order.len() >= limit {
            break;
        }
        for u in graph.successors(v).chain(graph.predecessors(v)) {
            if !visited[u.index()] {
                visited[u.index()] = true;
                queue.push_back(u);
            }
        }
    }
    order
}

/// Kahn's topological sort. Returns `None` if the graph has a cycle.
pub fn topo_sort<W>(graph: &DiGraph<W>) -> Option<Vec<NodeId>> {
    let n = graph.node_count();
    let mut indeg: Vec<usize> = (0..n).map(|v| graph.in_degree(NodeId(v as u32))).collect();
    let mut queue: VecDeque<NodeId> = (0..n as u32)
        .map(NodeId)
        .filter(|v| indeg[v.index()] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for u in graph.successors(v) {
            indeg[u.index()] -= 1;
            if indeg[u.index()] == 0 {
                queue.push_back(u);
            }
        }
    }
    (order.len() == n).then_some(order)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph<u64> {
        let mut g = DiGraph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(0), NodeId(2), 1);
        g.add_edge(NodeId(1), NodeId(3), 1);
        g.add_edge(NodeId(2), NodeId(3), 1);
        g
    }

    #[test]
    fn bfs_undirected_crosses_reverse_edges() {
        let g = diamond();
        assert_eq!(g.out_degree(NodeId(3)), 0); // 3 has no out-edges
        let und = bfs_undirected_limited(&g, NodeId(3), usize::MAX);
        assert_eq!(und.len(), 4);
    }

    #[test]
    fn topo_sort_of_dag() {
        let order = topo_sort(&diamond()).unwrap();
        let pos: Vec<usize> = (0..4)
            .map(|v| order.iter().position(|&x| x == NodeId(v)).unwrap())
            .collect();
        assert!(pos[0] < pos[1] && pos[0] < pos[2]);
        assert!(pos[1] < pos[3] && pos[2] < pos[3]);
    }

    #[test]
    fn topo_sort_detects_cycle() {
        let mut g = DiGraph::new(2);
        g.add_edge(NodeId(0), NodeId(1), 1u64);
        g.add_edge(NodeId(1), NodeId(0), 1);
        assert!(topo_sort(&g).is_none());
    }

    #[test]
    fn topo_sort_empty_graph() {
        let g: DiGraph<u64> = DiGraph::new(0);
        assert_eq!(topo_sort(&g), Some(vec![]));
    }
}
