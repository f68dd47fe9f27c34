//! An undirected multigraph (each edge stored once).
//!
//! Used for the paper's *undirected case* (§2.1), where the differencing
//! mechanism is symmetric (`Δ_ij = Δ_ji`, e.g. XOR deltas or two-way diffs)
//! and the storage graph is a spanning tree of an undirected graph.

use crate::ids::NodeId;

/// An undirected edge `{a, b}` with its weight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UndirectedEdge<W> {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Edge weight.
    pub weight: W,
}

impl<W> UndirectedEdge<W> {
    /// Given one endpoint of this edge, returns the other.
    ///
    /// # Panics
    /// Panics if `v` is not an endpoint.
    #[inline]
    pub fn other(&self, v: NodeId) -> NodeId {
        if v == self.a {
            self.b
        } else {
            assert_eq!(v, self.b, "node is not an endpoint of this edge");
            self.a
        }
    }
}

/// An undirected multigraph over dense node ids `0..n`.
#[derive(Clone, Debug, Default)]
pub struct UnGraph<W> {
    edges: Vec<UndirectedEdge<W>>,
    /// `adj[v]` lists ids of edges incident to `v`.
    adj: Vec<Vec<u32>>,
}

impl<W> UnGraph<W> {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        UnGraph {
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Adds an undirected edge, returning its dense index.
    ///
    /// Self-loops are rejected: they can never appear in a spanning tree and
    /// admitting them would complicate `other()`.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, weight: W) -> u32 {
        assert!(a.index() < self.node_count(), "a out of range");
        assert!(b.index() < self.node_count(), "b out of range");
        assert_ne!(a, b, "self-loops are not allowed in UnGraph");
        let id = self.edges.len() as u32;
        self.edges.push(UndirectedEdge { a, b, weight });
        self.adj[a.index()].push(id);
        self.adj[b.index()].push(id);
        id
    }

    /// The edge with the given index.
    #[inline]
    pub fn edge(&self, id: u32) -> &UndirectedEdge<W> {
        &self.edges[id as usize]
    }

    /// All edges in insertion order.
    #[inline]
    pub fn edges(&self) -> &[UndirectedEdge<W>] {
        &self.edges
    }

    /// Ids of edges incident to `v`.
    #[inline]
    pub fn incident_edges(&self, v: NodeId) -> &[u32] {
        &self.adj[v.index()]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v.index()].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> UnGraph<u64> {
        let mut g = UnGraph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(1), NodeId(2), 2);
        g.add_edge(NodeId(2), NodeId(0), 3);
        g
    }

    #[test]
    fn counts_and_degrees() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn other_endpoint() {
        let g = triangle();
        let e = g.edge(0);
        assert_eq!(e.other(NodeId(0)), NodeId(1));
        assert_eq!(e.other(NodeId(1)), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_rejects_non_endpoint() {
        let g = triangle();
        g.edge(0).other(NodeId(2));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loops_rejected() {
        let mut g: UnGraph<u64> = UnGraph::new(2);
        g.add_edge(NodeId(1), NodeId(1), 1);
    }
}
