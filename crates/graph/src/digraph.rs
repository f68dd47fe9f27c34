//! A compact directed multigraph with generic edge weights.
//!
//! Edges are stored in one arena (`Vec<Edge<W>>`) with per-node out- and
//! in-adjacency lists of edge indices. This is the representation used for
//! the paper's augmented graph `G` (§2.2): node `0` is the dummy root `V0`,
//! an edge `V0 → Vi` means "materialize `Vi`" and an edge `Vi → Vj` means
//! "store `Vj` as a delta from `Vi`".

use crate::ids::NodeId;

/// A dense edge identifier (index into the edge arena).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The edge's position, usable as a `Vec` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A directed edge with its weight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge<W> {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Edge weight (e.g. a `⟨Δ, Φ⟩` pair).
    pub weight: W,
}

/// A directed multigraph over dense node ids `0..n`.
#[derive(Clone, Debug, Default)]
pub struct DiGraph<W> {
    edges: Vec<Edge<W>>,
    out: Vec<Vec<EdgeId>>,
    incoming: Vec<Vec<EdgeId>>,
}

impl<W> DiGraph<W> {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        DiGraph {
            edges: Vec::new(),
            out: vec![Vec::new(); n],
            incoming: vec![Vec::new(); n],
        }
    }

    /// Creates a graph with `n` nodes, reserving room for `m` edges.
    pub fn with_edge_capacity(n: usize, m: usize) -> Self {
        let mut g = Self::new(n);
        g.edges.reserve(m);
        g
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.out.len()
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

    /// Adds a directed edge and returns its id. Parallel edges and
    /// self-loops are permitted (self-loops are ignored by the spanning
    /// algorithms).
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, weight: W) -> EdgeId {
        assert!(src.index() < self.node_count(), "src out of range");
        assert!(dst.index() < self.node_count(), "dst out of range");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { src, dst, weight });
        self.out[src.index()].push(id);
        self.incoming[dst.index()].push(id);
        id
    }

    /// The edge with the given id.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &Edge<W> {
        &self.edges[id.index()]
    }

    /// All edges in insertion order.
    #[inline]
    pub fn edges(&self) -> &[Edge<W>] {
        &self.edges
    }

    /// Ids of edges leaving `v`.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.out[v.index()]
    }

    /// Ids of edges entering `v`.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.incoming[v.index()]
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out[v.index()].len()
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.incoming[v.index()].len()
    }

    /// Successor nodes of `v` (with multiplicity, in insertion order).
    pub fn successors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out[v.index()]
            .iter()
            .map(|e| self.edges[e.index()].dst)
    }

    /// Predecessor nodes of `v` (with multiplicity, in insertion order).
    pub fn predecessors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.incoming[v.index()]
            .iter()
            .map(|e| self.edges[e.index()].src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph<u64> {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut g = DiGraph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(0), NodeId(2), 2);
        g.add_edge(NodeId(1), NodeId(3), 3);
        g.add_edge(NodeId(2), NodeId(3), 4);
        g
    }

    #[test]
    fn counts_and_degrees() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(3)), 2);
        assert_eq!(g.in_degree(NodeId(0)), 0);
    }

    #[test]
    fn adjacency_is_consistent_with_edges() {
        let g = diamond();
        for v in g.nodes() {
            for &e in g.out_edges(v) {
                assert_eq!(g.edge(e).src, v);
            }
            for &e in g.in_edges(v) {
                assert_eq!(g.edge(e).dst, v);
            }
        }
    }

    #[test]
    fn successors_and_predecessors() {
        let g = diamond();
        let succ: Vec<_> = g.successors(NodeId(0)).collect();
        assert_eq!(succ, vec![NodeId(1), NodeId(2)]);
        let pred: Vec<_> = g.predecessors(NodeId(3)).collect();
        assert_eq!(pred, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn parallel_edges_are_kept() {
        let mut g = DiGraph::new(2);
        g.add_edge(NodeId(0), NodeId(1), 5u64);
        g.add_edge(NodeId(0), NodeId(1), 7);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_degree(NodeId(0)), 2);
    }

    #[test]
    #[should_panic(expected = "dst out of range")]
    fn add_edge_bounds_checked() {
        let mut g = DiGraph::new(1);
        g.add_edge(NodeId(0), NodeId(1), 0u64);
    }
}
