//! A problem instance: cost matrices plus optional access frequencies,
//! and the mapping onto the augmented graph of §2.2.
//!
//! The augmented directed graph `G` has node `0` as the dummy root `V0` and
//! node `i + 1` for version `i`. Edge `V0 → Vi` carries `⟨Δ_ii, Φ_ii⟩`
//! (materialize `Vi`); edge `Vi → Vj` carries the revealed `⟨Δ_ij, Φ_ij⟩`.
//! Every storage solution is a spanning arborescence of `G` rooted at `V0`
//! (Lemma 1).
//!
//! When the matrix reveals per-version **chunked** costs, `G` gains a
//! second dummy root `Vc` (node `n + 1`, the shared chunk store): a
//! zero-cost edge `V0 → Vc` and, for each version with a chunked estimate,
//! an edge `Vc → Vi` carrying `⟨Δ_ci, Φ_ci⟩`. The spanning-tree
//! characterization is unchanged — chunked storage is just an alternative
//! root edge — so every tree solver becomes hybrid-aware without
//! structural modification.

use crate::graph::{DiGraph, NodeId, UnGraph};
use crate::matrix::{CostMatrix, CostPair};

/// A versioning problem instance.
#[derive(Debug, Clone)]
pub struct ProblemInstance {
    matrix: CostMatrix,
    /// Optional access frequencies (relative weights, need not sum to 1);
    /// used by the workload-aware LMG (§4.1 "Access Frequencies").
    weights: Option<Vec<f64>>,
}

impl ProblemInstance {
    /// Wraps a cost matrix with uniform (absent) access frequencies.
    pub fn new(matrix: CostMatrix) -> Self {
        ProblemInstance {
            matrix,
            weights: None,
        }
    }

    /// Attaches access frequencies (one per version).
    ///
    /// # Panics
    /// Panics if the length differs from the version count or any weight is
    /// negative/non-finite.
    pub fn with_weights(matrix: CostMatrix, weights: Vec<f64>) -> Self {
        assert_eq!(weights.len(), matrix.version_count());
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        ProblemInstance {
            matrix,
            weights: Some(weights),
        }
    }

    /// The underlying matrices.
    pub fn matrix(&self) -> &CostMatrix {
        &self.matrix
    }

    /// Access frequencies, if any.
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// Number of versions `n`.
    pub fn version_count(&self) -> usize {
        self.matrix.version_count()
    }

    /// The node id of version `i` in the augmented graph.
    #[inline]
    pub fn node_of(i: u32) -> NodeId {
        NodeId(i + 1)
    }

    /// The version index of augmented node `v` (`None` for `V0`). Callers
    /// of instances with chunked costs must check
    /// [`chunk_node`](Self::chunk_node) first: the chunk root maps to the
    /// out-of-range pseudo-version `n`.
    #[inline]
    pub fn version_of(v: NodeId) -> Option<u32> {
        v.0.checked_sub(1)
    }

    /// The chunk-store dummy root `Vc` (node `n + 1`), present in the
    /// augmented graphs iff the matrix reveals any chunked cost.
    pub fn chunk_node(&self) -> Option<NodeId> {
        self.matrix
            .has_chunked()
            .then(|| NodeId(self.version_count() as u32 + 1))
    }

    /// A copy of this instance with every chunked cost withdrawn: the
    /// paper's binary model view, used by the planner's
    /// `ModePolicy::Binary`. Weights are preserved.
    pub fn without_chunked(&self) -> ProblemInstance {
        let mut matrix = self.matrix.clone();
        matrix.clear_chunked();
        ProblemInstance {
            matrix,
            weights: self.weights.clone(),
        }
    }

    /// Largest materialization recreation cost `max_i Φ_ii` — a convenient
    /// scale for choosing thresholds.
    pub fn max_materialization_cost(&self) -> u64 {
        (0..self.version_count() as u32)
            .map(|i| self.matrix.materialization(i).recreation)
            .max()
            .unwrap_or(0)
    }

    /// Builds the augmented directed graph `G` (§2.2). For symmetric
    /// matrices each revealed entry contributes both arcs. If the matrix
    /// reveals chunked costs, the chunk root `Vc` and its edges are
    /// included (see the module docs).
    pub fn augmented_graph(&self) -> DiGraph<CostPair> {
        let n = self.version_count();
        let extra = if self.matrix.is_symmetric() { 2 } else { 1 };
        let chunk = self.chunk_node();
        let nodes = n + 1 + usize::from(chunk.is_some());
        let mut g = DiGraph::with_edge_capacity(nodes, n + extra * self.matrix.revealed_count());
        for i in 0..n as u32 {
            g.add_edge(NodeId(0), Self::node_of(i), self.matrix.materialization(i));
        }
        for (i, j, pair) in self.matrix.revealed_entries() {
            g.add_edge(Self::node_of(i), Self::node_of(j), pair);
            if self.matrix.is_symmetric() {
                g.add_edge(Self::node_of(j), Self::node_of(i), pair);
            }
        }
        if let Some(cn) = chunk {
            g.add_edge(NodeId(0), cn, CostPair::new(0, 0));
            for i in 0..n as u32 {
                if let Some(pair) = self.matrix.chunked(i) {
                    g.add_edge(cn, Self::node_of(i), pair);
                }
            }
        }
        g
    }

    /// Builds the undirected augmented graph (only meaningful for
    /// symmetric matrices; used by Prim's MST in the undirected case).
    /// Chunk-root edges are included like in
    /// [`augmented_graph`](Self::augmented_graph).
    pub fn undirected_graph(&self) -> UnGraph<CostPair> {
        let n = self.version_count();
        let chunk = self.chunk_node();
        let mut g = UnGraph::new(n + 1 + usize::from(chunk.is_some()));
        for i in 0..n as u32 {
            g.add_edge(NodeId(0), Self::node_of(i), self.matrix.materialization(i));
        }
        for (i, j, pair) in self.matrix.revealed_entries() {
            g.add_edge(Self::node_of(i), Self::node_of(j), pair);
        }
        if let Some(cn) = chunk {
            g.add_edge(NodeId(0), cn, CostPair::new(0, 0));
            for i in 0..n as u32 {
                if let Some(pair) = self.matrix.chunked(i) {
                    g.add_edge(cn, Self::node_of(i), pair);
                }
            }
        }
        g
    }
}

#[cfg(test)]
pub(crate) mod fixtures {
    use super::*;

    /// The running example of the paper (Figures 1–4): 5 versions.
    /// Entries are the Δ/Φ values of Figure 2.
    pub fn paper_example() -> ProblemInstance {
        let diag = vec![
            CostPair::new(10000, 10000),
            CostPair::new(10100, 10100),
            CostPair::new(9700, 9700),
            CostPair::new(9800, 9800),
            CostPair::new(10120, 10120),
        ];
        let mut m = CostMatrix::directed(diag);
        // Versions are 0-indexed: paper's V1..V5 = 0..4.
        m.reveal(0, 1, CostPair::new(200, 200)); // V1->V2
        m.reveal(0, 2, CostPair::new(1000, 3000)); // V1->V3
        m.reveal(1, 0, CostPair::new(500, 600)); // V2->V1
        m.reveal(1, 3, CostPair::new(50, 400)); // V2->V4
        m.reveal(1, 4, CostPair::new(800, 2500)); // V2->V5
        m.reveal(2, 1, CostPair::new(1100, 3200)); // V3->V2
        m.reveal(2, 4, CostPair::new(200, 550)); // V3->V5
        m.reveal(3, 4, CostPair::new(900, 2500)); // V4->V5
        m.reveal(4, 3, CostPair::new(800, 2300)); // V5->V4
        ProblemInstance::new(m)
    }

    /// The paper example extended with per-version chunked costs: storage
    /// increments well below materialization (the store dedups shared
    /// chunks) at recreation slightly above it (manifest overhead).
    pub fn paper_example_chunked() -> ProblemInstance {
        let mut m = paper_example().matrix().clone();
        let increments = [4000u64, 900, 2500, 700, 800];
        for (i, &inc) in increments.iter().enumerate() {
            let mat = m.materialization(i as u32);
            m.set_chunked(i as u32, CostPair::new(inc, mat.recreation + 64));
        }
        ProblemInstance::new(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_mapping_roundtrip() {
        assert_eq!(ProblemInstance::node_of(0), NodeId(1));
        assert_eq!(ProblemInstance::version_of(NodeId(1)), Some(0));
        assert_eq!(ProblemInstance::version_of(NodeId(0)), None);
    }

    #[test]
    fn augmented_graph_shape() {
        let inst = fixtures::paper_example();
        let g = inst.augmented_graph();
        assert_eq!(g.node_count(), 6);
        // 5 materialization edges + 9 revealed deltas.
        assert_eq!(g.edge_count(), 14);
        // V0 reaches every version directly.
        assert_eq!(g.out_degree(NodeId(0)), 5);
    }

    #[test]
    fn symmetric_graph_gets_both_arcs() {
        let mut m =
            CostMatrix::undirected(vec![CostPair::proportional(10), CostPair::proportional(20)]);
        m.reveal(0, 1, CostPair::proportional(3));
        let inst = ProblemInstance::new(m);
        let g = inst.augmented_graph();
        assert_eq!(g.edge_count(), 2 + 2);
        let ug = inst.undirected_graph();
        assert_eq!(ug.edge_count(), 2 + 1);
    }

    #[test]
    fn max_materialization() {
        let inst = fixtures::paper_example();
        assert_eq!(inst.max_materialization_cost(), 10120);
    }

    #[test]
    fn chunked_costs_add_the_chunk_root() {
        let plain = fixtures::paper_example();
        assert_eq!(plain.chunk_node(), None);
        let inst = fixtures::paper_example_chunked();
        assert_eq!(inst.chunk_node(), Some(NodeId(6)));
        let g = inst.augmented_graph();
        // 6 version/root nodes + the chunk root.
        assert_eq!(g.node_count(), 7);
        // 5 materializations + 9 deltas + V0→Vc + 5 chunk edges.
        assert_eq!(g.edge_count(), 5 + 9 + 1 + 5);
        assert_eq!(g.out_degree(NodeId(6)), 5);
        assert_eq!(g.in_degree(NodeId(6)), 1);
    }

    #[test]
    fn partial_chunked_reveals_only_those_edges() {
        let mut m =
            CostMatrix::undirected(vec![CostPair::proportional(10), CostPair::proportional(20)]);
        m.reveal(0, 1, CostPair::proportional(3));
        m.set_chunked(1, CostPair::new(5, 22));
        let inst = ProblemInstance::new(m);
        let ug = inst.undirected_graph();
        assert_eq!(ug.node_count(), 4);
        // 2 materializations + 1 delta + root—chunk + 1 chunk edge.
        assert_eq!(ug.edge_count(), 5);
    }

    #[test]
    #[should_panic]
    fn weights_length_checked() {
        let m = CostMatrix::directed(vec![CostPair::proportional(1)]);
        ProblemInstance::with_weights(m, vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weights_rejected() {
        let m = CostMatrix::directed(vec![CostPair::proportional(1)]);
        ProblemInstance::with_weights(m, vec![-1.0]);
    }
}
