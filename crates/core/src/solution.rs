//! Storage solutions: validated spanning trees of the augmented graph,
//! generalized to the **three-mode** per-version storage model.
//!
//! The paper's §2.1 model is binary: each version is either
//! *materialized* (an edge from the dummy root `V0`) or *stored as a
//! delta* from exactly one other version. This module generalizes that to
//! a per-version [`StorageMode`]:
//!
//! - [`StorageMode::Materialized`] — the version is stored in full
//!   (edge `V0 → Vi` carrying `⟨Δ_ii, Φ_ii⟩`);
//! - [`StorageMode::Delta`]`(j)` — the version is stored as a delta from
//!   version `j` (edge `Vj → Vi` carrying the revealed `⟨Δ_ij, Φ_ij⟩`);
//! - [`StorageMode::Chunked`] — the version is stored as a deduplicated
//!   chunk manifest in a shared content-addressed chunk store. In the
//!   augmented graph this is modeled as a **second dummy root** `Vc`
//!   hanging off `V0` by a zero-cost edge, with edge `Vc → Vi` carrying
//!   the version's chunked cost `⟨Δ_ci, Φ_ci⟩` (the incremental
//!   unique-chunk bytes it adds to the store, and the work to reassemble
//!   it from its manifest). Chunked versions depend on the shared store,
//!   not on each other, so they are roots of their own delta subtrees —
//!   exactly like materialized versions, but at different cost points.
//!
//! Validity still follows Lemma 1: every version must be recreatable
//! through a chain of deltas ending at a *root-mode* (materialized or
//! chunked) version — i.e. the assignment forms a spanning tree of the
//! augmented graph rooted at `V0`, where `Vc` (when used) is a child of
//! `V0`. Costs:
//!
//! - total storage `C = Σ Δ` over chosen edges (the zero-cost `V0 → Vc`
//!   edge contributes nothing),
//! - recreation `Ri = Σ Φ` along the root→`i` path (`Φ_ci` for a chunked
//!   version — manifests have no chains to replay).

use crate::error::SolveError;
use crate::graph::{NodeId, RootedTree};
use crate::instance::ProblemInstance;

/// How one version is stored: the per-version decision the solvers make.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageMode {
    /// Stored in full (edge from the dummy root `V0`).
    Materialized,
    /// Stored as a delta from the given version.
    Delta(u32),
    /// Stored as a deduplicated chunk manifest in the shared chunk store
    /// (edge from the chunk-store dummy root `Vc`).
    Chunked,
}

impl StorageMode {
    /// The delta parent, if this mode is a delta (`None` for both root
    /// modes).
    pub fn delta_parent(self) -> Option<u32> {
        match self {
            StorageMode::Delta(p) => Some(p),
            _ => None,
        }
    }

    /// Whether this is a root mode (materialized or chunked): the version
    /// heads its own delta subtree.
    pub fn is_root(self) -> bool {
        !matches!(self, StorageMode::Delta(_))
    }

    /// Whether the version is stored as a chunk manifest.
    pub fn is_chunked(self) -> bool {
        matches!(self, StorageMode::Chunked)
    }
}

impl From<Option<u32>> for StorageMode {
    /// The binary view: `None` = materialized, `Some(j)` = delta from `j`.
    fn from(p: Option<u32>) -> Self {
        match p {
            None => StorageMode::Materialized,
            Some(j) => StorageMode::Delta(j),
        }
    }
}

/// Why a mode assignment is not a valid storage solution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolutionError {
    /// The assignment references a delta entry that is not revealed in the
    /// matrix.
    UnrevealedDelta {
        /// Delta source version.
        from: u32,
        /// Delta target version.
        to: u32,
    },
    /// The assignment marks this version chunked, but the matrix has no
    /// chunked cost revealed for it.
    ChunkedUnavailable(u32),
    /// Following parents from this version never reaches a root-mode
    /// version (a delta cycle).
    Cycle(u32),
    /// A parent index is out of range.
    ParentOutOfRange(u32),
    /// The solution's cached costs disagree with recomputation (internal
    /// consistency check).
    CostMismatch,
}

impl std::fmt::Display for SolutionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolutionError::UnrevealedDelta { from, to } => {
                write!(f, "delta {from}->{to} is not revealed in the matrix")
            }
            SolutionError::ChunkedUnavailable(v) => {
                write!(f, "version {v} has no chunked cost revealed")
            }
            SolutionError::Cycle(v) => write!(f, "version {v} is on a delta cycle"),
            SolutionError::ParentOutOfRange(v) => write!(f, "version {v} has invalid parent"),
            SolutionError::CostMismatch => write!(f, "cached costs disagree with recomputation"),
        }
    }
}

impl std::error::Error for SolutionError {}

/// A validated storage solution with cached cost accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageSolution {
    /// Per-version storage mode.
    modes: Vec<StorageMode>,
    /// The tree-parent view (`Delta(j)` ⇒ `Some(j)`, root modes ⇒ `None`),
    /// kept alongside so binary consumers can borrow it.
    parent: Vec<Option<u32>>,
    /// Total storage cost `C`.
    storage: u64,
    /// Per-version recreation costs `Ri`.
    recreation: Vec<u64>,
}

impl StorageSolution {
    /// Builds and validates a solution from a binary parent assignment
    /// (`None` = materialized, `Some(j)` = delta from `j`), computing all
    /// costs from the instance's matrices.
    pub fn from_parents(
        instance: &ProblemInstance,
        parent: Vec<Option<u32>>,
    ) -> Result<Self, SolutionError> {
        Self::from_modes(
            instance,
            parent.into_iter().map(StorageMode::from).collect(),
        )
    }

    /// Builds and validates a solution from a per-version mode assignment,
    /// computing all costs from the instance's matrices. Chunked modes
    /// require the matrix to have a chunked cost revealed for that version
    /// ([`SolutionError::ChunkedUnavailable`] otherwise).
    pub fn from_modes(
        instance: &ProblemInstance,
        modes: Vec<StorageMode>,
    ) -> Result<Self, SolutionError> {
        let n = instance.version_count();
        assert_eq!(modes.len(), n, "one mode entry per version");
        let matrix = instance.matrix();

        // Build the augmented rooted tree for traversal. When any version
        // is chunked, the chunk-store dummy root `Vc` (node n+1) joins as
        // a zero-cost child of `V0` and chunked versions hang off it.
        let uses_chunked = modes.iter().any(|m| m.is_chunked());
        let chunk_node = NodeId(n as u32 + 1);
        let total = n + 1 + usize::from(uses_chunked);
        let mut aug_parents: Vec<Option<NodeId>> = vec![None; total];
        if uses_chunked {
            aug_parents[chunk_node.index()] = Some(NodeId(0));
        }
        for (i, m) in modes.iter().enumerate() {
            let node = ProblemInstance::node_of(i as u32);
            aug_parents[node.index()] = Some(match m {
                StorageMode::Materialized => NodeId(0),
                StorageMode::Chunked => {
                    if matrix.chunked(i as u32).is_none() {
                        return Err(SolutionError::ChunkedUnavailable(i as u32));
                    }
                    chunk_node
                }
                StorageMode::Delta(j) => {
                    if *j as usize >= n {
                        return Err(SolutionError::ParentOutOfRange(i as u32));
                    }
                    ProblemInstance::node_of(*j)
                }
            });
        }
        let tree = RootedTree::from_parents(NodeId(0), aug_parents).map_err(|e| match e {
            crate::graph::tree::TreeError::Cycle(v) => {
                SolutionError::Cycle(ProblemInstance::version_of(v).unwrap_or(0))
            }
            _ => SolutionError::ParentOutOfRange(0),
        })?;

        // Storage: sum of chosen edge Δ; recreation: path sums of Φ.
        let mut storage = 0u64;
        for (i, m) in modes.iter().enumerate() {
            let i = i as u32;
            let pair = match m {
                StorageMode::Materialized => matrix.materialization(i),
                StorageMode::Chunked => matrix.chunked(i).expect("checked above"),
                StorageMode::Delta(j) => matrix
                    .get(*j, i)
                    .ok_or(SolutionError::UnrevealedDelta { from: *j, to: i })?,
            };
            storage = storage.saturating_add(pair.storage);
        }
        let costs = tree.path_costs(|pn, cn| {
            if cn == chunk_node && uses_chunked {
                return 0; // the zero-cost V0 → Vc edge
            }
            let c = ProblemInstance::version_of(cn).expect("child is a version");
            if pn == chunk_node && uses_chunked {
                return matrix.chunked(c).expect("validated above").recreation;
            }
            match ProblemInstance::version_of(pn) {
                None => matrix.materialization(c).recreation,
                Some(p) => matrix.get(p, c).expect("validated above").recreation,
            }
        });
        let recreation = (0..n)
            .map(|i| costs[ProblemInstance::node_of(i as u32).index()])
            .collect();

        let parent = modes.iter().map(|m| m.delta_parent()).collect();
        Ok(StorageSolution {
            modes,
            parent,
            storage,
            recreation,
        })
    }

    /// The per-version storage modes.
    pub fn modes(&self) -> &[StorageMode] {
        &self.modes
    }

    /// Storage mode of version `i`.
    pub fn mode(&self, i: u32) -> StorageMode {
        self.modes[i as usize]
    }

    /// The tree-parent view of the assignment: `Some(j)` for deltas,
    /// `None` for both root modes (materialized and chunked). Binary
    /// consumers that predate the three-mode model read this; mode-aware
    /// consumers should use [`modes`](Self::modes).
    pub fn parents(&self) -> &[Option<u32>] {
        &self.parent
    }

    /// Delta parent of version `i` (`None` = root mode).
    pub fn parent(&self, i: u32) -> Option<u32> {
        self.parent[i as usize]
    }

    /// Number of versions.
    pub fn version_count(&self) -> usize {
        self.modes.len()
    }

    /// Versions stored in their entirety.
    pub fn materialized(&self) -> impl Iterator<Item = u32> + '_ {
        self.modes
            .iter()
            .enumerate()
            .filter(|(_, m)| matches!(m, StorageMode::Materialized))
            .map(|(i, _)| i as u32)
    }

    /// Versions stored as chunk manifests.
    pub fn chunked(&self) -> impl Iterator<Item = u32> + '_ {
        self.modes
            .iter()
            .enumerate()
            .filter(|(_, m)| m.is_chunked())
            .map(|(i, _)| i as u32)
    }

    /// Total storage cost `C`.
    pub fn storage_cost(&self) -> u64 {
        self.storage
    }

    /// Recreation cost `Ri` of version `i`.
    pub fn recreation_cost(&self, i: u32) -> u64 {
        self.recreation[i as usize]
    }

    /// All recreation costs.
    pub fn recreation_costs(&self) -> &[u64] {
        &self.recreation
    }

    /// `Σ Ri` (saturating).
    pub fn sum_recreation(&self) -> u64 {
        self.recreation
            .iter()
            .fold(0u64, |acc, &r| acc.saturating_add(r))
    }

    /// `max Ri` (0 for an empty instance).
    pub fn max_recreation(&self) -> u64 {
        self.recreation.iter().copied().max().unwrap_or(0)
    }

    /// Access-frequency-weighted total recreation cost `Σ wi · Ri`.
    pub fn weighted_sum_recreation(&self, weights: &[f64]) -> f64 {
        assert_eq!(weights.len(), self.recreation.len());
        self.recreation
            .iter()
            .zip(weights)
            .map(|(&r, &w)| r as f64 * w)
            .sum()
    }

    /// The recreation chain for version `i`: the path from its root-mode
    /// ancestor down to `i` (the sequence of versions whose objects must
    /// be fetched, in application order). A chunked version's chain is
    /// just itself — manifests have no chains.
    pub fn recreation_chain(&self, i: u32) -> Vec<u32> {
        let mut chain = vec![i];
        let mut cur = i;
        while let Some(p) = self.parent[cur as usize] {
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
    }

    /// Re-validates the solution against `instance` from scratch:
    /// structure, revealed entries, and that the cached costs match a full
    /// recomputation. Solvers' outputs are constructed through
    /// [`from_modes`](Self::from_modes), so this should never fail; it
    /// exists so tests and downstream users can cross-check.
    pub fn validate(&self, instance: &ProblemInstance) -> Result<(), SolutionError> {
        let fresh = StorageSolution::from_modes(instance, self.modes.clone())?;
        if fresh.storage != self.storage || fresh.recreation != self.recreation {
            return Err(SolutionError::CostMismatch);
        }
        Ok(())
    }

    /// Internal constructor for solvers working in the binary model.
    pub(crate) fn from_validated_parts(
        instance: &ProblemInstance,
        parent: Vec<Option<u32>>,
    ) -> Result<Self, SolveError> {
        StorageSolution::from_parents(instance, parent)
            .map_err(|_| SolveError::Internal("solver produced an invalid parent assignment"))
    }

    /// Internal constructor for mode-aware solvers.
    pub(crate) fn from_validated_modes(
        instance: &ProblemInstance,
        modes: Vec<StorageMode>,
    ) -> Result<Self, SolveError> {
        StorageSolution::from_modes(instance, modes)
            .map_err(|_| SolveError::Internal("solver produced an invalid mode assignment"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::fixtures::{paper_example, paper_example_chunked};

    /// Figure 4 of the paper: V1 and V3 materialized; V2 <- V1,
    /// V4 <- V2, V5 <- V3. (0-indexed: 0 and 2 materialized.)
    fn figure4(instance: &ProblemInstance) -> StorageSolution {
        StorageSolution::from_parents(instance, vec![None, Some(0), None, Some(1), Some(2)])
            .unwrap()
    }

    #[test]
    fn paper_figure4_costs() {
        let inst = paper_example();
        let s = figure4(&inst);
        // Storage: 10000 + 200 + 9700 + 50 + 200 = 20150.
        assert_eq!(s.storage_cost(), 20150);
        // Recreation: R1=10000, R2=10200, R3=9700, R4=10600, R5=10250.
        assert_eq!(s.recreation_costs(), &[10000, 10200, 9700, 10600, 10250]);
        assert_eq!(s.max_recreation(), 10600);
        assert_eq!(s.sum_recreation(), 50750);
    }

    #[test]
    fn paper_figure1_iii_single_materialization() {
        // Figure 1(iii): everything hangs off V1.
        let inst = paper_example();
        let s =
            StorageSolution::from_parents(&inst, vec![None, Some(0), Some(0), Some(1), Some(2)])
                .unwrap();
        assert_eq!(s.storage_cost(), 10000 + 200 + 1000 + 50 + 200);
        // R5 via V1->V3->V5 = 10000 + 3000 + 550 = 13550 (paper's example).
        assert_eq!(s.recreation_cost(4), 13550);
        assert_eq!(s.recreation_chain(4), vec![0, 2, 4]);
    }

    #[test]
    fn naive_all_materialized() {
        let inst = paper_example();
        let s = StorageSolution::from_parents(&inst, vec![None; 5]).unwrap();
        assert_eq!(s.storage_cost(), 49720); // paper's 1(ii) total
        assert_eq!(s.materialized().count(), 5);
        for i in 0..5u32 {
            assert_eq!(
                s.recreation_cost(i),
                inst.matrix().materialization(i).recreation
            );
            assert_eq!(s.recreation_chain(i), vec![i]);
        }
    }

    #[test]
    fn cycle_detected() {
        let inst = paper_example();
        let err = StorageSolution::from_parents(&inst, vec![Some(1), Some(0), None, None, None])
            .unwrap_err();
        assert!(matches!(err, SolutionError::Cycle(_)));
    }

    #[test]
    fn unrevealed_delta_detected() {
        let inst = paper_example();
        // 3 -> 0 (V4 -> V1) is not revealed.
        let err = StorageSolution::from_parents(&inst, vec![Some(3), None, None, None, Some(2)])
            .unwrap_err();
        assert_eq!(err, SolutionError::UnrevealedDelta { from: 3, to: 0 });
    }

    #[test]
    fn out_of_range_parent_detected() {
        let inst = paper_example();
        let err = StorageSolution::from_parents(&inst, vec![Some(9), None, None, None, None])
            .unwrap_err();
        assert_eq!(err, SolutionError::ParentOutOfRange(0));
    }

    #[test]
    fn validate_passes_for_consistent_solution() {
        let inst = paper_example();
        let s = figure4(&inst);
        assert!(s.validate(&inst).is_ok());
    }

    #[test]
    fn weighted_recreation() {
        let inst = paper_example();
        let s = figure4(&inst);
        let uniform = vec![1.0; 5];
        assert!((s.weighted_sum_recreation(&uniform) - s.sum_recreation() as f64).abs() < 1e-9);
        let skewed = vec![0.0, 0.0, 0.0, 0.0, 2.0];
        assert!(
            (s.weighted_sum_recreation(&skewed) - 2.0 * s.recreation_cost(4) as f64).abs() < 1e-9
        );
    }

    #[test]
    fn chunked_mode_costs_come_from_chunked_entries() {
        let inst = paper_example_chunked();
        // V1 chunked, V2 delta off V1, V3 chunked, V4 delta off V2,
        // V5 delta off V3.
        let s = StorageSolution::from_modes(
            &inst,
            vec![
                StorageMode::Chunked,
                StorageMode::Delta(0),
                StorageMode::Chunked,
                StorageMode::Delta(1),
                StorageMode::Delta(2),
            ],
        )
        .unwrap();
        let c0 = inst.matrix().chunked(0).unwrap();
        let c2 = inst.matrix().chunked(2).unwrap();
        // Storage: chunked increments replace materializations.
        assert_eq!(s.storage_cost(), c0.storage + 200 + c2.storage + 50 + 200);
        // Recreation: chunked roots pay Φ_c, their descendants chain on it.
        assert_eq!(s.recreation_cost(0), c0.recreation);
        assert_eq!(s.recreation_cost(1), c0.recreation + 200);
        assert_eq!(s.recreation_cost(4), c2.recreation + 550);
        // Views.
        assert_eq!(s.chunked().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(s.materialized().count(), 0);
        assert_eq!(s.parents(), &[None, Some(0), None, Some(1), Some(2)]);
        assert_eq!(s.recreation_chain(0), vec![0]);
        assert!(s.validate(&inst).is_ok());
    }

    #[test]
    fn chunked_without_revealed_cost_rejected() {
        let inst = paper_example(); // no chunked entries
        let err = StorageSolution::from_modes(
            &inst,
            vec![
                StorageMode::Chunked,
                StorageMode::Materialized,
                StorageMode::Materialized,
                StorageMode::Materialized,
                StorageMode::Materialized,
            ],
        )
        .unwrap_err();
        assert_eq!(err, SolutionError::ChunkedUnavailable(0));
    }

    #[test]
    fn binary_and_mode_constructors_agree() {
        let inst = paper_example();
        let a = StorageSolution::from_parents(&inst, vec![None, Some(0), None, Some(1), Some(2)])
            .unwrap();
        let b = StorageSolution::from_modes(
            &inst,
            vec![
                StorageMode::Materialized,
                StorageMode::Delta(0),
                StorageMode::Materialized,
                StorageMode::Delta(1),
                StorageMode::Delta(2),
            ],
        )
        .unwrap();
        assert_eq!(a, b);
    }
}
