//! The solver suite (§4 of the paper, plus baselines and an exact solver),
//! registered as the rows of [`SOLVERS`].
//!
//! Every solver is discoverable in [`SOLVERS`] and via [`by_name`] under
//! its registry name; [`crate::plan()`] reaches them all through one entry
//! point. The modules: [`mst`], [`spt`], [`lmg`] (§4.1), [`mp`] (§4.2),
//! [`ilp`] (the §2.3 ILP's stand-in), [`last`] (§4.3), [`gith`] (§4.4,
//! App. A), [`hop`] (§3, `Φ ≡ 1`) and [`skip_delta`] (§5.2). Which
//! problems each row supports, exactly or heuristically, and whether it is
//! hybrid-capable is stated once, in its row; `dsv solvers` prints that
//! table from the rows.
//!
//! `mst`/`spt` double as the frontier endpoints for the constrained
//! problems; `last`/`gith` are unconstrained baselines whose feasibility
//! the planner checks post-hoc; `hop` bounds chain *length* rather than
//! `Φ`. Hybrid-capable solvers choose the three-way `StorageMode` per
//! version on instances with revealed chunked costs — including [`ilp`],
//! whose in-edge candidates cover the chunk-store root, giving exact
//! hybrid baselines on small instances. `skip-delta` stays binary because
//! SVN has no chunked mode to mirror.
//!
//! **Adding a solver** is one module plus one row of [`SOLVERS`]; the
//! planner, the VCS layer, the CLI's `--solver`/`--portfolio` flags and
//! `dsv solvers` listing, and the `solver_matrix` bench pick it up from
//! there.

pub mod gith;
pub mod hop;
pub mod ilp;
pub mod last;
pub mod lmg;
pub mod mp;
pub mod mst;
pub mod registry;
pub mod skip_delta;
pub mod spt;

pub use registry::{by_name, prescribed, Solver, SolverOutcome, Support, SOLVERS};

use crate::error::SolveError;
use crate::graph::NodeId;
use crate::instance::ProblemInstance;
use crate::solution::{StorageMode, StorageSolution};

/// Converts a parent array over *augmented* nodes (root `V0` = node 0,
/// chunk root `Vc` = node `n + 1` when the instance has chunked costs)
/// into a [`StorageSolution`] over versions.
///
/// The chunk root's own parent entry is ignored: `Vc` represents the
/// shared chunk store, which depends on no version, so whatever tree edge
/// attached it (always the zero-cost `V0 → Vc` arc in directed solves;
/// possibly a version-side edge in undirected MSTs, where orientation is
/// an artifact) is normalized away. Any version whose parent is `Vc` is
/// chunked — a root of its own delta subtree — so the normalization never
/// introduces a cycle.
pub(crate) fn augmented_to_solution(
    instance: &ProblemInstance,
    aug_parent: &[Option<NodeId>],
) -> Result<StorageSolution, SolveError> {
    let n = instance.version_count();
    let chunk = instance.chunk_node();
    debug_assert_eq!(aug_parent.len(), n + 1 + usize::from(chunk.is_some()));
    let mut modes: Vec<StorageMode> = Vec::with_capacity(n);
    for i in 0..n as u32 {
        let node = ProblemInstance::node_of(i);
        match aug_parent[node.index()] {
            Some(NodeId(0)) => modes.push(StorageMode::Materialized),
            Some(p) if Some(p) == chunk => modes.push(StorageMode::Chunked),
            Some(p) => match ProblemInstance::version_of(p) {
                Some(v) => modes.push(StorageMode::Delta(v)),
                None => return Err(SolveError::Disconnected),
            },
            None => return Err(SolveError::Disconnected),
        }
    }
    StorageSolution::from_validated_modes(instance, modes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::fixtures::paper_example;

    #[test]
    fn augmented_mapping() {
        let inst = paper_example();
        // V1 materialized, everything else chained off it: 0<-root,
        // 1<-0, 2<-0, 3<-1, 4<-2 in version indices.
        let aug = vec![
            None,
            Some(NodeId(0)),
            Some(NodeId(1)),
            Some(NodeId(1)),
            Some(NodeId(2)),
            Some(NodeId(3)),
        ];
        let sol = augmented_to_solution(&inst, &aug).unwrap();
        assert_eq!(sol.parents(), &[None, Some(0), Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn missing_parent_is_disconnected() {
        let inst = paper_example();
        let aug = vec![None, Some(NodeId(0)), None, None, None, None];
        assert_eq!(
            augmented_to_solution(&inst, &aug).unwrap_err(),
            SolveError::Disconnected
        );
    }
}
