#![warn(missing_docs)]

//! A prototype dataset version-management system.
//!
//! This is the system of the paper's §5: a Git/SVN-like interface for
//! dataset versioning, built over the optimizer (dsv-core) and the object
//! store (dsv-storage). Users `commit` dataset versions, `branch`, perform
//! merges themselves (the system records a commit with multiple parents —
//! "unlike traditional VCS … we let the user perform the merge"), and
//! `checkout` any version. [`Repository::optimize_with`] re-packs the
//! repository under any of the paper's six problems — solved by the
//! Table-1 solver, a named registry solver, or a portfolio of every
//! capable solver, per the given [`PlanSpec`] — trading storage for
//! recreation cost on demand. Commits are placed per a [`Placement`]
//! policy: greedy parent deltas (the paper's regime) or deduplicated
//! chunk manifests ([`Repository::in_memory_chunked`] /
//! [`Repository::init_chunked`]) whose checkout reassembles chunks
//! instead of replaying chains; chunked-placement repositories are
//! optimized in the three-mode hybrid model automatically.
//!
//! ```
//! use dsv_vcs::Repository;
//! use dsv_core::{PlanSpec, Problem, SolverChoice};
//!
//! let mut repo = Repository::in_memory();
//! let v0 = repo.commit("main", b"a,b\n1,2\n", "initial").unwrap();
//! repo.branch("exp", v0).unwrap();
//! let v1 = repo.commit("exp", b"a,b\n1,2\n3,4\n", "add row").unwrap();
//! assert_eq!(repo.checkout(v1).unwrap(), b"a,b\n1,2\n3,4\n");
//! let spec = PlanSpec::new(Problem::MinStorage)
//!     .solver(SolverChoice::Portfolio)
//!     .reveal_hops(4);
//! let report = repo.optimize_with(&spec).unwrap();
//! assert!(report.storage_after <= report.storage_before);
//! assert_eq!(report.provenance.solver, "mst"); // P1: MCA is exact
//! ```

pub mod commit;
pub mod error;
pub mod fsck;
mod gc;
pub mod optimize;
pub mod persist;
pub mod repo;
pub mod serve;

pub use commit::{CommitId, CommitMeta};
pub use dsv_core::{ModePolicy, PlanSpec, SolverChoice};
pub use error::VcsError;
pub use fsck::{FsckReport, Recovery};
pub use optimize::OptimizeReport;
pub use persist::RepoStore;
pub use repo::{Checkpoint, OnlineOptions, Placement, Repository};
pub use serve::{Dsvd, DsvdConfig};
