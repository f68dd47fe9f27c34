#![warn(missing_docs)]

//! Differencing substrate: the "delta" mechanisms of the paper's §2.1.
//!
//! A *delta* from version `Vi` to `Vj` is the information needed to
//! construct `Vj` given `Vi`. The paper lists several mechanisms (UNIX-style
//! line diffs, XOR, cell-level tabular diffs, generating scripts); this
//! crate implements the line, byte and cell-level ones with real bytes so
//! that the `⟨Δ, Φ⟩` costs of §2.1 come from an actual differencing
//! algorithm rather than synthetic numbers. Costs are bytes, `Φ = Δ`: a
//! delta's encoded size is both what storing it costs and what recreating
//! through it reads. The crate prices nothing itself: the workload
//! builders reveal matrices from line-script sizes (dsv-workloads'
//! `line_matrix`), and the version store prices stored objects in one
//! place (dsv-vcs' `Repository::price`).
//!
//! - [`myers`]: the Myers O(ND) greedy LCS diff on arbitrary token
//!   sequences.
//! - [`script`]: line-level edit scripts (directional and two-way).
//! - [`bytes_delta`]: a compact copy/insert byte-delta format (the role
//!   xdelta/LibXDiff play in the paper); the object store may code it
//!   further.
//! - [`tabular`]: cell-level deltas for tabular (CSV-like) data.
//! - [`similarity`]: shingle/min-hash resemblance sketches for choosing
//!   which matrix entries to reveal between version-graph-distant versions
//!   (the paper's pointer to Douglis & Iyengar, ref.\&nbsp;19).

pub mod bytes_delta;
pub mod myers;
pub mod script;
pub mod similarity;
pub mod tabular;

pub use bytes_delta::{apply as apply_delta, diff as byte_diff, DeltaError, DeltaOp};
pub use myers::{diff_slices, DiffOp};
pub use script::{line_diff, LineScript};
pub use similarity::ResemblanceSketch;
pub use tabular::{Table, TableDelta};
