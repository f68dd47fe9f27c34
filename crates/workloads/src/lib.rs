#![warn(missing_docs)]

//! Workload generators reproducing the paper's datasets (§5.1).
//!
//! The paper evaluates on four workloads; none are redistributable (two are
//! synthetic, two are derived from GitHub forks), so this crate regenerates
//! their *shape*:
//!
//! - [`version_graph`]: the two-step synthetic suite — first a version DAG
//!   driven by `commits / branch_interval / branch_prob / branch_limit /
//!   branch_length`, then CSV contents mutated by the paper's six edit
//!   commands, with deltas revealed within a k-hop neighbourhood. Presets
//!   [`presets::densely_connected`] (DC) and [`presets::linear_chain`]
//!   (LC).
//! - [`forks`]: fork-style workloads — one base file, per-fork edit
//!   sequences, all-pairs deltas for pairs within a size-difference
//!   threshold (how the paper processed the Bootstrap/Linux forks).
//!   Presets [`presets::bootstrap_forks`] (BF) and [`presets::linux_forks`]
//!   (LF).
//! - [`synthetic`]: cost-only instances (no file contents) for the
//!   running-time experiment (Fig. 17), where only the `Δ`/`Φ`
//!   distributions matter, at version counts where materializing contents
//!   would be pointless.
//! - [`zipf`]: Zipfian access frequencies (exponent 2 in the paper's
//!   workload-aware experiment, Fig. 16).
//! - [`dedup`]: a chain of shifted/overlapping versions — the
//!   dedup-friendly workload on which the chunked substrate (dsv-storage)
//!   is compared against Full/Delta plans. Preset
//!   [`presets::dedup_chain`] (DD).
//!
//! The three content builders (DC/LC, BF/LF, DD) differ only in which
//! pairs they diff: graph hops, a size threshold, chain edges. One shared
//! reveal, `dataset::line_matrix`, turns those pairs into the matrix:
//! `Φ = Δ` = bytes, a version's length on the diagonal and a line
//! script's encoded size off it (for undirected matrices, both scripts
//! concatenated for DC/LC/DD and the larger direction for BF/LF).
//!
//! All generators are deterministic given a seed.

pub mod dataset;
pub mod dedup;
pub mod forks;
pub mod presets;
pub mod synthetic;
pub mod table_gen;
pub mod version_graph;
pub mod zipf;

pub use dataset::{Dataset, DatasetParams};
pub use dedup::DedupParams;
pub use forks::ForkParams;
pub use presets::Preset;
pub use version_graph::{GraphParams, VersionGraph};
pub use zipf::zipf_weights;
