#![warn(missing_docs)]

//! # dataset-versioning
//!
//! A full reproduction of *"Principles of Dataset Versioning: Exploring the
//! Recreation/Storage Tradeoff"* (Bhattacherjee et al., VLDB 2015): a
//! library for deciding how to store large collections of dataset versions
//! — which versions to materialize and which to keep as deltas — so as to
//! balance total storage cost against per-version recreation cost.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! - [`core`] — the paper's contribution: cost matrices, Problems 1–6, and
//!   the solver suite (MST/MCA, SPT, LMG, MP, LAST, GitH, exact B&B).
//! - [`graph`] — `dsv_core::graph`, the graph substrate the solvers are
//!   built on (Dijkstra, Prim, Edmonds, trees), re-exported at the top.
//! - [`delta`] — differencing substrate (Myers diff, byte and tabular
//!   deltas).
//! - [`compress`] — the object store's order-0 Huffman payload codec
//!   (whose output size the planner prices), and the LZ77-style compressor
//!   older stores were written with.
//! - [`storage`] — batch-first, content-addressed object store with delta
//!   chains and chunk manifests: `put_batch`/`get_batch` move whole plans,
//!   `ShardedStore` partitions batches across id-prefix shards written
//!   concurrently, and `StoreStats` reports fill and single-vs-batch op
//!   counters.
//! - [`chunk`] — `dsv_storage::chunk`, the store's chunked layout:
//!   content-defined chunking (FastCDC-style), the deduplicating chunk
//!   store, the chunked-cost estimator and the hybrid packer, re-exported
//!   at the top.
//! - [`vcs`] — the prototype dataset version-control system.
//! - [`workloads`] — synthetic version-graph/dataset generators (DC, LC,
//!   BF, LF analogues), a dedup-chain workload (DD), and Zipfian access
//!   workloads.
//! - [`par`] — the std-only parallel-map runtime (rayon-subset shim)
//!   behind every CPU-bound hot path: pairwise delta reveal, chunk
//!   estimation, portfolio solves, and packing. Thread count comes from
//!   `DSV_THREADS` (or `dsv --threads`); results are identical at every
//!   thread count.
//! - [`obs`] — std-only tracing/metrics shim (tracing-subset API)
//!   instrumenting the solve/pack/store pipeline: spans aggregate into a
//!   deterministic call tree with wall/self time (`dsv --trace`,
//!   `--trace-json`, `DSV_TRACE=1`), and a metrics registry of counters,
//!   gauges, and histograms backs `dsv stats` / `dsv store --json`. With
//!   no recorder installed every macro is one relaxed atomic load.
//!
//! ## The three storage substrates
//!
//! The paper explores two regimes — materialize a version fully, or store
//! it as a delta from a parent — and six optimization problems over them.
//! This codebase adds a third regime, giving three substrates that share
//! one object model ([`storage`]):
//!
//! | Substrate | Storage cost | Recreation cost | Produced by |
//! |---|---|---|---|
//! | **Full** | one copy per version | fetch one object | `storage::pack_versions` (plan `None`) |
//! | **Delta** | delta per plan edge | replay the chain | `storage::pack_versions` (optimizer plan) |
//! | **Chunked** | unique chunks only | fetch own chunks | `storage::chunk::pack_versions_chunked` |
//!
//! Chunked storage (RStore-style chunk-level dedup) sits between the
//! paper's regimes: near-delta storage on overlapping versions with
//! near-materialized, history-independent recreation. See
//! `examples/dedup_store.rs` for a quickstart and
//! `crates/bench/src/experiments/substrates.rs` for the measured
//! comparison.
//!
//! ## Quickstart
//!
//! Planning goes through the unified planner API: a `PlanSpec` names the
//! problem, the solver choice (Table-1 `Auto`, any registry solver by
//! name, or a `Portfolio` of every capable solver), and the storage-mode
//! policy; `plan` returns the winning solution with provenance.
//!
//! ```
//! use dataset_versioning::core::{plan, PlanSpec, Problem, SolverChoice};
//! use dataset_versioning::workloads::presets;
//!
//! // Generate a small branching workload and pick a storage plan that
//! // keeps every version's recreation cost within 3x its own size —
//! // running every capable solver and keeping the cheapest feasible plan.
//! let dataset = presets::densely_connected().scaled(50).build(42);
//! let instance = dataset.instance();
//! let theta = instance.max_materialization_cost() * 3;
//! let spec = PlanSpec::new(Problem::MinStorageGivenMaxRecreation { theta })
//!     .solver(SolverChoice::Portfolio);
//! let result = plan(&instance, &spec).unwrap();
//! assert!(result.solution.max_recreation() <= theta);
//! assert!(result.solution.validate(&instance).is_ok());
//! // Provenance records the winner and every candidate's outcome.
//! assert!(result.provenance.feasible);
//! assert!(result.provenance.candidates.len() >= 3);
//! ```

pub use dsv_compress as compress;
pub use dsv_core as core;
pub use dsv_core::graph;
pub use dsv_delta as delta;
pub use dsv_obs as obs;
pub use dsv_par as par;
pub use dsv_storage as storage;
pub use dsv_storage::chunk;
pub use dsv_vcs as vcs;
pub use dsv_workloads as workloads;
