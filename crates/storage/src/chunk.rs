//! Content-defined chunking and deduplication — the third storage regime.
//!
//! The paper stores every version either fully materialized or as a delta
//! from one parent, trading storage against a recreation cost that grows
//! with delta-chain length. Chunk-level deduplication (RStore's regime)
//! is the third point on that tradeoff, and a layout of this crate's
//! object store:
//!
//! - **storage** near the delta plans' — only content no earlier version
//!   contributed is stored, because chunks are content-addressed and the
//!   store's idempotent `put` deduplicates them;
//! - **recreation** near the materialized plan's — checking out a version
//!   fetches exactly its own chunks, so cost is proportional to the
//!   version's size and *flat in history length* (no chains to replay).
//!
//! The pieces sit at this crate's root; this module gathers their public
//! names:
//!
//! - [`cdc`]: a Gear-hash chunker with FastCDC-style normalized
//!   cut-points ([`Chunker`]) over [`ChunkerParams`] — deterministic,
//!   min/max bounded, and boundary-stable under insertions;
//! - [`store`](crate::store): [`ChunkStore`], which content-addresses
//!   chunks through [`ObjectId`](crate::ObjectId), records per-version
//!   manifests (`Object::Chunked` recipes), and measures dedup
//!   ([`DedupStats`]); [`pack_versions_chunked`] is the drop-in
//!   counterpart of [`pack_versions`](crate::pack_versions), so the
//!   chunked substrate is compared head-to-head with the paper's
//!   Full/Delta plans by the same measured storage/recreation reporting;
//! - [`estimate`]: [`chunked_cost_pairs`], the per-version incremental
//!   chunked-cost estimates that feed the optimizer's three-mode
//!   `CostMatrix` (hybrid Full/Delta/Chunked plans);
//! - [`hybrid`]: [`pack_versions_hybrid`], the executor for solver-chosen
//!   per-version `StorageMode` plans.
//!
//! ```
//! use dsv_storage::chunk::{ChunkStore, ChunkerParams};
//! use dsv_storage::{MemStore, ObjectStore};
//!
//! let store = MemStore::new(false);
//! let chunks = ChunkStore::new(&store, ChunkerParams::default());
//! let v0 = b"header\n".repeat(2000);
//! let mut v1 = v0.clone();
//! v1.extend_from_slice(b"one more row\n");
//! let p0 = chunks.put_version(&v0).unwrap();
//! let p1 = chunks.put_version(&v1).unwrap();
//! // The second version reuses almost every chunk of the first.
//! assert!(p1.new_chunk_bytes < v1.len() as u64 / 2);
//! assert_eq!(chunks.get_version(p1.id).unwrap().0, v1);
//! ```

pub use crate::{cdc, estimate, hybrid};

pub use crate::cdc::{chunk_spans, Chunker};
pub use crate::estimate::chunked_cost_pairs;
pub use crate::hybrid::pack_versions_hybrid;
pub use crate::store::{pack_versions_chunked, prechunk, ChunkStore, DedupStats, PutVersion};
pub use dsv_core::ChunkerParams;
