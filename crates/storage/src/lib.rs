#![warn(missing_docs)]

//! Object-store substrate for the prototype version management system.
//!
//! The optimizer (dsv-core) decides *which* versions to materialize and
//! which to store as deltas; this crate actually stores them and recreates
//! them. Three storage regimes ("substrates") share one object model:
//!
//! | Substrate | Object layout | Storage | Recreation |
//! |---|---|---|---|
//! | **Full** | one `Object::Full` per version | highest | one fetch |
//! | **Delta** | `Object::Delta` chains per the optimizer's plan | lowest | walk + replay the chain |
//! | **Chunked** | `Object::Chunked` manifest over deduplicated `Full` chunk objects | near-delta | fetch own chunks only |
//!
//! Full and Delta are the paper's two regimes; Chunked is the third point
//! on the recreation/storage tradeoff (RStore-style chunk-level dedup),
//! cut by the chunker in [`cdc`], written by [`chunk::ChunkStore`] and the
//! packers, and reassembled by the [`Materializer`].
//!
//! - [`hash`]: 128-bit content addresses.
//! - [`object`]: the three object kinds — `Full` bytes, `Delta{base,
//!   ops}`, or `Chunked{chunks}` — with an optional Huffman-coded on-disk
//!   encoding (the `Φ ≠ Δ` regime of the paper) and [`stored_len`], the
//!   size of that encoding from byte counts: what a planner prices.
//! - [`store`]: the batch-first [`ObjectStore`] trait (single ops plus
//!   `put_batch` / `get_batch` / `contains_batch` / `remove_batch` and a
//!   [`StoreStats`] snapshot) with in-memory and on-disk implementations.
//! - [`sharded`]: [`ShardedStore`] — N independent inner stores selected
//!   by id prefix, batches partitioned by shard and written concurrently
//!   on the `dsv-par` runtime.
//! - [`materialize`]: recreation — walk a version's delta chain back to a
//!   materialized object, chunk manifest, or deepest cached ancestor and
//!   replay it, with measured recreation work.
//! - [`cache`]: [`CheckoutCache`] — bounded, byte-budgeted cache of
//!   materialized versions and chunks, scored by the paper's
//!   workload-aware objective (access frequency × recreation cost).
//! - [`repack`]: apply a storage plan (a parent assignment from the
//!   optimizer) to a set of version contents, producing objects and
//!   **measured** storage/recreation statistics (what §5.2 reports).
//!   Object ids are content addresses, so a plan's objects are assembled
//!   store-free and streamed through bounded `put_batch` flushes
//!   ([`BatchWriter`]).
//! - [`chunk`]: the chunked regime's public names, gathered from
//!   [`cdc`] (the content-defined chunker), [`store`] (the deduplicating
//!   [`chunk::ChunkStore`] and [`chunk::pack_versions_chunked`]),
//!   [`estimate`] (per-version chunked cost pairs for the planner, next
//!   to [`stored_len`]) and [`hybrid`] (the packer for per-version
//!   Full / Delta / Chunked plans).
//! - [`fault`]: deterministic fault injection — a seeded [`FaultPlan`]
//!   consulted by every durable fs primitive (torn writes, dropped
//!   fsyncs, failed renames) plus [`FaultStore`], the same plan applied
//!   at the [`ObjectStore`] boundary, so every crash ordering in
//!   commit/repack/GC is testable.

pub mod cache;
pub mod cdc;
pub mod chunk;
pub mod estimate;
pub mod fault;
pub mod hash;
pub mod hybrid;
pub mod materialize;
pub mod object;
pub mod repack;
pub mod sharded;
pub mod store;

pub use cache::{CacheStats, CheckoutCache, DEFAULT_CACHE_BUDGET};
pub use fault::{FaultKind, FaultPlan, FaultStore};
pub use hash::ObjectId;
pub use materialize::{Materializer, RecreationWork, VersionWalk, WalkReader, WalkVersion};
pub use object::{stored_len, Object, Priced, StoreError};
pub use repack::{
    pack_from, pack_versions, BatchWriter, PackOptions, PackedVersions, PACK_FLUSH_BYTES,
};
pub use sharded::{shard_index, ShardedStore, MAX_SHARDS};
pub use store::{Counters, FileStore, MemStore, ObjectStore, OpCounters, ShardStats, StoreStats};

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_core::ChunkerParams;

    #[test]
    fn errors_display_informatively() {
        // A chunker the constructor rejects names the bound it broke.
        let oversized = ChunkerParams::new(16, 1 << 62, 1 << 62).unwrap_err();
        assert!(
            oversized.to_string().contains("at most 32 MiB"),
            "{oversized}"
        );
        let undersized = ChunkerParams::new(4, 256, 1024).unwrap_err();
        assert!(
            undersized.to_string().contains("at least 16"),
            "{undersized}"
        );
        assert!(StoreError::ChainTooLong.to_string().contains("chain"));
    }
}
