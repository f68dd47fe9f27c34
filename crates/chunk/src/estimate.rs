//! Per-version chunked-cost estimation for the optimizer.
//!
//! The hybrid solvers (dsv-core's three-mode `StorageMode` model) need,
//! for every version, the `⟨Δ_ci, Φ_ci⟩` pair of storing it as a chunk
//! manifest: the **incremental unique-chunk bytes** it would add to the
//! shared store given the chunks earlier versions already contributed,
//! and the work to reassemble it from its manifest. This module computes
//! those pairs by running the gear-hash chunker over the version contents
//! *in version order* — a dry run of [`crate::ChunkStore::put_version`]
//! that touches no object store.
//!
//! Estimates are order-dependent by design: version `i`'s increment
//! assumes versions `0..i` are already chunked. For plans whose chunked
//! set is prefix-closed in version order (in particular the all-chunked
//! plan) the estimates match the executor
//! ([`crate::pack_versions_hybrid`]) byte for byte. For **sparse**
//! chunked subsets they are *optimistic* lower bounds: a chunked version
//! whose earlier neighbours were left un-chunked must physically store
//! chunks the estimate assumed were already present, so the real chunk
//! store can exceed the sum of the estimates the solver used. The
//! executor's [`crate::DedupStats`] (and `OptimizeReport`'s
//! `storage_after`) report the measured footprint, so the gap is always
//! visible; making the estimates subset-aware is a ROADMAP item.

use crate::cdc::{Chunker, ChunkerParams};
use crate::ChunkError;
use dsv_core::CostPair;
use dsv_obs as obs;
use dsv_storage::{Object, ObjectId};
use std::collections::HashSet;

/// Bytes a manifest spends per chunk reference (an [`ObjectId`]).
pub const MANIFEST_ENTRY_BYTES: u64 = 16;

/// Fixed manifest overhead (kind tag + length header).
pub const MANIFEST_BASE_BYTES: u64 = 16;

/// Estimates, for each version in order, the chunked storage/recreation
/// cost pair:
///
/// - `Δ_ci` = unique-chunk bytes version `i` adds on top of versions
///   `0..i`, plus its manifest overhead;
/// - `Φ_ci` = the version's full size plus manifest overhead (checkout
///   fetches the manifest and every chunk — flat in history length).
pub fn chunked_cost_pairs(
    contents: &[Vec<u8>],
    params: ChunkerParams,
) -> Result<Vec<CostPair>, ChunkError> {
    params.validate()?;
    let _span = obs::span!("estimate", versions = contents.len()).entered();
    // Chunking + hashing each version is independent work — run it on the
    // dsv-par runtime. The dedup pass below stays
    // sequential over the precomputed chunk ids, so the order-dependent
    // increments are identical at every thread count.
    let chunk_span = obs::span!("chunk");
    let per_version: Vec<Vec<(ObjectId, u64)>> = chunk_span.in_scope(|| {
        dsv_par::par_map(contents, |data| {
            Chunker::new(data, params)
                .map(|chunk| (Object::full_id(chunk), chunk.len() as u64))
                .collect()
        })
    });
    drop(chunk_span);
    let dedup_span = obs::span!("dedup").entered();
    let mut seen: HashSet<ObjectId> = HashSet::new();
    let mut out = Vec::with_capacity(contents.len());
    for (data, chunk_ids) in contents.iter().zip(&per_version) {
        let mut new_bytes = 0u64;
        for &(id, len) in chunk_ids {
            if seen.insert(id) {
                new_bytes += len;
            }
        }
        let manifest = MANIFEST_BASE_BYTES + chunk_ids.len() as u64 * MANIFEST_ENTRY_BYTES;
        out.push(CostPair::new(
            new_bytes + manifest,
            data.len() as u64 + manifest,
        ));
    }
    dedup_span.record("unique_chunks", seen.len());
    drop(dedup_span);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ChunkStore;
    use dsv_storage::MemStore;

    fn params() -> ChunkerParams {
        ChunkerParams::new(64, 256, 1024).unwrap()
    }

    fn overlapping_versions(n: usize) -> Vec<Vec<u8>> {
        let base: Vec<u8> = (0..400)
            .flat_map(|i| format!("{i},shared-row-{},baseline\n", i * 17).into_bytes())
            .collect();
        (0..n)
            .map(|v| {
                let mut data = base.clone();
                data.extend_from_slice(format!("{v},unique-tail-row-{v}\n").as_bytes());
                data
            })
            .collect()
    }

    #[test]
    fn estimates_match_a_real_chunk_store() {
        let versions = overlapping_versions(12);
        let pairs = chunked_cost_pairs(&versions, params()).unwrap();
        let store = MemStore::new(false);
        let cs = ChunkStore::new(&store, params()).unwrap();
        for (v, data) in versions.iter().enumerate() {
            let put = cs.put_version(data).unwrap();
            // Storage estimate = the store's actual new-chunk bytes plus
            // the manifest's reference bytes.
            let manifest = MANIFEST_BASE_BYTES + put.chunks as u64 * MANIFEST_ENTRY_BYTES;
            assert_eq!(
                pairs[v].storage,
                put.new_chunk_bytes + manifest,
                "version {v}"
            );
            assert_eq!(pairs[v].recreation, put.logical_bytes + manifest);
        }
    }

    #[test]
    fn later_versions_pay_only_their_increment() {
        let versions = overlapping_versions(8);
        let pairs = chunked_cost_pairs(&versions, params()).unwrap();
        // The first version pays for the whole base; every later one far
        // less (it shares almost all chunks).
        for (v, p) in pairs.iter().enumerate().skip(1) {
            assert!(
                p.storage * 4 < pairs[0].storage,
                "version {v}: {} vs base {}",
                p.storage,
                pairs[0].storage
            );
        }
    }

    #[test]
    fn recreation_is_flat_in_history() {
        let versions = overlapping_versions(10);
        let pairs = chunked_cost_pairs(&versions, params()).unwrap();
        for (v, p) in pairs.iter().enumerate() {
            let len = versions[v].len() as u64;
            assert!(p.recreation >= len);
            assert!(p.recreation < len + len / 4 + 2 * MANIFEST_BASE_BYTES);
        }
    }

    #[test]
    fn bad_params_rejected() {
        assert!(matches!(
            chunked_cost_pairs(
                &[],
                ChunkerParams {
                    min_size: 4,
                    avg_size: 256,
                    max_size: 1024
                }
            ),
            Err(ChunkError::BadParams(_))
        ));
    }
}
