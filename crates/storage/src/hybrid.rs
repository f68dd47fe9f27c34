//! Executing hybrid storage plans: Full / Delta / Chunked per version.
//!
//! [`pack_versions_hybrid`] is the three-mode counterpart of
//! [`pack_versions`](crate::pack_versions): it realizes a solver-chosen
//! [`StorageMode`] assignment against real bytes — materialized versions
//! become `Object::Full`, delta versions become `Object::Delta` chains,
//! and chunked versions are split by the content-defined chunker into
//! deduplicated `Object::Chunked` manifests. Delta versions may chain off
//! chunked (or materialized) parents; the [`Materializer`](crate::Materializer)
//! resolves either transparently at checkout.

use crate::repack::pack_resolved;
use crate::store::{plan_chunked_batch, prechunk, DedupStats, PrechunkedVersion};
use crate::{ObjectId, ObjectStore, PackedVersions, StoreError};
use dsv_core::{ChunkerParams, StorageMode};
use dsv_obs as obs;

/// Packs `contents` into `store` following the per-version `modes`.
///
/// Chunked versions are stored in index order (matching how
/// [`crate::estimate::chunked_cost_pairs`] accounts increments); delta
/// versions are stored parents-first. The delta assignment must be a
/// valid forest (every chain ends at a materialized or chunked version);
/// [`StoreError::ChainTooLong`] is
/// reported otherwise. Returns the packed handle plus the dedup
/// statistics of the chunked subset.
pub fn pack_versions_hybrid<S: ObjectStore + ?Sized>(
    store: &S,
    contents: &[Vec<u8>],
    modes: &[StorageMode],
    params: ChunkerParams,
) -> Result<(PackedVersions, DedupStats), StoreError> {
    assert_eq!(contents.len(), modes.len(), "one mode entry per version");
    let n = contents.len();
    let _pack = obs::span!("pack", versions = n, packer = "hybrid").entered();

    // Chunk boundaries + content hashes of the chunked versions depend on
    // raw contents alone: computed in parallel on the dsv-par runtime.
    let chunked: Vec<usize> = (0..n).filter(|&v| modes[v].is_chunked()).collect();
    let prepare_span = obs::span!("prepare");
    let chunks =
        prepare_span.in_scope(|| dsv_par::par_map(&chunked, |&v| prechunk(&contents[v], params)));
    drop(prepare_span);

    // Chunked versions are planned first, in index order, so dedup
    // increments match the estimator's accounting. Planning is store-free
    // apart from one membership probe: object ids are content addresses,
    // so nothing needs to be written to name a manifest.
    let inputs: Vec<PrechunkedVersion<'_>> = chunked
        .iter()
        .zip(&chunks)
        .map(|(&v, spans)| (contents[v].as_slice(), spans.as_slice()))
        .collect();
    let plan_span = obs::span!("plan_chunks", chunked = inputs.len());
    let batch = plan_span.in_scope(|| plan_chunked_batch(store, &inputs))?;
    drop(plan_span);
    let mut stats = DedupStats::default();
    let mut ids: Vec<Option<ObjectId>> = vec![None; n];
    for (&v, put) in chunked.iter().zip(&batch.puts) {
        stats.record(put);
        ids[v] = Some(put.id);
    }

    // The binary packer's loop does the rest — fulls, and deltas chained
    // off materialized or chunked roots alike — behind the chunk batch,
    // in one stream of bounded `put_batch` flushes.
    let delta_parents: Vec<Option<u32>> = modes.iter().map(|m| m.delta_parent()).collect();
    let packed = pack_resolved(store, contents, &delta_parents, ids, batch.objects)?;
    Ok((packed, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Materializer, MemStore};

    fn params() -> ChunkerParams {
        ChunkerParams::new(64, 256, 1024).unwrap()
    }

    /// A chain of overlapping versions (appends off a shared base).
    fn contents(n: usize) -> Vec<Vec<u8>> {
        let mut out = vec![b"line one\nline two\nline three\n".repeat(60)];
        for i in 1..n {
            let mut next = out[i - 1].clone();
            next.extend_from_slice(format!("version {i} extra payload row\n").as_bytes());
            out.push(next);
        }
        out
    }

    #[test]
    fn mixed_plan_roundtrips_byte_exact() {
        let store = MemStore::new(false);
        let cs = contents(6);
        // v0 chunked; v1, v2 deltas off it; v3 materialized; v4 delta off
        // v3; v5 chunked.
        let modes = vec![
            StorageMode::Chunked,
            StorageMode::Delta(0),
            StorageMode::Delta(1),
            StorageMode::Materialized,
            StorageMode::Delta(3),
            StorageMode::Chunked,
        ];
        let (packed, stats) = pack_versions_hybrid(&store, &cs, &modes, params()).unwrap();
        assert_eq!(stats.versions, 2);
        let m = Materializer::new(&store);
        for v in 0..6u32 {
            let (data, _) = packed.checkout(&m, v).unwrap();
            assert_eq!(data, cs[v as usize], "v{v}");
        }
        // The delta chain off the chunked root really is a delta.
        let (_, work) = packed.checkout(&m, 1).unwrap();
        assert!(work.objects_fetched > 2, "chunk manifest + chunks + delta");
    }

    #[test]
    fn all_chunked_matches_pack_versions_chunked() {
        let store_a = MemStore::new(false);
        let store_b = MemStore::new(false);
        let cs = contents(5);
        let modes = vec![StorageMode::Chunked; 5];
        let (packed_a, stats_a) = pack_versions_hybrid(&store_a, &cs, &modes, params()).unwrap();
        let (packed_b, stats_b) =
            crate::store::pack_versions_chunked(&store_b, &cs, params()).unwrap();
        assert_eq!(packed_a.ids, packed_b.ids);
        assert_eq!(stats_a, stats_b);
        assert_eq!(store_a.total_bytes(), store_b.total_bytes());
    }

    #[test]
    fn all_binary_matches_pack_versions() {
        let store_a = MemStore::new(false);
        let store_b = MemStore::new(false);
        let cs = contents(5);
        let plan: Vec<Option<u32>> = (0..5u32).map(|i| i.checked_sub(1)).collect();
        let modes: Vec<StorageMode> = plan.iter().map(|&p| StorageMode::from(p)).collect();
        let (packed_a, stats) = pack_versions_hybrid(&store_a, &cs, &modes, params()).unwrap();
        let packed_b =
            crate::pack_versions(&store_b, &cs, &plan, crate::PackOptions::default()).unwrap();
        assert_eq!(packed_a.ids, packed_b.ids);
        assert_eq!(stats, DedupStats::default());
        assert_eq!(store_a.total_bytes(), store_b.total_bytes());
    }

    #[test]
    fn cyclic_delta_plan_rejected() {
        let store = MemStore::new(false);
        let cs = contents(3);
        let modes = vec![
            StorageMode::Delta(1),
            StorageMode::Delta(0),
            StorageMode::Chunked,
        ];
        assert!(matches!(
            pack_versions_hybrid(&store, &cs, &modes, params()),
            Err(StoreError::ChainTooLong)
        ));
    }
}
