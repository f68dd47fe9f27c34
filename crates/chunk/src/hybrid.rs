//! Executing hybrid storage plans: Full / Delta / Chunked per version.
//!
//! [`pack_versions_hybrid`] is the three-mode counterpart of
//! [`dsv_storage::pack_versions`]: it realizes a solver-chosen
//! [`StorageMode`] assignment against real bytes — materialized versions
//! become `Object::Full`, delta versions become `Object::Delta` chains,
//! and chunked versions are split by the content-defined chunker into
//! deduplicated `Object::Chunked` manifests. Delta versions may chain off
//! chunked (or materialized) parents; the [`dsv_storage::Materializer`]
//! resolves either transparently at checkout.

use crate::store::{plan_chunked_batch, prechunk, DedupStats, PrechunkedVersion};
use crate::{ChunkError, ChunkerParams};
use dsv_core::StorageMode;
use dsv_delta::bytes_delta;
use dsv_obs as obs;
use dsv_storage::{dependency_order, Object, ObjectId, ObjectStore, PackedVersions};
use std::ops::Range;

/// Per-version payload computed in the parallel phase of
/// [`pack_versions_hybrid`]: everything that depends only on the raw
/// contents, leaving the assembly phase store-free and the store itself
/// a stream of bounded `put_batch` flushes.
enum Prepared {
    /// Materialized versions need no precomputation.
    Full,
    /// Chunk spans + content ids ([`prechunk`]) for a chunked version.
    Chunks(Vec<(Range<usize>, ObjectId)>),
    /// The encoded byte delta against the parent's contents.
    Delta(Vec<u8>),
}

/// Packs `contents` into `store` following the per-version `modes`.
///
/// Chunked versions are stored in index order (matching how
/// [`crate::estimate::chunked_cost_pairs`] accounts increments); delta
/// versions are stored parents-first. The delta assignment must be a
/// valid forest (every chain ends at a materialized or chunked version);
/// [`StoreError::ChainTooLong`] is reported otherwise. Returns the packed
/// handle plus the dedup statistics of the chunked subset.
pub fn pack_versions_hybrid<S: ObjectStore + ?Sized>(
    store: &S,
    contents: &[Vec<u8>],
    modes: &[StorageMode],
    params: ChunkerParams,
) -> Result<(PackedVersions, DedupStats), ChunkError> {
    assert_eq!(contents.len(), modes.len(), "one mode entry per version");
    params.validate()?;
    let n = contents.len();
    let _pack = obs::span!("pack", versions = n, packer = "hybrid").entered();

    // Dependency order: delta parents before children; root modes
    // (materialized and chunked) are forest roots.
    let delta_parents: Vec<Option<u32>> = modes.iter().map(|m| m.delta_parent()).collect();
    let order = dependency_order(&delta_parents)?;

    // Parallel phase: everything derivable from raw contents alone —
    // chunk boundaries + content hashes for chunked versions, encoded
    // byte deltas for delta versions (one source index per parent, shared
    // by its children) — on the dsv-par runtime.
    let chunked: Vec<u32> = (0..n as u32)
        .filter(|&v| modes[v as usize].is_chunked())
        .collect();
    let edges: Vec<(u32, u32)> = (0..n as u32)
        .filter_map(|v| delta_parents[v as usize].map(|p| (p, v)))
        .collect();
    let prepare_span = obs::span!("prepare");
    let (chunks, deltas) = prepare_span.in_scope(|| {
        (
            dsv_par::par_map(&chunked, |&v| prechunk(&contents[v as usize], params)),
            bytes_delta::encode_pairs(contents, &edges),
        )
    });
    drop(prepare_span);
    let mut prepared: Vec<Prepared> = (0..n).map(|_| Prepared::Full).collect();
    for (&v, spans) in chunked.iter().zip(chunks) {
        prepared[v as usize] = Prepared::Chunks(spans);
    }
    for (&(_, v), delta) in edges.iter().zip(deltas) {
        prepared[v as usize] = Prepared::Delta(delta);
    }

    // Assembly phase, store-free: chunked versions first, in index order,
    // so dedup increments match the estimator's accounting; then fulls
    // and deltas in dependency order, each delta resolving its parent's
    // content address from the object just assembled (a chunked parent's
    // manifest id is known by then). Object ids are content addresses, so
    // nothing needs to be written to name anything.
    let mut chunked_versions: Vec<usize> = Vec::new();
    let mut chunked_inputs: Vec<PrechunkedVersion<'_>> = Vec::new();
    for v in 0..n {
        if let Prepared::Chunks(chunks) = &prepared[v] {
            chunked_versions.push(v);
            chunked_inputs.push((contents[v].as_slice(), chunks.as_slice()));
        }
    }
    let plan_span = obs::span!("plan_chunks", chunked = chunked_inputs.len());
    let chunk_batch = plan_span.in_scope(|| plan_chunked_batch(store, &chunked_inputs))?;
    drop(plan_span);
    let mut stats = DedupStats::default();
    let mut ids: Vec<Option<ObjectId>> = vec![None; n];
    for (&v, put) in chunked_versions.iter().zip(&chunk_batch.puts) {
        stats.record(put);
        ids[v] = Some(put.id);
    }
    // Write phase: the whole mixed plan — chunks, manifests, fulls,
    // deltas — streamed through bounded `put_batch` flushes (concurrent
    // per-shard writes on a sharded store, peak buffering capped by the
    // BatchWriter). The store state is identical to the old sequential
    // write loops at every shard and thread count.
    let _write = obs::span!("write").entered();
    let mut writer = dsv_storage::BatchWriter::new(store);
    writer.extend(chunk_batch.objects)?;
    for v in order {
        let obj = match std::mem::replace(&mut prepared[v as usize], Prepared::Full) {
            Prepared::Chunks(_) => continue, // planned above
            Prepared::Full => Object::Full {
                data: contents[v as usize].clone(),
            },
            Prepared::Delta(delta) => {
                let base_id = ids[modes[v as usize].delta_parent().expect("delta mode") as usize]
                    .expect("parents packed first");
                Object::Delta {
                    base: base_id,
                    delta,
                }
            }
        };
        ids[v as usize] = Some(obj.id());
        writer.push(obj)?;
    }
    writer.finish()?;

    Ok((
        PackedVersions {
            ids: ids.into_iter().map(|i| i.expect("all packed")).collect(),
            parents: delta_parents,
        },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_storage::{Materializer, MemStore, StoreError};

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
            dsv_storage::pack_versions(&store_b, &cs, &plan, dsv_storage::PackOptions::default())
                .unwrap();
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
            Err(ChunkError::Store(StoreError::ChainTooLong))
        ));
    }
}
