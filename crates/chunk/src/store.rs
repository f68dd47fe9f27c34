//! Deduplicating version storage over any [`ObjectStore`].
//!
//! Each version is split by the content-defined chunker, every chunk is
//! stored once as a content-addressed `Object::Full` (the store's
//! idempotent `put` is the dedup mechanism), and the version itself
//! becomes an `Object::Chunked` manifest — an ordered recipe of chunk
//! ids. Checkout is manifest reassembly via
//! [`dsv_storage::Materializer`], so the chunked regime plugs into the
//! same measured-recreation machinery as the paper's Full and Delta
//! plans.

use crate::cdc::{Chunker, ChunkerParams};
use crate::ChunkError;
use dsv_storage::{
    Materializer, Object, ObjectId, ObjectStore, PackedVersions, RecreationWork, StoreError,
};
use std::collections::HashSet;
use std::ops::Range;

/// What storing one version did (per-version dedup accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutVersion {
    /// Id of the stored manifest (checkout handle).
    pub id: ObjectId,
    /// Number of chunks in the manifest.
    pub chunks: usize,
    /// Chunks that were not already in the store.
    pub new_chunks: usize,
    /// Raw size of the version.
    pub logical_bytes: u64,
    /// Raw bytes of the newly stored chunks (0 for a fully duplicate
    /// version).
    pub new_chunk_bytes: u64,
}

/// Cumulative dedup statistics across many [`ChunkStore::put_version`]
/// calls — the chunked counterpart of what `dsv_storage::repack` reports
/// for Full/Delta plans (pair it with `ObjectStore::total_bytes()` for
/// the physical footprint).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// Versions stored.
    pub versions: usize,
    /// Total raw bytes across those versions.
    pub logical_bytes: u64,
    /// Total chunk references across all manifests.
    pub total_chunks: usize,
    /// Distinct chunks actually stored.
    pub new_chunks: usize,
    /// Raw bytes of those distinct chunks.
    pub new_chunk_bytes: u64,
}

impl DedupStats {
    /// Folds one version's accounting into the totals.
    pub fn record(&mut self, put: &PutVersion) {
        self.versions += 1;
        self.logical_bytes += put.logical_bytes;
        self.total_chunks += put.chunks;
        self.new_chunks += put.new_chunks;
        self.new_chunk_bytes += put.new_chunk_bytes;
    }

    /// Logical bytes per stored chunk byte (higher = more dedup; 1.0
    /// means no chunk was ever reused).
    pub fn dedup_ratio(&self) -> f64 {
        if self.new_chunk_bytes == 0 {
            return if self.logical_bytes == 0 {
                1.0
            } else {
                f64::INFINITY
            };
        }
        self.logical_bytes as f64 / self.new_chunk_bytes as f64
    }

    /// Fraction of chunk references that hit an already-stored chunk.
    pub fn chunk_hit_rate(&self) -> f64 {
        if self.total_chunks == 0 {
            return 0.0;
        }
        (self.total_chunks - self.new_chunks) as f64 / self.total_chunks as f64
    }
}

/// A deduplicating chunk store view over an [`ObjectStore`].
///
/// The view is stateless (all state lives in the underlying store), so it
/// is cheap to construct per operation and works over `MemStore` and
/// `FileStore` alike.
pub struct ChunkStore<'a, S: ObjectStore + ?Sized> {
    store: &'a S,
    params: ChunkerParams,
}

impl<'a, S: ObjectStore + ?Sized> ChunkStore<'a, S> {
    /// A chunk store over `store`; validates `params`.
    pub fn new(store: &'a S, params: ChunkerParams) -> Result<Self, ChunkError> {
        params.validate()?;
        Ok(ChunkStore { store, params })
    }

    /// The chunking parameters in force.
    pub fn params(&self) -> ChunkerParams {
        self.params
    }

    /// Chunks `data`, stores new chunks and the manifest, and reports
    /// what was deduplicated. Idempotent: re-putting a version stores
    /// nothing new and returns the same id.
    pub fn put_version(&self, data: &[u8]) -> Result<PutVersion, ChunkError> {
        self.put_version_prechunked(data, &prechunk(data, self.params))
    }

    /// Like [`ChunkStore::put_version`], but over chunk boundaries and
    /// content ids already computed by [`prechunk`] — the split the
    /// hybrid packer uses to chunk and hash versions in parallel.
    /// `chunks` must be `prechunk(data, self.params())`; anything else
    /// corrupts the manifest. The store sees two batch ops: one
    /// `contains_batch` probe over the chunk ids and one `put_batch` of
    /// the new chunks plus the manifest.
    pub fn put_version_prechunked(
        &self,
        data: &[u8],
        chunks: &[(Range<usize>, ObjectId)],
    ) -> Result<PutVersion, ChunkError> {
        let batch = plan_chunked_batch(self.store, &[(data, chunks)])?;
        self.store.put_batch(&batch.objects)?;
        Ok(batch.puts.into_iter().next().expect("one version planned"))
    }

    /// Reassembles a version from its manifest id, reporting the measured
    /// recreation work.
    pub fn get_version(&self, id: ObjectId) -> Result<(Vec<u8>, RecreationWork), ChunkError> {
        let m = Materializer::new(self.store);
        let (data, work) = m.materialize_measured(id)?;
        Ok((data.as_ref().clone(), work))
    }

    /// The chunk recipe of a stored version. Errors with
    /// [`ChunkError::NotAManifest`] when `id` names a Full or Delta
    /// object.
    pub fn manifest(&self, id: ObjectId) -> Result<Vec<ObjectId>, ChunkError> {
        match self.store.get(id)? {
            Object::Chunked { chunks } => Ok(chunks),
            _ => Err(ChunkError::NotAManifest(id)),
        }
    }
}

/// A version's raw bytes paired with its [`prechunk`] output — the unit
/// [`plan_chunked_batch`] consumes.
pub(crate) type PrechunkedVersion<'a> = (&'a [u8], &'a [(Range<usize>, ObjectId)]);

/// The store writes planned for a sequence of prechunked versions:
/// everything [`plan_chunked_batch`] decided to insert, plus the
/// per-version accounting.
pub(crate) struct ChunkedBatch {
    /// New chunk objects and one manifest per version, in insertion
    /// order — feed to [`ObjectStore::put_batch`].
    pub objects: Vec<Object>,
    /// Per input version, in input order (`id` is the manifest id).
    pub puts: Vec<PutVersion>,
}

/// Simulates inserting `versions` (raw data + its [`prechunk`] output) in
/// order against the store's current contents, **without writing**: one
/// `contains_batch` probe resolves which chunks already exist, and a
/// local set accounts chunks contributed by earlier versions of the same
/// batch. Writing the returned objects through one `put_batch` leaves the
/// store — and the dedup accounting — exactly as sequential per-version
/// inserts would, while letting a sharded store write everything
/// concurrently. A probe the store could not answer fails the plan: read
/// as "absent" it would re-store every chunk. The planned objects hold
/// copies of the *new* chunk payloads only, so the buffer is bounded by
/// the deduplicated (not the logical) size of the batch.
pub(crate) fn plan_chunked_batch<S: ObjectStore + ?Sized>(
    store: &S,
    versions: &[PrechunkedVersion<'_>],
) -> Result<ChunkedBatch, StoreError> {
    // One membership probe over the distinct chunk ids of the whole batch.
    let mut distinct: Vec<ObjectId> = Vec::new();
    let mut seen: HashSet<ObjectId> = HashSet::new();
    for (_, chunks) in versions {
        for (_, id) in chunks.iter() {
            if seen.insert(*id) {
                distinct.push(*id);
            }
        }
    }
    let present = store.contains_batch(&distinct)?;
    // `have` = chunks the store holds now ∪ chunks this batch has already
    // planned — the same visibility a sequential insert loop would see.
    let mut have: HashSet<ObjectId> = distinct
        .iter()
        .zip(&present)
        .filter(|(_, &p)| p)
        .map(|(id, _)| *id)
        .collect();

    let mut objects = Vec::new();
    let mut puts = Vec::with_capacity(versions.len());
    for (data, chunks) in versions {
        let mut chunk_ids = Vec::with_capacity(chunks.len());
        let mut new_chunks = 0usize;
        let mut new_chunk_bytes = 0u64;
        for (span, id) in chunks.iter() {
            if have.insert(*id) {
                new_chunks += 1;
                new_chunk_bytes += span.len() as u64;
                objects.push(Object::Full {
                    data: data[span.clone()].to_vec(),
                });
            }
            chunk_ids.push(*id);
        }
        let manifest = Object::Chunked { chunks: chunk_ids };
        puts.push(PutVersion {
            id: manifest.id(),
            chunks: chunks.len(),
            new_chunks,
            logical_bytes: data.len() as u64,
            new_chunk_bytes,
        });
        objects.push(manifest);
    }
    Ok(ChunkedBatch { objects, puts })
}

/// The content-defined chunk spans of `data`, each paired with its
/// content id — the pure (store-free) half of
/// [`ChunkStore::put_version`], split out so callers can chunk and hash
/// many versions in parallel and feed
/// `plan_chunked_batch` / [`ChunkStore::put_version_prechunked`].
pub fn prechunk(data: &[u8], params: ChunkerParams) -> Vec<(std::ops::Range<usize>, ObjectId)> {
    let mut out = Vec::new();
    let mut start = 0usize;
    for chunk in Chunker::new(data, params) {
        out.push((start..start + chunk.len(), Object::full_id(chunk)));
        start += chunk.len();
    }
    out
}

/// Packs `contents` into `store` as deduplicated chunk manifests — the
/// chunked counterpart of [`dsv_storage::pack_versions`], returning the
/// same [`PackedVersions`] handle (so checkout and measured-recreation
/// reporting are shared with the Full/Delta regimes) plus the dedup
/// statistics.
///
/// The returned plan has every version "materialized" (`parents` all
/// `None`): chunked versions depend on shared chunks, not on each other,
/// which is exactly why their recreation cost stays flat as history
/// grows.
///
/// This is [`pack_versions_hybrid`](crate::pack_versions_hybrid) with
/// every version chunked: chunking and hashing run in parallel on the
/// `dsv_par` runtime; the store then sees one `contains_batch` probe and
/// bounded `put_batch` flushes of every new chunk and manifest, with
/// dedup accounted in version order (identical to sequential per-version
/// inserts at every thread count).
pub fn pack_versions_chunked<S: ObjectStore + ?Sized>(
    store: &S,
    contents: &[Vec<u8>],
    params: ChunkerParams,
) -> Result<(PackedVersions, DedupStats), ChunkError> {
    let modes = vec![dsv_core::StorageMode::Chunked; contents.len()];
    crate::pack_versions_hybrid(store, contents, &modes, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_storage::MemStore;

    fn params() -> ChunkerParams {
        ChunkerParams::new(64, 256, 1024).unwrap()
    }

    /// Versions sharing a large common prefix with per-version tails.
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
    fn put_get_roundtrip() {
        let store = MemStore::new(false);
        let cs = ChunkStore::new(&store, params()).unwrap();
        let data = overlapping_versions(1).remove(0);
        let put = cs.put_version(&data).unwrap();
        assert_eq!(put.logical_bytes, data.len() as u64);
        assert_eq!(put.new_chunks, put.chunks, "first version is all-new");
        let (out, work) = cs.get_version(put.id).unwrap();
        assert_eq!(out, data);
        assert_eq!(work.objects_fetched, 1 + put.chunks);
    }

    #[test]
    fn duplicate_version_stores_nothing_new() {
        let store = MemStore::new(false);
        let cs = ChunkStore::new(&store, params()).unwrap();
        let data = overlapping_versions(1).remove(0);
        let first = cs.put_version(&data).unwrap();
        let objects_after_first = store.len();
        let second = cs.put_version(&data).unwrap();
        assert_eq!(first.id, second.id);
        assert_eq!(second.new_chunks, 0);
        assert_eq!(second.new_chunk_bytes, 0);
        assert_eq!(store.len(), objects_after_first);
    }

    #[test]
    fn overlapping_versions_dedup_heavily() {
        let store = MemStore::new(false);
        let cs = ChunkStore::new(&store, params()).unwrap();
        let versions = overlapping_versions(20);
        let mut stats = DedupStats::default();
        for v in &versions {
            stats.record(&cs.put_version(v).unwrap());
        }
        assert_eq!(stats.versions, 20);
        assert!(
            stats.dedup_ratio() > 5.0,
            "dedup ratio {} too low",
            stats.dedup_ratio()
        );
        assert!(stats.chunk_hit_rate() > 0.8, "{}", stats.chunk_hit_rate());
        // Physical store far below materializing everything.
        let logical: u64 = versions.iter().map(|v| v.len() as u64).sum();
        assert!(store.total_bytes() < logical / 4);
        // And every version still checks out byte-exact.
        for (v, data) in versions.iter().enumerate() {
            let put = cs.put_version(data).unwrap(); // idempotent re-put
            let (out, _) = cs.get_version(put.id).unwrap();
            assert_eq!(&out, data, "version {v}");
        }
    }

    #[test]
    fn manifest_accessor_checks_kind() {
        let store = MemStore::new(false);
        let cs = ChunkStore::new(&store, params()).unwrap();
        let put = cs.put_version(b"0123456789".repeat(40).as_slice()).unwrap();
        let recipe = cs.manifest(put.id).unwrap();
        assert_eq!(recipe.len(), put.chunks);
        let full = store
            .put(&Object::Full {
                data: b"not a manifest".to_vec(),
            })
            .unwrap();
        assert!(matches!(
            cs.manifest(full),
            Err(ChunkError::NotAManifest(_))
        ));
    }

    #[test]
    fn pack_versions_chunked_matches_packed_interface() {
        let store = MemStore::new(false);
        let versions = overlapping_versions(8);
        let (packed, stats) = pack_versions_chunked(&store, &versions, params()).unwrap();
        assert_eq!(packed.ids.len(), 8);
        assert!(packed.parents.iter().all(|p| p.is_none()));
        assert_eq!(stats.versions, 8);
        let m = Materializer::new(&store);
        for (v, data) in versions.iter().enumerate() {
            let (out, work) = packed.checkout(&m, v as u32).unwrap();
            assert_eq!(&out, data);
            // Chunked recreation reads ~the version itself, independent of
            // how many versions precede it (no chains).
            assert!(work.bytes_read < 2 * data.len() as u64);
        }
    }

    #[test]
    fn empty_version_is_storable() {
        let store = MemStore::new(false);
        let cs = ChunkStore::new(&store, params()).unwrap();
        let put = cs.put_version(b"").unwrap();
        assert_eq!(put.chunks, 0);
        let (out, _) = cs.get_version(put.id).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn stats_handle_degenerate_cases() {
        let empty = DedupStats::default();
        assert_eq!(empty.dedup_ratio(), 1.0);
        assert_eq!(empty.chunk_hit_rate(), 0.0);
    }
}
