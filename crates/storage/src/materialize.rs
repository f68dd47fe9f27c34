//! Recreation: materializing a version from its delta chain or manifest.
//!
//! Walking `Delta` objects back to a `Full` object and replaying them is
//! exactly the recreation process whose cost the paper's `Φ` models. A
//! `Chunked` manifest terminates a walk the same way a `Full` object does:
//! its chunks are fetched and concatenated (each chunk is one store read,
//! so recreation cost stays proportional to the version's own size rather
//! than to a chain's length). The materializer reports the bytes it had to
//! fetch and produce, so measured costs can be compared against the
//! matrix-predicted ones.
//!
//! Repeated checkouts are served through an optional, shared
//! [`CheckoutCache`] — bounded and scored by the paper's workload-aware
//! objective (see [`crate::cache`] for the policy). Two cache behaviors
//! make chain-heavy plans cheap:
//!
//! - **Chain-prefix memoization:** the downward walk stops at the deepest
//!   cached ancestor, so two checkouts sharing a chain prefix pay for the
//!   shared prefix once; every intermediate version replayed on the way
//!   back up is offered to the cache under the same byte budget.
//! - **Chunk sharing:** chunk payloads are cached individually, so
//!   versions that share chunks skip each other's fetches.
//!
//! Because the cache is `Arc`-shared, one cache can serve many
//! materializers (and a whole `Repository`) across calls and threads.

use crate::cache::CheckoutCache;
use crate::hash::ObjectId;
use crate::object::{Object, StoreError};
use crate::store::ObjectStore;
use dsv_delta::bytes_delta::{self, DeltaError};
use dsv_obs as obs;
use std::sync::Arc;

/// Defensive bound on delta-chain length (cycles cannot occur with
/// content addressing, but corrupt stores could still loop).
const MAX_CHAIN: usize = 100_000;

/// Measured work for one materialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecreationWork {
    /// Number of objects fetched.
    pub objects_fetched: usize,
    /// Bytes of delta/full payloads read.
    pub bytes_read: u64,
    /// Bytes of version content produced (including intermediates).
    pub bytes_written: u64,
    /// Cache lookups that returned bytes (chain nodes and chunks).
    pub cache_hits: usize,
    /// Estimated bytes of reads the cache hits avoided.
    pub bytes_saved: u64,
}

impl RecreationWork {
    /// Accumulates another measurement into this one.
    pub fn add(&mut self, other: RecreationWork) {
        self.objects_fetched += other.objects_fetched;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.cache_hits += other.cache_hits;
        self.bytes_saved += other.bytes_saved;
    }
}

/// Materializes versions from an [`ObjectStore`], optionally serving and
/// feeding a shared [`CheckoutCache`].
pub struct Materializer<'a, S: ObjectStore + ?Sized> {
    store: &'a S,
    cache: Option<Arc<CheckoutCache>>,
}

impl<'a, S: ObjectStore + ?Sized> Materializer<'a, S> {
    /// A materializer with no cache (every checkout replays its chain).
    pub fn new(store: &'a S) -> Self {
        Materializer { store, cache: None }
    }

    /// A materializer serving from (and feeding) `cache`. The cache is
    /// shared: clones of the `Arc` can back other materializers or a
    /// whole repository concurrently.
    pub fn with_checkout_cache(store: &'a S, cache: Arc<CheckoutCache>) -> Self {
        Materializer {
            store,
            cache: Some(cache),
        }
    }

    /// Reconstructs the version stored under `id`.
    pub fn materialize(&self, id: ObjectId) -> Result<Arc<Vec<u8>>, StoreError> {
        Ok(self.materialize_measured(id)?.0)
    }

    /// Reconstructs the version and reports the work performed (cache hits
    /// cost nothing and are tallied in `cache_hits` / `bytes_saved`).
    pub fn materialize_measured(
        &self,
        id: ObjectId,
    ) -> Result<(Arc<Vec<u8>>, RecreationWork), StoreError> {
        let _span = obs::span!("materialize").entered();
        let mut work = RecreationWork::default();
        // Walk the chain down to a Full object, a chunk manifest, or the
        // deepest cached ancestor (chain-prefix memoization).
        let mut chain: Vec<(ObjectId, Vec<u8>)> = Vec::new(); // (id, delta bytes)
        let mut cur = id;
        // `cost` tracks the estimated cold-store read bytes to recreate
        // the current `base` — the recreation-cost score fed to the cache.
        let (mut base, mut cost): (Arc<Vec<u8>>, u64) = loop {
            if chain.len() > MAX_CHAIN {
                return Err(StoreError::ChainTooLong);
            }
            if let Some(cache) = &self.cache {
                if let Some((hit, saved)) = cache.get(cur) {
                    work.cache_hits += 1;
                    work.bytes_saved += saved;
                    break (hit, saved);
                }
            }
            match self.store.get(cur)? {
                Object::Full { data } => {
                    work.objects_fetched += 1;
                    work.bytes_read += data.len() as u64;
                    let cost = data.len() as u64;
                    let arc = Arc::new(data);
                    if let Some(cache) = &self.cache {
                        cache.offer(cur, &arc, cost);
                    }
                    break (arc, cost);
                }
                Object::Delta { base, delta } => {
                    work.objects_fetched += 1;
                    work.bytes_read += delta.len() as u64;
                    chain.push((cur, delta));
                    cur = base;
                }
                Object::Chunked { chunks } => {
                    work.objects_fetched += 1;
                    work.bytes_read += (chunks.len() * 16) as u64;
                    let data = self.assemble(&chunks, &mut work)?;
                    // Cold recreation reads the manifest plus every chunk.
                    let cost = (chunks.len() * 16) as u64 + data.len() as u64;
                    let arc = Arc::new(data);
                    if let Some(cache) = &self.cache {
                        cache.offer(cur, &arc, cost);
                    }
                    break (arc, cost);
                }
            }
        };
        // Replay deltas top-down; every intermediate version is a cache
        // candidate carrying its cumulative recreation cost.
        for (obj_id, delta) in chain.into_iter().rev() {
            let next = bytes_delta::apply_encoded(&base, &delta).map_err(|e| match e {
                DeltaError::Malformed => StoreError::Corrupt("undecodable delta"),
                DeltaError::CopyOutOfRange => {
                    StoreError::Corrupt("delta does not apply to its base")
                }
            })?;
            work.bytes_written += next.len() as u64;
            cost += delta.len() as u64;
            base = Arc::new(next);
            if let Some(cache) = &self.cache {
                cache.offer(obj_id, &base, cost);
            }
        }
        obs::counter!("materialize.calls", 1);
        obs::counter!("materialize.objects_fetched", work.objects_fetched as u64);
        obs::counter!("materialize.bytes_read", work.bytes_read);
        Ok((base, work))
    }

    /// Reassembles a chunk manifest: fetches each chunk (a `Full` object
    /// holding the chunk bytes) and concatenates them in manifest order.
    /// Chunk payloads are individually cacheable, so shared chunks are
    /// fetched once across versions.
    fn assemble(
        &self,
        chunks: &[ObjectId],
        work: &mut RecreationWork,
    ) -> Result<Vec<u8>, StoreError> {
        let mut out = Vec::new();
        for &cid in chunks {
            if let Some(cache) = &self.cache {
                if let Some((hit, saved)) = cache.get(cid) {
                    work.cache_hits += 1;
                    work.bytes_saved += saved;
                    out.extend_from_slice(&hit);
                    continue;
                }
            }
            match self.store.get(cid)? {
                Object::Full { data } => {
                    work.objects_fetched += 1;
                    work.bytes_read += data.len() as u64;
                    let cost = data.len() as u64;
                    let arc = Arc::new(data);
                    out.extend_from_slice(&arc);
                    if let Some(cache) = &self.cache {
                        cache.offer(cid, &arc, cost);
                    }
                }
                // Chunks are always stored whole: a manifest pointing at a
                // delta or another manifest indicates store corruption.
                _ => return Err(StoreError::Corrupt("manifest chunk is not a full object")),
            }
        }
        work.bytes_written += out.len() as u64;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    /// Stores v0 fully and v1..=k as a delta chain; returns ids and the
    /// expected contents.
    fn chain_fixture(store: &MemStore, k: usize) -> (Vec<ObjectId>, Vec<Vec<u8>>) {
        let mut contents = vec![b"base version 0\n".repeat(50)];
        for i in 1..=k {
            let mut next = contents[i - 1].clone();
            next.extend_from_slice(format!("appended line {i}\n").as_bytes());
            contents.push(next);
        }
        let mut ids = Vec::new();
        let full_id = store
            .put(&Object::Full {
                data: contents[0].clone(),
            })
            .unwrap();
        ids.push(full_id);
        for i in 1..=k {
            let ops = bytes_delta::diff(&contents[i - 1], &contents[i]);
            let obj = Object::Delta {
                base: ids[i - 1],
                delta: bytes_delta::encode(&ops),
            };
            ids.push(store.put(&obj).unwrap());
        }
        (ids, contents)
    }

    fn cached<S: ObjectStore + ?Sized>(store: &S, budget: u64) -> Materializer<'_, S> {
        Materializer::with_checkout_cache(store, Arc::new(CheckoutCache::new(budget)))
    }

    #[test]
    fn materializes_full_object() {
        let store = MemStore::new(false);
        let (ids, contents) = chain_fixture(&store, 0);
        let m = Materializer::new(&store);
        assert_eq!(*m.materialize(ids[0]).unwrap(), contents[0]);
    }

    #[test]
    fn materializes_deep_chain() {
        let store = MemStore::new(false);
        let (ids, contents) = chain_fixture(&store, 20);
        let m = Materializer::new(&store);
        for (id, expected) in ids.iter().zip(&contents) {
            assert_eq!(&*m.materialize(*id).unwrap(), expected);
        }
    }

    #[test]
    fn work_accounting_scales_with_depth() {
        let store = MemStore::new(false);
        let (ids, _) = chain_fixture(&store, 10);
        let m = Materializer::new(&store);
        let (_, w0) = m.materialize_measured(ids[0]).unwrap();
        let (_, w10) = m.materialize_measured(ids[10]).unwrap();
        assert_eq!(w0.objects_fetched, 1);
        assert_eq!(w10.objects_fetched, 11);
        assert!(w10.bytes_written > 0);
        assert_eq!(w10.cache_hits, 0);
        assert_eq!(w10.bytes_saved, 0);
    }

    #[test]
    fn cache_eliminates_repeat_work() {
        let store = MemStore::new(false);
        let (ids, _) = chain_fixture(&store, 10);
        let m = cached(&store, 1 << 20);
        let (_, first) = m.materialize_measured(ids[10]).unwrap();
        assert_eq!(first.objects_fetched, 11);
        let (_, second) = m.materialize_measured(ids[10]).unwrap();
        assert_eq!(second.objects_fetched, 0, "fully cached");
        assert_eq!(second.cache_hits, 1);
        assert!(second.bytes_saved >= first.bytes_read);
        // A sibling sharing the prefix only fetches its own delta.
        let (_, w9) = m.materialize_measured(ids[9]).unwrap();
        assert_eq!(w9.objects_fetched, 0, "prefix was cached during replay");
    }

    #[test]
    fn walk_stops_at_deepest_cached_ancestor() {
        let store = MemStore::new(false);
        let (ids, _) = chain_fixture(&store, 10);
        let m = cached(&store, 1 << 20);
        // Warm the prefix 0..=6 only.
        let (_, warm) = m.materialize_measured(ids[6]).unwrap();
        assert_eq!(warm.objects_fetched, 7);
        // A deeper checkout reads only its 4 unshared deltas.
        let (_, deep) = m.materialize_measured(ids[10]).unwrap();
        assert_eq!(deep.objects_fetched, 4, "prefix served from cache");
        assert_eq!(deep.cache_hits, 1, "one hit at the deepest ancestor");
        assert!(deep.bytes_saved >= warm.bytes_read);
        assert!(deep.bytes_read < warm.bytes_read + 4 * 64);
    }

    #[test]
    fn zero_budget_cache_is_equivalent_to_uncached() {
        let store = MemStore::new(false);
        let (ids, contents) = chain_fixture(&store, 8);
        let uncached = Materializer::new(&store);
        let zero = cached(&store, 0);
        for (id, expected) in ids.iter().zip(&contents) {
            let (a, wa) = uncached.materialize_measured(*id).unwrap();
            let (b, wb) = zero.materialize_measured(*id).unwrap();
            assert_eq!(*a, *expected);
            assert_eq!(*a, *b);
            assert_eq!(wa, wb, "zero budget must not change measured work");
        }
    }

    #[test]
    fn missing_base_is_reported() {
        let store = MemStore::new(false);
        let dangling = Object::Delta {
            base: ObjectId::for_bytes(b"never stored"),
            delta: bytes_delta::encode(&bytes_delta::diff(b"a", b"b")),
        };
        let id = store.put(&dangling).unwrap();
        let m = Materializer::new(&store);
        assert!(matches!(
            m.materialize(id).unwrap_err(),
            StoreError::NotFound(_)
        ));
    }

    /// Stores `data` as chunk objects of `piece` bytes plus a manifest.
    fn store_chunked(store: &MemStore, data: &[u8], piece: usize) -> ObjectId {
        let chunks: Vec<ObjectId> = data
            .chunks(piece)
            .map(|c| store.put(&Object::Full { data: c.to_vec() }).unwrap())
            .collect();
        store.put(&Object::Chunked { chunks }).unwrap()
    }

    #[test]
    fn materializes_chunk_manifest() {
        let store = MemStore::new(false);
        let data = b"0123456789abcdef0123456789abcdef-tail".to_vec();
        let id = store_chunked(&store, &data, 8);
        let m = Materializer::new(&store);
        let (out, work) = m.materialize_measured(id).unwrap();
        assert_eq!(*out, data);
        // Manifest + 5 chunks fetched; reassembly wrote the version once.
        assert_eq!(work.objects_fetched, 1 + 5);
        assert_eq!(work.bytes_written, data.len() as u64);
        assert!(work.bytes_read >= data.len() as u64);
    }

    #[test]
    fn shared_chunks_hit_the_cache_across_versions() {
        let store = MemStore::new(false);
        let base = b"shared-block-one|shared-block-two|".repeat(4);
        let mut edited = base.clone();
        edited.extend_from_slice(b"unique-suffix");
        let id_a = store_chunked(&store, &base, 17);
        let id_b = store_chunked(&store, &edited, 17);
        let m = cached(&store, 1 << 20);
        let (_, first) = m.materialize_measured(id_a).unwrap();
        let (out, second) = m.materialize_measured(id_b).unwrap();
        assert_eq!(*out, edited);
        // Version b shares every aligned chunk with a: only its manifest
        // and its unique tail chunks are fetched.
        assert!(second.objects_fetched < first.objects_fetched);
        assert!(second.cache_hits > 0);
        assert!(second.bytes_saved > 0);
    }

    #[test]
    fn delta_on_top_of_manifest_replays() {
        let store = MemStore::new(false);
        let base = b"line a\nline b\nline c\n".repeat(30);
        let base_id = store_chunked(&store, &base, 64);
        let mut next = base.clone();
        next.extend_from_slice(b"line d appended\n");
        let ops = bytes_delta::diff(&base, &next);
        let delta_id = store
            .put(&Object::Delta {
                base: base_id,
                delta: bytes_delta::encode(&ops),
            })
            .unwrap();
        let m = Materializer::new(&store);
        assert_eq!(*m.materialize(delta_id).unwrap(), next);
    }

    #[test]
    fn manifest_with_missing_chunk_is_reported() {
        let store = MemStore::new(false);
        let id = store
            .put(&Object::Chunked {
                chunks: vec![ObjectId::for_bytes(b"never stored")],
            })
            .unwrap();
        let m = Materializer::new(&store);
        assert!(matches!(
            m.materialize(id).unwrap_err(),
            StoreError::NotFound(_)
        ));
    }

    #[test]
    fn manifest_chunk_must_be_full() {
        let store = MemStore::new(false);
        let full = store
            .put(&Object::Full {
                data: b"base".to_vec(),
            })
            .unwrap();
        let nested = store
            .put(&Object::Delta {
                base: full,
                delta: vec![1, 2, 3],
            })
            .unwrap();
        let id = store
            .put(&Object::Chunked {
                chunks: vec![nested],
            })
            .unwrap();
        let m = Materializer::new(&store);
        assert!(matches!(
            m.materialize(id).unwrap_err(),
            StoreError::Corrupt(_)
        ));
    }

    #[test]
    fn corrupt_delta_is_reported() {
        let store = MemStore::new(false);
        let base_id = store
            .put(&Object::Full {
                data: b"base".to_vec(),
            })
            .unwrap();
        let past_the_base = bytes_delta::encode(&[bytes_delta::DeltaOp::Copy {
            offset: 2,
            len: 100,
        }]);
        for (delta, what) in [
            (vec![0xff, 0xff, 0xff], "undecodable delta"),
            (past_the_base, "delta does not apply to its base"),
        ] {
            let bad = Object::Delta {
                base: base_id,
                delta,
            };
            let id = store.put(&bad).unwrap();
            let m = Materializer::new(&store);
            assert_eq!(m.materialize(id).unwrap_err(), StoreError::Corrupt(what));
        }
    }
}
