//! Packing version contents according to a storage plan.
//!
//! A *plan* is a parent assignment from the optimizer (`None` =
//! materialize, `Some(j)` = delta from version `j`). `pack_versions`
//! realizes the plan against real bytes — computing byte deltas, storing
//! objects — and reports the **measured** physical footprint, which is
//! what the paper's §5.2 compares across schemes. A matrix priced with
//! [`stored_len`](crate::object::stored_len) predicts it to the byte.

use crate::hash::ObjectId;
use crate::materialize::{Materializer, RecreationWork};
use crate::object::{Object, StoreError};
use crate::store::ObjectStore;
use dsv_delta::bytes_delta::{self, Reader, Versions};
use dsv_obs as obs;

/// Payload bytes a [`BatchWriter`] buffers before flushing (32 MiB).
///
/// Deliberately half of the wire layer's default frame cap (`dsv-net`'s
/// `DEFAULT_MAX_FRAME`, 64 MiB): when the store behind the writer is a
/// remote shard, a flush becomes one `StorePut` frame per shard, and a
/// flush bound at or above the frame cap would make *every* full flush
/// overflow the frame budget and split. Half leaves headroom for the
/// encoding overhead (tags, base ids, varints) on top of raw payload
/// bytes. A remote store still splits oversized batches itself — this
/// bound just keeps the common path at one frame per flush.
pub const PACK_FLUSH_BYTES: u64 = 32 << 20;

/// Streams a packer's objects into a store through bounded `put_batch`
/// flushes: objects buffer until roughly [`PACK_FLUSH_BYTES`] of payload,
/// then one batch is dispatched and the buffer dropped. Peak memory above
/// the raw contents stays O(flush bound) instead of O(whole encoded
/// plan), while batch dispatch (one lock acquisition per MemStore flush,
/// concurrent per-shard writes on a sharded store) stays amortized.
/// Content addressing makes the split safe: no object's bytes depend on
/// another object having been stored first.
pub struct BatchWriter<'a, S: ObjectStore + ?Sized> {
    store: &'a S,
    batch: Vec<Object>,
    buffered: u64,
    flush_bytes: u64,
}

impl<'a, S: ObjectStore + ?Sized> BatchWriter<'a, S> {
    /// A writer flushing at the default [`PACK_FLUSH_BYTES`] bound.
    pub fn new(store: &'a S) -> Self {
        BatchWriter::with_flush_bytes(store, PACK_FLUSH_BYTES)
    }

    /// A writer with an explicit flush bound (tests use tiny bounds to
    /// exercise multi-flush behavior).
    pub fn with_flush_bytes(store: &'a S, flush_bytes: u64) -> Self {
        BatchWriter {
            store,
            batch: Vec::new(),
            buffered: 0,
            flush_bytes,
        }
    }

    fn payload_bytes(obj: &Object) -> u64 {
        match obj {
            Object::Full { data } => data.len() as u64,
            Object::Delta { delta, .. } => delta.len() as u64,
            Object::Chunked { chunks } => 16 * chunks.len() as u64,
        }
    }

    /// Buffers `obj`, flushing the batch when the bound is reached.
    pub fn push(&mut self, obj: Object) -> Result<(), StoreError> {
        self.buffered += Self::payload_bytes(&obj);
        self.batch.push(obj);
        if self.buffered >= self.flush_bytes {
            self.flush()?;
        }
        Ok(())
    }

    /// Buffers every object of `objs` (see [`BatchWriter::push`]).
    pub fn extend(&mut self, objs: impl IntoIterator<Item = Object>) -> Result<(), StoreError> {
        for obj in objs {
            self.push(obj)?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        if !self.batch.is_empty() {
            let span = obs::span!("flush", objects = self.batch.len());
            obs::counter!("pack.flush.count", 1);
            obs::counter!("pack.flush.objects", self.batch.len() as u64);
            obs::counter!("pack.flush.bytes", self.buffered);
            span.in_scope(|| self.store.put_batch(&self.batch))?;
            self.batch.clear();
        }
        self.buffered = 0;
        Ok(())
    }

    /// Flushes whatever remains. Dropping a writer without calling this
    /// loses the unflushed tail.
    pub fn finish(mut self) -> Result<(), StoreError> {
        self.flush()
    }
}

/// Options for packing.
#[derive(Debug, Clone, Copy, Default)]
pub struct PackOptions {
    /// Currently none; placeholder for future knobs (kept so call sites
    /// stay stable).
    _reserved: (),
}

/// The result of packing: one object id per version.
#[derive(Debug, Clone)]
pub struct PackedVersions {
    /// `ids[v]` = object holding version `v`.
    pub ids: Vec<ObjectId>,
    /// The plan that was packed.
    pub parents: Vec<Option<u32>>,
}

impl PackedVersions {
    /// Checks out version `v` through the given materializer.
    pub fn checkout<S: ObjectStore + ?Sized>(
        &self,
        m: &Materializer<'_, S>,
        v: u32,
    ) -> Result<(Vec<u8>, RecreationWork), StoreError> {
        let (data, work) = m.materialize_measured(self.ids[v as usize])?;
        Ok((data.as_ref().clone(), work))
    }
}

/// Orders versions parents-before-children under a parent assignment
/// (`None` = root). Returns [`StoreError::ChainTooLong`] when the
/// assignment contains a cycle.
fn dependency_order(plan: &[Option<u32>]) -> Result<Vec<u32>, StoreError> {
    let n = plan.len();
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut state = vec![0u8; n]; // 0 = unvisited, 1 = on stack, 2 = done
    for start in 0..n as u32 {
        if state[start as usize] == 2 {
            continue;
        }
        // Walk up to the root, then unwind.
        let mut path = Vec::new();
        let mut cur = start;
        loop {
            match state[cur as usize] {
                2 => break,
                1 => return Err(StoreError::ChainTooLong), // cycle
                _ => {}
            }
            state[cur as usize] = 1;
            path.push(cur);
            match plan[cur as usize] {
                None => break,
                Some(p) => cur = p,
            }
        }
        for &v in path.iter().rev() {
            state[v as usize] = 2;
            order.push(v);
        }
    }
    Ok(order)
}

/// Packs `contents` into `store` following `plan`: [`pack_from`] over
/// versions held in memory.
pub fn pack_versions<S: ObjectStore + ?Sized>(
    store: &S,
    contents: &[Vec<u8>],
    plan: &[Option<u32>],
    _opts: PackOptions,
) -> Result<PackedVersions, StoreError> {
    assert_eq!(contents.len(), plan.len(), "one plan entry per version");
    pack_from(store, contents, plan)
}

/// Packs version `v` of `versions`, for every `v` in `plan`, into `store`
/// following `plan`. The objects are the same bytes whatever the source
/// of the versions.
///
/// The plan must be a valid forest over the versions (every delta chain
/// ends at a materialized version); [`StoreError::ChainTooLong`] is
/// returned otherwise.
pub fn pack_from<S: ObjectStore + ?Sized, V: Versions + ?Sized>(
    store: &S,
    versions: &V,
    plan: &[Option<u32>],
) -> Result<PackedVersions, StoreError> {
    let _pack = obs::span!("pack", versions = plan.len(), packer = "binary").entered();
    let unresolved = vec![None; plan.len()];
    pack_resolved(store, versions, plan, unresolved, Vec::new())
}

/// The pack loop behind every packer: `plan`'s deltas and full objects,
/// around the versions the caller has resolved already. `ids[v]` is
/// `Some` for a root whose object the caller built itself — the hybrid
/// packer's chunk manifests — and `queued` holds those objects (and the
/// chunks they name), written ahead of the rest; deltas may chain off
/// them like off any other root.
pub(crate) fn pack_resolved<S: ObjectStore + ?Sized, V: Versions + ?Sized>(
    store: &S,
    versions: &V,
    plan: &[Option<u32>],
    mut ids: Vec<Option<ObjectId>>,
    queued: Vec<Object>,
) -> Result<PackedVersions, StoreError> {
    let n = plan.len();
    let order = dependency_order(plan)?;

    // Delta payloads depend only on the raw contents (not on stored
    // objects), so encode them all in parallel on the dsv-par runtime —
    // one source index per parent, shared by its children; the objects
    // are then assembled in dependency order and batch-written below,
    // producing byte-identical stores at every thread count.
    let edges: Vec<(u32, u32)> = (0..n as u32)
        .filter_map(|v| plan[v as usize].map(|p| (p, v)))
        .collect();
    let encoded = obs::span!("encode", deltas = edges.len())
        .in_scope(|| bytes_delta::encode_pairs_from(versions, &edges));
    let mut deltas: Vec<Option<Vec<u8>>> = vec![None; n];
    for (&(_, v), enc) in edges.iter().zip(encoded) {
        deltas[v as usize] = Some(enc);
    }

    // Object ids are content addresses, so the whole plan's objects can
    // be constructed — delta children resolving their parent's id from
    // the object just built, no store round-trip — and streamed through
    // the writer's bounded `put_batch` flushes. A root's object takes the
    // version's bytes as its source hands them out.
    let _write = obs::span!("write").entered();
    let mut reader = versions.reader();
    let mut writer = BatchWriter::new(store);
    writer.extend(queued)?;
    for v in order {
        if ids[v as usize].is_some() {
            continue;
        }
        let obj = match plan[v as usize] {
            None => Object::Full {
                data: reader.source(v).into(),
            },
            Some(p) => {
                let base_id = ids[p as usize].expect("parents packed first");
                Object::Delta {
                    base: base_id,
                    delta: deltas[v as usize].take().expect("encoded above"),
                }
            }
        };
        ids[v as usize] = Some(obj.id());
        writer.push(obj)?;
    }
    writer.finish()?;

    Ok(PackedVersions {
        ids: ids.into_iter().map(|i| i.expect("all packed")).collect(),
        parents: plan.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn contents(n: usize) -> Vec<Vec<u8>> {
        let mut out = vec![b"line one\nline two\nline three\n".repeat(40)];
        for i in 1..n {
            let mut next = out[i - 1].clone();
            next.extend_from_slice(format!("version {i} extra\n").as_bytes());
            out.push(next);
        }
        out
    }

    #[test]
    fn pack_and_checkout_roundtrip() {
        let store = MemStore::new(false);
        let cs = contents(6);
        // Chain plan: 0 full, others delta off previous.
        let plan: Vec<Option<u32>> = (0..6u32).map(|i| i.checked_sub(1)).collect();
        let packed = pack_versions(&store, &cs, &plan, PackOptions::default()).unwrap();
        let m = Materializer::new(&store);
        for v in 0..6u32 {
            let (data, _) = packed.checkout(&m, v).unwrap();
            assert_eq!(data, cs[v as usize]);
        }
    }

    #[test]
    fn delta_plan_is_smaller_than_full_plan() {
        let full_store = MemStore::new(false);
        let delta_store = MemStore::new(false);
        let cs = contents(10);
        let all_full: Vec<Option<u32>> = vec![None; 10];
        let chain: Vec<Option<u32>> = (0..10).map(|i: u32| i.checked_sub(1)).collect();
        pack_versions(&full_store, &cs, &all_full, PackOptions::default()).unwrap();
        pack_versions(&delta_store, &cs, &chain, PackOptions::default()).unwrap();
        assert!(delta_store.total_bytes() < full_store.total_bytes() / 4);
    }

    #[test]
    fn branching_plan_packs_in_dependency_order() {
        let store = MemStore::new(false);
        let cs = contents(5);
        // Star: everything deltas off version 4 which is materialized —
        // children appear before the parent in index order.
        let plan = vec![Some(4u32), Some(4), Some(4), Some(4), None];
        let packed = pack_versions(&store, &cs, &plan, PackOptions::default()).unwrap();
        let m = Materializer::new(&store);
        for v in 0..5u32 {
            assert_eq!(packed.checkout(&m, v).unwrap().0, cs[v as usize]);
        }
    }

    #[test]
    fn cyclic_plan_is_rejected() {
        let store = MemStore::new(false);
        let cs = contents(3);
        let plan = vec![Some(1u32), Some(0), None];
        assert!(matches!(
            pack_versions(&store, &cs, &plan, PackOptions::default()),
            Err(StoreError::ChainTooLong)
        ));
    }

    #[test]
    fn checkout_work_reflects_chain_depth() {
        let store = MemStore::new(false);
        let cs = contents(8);
        let chain: Vec<Option<u32>> = (0..8).map(|i: u32| i.checked_sub(1)).collect();
        let packed = pack_versions(&store, &cs, &chain, PackOptions::default()).unwrap();
        let m = Materializer::new(&store);
        let (_, shallow) = packed.checkout(&m, 0).unwrap();
        let (_, deep) = packed.checkout(&m, 7).unwrap();
        assert!(deep.objects_fetched > shallow.objects_fetched);
        assert_eq!(deep.objects_fetched, 8);
    }

    #[test]
    fn batch_writer_flush_bound_does_not_change_the_store() {
        let objs: Vec<Object> = (0..40u8)
            .map(|i| Object::Full {
                data: vec![i; 100 + i as usize],
            })
            .collect();
        let one_flush = MemStore::new(false);
        one_flush.put_batch(&objs).unwrap();
        // A bound far below the corpus forces many flushes; the store
        // must end up identical, just with more batch dispatches.
        let bounded = MemStore::new(false);
        let mut writer = super::BatchWriter::with_flush_bytes(&bounded, 300);
        writer.extend(objs.iter().cloned()).unwrap();
        writer.finish().unwrap();
        assert_eq!(bounded.len(), one_flush.len());
        assert_eq!(bounded.total_bytes(), one_flush.total_bytes());
        let stats = bounded.stats();
        assert!(stats.ops.batch_puts > 1, "tiny bound must flush repeatedly");
        assert_eq!(stats.ops.batch_put_objects, objs.len() as u64);
    }

    #[test]
    fn identical_versions_deduplicate() {
        let store = MemStore::new(false);
        let same = b"identical content".to_vec();
        let cs = vec![same.clone(), same.clone()];
        let plan = vec![None, None];
        let packed = pack_versions(&store, &cs, &plan, PackOptions::default()).unwrap();
        assert_eq!(packed.ids[0], packed.ids[1]);
        assert_eq!(store.len(), 1, "content addressing dedupes");
    }
}
