//! Boundary instrumentation for any [`ObjectStore`].
//!
//! [`InstrumentedStore`] wraps a store and counts every operation exactly
//! once, *at the trait boundary*, fixing a double-counting hazard in
//! naive wrappers: a store that overrides only the single ops serves
//! `put_batch` through the default single-op loop, so its own counters
//! record each batched element as a single `put`. A wrapper that counted
//! the batch call *and then summed* the inner store's counters would
//! report those elements twice. `InstrumentedStore` therefore counts on
//! the way in and **replaces** the inner store's `ops` in
//! [`ObjectStore::stats`] — fill and per-shard data still come from the
//! inner store.
//!
//! The wrapper also emits spans ([`dsv_obs::span!`]) around the batch
//! surface and per-object metrics counters, so any store — including
//! third-party impls that track nothing — becomes observable by wrapping.

use crate::hash::ObjectId;
use crate::object::{Object, StoreError};
use crate::store::{Counters, ObjectStore, StoreStats};
use dsv_obs as obs;

/// Counts and traces every [`ObjectStore`] operation at the trait
/// boundary; see the module docs for the accounting contract.
pub struct InstrumentedStore<S> {
    inner: S,
    counters: Counters,
}

impl<S: ObjectStore> InstrumentedStore<S> {
    /// Wrap `inner`; boundary counters start at zero.
    pub fn new(inner: S) -> Self {
        InstrumentedStore {
            inner,
            counters: Counters::default(),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwrap, discarding the boundary counters.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: ObjectStore> ObjectStore for InstrumentedStore<S> {
    fn put(&self, obj: &Object) -> Result<ObjectId, StoreError> {
        self.counters.count_put();
        obs::counter!("store.put_objects", 1);
        self.inner.put(obj)
    }

    fn get(&self, id: ObjectId) -> Result<Object, StoreError> {
        self.counters.count_get();
        obs::counter!("store.get_objects", 1);
        self.inner.get(id)
    }

    fn contains(&self, id: ObjectId) -> bool {
        self.inner.contains(id)
    }

    fn total_bytes(&self) -> u64 {
        self.inner.total_bytes()
    }

    fn compresses(&self) -> bool {
        self.inner.compresses()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn remove(&self, id: ObjectId) {
        self.counters.count_removes(1);
        obs::counter!("store.removed_objects", 1);
        self.inner.remove(id)
    }

    fn clear(&self) {
        self.inner.clear()
    }

    // The whole batch surface forwards to the inner store's batch surface
    // and counts once here: even if the inner store serves these through
    // its default single-op loops (and counts them as singles
    // internally), `stats` below replaces — never sums — its ops, so
    // each element is reported exactly once.

    fn put_batch(&self, objs: &[Object]) -> Result<Vec<ObjectId>, StoreError> {
        self.counters.count_put_batch(objs.len());
        obs::counter!("store.put_objects", objs.len() as u64);
        obs::span!("store.put_batch", objects = objs.len()).in_scope(|| self.inner.put_batch(objs))
    }

    fn get_batch(&self, ids: &[ObjectId]) -> Result<Vec<Object>, StoreError> {
        self.counters.count_get_batch(ids.len());
        obs::counter!("store.get_objects", ids.len() as u64);
        obs::span!("store.get_batch", objects = ids.len()).in_scope(|| self.inner.get_batch(ids))
    }

    fn contains_batch(&self, ids: &[ObjectId]) -> Vec<bool> {
        self.inner.contains_batch(ids)
    }

    fn remove_batch(&self, ids: &[ObjectId]) {
        self.counters.count_removes(ids.len());
        obs::counter!("store.removed_objects", ids.len() as u64);
        obs::span!("store.remove_batch", objects = ids.len())
            .in_scope(|| self.inner.remove_batch(ids))
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn remote_addrs(&self) -> Vec<String> {
        self.inner.remote_addrs()
    }

    fn object_ids(&self) -> Vec<ObjectId> {
        self.inner.object_ids()
    }

    fn stats(&self) -> StoreStats {
        let mut stats = self.inner.stats();
        // Replace, don't sum: the inner store may have counted the same
        // operations itself (possibly as singles, via the default batch
        // impls). The boundary view is the deduplicated truth.
        stats.ops = self.counters.snapshot();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{MemStore, OpCounters};

    /// A store overriding only the single ops: every batch call is
    /// served by the trait's default single-op loops, and the inner
    /// MemStore counts those as single ops internally.
    struct Minimal(MemStore);

    impl ObjectStore for Minimal {
        fn put(&self, obj: &Object) -> Result<ObjectId, StoreError> {
            self.0.put(obj)
        }
        fn get(&self, id: ObjectId) -> Result<Object, StoreError> {
            self.0.get(id)
        }
        fn contains(&self, id: ObjectId) -> bool {
            self.0.contains(id)
        }
        fn total_bytes(&self) -> u64 {
            self.0.total_bytes()
        }
        fn compresses(&self) -> bool {
            self.0.compresses()
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn remove(&self, id: ObjectId) {
            self.0.remove(id)
        }
        fn clear(&self) {
            self.0.clear()
        }
    }

    fn objs(n: usize) -> Vec<Object> {
        (0..n)
            .map(|i| Object::Full {
                data: format!("payload {i}").into_bytes(),
            })
            .collect()
    }

    #[test]
    fn boundary_counters_do_not_double_count_batches_over_single_op_stores() {
        let store = InstrumentedStore::new(Minimal(MemStore::new(false)));
        let batch = objs(5);
        let ids = store.put_batch(&batch).unwrap();
        store
            .put(&Object::Full {
                data: b"single".to_vec(),
            })
            .unwrap();
        let got = store.get_batch(&ids).unwrap();
        assert_eq!(got.len(), 5);
        store.get(ids[0]).unwrap();
        store.remove_batch(&ids[..2]);

        let ops = store.stats().ops;
        // Exactly one batch put of 5 and one single put — not 6 single
        // puts (the inner MemStore counted 6 singles; the boundary view
        // replaces that).
        assert_eq!(
            ops,
            OpCounters {
                puts: 1,
                gets: 1,
                batch_puts: 1,
                batch_put_objects: 5,
                batch_gets: 1,
                batch_get_objects: 5,
                removes: 2,
            }
        );
        // Totals: each object moved exactly once per surface crossing.
        assert_eq!(ops.put_objects(), 6);
        assert_eq!(ops.get_objects(), 6);
        // The naive sum view would have double-counted: the inner store
        // recorded the same 6 writes again as singles.
        let inner_ops = store.inner().0.stats().ops;
        assert_eq!(inner_ops.put_objects(), 6);
        assert_eq!(inner_ops.puts, 6);
        assert_eq!(inner_ops.batch_puts, 0);
    }

    #[test]
    fn fill_comes_from_the_inner_store() {
        let store = InstrumentedStore::new(MemStore::new(false));
        store.put_batch(&objs(3)).unwrap();
        let stats = store.stats();
        assert_eq!(stats.objects, 3);
        assert_eq!(stats.bytes, store.inner().total_bytes());
        assert_eq!(stats.ops.batch_put_objects, 3);
        // The inner MemStore overrides put_batch, so its own counters
        // agree with the boundary — replacement is then a no-op.
        assert_eq!(store.inner().stats().ops, stats.ops);
    }
}
