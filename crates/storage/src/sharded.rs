//! Sharded object stores: N independent inner stores, batches written
//! concurrently.
//!
//! [`ShardedStore<S>`] splits the object-id space into `N` shards by id
//! prefix ([`shard_index`]) and routes every operation to the owning
//! shard — each shard is an independent inner [`ObjectStore`] behind its
//! own synchronization (a `MemStore` shard has its own lock, a
//! `FileStore` shard its own directory), so shards never contend with
//! each other. The batch surface is where this pays: `put_batch`
//! partitions a batch by shard and writes all shards **concurrently** on
//! the `dsv_par` runtime (likewise `get_batch` /
//! `remove_batch`), turning the packers' one-big-batch writes into
//! parallel per-shard IO.
//!
//! # Shard invariants
//!
//! - Shard selection is a pure function of the `ObjectId` ([`shard_index`]),
//!   so the same id always lands in the same shard and lookups never
//!   search more than one shard.
//! - The shard *count* is a layout property, not a semantic one: a store
//!   holds exactly the same objects (same ids, same `total_bytes`) at
//!   every shard count and every thread count — only their physical
//!   placement differs. `dsv-vcs` meta v3 records the count so a
//!   persisted sharded layout reopens with the same routing.
//! - Batch results come back in input order regardless of how the batch
//!   was partitioned; an error from any shard fails the whole batch
//!   (already-written objects stay, per the batch contract in
//!   [`crate::store`]).

use crate::hash::ObjectId;
use crate::object::{Object, StoreError};
use crate::store::{Counters, ObjectStore, ShardStats, StoreStats};
use dsv_obs as obs;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Largest supported shard count: [`shard_index`] routes on the id's
/// leading 16 bits, so any shard beyond 2^16 could never receive an
/// object. Constructors reject larger counts.
pub const MAX_SHARDS: usize = 1 << 16;

/// The shard (among `n`) owning `id`: the id's leading 16 bits mod `n`.
/// Content addresses are uniformly distributed, so fills stay balanced
/// for any shard count up to [`MAX_SHARDS`].
pub fn shard_index(id: ObjectId, n: usize) -> usize {
    u16::from_le_bytes([id.0[0], id.0[1]]) as usize % n
}

/// A store of `N` independent shards selected by [`shard_index`]; see the
/// module docs for the invariants.
pub struct ShardedStore<S> {
    shards: Vec<S>,
    counters: Counters,
    /// Wall time each shard spent inside batch fan-out work, nanoseconds
    /// (cumulative; surfaced as [`ShardStats::batch_ns`]).
    shard_ns: Vec<AtomicU64>,
}

impl<S: ObjectStore> ShardedStore<S> {
    /// A sharded store over the given inner stores (one per shard).
    /// Panics on an empty shard list or more than [`MAX_SHARDS`] shards.
    pub fn new(shards: Vec<S>) -> Self {
        assert!(!shards.is_empty(), "a sharded store needs at least 1 shard");
        assert!(
            shards.len() <= MAX_SHARDS,
            "shard_index routes on 16 bits: {} shards > {MAX_SHARDS} leaves some unreachable",
            shards.len()
        );
        let shard_ns = shards.iter().map(|_| AtomicU64::new(0)).collect();
        ShardedStore {
            shards,
            counters: Counters::default(),
            shard_ns,
        }
    }

    /// Builds `n` shards from a constructor called with each shard index.
    pub fn build(n: usize, make: impl FnMut(usize) -> S) -> Self {
        ShardedStore::new((0..n).map(make).collect())
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The inner shards, in index order.
    pub fn shards(&self) -> &[S] {
        &self.shards
    }

    fn shard_of(&self, id: ObjectId) -> &S {
        &self.shards[shard_index(id, self.shards.len())]
    }

    /// Partitions input positions by owning shard: `groups[s]` holds the
    /// input indices routed to shard `s`, each in input order.
    fn partition(&self, ids: impl Iterator<Item = ObjectId>) -> Vec<Vec<usize>> {
        let n = self.shards.len();
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, id) in ids.enumerate() {
            groups[shard_index(id, n)].push(i);
        }
        groups
    }
}

impl ShardedStore<crate::store::FileStore> {
    /// Opens (creating if needed) a sharded on-disk layout:
    /// `dir/shard-<i>/…`, each shard a [`crate::store::FileStore`] with
    /// its own fan-out. The caller is responsible for reopening with the
    /// same `shard_count` (dsv-vcs persists it in meta v3); a different
    /// count would route lookups to the wrong shard.
    pub fn open_sharded(
        dir: &Path,
        shard_count: usize,
        compress: bool,
    ) -> Result<Self, StoreError> {
        assert!(
            (1..=MAX_SHARDS).contains(&shard_count),
            "shard count must be in 1..={MAX_SHARDS}, got {shard_count}"
        );
        let shards = (0..shard_count)
            .map(|i| crate::store::FileStore::open(&dir.join(format!("shard-{i}")), compress))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedStore::new(shards))
    }
}

/// What a fan-out returns: per non-empty shard, in shard order, the input
/// positions routed to it and that shard's answer.
type Routed<R> = Vec<(Vec<usize>, R)>;

/// Runs `per_shard` concurrently over every non-empty group on the
/// dsv-par runtime. Each shard's wall time is folded into its `timers`
/// entry.
fn on_shards<R: Send>(
    groups: Vec<Vec<usize>>,
    timers: &[AtomicU64],
    per_shard: impl Fn(usize, &[usize]) -> R + Sync,
) -> Routed<R> {
    let work: Vec<(usize, Vec<usize>)> = groups
        .into_iter()
        .enumerate()
        .filter(|(_, group)| !group.is_empty())
        .collect();
    let results = dsv_par::par_map(&work, |(s, group)| {
        let start = Instant::now();
        let result = per_shard(*s, group);
        timers[*s].fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    });
    work.into_iter()
        .zip(results)
        .map(|((_, group), result)| (group, result))
        .collect()
}

/// Puts each shard's per-element answers back at their input positions;
/// an error from any shard fails the whole batch.
fn scatter<T>(
    len: usize,
    per_shard: Routed<Result<Vec<T>, StoreError>>,
) -> Result<Vec<T>, StoreError> {
    let mut out: Vec<Option<T>> = (0..len).map(|_| None).collect();
    for (group, result) in per_shard {
        for (i, item) in group.into_iter().zip(result?) {
            out[i] = Some(item);
        }
    }
    Ok(out
        .into_iter()
        .map(|item| item.expect("every input routed"))
        .collect())
}

impl<S: ObjectStore + Sync> ShardedStore<S> {
    /// Hands every shard its share of `ids` as one inner batch call, all
    /// shards concurrently.
    fn by_shard<R: Send>(
        &self,
        ids: &[ObjectId],
        op: impl Fn(&S, &[ObjectId]) -> R + Sync,
    ) -> Routed<R> {
        let groups = self.partition(ids.iter().copied());
        on_shards(groups, &self.shard_ns, |s, group| {
            let shard_ids: Vec<ObjectId> = group.iter().map(|&i| ids[i]).collect();
            op(&self.shards[s], &shard_ids)
        })
    }
}

impl<S: ObjectStore + Sync> ObjectStore for ShardedStore<S> {
    fn put(&self, obj: &Object) -> Result<ObjectId, StoreError> {
        self.counters.count_put();
        self.shard_of(obj.id()).put(obj)
    }

    fn get(&self, id: ObjectId) -> Result<Object, StoreError> {
        self.counters.count_get();
        self.shard_of(id).get(id)
    }

    fn put_batch(&self, objs: &[Object]) -> Result<Vec<ObjectId>, StoreError> {
        self.counters.count_put_batch(objs.len());
        let _span = obs::span!("store.put_batch", objects = objs.len()).entered();
        let groups = self.partition(objs.iter().map(|o| o.id()));
        // A local shard takes its group as single inner puts rather than
        // an inner `put_batch`: the latter needs a contiguous `&[Object]`,
        // i.e. cloning every payload, and the shard's lock is uncontended
        // anyway — exactly one worker drives each shard per batch. A
        // *remote* shard pays one network round-trip per call, so there
        // the clone buys the whole group travelling as one frame.
        let per_shard = on_shards(groups, &self.shard_ns, |s, group| {
            let shard = &self.shards[s];
            if shard.remote_addrs().is_empty() {
                group
                    .iter()
                    .map(|&i| shard.put(&objs[i]))
                    .collect::<Result<Vec<ObjectId>, StoreError>>()
            } else {
                let batch: Vec<Object> = group.iter().map(|&i| objs[i].clone()).collect();
                shard.put_batch(&batch)
            }
        });
        scatter(objs.len(), per_shard)
    }

    fn get_batch(&self, ids: &[ObjectId]) -> Result<Vec<Object>, StoreError> {
        self.counters.count_get_batch(ids.len());
        let _span = obs::span!("store.get_batch", objects = ids.len()).entered();
        // Ids are Copy, so each shard gets its sub-batch as one inner
        // `get_batch` (one read-lock acquisition on a MemStore shard).
        scatter(ids.len(), self.by_shard(ids, S::get_batch))
    }

    fn contains_batch(&self, ids: &[ObjectId]) -> Result<Vec<bool>, StoreError> {
        scatter(ids.len(), self.by_shard(ids, S::contains_batch))
    }

    fn remove_batch(&self, ids: &[ObjectId]) -> Result<(), StoreError> {
        self.counters.count_removes(ids.len());
        let _span = obs::span!("store.remove_batch", objects = ids.len()).entered();
        // Every shard is asked; the first failure is the batch's.
        self.by_shard(ids, S::remove_batch)
            .into_iter()
            .try_for_each(|(_, result)| result)
    }

    fn object_ids(&self) -> Result<Vec<ObjectId>, StoreError> {
        let mut ids = Vec::new();
        for shard in &self.shards {
            ids.extend(shard.object_ids()?);
        }
        Ok(ids)
    }

    fn stats(&self) -> StoreStats {
        let shards: Vec<ShardStats> = self
            .shards
            .iter()
            .zip(&self.shard_ns)
            .map(|(s, ns)| {
                let fill = s.stats();
                ShardStats {
                    objects: fill.objects,
                    bytes: fill.bytes,
                    batch_ns: ns.load(Ordering::Relaxed),
                }
            })
            .collect();
        StoreStats {
            objects: shards.iter().map(|s| s.objects).sum(),
            bytes: shards.iter().map(|s| s.bytes).sum(),
            shards,
            ops: self.counters.snapshot(),
        }
    }

    /// The shards are opened alike; the first answers for all.
    fn compresses(&self) -> bool {
        self.shards[0].compresses()
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn remote_addrs(&self) -> Vec<String> {
        // Shard order, so meta v4 reopens with the same id routing.
        self.shards.iter().flat_map(|s| s.remote_addrs()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{FileStore, MemStore};

    fn mem_sharded(n: usize) -> ShardedStore<MemStore> {
        ShardedStore::build(n, |_| MemStore::new(false))
    }

    fn objects(n: usize) -> Vec<Object> {
        (0..n)
            .map(|i| Object::Full {
                data: format!("sharded object {i} with some payload {}", i * 37).into_bytes(),
            })
            .collect()
    }

    #[test]
    fn routes_every_op_to_the_owning_shard() {
        let store = mem_sharded(4);
        let objs = objects(64);
        let ids = store.put_batch(&objs).unwrap();
        assert_eq!(store.len(), 64);
        for (obj, &id) in objs.iter().zip(&ids) {
            assert_eq!(id, obj.id());
            assert!(store.contains(id).unwrap());
            assert_eq!(store.get(id).unwrap(), *obj);
            // The object lives in exactly the shard the prefix names.
            let owner = shard_index(id, 4);
            for (s, shard) in store.shards().iter().enumerate() {
                assert_eq!(shard.contains(id).unwrap(), s == owner);
            }
        }
        assert_eq!(store.get_batch(&ids).unwrap(), objs);
        store.remove_batch(&ids[..32]).unwrap();
        assert_eq!(store.len(), 32);
        store.clear().unwrap();
        assert!(store.is_empty());
    }

    #[test]
    fn batch_errors_surface_and_successes_stay() {
        let store = mem_sharded(4);
        let objs = objects(8);
        let ids = store.put_batch(&objs).unwrap();
        let missing = ObjectId::for_bytes(b"never stored");
        let mut probe = ids.clone();
        probe.push(missing);
        assert!(matches!(
            store.get_batch(&probe).unwrap_err(),
            StoreError::NotFound(id) if id == missing
        ));
        // Partial-failure contract: everything already written stays.
        assert_eq!(store.len(), 8);
    }

    #[test]
    fn stats_report_per_shard_fill() {
        let store = mem_sharded(4);
        let objs = objects(200);
        store.put_batch(&objs).unwrap();
        let stats = store.stats();
        assert_eq!(stats.objects, 200);
        assert_eq!(stats.shards.len(), 4);
        assert_eq!(stats.shards.iter().map(|s| s.objects).sum::<usize>(), 200);
        assert_eq!(stats.bytes, store.total_bytes());
        // Content addresses are uniform: with 200 objects over 4 shards
        // no shard should be pathologically over-full.
        assert!(stats.shard_imbalance() < 2.0, "{}", stats.shard_imbalance());
        assert_eq!(stats.ops.batch_puts, 1);
        assert_eq!(stats.ops.batch_put_objects, 200);
    }

    #[test]
    fn single_shard_matches_plain_store() {
        let sharded = mem_sharded(1);
        let plain = MemStore::new(false);
        let objs = objects(30);
        assert_eq!(
            sharded.put_batch(&objs).unwrap(),
            plain.put_batch(&objs).unwrap()
        );
        assert_eq!(sharded.total_bytes(), plain.total_bytes());
        assert_eq!(sharded.len(), plain.len());
    }

    #[test]
    fn sharded_file_store_layout_and_reopen() {
        let dir = std::env::temp_dir().join(format!("dsv-sharded-fs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let objs = objects(40);
        let ids = {
            let store = ShardedStore::open_sharded(&dir, 4, true).unwrap();
            store.put_batch(&objs).unwrap()
        };
        for i in 0..4 {
            assert!(dir.join(format!("shard-{i}")).is_dir(), "shard dir {i}");
        }
        let store = ShardedStore::open_sharded(&dir, 4, true).unwrap();
        assert_eq!(store.len(), 40);
        assert_eq!(store.get_batch(&ids).unwrap(), objs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_file_store_equals_flat_file_store() {
        let base = std::env::temp_dir().join(format!("dsv-sharded-eq-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let objs = objects(60);
        let flat = FileStore::open(&base.join("flat"), true).unwrap();
        let sharded = ShardedStore::open_sharded(&base.join("sharded"), 8, true).unwrap();
        assert_eq!(
            flat.put_batch(&objs).unwrap(),
            sharded.put_batch(&objs).unwrap()
        );
        assert_eq!(flat.total_bytes(), sharded.total_bytes());
        assert_eq!(flat.len(), sharded.len());
        std::fs::remove_dir_all(&base).unwrap();
    }
}
