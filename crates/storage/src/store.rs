//! Object stores: in-memory and on-disk.
//!
//! Both implementations persist the *encoded* object form, so
//! `total_bytes` reports the real (possibly compressed) storage footprint
//! — the quantity §5.2 of the paper compares across SVN/Git/MCA.
//!
//! # The contract
//!
//! [`ObjectStore`] is nine required methods and six provided ones. Every
//! implementor and every wrapper writes the nine; the six are written
//! once, here, and nobody overrides them.
//!
//! | method | | may fail | decisions may rest on it |
//! |---|---|---|---|
//! | `put`, `get` | required | yes | yes |
//! | `put_batch`, `get_batch` | required | yes | yes |
//! | `contains_batch`, `remove_batch`, `object_ids` | required | yes | yes |
//! | `compresses` | required | no (a property of the store) | yes |
//! | `stats` | required | no — **best-effort, reporting only** | no |
//! | `contains`, `remove` | provided, over the batch forms | yes | yes |
//! | `clear` | provided, `remove_batch(&object_ids()?)` | yes | yes |
//! | `len`, `is_empty`, `total_bytes` | provided, one `stats()` call | no — reporting only | no |
//!
//! A store answers or fails: a membership probe, a removal or an
//! enumeration that could not be carried out is an `Err`, never `false`,
//! `()` or an empty list — fsck decides what is an orphan and GC what is
//! gone from these answers. `stats` (and the three methods derived from
//! it) is the one exception: it feeds reports and gauges, a store that
//! cannot count reports what it could see, and no branch may be taken on
//! it.
//!
//! What every implementation keeps across the single and batch forms:
//!
//! - **Equivalence**: a batch op leaves the store in exactly the state the
//!   same ops applied one at a time would — same objects, same
//!   `total_bytes` — and returns results in input order. Batches are an
//!   throughput optimization (one lock acquisition, one IO dispatch,
//!   cross-shard concurrency), never a semantic change.
//! - **Idempotence**: re-putting an object (single or batched, including
//!   duplicates *within* one batch) stores nothing new; removing an id
//!   the store does not hold is not an error.
//! - **No partial-failure cleanup**: if a batch op fails mid-way, what was
//!   already written stays written and what was already removed stays
//!   removed (objects are content-addressed, so retrying the batch
//!   converges). Callers that need crash-safety order their batches so
//!   new objects land before stale ones are removed — see the repack GC
//!   note on [`ObjectStore::clear`].
//!
//! [`StoreStats`] snapshots a store's fill (objects, bytes, per-shard
//! counts for [`crate::sharded::ShardedStore`]) and its single-vs-batch
//! operation counters ([`Counters`]), so callers can see whether the hot
//! paths really go through the batch surface (`dsv store` prints this).

use crate::fault;
use crate::hash::ObjectId;
use crate::object::{Object, StoreError};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Point-in-time fill of one shard of a sharded store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Objects held by the shard.
    pub objects: usize,
    /// Encoded bytes held by the shard.
    pub bytes: u64,
    /// Cumulative wall time this shard spent inside batch fan-out work
    /// (nanoseconds since the store was opened; in-memory only).
    pub batch_ns: u64,
}

/// Single-vs-batch operation counters (cumulative since the store was
/// opened; in-memory only, not persisted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Single-object `put` calls.
    pub puts: u64,
    /// Single-object `get` calls.
    pub gets: u64,
    /// `put_batch` calls.
    pub batch_puts: u64,
    /// Objects moved through `put_batch`.
    pub batch_put_objects: u64,
    /// `get_batch` calls.
    pub batch_gets: u64,
    /// Objects moved through `get_batch`.
    pub batch_get_objects: u64,
    /// Objects removed (single `remove` plus `remove_batch` contents).
    pub removes: u64,
}

impl OpCounters {
    /// Objects written through any surface: single `put` calls plus
    /// `put_batch` contents. Each stored object is counted exactly once
    /// — batch calls count their elements under `batch_put_objects`
    /// only, never additionally as singles (see the accounting contract
    /// on [`ObjectStore`]).
    pub fn put_objects(&self) -> u64 {
        self.puts + self.batch_put_objects
    }

    /// Objects read through any surface: single `get` calls plus
    /// `get_batch` contents.
    pub fn get_objects(&self) -> u64 {
        self.gets + self.batch_get_objects
    }
}

/// A snapshot of a store's state returned by [`ObjectStore::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of stored objects.
    pub objects: usize,
    /// Total encoded bytes (physical footprint).
    pub bytes: u64,
    /// Per-shard fill; empty for unsharded stores (a 1-shard
    /// [`crate::sharded::ShardedStore`] reports one entry).
    pub shards: Vec<ShardStats>,
    /// Operation counters, when the implementation tracks them
    /// (default-implemented stores report zeros).
    pub ops: OpCounters,
}

impl StoreStats {
    /// Largest shard's object count divided by the mean — 1.0 is a
    /// perfectly even fill. Returns 1.0 for unsharded or empty stores.
    pub fn shard_imbalance(&self) -> f64 {
        if self.shards.is_empty() || self.objects == 0 {
            return 1.0;
        }
        let max = self.shards.iter().map(|s| s.objects).max().unwrap_or(0);
        let mean = self.objects as f64 / self.shards.len() as f64;
        max as f64 / mean.max(f64::MIN_POSITIVE)
    }
}

/// Interior-mutability operation counters behind [`OpCounters`]: the one
/// implementation every store that counts (here, [`crate::ShardedStore`],
/// `dsv-net`'s `RemoteStore`) holds and snapshots into its
/// [`StoreStats`].
#[derive(Debug, Default)]
pub struct Counters {
    puts: AtomicU64,
    gets: AtomicU64,
    batch_puts: AtomicU64,
    batch_put_objects: AtomicU64,
    batch_gets: AtomicU64,
    batch_get_objects: AtomicU64,
    removes: AtomicU64,
}

impl Counters {
    /// One single-object `put`.
    pub fn count_put(&self) {
        self.puts.fetch_add(1, Ordering::Relaxed);
    }
    /// One single-object `get`.
    pub fn count_get(&self) {
        self.gets.fetch_add(1, Ordering::Relaxed);
    }
    /// One `put_batch` of `objects` elements.
    pub fn count_put_batch(&self, objects: usize) {
        self.batch_puts.fetch_add(1, Ordering::Relaxed);
        self.batch_put_objects
            .fetch_add(objects as u64, Ordering::Relaxed);
    }
    /// One `get_batch` of `objects` elements.
    pub fn count_get_batch(&self, objects: usize) {
        self.batch_gets.fetch_add(1, Ordering::Relaxed);
        self.batch_get_objects
            .fetch_add(objects as u64, Ordering::Relaxed);
    }
    /// `objects` ids handed to `remove_batch`.
    pub fn count_removes(&self, objects: usize) {
        self.removes.fetch_add(objects as u64, Ordering::Relaxed);
    }
    /// The counters as a plain value.
    pub fn snapshot(&self) -> OpCounters {
        OpCounters {
            puts: self.puts.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            batch_puts: self.batch_puts.load(Ordering::Relaxed),
            batch_put_objects: self.batch_put_objects.load(Ordering::Relaxed),
            batch_gets: self.batch_gets.load(Ordering::Relaxed),
            batch_get_objects: self.batch_get_objects.load(Ordering::Relaxed),
            removes: self.removes.load(Ordering::Relaxed),
        }
    }
}

/// A key-value store of encoded objects (see the module docs for the
/// contract table).
pub trait ObjectStore {
    /// Persists `obj`; returns its id. Idempotent.
    fn put(&self, obj: &Object) -> Result<ObjectId, StoreError>;
    /// Fetches and decodes an object.
    fn get(&self, id: ObjectId) -> Result<Object, StoreError>;
    /// Persists every object, returning ids in input order: one write-lock
    /// acquisition ([`MemStore`]), one frame per remote shard, all shards
    /// concurrently ([`crate::sharded::ShardedStore`]).
    fn put_batch(&self, objs: &[Object]) -> Result<Vec<ObjectId>, StoreError>;
    /// Fetches every id, returning objects in input order; fails if any
    /// id is missing (the error names a missing id — for partitioned
    /// stores not necessarily the first in input order).
    fn get_batch(&self, ids: &[ObjectId]) -> Result<Vec<Object>, StoreError>;
    /// Membership of every id, in input order. `Ok(false)` means the
    /// store was asked and does not hold the id; a store that could not
    /// be asked is an `Err`.
    fn contains_batch(&self, ids: &[ObjectId]) -> Result<Vec<bool>, StoreError>;
    /// Removes every id; an id the store does not hold is already
    /// removed. `Err` means some of `ids` may still be stored.
    fn remove_batch(&self, ids: &[ObjectId]) -> Result<(), StoreError>;
    /// Every object id the store holds, in unspecified order — what
    /// `dsv fsck` verifies content addresses over and detects orphans
    /// from. An incomplete enumeration is an `Err`.
    fn object_ids(&self) -> Result<Vec<ObjectId>, StoreError>;
    /// A snapshot of the store's fill and operation counters.
    /// **Best-effort and for reporting only**: a store that cannot count
    /// (an unreadable directory, an unreachable server) reports what it
    /// could see, down to zeros, so nothing may branch on the result.
    ///
    /// **Accounting contract:** a batched call counts once as a batch op
    /// with its elements under `batch_*_objects` — its elements are not
    /// *also* counted as single ops, even where the implementation routes
    /// the batch through its own single-op path.
    fn stats(&self) -> StoreStats;
    /// Whether the store codes payloads ([`Object::encode`]'s `compress`):
    /// the policy [`crate::object::stored_len`] needs to price an object
    /// as this store will hold it.
    fn compresses(&self) -> bool;

    /// Whether the store holds `id` ([`ObjectStore::contains_batch`] of
    /// one).
    fn contains(&self, id: ObjectId) -> Result<bool, StoreError> {
        Ok(self.contains_batch(&[id])?[0])
    }
    /// Removes an object ([`ObjectStore::remove_batch`] of one).
    fn remove(&self, id: ObjectId) -> Result<(), StoreError> {
        self.remove_batch(&[id])
    }
    /// Number of stored objects, from [`ObjectStore::stats`]: reporting
    /// only.
    fn len(&self) -> usize {
        self.stats().objects
    }
    /// Whether [`ObjectStore::len`] is 0: reporting only.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Total bytes of encoded objects (physical footprint), from
    /// [`ObjectStore::stats`]: reporting only.
    fn total_bytes(&self) -> u64 {
        self.stats().bytes
    }
    /// Removes every object: the bulk path for rebuilding or reusing a
    /// store (e.g. packing several substrates through one store in
    /// sequence), so rebuilds into the same `FileStore` never accumulate
    /// orphaned objects on disk. Repack garbage collection in `dsv-vcs`
    /// deliberately does *not* use it: stale objects are removed via
    /// [`ObjectStore::remove_batch`] only after a successful re-pack, so
    /// an interrupted optimize can never destroy the only copy of a
    /// history.
    fn clear(&self) -> Result<(), StoreError> {
        self.remove_batch(&self.object_ids()?)
    }

    /// Number of shards the store routes ids across (0 = unsharded).
    /// O(1) — unlike [`ObjectStore::stats`] it never touches the objects,
    /// so layout-only callers (e.g. `dsv-vcs` persistence deciding the
    /// meta format) don't pay for a store walk.
    fn shard_count(&self) -> usize {
        0
    }

    /// Network addresses of the remote servers backing this store, in
    /// shard order — empty for local stores (the default). A
    /// `ShardedStore` of remote shards concatenates its shards' addresses,
    /// so `dsv-vcs` persistence can record the full topology (meta v4)
    /// without knowing the concrete store type.
    fn remote_addrs(&self) -> Vec<String> {
        Vec::new()
    }
}

/// An in-memory store (the default for experiments).
pub struct MemStore {
    compress: bool,
    map: RwLock<HashMap<ObjectId, Vec<u8>>>,
    counters: Counters,
}

impl MemStore {
    /// Creates a store; `compress` controls payload compression.
    pub fn new(compress: bool) -> Self {
        MemStore {
            compress,
            map: RwLock::new(HashMap::new()),
            counters: Counters::default(),
        }
    }
}

impl ObjectStore for MemStore {
    fn put(&self, obj: &Object) -> Result<ObjectId, StoreError> {
        self.counters.count_put();
        let id = obj.id();
        self.map
            .write()
            .entry(id)
            .or_insert_with(|| obj.encode(self.compress));
        Ok(id)
    }

    fn get(&self, id: ObjectId) -> Result<Object, StoreError> {
        self.counters.count_get();
        let guard = self.map.read();
        let bytes = guard.get(&id).ok_or(StoreError::NotFound(id))?;
        Object::decode(bytes)
    }

    fn put_batch(&self, objs: &[Object]) -> Result<Vec<ObjectId>, StoreError> {
        self.counters.count_put_batch(objs.len());
        // One write-lock acquisition for the whole batch.
        let mut map = self.map.write();
        let mut ids = Vec::with_capacity(objs.len());
        for obj in objs {
            let id = obj.id();
            map.entry(id).or_insert_with(|| obj.encode(self.compress));
            ids.push(id);
        }
        Ok(ids)
    }

    fn get_batch(&self, ids: &[ObjectId]) -> Result<Vec<Object>, StoreError> {
        self.counters.count_get_batch(ids.len());
        let map = self.map.read();
        ids.iter()
            .map(|&id| {
                let bytes = map.get(&id).ok_or(StoreError::NotFound(id))?;
                Object::decode(bytes)
            })
            .collect()
    }

    fn contains_batch(&self, ids: &[ObjectId]) -> Result<Vec<bool>, StoreError> {
        let map = self.map.read();
        Ok(ids.iter().map(|id| map.contains_key(id)).collect())
    }

    fn remove_batch(&self, ids: &[ObjectId]) -> Result<(), StoreError> {
        self.counters.count_removes(ids.len());
        let mut map = self.map.write();
        for id in ids {
            map.remove(id);
        }
        Ok(())
    }

    fn object_ids(&self) -> Result<Vec<ObjectId>, StoreError> {
        Ok(self.map.read().keys().copied().collect())
    }

    fn stats(&self) -> StoreStats {
        let map = self.map.read();
        StoreStats {
            objects: map.len(),
            bytes: map.values().map(|v| v.len() as u64).sum(),
            shards: Vec::new(),
            ops: self.counters.snapshot(),
        }
    }

    fn compresses(&self) -> bool {
        self.compress
    }
}

/// An on-disk store: `dir/ab/<hex>` fan-out files, one per object. Each
/// object file is fsynced before the rename that publishes it and its
/// fan-out directory after, so an acknowledged write survives a power cut.
pub struct FileStore {
    compress: bool,
    dir: PathBuf,
    counters: Counters,
}

impl FileStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: &Path, compress: bool) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir)?;
        Ok(FileStore {
            compress,
            dir: dir.to_path_buf(),
            counters: Counters::default(),
        })
    }

    /// Removes every staging file (`*.tmp`) under `dir` — a store's
    /// root, or the `objects/` directory above a set of shard roots —
    /// and returns how many there were. A put that died between creating
    /// its staging file and renaming it leaves one behind; nothing will
    /// ever publish it. Recovery calls this, and recovery owns the
    /// directory: a put in flight in another process would lose its
    /// staging file and fail.
    pub fn sweep_unpublished(dir: &Path) -> std::io::Result<usize> {
        let mut removed = 0usize;
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            if entry.file_type()?.is_dir() {
                removed += FileStore::sweep_unpublished(&path)?;
            } else if path.extension().is_some_and(|ext| ext == "tmp") {
                std::fs::remove_file(&path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    fn path_of(&self, id: ObjectId) -> PathBuf {
        let hex = id.to_hex();
        self.dir.join(&hex[..2]).join(&hex[2..])
    }

    /// Single-object write without counter accounting (shared by `put`
    /// and `put_batch`).
    fn write_object(&self, obj: &Object) -> Result<ObjectId, StoreError> {
        let id = obj.id();
        let path = self.path_of(id);
        if path.exists() {
            return Ok(id);
        }
        let parent = path.parent().expect("fan-out parent");
        std::fs::create_dir_all(parent)?;
        // Write-then-rename for atomicity against concurrent readers and
        // crashes: a torn write can only ever tear the unpublished tmp
        // file. The content is fsynced before the publishing rename and
        // the fan-out directory after it, so an acknowledged object
        // survives a power cut.
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            fault::write_all(&mut f, &obj.encode(self.compress), "object")?;
            fault::sync_file(&f, "object")?;
        }
        fault::rename(&tmp, &path, "object")?;
        fault::sync_dir(parent, "object")?;
        Ok(id)
    }

    /// Calls `visit` for every published object: the files named
    /// `<2 hex>/<30 hex>` under the root. Whatever else a crash or a
    /// stranger left there — an unpublished `.tmp` above all — is not an
    /// object: `stats` and `object_ids` both count through here, so they
    /// cannot disagree about that. A directory that cannot be read stops
    /// the walk with its error.
    fn for_each_object(
        &self,
        mut visit: impl FnMut(ObjectId, &std::fs::DirEntry),
    ) -> std::io::Result<()> {
        for d in std::fs::read_dir(&self.dir)? {
            let d = d?;
            let prefix = d.file_name();
            let Some(prefix) = prefix.to_str().filter(|p| p.len() == 2) else {
                continue;
            };
            for f in std::fs::read_dir(d.path())? {
                let f = f?;
                let id = f
                    .file_name()
                    .to_str()
                    .and_then(|rest| ObjectId::from_hex(&format!("{prefix}{rest}")));
                if let Some(id) = id {
                    visit(id, &f);
                }
            }
        }
        Ok(())
    }

    fn read_object(&self, id: ObjectId) -> Result<Object, StoreError> {
        let path = self.path_of(id);
        let mut bytes = Vec::new();
        let mut f = std::fs::File::open(&path).map_err(|_| StoreError::NotFound(id))?;
        f.read_to_end(&mut bytes)?;
        Object::decode_owned(bytes)
    }
}

impl ObjectStore for FileStore {
    fn put(&self, obj: &Object) -> Result<ObjectId, StoreError> {
        self.counters.count_put();
        self.write_object(obj)
    }

    fn get(&self, id: ObjectId) -> Result<Object, StoreError> {
        self.counters.count_get();
        self.read_object(id)
    }

    fn put_batch(&self, objs: &[Object]) -> Result<Vec<ObjectId>, StoreError> {
        self.counters.count_put_batch(objs.len());
        // One file per object regardless; concurrency across files comes
        // from sharding (`ShardedStore<FileStore>`), not from here.
        objs.iter().map(|o| self.write_object(o)).collect()
    }

    fn get_batch(&self, ids: &[ObjectId]) -> Result<Vec<Object>, StoreError> {
        self.counters.count_get_batch(ids.len());
        ids.iter().map(|&id| self.read_object(id)).collect()
    }

    fn contains_batch(&self, ids: &[ObjectId]) -> Result<Vec<bool>, StoreError> {
        ids.iter()
            .map(|&id| Ok(self.path_of(id).try_exists()?))
            .collect()
    }

    fn remove_batch(&self, ids: &[ObjectId]) -> Result<(), StoreError> {
        self.counters.count_removes(ids.len());
        for &id in ids {
            // Injectable per-object removal: a crash mid-GC leaves a
            // suffix of stale objects for fsck to collect. A missing file
            // is already removed; any other failure stops the batch.
            fault::remove_file(&self.path_of(id), "object")?;
        }
        Ok(())
    }

    fn object_ids(&self) -> Result<Vec<ObjectId>, StoreError> {
        let mut ids = Vec::new();
        self.for_each_object(|id, _| ids.push(id))?;
        Ok(ids)
    }

    fn stats(&self) -> StoreStats {
        let (mut objects, mut bytes) = (0usize, 0u64);
        // Best-effort: an unreadable directory ends the count early.
        let _ = self.for_each_object(|_, file| {
            objects += 1;
            bytes += file.metadata().map_or(0, |meta| meta.len());
        });
        StoreStats {
            objects,
            bytes,
            shards: Vec::new(),
            ops: self.counters.snapshot(),
        }
    }

    fn compresses(&self) -> bool {
        self.compress
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn ObjectStore) {
        assert!(store.is_empty());
        let a = Object::Full {
            data: b"version one".to_vec(),
        };
        let id = store.put(&a).unwrap();
        assert!(store.contains(id).unwrap());
        assert_eq!(store.get(id).unwrap(), a);
        assert_eq!(store.len(), 1);
        assert!(store.total_bytes() > 0);

        // Idempotent put.
        let id2 = store.put(&a).unwrap();
        assert_eq!(id, id2);
        assert_eq!(store.len(), 1);

        // Unknown id.
        let missing = ObjectId::for_bytes(b"nope");
        assert!(matches!(
            store.get(missing).unwrap_err(),
            StoreError::NotFound(_)
        ));

        // Delta objects.
        let d = Object::Delta {
            base: id,
            delta: vec![9, 9, 9],
        };
        let did = store.put(&d).unwrap();
        assert_eq!(store.get(did).unwrap(), d);

        // Removal.
        store.remove(did).unwrap();
        assert!(!store.contains(did).unwrap());
        store.remove(missing).unwrap(); // already removed

        // Bulk removal: the store is empty and still usable afterwards.
        store.put(&d).unwrap();
        assert!(store.len() >= 2);
        store.clear().unwrap();
        assert!(store.is_empty());
        assert_eq!(store.total_bytes(), 0);
        assert_eq!(store.object_ids().unwrap(), vec![]);
        let again = store.put(&a).unwrap();
        assert_eq!(again, id);
        assert!(store.contains(id).unwrap());
    }

    /// Batch ops must be observationally identical to their single-object
    /// loops: same ids out, same store state, order preserved, duplicate
    /// and repeated inputs deduplicated by content address.
    fn exercise_batches(store: &dyn ObjectStore) {
        store.clear().unwrap();
        let objs: Vec<Object> = (0..20u8)
            .map(|i| Object::Full {
                data: format!("batched object {i} payload").into_bytes(),
            })
            .collect();
        let mut with_dup = objs.clone();
        with_dup.push(objs[3].clone()); // intra-batch duplicate

        let ids = store.put_batch(&with_dup).unwrap();
        assert_eq!(ids.len(), with_dup.len());
        assert_eq!(ids[3], ids[with_dup.len() - 1]);
        assert_eq!(store.len(), objs.len(), "duplicates stored once");
        for (obj, id) in with_dup.iter().zip(&ids) {
            assert_eq!(*id, obj.id());
        }

        // Batch reads in input order, including repeated ids.
        let fetched = store.get_batch(&ids).unwrap();
        assert_eq!(fetched, with_dup);
        let missing = ObjectId::for_bytes(b"absent");
        assert!(matches!(
            store.get_batch(&[ids[0], missing]).unwrap_err(),
            StoreError::NotFound(_)
        ));
        assert_eq!(
            store.contains_batch(&[ids[0], missing, ids[5]]).unwrap(),
            vec![true, false, true]
        );

        // Batch put is idempotent and leaves bytes unchanged.
        let bytes = store.total_bytes();
        let again = store.put_batch(&objs).unwrap();
        assert_eq!(&again[..], &ids[..objs.len()]);
        assert_eq!(store.total_bytes(), bytes);

        // Batch removal (unknown ids ignored).
        store.remove_batch(&[ids[0], ids[1], missing]).unwrap();
        assert_eq!(store.len(), objs.len() - 2);
        assert!(!store.contains(ids[0]).unwrap());
        assert!(store.contains(ids[2]).unwrap());
        store.clear().unwrap();
    }

    #[test]
    fn mem_store_basics() {
        exercise(&MemStore::new(false));
        exercise(&MemStore::new(true));
    }

    #[test]
    fn mem_store_batches() {
        exercise_batches(&MemStore::new(false));
        exercise_batches(&MemStore::new(true));
    }

    #[test]
    fn file_store_basics() {
        let dir = std::env::temp_dir().join(format!("dsv-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FileStore::open(&dir, true).unwrap();
        exercise(&store);
        exercise_batches(&store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_store_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("dsv-store-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let id = {
            let store = FileStore::open(&dir, false).unwrap();
            store
                .put(&Object::Full {
                    data: b"persisted".to_vec(),
                })
                .unwrap()
        };
        let store = FileStore::open(&dir, false).unwrap();
        assert_eq!(
            store.get(id).unwrap(),
            Object::Full {
                data: b"persisted".to_vec()
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_unpublished_tmp_is_not_an_object_and_recovery_sweeps_it() {
        // A put that died between creating its staging file and the
        // publishing rename. `object_ids` always skipped the leftover, but
        // `len` and `total_bytes` used to count it: len 2 · ids 1 ·
        // total_bytes 5014 for this store.
        let dir = std::env::temp_dir().join(format!("dsv-store-tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FileStore::open(&dir, false).unwrap();
        let obj = Object::Full {
            data: b"published!".to_vec(),
        };
        let id = store.put(&obj).unwrap();
        let clean = obj.encode(false).len() as u64;
        let fanout = dir.join(&id.to_hex()[..2]);
        std::fs::write(fanout.join("deadbeef.tmp"), vec![0u8; 5000]).unwrap();
        std::fs::write(dir.join("stray"), b"not in a fan-out directory").unwrap();

        assert_eq!(store.object_ids().unwrap(), vec![id]);
        assert_eq!(store.len(), 1);
        assert_eq!(store.total_bytes(), clean);
        let stats = store.stats();
        assert_eq!((stats.objects, stats.bytes), (1, clean));

        assert_eq!(FileStore::sweep_unpublished(&dir).unwrap(), 1);
        assert!(!fanout.join("deadbeef.tmp").exists());
        assert_eq!(store.get(id).unwrap(), obj);
        assert_eq!(FileStore::sweep_unpublished(&dir).unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compression_reduces_footprint() {
        let raw = MemStore::new(false);
        let compressed = MemStore::new(true);
        let obj = Object::Full {
            data: b"line of repetitive content\n".repeat(200),
        };
        raw.put(&obj).unwrap();
        compressed.put(&obj).unwrap();
        // Measured: 5,400 B over a 13-value alphabet code to 2,376 B (an
        // order-0 code does not see the repeat; LZ made 33 of it).
        let (coded, raw) = (compressed.total_bytes(), raw.total_bytes());
        assert!(coded < raw / 2, "{coded} of {raw}");
    }

    #[test]
    fn stats_track_single_and_batch_ops() {
        let store = MemStore::new(false);
        let objs: Vec<Object> = (0..5u8)
            .map(|i| Object::Full { data: vec![i; 64] })
            .collect();
        let ids = store.put_batch(&objs).unwrap();
        store.put(&objs[0]).unwrap();
        store.get(ids[0]).unwrap();
        store.get_batch(&ids).unwrap();
        store.remove(ids[4]).unwrap();
        store.remove_batch(&ids[..2]).unwrap();

        let stats = store.stats();
        assert_eq!(stats.objects, 2);
        assert!(stats.bytes > 0);
        assert!(stats.shards.is_empty());
        assert_eq!(stats.shard_imbalance(), 1.0);
        assert_eq!(stats.ops.puts, 1);
        assert_eq!(stats.ops.batch_puts, 1);
        assert_eq!(stats.ops.batch_put_objects, 5);
        assert_eq!(stats.ops.gets, 1);
        assert_eq!(stats.ops.batch_gets, 1);
        assert_eq!(stats.ops.batch_get_objects, 5);
        assert_eq!(stats.ops.removes, 3);
    }
}
