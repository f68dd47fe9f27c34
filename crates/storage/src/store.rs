//! Object stores: in-memory and on-disk.
//!
//! Both implementations persist the *encoded* object form, so
//! `total_bytes` reports the real (possibly compressed) storage footprint
//! — the quantity §5.2 of the paper compares across SVN/Git/MCA.
//!
//! # The contract
//!
//! [`ObjectStore`] is nine required methods and eight provided ones.
//! Every implementor and every wrapper writes the nine. Six of the eight
//! are written once, here, and nobody overrides them. The other two,
//! `shard_count` and `remote_addrs`, describe the layout: their defaults
//! say "one local store", the layouts that differ override them
//! (`ShardedStore`, and `RemoteStore`'s `remote_addrs`), and the
//! wrappers forward them (`FaultStore`, `dsv-vcs`'s `RepoStore`, the
//! model harness's store).
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
//! | `shard_count`, `remote_addrs` | provided (0, empty); overridden by layouts, forwarded by wrappers | no (a property of the store) | yes — `persist` picks the meta format from them |
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
//! paths really go through the batch surface (`dsv stats` prints this).
//!
//! # Chunked versions
//!
//! [`ChunkStore`] is deduplicating version storage over any
//! [`ObjectStore`]: each version is split by the content-defined chunker
//! ([`crate::cdc`]), every chunk is stored once as a content-addressed
//! `Object::Full` (the store's idempotent `put` is the dedup mechanism),
//! and the version itself becomes an `Object::Chunked` manifest — an
//! ordered recipe of chunk ids. Checkout is manifest reassembly via the
//! [`Materializer`], so the chunked regime plugs into the same
//! measured-recreation machinery as the paper's Full and Delta plans.

use crate::cdc::Chunker;
use crate::fault;
use crate::hash::ObjectId;
use crate::materialize::{Materializer, RecreationWork};
use crate::object::{Object, StoreError};
use crate::repack::PackedVersions;
use dsv_core::ChunkerParams;
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::io::Read;
use std::ops::Range;
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
        let mut path = PathBuf::with_capacity(self.dir.as_os_str().len() + hex.len() + 2);
        path.push(&self.dir);
        path.push(&hex[..2]);
        path.push(&hex[2..]);
        path
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
                let name = f.file_name();
                let id = name
                    .to_str()
                    .filter(|rest| rest.len() == 30)
                    .and_then(|rest| {
                        // The fan-out prefix and the file name, in one stack buffer.
                        let mut hex = [0u8; 32];
                        hex[..2].copy_from_slice(prefix.as_bytes());
                        hex[2..].copy_from_slice(rest.as_bytes());
                        ObjectId::from_hex(std::str::from_utf8(&hex).ok()?)
                    });
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
        // Only a missing file is an absent object; a store that could not
        // be asked (a permission, a fan-out that is not a directory) fails.
        let mut f = std::fs::File::open(&path).map_err(|e| match e.kind() {
            std::io::ErrorKind::NotFound => StoreError::NotFound(id),
            _ => StoreError::from(e),
        })?;
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
/// calls — the chunked counterpart of what [`crate::repack`] reports
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
    /// A chunk store over `store`.
    pub fn new(store: &'a S, params: ChunkerParams) -> Self {
        ChunkStore { store, params }
    }

    /// The chunking parameters in force.
    pub fn params(&self) -> ChunkerParams {
        self.params
    }

    /// Chunks `data`, stores new chunks and the manifest, and reports
    /// what was deduplicated. Idempotent: re-putting a version stores
    /// nothing new and returns the same id.
    pub fn put_version(&self, data: &[u8]) -> Result<PutVersion, StoreError> {
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
    ) -> Result<PutVersion, StoreError> {
        let batch = plan_chunked_batch(self.store, &[(data, chunks)])?;
        self.store.put_batch(&batch.objects)?;
        Ok(batch.puts.into_iter().next().expect("one version planned"))
    }

    /// Reassembles a version from its manifest id, reporting the measured
    /// recreation work.
    pub fn get_version(&self, id: ObjectId) -> Result<(Vec<u8>, RecreationWork), StoreError> {
        let m = Materializer::new(self.store);
        let (data, work) = m.materialize_measured(id)?;
        Ok((data.as_ref().clone(), work))
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
pub fn prechunk(data: &[u8], params: ChunkerParams) -> Vec<(Range<usize>, ObjectId)> {
    let mut out = Vec::new();
    let mut start = 0usize;
    for chunk in Chunker::new(data, params) {
        out.push((start..start + chunk.len(), Object::full_id(chunk)));
        start += chunk.len();
    }
    out
}

/// Packs `contents` into `store` as deduplicated chunk manifests — the
/// chunked counterpart of [`pack_versions`](crate::pack_versions), returning the
/// same [`PackedVersions`] handle (so checkout and measured-recreation
/// reporting are shared with the Full/Delta regimes) plus the dedup
/// statistics.
///
/// The returned plan has every version "materialized" (`parents` all
/// `None`): chunked versions depend on shared chunks, not on each other,
/// which is exactly why their recreation cost stays flat as history
/// grows.
///
/// This is [`pack_versions_hybrid`](crate::hybrid::pack_versions_hybrid) with
/// every version chunked: chunking and hashing run in parallel on the
/// `dsv_par` runtime; the store then sees one `contains_batch` probe and
/// bounded `put_batch` flushes of every new chunk and manifest, with
/// dedup accounted in version order (identical to sequential per-version
/// inserts at every thread count).
pub fn pack_versions_chunked<S: ObjectStore + ?Sized>(
    store: &S,
    contents: &[Vec<u8>],
    params: ChunkerParams,
) -> Result<(PackedVersions, DedupStats), StoreError> {
    let modes = vec![dsv_core::StorageMode::Chunked; contents.len()];
    crate::hybrid::pack_versions_hybrid(store, contents, &modes, params)
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
    fn a_fan_out_that_cannot_be_read_is_an_io_error_not_an_absent_object() {
        // `get` used to report every failed `open` as `NotFound`, while
        // `contains` and `object_ids` on the same store failed with the
        // real error.
        let dir = std::env::temp_dir().join(format!("dsv-store-fanout-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FileStore::open(&dir, false).unwrap();
        let id = store
            .put(&Object::Full {
                data: b"behind a broken fan-out".to_vec(),
            })
            .unwrap();
        let fanout = dir.join(&id.to_hex()[..2]);
        std::fs::remove_dir_all(&fanout).unwrap();
        std::fs::write(&fanout, b"a file where a directory belongs").unwrap();

        for (op, answer) in [
            ("get", store.get(id).map(drop)),
            ("contains", store.contains(id).map(drop)),
            ("object_ids", store.object_ids().map(drop)),
        ] {
            assert!(matches!(answer, Err(StoreError::Io(_))), "{op}: {answer:?}");
        }
        let missing = ObjectId::for_bytes(b"never stored");
        assert_eq!(store.get(missing), Err(StoreError::NotFound(missing)));
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
        let cs = ChunkStore::new(&store, params());
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
        let cs = ChunkStore::new(&store, params());
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
        let cs = ChunkStore::new(&store, params());
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
        let cs = ChunkStore::new(&store, params());
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
