//! On-disk repository persistence.
//!
//! Layout of a repository directory:
//!
//! ```text
//! <root>/meta.dsv            line-based metadata (versions, branches, plan)
//! <root>/objects/            content-addressed object files (flat FileStore)
//! <root>/objects/shard-<i>/  … or one FileStore per shard (sharded layout)
//! <root>/repack.journal      repack intent journal (present mid-repack only)
//! ```
//!
//! # Crash model
//!
//! [`save`] replaces `meta.dsv` crash-atomically (write `meta.dsv.tmp`,
//! fsync it, rename over `meta.dsv`, fsync the directory), so a crash at
//! any point leaves either the old or the new metadata, never a torn
//! file. Object writes are similarly atomic and fsynced by [`FileStore`],
//! and meta is only ever written after the objects it references — an
//! interrupted commit therefore loads as the pre-commit history plus some
//! orphaned (unreferenced, content-addressed) objects, which `dsv fsck`
//! collects.
//!
//! Repacks additionally write an intent journal ([`RepackJournal`])
//! *before* the meta swap naming the intended new object list and the
//! stale ids to collect afterwards; `dsv fsck` / server restart use it to
//! roll an interrupted repack forward (meta already swapped → finish the
//! GC) or backward (meta still old → drop the unreferenced new objects).
//!
//! The metadata format is a deliberately simple, versioned text format —
//! one record per line, fields space-separated, the commit message last
//! (newlines in messages are flattened to spaces on save; a prototype
//! limitation matching the paper's system).
//!
//! Format v2 adds the placement policy (so a reloaded chunked repository
//! keeps chunking new commits) and a `c` plan marker for versions stored
//! as chunk manifests. Format v3 adds a `store sharded <n>` line for
//! repositories whose objects live in a
//! [`ShardedStore<FileStore>`](dsv_storage::ShardedStore) — the shard
//! count is a routing property, so it must reopen exactly as written.
//! Format v4 adds `store remote-sharded <n> <addr>...` for repositories
//! whose objects live on remote store servers
//! (`ShardedStore<RemoteStore>`, see `dsv_net::remote`): the address
//! *order* is the shard order, so the same id keeps routing to the same
//! server across reopens. Flat repositories keep saving as v2, local
//! sharded ones as v3; v1 files (binary plans, implicit greedy
//! placement) still load. [`load`] returns the store behind
//! [`RepoStore`], which dispatches to whichever layout the meta names.

use crate::commit::{CommitId, CommitMeta};
use crate::error::VcsError;
use crate::repo::{Placement, Repository};
use dsv_chunk::ChunkerParams;
use dsv_core::StorageMode;
use dsv_net::RemoteStore;
use dsv_storage::fault;
use dsv_storage::{FileStore, Object, ObjectId, ObjectStore, ShardedStore, StoreError, StoreStats};
use std::fmt::Write as _;
use std::path::Path;

const MAGIC_V1: &str = "dsv-meta v1";
const MAGIC_V2: &str = "dsv-meta v2";
const MAGIC_V3: &str = "dsv-meta v3";
const MAGIC_V4: &str = "dsv-meta v4";

/// The store of a loaded repository: a flat [`FileStore`] (meta v1/v2),
/// a [`ShardedStore`] of per-shard `FileStore`s (meta v3's
/// `store sharded <n>` layout), or a `ShardedStore` of
/// [`RemoteStore`] shards dialing remote store servers (meta v4's
/// `store remote-sharded <n> <addr>...`). Delegates the whole
/// [`ObjectStore`] surface — including the batch methods and stats, so a
/// sharded repository keeps its concurrent batch writes behind this
/// wrapper.
pub enum RepoStore {
    /// `objects/ab/<hex>` — the original single-directory fan-out.
    Flat(FileStore),
    /// `objects/shard-<i>/ab/<hex>` — id-prefix-routed shards.
    Sharded(ShardedStore<FileStore>),
    /// Objects live on remote store servers, one per shard, in the
    /// persisted address order.
    Remote(ShardedStore<RemoteStore>),
}

macro_rules! delegate {
    ($self:ident, $store:ident => $body:expr) => {
        match $self {
            RepoStore::Flat($store) => $body,
            RepoStore::Sharded($store) => $body,
            RepoStore::Remote($store) => $body,
        }
    };
}

impl ObjectStore for RepoStore {
    fn put(&self, obj: &Object) -> Result<ObjectId, StoreError> {
        delegate!(self, s => s.put(obj))
    }
    fn get(&self, id: ObjectId) -> Result<Object, StoreError> {
        delegate!(self, s => s.get(id))
    }
    fn put_batch(&self, objs: &[Object]) -> Result<Vec<ObjectId>, StoreError> {
        delegate!(self, s => s.put_batch(objs))
    }
    fn get_batch(&self, ids: &[ObjectId]) -> Result<Vec<Object>, StoreError> {
        delegate!(self, s => s.get_batch(ids))
    }
    fn contains_batch(&self, ids: &[ObjectId]) -> Result<Vec<bool>, StoreError> {
        delegate!(self, s => s.contains_batch(ids))
    }
    fn remove_batch(&self, ids: &[ObjectId]) -> Result<(), StoreError> {
        delegate!(self, s => s.remove_batch(ids))
    }
    fn object_ids(&self) -> Result<Vec<ObjectId>, StoreError> {
        delegate!(self, s => s.object_ids())
    }
    fn stats(&self) -> StoreStats {
        delegate!(self, s => s.stats())
    }
    fn compresses(&self) -> bool {
        delegate!(self, s => s.compresses())
    }
    fn shard_count(&self) -> usize {
        delegate!(self, s => s.shard_count())
    }
    fn remote_addrs(&self) -> Vec<String> {
        delegate!(self, s => s.remote_addrs())
    }
}

/// Serializes repository metadata (not objects — those live in the
/// store) to `<root>/meta.dsv`. A store reporting remote addresses
/// ([`ObjectStore::remote_addrs`]) is saved as meta v4 with the full
/// topology; a store reporting a non-zero
/// [`ObjectStore::shard_count`] is saved as meta v3 with that count;
/// flat local stores keep the v2 format.
pub fn save<S: dsv_storage::ObjectStore>(
    repo: &Repository<S>,
    root: &Path,
) -> Result<(), VcsError> {
    std::fs::create_dir_all(root).map_err(StoreError::from)?;
    let remote_addrs = repo.store().remote_addrs();
    let shard_count = repo.store().shard_count();
    let mut out = String::new();
    if !remote_addrs.is_empty() {
        let _ = writeln!(out, "{MAGIC_V4}");
        let _ = writeln!(
            out,
            "store remote-sharded {} {}",
            remote_addrs.len(),
            remote_addrs.join(" ")
        );
    } else if shard_count > 0 {
        let _ = writeln!(out, "{MAGIC_V3}");
        let _ = writeln!(out, "store sharded {shard_count}");
    } else {
        let _ = writeln!(out, "{MAGIC_V2}");
    }
    match repo.placement() {
        Placement::GreedyDelta => {
            let _ = writeln!(out, "placement greedy");
        }
        Placement::Chunked(p) => {
            let _ = writeln!(
                out,
                "placement chunked {} {} {}",
                p.min_size, p.avg_size, p.max_size
            );
        }
    }
    let branches: Vec<(&str, CommitId)> = repo.branches().collect();
    let _ = writeln!(out, "branches {}", branches.len());
    for (name, head) in branches {
        let _ = writeln!(out, "{} {}", head.0, name);
    }
    let _ = writeln!(out, "commits {}", repo.version_count());
    for v in 0..repo.version_count() as u32 {
        let meta = repo.meta(CommitId(v)).expect("in range");
        let parents = if meta.parents.is_empty() {
            "-".to_owned()
        } else {
            meta.parents
                .iter()
                .map(|p| p.0.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let plan = match repo.current_plan()[v as usize] {
            StorageMode::Materialized => "-".to_owned(),
            StorageMode::Chunked => "c".to_owned(),
            StorageMode::Delta(p) => p.to_string(),
        };
        let object = repo.object_id(CommitId(v)).to_hex();
        let message = meta.message.replace('\n', " ");
        let _ = writeln!(
            out,
            "{} {} {} {} {} {}",
            meta.size, meta.sequence, parents, plan, object, message
        );
    }
    fault::atomic_write_file(&root.join("meta.dsv"), out.as_bytes(), "meta")
        .map_err(StoreError::from)?;
    Ok(())
}

const JOURNAL_MAGIC: &str = "dsv-journal v1";

/// The intent record a repack writes before swapping `meta.dsv`: the full
/// object list the new plan will reference (in version order) and the
/// stale ids to garbage-collect once the swap is durable. Its presence on
/// disk means a repack may have been interrupted; recovery compares
/// `new_objects` with the loaded metadata to decide whether to roll the
/// repack forward (finish the GC) or backward (drop unreferenced new
/// objects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepackJournal {
    /// The intended post-repack `objects` list, in version order.
    pub new_objects: Vec<ObjectId>,
    /// Ids referenced only by the old plan, to remove after the swap.
    pub stale: Vec<ObjectId>,
}

fn journal_path(root: &Path) -> std::path::PathBuf {
    root.join("repack.journal")
}

/// Durably records a repack intent at `<root>/repack.journal`
/// (crash-atomic, like [`save`]).
pub fn write_journal(root: &Path, journal: &RepackJournal) -> Result<(), VcsError> {
    let mut out = String::new();
    let _ = writeln!(out, "{JOURNAL_MAGIC}");
    let _ = writeln!(out, "new {}", journal.new_objects.len());
    for id in &journal.new_objects {
        let _ = writeln!(out, "{}", id.to_hex());
    }
    let _ = writeln!(out, "stale {}", journal.stale.len());
    for id in &journal.stale {
        let _ = writeln!(out, "{}", id.to_hex());
    }
    fault::atomic_write_file(&journal_path(root), out.as_bytes(), "journal")
        .map_err(StoreError::from)?;
    Ok(())
}

/// Reads a pending repack journal, if one exists. A torn or malformed
/// journal is reported as corrupt rather than silently dropped — it can
/// only mean the crash-atomic write protocol was violated.
pub fn read_journal(root: &Path) -> Result<Option<RepackJournal>, VcsError> {
    let text = match std::fs::read_to_string(journal_path(root)) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(VcsError::Store(StoreError::from(e))),
    };
    let mut lines = text.lines();
    if lines.next() != Some(JOURNAL_MAGIC) {
        return Err(corrupt());
    }
    let mut section = |tag: &str| -> Result<Vec<ObjectId>, VcsError> {
        let (t, count) = split_header(lines.next().ok_or_else(corrupt)?)?;
        if t != tag {
            return Err(corrupt());
        }
        (0..count)
            .map(|_| ObjectId::from_hex(lines.next().ok_or_else(corrupt)?).ok_or_else(corrupt))
            .collect()
    };
    let new_objects = section("new")?;
    let stale = section("stale")?;
    Ok(Some(RepackJournal { new_objects, stale }))
}

/// Removes a completed repack journal (durably: the removal is fsynced
/// into the directory). Missing journals are fine.
pub fn clear_journal(root: &Path) -> Result<(), VcsError> {
    fault::remove_file(&journal_path(root), "journal").map_err(StoreError::from)?;
    fault::sync_dir(root, "journal").map_err(StoreError::from)?;
    Ok(())
}

/// Removes the staging files crashed puts left under `<root>/objects`
/// (either layout; see [`FileStore::sweep_unpublished`] for who may call
/// this) and returns how many. A repository whose objects are all remote
/// has no such directory and nothing to sweep: every store server sweeps
/// its own when it starts.
pub fn sweep_unpublished(root: &Path) -> Result<usize, VcsError> {
    match FileStore::sweep_unpublished(&root.join("objects")) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
        swept => Ok(swept.map_err(StoreError::from)?),
    }
}

/// Loads a repository whose objects live in `<root>/objects` — flat or
/// sharded per the meta file — or, for meta v4, on the remote store
/// servers the meta names (each address is dialed; a server that is down
/// surfaces as a structured [`StoreError::Io`], never a hang beyond the
/// dial timeout). See [`RepoStore`].
pub fn load(root: &Path, compress: bool) -> Result<Repository<RepoStore>, VcsError> {
    let text = std::fs::read_to_string(root.join("meta.dsv")).map_err(StoreError::from)?;
    let mut lines = text.lines();
    let magic = lines.next().ok_or_else(corrupt)?;
    let version = match magic {
        MAGIC_V1 => 1,
        MAGIC_V2 => 2,
        MAGIC_V3 => 3,
        MAGIC_V4 => 4,
        _ => return Err(corrupt()),
    };

    let objects_dir = root.join("objects");
    let store = match version {
        4 => {
            let addrs = parse_remote_store(lines.next().ok_or_else(corrupt)?)?;
            RepoStore::Remote(connect_remote_shards(&addrs)?)
        }
        3 => match parse_store(lines.next().ok_or_else(corrupt)?)? {
            0 => RepoStore::Flat(FileStore::open(&objects_dir, compress)?),
            n => RepoStore::Sharded(ShardedStore::open_sharded(&objects_dir, n, compress)?),
        },
        _ => RepoStore::Flat(FileStore::open(&objects_dir, compress)?),
    };

    let placement = if version >= 2 {
        parse_placement(lines.next().ok_or_else(corrupt)?)?
    } else {
        Placement::GreedyDelta
    };

    let (tag, count) = split_header(lines.next().ok_or_else(corrupt)?)?;
    if tag != "branches" {
        return Err(corrupt());
    }
    let mut branches = Vec::with_capacity(count);
    for _ in 0..count {
        let line = lines.next().ok_or_else(corrupt)?;
        let (head, name) = line.split_once(' ').ok_or_else(corrupt)?;
        let head: u32 = head.parse().map_err(|_| corrupt())?;
        branches.push((name.to_owned(), CommitId(head)));
    }

    let (tag, count) = split_header(lines.next().ok_or_else(corrupt)?)?;
    if tag != "commits" {
        return Err(corrupt());
    }
    let mut commits = Vec::with_capacity(count);
    let mut plan = Vec::with_capacity(count);
    let mut objects = Vec::with_capacity(count);
    for v in 0..count as u32 {
        let line = lines.next().ok_or_else(corrupt)?;
        let mut fields = line.splitn(6, ' ');
        let size: u64 = next_field(&mut fields)?.parse().map_err(|_| corrupt())?;
        let sequence: u64 = next_field(&mut fields)?.parse().map_err(|_| corrupt())?;
        let parents_str = next_field(&mut fields)?;
        let plan_str = next_field(&mut fields)?;
        let object_hex = next_field(&mut fields)?;
        let message = fields.next().unwrap_or("").to_owned();

        let parents = if parents_str == "-" {
            Vec::new()
        } else {
            parents_str
                .split(',')
                .map(|p| p.parse::<u32>().map(CommitId).map_err(|_| corrupt()))
                .collect::<Result<Vec<_>, _>>()?
        };
        let plan_mode = match plan_str {
            "-" => StorageMode::Materialized,
            "c" => StorageMode::Chunked,
            other => StorageMode::Delta(other.parse::<u32>().map_err(|_| corrupt())?),
        };
        let object = ObjectId::from_hex(object_hex).ok_or_else(corrupt)?;
        commits.push(CommitMeta {
            id: CommitId(v),
            parents,
            message,
            sequence,
            size,
        });
        plan.push(plan_mode);
        objects.push(object);
    }

    // One batched membership probe for every referenced object — a
    // remote store answers in one frame per shard instead of one
    // round-trip per version. A store that cannot answer fails the load;
    // only an answered "absent" is `NotFound`.
    let present = store.contains_batch(&objects)?;
    if let Some(i) = present.iter().position(|&p| !p) {
        return Err(VcsError::Store(StoreError::NotFound(objects[i])));
    }

    Repository::from_parts(store, commits, plan, objects, branches, placement)
}

/// Dials one [`RemoteStore`] per address, in shard order. Public so
/// `dsv init --remote-shards` builds the identical topology the meta
/// will reopen.
pub fn connect_remote_shards(addrs: &[String]) -> Result<ShardedStore<RemoteStore>, VcsError> {
    if addrs.is_empty() {
        return Err(corrupt());
    }
    let shards = addrs
        .iter()
        .map(|addr| {
            RemoteStore::connect(addr).map_err(|e| {
                VcsError::Store(StoreError::Io(format!("dialing store shard {addr}: {e}")))
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ShardedStore::new(shards))
}

fn corrupt() -> VcsError {
    VcsError::Store(StoreError::Corrupt("malformed meta.dsv"))
}

/// Parses a v3 `store …` line; returns the shard count (0 = flat).
fn parse_store(line: &str) -> Result<usize, VcsError> {
    let mut fields = line.split(' ');
    if fields.next() != Some("store") {
        return Err(corrupt());
    }
    match fields.next() {
        Some("flat") => Ok(0),
        Some("sharded") => fields
            .next()
            .and_then(|f| f.parse().ok())
            .filter(|&n| (1..=dsv_storage::MAX_SHARDS).contains(&n))
            .ok_or_else(corrupt),
        _ => Err(corrupt()),
    }
}

/// Parses a v4 `store remote-sharded <n> <addr>...` line; the declared
/// count must match the address list (a truncated line must not silently
/// reopen with fewer shards — that would reroute every id).
fn parse_remote_store(line: &str) -> Result<Vec<String>, VcsError> {
    let mut fields = line.split(' ');
    if fields.next() != Some("store") || fields.next() != Some("remote-sharded") {
        return Err(corrupt());
    }
    let n: usize = fields
        .next()
        .and_then(|f| f.parse().ok())
        .filter(|&n| (1..=dsv_storage::MAX_SHARDS).contains(&n))
        .ok_or_else(corrupt)?;
    let addrs: Vec<String> = fields.map(str::to_owned).collect();
    if addrs.len() != n || addrs.iter().any(|a| a.is_empty()) {
        return Err(corrupt());
    }
    Ok(addrs)
}

fn parse_placement(line: &str) -> Result<Placement, VcsError> {
    let mut fields = line.split(' ');
    if fields.next() != Some("placement") {
        return Err(corrupt());
    }
    match fields.next() {
        Some("greedy") => Ok(Placement::GreedyDelta),
        Some("chunked") => {
            let mut num = || -> Result<usize, VcsError> {
                fields
                    .next()
                    .and_then(|f| f.parse().ok())
                    .ok_or_else(corrupt)
            };
            let (min, avg, max) = (num()?, num()?, num()?);
            let params = ChunkerParams::new(min, avg, max).map_err(|_| corrupt())?;
            Ok(Placement::Chunked(params))
        }
        _ => Err(corrupt()),
    }
}

fn split_header(line: &str) -> Result<(&str, usize), VcsError> {
    let (tag, n) = line.split_once(' ').ok_or_else(corrupt)?;
    Ok((tag, n.parse().map_err(|_| corrupt())?))
}

fn next_field<'a>(fields: &mut impl Iterator<Item = &'a str>) -> Result<&'a str, VcsError> {
    fields.next().ok_or_else(corrupt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_core::Problem;

    /// A temp directory that removes itself on drop, so panicking tests
    /// don't leak directories (the old trailing `remove_dir_all` calls
    /// never ran on failure).
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("dsv-persist-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn populated(root: &Path) -> Repository<FileStore> {
        let store = FileStore::open(&root.join("objects"), false).unwrap();
        let mut repo = Repository::init(store);
        let v0 = repo
            .commit("main", b"a,b\n1,2\n3,4\n", "initial import")
            .unwrap();
        repo.branch("dev", v0).unwrap();
        repo.commit("dev", b"a,b\n1,2\n3,4\n5,6\n", "add row")
            .unwrap();
        repo.commit("main", b"a,b\n9,9\n3,4\n", "fix cell\nwith newline")
            .unwrap();
        repo
    }

    #[test]
    fn save_load_roundtrip() {
        let tmp = TempDir::new("roundtrip");
        let root = tmp.path();
        let repo = populated(root);
        save(&repo, root).unwrap();
        let loaded = load(root, false).unwrap();

        assert_eq!(loaded.version_count(), repo.version_count());
        for v in 0..repo.version_count() as u32 {
            assert_eq!(
                loaded.checkout(CommitId(v)).unwrap(),
                repo.checkout(CommitId(v)).unwrap(),
                "v{v}"
            );
            let a = loaded.meta(CommitId(v)).unwrap();
            let b = repo.meta(CommitId(v)).unwrap();
            assert_eq!(a.parents, b.parents);
            assert_eq!(a.size, b.size);
        }
        let mut a: Vec<_> = loaded.branches().map(|(n, h)| (n.to_owned(), h)).collect();
        let mut b: Vec<_> = repo.branches().map(|(n, h)| (n.to_owned(), h)).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // Newlines in messages are flattened, not lost.
        assert!(loaded
            .meta(CommitId(2))
            .unwrap()
            .message
            .contains("fix cell"));
    }

    #[test]
    fn optimize_then_persist_then_reload() {
        let tmp = TempDir::new("optimize");
        let root = tmp.path();
        let mut repo = populated(root);
        repo.optimize_with(&dsv_core::PlanSpec::new(Problem::MinStorage).reveal_hops(3))
            .unwrap();
        save(&repo, root).unwrap();
        let loaded = load(root, false).unwrap();
        for v in 0..repo.version_count() as u32 {
            assert_eq!(
                loaded.checkout(CommitId(v)).unwrap(),
                repo.checkout(CommitId(v)).unwrap()
            );
        }
        assert_eq!(loaded.current_plan(), repo.current_plan());
    }

    #[test]
    fn chunked_placement_survives_reload() {
        let tmp = TempDir::new("chunked");
        let root = tmp.path();
        let params = ChunkerParams::new(64, 256, 1024).unwrap();
        let store = FileStore::open(&root.join("objects"), false).unwrap();
        let mut repo = Repository::init_chunked(store, params);
        let mut data: Vec<u8> = b"id,value\n".to_vec();
        for i in 0..400 {
            data.extend_from_slice(format!("{i},row-payload-{}\n", i * 7).as_bytes());
        }
        repo.commit("main", &data, "base").unwrap();
        data.extend_from_slice(b"400,appended\n");
        repo.commit("main", &data, "grow").unwrap();
        save(&repo, root).unwrap();

        let mut loaded = load(root, false).unwrap();
        // Placement and per-version chunked plan entries round-trip.
        assert_eq!(loaded.placement(), Placement::Chunked(params));
        assert!(loaded.current_plan().iter().all(|m| m.is_chunked()));
        for v in 0..repo.version_count() as u32 {
            assert_eq!(
                loaded.checkout(CommitId(v)).unwrap(),
                repo.checkout(CommitId(v)).unwrap()
            );
        }
        // New commits on the reloaded repository keep chunking (no silent
        // fallback to greedy deltas): the commit dedups against existing
        // chunks instead of storing a delta or a full copy.
        let before = loaded.storage_bytes();
        data.extend_from_slice(b"401,appended-after-reload\n");
        let id = loaded.commit("main", &data, "post-reload").unwrap();
        assert!(loaded.current_plan()[id.index()].is_chunked());
        let added = loaded.storage_bytes() - before;
        assert!(
            added < data.len() as u64 / 4,
            "chunked commit added {added} of {} bytes",
            data.len()
        );
        assert_eq!(loaded.checkout(id).unwrap(), data);
    }

    #[test]
    fn sharded_layout_roundtrips_through_meta_v3() {
        let tmp = TempDir::new("sharded");
        let root = tmp.path();
        let shard_count = 4;
        let store = ShardedStore::open_sharded(&root.join("objects"), shard_count, false).unwrap();
        let mut repo = Repository::init(store);
        let mut data = b"id,value\n".to_vec();
        for i in 0..200 {
            data.extend_from_slice(format!("{i},row-{}\n", i * 13).as_bytes());
        }
        repo.commit("main", &data, "base").unwrap();
        data.extend_from_slice(b"200,appended\n");
        repo.commit("main", &data, "grow").unwrap();
        save(&repo, root).unwrap();

        // Meta v3 records the shard count; the shard directories exist.
        let meta = std::fs::read_to_string(root.join("meta.dsv")).unwrap();
        assert!(meta.starts_with(MAGIC_V3), "{meta}");
        assert!(meta.contains(&format!("store sharded {shard_count}")));
        for i in 0..shard_count {
            assert!(root.join("objects").join(format!("shard-{i}")).is_dir());
        }

        // Reload: same shard routing, same contents, same footprint.
        let mut loaded = load(root, false).unwrap();
        assert!(matches!(loaded.store(), RepoStore::Sharded(_)));
        assert_eq!(loaded.store().stats().shards.len(), shard_count);
        assert_eq!(loaded.storage_bytes(), repo.storage_bytes());
        for v in 0..repo.version_count() as u32 {
            assert_eq!(
                loaded.checkout(CommitId(v)).unwrap(),
                repo.checkout(CommitId(v)).unwrap(),
                "v{v}"
            );
        }

        // Committing and re-saving keeps the sharded layout (v3 again).
        data.extend_from_slice(b"201,post-reload\n");
        let id = loaded.commit("main", &data, "post-reload").unwrap();
        save(&loaded, root).unwrap();
        let reloaded = load(root, false).unwrap();
        assert_eq!(reloaded.store().stats().shards.len(), shard_count);
        assert_eq!(reloaded.checkout(id).unwrap(), data);
    }

    #[test]
    fn sharded_and_flat_repos_store_identical_bytes() {
        // The shard count is a layout property: the same history stores
        // the same physical bytes flat or sharded.
        let tmp = TempDir::new("sharded-eq");
        let root = tmp.path();
        let flat = FileStore::open(&root.join("flat/objects"), true).unwrap();
        let sharded = ShardedStore::open_sharded(&root.join("sharded/objects"), 8, true).unwrap();
        let mut a = Repository::init(flat);
        let mut b = Repository::init(sharded);
        let mut data = b"k,v\n".to_vec();
        for i in 0..150 {
            data.extend_from_slice(format!("{i},payload-{}\n", i * 7).as_bytes());
            if i % 30 == 0 {
                a.commit("main", &data, "grow").unwrap();
                b.commit("main", &data, "grow").unwrap();
            }
        }
        assert_eq!(a.storage_bytes(), b.storage_bytes());
        assert_eq!(a.store().len(), b.store().len());
        for v in 0..a.version_count() as u32 {
            assert_eq!(
                a.object_id(CommitId(v)),
                b.object_id(CommitId(v)),
                "same content addresses regardless of layout"
            );
        }
    }

    /// Loopback store server for meta v4 tests; drop shuts it down.
    struct StoreServerGuard(String, Option<std::thread::JoinHandle<()>>);

    impl StoreServerGuard {
        fn spawn() -> Self {
            let server = dsv_net::Server::bind("127.0.0.1:0").unwrap();
            let addr = server.local_addr().to_string();
            let handle = std::thread::spawn(move || {
                dsv_net::StoreService::new(
                    dsv_storage::MemStore::new(false),
                    dsv_net::StoreServiceConfig::default(),
                )
                .serve(&server);
            });
            StoreServerGuard(addr, Some(handle))
        }
    }

    impl Drop for StoreServerGuard {
        fn drop(&mut self) {
            if let Ok(mut c) = dsv_net::Client::connect(&self.0) {
                let _ = c.shutdown();
            }
            if let Some(h) = self.1.take() {
                let _ = h.join();
            }
        }
    }

    #[test]
    fn remote_sharded_layout_roundtrips_through_meta_v4() {
        let tmp = TempDir::new("remote-v4");
        let root = tmp.path();
        let servers: Vec<StoreServerGuard> = (0..2).map(|_| StoreServerGuard::spawn()).collect();
        let addrs: Vec<String> = servers.iter().map(|s| s.0.clone()).collect();

        let store = connect_remote_shards(&addrs).unwrap();
        let mut repo = Repository::init(store);
        let mut data = b"id,value\n".to_vec();
        for i in 0..120 {
            data.extend_from_slice(format!("{i},row-{}\n", i * 11).as_bytes());
        }
        repo.commit("main", &data, "base").unwrap();
        data.extend_from_slice(b"120,appended\n");
        repo.commit("main", &data, "grow").unwrap();
        save(&repo, root).unwrap();

        // Meta v4 records the full topology in shard order.
        let meta = std::fs::read_to_string(root.join("meta.dsv")).unwrap();
        assert!(meta.starts_with(MAGIC_V4), "{meta}");
        assert!(meta.contains(&format!("store remote-sharded 2 {} {}", addrs[0], addrs[1])));

        // Reload dials the same servers; contents are identical.
        let loaded = load(root, false).unwrap();
        assert!(matches!(loaded.store(), RepoStore::Remote(_)));
        assert_eq!(loaded.store().remote_addrs(), addrs);
        assert_eq!(loaded.storage_bytes(), repo.storage_bytes());
        for v in 0..repo.version_count() as u32 {
            assert_eq!(
                loaded.checkout(CommitId(v)).unwrap(),
                repo.checkout(CommitId(v)).unwrap(),
                "v{v}"
            );
        }

        // A truncated topology line is corruption, not silent rerouting.
        let truncated = meta.replace(
            &format!("store remote-sharded 2 {} {}", addrs[0], addrs[1]),
            &format!("store remote-sharded 2 {}", addrs[0]),
        );
        std::fs::write(root.join("meta.dsv"), truncated).unwrap();
        assert!(load(root, false).is_err());
    }

    #[test]
    fn v1_meta_files_still_load() {
        let tmp = TempDir::new("v1compat");
        let root = tmp.path();
        let repo = populated(root);
        save(&repo, root).unwrap();
        // Rewrite the meta file as v1: drop the placement line.
        let text = std::fs::read_to_string(root.join("meta.dsv")).unwrap();
        let v1 = text
            .replacen(MAGIC_V2, MAGIC_V1, 1)
            .lines()
            .filter(|l| !l.starts_with("placement"))
            .collect::<Vec<_>>()
            .join("\n");
        std::fs::write(root.join("meta.dsv"), v1 + "\n").unwrap();
        let loaded = load(root, false).unwrap();
        assert_eq!(loaded.placement(), Placement::GreedyDelta);
        assert_eq!(loaded.current_plan(), repo.current_plan());
    }

    #[test]
    fn load_rejects_corruption() {
        let tmp = TempDir::new("corrupt");
        let root = tmp.path();
        let repo = populated(root);
        save(&repo, root).unwrap();
        std::fs::write(root.join("meta.dsv"), "not a meta file\n").unwrap();
        assert!(load(root, false).is_err());
    }

    #[test]
    fn load_detects_missing_objects() {
        let tmp = TempDir::new("missing");
        let root = tmp.path();
        let repo = populated(root);
        save(&repo, root).unwrap();
        // Blow away the object files.
        std::fs::remove_dir_all(root.join("objects")).unwrap();
        std::fs::create_dir_all(root.join("objects")).unwrap();
        assert!(matches!(
            load(root, false),
            Err(VcsError::Store(StoreError::NotFound(_)))
        ));
    }
}
