//! Deterministic fault injection for crash-consistency testing.
//!
//! Every durable operation in the workspace — object writes in
//! [`crate::FileStore`], the atomic meta rewrite and repack journal in
//! `dsv-vcs` — funnels through the *fault site* helpers in this module
//! ([`write_all`], [`sync_file`], [`rename`], [`sync_dir`],
//! [`remove_file`], and the composed [`atomic_write_file`]). Each helper
//! names its site (`"meta.sync"`, `"object.rename"`, …) and consults the
//! process-global [`FaultPlan`] before touching the filesystem. With no
//! plan installed the check is one relaxed atomic load, so production
//! paths pay nothing.
//!
//! A plan is a deterministic, seedable crash script:
//!
//! - [`FaultPlan::count_sites`] never fires — it records every site name
//!   traversed, so a sweep can first *enumerate* the crash points of an
//!   operation and then replay it once per point;
//! - [`FaultPlan::fail_at`] fails the Nth site with an injected
//!   `io::Error` (optionally only sites whose name contains a substring);
//! - [`FaultPlan::tear_at`] turns the Nth site, if it is a write, into a
//!   *torn* write: the first K bytes land on disk and the call fails —
//!   the on-disk state a power cut mid-`write(2)` leaves behind;
//! - [`FaultPlan::skip_sync_at`] silently drops the Nth fsync (the call
//!   "succeeds" without reaching disk) and records that durability was
//!   lost, modelling firmware/page-cache lies.
//!
//! [`FaultStore`] applies the same plan at the [`ObjectStore`] trait
//! boundary (sites `"store.put"`, `"store.get"`, `"store.remove"`) so
//! in-memory stores and remote/server tests can inject failures without
//! a real disk. The wrapper composes with *any* store impl, including a
//! remote one (`dsv-net`'s `RemoteStore`): wrapped around a remote
//! shard, a mid-batch `store.put` cut severs the batch *over the wire* —
//! the prefix is already durable on the server, exactly the state a
//! client crash mid-upload leaves behind, and the content-addressed
//! retry converges. A `DSV_FAULT=fail:N:store.` spec (the `store.` site
//! filter) targets these trait-boundary sites without also arming the
//! filesystem sites below.
//!
//! `DSV_FAULT=fail:N[:substr]` / `tear:N:K[:substr]` /
//! `skipsync:N[:substr]` installs a plan from the environment
//! ([`install_from_env`]); the `dsv` CLI calls this on startup so CI can
//! crash a repack at a named point and then fsck the survivor.

use crate::hash::ObjectId;
use crate::object::{Object, StoreError};
use crate::store::{ObjectStore, StoreStats};
use parking_lot::{Mutex, RwLock};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// What the plan does when its trigger site is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail the site with an injected `io::Error`.
    Fail,
    /// For write sites: persist only the first K bytes, then fail (a torn
    /// write). Non-write sites fall back to [`FaultKind::Fail`].
    Tear(usize),
    /// For sync sites: silently skip the fsync (the call succeeds, the
    /// data is not durable) and record it. Non-sync sites are unaffected.
    SkipSync,
}

/// A deterministic crash script: counts fault sites as they are
/// traversed and fires [`FaultKind`] at the configured index.
#[derive(Debug)]
pub struct FaultPlan {
    trigger: Option<u64>,
    kind: FaultKind,
    filter: Option<String>,
    hits: AtomicU64,
    fired: AtomicU64,
    dropped_syncs: AtomicU64,
    log: Mutex<Vec<String>>,
    record: bool,
}

/// The action a fault site must take, resolved by [`FaultPlan::on_site`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SiteAction {
    Proceed,
    Fail,
    Tear(usize),
    SkipSync,
}

impl FaultPlan {
    fn new(trigger: Option<u64>, kind: FaultKind, filter: Option<String>, record: bool) -> Self {
        FaultPlan {
            trigger,
            kind,
            filter,
            hits: AtomicU64::new(0),
            fired: AtomicU64::new(0),
            dropped_syncs: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
            record,
        }
    }

    /// A plan that never fires but records every site name traversed —
    /// the enumeration pass of a crash-point sweep.
    pub fn count_sites() -> Arc<Self> {
        Arc::new(FaultPlan::new(None, FaultKind::Fail, None, true))
    }

    /// Fail the `n`th site (0-based) with an injected error.
    pub fn fail_at(n: u64) -> Arc<Self> {
        Arc::new(FaultPlan::new(Some(n), FaultKind::Fail, None, false))
    }

    /// Fail the `n`th site whose name contains `site`.
    pub fn fail_at_site(n: u64, site: &str) -> Arc<Self> {
        Arc::new(FaultPlan::new(
            Some(n),
            FaultKind::Fail,
            Some(site.to_owned()),
            false,
        ))
    }

    /// Tear the `n`th site at byte `k`: a write persists only its first
    /// `k` bytes and then fails.
    pub fn tear_at(n: u64, k: usize) -> Arc<Self> {
        Arc::new(FaultPlan::new(Some(n), FaultKind::Tear(k), None, false))
    }

    /// Silently drop the `n`th fsync (optionally filtered like
    /// [`FaultPlan::fail_at_site`] via `filter`).
    pub fn skip_sync_at(n: u64, filter: Option<&str>) -> Arc<Self> {
        Arc::new(FaultPlan::new(
            Some(n),
            FaultKind::SkipSync,
            filter.map(str::to_owned),
            false,
        ))
    }

    /// Number of matching fault sites traversed so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of times the plan fired (failed, tore, or dropped a sync).
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// Number of fsyncs silently dropped.
    pub fn dropped_syncs(&self) -> u64 {
        self.dropped_syncs.load(Ordering::Relaxed)
    }

    /// The site names traversed, in order ([`FaultPlan::count_sites`]
    /// plans only).
    pub fn sites(&self) -> Vec<String> {
        self.log.lock().clone()
    }

    /// Resolve what `site` must do under this plan, advancing the
    /// deterministic site counter.
    fn on_site(&self, site: &str) -> SiteAction {
        if let Some(filter) = &self.filter {
            if !site.contains(filter.as_str()) {
                return SiteAction::Proceed;
            }
        }
        if self.record {
            self.log.lock().push(site.to_owned());
        }
        let n = self.hits.fetch_add(1, Ordering::SeqCst);
        if self.trigger != Some(n) {
            return SiteAction::Proceed;
        }
        self.fired.fetch_add(1, Ordering::SeqCst);
        match self.kind {
            FaultKind::Fail => SiteAction::Fail,
            FaultKind::Tear(k) => SiteAction::Tear(k),
            FaultKind::SkipSync => {
                if site.ends_with("sync") {
                    self.dropped_syncs.fetch_add(1, Ordering::SeqCst);
                    SiteAction::SkipSync
                } else {
                    SiteAction::Proceed
                }
            }
        }
    }
}

fn injected(site: &str) -> std::io::Error {
    std::io::Error::other(format!("injected fault at {site}"))
}

/// `true` iff an error (io or store) was produced by an installed
/// [`FaultPlan`] rather than a real filesystem failure.
pub fn is_injected(msg: &str) -> bool {
    msg.contains("injected fault at ")
}

// --- process-global plan, consulted by the fs-level fault sites ---

static ACTIVE: AtomicBool = AtomicBool::new(false);
static PLAN: OnceLock<RwLock<Option<Arc<FaultPlan>>>> = OnceLock::new();

fn plan_cell() -> &'static RwLock<Option<Arc<FaultPlan>>> {
    PLAN.get_or_init(|| RwLock::new(None))
}

/// Install `plan` as the process-global fault plan; every durable fs
/// operation consults it until [`uninstall`] is called. Tests sharing a
/// binary must serialize installs.
pub fn install(plan: Arc<FaultPlan>) {
    *plan_cell().write() = Some(plan);
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Remove the process-global fault plan; fs operations go back to the
/// single relaxed-load fast path.
pub fn uninstall() {
    ACTIVE.store(false, Ordering::SeqCst);
    *plan_cell().write() = None;
}

fn current() -> Option<Arc<FaultPlan>> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    plan_cell().read().clone()
}

/// Parse `DSV_FAULT` (`fail:N[:substr]`, `tear:N:K[:substr]`,
/// `skipsync:N[:substr]`) and install the plan it describes, returning it
/// for inspection. Unset or malformed values install nothing.
pub fn install_from_env() -> Option<Arc<FaultPlan>> {
    let spec = std::env::var("DSV_FAULT").ok()?;
    let plan = parse_spec(&spec)?;
    install(Arc::clone(&plan));
    Some(plan)
}

fn parse_spec(spec: &str) -> Option<Arc<FaultPlan>> {
    let mut parts = spec.splitn(4, ':');
    let kind = parts.next()?;
    let n: u64 = parts.next()?.parse().ok()?;
    match kind {
        "fail" => Some(match parts.next() {
            Some(site) => FaultPlan::fail_at_site(n, site),
            None => FaultPlan::fail_at(n),
        }),
        "tear" => {
            let k: usize = parts.next()?.parse().ok()?;
            Some(FaultPlan::tear_at(n, k))
        }
        "skipsync" => Some(FaultPlan::skip_sync_at(n, parts.next())),
        _ => None,
    }
}

// --- fs-level fault sites: the only durable-write primitives the
// workspace uses ---

/// Write `bytes` to `f` through the fault site `"<label>.write"`,
/// honouring torn-write injection.
pub fn write_all(f: &mut std::fs::File, bytes: &[u8], label: &str) -> std::io::Result<()> {
    let site = format!("{label}.write");
    match current().map(|p| p.on_site(&site)) {
        None | Some(SiteAction::Proceed) | Some(SiteAction::SkipSync) => f.write_all(bytes),
        Some(SiteAction::Fail) => Err(injected(&site)),
        Some(SiteAction::Tear(k)) => {
            let k = k.min(bytes.len());
            f.write_all(&bytes[..k])?;
            f.sync_all()?; // the torn prefix really is on disk
            Err(injected(&site))
        }
    }
}

/// `sync_all` through the fault site `"<label>.sync"`; a
/// [`FaultKind::SkipSync`] plan silently drops it.
pub fn sync_file(f: &std::fs::File, label: &str) -> std::io::Result<()> {
    let site = format!("{label}.sync");
    match current().map(|p| p.on_site(&site)) {
        None | Some(SiteAction::Proceed) => f.sync_all(),
        Some(SiteAction::SkipSync) => Ok(()),
        Some(SiteAction::Fail) | Some(SiteAction::Tear(_)) => Err(injected(&site)),
    }
}

/// `rename` through the fault site `"<label>.rename"`.
pub fn rename(from: &Path, to: &Path, label: &str) -> std::io::Result<()> {
    let site = format!("{label}.rename");
    match current().map(|p| p.on_site(&site)) {
        None | Some(SiteAction::Proceed) | Some(SiteAction::SkipSync) => std::fs::rename(from, to),
        Some(SiteAction::Fail) | Some(SiteAction::Tear(_)) => Err(injected(&site)),
    }
}

/// fsync a directory (so a rename within it is durable) through the
/// fault site `"<label>.dirsync"`.
pub fn sync_dir(dir: &Path, label: &str) -> std::io::Result<()> {
    let site = format!("{label}.dirsync");
    match current().map(|p| p.on_site(&site)) {
        None | Some(SiteAction::Proceed) => std::fs::File::open(dir)?.sync_all(),
        Some(SiteAction::SkipSync) => Ok(()),
        Some(SiteAction::Fail) | Some(SiteAction::Tear(_)) => Err(injected(&site)),
    }
}

/// `remove_file` through the fault site `"<label>.remove"` (crashes
/// mid-GC are part of the sweep). Missing files are ignored.
pub fn remove_file(path: &Path, label: &str) -> std::io::Result<()> {
    let site = format!("{label}.remove");
    match current().map(|p| p.on_site(&site)) {
        None | Some(SiteAction::Proceed) | Some(SiteAction::SkipSync) => {
            match std::fs::remove_file(path) {
                Ok(()) => Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
                Err(e) => Err(e),
            }
        }
        Some(SiteAction::Fail) | Some(SiteAction::Tear(_)) => Err(injected(&site)),
    }
}

/// Crash-atomically replace `path` with `bytes`: write `path.tmp`, fsync
/// it, rename over `path`, fsync the parent directory. A crash at any
/// point leaves either the old file or the new file, never a torn one.
/// Each step is a fault site under `label`.
pub fn atomic_write_file(path: &Path, bytes: &[u8], label: &str) -> std::io::Result<()> {
    let parent = path
        .parent()
        .ok_or_else(|| std::io::Error::other("atomic write target has no parent"))?;
    std::fs::create_dir_all(parent)?;
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        write_all(&mut f, bytes, label)?;
        sync_file(&f, label)?;
    }
    rename(&tmp, path, label)?;
    sync_dir(parent, label)
}

// --- store-boundary fault injection ---

/// An [`ObjectStore`] wrapper that injects its [`FaultPlan`] at the trait
/// boundary: sites `"store.put"`, `"store.get"`, `"store.remove"` (batch
/// calls traverse one site per element, so a plan can fail *mid-batch*
/// the way a crash would). Reads and membership of objects already stored
/// are otherwise forwarded untouched.
pub struct FaultStore<S> {
    inner: S,
    plan: Arc<FaultPlan>,
}

impl<S: ObjectStore> FaultStore<S> {
    /// Wrap `inner`, injecting `plan` at the trait boundary.
    pub fn new(inner: S, plan: Arc<FaultPlan>) -> Self {
        FaultStore { inner, plan }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn gate(&self, site: &str) -> Result<(), StoreError> {
        match self.plan.on_site(site) {
            SiteAction::Proceed | SiteAction::SkipSync => Ok(()),
            SiteAction::Fail | SiteAction::Tear(_) => {
                Err(StoreError::Io(format!("injected fault at {site}")))
            }
        }
    }
}

impl<S: ObjectStore> ObjectStore for FaultStore<S> {
    fn put(&self, obj: &Object) -> Result<ObjectId, StoreError> {
        self.gate("store.put")?;
        self.inner.put(obj)
    }

    fn get(&self, id: ObjectId) -> Result<Object, StoreError> {
        self.gate("store.get")?;
        self.inner.get(id)
    }

    fn put_batch(&self, objs: &[Object]) -> Result<Vec<ObjectId>, StoreError> {
        // One site per element: a firing plan leaves the prefix written,
        // exactly like a crash mid-batch (the batch contract says no
        // partial-failure cleanup).
        let mut ids = Vec::with_capacity(objs.len());
        for obj in objs {
            self.gate("store.put")?;
            ids.push(self.inner.put(obj)?);
        }
        Ok(ids)
    }

    fn get_batch(&self, ids: &[ObjectId]) -> Result<Vec<Object>, StoreError> {
        ids.iter()
            .map(|&id| {
                self.gate("store.get")?;
                self.inner.get(id)
            })
            .collect()
    }

    fn contains_batch(&self, ids: &[ObjectId]) -> Result<Vec<bool>, StoreError> {
        self.inner.contains_batch(ids)
    }

    fn remove_batch(&self, ids: &[ObjectId]) -> Result<(), StoreError> {
        // One site per element, like `put_batch`: the prefix is removed.
        for &id in ids {
            self.gate("store.remove")?;
            self.inner.remove(id)?;
        }
        Ok(())
    }

    fn object_ids(&self) -> Result<Vec<ObjectId>, StoreError> {
        self.inner.object_ids()
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn compresses(&self) -> bool {
        self.inner.compresses()
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn remote_addrs(&self) -> Vec<String> {
        self.inner.remote_addrs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn obj(i: u8) -> Object {
        Object::Full {
            data: format!("fault test object {i}").into_bytes(),
        }
    }

    #[test]
    fn count_plan_enumerates_store_sites() {
        let plan = FaultPlan::count_sites();
        let store = FaultStore::new(MemStore::new(false), Arc::clone(&plan));
        let objs: Vec<Object> = (0..3).map(obj).collect();
        let ids = store.put_batch(&objs).unwrap();
        store.get(ids[0]).unwrap();
        store.remove(ids[2]).unwrap();
        assert_eq!(
            plan.sites(),
            vec![
                "store.put",
                "store.put",
                "store.put",
                "store.get",
                "store.remove"
            ]
        );
        assert_eq!(plan.fired(), 0);
    }

    #[test]
    fn fail_at_cuts_a_batch_mid_way() {
        let plan = FaultPlan::fail_at(1);
        let store = FaultStore::new(MemStore::new(false), Arc::clone(&plan));
        let objs: Vec<Object> = (0..3).map(obj).collect();
        let err = store.put_batch(&objs).unwrap_err();
        assert!(matches!(err, StoreError::Io(ref m) if is_injected(m)));
        // The prefix stays written — content addressing makes the retry
        // converge.
        assert_eq!(store.len(), 1);
        assert!(store.contains(objs[0].id()).unwrap());
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn global_plan_tears_writes_and_drops_syncs() {
        let dir = std::env::temp_dir().join(format!("dsv-fault-fs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("meta");

        // Baseline: atomic_write_file lands the full content.
        atomic_write_file(&target, b"old contents", "meta").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"old contents");

        // Torn write: the tmp file holds a prefix, the target is intact.
        install(FaultPlan::tear_at(0, 3));
        let err = atomic_write_file(&target, b"new contents", "meta").unwrap_err();
        uninstall();
        assert!(is_injected(&err.to_string()));
        assert_eq!(std::fs::read(&target).unwrap(), b"old contents");
        assert_eq!(std::fs::read(target.with_extension("tmp")).unwrap(), b"new");

        // Dropped fsync: the call succeeds, the plan records the loss.
        let plan = FaultPlan::skip_sync_at(0, Some("meta.sync"));
        install(Arc::clone(&plan));
        atomic_write_file(&target, b"new contents", "meta").unwrap();
        uninstall();
        assert_eq!(std::fs::read(&target).unwrap(), b"new contents");
        assert_eq!(plan.dropped_syncs(), 1);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn env_specs_parse() {
        let p = parse_spec("fail:7").unwrap();
        assert_eq!((p.trigger, p.kind), (Some(7), FaultKind::Fail));
        let p = parse_spec("fail:0:journal").unwrap();
        assert_eq!(p.filter.as_deref(), Some("journal"));
        let p = parse_spec("tear:2:128").unwrap();
        assert_eq!((p.trigger, p.kind), (Some(2), FaultKind::Tear(128)));
        let p = parse_spec("skipsync:1:meta").unwrap();
        assert_eq!(p.kind, FaultKind::SkipSync);
        assert!(parse_spec("bogus:1").is_none());
        assert!(parse_spec("fail").is_none());
    }
}
