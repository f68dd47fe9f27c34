//! Integrity checking and crash recovery (`dsv fsck`).
//!
//! The crash model (see [`crate::persist`]) guarantees that a crash at
//! any point leaves a *loadable* repository whose history is either
//! fully-old-plan or fully-new-plan — but it deliberately leaves debris
//! behind: orphaned objects from an interrupted commit or repack, and a
//! pending `repack.journal` naming an intent that may or may not have
//! become durable. This module turns that debris back into a pristine
//! repository:
//!
//! - [`fsck`] verifies every content address the store enumerates
//!   ([`ObjectStore::object_ids`]; fetch + re-hash), rebuilds every
//!   version along its recreation path from the cold store, and reports
//!   objects no version references. A store that cannot enumerate, or a
//!   manifest that cannot be read, is recorded and makes the report not
//!   clean — orphans are never guessed from an incomplete picture. The
//!   rebuild is one pass with
//!   a pass-local memo: every object on every version's path is still
//!   read from the store and every version is still fully rebuilt within
//!   the pass; what is gone is reading and decoding the same object again
//!   for each version above it (a chain's root once per version).
//! - [`recover`] resolves a pending repack journal: if the loaded
//!   metadata already references the journaled new plan the repack is
//!   rolled *forward* (the interrupted GC finishes); otherwise it is
//!   rolled *back* (unreferenced new objects are dropped). The journal
//!   is cleared once every removal succeeded; a store failure returns the
//!   error with the journal in place, before or between removals.
//!   `dsvd` runs this at startup before serving.
//! - [`fsck_repair`] = recover + fsck + orphan GC.
//!
//! All three are deterministic and idempotent: running them twice (or
//! crashing *during* repair and re-running) converges to the same clean
//! state, because every destructive step goes through the collector
//! (`gc::collect`): it removes only objects outside the referenced
//! closure — and a closure that could not be read in full removes
//! nothing.

use crate::error::VcsError;
use crate::gc::{self, Roots};
use crate::persist;
use crate::repo::Repository;
use dsv_net::proto::{FsckSummary, WireRecovery};
use dsv_obs as obs;
use dsv_storage::{ObjectId, ObjectStore, StoreError};
use std::collections::HashSet;
use std::fmt;
use std::path::Path;

/// What [`recover`] found and did about a pending repack journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recovery {
    /// No journal: the last shutdown completed every repack it started.
    Clean,
    /// The metadata swap was durable before the crash; the interrupted
    /// GC of the old plan's objects was finished now.
    RolledForward {
        /// Stale objects removed to finish the interrupted GC.
        removed: usize,
    },
    /// The crash hit before the metadata swap became durable; the new
    /// plan's unreferenced objects were dropped, returning the store to
    /// the old plan exactly.
    RolledBack {
        /// Orphaned new-plan objects removed.
        removed: usize,
    },
}

/// Structured result of an [`fsck`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Versions whose recreation path was walked to materialization.
    pub versions_checked: usize,
    /// Objects fetched and re-hashed against their content address.
    pub objects_checked: usize,
    /// Objects whose bytes no longer hash to their address.
    pub bad_addresses: Vec<ObjectId>,
    /// Versions that could not be materialized, with the failure.
    pub unreadable: Vec<(u32, String)>,
    /// Stored objects referenced by no version (commit/repack debris).
    /// Empty when the reference closure or the enumeration is incomplete
    /// (see `unreadable`, `store_failure`).
    pub orphans: Vec<ObjectId>,
    /// The store could not enumerate its objects (no address was
    /// verified and no orphan looked for), or could not read one back to
    /// verify its address.
    pub store_failure: Option<String>,
    /// A repack journal is pending — run [`recover`] (or
    /// `fsck --repair`) to resolve it.
    pub journal_pending: bool,
    /// Orphans removed by [`fsck_repair`] (0 for read-only checks).
    pub orphans_removed: usize,
    /// What journal recovery did (None for read-only checks).
    pub recovery: Option<Recovery>,
}

impl FsckReport {
    /// True when the repository needs no repair: every address verifies,
    /// every version materializes, nothing is orphaned, the store
    /// answered, and no repack journal is pending.
    pub fn is_clean(&self) -> bool {
        self.bad_addresses.is_empty()
            && self.unreadable.is_empty()
            && self.orphans.is_empty()
            && self.store_failure.is_none()
            && !self.journal_pending
    }

    /// The report flattened to counts: what travels in a `FsckOk` frame
    /// (the offending ids stay on this side) and what gets printed.
    pub fn summary(&self) -> FsckSummary {
        FsckSummary {
            clean: self.is_clean(),
            versions_checked: self.versions_checked as u64,
            objects_checked: self.objects_checked as u64,
            bad_addresses: self.bad_addresses.len() as u64,
            unreadable: self.unreadable.len() as u64,
            orphans: self.orphans.len() as u64,
            orphans_removed: self.orphans_removed as u64,
            journal_pending: self.journal_pending,
            recovery: self.recovery.as_ref().map(|r| match *r {
                Recovery::Clean => WireRecovery::Clean,
                Recovery::RolledForward { removed } => WireRecovery::RolledForward {
                    removed: removed as u64,
                },
                Recovery::RolledBack { removed } => WireRecovery::RolledBack {
                    removed: removed as u64,
                },
            }),
        }
    }
}

/// Renders through the summary's `Display`, so a report reads the same
/// printed here, by `dsv fsck`, or by `dsv --remote … fsck` — plus the
/// store failure, which has no wire field and stays on this side.
impl fmt::Display for FsckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.summary().fmt(f)?;
        match &self.store_failure {
            Some(e) => write!(f, " (STORE FAILURE: {e})"),
            None => Ok(()),
        }
    }
}

/// The full set of object ids the repository's history references: every
/// version's object plus, for chunk manifests, the chunk objects they
/// name. A version object that cannot be read fails the closure with the
/// version's number: it may be a manifest, and with its chunks left out
/// they would read as orphans and be collected.
fn referenced<S: ObjectStore>(
    repo: &Repository<S>,
) -> Result<HashSet<ObjectId>, (usize, StoreError)> {
    gc::closure(&repo.store, &repo.objects, Roots::Referenced)
}

/// Read-only integrity check; see the module docs for what it covers.
/// Pass the persistence root as `root` to also flag a pending repack
/// journal (`None` for purely in-memory repositories).
pub fn fsck<S: ObjectStore>(repo: &Repository<S>, root: Option<&Path>) -> FsckReport {
    check(repo, root, referenced(repo).as_ref())
}

/// [`fsck`] against an already-computed reference closure.
fn check<S: ObjectStore>(
    repo: &Repository<S>,
    root: Option<&Path>,
    closure: Result<&HashSet<ObjectId>, &(usize, StoreError)>,
) -> FsckReport {
    let _span = obs::span!("fsck", versions = repo.version_count()).entered();
    obs::counter!("fsck.runs", 1);
    let mut report = FsckReport::default();

    // 1. Every stored object's bytes must hash back to its address:
    // everything the store holds, corrupt orphans included.
    let enumerated = repo.store.object_ids().unwrap_or_else(|e| {
        report.store_failure = Some(e.to_string());
        Vec::new()
    });
    // Bytes that fail to decode or hash elsewhere are bad addresses; a
    // read the store could not carry out is a store failure, not a
    // verdict on the object.
    for id in &enumerated {
        report.objects_checked += 1;
        match repo.store.get(*id) {
            Ok(obj) if obj.id() == *id => {}
            Ok(_) | Err(StoreError::Corrupt(_)) => report.bad_addresses.push(*id),
            Err(e) => {
                report.store_failure.get_or_insert_with(|| e.to_string());
            }
        }
    }
    report.bad_addresses.sort();

    // 2. Every version must materialize from the cold store: its full
    // recreation path (delta chain or chunk reassembly) is rebuilt within
    // this pass, starting from an empty pass-local memo, so every object
    // on the path is read from the store — once, however many versions
    // sit above it.
    // A version the closure could not read is unreadable even if the
    // rebuild then gets through (a transient failure).
    let m = repo.materializer(true, repo.objects.len());
    for (v, id) in repo.objects.iter().enumerate() {
        report.versions_checked += 1;
        let outcome = match closure {
            Err((failed, e)) if *failed == v => Err(e.to_string()),
            _ => m.materialize(*id).map(drop).map_err(|e| e.to_string()),
        };
        if let Err(e) = outcome {
            report.unreadable.push((v as u32, e));
        }
    }

    // 3. Orphans — only against a complete closure.
    if let Ok(closure) = closure {
        report.orphans = enumerated
            .into_iter()
            .filter(|id| !closure.contains(id))
            .collect();
        report.orphans.sort();
    }

    // 4. Pending repack journal.
    if let Some(root) = root {
        report.journal_pending = !matches!(persist::read_journal(root), Ok(None));
    }
    report
}

/// Resolves a pending repack journal at `root`, if any (see
/// [`Recovery`]). Safe to call on a clean repository; idempotent under
/// crashes — every removal targets only objects outside the referenced
/// closure, and the journal is cleared last. A store failure — reading
/// the closure, or removing — is returned with the journal still in
/// place, so the next run finishes the job.
pub fn recover<S: ObjectStore>(
    repo: &mut Repository<S>,
    root: &Path,
) -> Result<Recovery, VcsError> {
    let Some(journal) = persist::read_journal(root)? else {
        return Ok(Recovery::Clean);
    };
    let _span = obs::span!("fsck.recover").entered();
    let live = referenced(repo).map_err(|(_, e)| e)?;
    let recovery = if repo.objects == journal.new_objects {
        // The metadata swap became durable: the crash hit during (or
        // before) the stale-object GC. Finish it. Content addressing can
        // make a "stale" id live again under the new plan, so the
        // collector filters by the closure rather than trusting the
        // journal blindly.
        Recovery::RolledForward {
            removed: gc::collect(&repo.store, &journal.stale, &live)?,
        }
    } else {
        // The swap never became durable: disk metadata still names the
        // old plan, so the journaled new objects (and any chunks only
        // they reference) are orphans. Drop the ones the old plan does
        // not also reference.
        let new_side: Vec<ObjectId> =
            gc::closure(&repo.store, &journal.new_objects, Roots::Journaled)
                .map_err(|(_, e)| e)?
                .into_iter()
                .collect();
        Recovery::RolledBack {
            removed: gc::collect(&repo.store, &new_side, &live)?,
        }
    };
    persist::clear_journal(root)?;
    Ok(recovery)
}

/// Repairing fsck: drop the staging files of puts that never published
/// ([`persist::sweep_unpublished`]), resolve any pending journal
/// ([`recover`]), then check and remove whatever orphans remain. Like the
/// orphan GC, the sweep takes the caller to be the repository's only
/// writer. The returned report reflects the
/// *post-repair* state plus what was done (`recovery`,
/// `orphans_removed`); a report that is still not
/// [`clean`](FsckReport::is_clean) means real corruption (bad addresses
/// or unreadable versions) that deleting debris cannot fix. A failed
/// removal is returned as the error it is; the orphans it left are found
/// again by the next run.
pub fn fsck_repair<S: ObjectStore>(
    repo: &mut Repository<S>,
    root: Option<&Path>,
) -> Result<FsckReport, VcsError> {
    let recovery = match root {
        Some(root) => {
            let swept = persist::sweep_unpublished(root)?;
            obs::counter!("fsck.unpublished_removed", swept as u64);
            Some(recover(repo, root)?)
        }
        None => None,
    };
    // An unreadable manifest ends the repair here, before its chunks can
    // be taken for orphans.
    let live = referenced(repo).map_err(|(_, e)| e)?;
    let mut report = check(repo, root, Ok(&live));
    report.recovery = recovery;
    if !report.orphans.is_empty() {
        let orphans = std::mem::take(&mut report.orphans);
        obs::counter!("fsck.orphans_removed", orphans.len() as u64);
        report.orphans_removed = gc::collect(&repo.store, &orphans, &live)?;
    }
    Ok(report)
}

/// Convenience composition for server startup and CLI `--repair`:
/// recover + repair an on-disk repository and persist nothing extra
/// (repair touches only the object store; `meta.dsv` is already
/// consistent by the crash model).
pub fn recover_at(
    root: &Path,
    compress: bool,
) -> Result<(Repository<persist::RepoStore>, FsckReport), VcsError> {
    let mut repo = persist::load(root, compress)?;
    let report = fsck_repair(&mut repo, Some(root))?;
    Ok((repo, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gc::sweep::{self, chunked_debris, TempDir};
    use crate::persist::RepackJournal;
    use dsv_core::{PlanSpec, Problem};
    use dsv_storage::{FaultPlan, FaultStore, MemStore, Object};

    fn csv(rows: usize, tag: &str) -> Vec<u8> {
        let mut out = b"id,value\n".to_vec();
        for i in 0..rows {
            out.extend_from_slice(format!("{i},{tag}-{}\n", i * 7).as_bytes());
        }
        out
    }

    /// Where `disk_repo`'s `FileStore` keeps object `id`.
    fn object_path(dir: &Path, id: ObjectId) -> std::path::PathBuf {
        let hex = id.to_hex();
        dir.join("objects").join(&hex[..2]).join(&hex[2..])
    }

    fn disk_repo(dir: &Path) -> Repository<persist::RepoStore> {
        let mut repo = Repository::init(persist::RepoStore::Flat(
            dsv_storage::FileStore::open(&dir.join("objects"), true).unwrap(),
        ));
        let mut data = csv(200, "x");
        repo.commit("main", &data, "v0").unwrap();
        for i in 0..5 {
            data.extend_from_slice(format!("{},grown\n", 200 + i).as_bytes());
            repo.commit("main", &data, "grow").unwrap();
        }
        persist::save(&repo, dir).unwrap();
        repo
    }

    #[test]
    fn clean_repo_fscks_clean() {
        let dir = TempDir::new("clean");
        let repo = disk_repo(&dir.0);
        let report = fsck(&repo, Some(&dir.0));
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.versions_checked, 6);
        assert!(report.objects_checked >= 6);
        assert!(report.to_string().contains("clean"));
    }

    #[test]
    fn orphans_are_reported_and_repaired() {
        let dir = TempDir::new("orphan");
        let mut repo = disk_repo(&dir.0);
        // Debris: an object no version references.
        repo.store
            .put(&Object::Full {
                data: b"interrupted commit leftovers".to_vec(),
            })
            .unwrap();
        let report = fsck(&repo, Some(&dir.0));
        assert_eq!(report.orphans.len(), 1);
        assert!(!report.is_clean());
        let repaired = fsck_repair(&mut repo, Some(&dir.0)).unwrap();
        assert_eq!(repaired.orphans_removed, 1);
        assert!(repaired.is_clean(), "{repaired}");
        assert!(fsck(&repo, Some(&dir.0)).is_clean());
        // All versions still checkout.
        for v in 0..repo.version_count() as u32 {
            repo.checkout(crate::CommitId(v)).unwrap();
        }
    }

    #[test]
    fn corrupt_object_is_flagged() {
        let dir = TempDir::new("corrupt");
        let repo = disk_repo(&dir.0);
        // Flip bytes in one stored object file.
        let victim = repo.objects[3];
        std::fs::write(
            object_path(&dir.0, victim),
            b"garbage that is not the object",
        )
        .unwrap();
        let report = fsck(&repo, Some(&dir.0));
        assert!(!report.is_clean());
        assert!(report.bad_addresses.contains(&victim));
        assert!(!report.unreadable.is_empty(), "chain through v3 breaks");
    }

    /// Step 2 as it was before the pass-local memo: one uncached walk
    /// per version. The oracle for what the memoized pass must report.
    fn uncached_walks<S: ObjectStore>(repo: &Repository<S>) -> (usize, Vec<(u32, String)>) {
        let m = dsv_storage::Materializer::new(&repo.store);
        let unreadable = repo
            .objects
            .iter()
            .enumerate()
            .filter_map(|(v, id)| Some((v as u32, m.materialize(*id).err()?.to_string())))
            .collect();
        (repo.objects.len(), unreadable)
    }

    #[test]
    fn memoized_pass_reports_what_uncached_walks_report() {
        let check = |repo: &Repository<persist::RepoStore>, root: &Path, what: &str| {
            let report = fsck(repo, Some(root));
            let (versions, unreadable) = uncached_walks(repo);
            assert_eq!(report.versions_checked, versions, "{what}");
            assert_eq!(report.unreadable, unreadable, "{what}");
            report
        };
        let dir = TempDir::new("memo-clean");
        let mut repo = disk_repo(&dir.0);
        assert!(check(&repo, &dir.0, "clean").is_clean());

        // Crash debris: an orphan and a pending journal change nothing
        // about what is readable.
        let orphan = repo
            .store
            .put(&Object::Full {
                data: b"interrupted commit leftovers".to_vec(),
            })
            .unwrap();
        persist::write_journal(
            &dir.0,
            &RepackJournal {
                new_objects: repo.objects.clone(),
                stale: vec![],
            },
        )
        .unwrap();
        let report = check(&repo, &dir.0, "debris");
        assert_eq!(report.orphans, vec![orphan]);
        assert!(report.journal_pending && report.unreadable.is_empty());

        // Garbage in the middle of the chain: v3 and everything above it.
        let victim = repo.objects[3];
        std::fs::write(object_path(&dir.0, victim), b"garbage, not an object").unwrap();
        let report = check(&repo, &dir.0, "corrupt object");
        assert_eq!(report.bad_addresses, vec![victim]);
        assert_eq!(report.unreadable.len(), 3);

        // A missing base: v1 is gone, v0 alone survives.
        let dir = TempDir::new("memo-missing");
        repo = disk_repo(&dir.0);
        std::fs::remove_file(object_path(&dir.0, repo.objects[1])).unwrap();
        let report = check(&repo, &dir.0, "missing base");
        assert_eq!(report.unreadable.len(), 5);
        assert!(report.unreadable[0].1.contains("not found"));
    }

    #[test]
    fn each_stored_object_is_fetched_once_per_step() {
        use dsv_storage::fault::{FaultPlan, FaultStore};
        use dsv_storage::MemStore;
        let sites = FaultPlan::count_sites();
        let mut repo = Repository::init(FaultStore::new(MemStore::new(true), sites.clone()));
        let mut data = csv(200, "x");
        for i in 0..12 {
            data.extend_from_slice(format!("{},grown\n", 200 + i).as_bytes());
            repo.commit("main", &data, "grow").unwrap();
        }
        let n = repo.version_count();
        assert_eq!(repo.store.len(), n, "one chain: a root and n - 1 deltas");
        let before = sites.hits();
        let report = fsck(&repo, None);
        let gets = sites.sites()[before as usize..]
            .iter()
            .filter(|s| *s == "store.get")
            .count();
        assert!(report.is_clean(), "{report}");
        // The reference closure and the address check read every object
        // once each; so does the rebuild of all n versions — not the
        // n (n + 1) / 2 objects their chains add up to.
        assert_eq!(gets, 3 * n);
    }

    /// How many `store.get` sites `plan` has counted so far.
    fn reads(plan: &FaultPlan) -> u64 {
        plan.sites().iter().filter(|s| *s == "store.get").count() as u64
    }

    #[test]
    fn a_failed_store_read_never_lets_repair_collect_live_chunks() {
        // The closure used to skip a manifest it could not read: its
        // chunks then counted as orphans, and `fsck --repair` and both
        // arms of `recover` removed them.
        sweep::sweep("fsck_repair");
    }

    #[test]
    fn an_incomplete_closure_reports_the_version_and_no_orphans() {
        let dir = TempDir::new("closure-readonly");
        let counting = FaultPlan::count_sites();
        let repo = chunked_debris("orphan", counting.clone(), &dir.0);
        // The next `store.get` is the closure's read of v0's manifest.
        let next = reads(&counting);
        assert_eq!(fsck(&repo, None).orphans.len(), 1);
        let plan = FaultPlan::fail_at_site(next, "store.get");
        let repo = chunked_debris("orphan", plan.clone(), &dir.0);
        let report = fsck(&repo, None);
        assert_eq!(plan.fired(), 1);
        assert!(!report.is_clean());
        assert!(report.orphans.is_empty(), "{report}");
        assert_eq!(report.unreadable.len(), 1);
        assert_eq!(report.unreadable[0].0, 0);
        assert!(dsv_storage::fault::is_injected(&report.unreadable[0].1));
    }

    #[test]
    fn a_failed_read_in_the_address_pass_is_a_store_failure_not_a_bad_address() {
        // It used to file the failed read under "bytes no longer hash to
        // their address".
        let history = |plan| {
            let mut repo = Repository::init(FaultStore::new(MemStore::new(true), plan));
            let mut data = csv(100, "x");
            for i in 0..4 {
                data.extend_from_slice(format!("{},grown\n", 100 + i).as_bytes());
                repo.commit("main", &data, "grow").unwrap();
            }
            repo
        };
        let counting = FaultPlan::count_sites();
        let n = history(counting.clone()).version_count() as u64;
        // The closure reads each version's object; the next read is the
        // address pass's first.
        let plan = FaultPlan::fail_at_site(reads(&counting) + n, "store.get");
        let report = fsck(&history(plan.clone()), None);
        assert_eq!(plan.fired(), 1);
        assert!(report.bad_addresses.is_empty(), "{report}");
        assert!(report.orphans.is_empty() && report.unreadable.is_empty());
        let failure = report.store_failure.as_deref().unwrap_or_default();
        assert!(dsv_storage::fault::is_injected(failure), "{report}");
        assert!(!report.is_clean());
    }

    #[test]
    fn absurd_compressed_length_is_reported_not_fatal() {
        // A ten-byte object file: `Full`, a coded payload that is only a
        // varint declaring 32 TiB (or 2^63 - 1, which overflows a
        // capacity). Under the LZ codec `lz::decompress` used to abort the
        // process on it; the Huffman codec is held to the same.
        let huge: &[u8] = &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x08];
        let overflow: &[u8] = &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        for codec in [1u8, 2] {
            for (tag, declared) in [("huge", huge), ("overflow", overflow)] {
                let dir = TempDir::new(&format!("{tag}-{codec}"));
                let repo = disk_repo(&dir.0);
                let mut bytes = vec![0u8, codec, declared.len() as u8];
                bytes.extend_from_slice(declared);
                let victim = repo.objects[0];
                std::fs::write(object_path(&dir.0, victim), &bytes).unwrap();
                let report = fsck(&repo, Some(&dir.0));
                assert_eq!(report.bad_addresses, vec![victim]);
                assert_eq!(report.unreadable.len(), repo.version_count());
                assert!(report.unreadable[0].1.contains("bad compression"));
                assert!(repo.checkout(crate::CommitId(0)).is_err());
            }
        }
    }

    #[test]
    fn damaged_huffman_objects_are_reported_not_fatal() {
        // The root as the store wrote it: tag 0, codec 2, a two-byte
        // length, then the stream — two bytes of declared length, four of
        // group bits, a mask per group, the code lengths.
        let pristine = TempDir::new("huff-pristine");
        let root = disk_repo(&pristine.0).objects[0];
        let good = std::fs::read(object_path(&pristine.0, root)).unwrap();
        assert_eq!(good[..2], [0, 2]);
        assert!(good[2] & 0x80 != 0 && good[3] & 0x80 == 0 && good[2] & 0x7f != 0);
        let stream_at = 4;
        let groups = u32::from_le_bytes(*good[stream_at + 2..].first_chunk().unwrap());
        let masks_at = stream_at + 2 + 4;
        let lengths_at = masks_at + groups.count_ones() as usize;

        let mut oversubscribed = good.clone();
        oversubscribed[lengths_at] = 0x11;
        let mut empty_group = good.clone();
        empty_group[masks_at] = 0;
        let mut truncated = good[..good.len() - 1].to_vec();
        truncated[2] -= 1;
        let mut trailing = good.clone();
        trailing.push(0);
        trailing[2] += 1;
        for (tag, bytes) in [
            ("oversubscribed", oversubscribed),
            ("empty-group", empty_group),
            ("truncated", truncated),
            ("trailing", trailing),
        ] {
            let dir = TempDir::new(&format!("huff-{tag}"));
            let repo = disk_repo(&dir.0);
            std::fs::write(object_path(&dir.0, root), &bytes).unwrap();
            let report = fsck(&repo, Some(&dir.0));
            assert_eq!(report.bad_addresses, vec![root], "{tag}");
            assert_eq!(report.unreadable.len(), repo.version_count(), "{tag}");
            assert!(report.unreadable[0].1.contains("bad compression"), "{tag}");
            assert!(repo.checkout(crate::CommitId(0)).is_err(), "{tag}");
        }
    }

    #[test]
    fn repair_sweeps_the_staging_file_of_a_put_that_never_published() {
        let dir = TempDir::new("unpublished");
        let mut repo = disk_repo(&dir.0);
        let clean = repo.store.total_bytes();
        let staging = object_path(&dir.0, repo.objects[0]).with_file_name("deadbeef.tmp");
        std::fs::write(&staging, vec![0u8; 5000]).unwrap();
        // Not an object: nothing counts it, a read-only check leaves it.
        assert_eq!(repo.store.total_bytes(), clean);
        assert_eq!(repo.store.len(), repo.version_count());
        assert!(fsck(&repo, Some(&dir.0)).is_clean());
        assert!(staging.exists());
        let repaired = fsck_repair(&mut repo, Some(&dir.0)).unwrap();
        assert!(repaired.is_clean(), "{repaired}");
        assert!(!staging.exists());
        assert_eq!(repo.store.total_bytes(), clean);
    }

    #[test]
    fn pending_journal_rolls_forward_and_back() {
        let dir = TempDir::new("journal");
        let mut repo = disk_repo(&dir.0);

        // Roll back: journal names a new plan that never became durable.
        let phantom = repo
            .store
            .put(&Object::Full {
                data: b"packed but never swapped".to_vec(),
            })
            .unwrap();
        let mut new_objects = repo.objects.clone();
        new_objects[0] = phantom;
        persist::write_journal(
            &dir.0,
            &RepackJournal {
                new_objects,
                stale: vec![repo.objects[0]],
            },
        )
        .unwrap();
        assert!(fsck(&repo, Some(&dir.0)).journal_pending);
        let rec = recover(&mut repo, &dir.0).unwrap();
        assert_eq!(rec, Recovery::RolledBack { removed: 1 });
        assert!(!repo.store.contains(phantom).unwrap());
        assert!(fsck(&repo, Some(&dir.0)).is_clean());

        // Roll forward: metadata already matches the journal; stale
        // leftovers must go.
        let stale = repo
            .store
            .put(&Object::Full {
                data: b"old plan leftovers".to_vec(),
            })
            .unwrap();
        persist::write_journal(
            &dir.0,
            &RepackJournal {
                new_objects: repo.objects.clone(),
                stale: vec![stale],
            },
        )
        .unwrap();
        let rec = recover(&mut repo, &dir.0).unwrap();
        assert_eq!(rec, Recovery::RolledForward { removed: 1 });
        assert!(!repo.store.contains(stale).unwrap());
        assert!(fsck(&repo, Some(&dir.0)).is_clean());

        // Idempotent on a clean repository.
        assert_eq!(recover(&mut repo, &dir.0).unwrap(), Recovery::Clean);
    }

    #[test]
    fn recover_at_loads_and_repairs() {
        let dir = TempDir::new("recover-at");
        let mut repo = disk_repo(&dir.0);
        repo.optimize_durable(&PlanSpec::new(Problem::MinStorage), &dir.0)
            .unwrap();
        // Simulate a crash that left debris + a journal behind.
        repo.store
            .put(&Object::Full {
                data: b"debris".to_vec(),
            })
            .unwrap();
        persist::write_journal(
            &dir.0,
            &RepackJournal {
                new_objects: repo.objects.clone(),
                stale: vec![],
            },
        )
        .unwrap();
        drop(repo);
        let (reloaded, report) = recover_at(&dir.0, true).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.orphans_removed, 1);
        assert!(matches!(
            report.recovery,
            Some(Recovery::RolledForward { .. })
        ));
        assert_eq!(reloaded.version_count(), 6);
    }

    #[test]
    fn in_memory_repo_fscks_clean_without_a_root() {
        let mut repo = Repository::in_memory();
        repo.commit("main", &csv(50, "m"), "v0").unwrap();
        let report = fsck(&repo, None);
        assert!(report.is_clean());
        assert!(report.objects_checked >= 1);
        assert_eq!(report.recovery, None);
        // Unknown-object errors surface as unreadable versions.
        let missing: Result<Object, StoreError> =
            repo.store.get(ObjectId::from_hex(&"0".repeat(32)).unwrap());
        assert!(missing.is_err());
    }
}
