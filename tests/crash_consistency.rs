//! Crash-ordering sweep and server durability tests.
//!
//! The crash model (see `dsv_vcs::persist`) promises that a process
//! death at *any* durable filesystem operation leaves a loadable
//! repository whose history is either fully-old or fully-new, and that
//! `fsck --repair` (run automatically by `recover_at`) returns it to a
//! pristine state. These tests enforce that promise exhaustively: a
//! counting [`FaultPlan`] first enumerates every fault site an operation
//! traverses, then the operation is replayed once per site with an
//! injected failure at exactly that point, and the survivor must reload
//! clean with byte-identical checkouts.
//!
//! The server half covers the other two durability claims: a `dsvd`
//! whose metadata save fails rolls its in-memory state back (no
//! memory/disk divergence), and a commit retried with the same
//! idempotency token — including across a dropped connection — applies
//! exactly once.

mod common;

use common::TempDir;
use dsv_core::{PlanSpec, Problem};
use dsv_net::frame::NetError;
use dsv_net::server::{Server, ServerOptions};
use dsv_net::{Client, RetryPolicy};
use dsv_storage::fault::{self, FaultPlan};
use dsv_storage::{FileStore, ObjectStore};
use dsv_vcs::{fsck, persist, CommitId, Dsvd, DsvdConfig, OnlineOptions, RepoStore, Repository};
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

/// The fault plan is process-global, so every test in this binary that
/// installs one (or performs durable writes a concurrently installed
/// plan would intercept) serializes through this lock.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Two workers regardless of core count, so a test may hold one
/// connection open while a second one is served (the default pool is
/// one worker per core — a deadlock on a single-core builder).
fn bind_two_workers() -> Server {
    Server::bind_with(
        "127.0.0.1:0",
        ServerOptions {
            workers: 2,
            ..ServerOptions::default()
        },
    )
    .unwrap()
}

/// Deterministic version history: each version appends rows and edits
/// one, so consecutive versions delta well but differ everywhere.
fn version_contents(n: usize) -> Vec<Vec<u8>> {
    let mut rows: Vec<String> = (0..150).map(|i| format!("row-{i},{}\n", i * 13)).collect();
    let mut out = Vec::new();
    for v in 0..n {
        rows.push(format!("appended-{v},{}\n", v * 7));
        rows[v] = format!("edited-{v}\n");
        out.push(rows.concat().into_bytes());
    }
    out
}

/// Seed `root` with a FileStore-backed repository holding `base`
/// versions, saved durably. Must run with no fault plan installed.
fn seed(root: &Path, base: &[Vec<u8>]) -> Repository<RepoStore> {
    let mut repo = Repository::init(RepoStore::Flat(
        FileStore::open(&root.join("objects"), true).unwrap(),
    ));
    for (i, data) in base.iter().enumerate() {
        repo.commit("main", data, &format!("v{i}")).unwrap();
    }
    persist::save(&repo, root).unwrap();
    repo
}

/// How many `*.tmp` files sit anywhere under `dir`.
fn staging_files(dir: &Path) -> usize {
    let entries = std::fs::read_dir(dir).unwrap();
    entries
        .map(|entry| entry.unwrap().path())
        .map(|path| match path.is_dir() {
            true => staging_files(&path),
            false => usize::from(path.extension().is_some_and(|ext| ext == "tmp")),
        })
        .sum()
}

/// The sweep harness. `op` is one durable operation (commit, repack)
/// run against a freshly seeded repository; `new_versions` is what it
/// appends to the history when it completes. Pass 1 enumerates the
/// fault sites `op` traverses; pass 2 replays `op` once per site with
/// an injected failure there, then requires that [`fsck::recover_at`]
/// yields a clean repository whose history is fully-old or fully-new
/// and whose every version checks out byte-identically.
fn crash_sweep<F>(tag: &str, base: &[Vec<u8>], new_versions: &[Vec<u8>], op: F)
where
    F: Fn(&mut Repository<RepoStore>, &Path) -> Result<(), String>,
{
    let _guard = fault_lock();
    let dir = TempDir::new(tag);

    // Pass 1: count the crash points, and take the two clean footprints
    // a survivor may have: the seeded history's and the completed
    // operation's.
    let count_root = dir.0.join("count");
    let mut repo = seed(&count_root, base);
    let old_bytes = repo.store().total_bytes();
    let plan = FaultPlan::count_sites();
    fault::install(std::sync::Arc::clone(&plan));
    let clean_run = op(&mut repo, &count_root);
    fault::uninstall();
    clean_run.expect("the operation must succeed with a never-firing plan");
    let new_bytes = repo.store().total_bytes();
    let sites = plan.sites();
    assert!(
        !sites.is_empty(),
        "{tag}: a durable operation must traverse at least one fault site"
    );

    // Pass 2: fail at each site in turn.
    for (i, site) in sites.iter().enumerate() {
        let root = dir.0.join(format!("site-{i}"));
        let mut repo = seed(&root, base);
        let plan = FaultPlan::fail_at(i as u64);
        fault::install(std::sync::Arc::clone(&plan));
        let result = op(&mut repo, &root);
        fault::uninstall();
        // The in-memory repository "died" with the process; everything
        // below uses only what survived on disk.
        drop(repo);
        if let Err(e) = &result {
            assert!(
                fault::is_injected(e),
                "{tag} site {i} ({site}): unexpected real failure: {e}"
            );
        }
        assert_eq!(plan.fired(), 1, "{tag} site {i} ({site}) never fired");

        let (survivor, report) = fsck::recover_at(&root, true)
            .unwrap_or_else(|e| panic!("{tag} site {i} ({site}): reload failed: {e}"));
        assert!(
            report.is_clean(),
            "{tag} site {i} ({site}): not clean after repair: {report}"
        );
        let count = survivor.version_count();
        let full_new = base.len() + new_versions.len();
        assert!(
            count == base.len() || count == full_new,
            "{tag} site {i} ({site}): {count} versions is neither fully-old \
             ({}) nor fully-new ({full_new})",
            base.len()
        );
        // Nothing a crash left behind is counted as stored: not the
        // orphans (collected above) and not the staging file of a put that
        // died before its rename — at an `object` write, sync or rename
        // site that file used to stay, and inflate `total_bytes`, forever.
        let bytes = survivor.store().total_bytes();
        let clean_bytes = if new_versions.is_empty() {
            // A repack keeps the version count; recovery rolls it back or
            // forward.
            [old_bytes, new_bytes]
        } else if count == base.len() {
            [old_bytes; 2]
        } else {
            [new_bytes; 2]
        };
        assert!(
            clean_bytes.contains(&bytes),
            "{tag} site {i} ({site}): {bytes} bytes stored, clean is {clean_bytes:?}"
        );
        assert_eq!(
            staging_files(&root.join("objects")),
            0,
            "{tag} site {i} ({site}): recovery left an unpublished object file"
        );
        let expected: Vec<&Vec<u8>> = base.iter().chain(new_versions).collect();
        for (v, want) in expected.iter().enumerate().take(count) {
            let data = survivor
                .checkout(CommitId(v as u32))
                .unwrap_or_else(|e| panic!("{tag} site {i} ({site}): checkout v{v}: {e}"));
            assert_eq!(&&data, want, "{tag} site {i} ({site}): v{v} bytes diverged");
        }
        // Repair is idempotent: a second pass finds nothing to do.
        let (_, again) = fsck::recover_at(&root, true).unwrap();
        assert!(again.is_clean() && again.orphans_removed == 0);
    }
}

#[test]
fn commit_survives_a_crash_at_every_fault_site() {
    let all = version_contents(5);
    let (base, new) = all.split_at(4);
    crash_sweep("commit", base, new, |repo, root| {
        repo.commit_bounded("main", &new[0], "crash me", None)
            .map_err(|e| e.to_string())?;
        persist::save(repo, root).map_err(|e| e.to_string())
    });
}

#[test]
fn online_commit_survives_a_crash_at_every_fault_site() {
    let all = version_contents(5);
    let (base, new) = all.split_at(4);
    crash_sweep("commit-online", base, new, |repo, root| {
        repo.commit_online("main", &new[0], "crash me", OnlineOptions::default())
            .map_err(|e| e.to_string())?;
        persist::save(repo, root).map_err(|e| e.to_string())
    });
}

#[test]
fn durable_repack_survives_a_crash_at_every_fault_site() {
    let all = version_contents(6);
    // MinRecreation materializes every version: the repack writes new
    // objects, swaps the plan, and GCs the old delta chain — the full
    // journal lifecycle.
    crash_sweep("repack", &all, &[], |repo, root| {
        repo.optimize_durable(&PlanSpec::new(Problem::MinRecreation), root)
            .map(|_| ())
            .map_err(|e| e.to_string())
    });
}

#[test]
fn a_gc_that_did_not_finish_says_so_and_keeps_the_journal() {
    let _guard = fault_lock();
    let dir = TempDir::new("gc-unfinished");
    let all = version_contents(6);
    let mut repo = seed(&dir.0, &all);
    let journal_pending = || persist::read_journal(&dir.0).unwrap().is_some();
    let fail_first_unlink = || fault::install(FaultPlan::fail_at_site(0, "object.remove"));

    // The swap is durable, so the optimize succeeded — but its report
    // carries the GC failure and the journal stays for recovery. (It used
    // to stop at the failed unlink, clear the journal and report nothing.)
    fail_first_unlink();
    let report = repo.optimize_durable(&PlanSpec::new(Problem::MinRecreation), &dir.0);
    fault::uninstall();
    let cause = report.unwrap().gc_error.expect("the GC was cut short");
    assert!(fault::is_injected(&cause), "{cause}");
    assert!(journal_pending());
    assert!(repo.store().len() > all.len(), "stale objects remain");

    // A recovery whose removal fails is an error with the journal still
    // in place, not `RolledForward { removed }` over objects still there.
    fail_first_unlink();
    let outcome = fsck::recover(&mut repo, &dir.0);
    fault::uninstall();
    let err = outcome.unwrap_err().to_string();
    assert!(fault::is_injected(&err), "{err}");
    assert!(journal_pending());

    let recovery = fsck::recover(&mut repo, &dir.0).unwrap();
    assert!(
        matches!(recovery, dsv_vcs::Recovery::RolledForward { removed } if removed > 0),
        "{recovery:?}"
    );
    assert!(!journal_pending());
    assert!(fsck::fsck(&repo, Some(&dir.0)).is_clean());
    assert_eq!(repo.store().len(), all.len(), "one full object per version");
}

#[test]
fn torn_meta_write_keeps_the_old_metadata() {
    let _guard = fault_lock();
    let dir = TempDir::new("torn-meta");
    let all = version_contents(5);
    let mut repo = seed(&dir.0, &all[..4]);

    // Tear the metadata rewrite mid-write: only a prefix of the new
    // `meta.dsv.tmp` reaches disk, the publishing rename never runs.
    repo.commit_bounded("main", &all[4], "torn", None).unwrap();
    fault::install(FaultPlan::tear_at(0, 16));
    let plan_fired = {
        let err = persist::save(&repo, &dir.0);
        fault::uninstall();
        // The tear may land on an object write (first durable site)
        // instead of the meta write when the commit added new objects —
        // either way save must fail and disk must stay fully-old.
        err.is_err()
    };
    drop(repo);
    assert!(plan_fired, "torn write must surface as a save failure");

    let (survivor, report) = fsck::recover_at(&dir.0, true).unwrap();
    assert!(report.is_clean(), "{report}");
    assert_eq!(
        survivor.version_count(),
        4,
        "the torn save must not publish"
    );
    for (v, expected) in all[..4].iter().enumerate() {
        assert_eq!(&survivor.checkout(CommitId(v as u32)).unwrap(), expected);
    }
}

#[test]
fn failed_server_save_rolls_back_memory_and_acked_commits_survive_restart() {
    let _guard = fault_lock();
    let dir = TempDir::new("serve-rollback");
    let all = version_contents(5);
    seed(&dir.0, &all[..4]);

    let repo = persist::load(&dir.0, true).unwrap();
    let dsvd = Dsvd::new(repo, DsvdConfig::default()).with_save_root(dir.0.clone());
    let server = bind_two_workers();
    let addr = server.local_addr().to_string();
    std::thread::scope(|scope| {
        scope.spawn(|| dsvd.serve(&server));
        let mut client = Client::connect(&addr).unwrap();

        // Commit whose metadata save fails: the server must answer with
        // an error AND roll its in-memory repository back, so memory
        // never diverges from disk.
        fault::install(FaultPlan::fail_at_site(0, "meta"));
        let err = client
            .commit("main", "doomed", false, 0, None, all[4].clone())
            .unwrap_err();
        fault::uninstall();
        match err {
            NetError::Remote { message, .. } => {
                assert!(
                    fault::is_injected(&message),
                    "unexpected failure: {message}"
                )
            }
            other => panic!("expected a remote error, got {other:?}"),
        }

        // Remote repair drops the dead commit's orphaned objects; the
        // rolled-back history holds exactly the seeded versions.
        let summary = client.fsck(true).unwrap();
        assert!(summary.clean);
        assert_eq!(summary.versions_checked, 4);

        // The same data commits cleanly afterwards and is acked.
        let (id, bytes, _) = client
            .commit("main", "retry", false, 0, None, all[4].clone())
            .unwrap();
        assert_eq!(id, 4);
        assert_eq!(bytes, all[4].len() as u64);
        let (data, _) = client.checkout(4).unwrap();
        assert_eq!(data, all[4]);
        assert!(client.fsck(false).unwrap().clean);

        client.shutdown().unwrap();
    });

    // "Restart": reload from disk. Every acked commit must be there,
    // byte-identical — the durability contract of the ack.
    let (survivor, report) = fsck::recover_at(&dir.0, true).unwrap();
    assert!(report.is_clean(), "{report}");
    assert_eq!(survivor.version_count(), 5);
    for (v, expected) in all.iter().enumerate() {
        assert_eq!(&survivor.checkout(CommitId(v as u32)).unwrap(), expected);
    }
}

#[test]
fn a_retried_commit_with_the_same_token_applies_exactly_once() {
    let all = version_contents(4);
    let mut repo = Repository::in_memory();
    for data in &all[..3] {
        repo.commit("main", data, "seed").unwrap();
    }
    let dsvd = Dsvd::new(repo, DsvdConfig::default());
    let server = bind_two_workers();
    let addr = server.local_addr().to_string();
    std::thread::scope(|scope| {
        scope.spawn(|| dsvd.serve(&server));
        let mut client = Client::connect(&addr).unwrap();

        let token = 0xFEED_F00D_u64;
        let first = client
            .commit_with_token(token, "main", "once", false, 0, None, all[3].clone())
            .unwrap();
        assert_eq!(first.0, 3);
        // Retry on the same connection: replayed, not re-applied.
        let second = client
            .commit_with_token(token, "main", "once", false, 0, None, all[3].clone())
            .unwrap();
        assert_eq!(second, first);
        // Retry from a *different* connection (a reconnecting client):
        // the replay log is server-global, so still exactly once.
        let mut other = Client::connect(&addr).unwrap();
        let third = other
            .commit_with_token(token, "main", "once", false, 0, None, all[3].clone())
            .unwrap();
        assert_eq!(third, first);
        assert_eq!(client.fsck(false).unwrap().versions_checked, 4);

        // Token 0 opts out of idempotency: the same call applies twice.
        let a = client
            .commit_with_token(0, "main", "dup", false, 0, None, all[3].clone())
            .unwrap();
        let b = client
            .commit_with_token(0, "main", "dup", false, 0, None, all[3].clone())
            .unwrap();
        assert_eq!((a.0, b.0), (4, 5));

        client.shutdown().unwrap();
    });
}

#[test]
fn client_retry_reconnects_across_a_server_side_disconnect() {
    let all = version_contents(4);
    let mut repo = Repository::in_memory();
    for data in &all[..3] {
        repo.commit("main", data, "seed").unwrap();
    }
    // An aggressive server read timeout stands in for a dropped
    // connection: after the idle window the server closes the socket,
    // and the client's next call fails at the transport layer.
    let dsvd = Dsvd::new(
        repo,
        DsvdConfig {
            read_timeout: Some(Duration::from_millis(100)),
            ..DsvdConfig::default()
        },
    );
    let server = bind_two_workers();
    let addr = server.local_addr().to_string();
    std::thread::scope(|scope| {
        scope.spawn(|| dsvd.serve(&server));
        let mut client = Client::connect(&addr).unwrap().with_retry(RetryPolicy {
            attempts: 3,
            base_delay_ms: 1,
            seed: 7,
        });
        client.ping().unwrap();

        // Let the server time the connection out, then commit: the call
        // must transparently reconnect, re-handshake, resend — and the
        // commit (one logical token) must apply exactly once.
        std::thread::sleep(Duration::from_millis(300));
        let (id, _, _) = client
            .commit("main", "after drop", false, 0, None, all[3].clone())
            .unwrap();
        assert_eq!(id, 3);
        let summary = client.fsck(false).unwrap();
        assert!(summary.clean);
        assert_eq!(summary.versions_checked, 4);
        let (data, _) = client.checkout(3).unwrap();
        assert_eq!(data, all[3]);

        client.shutdown().unwrap();
    });
}
