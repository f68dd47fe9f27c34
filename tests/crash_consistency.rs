//! Crash consistency, as rows of the model harness (`common::model`).
//!
//! The crash model (see `dsv_vcs::persist`) promises that a process
//! death at any durable filesystem operation leaves a repository that
//! `recover_at` brings back clean, with a history fully old or fully new.
//! The sweeps here crash a commit, an online commit and a durable repack
//! at every site each reaches (and tear each write), one run per site;
//! the rows pin the scenarios a sweep does not: a GC cut short, a torn
//! metadata write, a failed save on a live server, and a commit retried
//! under its token.

use common::model::{self, Op, Op::*, Outcome, Sites};
use dsv_net::WireRecovery;

/// Four versions on `main`: the history each sweep starts from.
const HISTORY: [Op; 4] = [
    Commit { branch: 0, edit: 1 },
    Commit { branch: 0, edit: 2 },
    Commit { branch: 0, edit: 3 },
    Commit { branch: 0, edit: 4 },
];

fn after_history(ops: &[Op]) -> Vec<Op> {
    HISTORY.iter().chain(ops).copied().collect()
}

#[test]
fn commit_survives_a_crash_at_every_fault_site() {
    // An object (write, sync, rename, dirsync), then the metadata.
    let faults = model::sweep("file", &HISTORY, Commit { branch: 0, edit: 5 }, Sites::Fs);
    assert!(faults >= 8, "{faults}");
}

#[test]
fn online_commit_survives_a_crash_at_every_fault_site() {
    let online = Online {
        branch: 0,
        edit: 5,
        hops: 2,
        theta: 0,
    };
    assert!(model::sweep("sharded", &HISTORY, online, Sites::Fs) >= 8);
}

#[test]
fn durable_repack_survives_a_crash_at_every_fault_site() {
    // MinRecreation materializes every version: new objects, a journal,
    // the metadata swap, the GC of the old chain, the journal's removal.
    let repack = Optimize {
        problem: 1,
        bound: 0,
        mode: 0,
        solver: 0,
    };
    assert!(model::sweep("file", &HISTORY, repack, Sites::Fs) > 20);
}

#[test]
fn a_gc_that_did_not_finish_says_so_and_keeps_the_journal() {
    let first_unlink = DiskFault { site: 4, k: 0 };
    let repack = Optimize {
        problem: 1,
        bound: 0,
        mode: 0,
        solver: 0,
    };
    let run = model::replay(
        "file",
        &after_history(&[
            // The swap is durable, so the optimize answers OK; its journal
            // stays for recovery.
            first_unlink,
            repack,
            Fsck { repair: false },
            // A repair whose removal fails is an error, journal in place.
            first_unlink,
            Fsck { repair: true },
            Fsck { repair: true },
        ]),
    );
    let outcomes: Vec<&Outcome> = run.trail[4..].iter().map(|t| &t.outcome).collect();
    assert!(matches!(outcomes[1], Outcome::Optimized(_)), "{outcomes:?}");
    assert!(matches!(outcomes[2], Outcome::Checked(s) if s.journal_pending && !s.clean));
    assert_eq!(outcomes[4], &Outcome::Failed);
    assert!(matches!(
        outcomes[5],
        Outcome::Checked(s) if s.clean && matches!(s.recovery, Some(WireRecovery::RolledForward { removed }) if removed > 0)
    ));
}

#[test]
fn torn_meta_write_keeps_the_old_metadata() {
    // The commit's fifth site is the write of `meta.dsv.tmp`: a prefix
    // reaches disk and the publishing rename never runs.
    let run = model::replay(
        "file",
        &after_history(&[Tear { k: 4 }, Commit { branch: 0, edit: 5 }]),
    );
    assert!(run.cov.sites.contains("tear"));
    assert_eq!(
        run.model.versions.len(),
        4,
        "the torn save must not publish"
    );
}

#[test]
fn failed_server_save_rolls_back_memory_and_acked_commits_survive_restart() {
    // The metadata save of a served commit fails: the client gets the
    // error and the server's memory stays as it was (the harness compares
    // it with the model and with the metadata on disk). A repair drops the
    // commit's orphan, the same data commits cleanly, and the run's final
    // restart finds every acknowledged version.
    let run = model::replay(
        "served",
        &after_history(&[
            DiskFault { site: 5, k: 0 },
            Commit { branch: 0, edit: 5 },
            Fsck { repair: true },
            Commit { branch: 0, edit: 5 },
        ]),
    );
    let outcomes: Vec<&Outcome> = run.trail[4..].iter().map(|t| &t.outcome).collect();
    assert_eq!(outcomes[1], &Outcome::Failed);
    assert!(matches!(outcomes[2], Outcome::Checked(s) if s.clean && s.orphans_removed > 0));
    assert_eq!(outcomes[3], &Outcome::Committed(4));
}

#[test]
fn a_retried_commit_with_the_same_token_applies_exactly_once() {
    for name in ["mem", "served", "remote-sharded"] {
        let run = model::replay(
            name,
            &after_history(&[Retry { branch: 0, edit: 5 }, Retry { branch: 0, edit: 6 }]),
        );
        assert_eq!(run.model.versions.len(), 6, "{name}");
    }
}

#[test]
fn client_retry_reconnects_across_a_server_side_disconnect() {
    let run = model::replay(
        "served",
        &after_history(&[
            Disconnect,
            Commit { branch: 0, edit: 5 },
            Disconnect,
            Checkout { version: 4 },
        ]),
    );
    assert_eq!(run.trail[5].outcome, Outcome::Committed(4));
    assert_eq!(run.trail[7].outcome, Outcome::Read);
}

/// The collector's callers with a fault at each `store.get` and
/// `store.remove` call they make in turn: a hybrid repack of a chunked
/// history, and a repair that rolls a journal forward (a repack's GC was
/// cut short), rolls one back (`dsv` died before the swap; the next `dsv`
/// leaves the journal to `fsck --repair`) or collects orphans. Whatever
/// fails, no live object is collected: every version still checks out and
/// a fault-free repair ends clean.
#[test]
fn no_store_fault_lets_the_collector_take_a_live_object() {
    let history: Vec<Op> = (1..=2).map(|edit| Commit { branch: 0, edit }).collect();
    let hybrid = Optimize {
        problem: 0,
        bound: 0,
        mode: 2,
        solver: 0,
    };
    let repair = Fsck { repair: true };
    let (gc_cut, crash_before_swap, save_fails) = (
        DiskFault { site: 4, k: 0 },
        Crash { site: 12, k: 0 },
        DiskFault { site: 5, k: 0 },
    );
    let rows = [
        (vec![], hybrid, false),
        (vec![gc_cut, hybrid], repair, true),
        (vec![crash_before_swap, hybrid], repair, true),
        (
            vec![save_fails, Commit { branch: 0, edit: 6 }],
            repair,
            false,
        ),
    ];
    for (debris, op, journal) in rows {
        let prefix: Vec<Op> = history.iter().chain(&debris).copied().collect();
        let mut probe = prefix.clone();
        probe.push(Fsck { repair: false });
        let staged = model::replay("chunked", &probe)
            .trail
            .pop()
            .unwrap()
            .outcome;
        assert!(
            matches!(&staged, Outcome::Checked(s) if !s.clean && s.journal_pending == journal)
                || debris.is_empty(),
            "{debris:?} staged {staged:?}"
        );
        for site in [1, 2] {
            model::sweep("chunked", &prefix, op, Sites::Store(site));
        }
    }
}
