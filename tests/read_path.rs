//! The hot read path, as rows of the model harness (`common::model`).
//!
//! The bounded `CheckoutCache` and online commit placement are pure
//! performance features: across cache budgets (none, 0, 4 KiB, 1 GiB),
//! `dsv-par` thread counts, store layouts and placements, every version
//! checks out byte-identical, a cache never reads more than no cache, and
//! a zero budget reads exactly as much.

use common::model::{self, Op::*};

const LEN: usize = 24;

#[test]
fn cached_checkout_is_byte_identical_across_budgets_and_threads() {
    let configs = ["mem", "mem-cache0", "mem-cache4k", "mem-cache1g"].map(model::config);
    let ops = model::fault_free(42, LEN);
    model::check("caches", &ops, |ops| model::lockstep(&configs, ops));
}

#[test]
fn cached_checkout_is_byte_identical_on_sharded_stores() {
    let configs = ["mem", "sharded"].map(model::config);
    let ops = model::fault_free(43, LEN);
    model::check("sharded", &ops, |ops| model::lockstep(&configs, ops));
}

#[test]
fn cached_checkout_is_byte_identical_on_chunked_placement() {
    let configs = ["chunked", "remote-chunked"].map(model::config);
    let ops = model::fault_free(44, LEN);
    model::check("chunked", &ops, |ops| model::lockstep(&configs, ops));
}

#[test]
fn online_commits_survive_cache_and_full_reoptimization() {
    // The same history committed plainly and online, then re-optimized
    // under a warm cache: online placement stores no more than the plain
    // one (it considers the first parent among others).
    let history = |online: bool| {
        let commit = |edit| match online {
            true => Online {
                branch: 0,
                edit,
                hops: 2,
                theta: 0,
            },
            false => Commit { branch: 0, edit },
        };
        let mut ops: Vec<_> = (1..=5).map(commit).collect();
        ops.push(Branch { name: 1, from: 0 });
        ops.extend((6..=10).map(|edit| match commit(edit) {
            Commit { edit, .. } => Commit { branch: 1, edit },
            Online {
                edit, hops, theta, ..
            } => Online {
                branch: 1,
                edit,
                hops,
                theta,
            },
            op => op,
        }));
        ops.push(Merge {
            branch: 0,
            other: 10,
            edit: 11,
        });
        ops
    };
    let stored = |ops: &[_]| {
        model::replay("mem-cache1g", ops)
            .trail
            .last()
            .unwrap()
            .bytes
    };
    let mut online = history(true);
    assert!(stored(&online) <= stored(&history(false)));
    online.push(Optimize {
        problem: 0,
        bound: 0,
        mode: 0,
        solver: 1,
    });
    online.push(Checkout { version: 11 });
    model::replay("mem-cache1g", &online);
}

#[test]
fn online_commit_respects_placement_on_chunked_repositories() {
    let ops = [
        Online {
            branch: 0,
            edit: 1,
            hops: 2,
            theta: 0,
        },
        Online {
            branch: 0,
            edit: 2,
            hops: 2,
            theta: 2,
        },
        Checkout { version: 0 },
    ];
    let run = model::replay("chunked", &ops);
    assert_eq!(run.model.versions.len(), 2);
}
