//! The commit write path, pinned: a fixed 30-commit, two-branch,
//! one-merge history committed through `commit` / `commit_bounded(θ)` /
//! `merge` must store exactly the objects, under exactly the plan, that
//! the literals below record. They were captured at c638e94, when a plain
//! commit and an online commit were separate placement rules; the second
//! test holds the two to each other, so the write path can be rewritten
//! underneath without moving an object byte.

use dsv_core::StorageMode;
use dsv_storage::MemStore;
use dsv_vcs::{CommitId, OnlineOptions, Repository};

/// One commit of the scripted history.
struct Step {
    branch: &'static str,
    /// `Some(from)`: create `branch` at version `from` first.
    fork: Option<u32>,
    /// `Some(other)`: a merge of version `other` into `branch`.
    merge: Option<u32>,
    theta: Option<u64>,
    data: Vec<u8>,
}

/// A recreation budget a few deltas above one version: v1 and v5 fit
/// under it, later chains do not.
const THETA: u64 = 6_900;
/// Below any version's own size: the commit must degrade to materialized.
const TINY_THETA: u64 = 1_000;

fn table(rows: &[String]) -> Vec<u8> {
    let mut out = b"id,name,reading,site\n".to_vec();
    for row in rows {
        out.extend_from_slice(row.as_bytes());
    }
    out
}

/// The script: `main` grows from v0, `dev` forks at v3 and edits its own
/// copy, v22 merges `dev` into `main`; every fourth commit carries θ, v13
/// a θ nothing satisfies, and v17 rewrites every row (a delta larger than
/// the version).
fn history() -> Vec<Step> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let row = |id: usize, salt: usize| {
        format!(
            "{id},sensor-{},{}.{:02},site-{}\n",
            salt % 89,
            salt % 1013,
            salt % 100,
            salt % 7
        )
    };
    let mut main: Vec<String> = (0..220).map(|i| row(i, i * 7919)).collect();
    let mut dev: Vec<String> = Vec::new();
    let mut steps = vec![Step {
        branch: "main",
        fork: None,
        merge: None,
        theta: None,
        data: table(&main),
    }];
    let mut dev_head = 0u32;
    for i in 1..30u32 {
        let fork = (i == 5).then_some(3);
        if i == 5 {
            dev = main.clone();
        }
        let on_dev = i >= 5 && i % 3 == 2;
        let rows = if on_dev { &mut dev } else { &mut main };
        if i == 17 {
            for (k, r) in rows.iter_mut().enumerate() {
                *r = row(k, next());
            }
        } else {
            for _ in 0..3 {
                let id = 1000 + i as usize * 10 + rows.len();
                rows.push(row(id, next()));
            }
            for _ in 0..2 {
                let k = next() % rows.len();
                rows[k] = row(k, next());
            }
            if i % 5 == 0 {
                let k = next() % rows.len();
                rows.remove(k);
            }
        }
        let merge = (i == 22).then_some(dev_head);
        if merge.is_some() {
            let theirs = dev[dev.len() - 6..].to_vec();
            main.extend(theirs);
        }
        let theta = match i {
            13 => Some(TINY_THETA),
            _ if i % 4 == 1 => Some(THETA),
            _ => None,
        };
        steps.push(Step {
            branch: if on_dev { "dev" } else { "main" },
            fork,
            merge,
            theta,
            data: table(if on_dev { &dev } else { &main }),
        });
        if on_dev {
            dev_head = i;
        }
    }
    assert!(steps.iter().any(|s| s.fork.is_some()) && steps.iter().any(|s| s.merge.is_some()));
    steps
}

/// How a step reaches the repository.
#[derive(Clone, Copy, PartialEq)]
enum Via {
    /// `commit` / `commit_bounded` / `merge`.
    Plain,
    /// `commit_online` with the one-candidate options (a merge becomes an
    /// online commit on its first parent's branch: same content, same
    /// first parent).
    OneCandidateOnline,
}

fn run(compress: bool, via: Via) -> Repository<MemStore> {
    let mut repo = Repository::init(MemStore::new(compress));
    for (i, step) in history().iter().enumerate() {
        if let Some(from) = step.fork {
            repo.branch(step.branch, CommitId(from)).unwrap();
        }
        let message = format!("v{i}");
        let id = match (via, step.merge) {
            (Via::Plain, Some(other)) => {
                repo.merge(step.branch, CommitId(other), &step.data, &message)
            }
            (Via::Plain, None) => match step.theta {
                Some(theta) => repo.commit_bounded(step.branch, &step.data, &message, Some(theta)),
                None => repo.commit(step.branch, &step.data, &message),
            },
            (Via::OneCandidateOnline, _) => repo.commit_online(
                step.branch,
                &step.data,
                &message,
                OnlineOptions {
                    hops: 0,
                    max_candidates: 1,
                    max_recreation_bytes: step.theta,
                },
            ),
        }
        .unwrap();
        assert_eq!(id, CommitId(i as u32));
        assert_eq!(repo.checkout(id).unwrap(), step.data, "v{i}");
    }
    repo
}

fn ids(repo: &Repository<MemStore>) -> Vec<String> {
    (0..repo.version_count() as u32)
        .map(|v| repo.object_id(CommitId(v)).to_hex())
        .collect()
}

fn plan(repo: &Repository<MemStore>) -> String {
    let modes: Vec<String> = repo
        .current_plan()
        .iter()
        .map(|mode| match mode {
            StorageMode::Materialized => "M".to_owned(),
            StorageMode::Delta(u) => format!("D{u}"),
            StorageMode::Chunked => "C".to_owned(),
        })
        .collect();
    modes.join(" ")
}

/// Root, four θ-forced rematerializations (v9, v21, v25, v29), the tiny θ
/// (v13) and the rewrite (v17); the same under both stores — ids name
/// content, not its coding.
const PLAN: &str =
    "M D0 D1 D2 D3 D3 D4 D6 D5 M D9 D8 D10 M D11 D13 D15 M D16 D18 D17 M D21 D20 D22 M \
                    D23 D25 D27 M";
const IDS: [&str; 30] = [
    "bf35da62a8dbc112f00fa9c2a62e0336",
    "3bad48f23abbec644c2d55fdb9aaedb9",
    "ccdba9198eb49d3bd18e4b04771063f8",
    "ae55e4747372dcd8ede597f2cba3059a",
    "170cdb99033725df400b9d479d0ebd96",
    "7205fa3994b9124827a1b7f75675aa78",
    "90f3abf63c56cf7f955677dfcc982f26",
    "513f9b61a5fb6b88acbe06aff6775088",
    "a24764c76858264e9ba747e886cf3f18",
    "4fe1e5c3c78ad643361b219cc75a292b",
    "62e29496572021439503686ce94df8ab",
    "ea0d5d6abd5409bf65ea0cbfe18123f1",
    "274126f894fda594d69844339586fb5a",
    "080b9566c3b544425dd05b66d9042bf6",
    "61a260b846338377d8606890d0fb4757",
    "593f6718ae1b5b2fd2dd7ab38d8200b9",
    "3fb98747f8588ca7b815b1f77dccf2cd",
    "3545b34fe7f53908c01ac1e5e061ef84",
    "65dc312d6bec67b7e81701917ca5c7e7",
    "79015219d45e239ac05b4bee6646d80e",
    "c2249d65f8cb628f75ed68dd6593e3c9",
    "58c3148ceeda2cfbcf56a996e98eff3a",
    "fafc57cee42b5ae1d90ce5534d34033c",
    "410bf185c7b51ccb7c321c76b77af4c5",
    "dfdec8f0de939008c6afb93b34254e7c",
    "1a82f399930271495399d3a89cb49eb3",
    "e7b1875911c4a8c04a4347a5e9cc94f1",
    "73508fdc04ff0a19826db8a02e7da137",
    "6b102ee0016297ac2819aeb7c98cc984",
    "d643c43c27dde0b3c7a5e74122fddb1b",
];
/// `storage_bytes()` over `MemStore::new(false)` and `MemStore::new(true)`.
const STORED: [(bool, u64); 2] = [(false, 52_048), (true, 29_517)];

#[test]
fn plain_commits_store_the_objects_the_parent_commit_stored() {
    for (compress, stored) in STORED {
        let repo = run(compress, Via::Plain);
        assert_eq!(plan(&repo), PLAN, "compress = {compress}");
        assert_eq!(ids(&repo), IDS, "compress = {compress}");
        assert_eq!(repo.storage_bytes(), stored, "compress = {compress}");
    }
}

#[test]
fn a_plain_commit_is_the_one_candidate_online_commit() {
    for compress in [false, true] {
        let plain = run(compress, Via::Plain);
        let online = run(compress, Via::OneCandidateOnline);
        assert_eq!(plan(&plain), plan(&online), "compress = {compress}");
        assert_eq!(ids(&plain), ids(&online), "compress = {compress}");
        assert_eq!(plain.storage_bytes(), online.storage_bytes());
    }
}
