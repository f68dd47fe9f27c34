//! A commit's store reads do not grow with the history (ROADMAP 17(c)):
//! counted, not timed. V small versions go onto one branch through
//! `Dsvd::handle`, as `dsv commit` sends them, over a file store with no
//! checkout cache, so every read the placement makes reaches the store's
//! `stats().ops`. The repository holds the bytes of its newest commits,
//! so a plain commit diffs against its parent without replaying the
//! parent's chain, and an online commit (hops 2) reads what its
//! neighbourhood needs, whatever the history's length. Every commit must
//! still store the object a repository freshly loaded from disk (which
//! holds nothing) stores for the same bytes.

use dsv_net::proto::{Request, Response};
use dsv_storage::{FileStore, ObjectStore};
use dsv_vcs::{persist, CommitId, Dsvd, DsvdConfig, RepoStore, Repository};
use std::path::Path;

/// Version `i` of a small table: 24 rows, row `i % 24` rewritten and one
/// row appended per version.
fn version(i: usize) -> Vec<u8> {
    let mut rows: Vec<String> = (0..24)
        .map(|r| format!("{r},base-{r},{}\n", r * 7))
        .collect();
    rows[i % 24] = format!("{},edit-{i},{}\n", i % 24, i * 13);
    rows.extend((0..i).map(|k| format!("{},appended-{k}\n", 100 + k)));
    format!("id,name,value\n{}", rows.concat()).into_bytes()
}

fn commit(online: bool, i: usize) -> Request {
    Request::Commit {
        token: 0,
        branch: "main".into(),
        message: format!("v{i}"),
        online,
        hops: 2,
        theta: None,
        data: version(i),
    }
}

/// Objects the served store has read so far.
fn reads(server: &Dsvd<RepoStore>) -> u64 {
    server.repo().read().store().stats().ops.get_objects()
}

/// The object a repository loaded from `dir` stores for `req`'s bytes.
fn fresh_object(dir: &Path, req: Request, online: bool) -> dsv_storage::ObjectId {
    let Request::Commit { data, message, .. } = req else {
        unreachable!("a commit request")
    };
    let mut fresh = persist::load(dir, false).expect("load the served repository");
    let id = if online {
        let options = dsv_vcs::OnlineOptions {
            hops: 2,
            ..Default::default()
        };
        fresh.commit_online("main", &data, &message, options)
    } else {
        fresh.commit("main", &data, &message)
    };
    fresh.object_id(id.expect("commit on the fresh repository"))
}

/// Commits `v` plain versions, then one online one; returns the objects
/// each plain commit read and the online commit's.
fn history(v: usize) -> (Vec<u64>, u64) {
    let dir = std::env::temp_dir().join(format!("dsv-commit-reads-{}-{v}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = FileStore::open(&dir.join("objects"), false).unwrap();
    let repo = Repository::init(RepoStore::Flat(store));
    persist::save(&repo, &dir).unwrap();
    let config = DsvdConfig {
        cache_bytes: 0,
        ..DsvdConfig::default()
    };
    let server = Dsvd::new(repo, config).with_save_root(dir.clone());
    let served = |online: bool, i: usize| {
        let expected = fresh_object(&dir, commit(online, i), online);
        let before = reads(&server);
        match server.handle(commit(online, i)) {
            Response::CommitOk { id, .. } => assert_eq!(id as usize, i),
            other => panic!("v{i}: {other:?}"),
        }
        let read = reads(&server) - before;
        let stored = server.repo().read().object_id(CommitId(i as u32));
        assert_eq!(
            stored, expected,
            "v{i} of {v}: not what a fresh repository stores"
        );
        read
    };
    let plain: Vec<u64> = (0..v).map(|i| served(false, i)).collect();
    let online = served(true, v);
    std::fs::remove_dir_all(&dir).unwrap();
    (plain, online)
}

#[test]
fn a_commit_reads_no_more_objects_on_a_longer_history() {
    let (short_plain, short_online) = history(50);
    let (long_plain, long_online) = history(500);
    for plain in [&short_plain, &long_plain] {
        let read: Vec<(usize, u64)> = plain
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, n)| n > 0)
            .collect();
        assert_eq!(read, [], "plain commits that read objects (version, reads)");
    }
    assert_eq!(
        short_online, long_online,
        "an online commit at V = 50 and V = 500"
    );
}
