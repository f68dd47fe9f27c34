//! Plan ≡ store, in bytes: the planner prices every object as the store
//! encodes it (`dsv_storage::stored_len`), so after a binary optimize the
//! plan's storage cost *is* the store's byte count, an online or greedy
//! commit grows the store by exactly what its placement was priced at,
//! and the planned recreation bound is the largest measured read — on a
//! coding store and a raw one alike.

mod common;

use common::TempDir;
use dataset_versioning::core::{PlanSpec, Problem, StorageMode};
use dataset_versioning::delta::bytes_delta::SourceIndex;
use dataset_versioning::storage::fault::{FaultPlan, FaultStore};
use dataset_versioning::storage::{
    stored_len, FileStore, Materializer, MemStore, ObjectStore, Priced, ShardedStore,
};
use dataset_versioning::vcs::{CommitId, OnlineOptions, RepoStore, Repository};
use dataset_versioning::workloads::table_gen::{base_table, random_commit, EditParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `n` distinct CSV versions, each an edit of the one before.
fn table_versions(n: usize, seed: u64) -> Vec<Vec<u8>> {
    let params = EditParams {
        base_rows: 120,
        ..EditParams::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut table = base_table(&params, &mut rng);
    let mut out = vec![table.to_csv()];
    while out.len() < n {
        table = random_commit(&params, &table, &mut rng).1;
        out.push(table.to_csv());
    }
    out
}

#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Linear chain: every version edits the one before.
    Chain,
    /// Two branches off the root, merged back into `main` twice.
    BranchMerge,
}

fn history<S: ObjectStore>(store: S, shape: Shape) -> Repository<S> {
    let versions = table_versions(12, 2015);
    let mut repo = Repository::init(store);
    match shape {
        Shape::Chain => {
            for data in &versions {
                repo.commit("main", data, "edit").unwrap();
            }
        }
        Shape::BranchMerge => {
            let root = repo.commit("main", &versions[0], "root").unwrap();
            repo.branch("side", root).unwrap();
            for (i, data) in versions[1..].iter().enumerate() {
                match i % 4 {
                    0 | 1 => repo.commit("side", data, "side").unwrap(),
                    2 => repo.commit("main", data, "main").unwrap(),
                    _ => {
                        let side = repo.head("side").unwrap();
                        repo.merge("main", side, data, "merge").unwrap()
                    }
                };
            }
        }
    }
    repo
}

/// The three problems the issue names, bounds derived from the history so
/// that P3 and P6 bind (neither the all-delta nor the all-full plan).
fn problems<S: ObjectStore>(repo: &Repository<S>) -> [Problem; 3] {
    let largest = (0..repo.version_count() as u32)
        .map(|v| repo.meta(CommitId(v)).unwrap().size)
        .max()
        .unwrap();
    [
        Problem::MinStorage,
        Problem::MinSumRecreationGivenStorage {
            beta: repo.logical_bytes() / 3,
        },
        Problem::MinStorageGivenMaxRecreation {
            theta: largest + largest / 10,
        },
    ]
}

fn assert_plan_is_store<S: ObjectStore>(make: impl Fn() -> S, what: &str) {
    for shape in [Shape::Chain, Shape::BranchMerge] {
        for (p, problem) in problems(&history(make(), shape)).into_iter().enumerate() {
            let mut repo = history(make(), shape);
            let report = repo.optimize_with(&PlanSpec::new(problem)).unwrap();
            assert_eq!(
                report.planned_storage_cost,
                repo.store().total_bytes(),
                "{what} {shape:?} problem #{p}: planned C vs stored bytes"
            );
            assert_eq!(report.storage_after, repo.store().total_bytes());
            let m = Materializer::new(repo.store());
            let largest_read = (0..repo.version_count() as u32)
                .map(|v| {
                    let id = repo.object_id(CommitId(v));
                    m.materialize_measured(id).unwrap().1.bytes_read
                })
                .max()
                .unwrap();
            assert_eq!(
                report.planned_max_recreation, largest_read,
                "{what} {shape:?} problem #{p}: planned max R vs measured bytes_read"
            );
            if p > 0 {
                assert!(
                    (2..repo.version_count()).contains(&report.materialized),
                    "{what} {shape:?} problem #{p} does not bind: {} roots",
                    report.materialized
                );
            }
        }
    }
}

#[test]
fn planned_storage_is_stored_bytes_on_mem_stores() {
    assert_plan_is_store(|| MemStore::new(true), "MemStore(true)");
    assert_plan_is_store(|| MemStore::new(false), "MemStore(false)");
}

#[test]
fn planned_storage_is_stored_bytes_on_a_coding_file_store() {
    let dir = TempDir::new("file");
    let n = std::cell::Cell::new(0);
    assert_plan_is_store(
        || {
            n.set(n.get() + 1);
            FileStore::open(&dir.0.join(n.get().to_string()), true).unwrap()
        },
        "FileStore(true)",
    );
}

#[test]
fn a_coding_store_plans_a_real_phi_not_equal_delta_matrix() {
    // Hex cells code to about half: Δ (stored) falls well below Φ (read).
    let mut repo = history(MemStore::new(true), Shape::Chain);
    let report = repo
        .optimize_with(&PlanSpec::new(Problem::MinRecreation))
        .unwrap();
    assert_eq!(report.materialized, repo.version_count());
    assert_eq!(report.planned_sum_recreation, repo.logical_bytes());
    assert_eq!(report.planned_storage_cost, repo.store().total_bytes());
    // Measured: 12 versions, 71,043 B read, 38,430 B stored (0.541).
    assert!(
        report.planned_storage_cost * 100 < report.planned_sum_recreation * 60,
        "{} stored vs {} read",
        report.planned_storage_cost,
        report.planned_sum_recreation
    );
}

/// What the store must grow by for `tip` as its plan mode says it is held.
fn priced_at<S: ObjectStore>(repo: &Repository<S>, tip: CommitId, data: &[u8]) -> u64 {
    let compress = repo.store().compresses();
    match repo.current_plan()[tip.index()] {
        StorageMode::Delta(base) => {
            let base = repo.checkout(CommitId(base)).unwrap();
            let delta = SourceIndex::new(&base).diff_encoded(data);
            stored_len(Priced::Delta, &delta, compress)
        }
        StorageMode::Materialized => stored_len(Priced::Full, data, compress),
        StorageMode::Chunked => unreachable!("greedy-delta placement"),
    }
}

#[test]
fn a_commit_grows_the_store_by_what_its_placement_was_priced_at() {
    let versions = table_versions(14, 2015);
    let unrelated: Vec<u8> = (0..6000u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
        .collect();
    for compress in [true, false] {
        let mut repo = history(MemStore::new(compress), Shape::BranchMerge);
        let mut modes = std::collections::HashSet::new();
        for (i, data) in [&versions[12], &versions[13], &unrelated, &versions[11]]
            .into_iter()
            .enumerate()
        {
            let before = repo.store().total_bytes();
            let tip = if i % 2 == 0 {
                repo.commit_online("main", data, "online", OnlineOptions::default())
            } else {
                repo.commit("main", data, "greedy")
            }
            .unwrap();
            assert_eq!(
                repo.store().total_bytes() - before,
                priced_at(&repo, tip, data),
                "compress = {compress}, commit {i}"
            );
            modes.insert(repo.current_plan()[tip.index()].is_root());
        }
        assert_eq!(modes.len(), 2, "both a delta and a full placement priced");
    }
}

#[test]
fn every_wrapper_reports_its_inner_stores_policy() {
    let dir = TempDir::new("policy");
    for compress in [true, false] {
        let mem = || MemStore::new(compress);
        assert_eq!(mem().compresses(), compress);
        assert_eq!(ShardedStore::new(vec![mem(), mem()]).compresses(), compress);
        assert_eq!(
            FaultStore::new(mem(), FaultPlan::count_sites()).compresses(),
            compress
        );
        let file = |name: &str| FileStore::open(&dir.0.join(name), compress).unwrap();
        assert_eq!(file("plain").compresses(), compress);
        assert_eq!(RepoStore::Flat(file("flat")).compresses(), compress);
        let shards = ShardedStore::new(vec![file("s0"), file("s1")]);
        assert_eq!(RepoStore::Sharded(shards).compresses(), compress);
    }
}
