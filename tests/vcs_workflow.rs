//! Integration: a realistic multi-team VCS workflow over generated
//! datasets, with repeated re-optimization.

use dataset_versioning::core::{PlanSpec, Problem};
use dataset_versioning::delta::tabular::Table;
use dataset_versioning::vcs::{CommitId, Repository, VcsError};
use dataset_versioning::workloads::table_gen::{base_table, random_commit, EditParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Drives a repository through a branching history of generated tables.
fn build_history(
    commits_per_branch: usize,
) -> (
    Repository<dataset_versioning::storage::MemStore>,
    Vec<Vec<u8>>,
) {
    let params = EditParams {
        base_rows: 150,
        base_cols: 5,
        edits_per_commit: 2,
        ..EditParams::default()
    };
    let mut rng = StdRng::seed_from_u64(99);
    let mut repo = Repository::in_memory();
    let mut snapshots = Vec::new();

    let mut table = base_table(&params, &mut rng);
    let root = repo.commit("main", &table.to_csv(), "base").unwrap();
    snapshots.push(table.to_csv());

    // main line
    let mut main_table = table.clone();
    for i in 0..commits_per_branch {
        let (_, next) = random_commit(&params, &main_table, &mut rng);
        main_table = next;
        repo.commit("main", &main_table.to_csv(), &format!("main {i}"))
            .unwrap();
        snapshots.push(main_table.to_csv());
    }
    // feature branch from root
    repo.branch("feature", root).unwrap();
    for i in 0..commits_per_branch {
        let (_, next) = random_commit(&params, &table, &mut rng);
        table = next;
        repo.commit("feature", &table.to_csv(), &format!("feature {i}"))
            .unwrap();
        snapshots.push(table.to_csv());
    }
    // user-performed merge: concatenate rows of both tips
    let mut merged = main_table.clone();
    for row in &table.rows {
        if row.split(',').count() == merged.columns.len() {
            merged.rows.push(row.clone());
        }
    }
    let head = repo.head("feature").unwrap();
    repo.merge("main", head, &merged.to_csv(), "merge feature")
        .unwrap();
    snapshots.push(merged.to_csv());
    (repo, snapshots)
}

#[test]
fn full_workflow_with_reoptimization() {
    let (mut repo, snapshots) = build_history(6);
    assert_eq!(repo.version_count(), snapshots.len());

    let verify = |repo: &Repository<dataset_versioning::storage::MemStore>| {
        for (v, expected) in snapshots.iter().enumerate() {
            let got = repo.checkout(CommitId(v as u32)).unwrap();
            assert_eq!(&got, expected, "version {v}");
            // Checked-out bytes must still parse as a valid table.
            Table::from_csv(&got).expect("valid CSV");
        }
    };
    verify(&repo);

    // Cycle through problems; contents must survive every repack.
    let baseline = repo.storage_bytes();
    let r1 = repo
        .optimize_with(&PlanSpec::new(Problem::MinStorage).reveal_hops(3))
        .unwrap();
    verify(&repo);
    assert!(r1.storage_after <= baseline * 11 / 10);

    let r2 = repo
        .optimize_with(&PlanSpec::new(Problem::MinRecreation).reveal_hops(3))
        .unwrap();
    verify(&repo);
    assert!(r2.storage_after >= r1.storage_after);

    let theta = snapshots.iter().map(Vec::len).max().unwrap() as u64 * 2;
    let r3 = repo
        .optimize_with(
            &PlanSpec::new(Problem::MinStorageGivenMaxRecreation { theta }).reveal_hops(3),
        )
        .unwrap();
    verify(&repo);
    assert!(r3.planned_max_recreation <= theta);
    assert!(r3.storage_after <= r2.storage_after);
}

#[test]
fn log_and_branches_survive_optimization() {
    let (mut repo, _) = build_history(4);
    let log_before: Vec<String> = repo
        .log("main")
        .unwrap()
        .iter()
        .map(|m| m.message.clone())
        .collect();
    repo.optimize_with(&PlanSpec::new(Problem::MinStorage).reveal_hops(3))
        .unwrap();
    let log_after: Vec<String> = repo
        .log("main")
        .unwrap()
        .iter()
        .map(|m| m.message.clone())
        .collect();
    assert_eq!(log_before, log_after);
    assert!(repo.branches().count() >= 2);
    assert!(log_after.first().unwrap().contains("merge"));
}

#[test]
fn checkout_unknown_commit_fails_cleanly() {
    let (repo, _) = build_history(2);
    assert!(matches!(
        repo.checkout(CommitId(9999)),
        Err(VcsError::UnknownCommit(9999))
    ));
}
