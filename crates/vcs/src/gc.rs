//! The collector: the one place that decides what a set of objects keeps
//! alive, and the only code in this crate that deletes from the store.
//!
//! Its rule is *live closure first, unreadable root = stop*. Every caller
//! — `prepare_repack` / `gc_repack`, both arms of `recover`, `fsck_repair`
//! — computes what must survive with [`closure`] before it may remove
//! anything, and removes through [`collect`], which drops exactly the
//! candidates outside that closure. A root that cannot be read may be a
//! manifest: left out, its chunks would read as garbage, so the closure
//! fails instead and nothing is removed.

use dsv_storage::{Object, ObjectId, ObjectStore, StoreError};
use std::collections::HashSet;

/// What the roots handed to [`closure`] are known to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Roots {
    /// Objects a plan references: each one must be readable.
    Referenced,
    /// Objects a repack journal names, which a crash may have cut short
    /// before they were written: an absent one keeps nothing else alive.
    /// Any other failure still fails the closure.
    Journaled,
}

/// `roots` plus the chunks of every manifest among them. (Delta bases are
/// version objects themselves, so a plan's object list already covers
/// them.) Fails with the index of the first root that could not be read.
pub(crate) fn closure<S: ObjectStore>(
    store: &S,
    roots: &[ObjectId],
    kind: Roots,
) -> Result<HashSet<ObjectId>, (usize, StoreError)> {
    let mut closure: HashSet<ObjectId> = roots.iter().copied().collect();
    for (i, id) in roots.iter().enumerate() {
        match store.get(*id) {
            Ok(Object::Chunked { chunks }) => closure.extend(chunks),
            Ok(_) => {}
            Err(StoreError::NotFound(_)) if kind == Roots::Journaled => {}
            Err(e) => return Err((i, e)),
        }
    }
    Ok(closure)
}

/// Removes exactly the `candidates` outside `live`, in id order, and
/// returns how many that was. A store failure is returned as it is; the
/// candidates it left behind are found again by the next run.
pub(crate) fn collect<S: ObjectStore>(
    store: &S,
    candidates: &[ObjectId],
    live: &HashSet<ObjectId>,
) -> Result<usize, StoreError> {
    let mut garbage: Vec<ObjectId> = candidates
        .iter()
        .copied()
        .filter(|id| !live.contains(id))
        .collect();
    garbage.sort();
    store.remove_batch(&garbage)?;
    Ok(garbage.len())
}

/// The fault sweep over the collector's callers, and the chunked
/// fixtures it stages. Each caller's own test module runs its rows.
#[cfg(test)]
pub(crate) mod sweep {
    use crate::persist::{self, RepackJournal};
    use crate::{fsck, CommitId, Repository, VcsError};
    use dsv_core::ChunkerParams;
    use dsv_core::{PlanSpec, Problem};
    use dsv_storage::{FaultPlan, FaultStore, MemStore, Object, ObjectStore};
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    pub(crate) type FaultRepo = Repository<FaultStore<MemStore>>;

    /// A scratch directory, removed on drop.
    pub(crate) struct TempDir(pub PathBuf);

    impl TempDir {
        pub(crate) fn new(tag: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "dsv-vcs-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Eight growing versions under chunked placement: consecutive
    /// manifests share most of their chunks.
    pub(crate) fn chunked_repo_on<S: ObjectStore>(store: S) -> Repository<S> {
        let mut repo = Repository::init_chunked(store, ChunkerParams::default());
        let row = |i: usize| format!("{i},payload-{},2015\n", i * 31);
        let mut data = b"id,payload,year\n".to_vec();
        for i in 0..600 {
            data.extend_from_slice(row(i).as_bytes());
        }
        repo.commit("main", &data, "base").unwrap();
        for k in 1..8 {
            data.extend_from_slice(row(600 + k).as_bytes());
            repo.commit("main", &data, "grow").unwrap();
        }
        repo
    }

    /// A hybrid repack of [`chunked_repo_on`]: the new plan keeps chunked
    /// versions, so it shares chunks with the old one.
    fn hybrid_spec() -> PlanSpec {
        PlanSpec::new(Problem::MinStorage).reveal_hops(4)
    }

    /// A chunked history over a fault-injecting store, plus the debris
    /// one of three crashes leaves: an orphan with no journal, a repack
    /// whose swap is durable (roll forward), or one whose swap is not
    /// (roll back; its phantom manifest shares a chunk with a live one,
    /// and one journaled object was never written).
    pub(crate) fn chunked_debris(scenario: &str, plan: Arc<FaultPlan>, root: &Path) -> FaultRepo {
        let repo = chunked_repo_on(FaultStore::new(MemStore::new(true), plan));
        let put = |obj: Object| repo.store.put(&obj).unwrap();
        let orphan = put(Object::Full {
            data: b"debris".to_vec(),
        });
        let _ = persist::clear_journal(root);
        let journal = match scenario {
            "orphan" => return repo,
            "forward" => RepackJournal {
                new_objects: repo.objects.clone(),
                stale: vec![orphan],
            },
            "back" => {
                let Object::Chunked { chunks } = repo.store.inner().get(repo.objects[0]).unwrap()
                else {
                    panic!("chunked placement stores manifests");
                };
                let phantom = put(Object::Chunked {
                    chunks: vec![chunks[0], orphan],
                });
                let mut new_objects = repo.objects.clone();
                new_objects[0] = phantom;
                new_objects[1] = Object::full_id(b"journaled, never written");
                RepackJournal {
                    new_objects,
                    stale: vec![],
                }
            }
            other => panic!("unknown scenario {other}"),
        };
        persist::write_journal(root, &journal).unwrap();
        repo
    }

    /// One caller of the collector: the repository it is staged on and
    /// the call itself.
    struct Row {
        caller: &'static str,
        stage: fn(Arc<FaultPlan>, &Path) -> FaultRepo,
        call: fn(&mut FaultRepo, &Path) -> Result<(), VcsError>,
    }

    const ROWS: [Row; 7] = [
        Row {
            caller: "optimize_with",
            stage: |plan, _| chunked_repo_on(FaultStore::new(MemStore::new(false), plan)),
            call: |repo, _| {
                let report = repo.optimize_with(&hybrid_spec())?;
                assert!(report.chunked >= 1, "the plans must share chunks");
                Ok(())
            },
        },
        Row {
            caller: "optimize_durable",
            stage: |plan, root| {
                let repo = chunked_repo_on(FaultStore::new(MemStore::new(false), plan));
                let _ = persist::clear_journal(root);
                persist::save(&repo, root).unwrap();
                repo
            },
            call: |repo, root| repo.optimize_durable(&hybrid_spec(), root).map(drop),
        },
        Row {
            caller: "recover",
            stage: |plan, root| chunked_debris("forward", plan, root),
            call: |repo, root| fsck::recover(repo, root).map(drop),
        },
        Row {
            caller: "recover",
            stage: |plan, root| chunked_debris("back", plan, root),
            call: |repo, root| fsck::recover(repo, root).map(drop),
        },
        Row {
            caller: "fsck_repair",
            stage: |plan, root| chunked_debris("orphan", plan, root),
            call: |repo, root| fsck::fsck_repair(repo, Some(root)).map(drop),
        },
        Row {
            caller: "fsck_repair",
            stage: |plan, root| chunked_debris("forward", plan, root),
            call: |repo, root| fsck::fsck_repair(repo, Some(root)).map(drop),
        },
        Row {
            caller: "fsck_repair",
            stage: |plan, root| chunked_debris("back", plan, root),
            call: |repo, root| fsck::fsck_repair(repo, Some(root)).map(drop),
        },
    ];

    /// Runs every row of `caller`: enumerate the `store.get` and
    /// `store.remove` sites the call traverses, then fail each in turn on
    /// a freshly staged repository. The call may fail or succeed; either
    /// way every version still checks out byte-identically and a
    /// fault-free `fsck_repair` ends clean — no fault, wherever it lands,
    /// makes the collector remove a live object or strands the store
    /// beyond repair.
    pub(crate) fn sweep(caller: &str) {
        let checkouts = |repo: &FaultRepo| -> Vec<Vec<u8>> {
            (0..repo.version_count() as u32)
                .map(|v| repo.checkout(CommitId(v)).unwrap())
                .collect()
        };
        for (i, row) in ROWS.iter().enumerate().filter(|(_, r)| r.caller == caller) {
            let dir = TempDir::new(&format!("sweep-{i}"));
            let root = dir.0.as_path();
            for site in ["store.get", "store.remove"] {
                let what = format!("{caller} (row {i}), {site}");
                let counting = FaultPlan::count_sites();
                let count = || counting.sites().iter().filter(|s| *s == site).count();
                let mut repo = (row.stage)(counting.clone(), root);
                let snapshots = checkouts(&repo);
                let before = count();
                (row.call)(&mut repo, root).unwrap_or_else(|e| panic!("{what}: {e}"));
                let after = count();
                assert!(after > before, "{what}: the call never reaches the site");
                let clean = fsck::fsck_repair(&mut repo, Some(root)).unwrap();
                assert!(clean.is_clean(), "{what}: {clean}");

                let mut failed = 0;
                for k in before..after {
                    let what = format!("{what} #{k}");
                    let plan = FaultPlan::fail_at_site(k as u64, site);
                    let mut repo = (row.stage)(plan.clone(), root);
                    assert_eq!(checkouts(&repo), snapshots);
                    failed += usize::from((row.call)(&mut repo, root).is_err());
                    assert_eq!(plan.fired(), 1, "{what}: site was not reached");
                    let again = fsck::fsck_repair(&mut repo, Some(root)).unwrap();
                    assert!(again.is_clean(), "{what}: {again}");
                    assert_eq!(checkouts(&repo), snapshots, "{what}");
                }
                // A failed read always surfaces; a failed removal may be
                // recorded instead (`OptimizeReport::gc_error`).
                assert!(
                    failed > 0 || site == "store.remove",
                    "{what}: no fault surfaced"
                );
            }
        }
    }

    #[test]
    fn no_store_fault_lets_a_durable_repack_or_its_recovery_collect_live_chunks() {
        sweep("optimize_durable");
        sweep("recover");
    }
}
