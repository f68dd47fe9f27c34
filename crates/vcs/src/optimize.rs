//! Repository re-packing under the paper's optimization problems.
//!
//! [`Repository::optimize_with`] is the paper's contribution made
//! operational: materialize the history, reveal deltas around the commit
//! DAG, solve the [`PlanSpec`]'s problem through the planner
//! ([`dsv_core::plan()`] — Table-1 dispatch, a named registry solver, or a
//! portfolio), re-pack the object store along the resulting storage graph,
//! and garbage-collect the objects the old plan used. The spec's
//! [`ModePolicy`] picks the storage model; under [`ModePolicy::Auto`] a
//! repository whose placement policy is chunked is optimized in the
//! three-mode hybrid model (its chunk store is already paid for), others
//! in the paper's binary model.

use crate::error::VcsError;
use crate::gc::{self, Roots};
use crate::persist::{self, RepackJournal};
use crate::repo::{Placement, Repository};
use dsv_core::{
    plan, ChunkerParams, CostMatrix, CostPair, ModePolicy, PlanSpec, Problem, ProblemInstance,
    Provenance, StorageMode,
};
use dsv_delta::bytes_delta;
use dsv_obs as obs;
use dsv_storage::chunk::{chunked_cost_pairs, pack_versions_hybrid};
use dsv_storage::{pack_from, ObjectId, ObjectStore, Priced, VersionWalk};
use std::collections::HashSet;
use std::path::Path;

/// What an [`Repository::optimize_with`] call achieved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimizeReport {
    /// Problem that was solved.
    pub problem: Problem,
    /// How the winning plan was chosen: solver name, feasibility, and —
    /// for portfolio runs — every candidate's outcome.
    pub provenance: Provenance,
    /// Physical store bytes before re-packing.
    pub storage_before: u64,
    /// Physical store bytes after re-packing and GC.
    pub storage_after: u64,
    /// Number of versions now materialized.
    pub materialized: usize,
    /// Number of versions now stored as chunk manifests (hybrid target
    /// only; 0 for binary optimizes).
    pub chunked: usize,
    /// Predicted total storage cost of the chosen plan. For a binary
    /// plan over distinct versions this is `storage_after` to the byte:
    /// the matrix prices every object as the store encodes it.
    pub planned_storage_cost: u64,
    /// Predicted maximum recreation cost of the chosen plan.
    pub planned_max_recreation: u64,
    /// Predicted sum of recreation costs.
    pub planned_sum_recreation: u64,
    /// Why garbage collection of the old plan's objects did not finish,
    /// if it did not: some of them are still stored (`storage_after`
    /// counts them) until `fsck --repair` collects them.
    pub gc_error: Option<String>,
}

/// A planned-and-packed but not-yet-applied repack, produced by
/// [`Repository::prepare_repack`]. The new plan's objects are already in
/// the store *alongside* the old plan's (content addressing makes that
/// free of conflicts), so applying it is a pure metadata swap
/// ([`Repository::apply_repack`]) and garbage collection
/// ([`Repository::gc_repack`]) runs strictly afterwards. Durable callers
/// write [`PreparedRepack::journal`] between pack and swap so an
/// interrupted repack can be rolled forward or backward on recovery.
pub struct PreparedRepack {
    new_objects: Vec<ObjectId>,
    new_plan: Vec<StorageMode>,
    stale: Vec<ObjectId>,
    /// The new plan's reference closure: what [`Repository::gc_repack`]
    /// must keep. Not journaled — recovery reads it back from the store.
    live: HashSet<ObjectId>,
    report: OptimizeReport,
}

impl PreparedRepack {
    /// The intent record to journal before swapping metadata.
    pub fn journal(&self) -> RepackJournal {
        RepackJournal {
            new_objects: self.new_objects.clone(),
            stale: self.stale.clone(),
        }
    }

    /// Ids referenced only by the old plan (removed by
    /// [`Repository::gc_repack`]).
    pub fn stale(&self) -> &[ObjectId] {
        &self.stale
    }
}

impl<S: ObjectStore> Repository<S> {
    /// Rebuilds the repository's storage layout per `spec`: reveal deltas
    /// within `spec.reveal_hop_count()` hops of the commit DAG (plus
    /// per-version chunked estimates when the effective mode policy is
    /// hybrid), solve the spec's problem with its chosen solver(s), then
    /// execute the winning plan end-to-end — chunked versions become
    /// deduplicated manifests, delta versions chain off whatever mode
    /// their parent landed in — and garbage-collect the old layout. The
    /// returned report carries the planner's [`Provenance`].
    ///
    /// This is the in-memory composition of the repack phases; on-disk
    /// repositories should use [`Repository::optimize_durable`], which
    /// journals the swap so a crash at any point is recoverable.
    pub fn optimize_with(&mut self, spec: &PlanSpec) -> Result<OptimizeReport, VcsError> {
        let _optimize = obs::span!("optimize", versions = self.version_count()).entered();
        let prepared = self.prepare_repack(spec)?;
        self.apply_repack(&prepared);
        Ok(self.gc_repack(prepared))
    }

    /// The crash-safe repack for a repository persisted at `root`:
    ///
    /// 1. plan + pack the new objects (additive — old plan still intact),
    /// 2. durably journal the intent ([`RepackJournal`]),
    /// 3. swap the in-memory plan and crash-atomically rewrite `meta.dsv`,
    /// 4. only then GC the stale objects and clear the journal — which
    ///    stays if the GC did not finish ([`OptimizeReport::gc_error`]), so
    ///    recovery rolls it forward.
    ///
    /// A crash before step 3's rename leaves the old plan plus orphaned
    /// new objects; a crash after it leaves the new plan plus
    /// not-yet-collected stale objects. Either way the repository loads
    /// and `dsv fsck` (or server restart recovery) finishes the job. If
    /// the meta rewrite *fails* (no crash), the in-memory plan is rolled
    /// back so memory never diverges from disk.
    pub fn optimize_durable(
        &mut self,
        spec: &PlanSpec,
        root: &Path,
    ) -> Result<OptimizeReport, VcsError> {
        let _optimize = obs::span!("optimize", versions = self.version_count()).entered();
        let prepared = self.prepare_repack(spec)?;
        persist::write_journal(root, &prepared.journal())?;
        let checkpoint = self.checkpoint();
        self.apply_repack(&prepared);
        if let Err(e) = persist::save(self, root) {
            // Roll back the swap: disk still holds the old meta, so memory
            // must too. The packed objects stay behind as orphans for fsck
            // (removing them here could race another failure).
            self.restore(checkpoint);
            let _ = persist::clear_journal(root);
            return Err(e);
        }
        let report = self.gc_repack(prepared);
        if report.gc_error.is_none() {
            // A failed journal removal is not an error: the swap is
            // durable, and recovery rolls the journal forward idempotently.
            let _ = persist::clear_journal(root);
        }
        Ok(report)
    }

    /// Phase 1 of a repack: materialize, reveal, solve, and pack the new
    /// plan's objects into the store next to the old plan's. Nothing in
    /// the repository's metadata changes; the returned
    /// [`PreparedRepack`] names the new object list and the stale ids.
    pub fn prepare_repack(&self, spec: &PlanSpec) -> Result<PreparedRepack, VcsError> {
        let n = self.version_count();
        if n == 0 {
            return Err(VcsError::EmptyRepository);
        }
        // A solver choice the planner would refuse is refused before any
        // version is read.
        spec.resolve_solvers()?;
        // Resolve the storage-mode policy against the repository: under
        // `Auto`, a chunked-placement repository optimizes in the hybrid
        // model with its own chunker parameters (previously `optimize`
        // silently fell back to the binary model and un-chunked the repo).
        let chunking: Option<ChunkerParams> = match spec.mode_policy() {
            ModePolicy::Binary => None,
            ModePolicy::Hybrid(params) => Some(params),
            ModePolicy::Auto => match self.placement() {
                Placement::Chunked(params) => Some(params),
                Placement::GreedyDelta => None,
            },
        };
        let reveal_hops = spec.reveal_hop_count();
        let storage_before = self.store.total_bytes();
        obs::counter!("optimize.runs", 1);

        // Read the history once, as its stored form: every object the
        // versions' recreation paths need is fetched and decoded once,
        // and a version is derived from the deltas when a step asks for
        // it (see `VersionWalk`). The diagonal derives every version once
        // in plan-tree order, and a store that cannot give one back stops
        // the repack here, before anything is written. The hybrid
        // estimator and packer still take every version as a slice.
        let price = self.price(chunking.is_some());
        let walk = VersionWalk::load(&self.store, &self.objects);
        let mut diag: Vec<Option<CostPair>> = vec![None; n];
        let mut contents: Vec<Vec<u8>> = Vec::new();
        if chunking.is_some() {
            contents.resize(n, Vec::new());
        }
        walk.try_each(|v, bytes| {
            diag[v] = Some(price(Priced::Full, bytes));
            if chunking.is_some() {
                contents[v] = bytes.to_vec();
            }
        })?;
        let diag = diag.into_iter().map(|c| c.expect("every version derived"));
        let mut matrix = CostMatrix::directed(diag.collect());

        // Build the instance over real byte deltas, priced as a commit
        // prices them. The all-pairs reveal is the optimize hot path
        // (§5.1's "real deltas between every pair"): encode and price
        // both directions of every pair on the dsv-par runtime, one source
        // index per version, then reveal sequentially (reveal order does
        // not affect the matrix).
        let pairs = self.pairs_within_hops(reveal_hops);
        let reveal_span = obs::span!("reveal", pairs = pairs.len()).entered();
        let priced = |delta: &[u8]| price(Priced::Delta, delta);
        let costs = match chunking {
            Some(_) => bytes_delta::pair_costs(&contents, &pairs, priced),
            None => bytes_delta::pair_costs_from(&walk, &pairs, priced),
        };
        for (&(a, b), (fwd, rev)) in pairs.iter().zip(costs) {
            matrix.reveal(a, b, fwd);
            matrix.reveal(b, a, rev);
        }
        drop(reveal_span);
        if let Some(params) = chunking {
            for (i, pair) in chunked_cost_pairs(&contents, params)
                .into_iter()
                .enumerate()
            {
                matrix.set_chunked(i as u32, pair);
            }
        }
        let instance = ProblemInstance::new(matrix);
        let chosen = plan(&instance, spec)?;
        let solution = chosen.solution;

        // The old plan's reference closure is what the walk read: the
        // versions' objects and the chunks of their manifests (so
        // re-packing a chunked repository reclaims its chunks instead of
        // leaking them). New objects are packed alongside the old ones
        // and stale objects are removed only after the pack succeeds — a
        // failed or interrupted repack must never destroy a store that is
        // the only copy of the history (`ObjectStore::clear` would).
        let old: HashSet<ObjectId> = walk.referenced().collect();
        let packed = match chunking {
            Some(params) => {
                pack_versions_hybrid(&self.store, &contents, solution.modes(), params)?.0
            }
            None => pack_from(&self.store, &walk, solution.parents())?,
        };
        drop(walk);
        let live = gc::closure(&self.store, &packed.ids, Roots::Referenced).map_err(|(_, e)| e)?;
        let stale: Vec<_> = old.difference(&live).copied().collect();
        Ok(PreparedRepack {
            new_objects: packed.ids,
            new_plan: solution.modes().to_vec(),
            stale,
            live,
            report: OptimizeReport {
                problem: spec.problem(),
                provenance: chosen.provenance,
                storage_before,
                storage_after: 0, // filled in by gc_repack
                materialized: solution.materialized().count(),
                chunked: solution.chunked().count(),
                planned_storage_cost: solution.storage_cost(),
                planned_max_recreation: solution.max_recreation(),
                planned_sum_recreation: solution.sum_recreation(),
                gc_error: None, // filled in by gc_repack
            },
        })
    }

    /// Phase 2 of a repack: swap the repository's plan metadata to the
    /// prepared layout. Pure in-memory bookkeeping — callers persisting
    /// to disk journal first and save immediately after.
    pub fn apply_repack(&mut self, prepared: &PreparedRepack) {
        self.objects = prepared.new_objects.clone();
        self.plan = prepared.new_plan.clone();
        self.forget_recent();
        // The repack orphaned the old plan's object ids: entries in the
        // checkout cache are keyed by content address so they could never
        // serve stale bytes, but they would sit dead under the byte
        // budget. Drop them.
        if let Some(cache) = self.checkout_cache() {
            cache.clear();
        }
    }

    /// Phase 3 of a repack: remove the old plan's now-unreferenced
    /// objects and finish the report. Runs strictly after the swap is
    /// (durably, for on-disk callers) applied, so an interruption here
    /// can only leave collectable orphans, never a broken history — the
    /// repack itself succeeded, so a failed removal is recorded in the
    /// report ([`OptimizeReport::gc_error`]) rather than returned.
    pub fn gc_repack(&mut self, prepared: PreparedRepack) -> OptimizeReport {
        let PreparedRepack {
            stale,
            live,
            mut report,
            ..
        } = prepared;
        let gc_span = obs::span!("gc", stale = stale.len());
        obs::counter!("optimize.gc.stale_objects", stale.len() as u64);
        let gc = gc_span.in_scope(|| gc::collect(&self.store, &stale, &live));
        drop(gc_span);
        report.gc_error = gc.err().map(|e| e.to_string());
        report.storage_after = self.store.total_bytes();
        obs::gauge!("optimize.storage_after_bytes", report.storage_after as f64);
        report
    }

    /// Unordered commit pairs within `hops` in the (undirected) commit
    /// DAG — the reveal strategy for optimize.
    fn pairs_within_hops(&self, hops: usize) -> Vec<(u32, u32)> {
        let edges = self
            .commits
            .iter()
            .flat_map(|meta| meta.parents.iter().map(move |p| (meta.id.0, p.0)));
        dsv_core::pairs_within_hops(self.version_count(), edges, hops)
            .into_iter()
            .map(|(a, b, _)| (a, b))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit::CommitId;
    use crate::gc::sweep;
    use dsv_core::SolverChoice;
    use dsv_storage::{Materializer, MemStore};

    fn spec(problem: Problem, hops: usize) -> PlanSpec {
        PlanSpec::new(problem).reveal_hops(hops)
    }

    /// A repo with a mainline and one long side chain, sized so the
    /// tradeoff is visible.
    fn populated() -> Repository<MemStore> {
        let mut repo = Repository::in_memory();
        let row = |i: usize| format!("{i},payload-{},2015\n", i * 31);
        let csv_of = |rows: std::ops::Range<usize>| -> Vec<u8> {
            let mut out = b"id,payload,year\n".to_vec();
            for i in rows {
                out.extend_from_slice(row(i).as_bytes());
            }
            out
        };
        let v0 = repo.commit("main", &csv_of(0..300), "base").unwrap();
        for k in 1..=6 {
            repo.commit("main", &csv_of(0..300 + k * 5), "grow")
                .unwrap();
        }
        repo.branch("side", v0).unwrap();
        for k in 1..=6 {
            repo.commit("side", &csv_of(k..300), "shrink").unwrap();
        }
        repo
    }

    #[test]
    fn optimize_min_storage_shrinks_the_store() {
        let mut repo = populated();
        // Inflate: force-materialize everything first via an optimize
        // with hop 0 reveals... simpler: measure after MinStorage and
        // compare with naive total.
        let naive: u64 = (0..repo.version_count() as u32)
            .map(|v| repo.meta(CommitId(v)).unwrap().size)
            .sum();
        let report = repo.optimize_with(&spec(Problem::MinStorage, 4)).unwrap();
        assert!(report.storage_after < naive / 2);
        assert_eq!(report.materialized, 1);
        // Contents still intact.
        for v in 0..repo.version_count() as u32 {
            assert!(!repo.checkout(CommitId(v)).unwrap().is_empty());
        }
    }

    #[test]
    fn optimize_min_recreation_materializes_everything() {
        let mut repo = populated();
        let report = repo
            .optimize_with(&spec(Problem::MinRecreation, 4))
            .unwrap();
        // With Φ = Δ and real diffs, materializing is optimal per version
        // unless a chain is cheaper — for grown/shrunk CSVs most versions
        // should materialize.
        assert!(report.materialized >= repo.version_count() / 2);
    }

    #[test]
    fn optimize_respects_max_recreation_threshold() {
        let mut repo = populated();
        let max_size = (0..repo.version_count() as u32)
            .map(|v| repo.meta(CommitId(v)).unwrap().size)
            .max()
            .unwrap();
        let theta = max_size * 3 / 2;
        let report = repo
            .optimize_with(&spec(Problem::MinStorageGivenMaxRecreation { theta }, 4))
            .unwrap();
        assert!(report.planned_max_recreation <= theta);
        // For an uncompressed store with Φ = Δ, the *measured* bytes read
        // during checkout equal the plan's predicted recreation cost: the
        // matrix was built from the same byte-delta encoder that packed
        // the objects. This ties prediction to reality per version.
        let m = Materializer::new(&repo.store);
        for v in 0..repo.version_count() as u32 {
            let (_, work) = m.materialize_measured(repo.objects[v as usize]).unwrap();
            assert!(
                work.bytes_read <= theta,
                "v{v}: read {} vs theta {theta}",
                work.bytes_read
            );
        }
    }

    #[test]
    fn optimize_gc_reclaims_old_objects() {
        let mut repo = populated();
        repo.optimize_with(&spec(Problem::MinRecreation, 4))
            .unwrap();
        let after_spt = repo.storage_bytes();
        let report = repo.optimize_with(&spec(Problem::MinStorage, 4)).unwrap();
        assert_eq!(report.storage_before, after_spt);
        assert!(report.storage_after < after_spt);
    }

    #[test]
    fn roundtrip_after_repeated_optimizes() {
        let mut repo = populated();
        let snapshots: Vec<Vec<u8>> = (0..repo.version_count() as u32)
            .map(|v| repo.checkout(CommitId(v)).unwrap())
            .collect();
        for problem in [
            Problem::MinStorage,
            Problem::MinRecreation,
            Problem::MinStorage,
        ] {
            repo.optimize_with(&spec(problem, 3)).unwrap();
            for (v, expected) in snapshots.iter().enumerate() {
                assert_eq!(
                    &repo.checkout(CommitId(v as u32)).unwrap(),
                    expected,
                    "content must survive repacking (v{v})"
                );
            }
        }
    }

    fn chunked_repo() -> Repository<MemStore> {
        sweep::chunked_repo_on(MemStore::new(false))
    }

    #[test]
    fn optimize_reclaims_chunks_of_a_chunked_repo() {
        // A chunked repo re-packed into a *binary* delta plan (explicitly
        // requested — Auto would keep it hybrid) must GC its manifests AND
        // their chunk objects.
        let mut repo = chunked_repo();
        let objects_before = repo.store.len();
        let report = repo
            .optimize_with(&spec(Problem::MinStorage, 4).modes(ModePolicy::Binary))
            .unwrap();
        // After repacking, only the plan's objects remain: one Full root
        // plus a delta per remaining version. No orphaned chunks.
        assert_eq!(repo.store.len(), repo.version_count());
        assert!(repo.store.len() < objects_before);
        assert!(report.storage_after < report.storage_before);
        for v in 0..repo.version_count() as u32 {
            assert!(!repo.checkout(CommitId(v)).unwrap().is_empty());
        }
    }

    #[test]
    fn auto_policy_routes_chunked_placement_through_hybrid() {
        // The bug this fixes: `dsv optimize` (no mode flag) on a
        // Placement::Chunked repository silently fell back to the binary
        // model. Under ModePolicy::Auto the persisted placement routes the
        // solve through the hybrid path with the placement's own chunker
        // parameters.
        let mut repo = chunked_repo();
        let snapshots: Vec<Vec<u8>> = (0..repo.version_count() as u32)
            .map(|v| repo.checkout(CommitId(v)).unwrap())
            .collect();
        let report = repo.optimize_with(&spec(Problem::MinStorage, 4)).unwrap();
        // The solve genuinely considered chunked modes: on a grow-only
        // history the dedup increments beat full materialization, so the
        // min-storage plan keeps at least its root in the chunk store.
        assert!(
            report.chunked >= 1,
            "chunked-placement repo was optimized in the binary model"
        );
        assert_eq!(
            repo.current_plan()
                .iter()
                .filter(|m| m.is_chunked())
                .count(),
            report.chunked
        );
        // An explicit Binary request on a fresh copy stores no less.
        let mut binary = chunked_repo();
        let binary_report = binary
            .optimize_with(&spec(Problem::MinStorage, 4).modes(ModePolicy::Binary))
            .unwrap();
        assert!(report.planned_storage_cost <= binary_report.planned_storage_cost);
        for (v, expected) in snapshots.iter().enumerate() {
            assert_eq!(
                &repo.checkout(CommitId(v as u32)).unwrap(),
                expected,
                "v{v}"
            );
        }
    }

    #[test]
    fn a_failed_store_read_never_lets_gc_collect_live_chunks() {
        // A hybrid optimize of a chunked repository shares chunks between
        // the old plan and the new: a read error while collecting either
        // plan's references must not put live chunks on the stale list,
        // and a removal that fails half-way must leave only orphans.
        sweep::sweep("optimize_with");
    }

    #[test]
    fn portfolio_optimize_carries_full_provenance() {
        let mut repo = populated();
        let report = repo
            .optimize_with(&spec(Problem::MinStorage, 4).solver(SolverChoice::Portfolio))
            .unwrap();
        assert!(report.provenance.portfolio);
        assert!(report.provenance.feasible);
        assert!(report.provenance.candidates.len() >= 3);
        // P1 is exact for MST: the winner matches its storage (ties may
        // crown another solver with a better secondary metric).
        let mst_c = report
            .provenance
            .candidates
            .iter()
            .find(|c| c.solver == "mst")
            .and_then(|c| c.result.as_ref().ok())
            .expect("mst candidate recorded");
        assert_eq!(report.planned_storage_cost, mst_c.storage);
        for v in 0..repo.version_count() as u32 {
            assert!(!repo.checkout(CommitId(v)).unwrap().is_empty());
        }
    }

    #[test]
    fn hybrid_optimize_executes_mixed_plans_end_to_end() {
        let mut repo = populated();
        let snapshots: Vec<Vec<u8>> = (0..repo.version_count() as u32)
            .map(|v| repo.checkout(CommitId(v)).unwrap())
            .collect();
        // A max-recreation bound just above the largest version: binary
        // solves must materialize aggressively; the hybrid target can
        // chunk instead where increments are cheaper.
        let max_size = snapshots.iter().map(|s| s.len() as u64).max().unwrap();
        let theta = max_size * 13 / 10;
        let problem = Problem::MinStorageGivenMaxRecreation { theta };
        let hybrid = repo
            .optimize_with(&spec(problem, 4).modes(ModePolicy::Hybrid(ChunkerParams::default())))
            .unwrap();
        assert!(hybrid.planned_max_recreation <= theta);
        // The solver-chosen plan survives in the repo and contents are
        // byte-exact under the mixed layout.
        assert_eq!(
            repo.current_plan()
                .iter()
                .filter(|m| m.is_chunked())
                .count(),
            hybrid.chunked
        );
        for (v, expected) in snapshots.iter().enumerate() {
            assert_eq!(
                &repo.checkout(CommitId(v as u32)).unwrap(),
                expected,
                "v{v}"
            );
        }
        // Against the binary solve of the same problem on a fresh copy of
        // the same history, the hybrid plan stores no more.
        let mut binary_repo = populated();
        let binary = binary_repo.optimize_with(&spec(problem, 4)).unwrap();
        assert!(
            hybrid.planned_storage_cost <= binary.planned_storage_cost,
            "hybrid {} vs binary {}",
            hybrid.planned_storage_cost,
            binary.planned_storage_cost
        );
        // Re-optimizing back to a pure delta plan reclaims the chunks.
        let report = repo.optimize_with(&spec(Problem::MinStorage, 4)).unwrap();
        assert_eq!(report.chunked, 0);
        assert_eq!(repo.store.len(), repo.version_count());
    }

    #[test]
    fn empty_repo_rejected() {
        let mut repo = Repository::in_memory();
        assert!(matches!(
            repo.optimize_with(&spec(Problem::MinStorage, 2)),
            Err(VcsError::EmptyRepository)
        ));
    }

    /// A solver choice the planner would refuse fails the repack before
    /// the store is read: no version is materialized to learn that `lmg`
    /// does not solve Problem 1 or that `nosuch` is not registered.
    #[test]
    fn an_unusable_solver_is_refused_before_any_store_read() {
        use dsv_core::SolveError;
        use dsv_storage::fault::{FaultPlan, FaultStore};
        let sites = FaultPlan::count_sites();
        let mut repo = Repository::init(FaultStore::new(MemStore::new(false), sites.clone()));
        for k in 0..3 {
            let data = format!("id,name\n{k},v{k}\n");
            repo.commit("main", data.as_bytes(), "c").unwrap();
        }
        let before = sites.sites().len();
        let refused = |choice: SolverChoice| {
            let spec = spec(Problem::MinStorage, 4).solver(choice);
            match repo.prepare_repack(&spec) {
                Err(VcsError::Solve(e)) => e,
                Err(e) => panic!("{e}"),
                Ok(_) => panic!("the repack was prepared"),
            }
        };
        assert_eq!(
            refused(SolverChoice::named("lmg")),
            SolveError::UnsupportedProblem {
                solver: "lmg",
                problem: 1
            }
        );
        assert_eq!(
            refused(SolverChoice::named("nosuch")),
            SolveError::UnknownSolver("nosuch".into())
        );
        let reads = sites.sites()[before..]
            .iter()
            .filter(|s| *s == "store.get")
            .count();
        assert_eq!(reads, 0);
    }
}
