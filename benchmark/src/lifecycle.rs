//! One pass of the paper's pipeline over the generated history, through
//! the library only: ingest → optimize (P6) → cold checkouts → recover.
//!
//! It is the timed round of `local-lifecycle`, the golden-repository
//! build in every serve workload's set-up, and (at smoke scale) the
//! process warm-up. The checkout cache is never enabled here.

use crate::gen::{Inputs, Step};
use crate::sys;
use crate::trace::Recorder;
use dsv_core::{PlanSpec, Problem};
use dsv_storage::{FileStore, ObjectStore, RecreationWork};
use dsv_vcs::{
    fsck, persist, CommitId, FsckReport, OnlineOptions, OptimizeReport, RepoStore, Repository,
    VcsError,
};
use std::path::Path;
use std::time::Instant;

/// Cold passes over every version per lifecycle pass.
pub const COLD_PASSES: usize = 3;

/// What one pass measured. Durations in seconds unless named otherwise.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Process CPU (user + system) over the whole pass, microseconds.
    pub cpu_us: f64,
    pub ingest_s: f64,
    pub optimize_s: f64,
    /// All [`COLD_PASSES`] passes over every version.
    pub cold_s: f64,
    pub recover_s: f64,
    /// Uncached `Repository::checkout_measured` latencies, all passes.
    pub checkout_us: Vec<f64>,
    /// `store().total_bytes()` after optimize.
    pub stored_bytes: u64,
    /// Σ `RecreationWork` of one cold checkout of every version.
    pub recreation: RecreationWork,
    /// Largest single-version `bytes_read` of that pass.
    pub max_recreation_bytes: u64,
    /// `meta.dsv` size at the full history.
    pub meta_bytes: u64,
    pub report: Option<OptimizeReport>,
    /// Fault sites (every durable fs operation) and fsyncs the ingest
    /// traversed; counted by traced passes only.
    pub fs_ops: u64,
    pub fsyncs: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Pass {
    /// The timed part of the pass: the four phases, without the
    /// directory handling around them.
    pub fn seconds(&self) -> f64 {
        self.ingest_s + self.optimize_s + self.cold_s + self.recover_s
    }
}

/// The spec `dsv optimize <repo> p6 <θ>` builds, with θ = 4 × the
/// largest version: minimise storage subject to max recreation ≤ θ,
/// Table-1 solver, `ModePolicy::Auto`, reveal within 5 hops.
pub fn optimize_spec(inputs: &Inputs) -> PlanSpec {
    PlanSpec::new(Problem::MinStorageGivenMaxRecreation {
        theta: 4 * inputs.largest_version(),
    })
}

fn open_empty(dir: &Path) -> Repository<RepoStore> {
    let store = FileStore::open(&dir.join("objects"), true).expect("open object dir");
    let repo = Repository::init(RepoStore::Flat(store));
    persist::save(&repo, dir).expect("save empty repository");
    repo
}

/// Commits version `i` of the model as `dsv commit` would: the commit,
/// then `persist::save`.
fn commit_step(
    repo: &mut Repository<RepoStore>,
    dir: &Path,
    inputs: &Inputs,
    i: usize,
    tr: &Recorder,
) -> bool {
    let data = &inputs.contents[i];
    let message = format!("v{i}");
    let online = is_online(inputs, i);
    let span = tr.span(if online {
        "vcs.commit_online"
    } else {
        "vcs.commit"
    });
    let id = match &inputs.steps[i] {
        Step::Merge { other } => repo.merge("main", CommitId(*other), data, &message),
        Step::Commit { branch, fork_from } => {
            if let Some(from) = fork_from {
                repo.branch(branch, CommitId(*from))
                    .expect("fork point exists");
            }
            if online {
                let options = OnlineOptions {
                    hops: 2,
                    ..OnlineOptions::default()
                };
                repo.commit_online(branch, data, &message, options)
            } else {
                repo.commit(branch, data, &message)
            }
        }
    };
    drop(span);
    let saved = tr.time("vcs.persist_save", || persist::save(repo, dir));
    matches!(id, Ok(CommitId(v)) if v as usize == i) && saved.is_ok()
}

/// Every 4th version takes the online path, unless it is a merge.
fn is_online(inputs: &Inputs, i: usize) -> bool {
    i % 4 == 3 && matches!(inputs.steps[i], Step::Commit { .. })
}

/// Ingests the whole model into a fresh repository at `dir`.
pub fn ingest(
    inputs: &Inputs,
    dir: &Path,
    pass: &mut Pass,
    tr: &Recorder,
) -> Repository<RepoStore> {
    let _span = tr.span("lifecycle.ingest");
    let started = Instant::now();
    let mut repo = open_empty(dir);
    for i in 0..inputs.contents.len() {
        let ok = commit_step(&mut repo, dir, inputs, i, tr);
        pass.attempted += 1;
        pass.failed += u64::from(!ok);
    }
    pass.ingest_s = started.elapsed().as_secs_f64();
    pass.meta_bytes = std::fs::metadata(dir.join("meta.dsv")).map_or(0, |m| m.len());
    repo
}

/// [`COLD_PASSES`] passes checking out every version, uncached, against
/// the model; the first pass's recreation work is the pass's.
pub fn cold_checkouts(
    repo: &Repository<RepoStore>,
    inputs: &Inputs,
    pass: &mut Pass,
    tr: &Recorder,
) {
    let _span = tr.span("lifecycle.cold_checkouts");
    let started = Instant::now();
    for n in 0..COLD_PASSES {
        let (mut total, mut worst) = (RecreationWork::default(), 0);
        for (i, want) in inputs.contents.iter().enumerate() {
            let op = Instant::now();
            let got = tr.time("vcs.checkout", || {
                repo.checkout_measured(CommitId(i as u32))
            });
            pass.checkout_us.push(op.elapsed().as_secs_f64() * 1e6);
            pass.attempted += 1;
            match got {
                Ok((bytes, work)) if &bytes == want => {
                    total.add(work);
                    worst = worst.max(work.bytes_read);
                }
                _ => pass.failed += 1,
            }
        }
        if n == 0 {
            pass.recreation = total;
            pass.max_recreation_bytes = worst;
        }
    }
    pass.cold_s = started.elapsed().as_secs_f64();
}

/// Books the outcome of the recover phase: the repository must have
/// re-opened clean with every version.
pub fn recovered(
    outcome: Result<(Repository<RepoStore>, FsckReport), VcsError>,
    inputs: &Inputs,
    pass: &mut Pass,
) -> Repository<RepoStore> {
    pass.attempted += 1;
    let (repo, report) = outcome.expect("a repository this process just wrote re-opens");
    if !report.is_clean() || repo.version_count() != inputs.contents.len() {
        pass.failed += 1;
    }
    repo
}

/// The full pass in a fresh `dir`. Returns the measurements and the
/// recovered (re-opened, fsck-clean) repository.
pub fn run(inputs: &Inputs, dir: &Path, tr: &Recorder) -> (Pass, Repository<RepoStore>) {
    let mut pass = Pass::default();
    let cpu_before = sys::cpu_micros();
    let mut repo = ingest(inputs, dir, &mut pass, tr);

    let started = Instant::now();
    let report = {
        let _span = tr.span("lifecycle.optimize");
        repo.optimize_durable(&optimize_spec(inputs), dir)
    };
    pass.optimize_s = started.elapsed().as_secs_f64();
    pass.attempted += 1;
    pass.failed += u64::from(report.is_err());
    pass.report = report.ok();
    pass.stored_bytes = repo.store().total_bytes();

    cold_checkouts(&repo, inputs, &mut pass, tr);
    drop(repo);

    let started = Instant::now();
    let outcome = {
        let _span = tr.span("lifecycle.recover");
        fsck::recover_at(dir, true)
    };
    pass.recover_s = started.elapsed().as_secs_f64();
    let repo = recovered(outcome, inputs, &mut pass);
    pass.cpu_us = (sys::cpu_micros() - cpu_before) as f64;
    (pass, repo)
}
