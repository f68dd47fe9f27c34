//! The working set of the passes that touch every version, or many.
//!
//! `optimize`, `fsck` and an online commit weighing several delta bases
//! read a history whose stored form is a small fraction of its logical
//! bytes. Each must hold that stored form and a few versions, not every
//! version: the live heap a pass adds stays under 16 × the largest
//! version, on a history of ~100 versions. A counting allocator measures
//! it (one test, so nothing else allocates meanwhile), and `dsv_par` runs
//! on one thread, as the benchmark runs it. `prepare_repack` reads every
//! object twice, not three times: once through the walk, which also
//! gives the old plan's closure, and once for the new plan's closure.

use dsv_core::{PlanSpec, Problem};
use dsv_storage::{FaultPlan, FaultStore, FileStore, MemStore, ObjectStore};
use dsv_vcs::{fsck, persist, CommitId, OnlineOptions, RepoStore, Repository};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live heap bytes, and the most there were since [`rise`] last reset it.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the arguments it was
// given, so `Counting` upholds `GlobalAlloc`'s contract wherever `System`
// does; the counters beside it are plain atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass on unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` / `realloc` above, which are
        // `System`'s, with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` passes on unchanged.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => {
                    LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
                }
            }
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with how far the live heap rose above
/// its level before the call.
fn rise<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(before))
}

/// A deterministic stream of cells.
struct Cells(u64);

impl Cells {
    fn next(&mut self) -> String {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        format!("x{:08x}", self.0 as u32)
    }

    fn row(&mut self) -> String {
        let cells: Vec<String> = (0..8).map(|_| self.next()).collect();
        cells.join(",") + "\n"
    }

    /// `parent` with three rows rewritten and four appended.
    fn edit(&mut self, parent: &[String]) -> Vec<String> {
        let mut rows = parent.to_vec();
        for _ in 0..3 {
            let at = (self.0 % rows.len() as u64) as usize;
            rows[at] = self.row();
        }
        rows.extend((0..4).map(|_| self.row()));
        rows
    }
}

/// The benchmark's history shape at `n` versions: a main line, branch
/// `a` from 15 % to 70 % (merged at 40 % and 70 %) and branch `b` from
/// 45 % to 85 % (merged at 85 %). Returns every version's rows and how
/// it is committed: `(branch, fork point, merged version)`.
type Step = (&'static str, Option<u32>, Option<u32>);

fn history(n: usize, rows: usize) -> (Vec<Vec<String>>, Vec<Step>) {
    let at = |share: f64| ((n as f64 * share) as usize).max(1);
    let (a_from, a_merge, a_until) = (at(0.15), at(0.40), at(0.70));
    let (b_from, b_until) = (at(0.45), at(0.85));
    let mut cells = Cells(0x2545_f491_4f6c_dd1d);
    let mut versions = vec![(0..rows).map(|_| cells.row()).collect::<Vec<_>>()];
    let mut steps: Vec<Step> = vec![("main", None, None)];
    let (mut main, mut a, mut b) = (0u32, None::<u32>, None::<u32>);
    for i in 1..n {
        let id = i as u32;
        let step: Step = match (a, b) {
            (Some(tip), _) if i == a_merge || i == a_until => ("main", None, Some(tip)),
            (_, Some(tip)) if i == b_until => ("main", None, Some(tip)),
            _ if (a_from..a_until).contains(&i) && i % 4 == 0 => {
                ("a", a.is_none().then_some(main), None)
            }
            _ if (b_from..b_until).contains(&i) && i % 5 == 2 => {
                ("b", b.is_none().then_some(main), None)
            }
            _ => ("main", None, None),
        };
        let parent = match step.0 {
            "a" => a.unwrap_or(main),
            "b" => b.unwrap_or(main),
            _ => main,
        };
        versions.push(cells.edit(&versions[parent as usize]));
        match step.0 {
            "a" => a = Some(id),
            "b" => b = Some(id),
            _ => main = id,
        }
        steps.push(step);
    }
    (versions, steps)
}

/// Commits the history into `repo`: every fourth version online.
fn commit_all<S: ObjectStore>(repo: &mut Repository<S>, versions: &[Vec<u8>], steps: &[Step]) {
    for (i, (data, &(branch, fork, merged))) in versions.iter().zip(steps).enumerate() {
        if let Some(from) = fork {
            repo.branch(branch, CommitId(from)).unwrap();
        }
        let id = match merged {
            Some(other) => repo.merge("main", CommitId(other), data, "merge").unwrap(),
            None if i % 4 == 3 => {
                let options = OnlineOptions {
                    hops: 2,
                    ..OnlineOptions::default()
                };
                repo.commit_online(branch, data, "online", options).unwrap()
            }
            None => repo.commit(branch, data, "commit").unwrap(),
        };
        assert_eq!(id, CommitId(i as u32));
    }
}

struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn passes_over_many_versions_hold_the_stored_history_not_every_version() {
    dsv_par::set_thread_count(Some(1));
    let (tables, steps) = history(100, 600);
    let merges = steps.iter().filter(|s| s.2.is_some()).count();
    let branches = steps.iter().filter(|s| s.1.is_some()).count();
    assert_eq!((merges, branches), (3, 2));
    let versions: Vec<Vec<u8>> = tables
        .iter()
        .map(|rows| rows.concat().into_bytes())
        .collect();
    drop(tables);
    let largest = versions.iter().map(Vec::len).max().unwrap();
    assert!((60 << 10..100 << 10).contains(&largest), "{largest} bytes");
    let bound = 16 * largest;
    let spec = PlanSpec::new(Problem::MinStorageGivenMaxRecreation {
        theta: 4 * largest as u64,
    });

    // prepare_repack reads every object twice: 2n gets.
    let sites = FaultPlan::count_sites();
    let mut counted = Repository::init(FaultStore::new(MemStore::new(true), sites.clone()));
    commit_all(&mut counted, &versions, &steps);
    let n = counted.version_count();
    assert_eq!(counted.store().inner().len(), n, "one object per version");
    let before = sites.hits() as usize;
    counted.prepare_repack(&spec).unwrap();
    let gets = sites.sites()[before..]
        .iter()
        .filter(|s| *s == "store.get")
        .count();
    assert_eq!(gets, 2 * n);
    drop(counted);

    let dir = TempDir(std::env::temp_dir().join(format!("dsv-working-set-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    std::fs::create_dir_all(&dir.0).unwrap();
    let store = FileStore::open(&dir.0.join("objects"), true).unwrap();
    let mut repo = Repository::init(RepoStore::Flat(store));
    commit_all(&mut repo, &versions, &steps);
    persist::save(&repo, &dir.0).unwrap();

    let (report, optimize) = rise(|| repo.optimize_with(&spec).unwrap());
    assert!(report.gc_error.is_none());
    persist::save(&repo, &dir.0).unwrap();
    drop(repo);

    // Re-opened, the repository holds no recent commit: every candidate
    // of the online commit is read from the store.
    let mut repo = persist::load(&dir.0, true).unwrap();
    let (report, check) = rise(|| fsck::fsck(&repo, Some(&dir.0)));
    assert!(report.is_clean(), "{report}");
    let mut next = versions[n - 1].clone();
    next.extend_from_slice(b"x0000abcd,appended,online\n");
    let options = OnlineOptions {
        hops: 4,
        ..OnlineOptions::default()
    };
    let (tip, online) = rise(|| {
        repo.commit_online("main", &next, "online", options)
            .unwrap()
    });
    assert_eq!(repo.checkout(tip).unwrap(), next);
    for (v, want) in versions.iter().enumerate() {
        assert_eq!(&repo.checkout(CommitId(v as u32)).unwrap(), want, "v{v}");
    }

    let logical: usize = versions.iter().map(Vec::len).sum();
    println!(
        "largest version {largest} B, logical {logical} B; heap rise: optimize {optimize} B, \
         fsck {check} B, online commit {online} B (bound {bound} B)"
    );
    assert!(
        optimize < bound,
        "optimize rose {optimize} B, bound {bound} B"
    );
    assert!(check < bound, "fsck rose {check} B, bound {bound} B");
    assert!(
        online < bound,
        "online commit rose {online} B, bound {bound} B"
    );
}
