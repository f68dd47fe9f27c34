#![warn(missing_docs)]

//! Offline shim for the `rayon` crate: a std-only parallel-map runtime.
//!
//! No cargo registry is reachable in this build environment, so the
//! workspace carries the subset of rayon it uses as a local crate (see
//! `crates/shims/`). The subset, and what it maps to upstream:
//!
//! | shim | rayon equivalent |
//! |---|---|
//! | [`par_map`]`(items, f)` | `items.par_iter().map(f).collect()` |
//! | [`par_map_init`]`(items, init, f)` | `items.par_iter().map_init(init, f).collect()` |
//! | [`current_threads`]`()` | `rayon::current_num_threads()` |
//! | [`with_thread_count`]`(n, f)` | `ThreadPoolBuilder::new().num_threads(n).build().install(f)` |
//! | [`set_thread_count`]`(n)` | `ThreadPoolBuilder::num_threads(n).build_global()` |
//!
//! There is no persistent pool: each `par_map` call spawns scoped workers
//! (`std::thread::scope`), so the shim needs no shutdown story and cannot
//! leak threads. Scheduling *within* a call is dynamic self-scheduling:
//! every worker claims the next unclaimed index from one shared counter,
//! so a worker that lands on an expensive item (a distant diff, a slow
//! solver) simply claims fewer, and the others drain the rest. Results
//! always come back in input order, and for a pure `f` the output is
//! bitwise identical at every thread count — the determinism contract the
//! callers (dataset reveal, chunk estimation, portfolio solves, packing)
//! rely on.
//!
//! The effective thread count is resolved per call, in priority order:
//! the innermost [`with_thread_count`] scope on the calling thread, the
//! process-wide [`set_thread_count`] override (the CLI's `--threads`),
//! the `DSV_THREADS` environment variable, and finally
//! `std::thread::available_parallelism()`.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static LOCAL_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// The thread count [`par_map`] will use if called from this thread:
/// the innermost [`with_thread_count`] scope, else the
/// [`set_thread_count`] global, else `DSV_THREADS`, else the machine's
/// available parallelism.
pub fn current_threads() -> usize {
    let local = LOCAL_THREADS.with(Cell::get);
    if local > 0 {
        return local;
    }
    let global = GLOBAL_THREADS.load(Ordering::Relaxed);
    if global > 0 {
        return global;
    }
    if let Ok(value) = std::env::var("DSV_THREADS") {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Sets (`Some(n)`) or clears (`None`) the process-wide thread-count
/// override. Explicit requests are honored as given — oversubscription is
/// allowed, matching `DSV_THREADS` semantics.
pub fn set_thread_count(threads: Option<usize>) {
    GLOBAL_THREADS.store(threads.map_or(0, |n| n.max(1)), Ordering::Relaxed);
}

/// Runs `f` with the calling thread's effective thread count pinned to
/// `threads` (restored afterwards, panic-safe). This is how benchmarks
/// and the determinism tests compare thread counts race-free within one
/// process: the override is thread-local, not an environment variable.
pub fn with_thread_count<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_THREADS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(LOCAL_THREADS.with(Cell::get));
    LOCAL_THREADS.with(|c| c.set(threads.max(1)));
    f()
}

/// Applies `f` to every item across [`current_threads`] workers,
/// returning results in input order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    par_map_init(items, || (), |(), item| f(item))
}

/// [`par_map`] with per-worker state: each worker calls `init` once and
/// hands the state to `f` for every item it claims, so a worker can keep
/// what one item leaves behind for the next (the sequential path makes
/// one state for all items). For an `f` whose result does not depend on
/// the state, output is identical at every thread count.
pub fn par_map_init<T: Sync, S, R: Send>(
    items: &[T],
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<R> {
    par_map_threads(items, current_threads(), init, f)
}

/// Applies `f` to every item across up to `threads` workers, returning
/// results in input order. `threads == 1` (or a single-item input) runs
/// sequentially on the calling thread; output is identical either way
/// for a pure `f`.
///
/// There is deliberately no "small input" sequential cutoff beyond one
/// item: the callers' items are coarse (whole diffs, whole solver runs —
/// a portfolio is ~10 items of seconds each), so an item-count heuristic
/// would serialize exactly the workloads that benefit most.
fn par_map_threads<T: Sync, S, R: Send>(
    items: &[T],
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.max(1).min(items.len());
    if threads <= 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    // The counter hands out indices and publishes nothing else: results
    // reach this thread through `join`.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut state = init();
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return out;
            };
            out.push((i, f(&mut state, item)));
        }
    };
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        for handle in handles {
            for (i, result) in handle.join().expect("dsv-par worker panicked") {
                slots[i] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..10_000).collect();
        let out = par_map_threads(&items, 8, || (), |(), &x| x * 2);
        assert_eq!(out.len(), items.len());
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 2);
        }
    }

    #[test]
    fn every_item_computed_exactly_once() {
        let items: Vec<usize> = (0..5_000).collect();
        let counts: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
        let out = par_map_threads(
            &items,
            7,
            || (),
            |(), &i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
                i
            },
        );
        assert_eq!(out, items);
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "item {i}");
        }
    }

    #[test]
    fn matches_sequential_result() {
        let items: Vec<String> = (0..500).map(|i| format!("item-{i}")).collect();
        let seq: Vec<usize> = items.iter().map(|s| s.len()).collect();
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                par_map_threads(&items, threads, || (), |(), s| s.len()),
                seq
            );
        }
    }

    #[test]
    fn uneven_work_is_shared() {
        // Front-loaded cost: item 0 is ~1000x the rest. Whoever claims it
        // claims nothing else for a while and the other workers drain the
        // remainder; the result must still be complete and ordered.
        let items: Vec<u64> = (0..2_000).collect();
        let out = par_map_threads(
            &items,
            4,
            || (),
            |(), &x| {
                let spins = if x == 0 { 2_000_000 } else { 2_000 };
                let mut acc = x;
                for _ in 0..spins {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                std::hint::black_box(acc);
                x
            },
        );
        assert_eq!(out, items);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(par_map_threads(&empty, 4, || (), |(), &x| x).is_empty());
        assert_eq!(par_map_threads(&[9], 4, || (), |(), &x| x + 1), vec![10]);
        assert_eq!(
            par_map_threads(&[1, 2, 3], 8, || (), |(), &x| x + 1),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn each_worker_keeps_one_state() {
        // A state that counts the items its worker claimed: one state per
        // worker, so the counts add up to the items and no more states
        // are made than workers.
        let items: Vec<u32> = (0..1_000).collect();
        let states = AtomicUsize::new(0);
        for threads in [1, 2, 5] {
            states.store(0, Ordering::Relaxed);
            let out = par_map_threads(
                &items,
                threads,
                || {
                    states.fetch_add(1, Ordering::Relaxed);
                    0usize
                },
                |claimed, &x| {
                    *claimed += 1;
                    (x, *claimed)
                },
            );
            assert!(states.load(Ordering::Relaxed) <= threads);
            assert_eq!(out.iter().map(|&(x, _)| x).collect::<Vec<_>>(), items);
            if threads == 1 {
                assert_eq!(out.last(), Some(&(999, 1_000)), "one state for all");
            }
        }
    }

    #[test]
    fn single_thread_is_sequential() {
        let items: Vec<u32> = (0..100).collect();
        assert_eq!(par_map_threads(&items, 1, || (), |(), &x| x), items);
    }

    // Tests only read `current_threads()` inside a `with_thread_count`
    // scope: the thread-local override shields them from the process
    // globals `global_override_and_env_resolution` mutates, so the suite
    // stays race-free under the parallel test runner.

    #[test]
    fn with_thread_count_scopes_and_restores() {
        let inner = with_thread_count(7, || {
            assert_eq!(current_threads(), 7);
            let deepest = with_thread_count(3, || {
                assert_eq!(current_threads(), 3);
                with_thread_count(5, current_threads)
            });
            assert_eq!(current_threads(), 7, "restored after nested scopes");
            deepest
        });
        assert_eq!(inner, 5);
    }

    #[test]
    fn with_thread_count_restores_on_panic() {
        with_thread_count(7, || {
            let result = std::panic::catch_unwind(|| {
                with_thread_count(9, || panic!("boom"));
            });
            assert!(result.is_err());
            assert_eq!(current_threads(), 7, "restored despite the panic");
        });
    }

    #[test]
    fn global_override_and_env_resolution() {
        // Thread-count resolution order: local scope > global > env.
        // (This is the only test touching the env var / global; every
        // other test reads thread counts under a local override only.)
        set_thread_count(Some(6));
        assert_eq!(current_threads(), 6);
        assert_eq!(with_thread_count(2, current_threads), 2);
        set_thread_count(None);
        std::env::set_var("DSV_THREADS", "4");
        assert_eq!(current_threads(), 4);
        std::env::remove_var("DSV_THREADS");
        assert!(current_threads() >= 1);
    }
}
