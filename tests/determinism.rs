//! Determinism: the whole pipeline — generation, optimization, packing —
//! must be byte-reproducible from a seed (experiments depend on it), and
//! — since the hot paths run on the dsv-par runtime —
//! byte-identical at every thread count (`DSV_THREADS` ∈ {1, 2, 8} here,
//! pinned race-free via `par::with_thread_count`).

use common::model;
use dataset_versioning::core::{
    plan, PlanSpec, Problem, ProblemInstance, SolverChoice, StorageSolution,
};
use dataset_versioning::par;

/// Table-1 dispatch through the unified planner.
fn solve(
    instance: &ProblemInstance,
    problem: Problem,
) -> Result<StorageSolution, dataset_versioning::core::SolveError> {
    plan(instance, &PlanSpec::new(problem)).map(|p| p.solution)
}
use dataset_versioning::storage::{MemStore, ObjectStore};
use dataset_versioning::workloads::presets;

#[test]
fn generation_is_reproducible() {
    let a = presets::densely_connected()
        .scaled(50)
        .keep_contents()
        .build(123);
    let b = presets::densely_connected()
        .scaled(50)
        .keep_contents()
        .build(123);
    assert_eq!(a.sizes, b.sizes);
    assert_eq!(a.contents, b.contents);
    assert_eq!(a.matrix.revealed_count(), b.matrix.revealed_count());
    for (i, j, pair) in a.matrix.revealed_entries() {
        assert_eq!(b.matrix.get(i, j), Some(pair));
    }
}

#[test]
fn solving_is_reproducible() {
    let ds = presets::linear_chain().scaled(60).build(7);
    let inst = ds.instance();
    let beta = solve(&inst, Problem::MinStorage).unwrap().storage_cost() * 2;
    let s1 = solve(&inst, Problem::MinSumRecreationGivenStorage { beta }).unwrap();
    let s2 = solve(&inst, Problem::MinSumRecreationGivenStorage { beta }).unwrap();
    assert_eq!(s1.parents(), s2.parents());
    assert_eq!(s1.storage_cost(), s2.storage_cost());
}

/// The same stream twice packs the same objects after every step, at
/// every placement (rows of the model harness, `common::model`).
#[test]
fn packing_is_reproducible() {
    let ops = model::fault_free(3, 24);
    for name in ["mem", "chunked"] {
        let ids = || {
            let run = model::replay(name, &ops);
            run.trail
                .into_iter()
                .map(|t| (t.ids, t.bytes))
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(), ids(), "{name}");
    }
}

#[test]
fn different_seeds_differ() {
    let a = presets::densely_connected().scaled(50).build(1);
    let b = presets::densely_connected().scaled(50).build(2);
    assert_ne!(a.sizes, b.sizes);
}

/// The thread counts the parallel≡sequential properties sweep.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Property: dataset build (the parallel pairwise reveal loop) produces
/// the same contents and the same matrix — every revealed entry — at
/// every thread count, across seeds and presets.
#[test]
fn parallel_dataset_build_matches_sequential() {
    for seed in [3, 77, 2015] {
        for preset in [presets::densely_connected(), presets::bootstrap_forks()] {
            let base = par::with_thread_count(1, || preset.scaled(36).keep_contents().build(seed));
            for threads in THREAD_COUNTS {
                let ds = par::with_thread_count(threads, || {
                    preset.scaled(36).keep_contents().build(seed)
                });
                assert_eq!(ds.sizes, base.sizes, "{} seed {seed} t{threads}", ds.name);
                assert_eq!(ds.contents, base.contents);
                assert_eq!(ds.matrix.revealed_count(), base.matrix.revealed_count());
                for (i, j, pair) in base.matrix.revealed_entries() {
                    assert_eq!(
                        ds.matrix.get(i, j),
                        Some(pair),
                        "{} seed {seed} t{threads}: entry ({i},{j})",
                        ds.name
                    );
                }
            }
        }
    }
}

/// Property: the chunk estimator (parallel chunk+hash, sequential dedup)
/// returns identical order-dependent increments at every thread count.
#[test]
fn parallel_chunk_estimates_match_sequential() {
    use dataset_versioning::chunk::{chunked_cost_pairs, ChunkerParams};
    for seed in [5, 111] {
        let ds = presets::dedup_chain()
            .scaled(30)
            .keep_contents()
            .build(seed);
        let contents = ds.contents.as_ref().unwrap();
        let params = ChunkerParams::default();
        let base = par::with_thread_count(1, || chunked_cost_pairs(contents, params));
        for threads in THREAD_COUNTS {
            let pairs = par::with_thread_count(threads, || chunked_cost_pairs(contents, params));
            assert_eq!(pairs, base, "seed {seed} t{threads}");
        }
    }
}

/// Property: a portfolio solve (every capable solver on its own worker)
/// crowns the same winner with the same solution and feasibility at
/// every thread count. The exact branch-and-bound candidate is capped by
/// a *node* budget rather than its wall-clock default: a time cut moves
/// with machine load (concurrent solvers sharing cores would explore
/// fewer nodes), a node cut is deterministic.
#[test]
fn parallel_portfolio_matches_sequential() {
    let ds = presets::densely_connected()
        .scaled(40)
        .keep_contents()
        .build(9);
    let binary = ds.instance();
    let hybrid = ds
        .instance_with_chunked(dataset_versioning::chunk::ChunkerParams::default())
        .unwrap();
    for (label, inst) in [("binary", &binary), ("hybrid", &hybrid)] {
        for problem in [
            Problem::MinStorage,
            Problem::MinRecreation,
            Problem::MinStorageGivenMaxRecreation {
                theta: inst.max_materialization_cost() * 3,
            },
        ] {
            let spec = PlanSpec::new(problem)
                .solver(SolverChoice::Portfolio)
                .exact_node_budget(Some(50_000));
            let base = par::with_thread_count(1, || plan(inst, &spec).unwrap());
            for threads in THREAD_COUNTS {
                let p = par::with_thread_count(threads, || plan(inst, &spec).unwrap());
                assert_eq!(
                    p.provenance.solver, base.provenance.solver,
                    "{label} {problem} t{threads}: winner"
                );
                assert_eq!(p.provenance.feasible, base.provenance.feasible);
                assert_eq!(p.solution, base.solution, "{label} {problem} t{threads}");
                let names = |pl: &dataset_versioning::core::Plan| -> Vec<(&'static str, bool)> {
                    pl.provenance
                        .candidates
                        .iter()
                        .map(|c| (c.solver, c.result.is_ok()))
                        .collect()
                };
                assert_eq!(names(&p), names(&base), "{label} {problem} t{threads}");
            }
        }
    }
}

/// Property: installing a dsv-obs recorder must not change a single byte
/// of the pipeline's output — and the span tree it collects has the same
/// *shape* (same named phases, nested the same way, closed the same
/// number of times) at every thread count. Wall times differ per run;
/// the shape is the deterministic part.
#[test]
fn tracing_changes_nothing_and_span_shape_is_thread_count_stable() {
    use dataset_versioning::chunk::{chunked_cost_pairs, pack_versions_hybrid, ChunkerParams};
    use dataset_versioning::obs;
    use std::sync::Arc;

    let run = || {
        let ds = presets::dedup_chain().scaled(20).keep_contents().build(13);
        let contents = ds.contents.as_ref().unwrap().clone();
        let params = ChunkerParams::default();
        let estimates = chunked_cost_pairs(&contents, params);
        let inst = ds.instance_with_chunked(params).unwrap();
        let spec = PlanSpec::new(Problem::MinStorage)
            .solver(SolverChoice::Portfolio)
            .exact_node_budget(Some(50_000));
        let p = plan(&inst, &spec).unwrap();
        let store = MemStore::new(true);
        let (packed, _) =
            pack_versions_hybrid(&store, &contents, p.solution.modes(), params).unwrap();
        (
            ds.sizes.clone(),
            estimates,
            p.provenance.solver,
            p.solution,
            store.total_bytes(),
            packed.ids,
        )
    };

    let untraced = par::with_thread_count(1, run);
    let mut base_shape: Option<Vec<(String, u64)>> = None;
    for threads in THREAD_COUNTS {
        let recorder = Arc::new(obs::Recorder::new());
        let traced = obs::with_recorder(&recorder, || par::with_thread_count(threads, run));
        assert_eq!(traced, untraced, "t{threads}: tracing changed the results");
        let shape = recorder.snapshot().shape();
        for phase in ["build", "estimate", "solve", "pack"] {
            assert!(
                shape.iter().any(|(path, _)| path == phase),
                "t{threads}: span tree is missing the {phase} phase"
            );
        }
        let base = base_shape.get_or_insert_with(|| shape.clone());
        assert_eq!(&shape, base, "t{threads}: span tree shape diverged");
    }
}

/// Property: both packers (binary and hybrid) write byte-identical
/// stores — same object ids, same physical bytes — at every thread count:
/// the model harness in lockstep over configs that differ in threads.
#[test]
fn parallel_packing_matches_sequential() {
    let ops = model::fault_free(4, 24);
    for names in [["mem", "mem-cache1g"], ["chunked", "remote-chunked"]] {
        let configs = names.map(model::config);
        model::check("threads", &ops, |ops| model::lockstep(&configs, ops));
    }
}

/// Property: the shared-index reveal (`bytes_delta::pair_sizes`: one
/// index per source version, length-only sink, `dsv_par` over sources)
/// gives the sizes a plain one-shot `encode(&diff(a, b)).len()` loop gives
/// for the same pairs — the loop stays here as the reference — and the
/// same at 1 and 4 threads.
#[test]
fn pair_sizes_match_the_one_shot_loop_at_every_thread_count() {
    use dataset_versioning::delta::bytes_delta::{diff, encode, pair_sizes};

    let ds = presets::dedup_chain().scaled(16).keep_contents().build(5);
    let contents = ds.contents.as_ref().unwrap();
    // Every pair at most three versions apart, so every version is a
    // source of several pairs (in both roles) and sources interleave.
    let n = contents.len() as u32;
    let pairs: Vec<(u32, u32)> = (0..n)
        .flat_map(|a| (a + 1..n.min(a + 4)).map(move |b| (a, b)))
        .collect();
    let size = |a: u32, b: u32| encode(&diff(&contents[a as usize], &contents[b as usize])).len();
    let reference: Vec<(u64, u64)> = pairs
        .iter()
        .map(|&(a, b)| (size(a, b) as u64, size(b, a) as u64))
        .collect();
    assert!(reference.iter().any(|&(fwd, rev)| fwd != rev));
    for threads in [1, 4] {
        assert_eq!(
            par::with_thread_count(threads, || pair_sizes(contents, &pairs)),
            reference,
            "t{threads}"
        );
    }
}

/// Property: the priced reveal (`bytes_delta::pair_costs` handing every
/// encoded delta to `storage::stored_len`, whose coded size comes from
/// `compress::huff::coded_len`) gives what pricing a one-shot
/// `encode(&diff(a, b))` gives, and the Huffman stream of a version is the
/// same bytes, at 1, 2 and 8 threads: every stored size, plan and
/// `planned C` is made of these.
#[test]
fn priced_reveal_and_payload_codec_agree_at_every_thread_count() {
    use dataset_versioning::compress::huff;
    use dataset_versioning::delta::bytes_delta::{diff, encode, pair_costs};
    use dataset_versioning::storage::{stored_len, Object, ObjectId, Priced};

    let ds = presets::dedup_chain().scaled(16).keep_contents().build(5);
    let contents = ds.contents.as_ref().unwrap();
    let n = contents.len() as u32;
    let pairs: Vec<(u32, u32)> = (0..n)
        .flat_map(|a| (a + 1..n.min(a + 4)).map(move |b| (a, b)))
        .collect();
    // The reference builds the object and measures it.
    let stored = |a: u32, b: u32| {
        let delta = encode(&diff(&contents[a as usize], &contents[b as usize]));
        let base = ObjectId::for_bytes(b"any base");
        Object::Delta { base, delta }.encode(true).len() as u64
    };
    let reference: Vec<(u64, u64)> = pairs
        .iter()
        .map(|&(a, b)| (stored(a, b), stored(b, a)))
        .collect();
    let streams: Vec<Vec<u8>> = contents.iter().map(|c| huff::encode(c)).collect();
    for threads in THREAD_COUNTS {
        par::with_thread_count(threads, || {
            let priced = pair_costs(contents, &pairs, |d| stored_len(Priced::Delta, d, true));
            assert_eq!(priced, reference, "t{threads}");
            for (content, stream) in contents.iter().zip(&streams) {
                assert_eq!(&huff::encode(content), stream, "t{threads}");
                assert_eq!(huff::coded_len(content), stream.len(), "t{threads}");
            }
        });
    }
}

/// Pin: the chunk write path. One FNV-1a hash runs over the estimator's
/// cost pairs, every version's `prechunk` spans and chunk ids, every
/// object id (sorted) and encoded length `pack_versions_hybrid` writes
/// into a compressing `MemStore`, the packed version ids, and the dedup
/// accounting — over a seeded dedup-chain history under a fixed mode
/// vector (`v % 3`: Full, Delta off `v − 1`, Chunked). Moving any chunk
/// boundary, id, estimate or stored byte moves the literal. Captured at
/// commit 0637367, before the chunker moved into dsv-storage.
#[test]
fn chunk_write_path_is_pinned() {
    use dataset_versioning::chunk::{
        chunked_cost_pairs, pack_versions_hybrid, prechunk, ChunkerParams,
    };
    use dataset_versioning::core::StorageMode;

    struct Fnv(u64);
    impl Fnv {
        fn eat(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        fn num(&mut self, n: u64) {
            self.eat(&n.to_le_bytes());
        }
    }

    let ds = presets::dedup_chain().scaled(20).keep_contents().build(29);
    let contents = ds.contents.as_ref().unwrap();
    let params = ChunkerParams::default();
    let modes: Vec<StorageMode> = (0..contents.len() as u32)
        .map(|v| match v % 3 {
            0 => StorageMode::Materialized,
            1 => StorageMode::Delta(v - 1),
            _ => StorageMode::Chunked,
        })
        .collect();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);

    for pair in chunked_cost_pairs(contents, params) {
        h.num(pair.storage);
        h.num(pair.recreation);
    }
    let mut spans = 0;
    for data in contents {
        for (span, id) in prechunk(data, params) {
            h.num(span.start as u64);
            h.num(span.end as u64);
            h.eat(&id.0);
            spans += 1;
        }
    }
    let store = MemStore::new(true);
    let (packed, stats) = pack_versions_hybrid(&store, contents, &modes, params).unwrap();
    let mut ids = store.object_ids().unwrap();
    ids.sort();
    for id in &ids {
        h.eat(&id.0);
        h.num(store.get(*id).unwrap().encode(true).len() as u64);
    }
    for id in &packed.ids {
        h.eat(&id.0);
    }
    for n in [
        stats.versions as u64,
        stats.logical_bytes,
        stats.total_chunks as u64,
        stats.new_chunks as u64,
        stats.new_chunk_bytes,
    ] {
        h.num(n);
    }

    assert_eq!(
        (contents.len(), spans, ids.len(), stats.versions),
        (20, 843, 131, 6),
        "shape of the pinned history"
    );
    assert_eq!(h.0, 0xdfc7_82a0_5061_1476, "chunk write path moved");
}
