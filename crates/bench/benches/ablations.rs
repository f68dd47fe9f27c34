//! Ablation benches for the design choices that have a knob.
//!
//! - GitH window/depth sensitivity: wider windows cost time; the paper's
//!   §5.2 notes git fails at very large windows — here the cost curve is
//!   measured directly.
//! - Bounded-hop MP: the hop-variant (`Φ ≡ 1`, §3) versus full MP.
//! - Delta compression: packing a version chain with raw vs compressed
//!   object payloads (`Φ = Δ` vs `Φ ≠ Δ` regimes).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsv_core::solvers::gith::GitHParams;
use dsv_core::{plan, PlanSpec, Problem, ProblemInstance, SolverChoice};
use dsv_storage::{pack_versions, MemStore, PackOptions};
use dsv_workloads::synthetic::{self, SyntheticParams};
use dsv_workloads::GraphParams;
use std::hint::black_box;

fn instance(n: usize) -> ProblemInstance {
    synthetic::build(
        "ablation",
        &SyntheticParams {
            graph: GraphParams {
                commits: n,
                ..GraphParams::default()
            },
            reveal_hops: 6,
            ..SyntheticParams::default()
        },
        11,
    )
    .instance()
}

fn bench_gith_window(c: &mut Criterion) {
    let inst = instance(400);
    let mut group = c.benchmark_group("gith_window");
    for window in [5usize, 10, 50, 200] {
        group.bench_with_input(BenchmarkId::from_parameter(window), &window, |b, &w| {
            let spec = PlanSpec::new(Problem::MinStorage)
                .solver(SolverChoice::named("gith"))
                .gith_params(GitHParams {
                    window: w,
                    max_depth: 50,
                });
            b.iter(|| plan(black_box(&inst), &spec).unwrap())
        });
    }
    group.finish();
}

fn bench_hop_vs_mp(c: &mut Criterion) {
    let inst = instance(400);
    let spt_sol = plan(&inst, &PlanSpec::new(Problem::MinRecreation)).unwrap();
    let theta = spt_sol.solution.max_recreation() * 2;
    let problem = Problem::MinStorageGivenMaxRecreation { theta };
    let mut group = c.benchmark_group("hop_vs_mp");
    let mp_spec = PlanSpec::new(problem).solver(SolverChoice::named("mp"));
    group.bench_function("mp_full_phi", |b| {
        b.iter(|| plan(black_box(&inst), &mp_spec).unwrap())
    });
    let hop_spec = PlanSpec::new(problem)
        .solver(SolverChoice::named("hop"))
        .hop_bound(4);
    group.bench_function("hop_bounded_4", |b| {
        b.iter(|| plan(black_box(&inst), &hop_spec).unwrap())
    });
    group.finish();
}

fn bench_pack_compression(c: &mut Criterion) {
    // A 30-version chain of realistic CSV contents.
    let mut contents = vec![{
        let mut base = b"id,payload\n".to_vec();
        for i in 0..1500 {
            base.extend_from_slice(format!("{i},row-{}\n", i * 17).as_bytes());
        }
        base
    }];
    for i in 1..30 {
        let mut next = contents[i - 1].clone();
        next.extend_from_slice(format!("{},appended-{i}\n", 1500 + i).as_bytes());
        contents.push(next);
    }
    let plan: Vec<Option<u32>> = (0..30u32).map(|i| i.checked_sub(1)).collect();

    let mut group = c.benchmark_group("pack_chain30");
    group.bench_function("raw_store", |b| {
        b.iter(|| {
            let store = MemStore::new(false);
            pack_versions(&store, black_box(&contents), &plan, PackOptions::default()).unwrap()
        })
    });
    group.bench_function("compressed_store", |b| {
        b.iter(|| {
            let store = MemStore::new(true);
            pack_versions(&store, black_box(&contents), &plan, PackOptions::default()).unwrap()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_gith_window, bench_hop_vs_mp, bench_pack_compression
}
criterion_main!(benches);
