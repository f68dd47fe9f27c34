//! The paper's "Intermediate Result Datasets" motivating scenario: many
//! analysis pipelines recompute near-identical intermediate datasets (the
//! same PageRank output with slightly different cleaning upstream). The
//! system stores the collection deduplicated while guaranteeing any
//! intermediate can be fetched within a latency budget.
//!
//! Run with: `cargo run --release --example pipeline_cache`

use dataset_versioning::core::{
    plan as plan_solve, CostMatrix, CostPair, PlanSpec, Problem, ProblemInstance,
};
use dataset_versioning::delta::bytes_delta;
use dataset_versioning::delta::similarity::{similar_pairs, ResemblanceSketch};
use dataset_versioning::storage::{
    pack_versions, CheckoutCache, Materializer, MemStore, ObjectStore, PackOptions,
};
use std::sync::Arc;

/// Simulates one pipeline run's intermediate result: a ranking table that
/// differs slightly run-to-run (upstream cleaning changed a few inputs).
fn pipeline_output(run: usize) -> Vec<u8> {
    let mut out = b"node,rank\n".to_vec();
    for i in 0..4000 {
        // A few ranks wiggle per run; most of the output is identical.
        let wiggle = if (i + run * 37).is_multiple_of(251) {
            run
        } else {
            0
        };
        out.extend_from_slice(format!("n{i},{}\n", i * 13 % 997 + wiggle).as_bytes());
    }
    out
}

fn main() {
    // 24 pipeline runs, each stored in its entirety today.
    let runs: Vec<Vec<u8>> = (0..24).map(pipeline_output).collect();
    let naive_bytes: usize = runs.iter().map(Vec::len).sum();
    println!(
        "24 intermediate datasets, {} KB if stored naively",
        naive_bytes / 1024
    );

    // No version graph exists (each run is independent), so candidate
    // delta pairs come from resemblance sketches — the paper's answer to
    // "which matrix entries to reveal".
    let sketches: Vec<ResemblanceSketch> = runs
        .iter()
        .map(|r| ResemblanceSketch::build(r, 128))
        .collect();
    let candidates = similar_pairs(&sketches, 0.4);
    println!(
        "resemblance sketches propose {} candidate pairs",
        candidates.len()
    );

    // Reveal real byte-delta costs for the candidates.
    let diag: Vec<CostPair> = runs
        .iter()
        .map(|r| CostPair::proportional(r.len() as u64))
        .collect();
    let mut matrix = CostMatrix::directed(diag);
    let pairs: Vec<(u32, u32)> = candidates
        .iter()
        .map(|&(a, b)| (a as u32, b as u32))
        .collect();
    for (&(a, b), (fwd, rev)) in pairs.iter().zip(bytes_delta::pair_sizes(&runs, &pairs)) {
        matrix.reveal(a, b, CostPair::proportional(fwd));
        matrix.reveal(b, a, CostPair::proportional(rev));
    }
    let instance = ProblemInstance::new(matrix);

    // Bound every fetch at 1.5x a full read, minimize storage (Problem 6).
    let theta = instance.max_materialization_cost() * 3 / 2;
    let plan = plan_solve(
        &instance,
        &PlanSpec::new(Problem::MinStorageGivenMaxRecreation { theta }),
    )
    .unwrap()
    .solution;
    println!(
        "plan: {} materialized, planned storage {} KB (θ respected: {})",
        plan.materialized().count(),
        plan.storage_cost() / 1024,
        plan.max_recreation() <= theta
    );

    // Execute the plan against a real store and verify.
    let store = MemStore::new(false);
    let packed = pack_versions(&store, &runs, plan.parents(), PackOptions::default()).unwrap();
    // Verify through a bounded checkout cache (chain prefixes shared).
    let cache = Arc::new(CheckoutCache::new(8 << 20));
    let m = Materializer::with_checkout_cache(&store, Arc::clone(&cache));
    for (i, expected) in runs.iter().enumerate() {
        let (data, _) = packed.checkout(&m, i as u32).unwrap();
        assert_eq!(&data, expected, "run {i} must reconstruct");
    }
    let cstats = cache.stats();
    println!(
        "checkout cache: {} hits, {} KB of recreation reads saved",
        cstats.hits,
        cstats.bytes_saved / 1024
    );
    println!(
        "store holds {} KB — {:.1}x smaller than naive, all runs verified",
        store.total_bytes() / 1024,
        naive_bytes as f64 / store.total_bytes() as f64
    );
}
