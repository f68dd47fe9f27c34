//! The chunked and hybrid packers, as rows of the model harness
//! (`common::model`): they leave byte-identical stores at every shard
//! count and every thread count. The batch write surface (`contains_batch`
//! probe + one `put_batch`) is an IO optimization, never a semantic
//! change.

use common::model::{self, Op};

#[test]
fn chunked_pack_is_identical_across_shards_and_threads() {
    // Chunked placement packs every commit: a flat store at one thread
    // against two remote shards at eight.
    let configs = ["chunked", "remote-chunked"].map(model::config);
    let ops = model::fault_free(31, 24);
    model::check("chunked", &ops, |ops| model::lockstep(&configs, ops));
}

#[test]
fn hybrid_pack_is_identical_across_shards_and_threads() {
    // Hybrid repacks (mode 2) of a delta-placed history.
    let hybrid = |op| match op {
        Op::Optimize {
            problem,
            bound,
            solver,
            ..
        } => Op::Optimize {
            problem,
            bound,
            mode: 2,
            solver,
        },
        op => op,
    };
    let ops: Vec<Op> = model::fault_free(32, 32).into_iter().map(hybrid).collect();
    let configs = ["mem", "sharded", "remote-sharded"].map(model::config);
    model::check("hybrid", &ops, |ops| model::lockstep(&configs, ops));
}
