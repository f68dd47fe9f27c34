//! The sharded store, as rows of the model harness (`common::model`): a
//! repository over `ShardedStore<FileStore>` (four shards) or over two
//! remote shards is observationally identical to one over a plain store
//! — same answers, same object ids, same `total_bytes`, same checkouts —
//! at every `dsv-par` thread count; its per-shard stats add up to the
//! whole; tracing changes nothing; and its batch surface leaves exactly
//! the state the single-object calls would.

use common::model::{self, Op};

const LEN: usize = 24;

#[test]
fn sharded_store_equals_plain_store_across_shards_and_threads() {
    // `sharded` runs at 8 threads, `remote-sharded` at 2, `mem` at 1.
    let configs = ["mem", "sharded", "remote-sharded"].map(model::config);
    let ops = model::fault_free(21, LEN);
    model::check("sharded", &ops, |ops| model::lockstep(&configs, ops));
}

#[test]
fn pack_versions_is_identical_across_shards_and_threads() {
    // Repacks, binary and hybrid, every few commits.
    let repacks = |op: &Op| matches!(op, Op::Commit { .. } | Op::Optimize { .. });
    let ops: Vec<Op> = model::stream(22, 2 * LEN)
        .into_iter()
        .filter(repacks)
        .collect();
    let configs = ["mem", "sharded", "remote-sharded"].map(model::config);
    model::check("repack", &ops, |ops| model::lockstep(&configs, ops));
}

#[test]
fn shard_stats_partition_the_whole_store() {
    // Checked after every step, faults included.
    for name in ["sharded", "remote-sharded"] {
        model::replay(name, &model::stream(23, LEN));
    }
}

#[test]
fn tracing_preserves_byte_identity_and_span_shape() {
    let config = model::config("sharded");
    let ops = model::fault_free(24, LEN);
    let untraced = model::replay("sharded", &ops).trail;
    let mut shapes = Vec::new();
    for threads in [1, 2, 8] {
        let (trail, shape) =
            model::check("traced", &ops, |ops| model::traced(config, ops, threads));
        for (a, b) in trail.iter().zip(&untraced) {
            assert_eq!((&a.ids, a.bytes), (&b.ids, b.bytes), "t{threads}");
        }
        shapes.push(shape);
    }
    assert!(
        shapes.windows(2).all(|w| w[0] == w[1]),
        "span shape moves with threads"
    );
}

#[test]
fn batch_surface_equals_single_op_loops() {
    // The same stream, once through the store's batch calls and once
    // through a `FaultStore` that never fires — which makes each batch
    // call the single-object calls it stands for.
    let ops = model::fault_free(25, LEN);
    let batched = model::replay("sharded", &ops).trail;
    let singly = model::replay("sharded", &model::singly(&ops)).trail;
    let states = |trail: Vec<model::Trace>| -> Vec<_> {
        trail
            .into_iter()
            .filter(|t| t.outcome != model::Outcome::Armed)
            .map(|t| (t.outcome, t.ids, t.bytes))
            .collect()
    };
    assert_eq!(states(batched), states(singly));
}
