//! Quickstart for the chunked (deduplicating) substrate: store a chain of
//! overlapping dataset versions as content-defined chunk manifests,
//! compare the footprint against materializing everything, and check a
//! version out by manifest reassembly. The chunked layout is part of the
//! object store (`dsv_storage::chunk`, re-exported as
//! `dataset_versioning::chunk`); its `ChunkerParams` are the planner's own
//! (`dsv_core`), valid by construction.
//!
//! Run with: `cargo run --release --example dedup_store`

use dataset_versioning::chunk::{ChunkStore, ChunkerParams, DedupStats};
use dataset_versioning::storage::{MemStore, ObjectStore, ShardedStore};
use dataset_versioning::vcs::Repository;
use dataset_versioning::workloads::presets;

fn main() {
    // A dedup-friendly workload: 80 versions sharing shifted/overlapping
    // content (rows spliced into random positions each step).
    let dataset = presets::dedup_chain().scaled(80).keep_contents().build(42);
    let versions = dataset.contents.as_ref().expect("contents kept");
    let logical: u64 = versions.iter().map(|v| v.len() as u64).sum();
    println!(
        "workload: {} versions, {:.1} KB logical bytes",
        versions.len(),
        logical as f64 / 1024.0
    );

    // Store every version through the chunker. Identical chunks across
    // versions are stored once — the store's content addressing is the
    // dedup mechanism.
    let store = MemStore::new(true);
    let chunks = ChunkStore::new(&store, ChunkerParams::default());
    let mut stats = DedupStats::default();
    let mut manifest_ids = Vec::new();
    for v in versions {
        let put = chunks.put_version(v).expect("store version");
        stats.record(&put);
        manifest_ids.push(put.id);
    }
    println!(
        "chunked:  {:.1} KB physical ({:.1}x dedup, {:.0}% chunk reuse)",
        store.total_bytes() as f64 / 1024.0,
        stats.dedup_ratio(),
        stats.chunk_hit_rate() * 100.0
    );
    println!(
        "          vs {:.1} KB if every version were materialized",
        logical as f64 / 1024.0
    );

    // Checkout = manifest reassembly: fetch the version's own chunks,
    // independent of how many versions came before it.
    let last = *manifest_ids.last().expect("non-empty");
    let (data, work) = chunks.get_version(last).expect("checkout");
    assert_eq!(&data, versions.last().expect("non-empty"));
    println!(
        "checkout: version {} reassembled from {} objects, {:.1} KB read",
        versions.len() - 1,
        work.objects_fetched,
        work.bytes_read as f64 / 1024.0
    );

    // The same substrate drives the VCS: commits become manifests, and
    // checkout reassembles them transparently.
    let mut repo = Repository::in_memory_chunked();
    let mut head = None;
    for (i, v) in versions.iter().take(10).enumerate() {
        head = Some(repo.commit("main", v, &format!("v{i}")).expect("commit"));
    }
    let head = head.expect("committed");
    assert_eq!(repo.checkout(head).expect("checkout"), versions[9]);
    println!(
        "vcs:      10 commits -> {:.1} KB in the repo store",
        repo.storage_bytes() as f64 / 1024.0
    );

    // Sharded memory store: the same objects routed across 4 shards by
    // id prefix, batches written to all shards concurrently. The store
    // holds identical bytes at any shard count; `stats()` is the same
    // snapshot `dsv store` prints for on-disk repositories.
    let sharded = ShardedStore::build(4, |_| MemStore::new(true));
    let sharded_chunks = ChunkStore::new(&sharded, ChunkerParams::default());
    for v in versions {
        sharded_chunks.put_version(v).expect("store version");
    }
    assert_eq!(sharded.total_bytes(), store.total_bytes());
    let stats = sharded.stats();
    println!(
        "sharded:  {} objects over {} shards (imbalance {:.2}), {} batch puts",
        stats.objects,
        stats.shards.len(),
        stats.shard_imbalance(),
        stats.ops.batch_puts
    );
}
