//! Property sweeps for the sharded store: `ShardedStore<MemStore>` must
//! be observationally identical to a plain `MemStore` — same ids, same
//! `total_bytes`, same `get` results — for shard counts {1, 4, 16} at
//! every dsv-par thread count {1, 2, 8} (the shard count is a layout
//! property; the thread count drives the concurrent per-shard batch
//! writes). This is the PR's hard requirement made executable.

use dsv_storage::{
    pack_versions, MemStore, Object, ObjectId, ObjectStore, PackOptions, ShardedStore,
};

const SHARD_COUNTS: [usize; 3] = [1, 4, 16];
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// A deterministic pseudo-random object corpus: full objects, delta
/// chains off them, and enough size variance to spread across shards.
fn corpus(seed: u64, n: usize) -> Vec<Object> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut out: Vec<Object> = Vec::with_capacity(n);
    for i in 0..n {
        let len = 16 + (next() % 400) as usize;
        let data: Vec<u8> = (0..len).map(|j| (next() >> (j % 8)) as u8).collect();
        if i % 3 == 2 {
            // A delta off an earlier object in the corpus.
            let base = out[(next() % i as u64) as usize].id();
            out.push(Object::Delta { base, delta: data });
        } else {
            out.push(Object::Full { data });
        }
        if i % 7 == 6 {
            // Duplicates: idempotent puts must store once everywhere.
            let dup = out[(next() % out.len() as u64) as usize].clone();
            out.push(dup);
        }
    }
    out
}

/// Version contents with heavy overlap, for the pack_versions sweep.
fn versions(n: usize) -> Vec<Vec<u8>> {
    let mut out = vec![b"row,one\nrow,two\nrow,three\n".repeat(30)];
    for i in 1..n {
        let mut next = out[i - 1].clone();
        next.extend_from_slice(format!("version {i} appended row\n").as_bytes());
        out.push(next);
    }
    out
}

#[test]
fn sharded_store_equals_plain_store_across_shards_and_threads() {
    let objs = corpus(2015, 120);
    let reference = MemStore::new(false);
    let ref_ids = reference.put_batch(&objs).unwrap();

    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            dsv_par::with_thread_count(threads, || {
                let sharded = ShardedStore::build(shards, |_| MemStore::new(false));
                let ids = sharded.put_batch(&objs).unwrap();
                assert_eq!(ids, ref_ids, "s{shards} t{threads}: ids");
                assert_eq!(
                    sharded.total_bytes(),
                    reference.total_bytes(),
                    "s{shards} t{threads}: total_bytes"
                );
                assert_eq!(sharded.len(), reference.len(), "s{shards} t{threads}: len");
                // Every get — single and batched — returns the same object.
                let batched = sharded.get_batch(&ids).unwrap();
                for (i, &id) in ids.iter().enumerate() {
                    assert_eq!(sharded.get(id).unwrap(), reference.get(id).unwrap());
                    assert_eq!(batched[i], reference.get(id).unwrap());
                }
                assert_eq!(
                    sharded.contains_batch(&ids).unwrap(),
                    reference.contains_batch(&ids).unwrap()
                );
                // Removal behaves identically too.
                let victim = ids[ids.len() / 2];
                sharded.remove_batch(&[victim]).unwrap();
                assert!(
                    !sharded.contains(victim).unwrap(),
                    "s{shards} t{threads}: removed"
                );
                assert_eq!(sharded.len(), reference.len() - 1);
            });
        }
    }
}

#[test]
fn pack_versions_is_identical_across_shards_and_threads() {
    let contents = versions(24);
    // A mixed plan: a chain with a couple of extra roots.
    let plan: Vec<Option<u32>> = (0..24u32)
        .map(|i| if i % 9 == 0 { None } else { Some(i - 1) })
        .collect();

    let reference = MemStore::new(true);
    let ref_packed = pack_versions(&reference, &contents, &plan, PackOptions::default()).unwrap();

    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            dsv_par::with_thread_count(threads, || {
                let store = ShardedStore::build(shards, |_| MemStore::new(true));
                let packed =
                    pack_versions(&store, &contents, &plan, PackOptions::default()).unwrap();
                assert_eq!(packed.ids, ref_packed.ids, "s{shards} t{threads}");
                assert_eq!(
                    store.total_bytes(),
                    reference.total_bytes(),
                    "s{shards} t{threads}: packed bytes"
                );
                assert_eq!(store.len(), reference.len());
            });
        }
    }
}

#[test]
fn shard_stats_partition_the_whole_store() {
    let objs = corpus(7, 90);
    for shards in SHARD_COUNTS {
        let store = ShardedStore::build(shards, |_| MemStore::new(false));
        store.put_batch(&objs).unwrap();
        let stats = store.stats();
        assert_eq!(stats.shards.len(), shards);
        assert_eq!(
            stats.shards.iter().map(|s| s.objects).sum::<usize>(),
            store.len()
        );
        assert_eq!(
            stats.shards.iter().map(|s| s.bytes).sum::<u64>(),
            store.total_bytes()
        );
    }
}

#[test]
fn tracing_preserves_byte_identity_and_span_shape() {
    use dsv_obs as obs;
    use std::sync::Arc;

    let objs = corpus(99, 100);
    let reference = MemStore::new(false);
    let ref_ids = reference.put_batch(&objs).unwrap();

    // The batch spans are opened on the calling thread before the
    // per-shard fan-out, so a thread-local recorder sees exactly one
    // activation of each batch op no matter the layout or worker count.
    let mut base_shape: Option<Vec<(String, u64)>> = None;
    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            let recorder = Arc::new(obs::Recorder::new());
            obs::with_recorder(&recorder, || {
                dsv_par::with_thread_count(threads, || {
                    let sharded = ShardedStore::build(shards, |_| MemStore::new(false));
                    let ids = sharded.put_batch(&objs).unwrap();
                    assert_eq!(ids, ref_ids, "s{shards} t{threads}: traced ids");
                    assert_eq!(
                        sharded.total_bytes(),
                        reference.total_bytes(),
                        "s{shards} t{threads}: traced total_bytes"
                    );
                    let got = sharded.get_batch(&ids).unwrap();
                    for (i, &id) in ids.iter().enumerate() {
                        assert_eq!(got[i], reference.get(id).unwrap());
                    }
                    sharded.remove_batch(&ids).unwrap();
                    assert_eq!(sharded.len(), 0, "s{shards} t{threads}: traced removal");
                    // The per-shard timers observed the fan-out.
                    let stats = sharded.stats();
                    assert!(
                        stats.shards.iter().map(|s| s.batch_ns).sum::<u64>() > 0,
                        "s{shards} t{threads}: no shard batch time recorded"
                    );
                })
            });
            let shape = recorder.snapshot().shape();
            assert_eq!(
                shape,
                vec![
                    ("store.get_batch".to_owned(), 1),
                    ("store.put_batch".to_owned(), 1),
                    ("store.remove_batch".to_owned(), 1),
                ],
                "s{shards} t{threads}: span shape"
            );
            let base = base_shape.get_or_insert_with(|| shape.clone());
            assert_eq!(&shape, base, "s{shards} t{threads}: shape diverged");
        }
    }
}

#[test]
fn batch_surface_equals_single_op_loops() {
    // The batch contract on the sharded store itself: put_batch /
    // get_batch / remove_batch leave exactly the state the single-object
    // loops would.
    let objs = corpus(42, 80);
    let via_batch = ShardedStore::build(4, |_| MemStore::new(false));
    let via_singles = ShardedStore::build(4, |_| MemStore::new(false));
    let batch_ids = via_batch.put_batch(&objs).unwrap();
    let single_ids: Vec<ObjectId> = objs.iter().map(|o| via_singles.put(o).unwrap()).collect();
    assert_eq!(batch_ids, single_ids);
    assert_eq!(via_batch.total_bytes(), via_singles.total_bytes());
    assert_eq!(via_batch.len(), via_singles.len());
    for &id in &batch_ids {
        assert_eq!(via_batch.get(id).unwrap(), via_singles.get(id).unwrap());
    }
    via_batch.remove_batch(&batch_ids[..10]).unwrap();
    for &id in &single_ids[..10] {
        via_singles.remove(id).unwrap();
    }
    assert_eq!(via_batch.len(), via_singles.len());
    assert_eq!(via_batch.total_bytes(), via_singles.total_bytes());
}
