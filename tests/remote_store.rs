//! Loopback integration tests for the distributed object-store tier.
//!
//! The contract under test: a repository whose objects live on remote
//! shard servers (`StoreService` over the dsv-net protocol, the
//! `dsvd --store-server` backend) is **observationally identical** to
//! one backed by a local store — same object ids, same stored bytes,
//! byte-identical checkouts — at every shard count and every thread
//! count, because sharding and remoting are pure transport properties of
//! a content-addressed store. On top of that: deterministic fault
//! injection composes at the `RemoteStore` trait boundary (a mid-batch
//! cut severs the batch over the wire), and the repack `BatchWriter`'s
//! flush bound cooperates with the wire frame cap instead of colliding
//! with it.

mod common;

use common::StoreServer;
use dsv_net::{RemoteStore, RetryPolicy, DEFAULT_MAX_FRAME, FRAME_SLACK};
use dsv_storage::fault::{is_injected, FaultPlan, FaultStore};
use dsv_storage::{
    BatchWriter, MemStore, Object, ObjectStore, ShardedStore, StoreError, PACK_FLUSH_BYTES,
};
use dsv_vcs::{fsck, persist, CommitId, Repository};
use std::sync::Arc;
use std::time::Duration;

/// A lineage of versions with appends, edits, and a periodic large
/// insertion — enough churn that deltas, repacks, and multi-object
/// batches all occur.
fn version_contents(n: usize) -> Vec<Vec<u8>> {
    let mut rows: Vec<String> = (0..400)
        .map(|i| format!("row-{i},{},{}\n", i * 31, i * 7 % 13))
        .collect();
    let mut out = Vec::new();
    for v in 0..n {
        rows.push(format!("appended-{v},{}\n", v * 17));
        if v % 2 == 1 {
            rows[v * 3 % 400] = format!("edited-{v},{}\n", v * 101);
        }
        if v % 3 == 2 {
            rows.push("x".repeat(4000) + "\n");
        }
        out.push(rows.concat().into_bytes());
    }
    out
}

fn sorted_ids(store: &impl ObjectStore) -> Vec<dsv_storage::ObjectId> {
    let mut ids = store.object_ids().unwrap();
    ids.sort();
    ids
}

/// The core equivalence sweep: remote-sharded ≡ local, for shard counts
/// {1, 4} × thread counts {1, 2, 8}. Each sweep point drives the same
/// commit/optimize workload into a local MemStore repository and a
/// remote-sharded one, then compares object ids, stored bytes, and every
/// checkout byte-for-byte.
#[test]
fn remote_sharded_repository_is_equivalent_to_local() {
    let contents = version_contents(6);
    for threads in [1usize, 2, 8] {
        dsv_par::with_thread_count(threads, || {
            // The local reference for this thread count.
            let mut local = Repository::init(MemStore::new(true));
            for data in &contents {
                local.commit("main", data, "step").unwrap();
            }
            local
                .optimize_with(&dsv_core::PlanSpec::new(dsv_core::Problem::MinStorage))
                .unwrap();

            for shard_count in [1usize, 4] {
                let servers: Vec<StoreServer> = (0..shard_count)
                    .map(|_| StoreServer::spawn(DEFAULT_MAX_FRAME))
                    .collect();
                let addrs: Vec<String> = servers.iter().map(|s| s.addr.clone()).collect();
                let store = persist::connect_remote_shards(&addrs).unwrap();
                let mut remote = Repository::init(store);
                for data in &contents {
                    remote.commit("main", data, "step").unwrap();
                }
                remote
                    .optimize_with(&dsv_core::PlanSpec::new(dsv_core::Problem::MinStorage))
                    .unwrap();

                let label = format!("shards={shard_count} threads={threads}");
                assert_eq!(
                    sorted_ids(local.store()),
                    sorted_ids(remote.store()),
                    "object ids diverged ({label})"
                );
                assert_eq!(
                    local.store().total_bytes(),
                    remote.store().total_bytes(),
                    "stored bytes diverged ({label})"
                );
                for (v, data) in contents.iter().enumerate() {
                    let out = remote.checkout(CommitId(v as u32)).unwrap();
                    assert_eq!(&out, data, "checkout v{v} diverged ({label})");
                }
            }
        });
    }
}

/// Fault injection composes at the `RemoteStore` trait boundary: a
/// `fail_at` plan cuts a batch mid-way *over the wire* — the prefix is
/// already durable on the server (exactly what a client crash mid-upload
/// leaves), and the content-addressed retry converges.
#[test]
fn fault_store_cuts_a_remote_batch_over_the_wire() {
    let server = StoreServer::spawn(DEFAULT_MAX_FRAME);
    let remote = RemoteStore::connect(&server.addr).unwrap();
    let plan = FaultPlan::fail_at(2);
    let store = FaultStore::new(remote, Arc::clone(&plan));
    // The wrapper forwards the topology of what it wraps.
    assert_eq!(store.remote_addrs(), vec![server.addr.clone()]);

    let objs: Vec<Object> = (0..5)
        .map(|i| Object::Full {
            data: format!("fault over the wire {i} {}", "y".repeat(100 * i)).into_bytes(),
        })
        .collect();
    let err = store.put_batch(&objs).unwrap_err();
    assert!(
        matches!(err, StoreError::Io(ref m) if is_injected(m)),
        "{err:?}"
    );
    assert_eq!(plan.fired(), 1);

    // Observe the server through an independent connection: exactly the
    // pre-cut prefix arrived.
    let observer = RemoteStore::connect(&server.addr).unwrap();
    assert_eq!(observer.len(), 2);
    assert!(observer.contains(objs[0].id()).unwrap());
    assert!(observer.contains(objs[1].id()).unwrap());
    assert!(!observer.contains(objs[4].id()).unwrap());

    // The retry re-sends everything; already-stored prefix objects are
    // idempotent puts, and the batch now lands in full.
    let ids = store.put_batch(&objs).unwrap();
    assert_eq!(ids.len(), objs.len());
    assert_eq!(observer.len(), objs.len());
    for obj in &objs {
        assert_eq!(observer.get(obj.id()).unwrap(), *obj);
    }
}

/// The repack flush bound must sit safely *under* the wire frame cap:
/// a `BatchWriter` flush becomes one `StorePut` frame per remote shard,
/// so a bound at or above the cap would make every full flush overflow
/// and split. Guard the constant relationship, then drive the boundary
/// for real under a tiny frame cap and prove the writer's flushes still
/// land every object.
#[test]
fn batch_writer_flush_bound_cooperates_with_the_frame_cap() {
    // Half the default frame cap: headroom for encoding overhead (tags,
    // base ids, varints) on top of raw payload bytes.
    assert!(
        PACK_FLUSH_BYTES * 2 <= DEFAULT_MAX_FRAME as u64,
        "PACK_FLUSH_BYTES ({PACK_FLUSH_BYTES}) must leave frame headroom \
         (DEFAULT_MAX_FRAME {DEFAULT_MAX_FRAME})"
    );

    // A 64 KiB frame cap shared by server and client; the usable budget
    // is FRAME_SLACK smaller. A flush bound just under the budget forces
    // flushes that straddle the boundary once encoding overhead lands.
    let max_frame = 64 * 1024;
    let budget = (max_frame - FRAME_SLACK) as u64;
    let server = StoreServer::spawn(max_frame);
    let store = RemoteStore::connect_with(
        &server.addr,
        max_frame,
        Some(Duration::from_secs(10)),
        RetryPolicy::default(),
    )
    .unwrap();

    let objs: Vec<Object> = (0..24)
        .map(|i| Object::Full {
            data: format!("{i}:")
                .into_bytes()
                .into_iter()
                .chain(std::iter::repeat_n(i as u8, 9_000))
                .collect(),
        })
        .collect();
    let mut writer = BatchWriter::with_flush_bytes(&store, budget - 1_000);
    writer.extend(objs.iter().cloned()).unwrap();
    writer.finish().unwrap();

    assert_eq!(store.len(), objs.len());
    for obj in &objs {
        assert_eq!(store.get(obj.id()).unwrap(), *obj, "round-trip");
    }

    // A sharded remote store routes each flushed batch one frame per
    // shard; the same writer workload lands identically.
    let servers: Vec<StoreServer> = (0..3).map(|_| StoreServer::spawn(max_frame)).collect();
    let shards: Vec<RemoteStore> = servers
        .iter()
        .map(|s| {
            RemoteStore::connect_with(
                &s.addr,
                max_frame,
                Some(Duration::from_secs(10)),
                RetryPolicy::default(),
            )
            .unwrap()
        })
        .collect();
    let sharded = ShardedStore::new(shards);
    let mut writer = BatchWriter::with_flush_bytes(&sharded, budget - 1_000);
    writer.extend(objs.iter().cloned()).unwrap();
    writer.finish().unwrap();
    assert_eq!(sorted_ids(&sharded), {
        let mut ids: Vec<_> = objs.iter().map(Object::id).collect();
        ids.sort();
        ids
    });
}

/// The six answers a store used to fake on a transport failure, each
/// required to be the failure.
fn every_probe_fails(store: &dyn ObjectStore, held: dsv_storage::ObjectId, what: &str) {
    let probes: [(&str, Result<String, StoreError>); 6] = [
        ("contains", store.contains(held).map(|b| format!("{b}"))),
        (
            "contains_batch",
            store.contains_batch(&[held]).map(|v| format!("{v:?}")),
        ),
        ("remove", store.remove(held).map(|()| "()".into())),
        (
            "remove_batch",
            store.remove_batch(&[held]).map(|()| "()".into()),
        ),
        ("object_ids", store.object_ids().map(|v| format!("{v:?}"))),
        ("clear", store.clear().map(|()| "()".into())),
    ];
    for (probe, answer) in probes {
        assert!(
            matches!(answer, Err(StoreError::Io(_))),
            "{what}: {probe} on a dead server answered {answer:?}"
        );
    }
}

/// A store answers or fails: with its server (or one of its shards) gone,
/// nothing reads as "absent", "removed" or "empty" — and the layers that
/// decide from those answers fail with it.
#[test]
fn a_dead_server_is_an_error_never_absent_removed_or_empty() {
    let idle = Duration::from_millis(1_000);
    let dial = |server: &StoreServer| {
        RemoteStore::connect_with(
            &server.addr,
            DEFAULT_MAX_FRAME,
            Some(Duration::from_secs(10)),
            RetryPolicy::none(),
        )
        .unwrap()
    };

    // One remote store.
    let server = StoreServer::spawn_with_idle(DEFAULT_MAX_FRAME, idle);
    let single = dial(&server);
    let held = single
        .put(&Object::Full {
            data: b"held by a server about to die".to_vec(),
        })
        .unwrap();
    assert!(single.contains(held).unwrap());
    drop(server);
    every_probe_fails(&single, held, "RemoteStore");

    // A chunked repository over two remote shards, one of which dies.
    let survivor = StoreServer::spawn(DEFAULT_MAX_FRAME);
    let victim = StoreServer::spawn_with_idle(DEFAULT_MAX_FRAME, idle);
    let mut repo = Repository::init_chunked(
        ShardedStore::new(vec![dial(&survivor), dial(&victim)]),
        dsv_chunk::ChunkerParams::default(),
    );
    let contents = version_contents(3);
    for data in &contents[..2] {
        repo.commit("main", data, "step").unwrap();
    }
    assert!(fsck::fsck(&repo, None).is_clean());
    let fill = repo.store().stats();
    assert!(
        fill.shards.iter().all(|s| s.objects > 0),
        "both shards must hold chunks: {fill:?}"
    );
    let on_victim = *sorted_ids(repo.store())
        .iter()
        .find(|&&id| dsv_storage::shard_index(id, 2) == 1)
        .unwrap();
    drop(victim);

    every_probe_fails(repo.store(), on_victim, "ShardedStore<RemoteStore>");
    // Answered "absent", the dedup probe would re-store every chunk of
    // the new version on the surviving shard and commit.
    let before = repo.version_count();
    let err = repo.commit("main", &contents[2], "after the shard died");
    assert!(err.is_err(), "commit with a dead shard: {err:?}");
    assert_eq!(repo.version_count(), before);
    // fsck cannot enumerate, says so, and guesses no orphans.
    let report = fsck::fsck(&repo, None);
    assert!(!report.is_clean());
    assert!(report.orphans.is_empty(), "{report}");
    let printed = report.to_string();
    assert!(
        printed.contains("STORE FAILURE") && printed.contains("remote store"),
        "{printed}"
    );
    assert!(fsck::fsck_repair(&mut repo, None).is_err());
}
