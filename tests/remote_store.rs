//! The distributed object-store tier: a repository whose objects live on
//! remote store servers is observationally identical to one on a local
//! store, a fault cuts a batch over the wire and the retry converges, and
//! a dead shard is an error, never "absent", "removed" or "empty" — rows
//! of the model harness (`common::model`). Beside them, the repack
//! `BatchWriter`'s flush bound cooperates with the wire frame cap instead
//! of colliding with it.

use common::model::{self, Op, Op::*, Outcome};
use common::StoreServer;
use dsv_net::{RemoteStore, RetryPolicy, DEFAULT_MAX_FRAME, FRAME_SLACK};
use dsv_storage::{BatchWriter, Object, ObjectStore, ShardedStore, PACK_FLUSH_BYTES};
use std::time::Duration;

fn sorted_ids(store: &impl ObjectStore) -> Vec<dsv_storage::ObjectId> {
    let mut ids = store.object_ids().unwrap();
    ids.sort();
    ids
}

/// Three versions on `main`.
const HISTORY: [Op; 3] = [
    Commit { branch: 0, edit: 1 },
    Commit { branch: 0, edit: 2 },
    Commit { branch: 0, edit: 3 },
];

/// Remote-sharded ≡ local, step for step: same answers, same object ids,
/// same stored bytes, byte-identical checkouts.
#[test]
fn remote_sharded_repository_is_equivalent_to_local() {
    let configs = ["mem", "remote-sharded"].map(model::config);
    let ops = model::fault_free(11, 24);
    model::check("remote", &ops, |ops| model::lockstep(&configs, ops));
}

/// A `store.put` fault cuts a repack's batch after its second object: the
/// prefix is already on the servers, the repack fails and changes nothing,
/// a repair collects what it left, and the same repack then converges.
#[test]
fn fault_store_cuts_a_remote_batch_over_the_wire() {
    let repack = Optimize {
        problem: 1,
        bound: 0,
        mode: 0,
        solver: 0,
    };
    let mut ops = HISTORY.to_vec();
    ops.extend([
        StoreFault { site: 0, k: 2 },
        repack,
        Fsck { repair: true },
        repack,
    ]);
    let run = model::replay("remote-sharded", &ops);
    let outcomes: Vec<&Outcome> = run.trail[3..].iter().map(|t| &t.outcome).collect();
    assert_eq!(outcomes[1], &Outcome::Failed);
    assert!(matches!(outcomes[2], Outcome::Checked(s) if s.clean && s.orphans_removed > 0));
    assert!(matches!(outcomes[3], Outcome::Optimized(_)));
}

/// With one of a chunked repository's two shards dead, the store's every
/// answer about that shard is an error (the harness probes `contains`,
/// `object_ids` and `remove`), a commit fails and commits nothing, and
/// fsck says the repository is not clean without guessing orphans; once
/// the shard is back, nothing was lost.
#[test]
fn a_dead_server_is_an_error_never_absent_removed_or_empty() {
    let dead = Kill { shard: 1 };
    let mut ops = HISTORY.to_vec();
    ops.extend([
        dead,
        Commit { branch: 0, edit: 4 },
        dead,
        Fsck { repair: false },
        dead,
        Fsck { repair: true },
        dead,
        Checkout { version: 0 },
    ]);
    let run = model::replay("remote-chunked", &ops);
    let outcomes: Vec<&Outcome> = run.trail[3..].iter().map(|t| &t.outcome).collect();
    assert_eq!(outcomes[1], &Outcome::Failed);
    assert!(matches!(outcomes[3], Outcome::Checked(s) if !s.clean && s.orphans == 0));
    assert_eq!(outcomes[5], &Outcome::Failed);
    assert_eq!(run.model.versions.len(), 3);
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
        server.addr(),
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
                s.addr(),
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
