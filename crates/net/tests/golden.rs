//! Golden wire bytes: one fixed instance of every request and response
//! variant, with the exact body bytes the protocol-v3 codec produces.
//!
//! The round-trip properties in `protocol.rs` hold for *any* codec that
//! is its own inverse — a field reordered on both sides would pass them.
//! These literals pin the layout itself: they were captured from the
//! hand-written codec that shipped protocol v3, so a codec change that
//! moves a byte fails here even when encode and decode still agree.
//! Changing a literal means changing the protocol: bump
//! `PROTOCOL_VERSION`.

use dsv_core::{Problem, SolverChoice};
use dsv_net::frame::{opcode, Frame};
use dsv_net::proto::{
    CandidateLine, CandidateNumbers, FsckSummary, OptimizeSummary, Request, Response, StatsSummary,
    WireMode, WireRecovery,
};
use dsv_storage::{
    CacheStats, Object, ObjectId, OpCounters, RecreationWork, ShardStats, StoreStats,
};

fn id(seed: u8) -> ObjectId {
    let mut bytes = [0u8; 16];
    for (i, b) in bytes.iter_mut().enumerate() {
        *b = seed.wrapping_add(i as u8);
    }
    ObjectId(bytes)
}

/// One of each object kind, so the blob's tag byte, base id and
/// manifest layout are all on the wire.
fn objects() -> Vec<Object> {
    vec![
        Object::Full {
            data: b"full payload".to_vec(),
        },
        Object::Delta {
            base: id(0x10),
            delta: vec![1, 2, 3, 250],
        },
        Object::Chunked {
            chunks: vec![id(0x20), id(0x30)],
        },
    ]
}

fn store_stats() -> StoreStats {
    StoreStats {
        objects: 7,
        bytes: 0x0102_0304_0506,
        shards: vec![
            ShardStats {
                objects: 3,
                bytes: 300,
                batch_ns: 1_000_001,
            },
            ShardStats {
                objects: 4,
                bytes: 400,
                batch_ns: 2_000_002,
            },
        ],
        ops: OpCounters {
            puts: 1,
            gets: 2,
            batch_puts: 3,
            batch_put_objects: 4,
            batch_gets: 5,
            batch_get_objects: 6,
            removes: 7,
        },
    }
}

fn optimize(
    problem: Problem,
    solver: SolverChoice,
    mode: WireMode,
    hop_bound: Option<u32>,
) -> Request {
    Request::Optimize {
        problem,
        solver,
        mode,
        reveal_hops: 5,
        hop_bound,
    }
}

fn fsck_ok(clean: bool, recovery: Option<WireRecovery>) -> Response {
    Response::FsckOk(FsckSummary {
        clean,
        versions_checked: 12,
        objects_checked: 34,
        bad_addresses: 1,
        unreadable: 2,
        orphans: 3,
        orphans_removed: 4,
        journal_pending: !clean,
        recovery,
    })
}

/// Every `Request` variant (all 14), with extra `Optimize` rows so each
/// `Problem`, `SolverChoice` and `WireMode` arm and both option states
/// appear at least once.
fn requests() -> Vec<(u8, Request, &'static str)> {
    let hybrid = WireMode::Hybrid {
        min_size: 2048,
        avg_size: 8192,
        max_size: 65536,
    };
    vec![
        (opcode::HELLO, Request::Hello { version: 3 }, "0300"),
        (opcode::PING, Request::Ping, ""),
        (
            opcode::COMMIT,
            Request::Commit {
                token: 0x1122_3344_5566_7788,
                branch: "main".into(),
                message: "héllo".into(),
                online: true,
                hops: 2,
                theta: Some(4096),
                data: b"a,b\n1,2\n".to_vec(),
            },
            "8877665544332211040000006d61696e0600000068c3a96c6c6f010200000001001000000000000008000000612c620a312c320a",
        ),
        (
            opcode::COMMIT,
            Request::Commit {
                token: 0,
                branch: "dev".into(),
                message: String::new(),
                online: false,
                hops: 0,
                theta: None,
                data: Vec::new(),
            },
            "0000000000000000030000006465760000000000000000000000000000",
        ),
        (opcode::CHECKOUT, Request::Checkout { version: 41 }, "29000000"),
        (
            opcode::OPTIMIZE,
            optimize(
                Problem::MinStorage,
                SolverChoice::Auto,
                WireMode::Auto,
                None,
            ),
            "01000000000000000000000500000000",
        ),
        (
            opcode::OPTIMIZE,
            optimize(
                Problem::MinRecreation,
                SolverChoice::Named("lmg".into()),
                WireMode::Binary,
                Some(9),
            ),
            "02000000000000000001030000006c6d6701050000000109000000",
        ),
        (
            opcode::OPTIMIZE,
            optimize(
                Problem::MinSumRecreationGivenStorage { beta: 1000 },
                SolverChoice::Portfolio,
                hybrid,
                None,
            ),
            "03e80300000000000002020008000000000000002000000000000000000100000000000500000000",
        ),
        (
            opcode::OPTIMIZE,
            optimize(
                Problem::MinMaxRecreationGivenStorage { beta: 2000 },
                SolverChoice::Auto,
                WireMode::Auto,
                None,
            ),
            "04d00700000000000000000500000000",
        ),
        (
            opcode::OPTIMIZE,
            optimize(
                Problem::MinStorageGivenSumRecreation { theta: 3000 },
                SolverChoice::Auto,
                WireMode::Auto,
                None,
            ),
            "05b80b00000000000000000500000000",
        ),
        (
            opcode::OPTIMIZE,
            optimize(
                Problem::MinStorageGivenMaxRecreation { theta: 4000 },
                SolverChoice::Auto,
                WireMode::Auto,
                None,
            ),
            "06a00f00000000000000000500000000",
        ),
        (opcode::STATS, Request::Stats, ""),
        (opcode::SHUTDOWN, Request::Shutdown, ""),
        (opcode::FSCK, Request::Fsck { repair: true }, "01"),
        (opcode::STORE_PUT, Request::StorePut { objs: objects() }, "030000000f00000000000c66756c6c207061796c6f6164170000000100101112131415161718191a1b1c1d1e1f04010203fa23000000020020202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f"),
        (
            opcode::STORE_GET,
            Request::StoreGet {
                ids: vec![id(1), id(2)],
            },
            "020000000102030405060708090a0b0c0d0e0f1002030405060708090a0b0c0d0e0f1011",
        ),
        (
            opcode::STORE_CONTAINS,
            Request::StoreContains { ids: vec![id(3)] },
            "01000000030405060708090a0b0c0d0e0f101112",
        ),
        (
            opcode::STORE_REMOVE,
            Request::StoreRemove { ids: Vec::new() },
            "00000000",
        ),
        (opcode::STORE_IDS, Request::StoreObjectIds, ""),
        (opcode::STORE_STATS, Request::StoreStats, ""),
    ]
}

/// Every `Response` variant (all 15 including `Error`), with extra
/// `FsckOk` rows for each recovery selector and `StatsOk` with and
/// without a cache.
fn responses() -> Vec<(u8, Response, &'static str)> {
    vec![
        (opcode::HELLO_OK, Response::HelloOk { version: 3 }, "0300"),
        (opcode::PONG, Response::Pong, ""),
        (
            opcode::COMMIT_OK,
            Response::CommitOk {
                id: 17,
                bytes: 123_456,
                online: true,
            },
            "1100000040e201000000000001",
        ),
        (
            opcode::CHECKOUT_OK,
            Response::CheckoutOk {
                data: b"id,name\n1,alpha\n".to_vec(),
                work: RecreationWork {
                    objects_fetched: 3,
                    bytes_read: 1000,
                    bytes_written: 2000,
                    cache_hits: 1,
                    bytes_saved: 500,
                },
            },
            "0300000000000000e803000000000000d0070000000000000100000000000000f4010000000000001000000069642c6e616d650a312c616c7068610a",
        ),
        (
            opcode::OPTIMIZE_OK,
            Response::OptimizeOk(OptimizeSummary {
                problem: "P3(β=4096)".into(),
                solver: "lmg".into(),
                feasible: true,
                portfolio: true,
                storage_before: 9000,
                storage_after: 5000,
                materialized: 2,
                chunked: 1,
                planned_storage_cost: 4900,
                planned_max_recreation: 700,
                planned_sum_recreation: 3100,
                candidates: vec![
                    CandidateLine {
                        solver: "lmg".into(),
                        outcome: Ok(CandidateNumbers {
                            objective: 11,
                            storage: 22,
                            sum_recreation: 33,
                            max_recreation: 44,
                            feasible: true,
                        }),
                    },
                    CandidateLine {
                        solver: "ilp".into(),
                        outcome: Err("budget exhausted".into()),
                    },
                ],
            }),
            "0b000000503328ceb23d3430393629030000006c6d67010128230000000000008813000000000000020000000000000001000000000000002413000000000000bc020000000000001c0c00000000000002000000030000006c6d67010b00000000000000160000000000000021000000000000002c000000000000000103000000696c70001000000062756467657420657868617573746564",
        ),
        (
            opcode::STATS_OK,
            Response::StatsOk(StatsSummary {
                stats: store_stats(),
                logical_bytes: 99_999,
                cache: Some(CacheStats {
                    budget_bytes: 1 << 20,
                    bytes: 4242,
                    entries: 5,
                    lookups: 60,
                    hits: 40,
                    misses: 20,
                    admitted: 8,
                    rejected: 2,
                    evictions: 3,
                    bytes_saved: 77_000,
                }),
            }),
            "070000000000000006050403020100000200000003000000000000002c0100000000000041420f00000000000400000000000000900100000000000082841e000000000001000000000000000200000000000000030000000000000004000000000000000500000000000000060000000000000007000000000000009f86010000000000010000100000000000921000000000000005000000000000003c0000000000000028000000000000001400000000000000080000000000000002000000000000000300000000000000c82c010000000000",
        ),
        (
            opcode::STATS_OK,
            Response::StatsOk(StatsSummary {
                stats: StoreStats::default(),
                logical_bytes: 0,
                cache: None,
            }),
            "00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
        ),
        (opcode::SHUTDOWN_OK, Response::ShutdownOk, ""),
        (opcode::FSCK_OK, fsck_ok(true, None), "010c00000000000000220000000000000001000000000000000200000000000000030000000000000004000000000000000000"),
        (opcode::FSCK_OK, fsck_ok(true, Some(WireRecovery::Clean)), "010c00000000000000220000000000000001000000000000000200000000000000030000000000000004000000000000000001"),
        (
            opcode::FSCK_OK,
            fsck_ok(false, Some(WireRecovery::RolledForward { removed: 6 })),
            "000c000000000000002200000000000000010000000000000002000000000000000300000000000000040000000000000001020600000000000000",
        ),
        (
            opcode::FSCK_OK,
            fsck_ok(false, Some(WireRecovery::RolledBack { removed: 8 })),
            "000c000000000000002200000000000000010000000000000002000000000000000300000000000000040000000000000001030800000000000000",
        ),
        (
            opcode::STORE_PUT_OK,
            Response::StorePutOk {
                ids: vec![id(4), id(5)],
            },
            "020000000405060708090a0b0c0d0e0f1011121305060708090a0b0c0d0e0f1011121314",
        ),
        (
            opcode::STORE_GET_OK,
            Response::StoreGetOk {
                objs: objects()
                    .into_iter()
                    .map(Some)
                    .chain(std::iter::once(None))
                    .collect(),
            },
            "04000000010f00000000000c66756c6c207061796c6f616401170000000100101112131415161718191a1b1c1d1e1f04010203fa0123000000020020202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f00",
        ),
        (
            opcode::STORE_CONTAINS_OK,
            Response::StoreContainsOk {
                present: vec![true, false, true],
            },
            "03000000010001",
        ),
        (opcode::STORE_REMOVE_OK, Response::StoreRemoveOk, ""),
        (
            opcode::STORE_IDS_OK,
            Response::StoreObjectIdsOk { ids: vec![id(6)] },
            "01000000060708090a0b0c0d0e0f101112131415",
        ),
        (
            opcode::STORE_STATS_OK,
            Response::StoreStatsOk(store_stats()),
            "070000000000000006050403020100000200000003000000000000002c0100000000000041420f00000000000400000000000000900100000000000082841e00000000000100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000",
        ),
        (
            opcode::ERROR,
            Response::Error {
                code: 5,
                message: "first frame must be Hello".into(),
            },
            "0500190000006669727374206672616d65206d7573742062652048656c6c6f",
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// Every opcode in `lo..=hi` appears in `seen`.
fn assert_covers(seen: &[u8], lo: u8, hi: u8) {
    for op in lo..=hi {
        assert!(seen.contains(&op), "no golden row for opcode 0x{op:02x}");
    }
}

#[test]
fn request_bytes_are_pinned() {
    let rows = requests();
    for (op, req, want) in &rows {
        let frame = req.encode();
        assert_eq!(frame.opcode, *op, "{req:?}");
        assert_eq!(req.opcode(), *op, "{req:?}");
        assert_eq!(hex(&frame.body), *want, "{req:?}");
        let decoded = Request::decode(&Frame::new(*op, unhex(want))).unwrap();
        assert_eq!(&decoded, req);
    }
    let seen: Vec<u8> = rows.iter().map(|r| r.0).collect();
    assert_covers(&seen, opcode::HELLO, opcode::STORE_STATS);
}

#[test]
fn response_bytes_are_pinned() {
    let rows = responses();
    for (op, resp, want) in &rows {
        let frame = resp.encode();
        assert_eq!(frame.opcode, *op, "{resp:?}");
        assert_eq!(resp.opcode(), *op, "{resp:?}");
        assert_eq!(hex(&frame.body), *want, "{resp:?}");
        let decoded = Response::decode(&Frame::new(*op, unhex(want))).unwrap();
        assert_eq!(&decoded, resp);
    }
    let mut seen: Vec<u8> = rows.iter().map(|r| r.0).collect();
    assert_covers(&seen, opcode::HELLO_OK, opcode::STORE_STATS_OK);
    seen.retain(|&op| op == opcode::ERROR);
    assert_eq!(seen.len(), 1, "one golden error frame");
}
