//! Wire-protocol properties: every request/response frame round-trips
//! through encode → frame → decode unchanged — and through the streamed
//! spelling the server and client speak (gather → one write, header →
//! `read_body`), byte for byte the same — and the codec never panics on
//! malformed bytes: corrupt input is a structured [`NetError`], not an
//! abort or a hang.

use dsv_core::{Problem, SolverChoice};
use dsv_net::frame::{read_frame, read_header, write_frame, Frame, NetError, DEFAULT_MAX_FRAME};
use dsv_net::proto::{
    CandidateLine, CandidateNumbers, FsckSummary, OptimizeSummary, Request, Response, StatsSummary,
    WireMode, WireRecovery,
};
use dsv_storage::{
    CacheStats, Object, ObjectId, OpCounters, RecreationWork, ShardStats, StoreStats,
};
use proptest::prelude::*;

/// Full wire round-trip: encode the frame, serialize it, read it back
/// under the default cap, decode.
fn roundtrip_request(req: &Request) {
    let frame = req.encode();
    let mut wire = Vec::new();
    write_frame(&mut wire, &frame).unwrap();
    let back = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(back, frame);
    assert_eq!(&Request::decode(&back).unwrap(), req);

    let mut streamed = Vec::new();
    req.lend().gather().write_to(&mut streamed).unwrap();
    assert_eq!(streamed, wire);
    let mut src = wire.as_slice();
    let header = read_header(&mut src, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(&Request::read_body(header, &mut src).unwrap(), req);
    assert!(src.is_empty());
}

fn roundtrip_response(resp: &Response) {
    let frame = resp.encode();
    let mut wire = Vec::new();
    write_frame(&mut wire, &frame).unwrap();
    let back = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(back, frame);
    assert_eq!(&Response::decode(&back).unwrap(), resp);

    let mut streamed = Vec::new();
    resp.lend().gather().write_to(&mut streamed).unwrap();
    assert_eq!(streamed, wire);
    let mut src = wire.as_slice();
    let header = read_header(&mut src, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(&Response::read_body(header, &mut src).unwrap(), resp);
    assert!(src.is_empty());
}

fn arb_opt_u64() -> impl Strategy<Value = Option<u64>> {
    (any::<bool>(), any::<u64>()).prop_map(|(some, v)| some.then_some(v))
}

fn arb_opt_u32() -> impl Strategy<Value = Option<u32>> {
    (any::<bool>(), any::<u32>()).prop_map(|(some, v)| some.then_some(v))
}

fn arb_problem() -> impl Strategy<Value = Problem> {
    (1u8..=6, any::<u64>()).prop_map(|(kind, bound)| match kind {
        1 => Problem::MinStorage,
        2 => Problem::MinRecreation,
        3 => Problem::MinSumRecreationGivenStorage { beta: bound },
        4 => Problem::MinMaxRecreationGivenStorage { beta: bound },
        5 => Problem::MinStorageGivenSumRecreation { theta: bound },
        _ => Problem::MinStorageGivenMaxRecreation { theta: bound },
    })
}

fn arb_solver() -> impl Strategy<Value = SolverChoice> {
    (0u8..3, "[a-z0-9_-]{0,16}").prop_map(|(kind, name)| match kind {
        0 => SolverChoice::Auto,
        1 => SolverChoice::Named(name),
        _ => SolverChoice::Portfolio,
    })
}

fn arb_mode() -> impl Strategy<Value = WireMode> {
    (0u8..3, any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(kind, a, b, c)| match kind {
        0 => WireMode::Auto,
        1 => WireMode::Binary,
        _ => WireMode::Hybrid {
            min_size: a,
            avg_size: b,
            max_size: c,
        },
    })
}

fn arb_work() -> impl Strategy<Value = RecreationWork> {
    (
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        any::<u32>(),
        any::<u64>(),
    )
        .prop_map(|(objects, read, written, hits, saved)| RecreationWork {
            objects_fetched: objects as usize,
            bytes_read: read,
            bytes_written: written,
            cache_hits: hits as usize,
            bytes_saved: saved,
        })
}

fn arb_store_stats() -> impl Strategy<Value = StoreStats> {
    (
        any::<u32>(),
        any::<u64>(),
        prop::collection::vec((any::<u32>(), any::<u64>(), any::<u64>()), 0..8),
        prop::collection::vec(any::<u64>(), 7..8),
    )
        .prop_map(|(objects, bytes, shards, ops)| StoreStats {
            objects: objects as usize,
            bytes,
            shards: shards
                .into_iter()
                .map(|(o, b, ns)| ShardStats {
                    objects: o as usize,
                    bytes: b,
                    batch_ns: ns,
                })
                .collect(),
            ops: OpCounters {
                puts: ops[0],
                gets: ops[1],
                batch_puts: ops[2],
                batch_put_objects: ops[3],
                batch_gets: ops[4],
                batch_get_objects: ops[5],
                removes: ops[6],
            },
        })
}

fn arb_cache_stats() -> impl Strategy<Value = CacheStats> {
    prop::collection::vec(any::<u64>(), 10..11).prop_map(|v| CacheStats {
        budget_bytes: v[0],
        bytes: v[1],
        entries: v[2] as usize,
        lookups: v[3],
        hits: v[4],
        misses: v[5],
        admitted: v[6],
        rejected: v[7],
        evictions: v[8],
        bytes_saved: v[9],
    })
}

fn arb_object_id() -> impl Strategy<Value = ObjectId> {
    prop::collection::vec(any::<u8>(), 16..17).prop_map(|v| {
        let mut id = [0u8; 16];
        id.copy_from_slice(&v);
        ObjectId(id)
    })
}

fn arb_object_ids() -> impl Strategy<Value = Vec<ObjectId>> {
    prop::collection::vec(arb_object_id(), 0..12)
}

/// All three object kinds, so the wire encoding's tag byte, optional
/// base id, and manifest layout are each exercised.
fn arb_object() -> impl Strategy<Value = Object> {
    (
        0u8..3,
        prop::collection::vec(any::<u8>(), 0..256),
        arb_object_id(),
        prop::collection::vec(arb_object_id(), 0..16),
    )
        .prop_map(|(kind, data, base, chunks)| match kind {
            0 => Object::Full { data },
            1 => Object::Delta { base, delta: data },
            _ => Object::Chunked { chunks },
        })
}

fn arb_candidates() -> impl Strategy<Value = Vec<CandidateLine>> {
    prop::collection::vec(
        (
            "[a-z]{1,12}",
            any::<bool>(),
            prop::collection::vec(any::<u64>(), 4..5),
            any::<bool>(),
            "[ -~]{0,40}",
        ),
        0..5,
    )
    .prop_map(|lines| {
        lines
            .into_iter()
            .map(|(solver, ok, nums, feasible, err)| CandidateLine {
                solver,
                outcome: if ok {
                    Ok(CandidateNumbers {
                        objective: nums[0],
                        storage: nums[1],
                        sum_recreation: nums[2],
                        max_recreation: nums[3],
                        feasible,
                    })
                } else {
                    Err(err)
                },
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hello_and_bare_requests_roundtrip(version in any::<u16>()) {
        roundtrip_request(&Request::Hello { version });
        roundtrip_request(&Request::Ping);
        roundtrip_request(&Request::Stats);
        roundtrip_request(&Request::Shutdown);
    }

    #[test]
    fn commit_request_roundtrips(
        (token, hops) in (any::<u64>(), any::<u32>()),
        branch in "[a-zA-Z0-9/_-]{0,24}",
        message in "[ -~]{0,48}",
        online in any::<bool>(),
        theta in arb_opt_u64(),
        data in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        roundtrip_request(&Request::Commit { token, branch, message, online, hops, theta, data });
    }

    #[test]
    fn checkout_request_roundtrips(version in any::<u32>()) {
        roundtrip_request(&Request::Checkout { version });
    }

    #[test]
    fn fsck_request_and_response_roundtrip(
        repair in any::<bool>(),
        counts in prop::collection::vec(any::<u64>(), 6..7),
        clean in any::<bool>(),
        journal_pending in any::<bool>(),
        recovery in (0u8..4, any::<u64>()).prop_map(|(kind, removed)| match kind {
            0 => None,
            1 => Some(WireRecovery::Clean),
            2 => Some(WireRecovery::RolledForward { removed }),
            _ => Some(WireRecovery::RolledBack { removed }),
        }),
    ) {
        roundtrip_request(&Request::Fsck { repair });
        roundtrip_response(&Response::FsckOk(FsckSummary {
            clean,
            versions_checked: counts[0],
            objects_checked: counts[1],
            bad_addresses: counts[2],
            unreadable: counts[3],
            orphans: counts[4],
            orphans_removed: counts[5],
            journal_pending,
            recovery,
        }));
    }

    #[test]
    fn optimize_request_roundtrips(
        problem in arb_problem(),
        solver in arb_solver(),
        mode in arb_mode(),
        reveal_hops in any::<u32>(),
        hop_bound in arb_opt_u32(),
    ) {
        roundtrip_request(&Request::Optimize { problem, solver, mode, reveal_hops, hop_bound });
    }

    #[test]
    fn simple_responses_roundtrip(
        version in any::<u16>(),
        id in any::<u32>(),
        bytes in any::<u64>(),
        online in any::<bool>(),
        code in any::<u16>(),
        message in "[ -~]{0,64}",
    ) {
        roundtrip_response(&Response::HelloOk { version });
        roundtrip_response(&Response::Pong);
        roundtrip_response(&Response::ShutdownOk);
        roundtrip_response(&Response::CommitOk { id, bytes, online });
        roundtrip_response(&Response::Error { code, message });
    }

    #[test]
    fn checkout_response_roundtrips(
        data in prop::collection::vec(any::<u8>(), 0..512),
        work in arb_work(),
    ) {
        roundtrip_response(&Response::CheckoutOk { data, work });
    }

    #[test]
    fn optimize_response_roundtrips(
        problem in "[ -~]{0,24}",
        solver in "[a-z]{1,12}",
        feasible in any::<bool>(),
        portfolio in any::<bool>(),
        numbers in prop::collection::vec(any::<u64>(), 7..8),
        candidates in arb_candidates(),
    ) {
        roundtrip_response(&Response::OptimizeOk(OptimizeSummary {
            problem,
            solver,
            feasible,
            portfolio,
            storage_before: numbers[0],
            storage_after: numbers[1],
            materialized: numbers[2],
            chunked: numbers[3],
            planned_storage_cost: numbers[4],
            planned_max_recreation: numbers[5],
            planned_sum_recreation: numbers[6],
            candidates,
        }));
    }

    #[test]
    fn stats_response_roundtrips(
        stats in arb_store_stats(),
        logical_bytes in any::<u64>(),
        cache in (any::<bool>(), arb_cache_stats()).prop_map(|(some, c)| some.then_some(c)),
    ) {
        roundtrip_response(&Response::StatsOk(StatsSummary { stats, logical_bytes, cache }));
    }

    /// Every protocol-v3 object-store request frame round-trips.
    #[test]
    fn store_requests_roundtrip(
        objs in prop::collection::vec(arb_object(), 0..8),
        ids in arb_object_ids(),
    ) {
        roundtrip_request(&Request::StorePut { objs });
        roundtrip_request(&Request::StoreGet { ids: ids.clone() });
        roundtrip_request(&Request::StoreContains { ids: ids.clone() });
        roundtrip_request(&Request::StoreRemove { ids });
        roundtrip_request(&Request::StoreObjectIds);
        roundtrip_request(&Request::StoreStats);
    }

    /// Every protocol-v3 object-store response frame round-trips —
    /// including `StoreGetOk`'s presence-tagged slots (`None` = not
    /// found on the server), which carry per-slot optionality the other
    /// batch responses don't have.
    #[test]
    fn store_responses_roundtrip(
        ids in arb_object_ids(),
        slots in prop::collection::vec(
            (any::<bool>(), arb_object()).prop_map(|(some, obj)| some.then_some(obj)),
            0..8,
        ),
        present in prop::collection::vec(any::<bool>(), 0..12),
        stats in arb_store_stats(),
    ) {
        roundtrip_response(&Response::StorePutOk { ids: ids.clone() });
        roundtrip_response(&Response::StoreGetOk { objs: slots });
        roundtrip_response(&Response::StoreContainsOk { present });
        roundtrip_response(&Response::StoreRemoveOk);
        roundtrip_response(&Response::StoreObjectIdsOk { ids });
        roundtrip_response(&Response::StoreStatsOk(stats));
    }

    /// Arbitrary bytes through the frame reader and both decoders:
    /// never a panic, always Ok or a structured error.
    #[test]
    fn fuzz_random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = read_frame(&mut bytes.as_slice(), 64 * 1024);
        for opcode in [
            0u8, 1, 2, 3, 4, 5, 6, 7, 8, 0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x0E, 0x81, 0x84, 0x85,
            0x86, 0x88, 0x89, 0x8A, 0x8B, 0x8C, 0x8D, 0x8E, 0xFF, 0x42,
        ] {
            let frame = Frame::new(opcode, bytes.clone());
            let _ = Request::decode(&frame);
            let _ = Response::decode(&frame);
        }
    }

    /// Flipping any single byte of an encoded `StorePut` (the densest
    /// store frame: tagged objects, base ids, varint lengths) decodes or
    /// fails cleanly — object decoding doubles as validation, so a
    /// corrupted payload cannot smuggle through as a different object.
    #[test]
    fn fuzz_store_put_corruption_never_panics(
        objs in prop::collection::vec(arb_object(), 1..5),
        pos in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let req = Request::StorePut { objs };
        let mut wire = Vec::new();
        write_frame(&mut wire, &req.encode()).unwrap();
        let pos = pos.index(wire.len());
        wire[pos] ^= flip;
        if let Ok(frame) = read_frame(&mut wire.as_slice(), 64 * 1024) {
            let _ = Request::decode(&frame);
            let _ = Response::decode(&frame);
        }
    }

    /// Truncating a `StoreGetOk` wire image at any point is a structured
    /// error (or a clean EOF at the boundary) — the response a client is
    /// mid-read on when a shard server dies.
    #[test]
    fn fuzz_store_get_ok_truncation_is_structured(
        slots in prop::collection::vec(
            (any::<bool>(), arb_object()).prop_map(|(some, obj)| some.then_some(obj)),
            0..6,
        ),
        cut in any::<prop::sample::Index>(),
    ) {
        let resp = Response::StoreGetOk { objs: slots };
        let mut wire = Vec::new();
        write_frame(&mut wire, &resp.encode()).unwrap();
        let cut = cut.index(wire.len());
        match read_frame(&mut wire[..cut].to_vec().as_slice(), 64 * 1024) {
            Err(NetError::Eof) => assert_eq!(cut, 0),
            Err(NetError::Truncated) => assert!(cut > 0),
            Ok(_) => panic!("truncated image decoded as a whole frame"),
            Err(e) => panic!("unexpected error for truncation: {e:?}"),
        }
    }

    /// Flipping any single byte of a valid encoded frame either still
    /// decodes (to something) or fails cleanly — no panic either way.
    #[test]
    fn fuzz_single_byte_corruption_never_panics(
        data in prop::collection::vec(any::<u8>(), 0..64),
        pos in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let req = Request::Commit {
            token: 0xDEAD_BEEF,
            branch: "main".into(),
            message: "msg".into(),
            online: true,
            hops: 2,
            theta: Some(7),
            data,
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &req.encode()).unwrap();
        let pos = pos.index(wire.len());
        wire[pos] ^= flip;
        if let Ok(frame) = read_frame(&mut wire.as_slice(), 64 * 1024) {
            let _ = Request::decode(&frame);
            let _ = Response::decode(&frame);
        }
    }

    /// Truncating a valid wire image at any point is a structured error
    /// (or, at a frame boundary, a clean EOF) — never a hang or panic.
    #[test]
    fn fuzz_truncation_is_structured(
        data in prop::collection::vec(any::<u8>(), 0..64),
        cut in any::<prop::sample::Index>(),
    ) {
        let resp = Response::CheckoutOk { data, work: RecreationWork::default() };
        let mut wire = Vec::new();
        write_frame(&mut wire, &resp.encode()).unwrap();
        let cut = cut.index(wire.len());
        match read_frame(&mut wire[..cut].to_vec().as_slice(), 64 * 1024) {
            Err(NetError::Eof) => assert_eq!(cut, 0),
            Err(NetError::Truncated) => assert!(cut > 0),
            Ok(_) => panic!("truncated image decoded as a whole frame"),
            Err(e) => panic!("unexpected error for truncation: {e:?}"),
        }
    }
}

/// Unknown opcodes decode to the structured error, not a panic, and
/// carry the opcode back for diagnostics.
#[test]
fn unknown_opcode_is_structured() {
    let frame = Frame::new(0x42, vec![1, 2, 3]);
    assert!(matches!(
        Request::decode(&frame),
        Err(NetError::UnknownOpcode(0x42))
    ));
    assert!(matches!(
        Response::decode(&frame),
        Err(NetError::UnknownOpcode(0x42))
    ));
}

/// Trailing bytes after a well-formed body are rejected: both sides must
/// agree on the exact layout.
#[test]
fn trailing_bytes_are_rejected() {
    let mut frame = Request::Ping.encode();
    frame.body.push(0);
    assert!(matches!(
        Request::decode(&frame),
        Err(NetError::Malformed(_))
    ));
}
