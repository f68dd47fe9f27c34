//! Property tests for the chunking invariants: exact reassembly,
//! determinism, size bounds, and boundary stability under insertions.

use dsv_storage::chunk::{chunk_spans, pack_versions_chunked, ChunkStore, Chunker, ChunkerParams};
use dsv_storage::{Materializer, MemStore, ObjectStore};
use proptest::prelude::*;
use std::collections::HashSet;

fn params() -> ChunkerParams {
    ChunkerParams::new(64, 256, 1024).unwrap()
}

/// Arbitrary content: repetitive CSV-like lines (the workloads' shape),
/// long enough to span many chunks.
fn arb_content() -> impl Strategy<Value = Vec<u8>> {
    (1u64..1_000_000, 8usize..40).prop_map(|(seed, kilobytes)| {
        let mut out = Vec::with_capacity(kilobytes * 1024);
        let mut s = seed | 1;
        while out.len() < kilobytes * 1024 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            out.extend_from_slice(
                format!("{},record-{},field-{}\n", s % 9973, s % 613, s % 47).as_bytes(),
            );
        }
        out
    })
}

/// A version plus an edited copy: a small splice at an arbitrary point.
fn arb_edited_pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>, usize)> {
    (
        arb_content(),
        "[a-z0-9 ,.]{1,64}",
        any::<prop::sample::Index>(),
    )
        .prop_map(|(base, insert, idx)| {
            let pos = idx.index(base.len());
            let mut edited = base.clone();
            edited.splice(pos..pos, insert.bytes());
            (base, edited, insert.len())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Chunks concatenate back to exactly the input.
    #[test]
    fn reassembly_is_byte_exact(data in arb_content()) {
        let joined: Vec<u8> = Chunker::new(&data, params()).flatten().copied().collect();
        prop_assert_eq!(joined, data);
    }

    /// Chunking the same bytes twice yields identical spans.
    #[test]
    fn chunking_is_deterministic(data in arb_content()) {
        prop_assert_eq!(chunk_spans(&data, params()), chunk_spans(&data, params()));
    }

    /// Every chunk respects max; every chunk but the last respects min.
    #[test]
    fn chunk_sizes_respect_bounds(data in arb_content()) {
        let p = params();
        let chunks: Vec<&[u8]> = Chunker::new(&data, p).collect();
        prop_assert!(!chunks.is_empty());
        for (i, c) in chunks.iter().enumerate() {
            prop_assert!(c.len() <= p.max_size(), "chunk {} has {} > max", i, c.len());
            if i + 1 < chunks.len() {
                prop_assert!(c.len() >= p.min_size(), "chunk {} has {} < min", i, c.len());
            }
        }
    }

    /// A single mid-file insertion disturbs only O(1) chunks: boundaries
    /// re-synchronize, so almost all chunks stay shared between the two
    /// versions.
    #[test]
    fn insertion_changes_o1_boundaries((base, edited, _len) in arb_edited_pair()) {
        let chunk_set = |d: &[u8]| -> HashSet<Vec<u8>> {
            Chunker::new(d, params()).map(|c| c.to_vec()).collect()
        };
        let (a, b) = (chunk_set(&base), chunk_set(&edited));
        // Symmetric difference counts the disturbed chunks of BOTH
        // versions, and resynchronization after the splice can take a few
        // chunks on each side — but the count must stay constant, not
        // scale with the ~100+ chunks of the version.
        let disturbed = a.symmetric_difference(&b).count();
        let total = a.len().max(b.len());
        prop_assert!(
            disturbed <= 16 && disturbed <= total / 4,
            "insertion disturbed {} chunks of {}",
            disturbed, total
        );
    }

    /// Dedup ratio across an edited pair stays high: storing the edited
    /// version on top of the base adds only the disturbed chunks.
    #[test]
    fn dedup_ratio_stays_high((base, edited, _len) in arb_edited_pair()) {
        let store = MemStore::new(false);
        let cs = ChunkStore::new(&store, params());
        cs.put_version(&base).unwrap();
        let second = cs.put_version(&edited).unwrap();
        // New bytes for the edit are bounded by a few chunks, not by the
        // version size (10x headroom over the worst observed case).
        let bound = (10 * params().max_size()) as u64;
        prop_assert!(
            second.new_chunk_bytes <= bound,
            "edit stored {} new bytes",
            second.new_chunk_bytes
        );
    }

    /// End to end through the shared packing interface: chunk-packed
    /// versions check out byte-exact.
    #[test]
    fn packed_versions_check_out(data in arb_content(), edits in proptest::collection::vec("[a-z]{4,24}", 1..6)) {
        let mut versions = vec![data];
        for e in &edits {
            let mut next = versions.last().unwrap().clone();
            let pos = next.len() / 2;
            next.splice(pos..pos, e.bytes());
            versions.push(next);
        }
        let store = MemStore::new(false);
        let (packed, stats) = pack_versions_chunked(&store, &versions, params()).unwrap();
        prop_assert_eq!(stats.versions, versions.len());
        let m = Materializer::new(&store);
        for (v, expected) in versions.iter().enumerate() {
            let (out, _) = packed.checkout(&m, v as u32).unwrap();
            prop_assert_eq!(&out, expected, "version {} corrupted", v);
        }
        // Physical bytes stay well below materializing every version.
        let logical: u64 = versions.iter().map(|v| v.len() as u64).sum();
        if versions.len() >= 3 {
            prop_assert!(store.total_bytes() < logical / 2);
        }
    }
}
