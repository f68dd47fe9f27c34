//! Content-defined chunking: a Gear-hash chunker with FastCDC-style
//! normalized cut-points.
//!
//! Chunk boundaries are chosen where a rolling hash of the trailing bytes
//! matches a mask, so they depend on *content*, not on byte offsets:
//! inserting bytes mid-version shifts every downstream offset but leaves
//! downstream boundaries (and therefore chunk identities) intact once the
//! hash re-synchronizes — the property that makes chunk-level
//! deduplication effective on shifted/overlapping versions, where
//! fixed-size blocking deduplicates nothing.
//!
//! The cut rule is FastCDC's normalized variant (Xia et al., ATC'16): no
//! boundary before `min_size`, a *harder* mask (more bits) before
//! `avg_size` and an *easier* one after, and a forced cut at `max_size`.
//! Normalization pulls the chunk-size distribution toward `avg_size`
//! without the long tail of plain Gear chunking.

use dsv_core::ChunkerParams;
use std::ops::Range;

/// Per-byte Gear constants, generated deterministically at compile time
/// (splitmix64 over the byte value), so chunking is stable across builds
/// and platforms.
static GEAR: [u64; 256] = build_gear_table();

const fn build_gear_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        // splitmix64 finalizer over a fixed-seeded counter.
        let mut z = (i as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        table[i] = z ^ (z >> 31);
        i += 1;
    }
    table
}

/// Length of the chunk starting at `data[0]` (FastCDC cut rule). The mask
/// before the average point has two extra bits (boundaries 4x *less*
/// likely than `1/avg`), the one after two fewer (4x *more* likely);
/// `avg_size ≤ ChunkerParams::MAX_SIZE` keeps `4 · avg` far from overflow.
fn cut(params: &ChunkerParams, data: &[u8]) -> usize {
    let len = data.len();
    if len <= params.min_size() {
        return len;
    }
    let avg = params.avg_size() as u64;
    let (mask_hard, mask_easy) = (avg * 4 - 1, (avg / 4).max(1) - 1);
    let bound = len.min(params.max_size());
    let center = bound.min(params.avg_size());
    let mut hash: u64 = 0;
    let mut i = params.min_size();
    while i < center {
        hash = (hash << 1).wrapping_add(GEAR[data[i] as usize]);
        if hash & mask_hard == 0 {
            return i + 1;
        }
        i += 1;
    }
    while i < bound {
        hash = (hash << 1).wrapping_add(GEAR[data[i] as usize]);
        if hash & mask_easy == 0 {
            return i + 1;
        }
        i += 1;
    }
    bound
}

/// Iterator over the content-defined chunks of a byte slice.
///
/// ```
/// use dsv_core::ChunkerParams;
/// use dsv_storage::chunk::Chunker;
///
/// let data = vec![7u8; 40_000];
/// let params = ChunkerParams::default();
/// let chunks: Vec<&[u8]> = Chunker::new(&data, params).collect();
/// assert_eq!(chunks.iter().map(|c| c.len()).sum::<usize>(), data.len());
/// assert!(chunks.iter().all(|c| c.len() <= params.max_size()));
/// ```
#[derive(Debug, Clone)]
pub struct Chunker<'a> {
    data: &'a [u8],
    pos: usize,
    params: ChunkerParams,
}

impl<'a> Chunker<'a> {
    /// Chunks `data` under `params`.
    pub fn new(data: &'a [u8], params: ChunkerParams) -> Self {
        Chunker {
            data,
            pos: 0,
            params,
        }
    }
}

impl<'a> Iterator for Chunker<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.pos >= self.data.len() {
            return None;
        }
        let rest = &self.data[self.pos..];
        let cut = cut(&self.params, rest);
        self.pos += cut;
        Some(&rest[..cut])
    }
}

/// The chunk spans of `data` as byte ranges (offsets into `data`).
pub fn chunk_spans(data: &[u8], params: ChunkerParams) -> Vec<Range<usize>> {
    let mut spans = Vec::new();
    let mut start = 0;
    for chunk in Chunker::new(data, params) {
        spans.push(start..start + chunk.len());
        start += chunk.len();
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_core::SolveError;

    #[test]
    fn chunking_spec_mirrors_default_params() {
        // `dsv optimize --hybrid` sends the default chunker over the wire
        // and the server builds it back through the validated constructor.
        let d = ChunkerParams::default();
        assert_eq!(
            (d.min_size(), d.avg_size(), d.max_size()),
            (256, 1024, 8192)
        );
        assert_eq!(
            ChunkerParams::new(d.min_size(), d.avg_size(), d.max_size()),
            Ok(d)
        );
    }

    /// Deterministic pseudo-text: repetitive structure with enough
    /// variation for boundaries to land everywhere.
    fn sample(len: usize, seed: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut s = seed | 1;
        while out.len() < len {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            out.extend_from_slice(format!("row-{},col-{}\n", s % 1000, s % 97).as_bytes());
        }
        out.truncate(len);
        out
    }

    fn p() -> ChunkerParams {
        ChunkerParams::new(64, 256, 1024).unwrap()
    }

    #[test]
    fn reassembly_is_exact() {
        for seed in 1..6 {
            let data = sample(20_000, seed);
            let joined: Vec<u8> = Chunker::new(&data, p()).flatten().copied().collect();
            assert_eq!(joined, data);
        }
    }

    #[test]
    fn sizes_respect_bounds() {
        let data = sample(50_000, 3);
        let chunks: Vec<&[u8]> = Chunker::new(&data, p()).collect();
        assert!(chunks.len() > 10, "expected many chunks");
        for (i, c) in chunks.iter().enumerate() {
            assert!(c.len() <= p().max_size(), "chunk {i} over max");
            if i + 1 < chunks.len() {
                assert!(c.len() >= p().min_size(), "interior chunk {i} under min");
            }
        }
        let mean: usize = chunks.iter().map(|c| c.len()).sum::<usize>() / chunks.len();
        assert!(
            (p().avg_size() / 4..=p().max_size() / 2).contains(&mean),
            "mean chunk size {mean} far from target {}",
            p().avg_size()
        );
    }

    #[test]
    fn chunking_is_deterministic() {
        let data = sample(10_000, 9);
        let a = chunk_spans(&data, p());
        let b = chunk_spans(&data, p());
        assert_eq!(a, b);
    }

    #[test]
    fn insertion_shifts_only_local_boundaries() {
        let base = sample(40_000, 5);
        let mut edited = base.clone();
        let at = edited.len() / 2;
        edited.splice(at..at, b"INSERTED PAYLOAD".iter().copied());

        let set = |d: &[u8]| -> std::collections::HashSet<Vec<u8>> {
            Chunker::new(d, p()).map(|c| c.to_vec()).collect()
        };
        let (a, b) = (set(&base), set(&edited));
        let changed = a.symmetric_difference(&b).count();
        assert!(
            changed <= 6,
            "one insertion disturbed {changed} chunks (want O(1))"
        );
    }

    #[test]
    fn small_and_empty_inputs() {
        assert_eq!(Chunker::new(&[], p()).count(), 0);
        let tiny = b"below min size".to_vec();
        let chunks: Vec<&[u8]> = Chunker::new(&tiny, p()).collect();
        assert_eq!(chunks, vec![tiny.as_slice()]);
    }

    #[test]
    fn params_are_validated() {
        assert!(ChunkerParams::new(64, 256, 1024).is_ok());
        assert!(matches!(
            ChunkerParams::new(4, 256, 1024),
            Err(SolveError::InvalidParameter(_))
        ));
        assert!(matches!(
            ChunkerParams::new(64, 300, 1024), // not a power of two
            Err(SolveError::InvalidParameter(_))
        ));
        assert!(matches!(
            ChunkerParams::new(512, 256, 1024), // min > avg
            Err(SolveError::InvalidParameter(_))
        ));
        assert!(matches!(
            ChunkerParams::new(64, 2048, 1024), // avg > max
            Err(SolveError::InvalidParameter(_))
        ));
        // Bounded above too: `4 · avg` must not overflow the cut masks.
        let top = ChunkerParams::MAX_SIZE;
        assert!(ChunkerParams::new(64, top, top).is_ok());
        assert!(matches!(
            ChunkerParams::new(16, 1 << 62, 1 << 62),
            Err(SolveError::InvalidParameter(_))
        ));
        assert!(matches!(
            ChunkerParams::new(64, 256, top + 1),
            Err(SolveError::InvalidParameter(_))
        ));
    }

    #[test]
    fn spans_tile_the_input() {
        let data = sample(13_337, 2);
        let spans = chunk_spans(&data, p());
        let mut expected_start = 0;
        for s in &spans {
            assert_eq!(s.start, expected_start);
            expected_start = s.end;
        }
        assert_eq!(expected_start, data.len());
    }
}
