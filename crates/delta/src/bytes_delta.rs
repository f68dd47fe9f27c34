//! Byte-level copy/insert deltas (the role xdelta/LibXDiff play in §5.2).
//!
//! The encoder indexes the source in fixed-size blocks, scans the target
//! greedily, and emits `Copy{offset,len}` / `Insert{bytes}` instructions,
//! varint-encoded. This is the delta format the object store uses for
//! arbitrary binary version content; line scripts ([`crate::script`]) are
//! preferred for text.
//!
//! # Index once, diff many
//!
//! Everything that depends only on the source lives in a [`SourceIndex`],
//! built once and scanned against any number of targets — the shape of
//! every caller that matters: the optimizer's reveal diffs one version
//! against ~15 neighbours, a packer diffs one parent against all its
//! children. [`diff`] is the one-shot spelling of the same kernel.
//!
//! **Layout.** The index is four flat arrays, no per-bucket allocation:
//!
//! - `offsets` — CSR payload: the block-aligned source offsets the scan
//!   may try, grouped by block hash; within a group in source order, at
//!   most `BUCKET_CAP` of them (the first ones).
//! - `groups` — one `(hash, start)` per distinct block hash plus a
//!   sentinel, so group `g` owns `offsets[groups[g].start..groups[g+1].start]`.
//! - `slots` — a power-of-two open-addressed table (linear probing, load
//!   ≤ ½) from block hash to group number.
//! - `filter` — a bitset over a cheap hash of block *content*. A target
//!   position whose bit is clear equals no indexed block, so the scan
//!   moves on without hashing or probing; a set bit only means "look".
//!   It can drop lookups that would have found nothing, never a
//!   candidate.
//!
//! **Candidate-order invariant.** For a target block the scan tries
//! exactly the first ≤ `BUCKET_CAP` (8) source blocks with the same 64-bit
//! FNV-1a hash, in source order; the longest total match (forward plus
//! backward extension) wins and the first wins ties. That rule mentions
//! neither slot positions, probe sequences nor table size, so the emitted
//! ops do not depend on the table layout — a differently sized or
//! differently hashed table produces the same bytes. Every cost matrix,
//! plan and object id in a repository is made of deltas emitted under
//! this rule, so changing it changes all of them (`tests/golden.rs` pins
//! the encodings).
//!
//! **Sinks.** One scan loop drives one of three sinks: a `Vec<DeltaOp>`,
//! the encoded bytes, or only the encoded length (what a cost matrix
//! needs — no literal is copied anywhere). [`encode`] feeds ops through
//! the same byte sink, so the wire format is written down once.
//!
//! **Reveal by source.** [`pair_sizes`], [`pair_costs`] and
//! [`encode_pairs`] group their jobs by source version and run one
//! `dsv_par` task per *source*: the task builds that source's index, scans
//! every target it is paired with, and drops the index before taking the
//! next source. At most one index per worker is alive (an index is about
//! twice its source's size), so peak memory does not grow with the number
//! of versions or pairs, while each version is still indexed once instead
//! of once per pair.

use dsv_compress::lz::common_prefix;
use dsv_compress::varint::{decode_u64, encode_u64, encoded_len};
use std::cell::RefCell;

/// Block size for the source index. Matches of at least this length can be
/// found; shorter repeats are emitted as literals.
const BLOCK: usize = 16;

/// Most source offsets kept (and tried) per block hash: the first ones in
/// source order. Bounds the scan on highly repetitive sources.
const BUCKET_CAP: u32 = 8;

/// One instruction of a byte delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Copy `len` bytes from the *source* at `offset`.
    Copy {
        /// Byte offset in the source.
        offset: u64,
        /// Number of bytes.
        len: u64,
    },
    /// Insert literal bytes.
    Insert {
        /// The literal bytes.
        bytes: Vec<u8>,
    },
}

/// Errors applying or decoding a byte delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// A copy referenced bytes outside the source.
    CopyOutOfRange,
    /// The encoded stream was malformed or truncated.
    Malformed,
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::CopyOutOfRange => write!(f, "copy exceeds source bounds"),
            DeltaError::Malformed => write!(f, "malformed delta stream"),
        }
    }
}

impl std::error::Error for DeltaError {}

#[inline]
fn block_hash(block: &[u8; BLOCK]) -> u64 {
    // FNV-1a over one block.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in block {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[inline]
fn block_at(bytes: &[u8], at: usize) -> &[u8; BLOCK] {
    bytes[at..at + BLOCK]
        .try_into()
        .expect("slice is BLOCK bytes long")
}

/// A cheap function of a block's *content* (two word loads, two
/// multiplies) for the index's miss filter; its top bits pick the bit.
#[inline]
fn content_key(block: &[u8; BLOCK]) -> u64 {
    let lo = u64::from_le_bytes(block[..8].try_into().expect("8 bytes"));
    let hi = u64::from_le_bytes(block[8..].try_into().expect("8 bytes"));
    (lo.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ hi).wrapping_mul(0xff51_afd7_ed55_8ccd)
}

/// Length of the longest common suffix (backward extension runs into the
/// pending literals only, so it is short: bytewise).
#[inline]
fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    a.iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count()
}

/// Where a scan's instructions go. Implemented by the three outputs the
/// callers need: ops, encoded bytes, encoded length.
trait Sink {
    fn copy(&mut self, offset: u64, len: u64);
    fn insert(&mut self, bytes: &[u8]);
}

impl Sink for Vec<DeltaOp> {
    fn copy(&mut self, offset: u64, len: u64) {
        self.push(DeltaOp::Copy { offset, len });
    }
    fn insert(&mut self, bytes: &[u8]) {
        self.push(DeltaOp::Insert {
            bytes: bytes.to_vec(),
        });
    }
}

/// The wire format: per op a tag varint (`len << 1` = copy,
/// `(len << 1) | 1` = insert) followed by the payload (copy offset /
/// literal bytes).
struct Encoded<'a>(&'a mut Vec<u8>);

impl Sink for Encoded<'_> {
    fn copy(&mut self, offset: u64, len: u64) {
        encode_u64(len << 1, self.0);
        encode_u64(offset, self.0);
    }
    fn insert(&mut self, bytes: &[u8]) {
        encode_u64(((bytes.len() as u64) << 1) | 1, self.0);
        self.0.extend_from_slice(bytes);
    }
}

/// The length [`Encoded`] would reach, without writing a byte.
struct EncodedLen(u64);

impl Sink for EncodedLen {
    fn copy(&mut self, offset: u64, len: u64) {
        self.0 += (encoded_len(len << 1) + encoded_len(offset)) as u64;
    }
    fn insert(&mut self, bytes: &[u8]) {
        let len = bytes.len() as u64;
        self.0 += encoded_len((len << 1) | 1) as u64 + len;
    }
}

const EMPTY: u32 = u32::MAX;

/// One distinct block hash of the source and where its offsets start in
/// the CSR payload (the next group's `start` is where they end).
#[derive(Clone, Copy)]
struct Group {
    hash: u64,
    start: u32,
}

/// The block index of one source, reusable across any number of targets
/// (see the [module docs](self) for layout and the candidate-order
/// invariant). Sources are addressed with `u32` block offsets, as the
/// kernel always has: a source must be shorter than 4 GiB.
pub struct SourceIndex<'a> {
    src: &'a [u8],
    /// Hash → group number, open addressing; `EMPTY` terminates a probe.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: the slot of a hash is the top bits of
    /// its Fibonacci product.
    shift: u32,
    /// Distinct hashes in order of first occurrence, plus a sentinel.
    groups: Vec<Group>,
    /// First ≤ `BUCKET_CAP` block offsets per group, in source order.
    offsets: Vec<u32>,
    /// Miss filter: one bit per [`content_key`] of an indexed block, ≥ 16
    /// bits per block. A clear bit proves no indexed block has the probed
    /// content, so no candidate could pass verification and the scan may
    /// skip the FNV hash and the table probe — most target positions
    /// inside an edit end here. A set bit decides nothing.
    filter: Vec<u64>,
    /// `64 - log2(filter bits)`.
    filter_shift: u32,
}

impl<'a> SourceIndex<'a> {
    /// Indexes `src`'s aligned blocks: linear in `src.len()`, and a fixed
    /// handful of allocations however many distinct blocks there are.
    pub fn new(src: &'a [u8]) -> Self {
        assert!(
            u32::try_from(src.len()).is_ok(),
            "byte-delta sources are addressed with 32-bit offsets"
        );
        let nblocks = src.len() / BLOCK;
        let table_bits = (2 * nblocks).max(2).next_power_of_two().trailing_zeros();
        let filter_bits = (16 * nblocks).max(64).next_power_of_two().trailing_zeros();
        let mut index = SourceIndex {
            src,
            slots: vec![EMPTY; 1 << table_bits],
            shift: 64 - table_bits,
            groups: Vec::with_capacity(nblocks + 1),
            offsets: Vec::new(),
            filter: vec![0; 1 << (filter_bits - 6)],
            filter_shift: 64 - filter_bits,
        };

        // Pass 1: assign every block to its hash's group (creating groups
        // in order of first occurrence) and count group sizes, capped.
        // `groups[g].start` holds the count until the prefix sum below.
        let mut group_of_block: Vec<u32> = Vec::with_capacity(nblocks);
        for block in src.chunks_exact(BLOCK) {
            let block: &[u8; BLOCK] = block.try_into().expect("exact chunk");
            let hash = block_hash(block);
            let mut slot = index.home_slot(hash);
            let group = loop {
                match index.slots[slot] {
                    EMPTY => {
                        let g = index.groups.len() as u32;
                        index.slots[slot] = g;
                        index.groups.push(Group { hash, start: 0 });
                        break g;
                    }
                    g if index.groups[g as usize].hash == hash => break g,
                    _ => slot = (slot + 1) & (index.slots.len() - 1),
                }
            };
            let count = &mut index.groups[group as usize].start;
            if *count < BUCKET_CAP {
                *count += 1;
                group_of_block.push(group);
                let bit = content_key(block) >> index.filter_shift;
                index.filter[(bit >> 6) as usize] |= 1 << (bit & 63);
            } else {
                group_of_block.push(EMPTY);
            }
        }

        // Counts → starts (exclusive prefix sum), sentinel at the end.
        let mut total = 0u32;
        for group in &mut index.groups {
            let count = group.start;
            group.start = total;
            total += count;
        }
        index.groups.push(Group {
            hash: 0,
            start: total,
        });

        // Pass 2: scatter block offsets into their groups. Blocks are
        // visited in source order, so every group's run is too.
        index.offsets = vec![0; total as usize];
        let mut cursor: Vec<u32> = index.groups.iter().map(|g| g.start).collect();
        for (block, &group) in group_of_block.iter().enumerate() {
            if group != EMPTY {
                let at = &mut cursor[group as usize];
                index.offsets[*at as usize] = (block * BLOCK) as u32;
                *at += 1;
            }
        }
        index
    }

    #[inline]
    fn home_slot(&self, hash: u64) -> usize {
        (hash.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// The source offsets to try for a target block: the group of its
    /// FNV hash, unless the miss filter already rules every block out.
    #[inline]
    fn candidates(&self, block: &[u8; BLOCK]) -> &[u32] {
        let bit = content_key(block) >> self.filter_shift;
        if self.filter[(bit >> 6) as usize] & (1 << (bit & 63)) == 0 {
            return &[];
        }
        let hash = block_hash(block);
        let mut slot = self.home_slot(hash);
        loop {
            match self.slots[slot] {
                EMPTY => return &[],
                g => {
                    let g = g as usize;
                    if self.groups[g].hash == hash {
                        let run = self.groups[g].start as usize..self.groups[g + 1].start as usize;
                        return &self.offsets[run];
                    }
                    slot = (slot + 1) & (self.slots.len() - 1);
                }
            }
        }
    }

    /// The one scan loop: greedy left-to-right over `dst`, instructions
    /// into `sink`.
    fn scan(&self, dst: &[u8], sink: &mut impl Sink) {
        let src = self.src;
        let mut lit_start = 0usize;
        // A source without a whole block matches nothing; do not visit
        // every target position to find that out.
        let mut i = if self.offsets.is_empty() {
            dst.len()
        } else {
            0
        };
        while i + BLOCK <= dst.len() {
            let mut best: Option<(usize, usize, usize)> = None; // (src_off, dst_off, len)
            for &cand in self.candidates(block_at(dst, i)) {
                let cand = cand as usize;
                let len = common_prefix(&src[cand..], &dst[i..]);
                if len < BLOCK {
                    continue; // hash collision
                }
                // Extend backwards into the pending literals.
                let back = common_suffix(&src[..cand], &dst[lit_start..i]);
                let total = len + back;
                if best.is_none_or(|(_, _, l)| total > l) {
                    best = Some((cand - back, i - back, total));
                }
            }
            match best {
                Some((s_off, d_off, len)) => {
                    if lit_start < d_off {
                        sink.insert(&dst[lit_start..d_off]);
                    }
                    sink.copy(s_off as u64, len as u64);
                    i = d_off + len;
                    lit_start = i;
                }
                None => i += 1,
            }
        }
        if lit_start < dst.len() {
            sink.insert(&dst[lit_start..]);
        }
    }

    /// Computes a delta such that `apply(src, &ops) == dst`.
    pub fn diff(&self, dst: &[u8]) -> Vec<DeltaOp> {
        let mut ops = Vec::new();
        self.scan(dst, &mut ops);
        ops
    }

    /// `encode(&self.diff(dst))` without building the ops.
    pub fn diff_encoded(&self, dst: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.diff_encoded_into(dst, &mut out);
        out
    }

    /// [`diff_encoded`](Self::diff_encoded) into a buffer the caller
    /// reuses (cleared first): a reveal that only prices each delta
    /// allocates once per worker, not once per pair.
    pub fn diff_encoded_into(&self, dst: &[u8], out: &mut Vec<u8>) {
        out.clear();
        self.scan(dst, &mut Encoded(out));
    }

    /// `encode(&self.diff(dst)).len()` without copying a literal.
    pub fn diff_encoded_len(&self, dst: &[u8]) -> u64 {
        let mut len = EncodedLen(0);
        self.scan(dst, &mut len);
        len.0
    }
}

/// Computes a delta such that `apply(src, &ops) == dst`.
pub fn diff(src: &[u8], dst: &[u8]) -> Vec<DeltaOp> {
    SourceIndex::new(src).diff(dst)
}

/// Runs `f(index of contents[src], contents[dst])` for every `(src, dst)`
/// job and returns the results in job order. One `dsv_par` task per
/// distinct source: it builds that source's index, serves every job of
/// the source, and drops the index — at most one live index per worker.
/// For a pure `f` the output is identical at every thread count.
fn map_by_source<T: Send>(
    contents: &[Vec<u8>],
    jobs: &[(u32, u32)],
    f: impl Fn(&SourceIndex<'_>, &[u8]) -> T + Sync,
) -> Vec<T> {
    let mut by_source: Vec<usize> = (0..jobs.len()).collect();
    by_source.sort_by_key(|&job| jobs[job].0);
    let runs: Vec<&[usize]> = by_source
        .chunk_by(|&x, &y| jobs[x].0 == jobs[y].0)
        .collect();
    let results = dsv_par::par_map(&runs, |run| {
        let index = SourceIndex::new(&contents[jobs[run[0]].0 as usize]);
        run.iter()
            .map(|&job| f(&index, &contents[jobs[job].1 as usize]))
            .collect::<Vec<T>>()
    });
    // Results arrive in `by_source` order; put them back in job order.
    let mut tagged: Vec<(usize, T)> = by_source
        .iter()
        .copied()
        .zip(results.into_iter().flatten())
        .collect();
    tagged.sort_unstable_by_key(|&(job, _)| job);
    tagged.into_iter().map(|(_, result)| result).collect()
}

/// Runs `f` for both directions of every pair — for `(a, b)` the jobs
/// `a → b` and `b → a` — one index per version (see "Reveal by source" in
/// the [module docs](self)); results in pair order.
fn map_both_ways<T: Send>(
    contents: &[Vec<u8>],
    pairs: &[(u32, u32)],
    f: impl Fn(&SourceIndex<'_>, &[u8]) -> T + Sync,
) -> Vec<(T, T)> {
    let jobs: Vec<(u32, u32)> = pairs.iter().flat_map(|&(a, b)| [(a, b), (b, a)]).collect();
    let mut results = map_by_source(contents, &jobs, f).into_iter();
    std::iter::from_fn(|| Some((results.next()?, results.next()?))).collect()
}

/// Reveals both directions of every pair: for `(a, b)` the encoded sizes
/// of the deltas `a → b` and `b → a` over `contents`, in pair order —
/// exactly `encode(&diff(..)).len()` for each, computed length-only.
/// Bitwise identical at every thread count.
pub fn pair_sizes(contents: &[Vec<u8>], pairs: &[(u32, u32)]) -> Vec<(u64, u64)> {
    map_both_ways(contents, pairs, |index, dst| index.diff_encoded_len(dst))
}

/// Reveals both directions of every pair through `price`: for `(a, b)`
/// what `price` makes of the encoded deltas `a → b` and `b → a` — exactly
/// `encode(&diff(..))` for each — in pair order. For a caller whose cost
/// of a delta is not its length: a store that codes payloads prices a
/// delta by its bytes. For a pure `price`, identical at every thread
/// count.
pub fn pair_costs<T: Send>(
    contents: &[Vec<u8>],
    pairs: &[(u32, u32)],
    price: impl Fn(&[u8]) -> T + Sync,
) -> Vec<(T, T)> {
    // One buffer per worker thread, grown to the largest delta it meets.
    thread_local!(static DELTA: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) });
    map_both_ways(contents, pairs, |index, dst| {
        DELTA.with_borrow_mut(|delta| {
            index.diff_encoded_into(dst, delta);
            price(delta)
        })
    })
}

/// The encoded delta `contents[src] → contents[dst]` for every
/// `(src, dst)` job, in job order — exactly `encode(&diff(..))` for each,
/// sharing one index among all jobs of a source (a packer's parent and
/// its children). Bitwise identical at every thread count.
pub fn encode_pairs(contents: &[Vec<u8>], jobs: &[(u32, u32)]) -> Vec<Vec<u8>> {
    map_by_source(contents, jobs, |index, dst| index.diff_encoded(dst))
}

/// Applies delta `ops` to `src`, reconstructing the target.
pub fn apply(src: &[u8], ops: &[DeltaOp]) -> Result<Vec<u8>, DeltaError> {
    // Size the output once. Every copy is range-checked in this pass,
    // before anything is allocated, so a corrupt delta cannot ask for
    // more than its own literals plus `src.len()` per copy.
    let mut produced = 0usize;
    for op in ops {
        let bytes = match op {
            DeltaOp::Copy { offset, len } => {
                let end = offset.checked_add(*len);
                if end.is_none_or(|end| end > src.len() as u64) {
                    return Err(DeltaError::CopyOutOfRange);
                }
                *len as usize
            }
            DeltaOp::Insert { bytes } => bytes.len(),
        };
        produced = produced
            .checked_add(bytes)
            .ok_or(DeltaError::CopyOutOfRange)?;
    }
    let mut out = Vec::with_capacity(produced);
    for op in ops {
        match op {
            DeltaOp::Copy { offset, len } => {
                out.extend_from_slice(&src[*offset as usize..][..*len as usize]);
            }
            DeltaOp::Insert { bytes } => out.extend_from_slice(bytes),
        }
    }
    Ok(out)
}

/// Serializes ops: per op a tag varint (`len << 1` = copy, `(len << 1) | 1`
/// = insert) followed by the payload (copy offset / literal bytes).
pub fn encode(ops: &[DeltaOp]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut sink = Encoded(&mut out);
    for op in ops {
        match op {
            DeltaOp::Copy { offset, len } => sink.copy(*offset, *len),
            DeltaOp::Insert { bytes } => sink.insert(bytes),
        }
    }
    out
}

/// Parses a stream produced by [`encode`].
pub fn decode(input: &[u8]) -> Result<Vec<DeltaOp>, DeltaError> {
    tokens(input)
        .map(|token| {
            Ok(match token? {
                Token::Copy { offset, len } => DeltaOp::Copy { offset, len },
                Token::Insert(bytes) => DeltaOp::Insert {
                    bytes: bytes.to_vec(),
                },
            })
        })
        .collect()
}

/// One instruction of an encoded stream, borrowed from it.
enum Token<'a> {
    Copy { offset: u64, len: u64 },
    Insert(&'a [u8]),
}

/// The instructions of an encoded stream, front to back; ends after the
/// first malformed one. The one parser of the wire format ([`decode`] and
/// [`apply_encoded`] both read through it).
fn tokens(mut rest: &[u8]) -> impl Iterator<Item = Result<Token<'_>, DeltaError>> {
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let input = std::mem::take(&mut rest);
        let token = (|| {
            let (tag, used) = decode_u64(input)?;
            let input = &input[used..];
            if tag & 1 == 0 {
                let (offset, used) = decode_u64(input)?;
                rest = &input[used..];
                Some(Token::Copy {
                    offset,
                    len: tag >> 1,
                })
            } else {
                let len = usize::try_from(tag >> 1).ok()?;
                let (bytes, after) = input.split_at_checked(len)?;
                rest = after;
                Some(Token::Insert(bytes))
            }
        })();
        Some(token.ok_or(DeltaError::Malformed))
    })
}

/// `apply(src, &decode(delta)?)` straight from the encoded bytes: no
/// `Vec<DeltaOp>`, no heap block per insert. The stream is read twice —
/// once to validate it and size the output, once to copy — so the errors
/// are the ones the two-step spelling gives: [`DeltaError::Malformed`]
/// for a stream [`decode`] rejects (wherever the damage is), otherwise
/// [`DeltaError::CopyOutOfRange`] for a copy outside `src`.
pub fn apply_encoded(src: &[u8], delta: &[u8]) -> Result<Vec<u8>, DeltaError> {
    let mut produced = Some(0usize);
    for token in tokens(delta) {
        let bytes = match token? {
            Token::Copy { offset, len } => offset
                .checked_add(len)
                .filter(|&end| end <= src.len() as u64)
                .map(|_| len as usize),
            Token::Insert(bytes) => Some(bytes.len()),
        };
        produced = produced
            .zip(bytes)
            .and_then(|(total, bytes)| total.checked_add(bytes));
    }
    let mut out = Vec::with_capacity(produced.ok_or(DeltaError::CopyOutOfRange)?);
    for token in tokens(delta) {
        match token? {
            Token::Copy { offset, len } => {
                out.extend_from_slice(&src[offset as usize..][..len as usize]);
            }
            Token::Insert(bytes) => out.extend_from_slice(bytes),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &[u8], dst: &[u8]) -> usize {
        let ops = diff(src, dst);
        assert_eq!(apply(src, &ops).unwrap(), dst, "apply must reconstruct");
        let enc = encode(&ops);
        let dec = decode(&enc).unwrap();
        assert_eq!(dec, ops, "encode/decode must roundtrip");
        enc.len()
    }

    #[test]
    fn identical_content_is_one_copy() {
        let data = b"0123456789abcdef0123456789abcdef".repeat(4);
        let size = roundtrip(&data, &data);
        assert!(size < 8, "identical content should be a single copy op");
    }

    #[test]
    fn small_edit_yields_small_delta() {
        let src: Vec<u8> = (0..2000u32)
            .flat_map(|i| format!("row-{i}\n").into_bytes())
            .collect();
        let mut dst = src.clone();
        // Change a few bytes in the middle.
        let pos = dst.len() / 2;
        dst[pos] = b'X';
        dst[pos + 1] = b'Y';
        let size = roundtrip(&src, &dst);
        assert!(size < 200, "delta size {size} too large for a 2-byte edit");
    }

    #[test]
    fn empty_cases() {
        assert_eq!(roundtrip(b"", b""), 0);
        roundtrip(b"", b"new content entirely");
        assert_eq!(roundtrip(b"old content", b""), 0);
    }

    #[test]
    fn unrelated_content_degenerates_to_insert() {
        let src = vec![b'a'; 500];
        let dst = vec![b'b'; 500];
        let ops = diff(&src, &dst);
        assert_eq!(apply(&src, &ops).unwrap(), dst);
    }

    #[test]
    fn appended_content() {
        let src = b"shared prefix that is long enough to match blocks".repeat(3);
        let mut dst = src.clone();
        dst.extend_from_slice(b"!! new tail data");
        let size = roundtrip(&src, &dst);
        assert!(size < 64);
    }

    #[test]
    fn prepended_content() {
        let src = b"shared suffix that is long enough to match blocks".repeat(3);
        let mut dst = b"!! new head ".to_vec();
        dst.extend_from_slice(&src);
        let size = roundtrip(&src, &dst);
        assert!(size < 64);
    }

    #[test]
    fn apply_rejects_bad_copy() {
        let ops = vec![DeltaOp::Copy {
            offset: 5,
            len: 100,
        }];
        assert_eq!(apply(b"short", &ops), Err(DeltaError::CopyOutOfRange));
        let ops = vec![DeltaOp::Copy {
            offset: u64::MAX,
            len: 2,
        }];
        assert_eq!(apply(b"short", &ops), Err(DeltaError::CopyOutOfRange));
    }

    #[test]
    fn apply_encoded_keeps_both_error_kinds() {
        let bad_copy = encode(&[DeltaOp::Copy {
            offset: 5,
            len: 100,
        }]);
        assert_eq!(
            apply_encoded(b"short", &bad_copy),
            Err(DeltaError::CopyOutOfRange)
        );
        // Damage behind the bad copy: `decode` fails first, so the whole
        // stream is malformed, not out of range.
        let mut both = bad_copy;
        both.push(0x80);
        assert_eq!(decode(&both), Err(DeltaError::Malformed));
        assert_eq!(apply_encoded(b"short", &both), Err(DeltaError::Malformed));
    }

    #[test]
    fn decode_rejects_truncated_literal() {
        let ops = vec![DeltaOp::Insert {
            bytes: b"0123456789".to_vec(),
        }];
        let enc = encode(&ops);
        assert_eq!(decode(&enc[..enc.len() - 2]), Err(DeltaError::Malformed));
    }

    #[test]
    fn block_aligned_and_unaligned_moves() {
        // Content shifted by a non-block amount must still be found.
        let body = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789".repeat(8);
        let mut dst = b"xyz".to_vec();
        dst.extend_from_slice(&body);
        let size = roundtrip(&body, &dst);
        assert!(size < 80, "shifted content should mostly copy, got {size}");
    }
}
