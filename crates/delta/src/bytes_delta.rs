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
//!   may try, grouped by block content; within a group in source order,
//!   at most `BUCKET_CAP` of them (the first ones).
//! - `groups` — one `(block, start)` per distinct 16-byte block, the
//!   block as a `u128`, plus a sentinel, so group `g` owns
//!   `offsets[groups[g].start..groups[g+1].start]`.
//! - `slots` — a power-of-two open-addressed table (linear probing, load
//!   ≤ ½) from block to group number, placed by a cheap hash of the
//!   block (`content_key`: two word loads, two multiplies).
//! - `filter` — a bitset over a cheaper hash of the block (`filter_key`:
//!   the two words folded, one multiply). A target position whose bit is
//!   clear equals no indexed block, so the scan moves on without probing;
//!   a set bit only means "look". It can drop lookups that would have
//!   found nothing, never a candidate, so any function of the block may
//!   key it.
//!
//! **The scan.** Most target positions the scan visits sit inside an
//! edit, where nothing matches. An inner skip loop walks those: per
//! position it computes `filter_key` and tests one bit, nothing else.
//! Only on a set bit does the scan compute `content_key`, probe the table
//! and try the group. A group's blocks equal the target block, so forward
//! extension starts 16 bytes in.
//!
//! **Candidate-order invariant.** For a target block the scan tries
//! exactly the first ≤ `BUCKET_CAP` (8) source blocks equal to the target
//! block, in source order; the longest total match (forward plus backward
//! extension) wins and the first wins ties. That rule mentions neither
//! slot positions, probe sequences, hash functions, the filter, the skip
//! loop nor table size, so the emitted ops do not depend on the table
//! layout — a differently sized or differently hashed table or filter
//! produces the same bytes. Every cost matrix, plan and object id in a
//! repository is made of deltas emitted under this rule, so changing it
//! changes all of them (`tests/golden.rs` pins the encodings).
//!
//! **Sinks.** One scan loop drives one of three sinks: a `Vec<DeltaOp>`,
//! the encoded bytes, or only the encoded length (what a cost matrix
//! needs — no literal is copied anywhere). [`encode`] feeds ops through
//! the same byte sink, so the wire format is written down once.
//!
//! **Reveal by source.** [`pair_sizes`], [`pair_costs_from`] and
//! [`encode_pairs_from`] group their jobs by source version and run one
//! `dsv_par` task per *source*: the task builds that source's index, scans
//! every target it is paired with, and drops the index before taking the
//! next source. At most one index per worker is alive (an index is about
//! three times its source's size), so peak memory does not grow with the
//! number of versions or pairs, while each version is still indexed once
//! instead of once per pair. The versions come from a [`Versions`]
//! source: a slice of them ([`pair_costs`] and [`encode_pairs`] take one),
//! or a history that derives each when a run asks for it, so that a
//! reveal need not hold every version at once.

use dsv_compress::lz::common_prefix;
use dsv_compress::varint::{decode_u64, encode_u64, encoded_len};
use std::cell::RefCell;

/// Block size for the source index. Matches of at least this length can be
/// found; shorter repeats are emitted as literals.
const BLOCK: usize = 16;

/// Most source offsets kept (and tried) per distinct block: the first
/// ones in source order. Bounds the scan on highly repetitive sources.
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
fn block_at(bytes: &[u8], at: usize) -> &[u8; BLOCK] {
    bytes[at..at + BLOCK]
        .try_into()
        .expect("slice is BLOCK bytes long")
}

/// The block's two little-endian words.
#[inline]
fn words(block: &[u8; BLOCK]) -> (u64, u64) {
    let lo = u64::from_le_bytes(block[..8].try_into().expect("8 bytes"));
    let hi = u64::from_le_bytes(block[8..].try_into().expect("8 bytes"));
    (lo, hi)
}

/// A cheap hash of a block (two word loads, two multiplies): its
/// Fibonacci product picks the block's home slot in the index's table.
#[inline]
fn content_key(block: &[u8; BLOCK]) -> u64 {
    let (lo, hi) = words(block);
    (lo.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ hi).wrapping_mul(0xff51_afd7_ed55_8ccd)
}

/// A cheaper hash of a block (one multiply), whose top bits pick the
/// block's bit in the miss filter: the filter only drops lookups that
/// would find nothing, so any function of the block serves.
#[inline]
fn filter_key(block: &[u8; BLOCK]) -> u64 {
    let (lo, hi) = words(block);
    (lo ^ hi.rotate_left(32)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
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

/// One distinct block of the source and where its offsets start in the
/// CSR payload (the next group's `start` is where they end).
#[derive(Clone, Copy)]
struct Group {
    block: u128,
    start: u32,
}

/// The block index of one source, reusable across any number of targets
/// (see the [module docs](self) for layout and the candidate-order
/// invariant). Sources are addressed with `u32` block offsets, as the
/// kernel always has: a source must be shorter than 4 GiB.
pub struct SourceIndex<'a> {
    src: &'a [u8],
    /// Block → group number, open addressing; `EMPTY` terminates a probe.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: a block's home slot is the top bits of
    /// the Fibonacci product of its [`content_key`].
    shift: u32,
    /// Distinct blocks in order of first occurrence, plus a sentinel.
    groups: Vec<Group>,
    /// First ≤ `BUCKET_CAP` block offsets per group, in source order.
    offsets: Vec<u32>,
    /// Miss filter: one bit per [`filter_key`] of an indexed block, ≥ 16
    /// bits per block. A clear bit proves no indexed block has the probed
    /// content, so the scan may skip the table probe — most target
    /// positions inside an edit end here. A set bit decides nothing.
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

        // Pass 1: assign every block to its group (creating groups in
        // order of first occurrence) and count group sizes, capped.
        // `groups[g].start` holds the count until the prefix sum below.
        let mut group_of_block: Vec<u32> = Vec::with_capacity(nblocks);
        for block in src.chunks_exact(BLOCK) {
            let bytes: &[u8; BLOCK] = block.try_into().expect("exact chunk");
            let key = content_key(bytes);
            let block = u128::from_le_bytes(*bytes);
            let group = match index.probe(key, block) {
                (_, Some(g)) => g,
                (slot, None) => {
                    let g = index.groups.len() as u32;
                    index.slots[slot] = g;
                    index.groups.push(Group { block, start: 0 });
                    g
                }
            };
            let count = &mut index.groups[group as usize].start;
            if *count < BUCKET_CAP {
                *count += 1;
                group_of_block.push(group);
                let bit = filter_key(bytes) >> index.filter_shift;
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
            block: 0,
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

    /// Linear probe from `key`'s home slot: the slot holding `block`'s
    /// group and its number, or the empty slot that ends the probe.
    #[inline]
    fn probe(&self, key: u64, block: u128) -> (usize, Option<u32>) {
        let mut slot = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize;
        loop {
            match self.slots[slot] {
                EMPTY => return (slot, None),
                g if self.groups[g as usize].block == block => return (slot, Some(g)),
                _ => slot = (slot + 1) & (self.slots.len() - 1),
            }
        }
    }

    /// Whether `block` may equal an indexed block: its [`filter_key`]'s
    /// bit in the miss filter. A clear bit proves it equals none.
    #[inline]
    fn may_hold(&self, block: &[u8; BLOCK]) -> bool {
        let bit = filter_key(block) >> self.filter_shift;
        self.filter[(bit >> 6) as usize] & (1 << (bit & 63)) != 0
    }

    /// The source offsets to try for a target block: the first ≤
    /// `BUCKET_CAP` source blocks equal to it, in source order.
    #[inline]
    fn candidates(&self, block: &[u8; BLOCK]) -> &[u32] {
        let (_, Some(g)) = self.probe(content_key(block), u128::from_le_bytes(*block)) else {
            return &[];
        };
        let g = g as usize;
        &self.offsets[self.groups[g].start as usize..self.groups[g + 1].start as usize]
    }

    /// The one scan loop: greedy left-to-right over `dst`, instructions
    /// into `sink`.
    fn scan(&self, dst: &[u8], sink: &mut impl Sink) {
        let src = self.src;
        let mut lit_start = 0usize;
        // The positions a target block can start at. A source without a
        // whole block matches nothing; do not visit every target position
        // to find that out.
        let starts = if self.offsets.is_empty() {
            0
        } else {
            (dst.len() + 1).saturating_sub(BLOCK)
        };
        let mut i = 0usize;
        loop {
            // The skip loop: per position only the miss filter; the full
            // key and the table probe run on a set bit.
            while i < starts && !self.may_hold(block_at(dst, i)) {
                i += 1;
            }
            if i >= starts {
                break;
            }
            let mut best: Option<(usize, usize, usize)> = None; // (src_off, dst_off, len)
            for &cand in self.candidates(block_at(dst, i)) {
                let cand = cand as usize;
                // A candidate equals the target block: extend forward
                // from the end of it.
                let len = BLOCK + common_prefix(&src[cand + BLOCK..], &dst[i + BLOCK..]);
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

/// Versions by number, as a reveal or a packer reads them: held in
/// memory (`[Vec<u8>]`), or derived on demand from a stored history
/// (`dsv_storage::VersionWalk` holds deltas and replays them). A source is read
/// in *runs*: one source version, then the targets paired with it.
pub trait Versions: Sync {
    /// What one worker reads through; it may keep what one run derived
    /// for the next.
    type Reader<'a>: Reader
    where
        Self: 'a;

    /// A reader for one worker.
    fn reader(&self) -> Self::Reader<'_>;

    /// Where runs with source `v` are best read among the others (their
    /// sources' order): plan-tree order for a derived history, so that
    /// one run starts near where the last one ended.
    fn rank(&self, v: u32) -> usize {
        v as usize
    }
}

/// One worker's reads from a [`Versions`] source.
pub trait Reader {
    /// A run's source version, held by the caller while the run lasts.
    type Source: std::ops::Deref<Target = [u8]> + Into<Vec<u8>>;

    /// Starts a run: the bytes of version `v`.
    fn source(&mut self, v: u32) -> Self::Source;

    /// Ends the run that `source` started: `visit(i, bytes of
    /// targets[i])` once for every target, in an order of the reader's
    /// choosing (a reader may derive a target from the source).
    fn targets(&mut self, source: &Self::Source, targets: &[u32], visit: impl FnMut(usize, &[u8]));
}

impl Versions for [Vec<u8>] {
    type Reader<'a> = &'a [Vec<u8>];

    fn reader(&self) -> &[Vec<u8>] {
        self
    }
}

impl<'a> Reader for &'a [Vec<u8>] {
    type Source = &'a [u8];

    fn source(&mut self, v: u32) -> &'a [u8] {
        &self[v as usize]
    }

    fn targets(&mut self, _: &&'a [u8], targets: &[u32], mut visit: impl FnMut(usize, &[u8])) {
        for (i, &t) in targets.iter().enumerate() {
            visit(i, &self[t as usize]);
        }
    }
}

/// Runs `f(index of src, dst)` for every `(src, dst)` job over `versions`
/// and returns the results in job order. One `dsv_par` task per distinct
/// source, in the source's [rank](Versions::rank) order: it builds that
/// source's index, serves every job of the source, and drops the index —
/// at most one live index per worker. For a pure `f` the output is
/// identical at every thread count.
fn map_by_source<V: Versions + ?Sized, T: Send>(
    versions: &V,
    jobs: &[(u32, u32)],
    f: impl Fn(&SourceIndex<'_>, &[u8]) -> T + Sync,
) -> Vec<T> {
    let mut by_source: Vec<usize> = (0..jobs.len()).collect();
    by_source.sort_by_key(|&job| (versions.rank(jobs[job].0), jobs[job].0));
    let runs: Vec<&[usize]> = by_source
        .chunk_by(|&x, &y| jobs[x].0 == jobs[y].0)
        .collect();
    let results = dsv_par::par_map_init(
        &runs,
        || versions.reader(),
        |reader, run| {
            let source = reader.source(jobs[run[0]].0);
            let index = SourceIndex::new(&source);
            let targets: Vec<u32> = run.iter().map(|&job| jobs[job].1).collect();
            let mut out: Vec<Option<T>> = run.iter().map(|_| None).collect();
            reader.targets(&source, &targets, |i, dst| out[i] = Some(f(&index, dst)));
            out.into_iter()
                .map(|result| result.expect("a reader visits every target"))
                .collect::<Vec<T>>()
        },
    );
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
fn map_both_ways<V: Versions + ?Sized, T: Send>(
    versions: &V,
    pairs: &[(u32, u32)],
    f: impl Fn(&SourceIndex<'_>, &[u8]) -> T + Sync,
) -> Vec<(T, T)> {
    let jobs: Vec<(u32, u32)> = pairs.iter().flat_map(|&(a, b)| [(a, b), (b, a)]).collect();
    let mut results = map_by_source(versions, &jobs, f).into_iter();
    std::iter::from_fn(|| Some((results.next()?, results.next()?))).collect()
}

/// Reveals both directions of every pair: for `(a, b)` the encoded sizes
/// of the deltas `a → b` and `b → a` over `contents`, in pair order —
/// exactly `encode(&diff(..)).len()` for each, computed length-only.
/// Bitwise identical at every thread count.
pub fn pair_sizes(contents: &[Vec<u8>], pairs: &[(u32, u32)]) -> Vec<(u64, u64)> {
    map_both_ways(contents, pairs, |index, dst| index.diff_encoded_len(dst))
}

/// [`pair_costs_from`] over versions held in memory.
pub fn pair_costs<T: Send>(
    contents: &[Vec<u8>],
    pairs: &[(u32, u32)],
    price: impl Fn(&[u8]) -> T + Sync,
) -> Vec<(T, T)> {
    pair_costs_from(contents, pairs, price)
}

/// Reveals both directions of every pair through `price`: for `(a, b)`
/// what `price` makes of the encoded deltas `a → b` and `b → a` — exactly
/// `encode(&diff(..))` for each — in pair order. For a caller whose cost
/// of a delta is not its length: a store that codes payloads prices a
/// delta by its bytes. For a pure `price`, identical at every thread
/// count and from every source of the same versions.
pub fn pair_costs_from<V: Versions + ?Sized, T: Send>(
    versions: &V,
    pairs: &[(u32, u32)],
    price: impl Fn(&[u8]) -> T + Sync,
) -> Vec<(T, T)> {
    // One buffer per worker thread, grown to the largest delta it meets.
    thread_local!(static DELTA: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) });
    map_both_ways(versions, pairs, |index, dst| {
        DELTA.with_borrow_mut(|delta| {
            index.diff_encoded_into(dst, delta);
            price(delta)
        })
    })
}

/// [`encode_pairs_from`] over versions held in memory.
pub fn encode_pairs(contents: &[Vec<u8>], jobs: &[(u32, u32)]) -> Vec<Vec<u8>> {
    encode_pairs_from(contents, jobs)
}

/// The encoded delta `src → dst` for every `(src, dst)` job, in job order
/// — exactly `encode(&diff(..))` for each, sharing one index among all
/// jobs of a source (a packer's parent and its children). Bitwise
/// identical at every thread count and from every source of the same
/// versions.
pub fn encode_pairs_from<V: Versions + ?Sized>(versions: &V, jobs: &[(u32, u32)]) -> Vec<Vec<u8>> {
    map_by_source(versions, jobs, |index, dst| index.diff_encoded(dst))
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
    let mut out = Vec::new();
    apply_encoded_into(src, delta, &mut out)?;
    Ok(out)
}

/// [`apply_encoded`] into `out`, whose earlier contents are replaced and
/// whose buffer is reused when it is large enough: a caller deriving
/// many versions one after another writes each into the memory the last
/// one it let go of. On an error `out` is left empty.
pub fn apply_encoded_into(src: &[u8], delta: &[u8], out: &mut Vec<u8>) -> Result<(), DeltaError> {
    out.clear();
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
    out.reserve_exact(produced.ok_or(DeltaError::CopyOutOfRange)?);
    for token in tokens(delta) {
        match token? {
            Token::Copy { offset, len } => {
                out.extend_from_slice(&src[offset as usize..][..len as usize]);
            }
            Token::Insert(bytes) => out.extend_from_slice(bytes),
        }
    }
    Ok(())
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

    /// The index keyed as it used to be — groups by the blocks' 64-bit
    /// FNV-1a hash, each candidate verified by its match length — with the
    /// same scan. It picks the same candidates as [`SourceIndex`] unless
    /// two distinct blocks collide in FNV-1a, so the ops must agree.
    fn fnv_keyed_diff(src: &[u8], dst: &[u8]) -> Vec<DeltaOp> {
        let fnv = |block: &[u8]| {
            block.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
            })
        };
        let mut groups: std::collections::HashMap<u64, Vec<usize>> = Default::default();
        for (k, block) in src.chunks_exact(BLOCK).enumerate() {
            let group = groups.entry(fnv(block)).or_default();
            if group.len() < BUCKET_CAP as usize {
                group.push(k * BLOCK);
            }
        }
        let mut ops = Vec::new();
        let (mut lit_start, mut i) = (0, 0);
        while i + BLOCK <= dst.len() {
            let mut best: Option<(usize, usize, usize)> = None;
            for &cand in groups.get(&fnv(&dst[i..i + BLOCK])).into_iter().flatten() {
                let len = common_prefix(&src[cand..], &dst[i..]);
                if len < BLOCK {
                    continue;
                }
                let back = common_suffix(&src[..cand], &dst[lit_start..i]);
                if best.is_none_or(|(_, _, l)| len + back > l) {
                    best = Some((cand - back, i - back, len + back));
                }
            }
            match best {
                Some((s_off, d_off, len)) => {
                    if lit_start < d_off {
                        let bytes = dst[lit_start..d_off].to_vec();
                        ops.push(DeltaOp::Insert { bytes });
                    }
                    ops.push(DeltaOp::Copy {
                        offset: s_off as u64,
                        len: len as u64,
                    });
                    i = d_off + len;
                    lit_start = i;
                }
                None => i += 1,
            }
        }
        if lit_start < dst.len() {
            let bytes = dst[lit_start..].to_vec();
            ops.push(DeltaOp::Insert { bytes });
        }
        ops
    }

    /// `src` cut and pasted: `(from, len)` slices of it, each followed by
    /// a literal, so matches land at every alignment.
    fn spliced(src: &[u8], cuts: &[(u16, u16, Vec<u8>)]) -> Vec<u8> {
        let mut dst = Vec::new();
        for (from, len, literal) in cuts {
            let from = usize::from(*from) % (src.len() + 1);
            let to = (from + usize::from(*len)).min(src.len());
            dst.extend_from_slice(&src[from..to]);
            dst.extend_from_slice(literal);
        }
        dst
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        #[test]
        fn content_keyed_index_matches_the_fnv_keyed_one(
            src in proptest::collection::vec(0u8..4, 0..3000),
            cuts in proptest::collection::vec(
                (0u16..4000, 0u16..600, proptest::collection::vec(0u8..4, 0..24)),
                0..12,
            ),
        ) {
            let dst = spliced(&src, &cuts);
            let ops = diff(&src, &dst);
            proptest::prop_assert_eq!(&ops, &fnv_keyed_diff(&src, &dst));
            proptest::prop_assert_eq!(apply(&src, &ops).unwrap(), dst);
        }

        #[test]
        fn content_keyed_index_matches_the_fnv_keyed_one_past_the_bucket_cap(
            tails in proptest::collection::vec(proptest::collection::vec(0u8..2, 0..40), 6..40),
            cuts in proptest::collection::vec(
                (0u16..4000, 0u16..600, proptest::collection::vec(0u8..2, 0..8)),
                1..8,
            ),
        ) {
            // Every segment opens with the same aligned block, so that
            // block (and the padding one) repeats past `BUCKET_CAP`, and
            // which occurrence matches longest depends on the tail after
            // it: a candidate beyond the cap, or out of order, shows.
            let mut src = Vec::new();
            for tail in &tails {
                src.extend_from_slice(b"0123456789abcdef");
                src.extend_from_slice(tail);
                src.resize(src.len().next_multiple_of(BLOCK), b'.');
            }
            let dst = spliced(&src, &cuts);
            let ops = diff(&src, &dst);
            proptest::prop_assert_eq!(&ops, &fnv_keyed_diff(&src, &dst));
            proptest::prop_assert_eq!(apply(&src, &ops).unwrap(), dst);
        }
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
