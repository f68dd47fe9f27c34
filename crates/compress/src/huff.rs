//! Order-0 canonical Huffman coding: the object store's payload codec.
//!
//! Version payloads here are tables of short hex cells and deltas between
//! them: nothing for a match finder to find, but a skewed byte histogram.
//! A prefix code over single bytes is what that shape needs, and its output
//! size is a function of byte counts alone — [`coded_len`] prices a payload
//! without writing it, which is what lets the planner's storage cost be the
//! byte count the store will hold.
//!
//! ## Format
//!
//! ```text
//! varint n                 decoded length; a stream of n = 0 ends here
//! u32-le groups            bit g: some byte value in 8g .. 8g+8 is coded
//! u8 mask                  per set group, ascending: bit b = value 8g+b is coded
//! nibble len               per coded value, ascending: code length 1..=12,
//!                          low nibble first, a zero nibble pads to a byte
//! varint bytes0..bytes2    only if n >= 256: byte lengths of streams 0, 1, 2
//! stream*                  one (n < 256) or four bit streams
//! ```
//!
//! Codes are canonical (shorter first, then by byte value) and written most
//! significant bit first; a stream is zero-padded to a whole byte. With
//! four streams, stream `k` codes the `k`-th run of `ceil(n / 4)` input
//! bytes and the fourth runs to the end of the data: they decode
//! independently, which is what lets one core keep four table lookups in
//! flight instead of waiting on one chain of them. A lone coded value gets
//! the one-bit code `0`, so every coded byte costs at least a bit and a
//! declared length is bounded by the bits that follow it.
//!
//! The encoder is deterministic: the same bytes give the same stream on
//! every machine and at every thread count, because ties in the code
//! construction are broken by byte value and nothing else.

use crate::varint::{decode_u64, encode_u64, encoded_len};

/// Longest code in bits. The decoder looks codes up in `2^width` two-byte
/// entries, `width` the longest code a stream uses: at most 8 KiB.
pub const MAX_CODE_LEN: u32 = 12;

const TABLE_SIZE: usize = 1 << MAX_CODE_LEN;

/// Inputs at least this long are coded as four streams.
const SPLIT_MIN: usize = 256;

const STREAMS: usize = 4;

/// Why a stream could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HuffError {
    /// The stream ends inside its header.
    Truncated,
    /// The code lengths are not a complete prefix code of 1..=12-bit codes
    /// in canonical layout (over- or under-subscribed, a zero or oversized
    /// length, an empty group, a non-zero pad nibble).
    BadCode,
    /// The declared lengths and the bits disagree: a length no stream this
    /// short could hold, a stream that ends before or after its last code,
    /// non-zero padding, trailing bytes.
    LengthMismatch,
}

impl std::fmt::Display for HuffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HuffError::Truncated => write!(f, "huffman stream truncated"),
            HuffError::BadCode => write!(f, "huffman code lengths are not a complete code"),
            HuffError::LengthMismatch => write!(f, "huffman stream lengths and bits disagree"),
        }
    }
}

impl std::error::Error for HuffError {}

/// The runs of `bytes` the streams code: all of it in the first when it
/// is short, else three runs of `ceil(n / 4)` and the rest.
fn segments(bytes: &[u8]) -> [&[u8]; STREAMS] {
    if bytes.len() < SPLIT_MIN {
        return [bytes, &[], &[], &[]];
    }
    let run = bytes.len().div_ceil(STREAMS);
    let (a, rest) = bytes.split_at(run);
    let (b, rest) = rest.split_at(run);
    let (c, d) = rest.split_at(run);
    [a, b, c, d]
}

/// Byte counts per segment. One table per segment is both what the stream
/// lengths need and what keeps the counting loop from waiting on its own
/// stores when neighbouring bytes are equal.
fn histograms(segments: &[&[u8]; STREAMS]) -> [[u64; 256]; STREAMS] {
    let mut counts = [[0u64; 256]; STREAMS];
    let [a, b, c, d] = segments;
    let [ca, cb, cc, cd] = &mut counts;
    // The last segment is the shortest; the others' few extra bytes follow.
    for (((&x, &y), &z), &w) in a.iter().zip(*b).zip(*c).zip(*d) {
        ca[usize::from(x)] += 1;
        cb[usize::from(y)] += 1;
        cc[usize::from(z)] += 1;
        cd[usize::from(w)] += 1;
    }
    for (segment, counts) in [(a, ca), (b, cb), (c, cc)] {
        for &x in &segment[d.len()..] {
            counts[usize::from(x)] += 1;
        }
    }
    counts
}

/// Code lengths (0 = value absent) of a length-limited Huffman code for
/// `counts`: optimal lengths by the two-queue construction over the
/// values sorted by (count, value), then — only if some code is longer
/// than [`MAX_CODE_LEN`] — the classic repair: clamp, and while the code
/// is over-subscribed trade one longest code and one shorter code for two
/// codes one bit longer than the shorter. Lengths go to values by rank,
/// rarest longest.
fn code_lengths(counts: &[u64; 256]) -> [u8; 256] {
    let mut lens = [0u8; 256];
    // `count << 8 | value`: one integer sort orders by (count, value). A
    // count is a number of bytes in memory, far below 2^56.
    let mut leaves = [0u64; 256];
    let mut m = 0usize;
    for (value, &count) in counts.iter().enumerate() {
        if count > 0 {
            leaves[m] = count << 8 | value as u64;
            m += 1;
        }
    }
    let leaves = &mut leaves[..m];
    leaves.sort_unstable();
    match m {
        0 => return lens,
        1 => {
            lens[(leaves[0] & 0xff) as usize] = 1;
            return lens;
        }
        _ => {}
    }

    // Nodes 0..m are the leaves, m.. the internal nodes in creation order
    // (their weights are non-decreasing, so "the lightest unused internal
    // node" is a cursor). A leaf wins a tie.
    let mut weight = [0u64; 511];
    for (w, &leaf) in weight.iter_mut().zip(leaves.iter()) {
        *w = leaf >> 8;
    }
    let mut parent = [0u16; 511];
    let (mut leaf, mut internal) = (0usize, m);
    for node in m..2 * m - 1 {
        for _ in 0..2 {
            let lightest = if leaf < m && (internal == node || weight[leaf] <= weight[internal]) {
                leaf += 1;
                leaf - 1
            } else {
                internal += 1;
                internal - 1
            };
            parent[lightest] = node as u16;
            weight[node] += weight[lightest];
        }
    }
    let mut depth = [0u8; 511];
    let limit = MAX_CODE_LEN as usize;
    let mut of_len = [0u32; MAX_CODE_LEN as usize + 1];
    for node in (0..2 * m - 2).rev() {
        // 256 leaves are at most 255 deep.
        depth[node] = depth[usize::from(parent[node])] + 1;
        if node < m {
            of_len[usize::from(depth[node]).min(limit)] += 1;
        }
    }
    let mut kraft: u32 = (1..=limit).map(|l| of_len[l] << (limit - l)).sum();
    while kraft > 1 << limit {
        of_len[limit] -= 1;
        let shorter = (1..limit)
            .rev()
            .find(|&l| of_len[l] > 0)
            .expect("an over-subscribed code has a code shorter than the limit");
        of_len[shorter] -= 1;
        of_len[shorter + 1] += 2;
        kraft -= 1;
    }

    let mut ranked = leaves.iter().rev();
    for (len, &n) in of_len.iter().enumerate() {
        for &leaf in ranked.by_ref().take(n as usize) {
            lens[(leaf & 0xff) as usize] = len as u8;
        }
    }
    lens
}

/// A prefix code: its coded values in ascending order, each with its
/// code length.
struct Code {
    values: [u8; 256],
    lens: [u8; 256],
    coded: usize,
}

impl Code {
    const EMPTY: Code = Code {
        values: [0; 256],
        lens: [0; 256],
        coded: 0,
    };

    fn from_lengths(by_value: &[u8; 256]) -> Code {
        let mut code = Code::EMPTY;
        for (value, &len) in by_value.iter().enumerate() {
            if len > 0 {
                code.push(value as u8, len);
            }
        }
        code
    }

    fn push(&mut self, value: u8, len: u8) {
        self.values[self.coded] = value;
        self.lens[self.coded] = len;
        self.coded += 1;
    }

    /// `(value, length)` ascending by value.
    fn entries(&self) -> impl Iterator<Item = (u8, u8)> + '_ {
        let coded = self.coded;
        self.values[..coded]
            .iter()
            .copied()
            .zip(self.lens[..coded].iter().copied())
    }

    /// Calls `f(value, length, first)` for every coded value, ascending,
    /// with `first` the start of the value's run of `TABLE_SIZE >> length`
    /// decode-table slots: its canonical code — codes are consecutive by
    /// length, then value — left-aligned in [`MAX_CODE_LEN`] bits.
    fn for_each_code(&self, mut f: impl FnMut(u8, u8, usize)) {
        // Where each length's codes start: after every shorter code.
        let mut next = [0usize; MAX_CODE_LEN as usize + 2];
        for (_, len) in self.entries() {
            next[usize::from(len) + 1] += TABLE_SIZE >> len;
        }
        for len in 1..=MAX_CODE_LEN as usize {
            next[len + 1] += next[len];
        }
        for (value, len) in self.entries() {
            let first = &mut next[usize::from(len)];
            f(value, len, *first);
            *first += TABLE_SIZE >> len;
        }
    }

    /// Bytes [`write`](Self::write) takes.
    fn table_len(&self) -> usize {
        let mut groups = 0u32;
        for &value in &self.values[..self.coded] {
            groups |= 1 << (value / 8);
        }
        4 + groups.count_ones() as usize + self.coded.div_ceil(2)
    }

    fn write(&self, out: &mut Vec<u8>) {
        let mut masks = [0u8; 32];
        for &value in &self.values[..self.coded] {
            masks[usize::from(value / 8)] |= 1 << (value % 8);
        }
        let groups = (0..32)
            .filter(|&g| masks[g] != 0)
            .fold(0u32, |groups, g| groups | 1 << g);
        out.extend_from_slice(&groups.to_le_bytes());
        out.extend(masks.iter().filter(|&&mask| mask != 0));
        for pair in self.lens[..self.coded].chunks(2) {
            out.push(pair[0] | pair.get(1).map_or(0, |high| high << 4));
        }
    }

    /// Parses and validates a table from the front of `input`; returns
    /// the code and the bytes it took.
    fn read(input: &[u8]) -> Result<(Code, usize), HuffError> {
        let mut groups = u32::from_le_bytes(*input.first_chunk().ok_or(HuffError::Truncated)?);
        let mut pos = 4usize;
        let masks = input
            .get(pos..pos + groups.count_ones() as usize)
            .ok_or(HuffError::Truncated)?;
        pos += masks.len();
        let coded: usize = masks.iter().map(|m| m.count_ones() as usize).sum();
        let nibbles = input
            .get(pos..pos + coded.div_ceil(2))
            .ok_or(HuffError::Truncated)?;
        pos += nibbles.len();
        if coded == 0 || masks.contains(&0) {
            return Err(HuffError::BadCode);
        }

        let mut code = Code::EMPTY;
        let mut kraft = 0u32;
        for &mask in masks {
            let group = groups.trailing_zeros() as u8;
            groups &= groups - 1;
            let mut mask = mask;
            while mask != 0 {
                let value = 8 * group + mask.trailing_zeros() as u8;
                mask &= mask - 1;
                let len = (nibbles[code.coded / 2] >> (4 * (code.coded % 2))) & 0xf;
                if len == 0 || u32::from(len) > MAX_CODE_LEN {
                    return Err(HuffError::BadCode);
                }
                code.push(value, len);
                kraft += 1 << (MAX_CODE_LEN - u32::from(len));
            }
        }
        let pad_is_zero = coded.is_multiple_of(2) || nibbles[coded / 2] >> 4 == 0;
        let lone = coded == 1 && kraft == 1 << (MAX_CODE_LEN - 1);
        if !pad_is_zero || !(kraft == 1 << MAX_CODE_LEN || lone) {
            return Err(HuffError::BadCode);
        }
        Ok((code, pos))
    }
}

/// Everything about a stream except its bits: the code and the size of
/// every part, from counts alone.
struct Layout {
    code: Code,
    stream_bytes: [usize; STREAMS],
    total: usize,
}

impl Layout {
    fn of(bytes: &[u8], segments: &[&[u8]; STREAMS]) -> Layout {
        let counts = histograms(segments);
        let mut sum = counts[0];
        for other in &counts[1..] {
            for (s, c) in sum.iter_mut().zip(other) {
                *s += c;
            }
        }
        let code = Code::from_lengths(&code_lengths(&sum));
        let stream_bytes = counts.map(|counts| {
            let bits: u64 = code
                .entries()
                .map(|(value, len)| counts[usize::from(value)] * u64::from(len))
                .sum();
            bits.div_ceil(8) as usize
        });
        let mut total = encoded_len(bytes.len() as u64);
        if !bytes.is_empty() {
            total += code.table_len() + stream_bytes.iter().sum::<usize>();
            if bytes.len() >= SPLIT_MIN {
                total += stream_bytes[..STREAMS - 1]
                    .iter()
                    .map(|&b| encoded_len(b as u64))
                    .sum::<usize>();
            }
        }
        Layout {
            code,
            stream_bytes,
            total,
        }
    }

    fn write(&self, bytes: &[u8], segments: &[&[u8]; STREAMS]) -> Vec<u8> {
        // Eight bytes of slack: the bit writer stores whole words.
        let mut out = Vec::with_capacity(self.total + 8);
        encode_u64(bytes.len() as u64, &mut out);
        if bytes.is_empty() {
            return out;
        }
        self.code.write(&mut out);
        if bytes.len() >= SPLIT_MIN {
            for &len in &self.stream_bytes[..STREAMS - 1] {
                encode_u64(len as u64, &mut out);
            }
        }

        let mut codes = [(0u64, 0u32); 256];
        self.code.for_each_code(|value, len, first| {
            codes[usize::from(value)] = (
                (first >> (MAX_CODE_LEN - u32::from(len))) as u64,
                len.into(),
            );
        });
        for (segment, &stream_len) in segments.iter().zip(&self.stream_bytes) {
            let start = out.len();
            out.resize(start + stream_len + 8, 0);
            let stream = &mut out[start..];
            // `acc` holds `held` (< 8) pending bits; four codes add at most
            // 48, so a word is stored once per four input bytes.
            let (mut acc, mut held, mut at) = (0u64, 0u32, 0usize);
            for quad in segment.chunks(4) {
                for &byte in quad {
                    let (code, len) = codes[usize::from(byte)];
                    acc = (acc << len) | code;
                    held += len;
                }
                let word = acc << (64 - held);
                stream[at..at + 8].copy_from_slice(&word.to_be_bytes());
                at += (held / 8) as usize;
                held %= 8;
            }
            debug_assert_eq!(at + usize::from(held > 0), stream_len);
            out.truncate(start + stream_len);
        }
        debug_assert_eq!(out.len(), self.total);
        out
    }
}

/// Codes `bytes`. The stream is self-describing: [`decode`] needs nothing
/// else.
pub fn encode(bytes: &[u8]) -> Vec<u8> {
    let segments = segments(bytes);
    Layout::of(bytes, &segments).write(bytes, &segments)
}

/// `encode(bytes).len()`, from byte counts, without writing the stream.
pub fn coded_len(bytes: &[u8]) -> usize {
    Layout::of(bytes, &segments(bytes)).total
}

/// `encode(bytes)` if it is strictly shorter than `bytes`; the stream is
/// not written otherwise.
pub fn encode_smaller(bytes: &[u8]) -> Option<Vec<u8>> {
    let segments = segments(bytes);
    let layout = Layout::of(bytes, &segments);
    (layout.total < bytes.len()).then(|| layout.write(bytes, &segments))
}

/// The 64 bits of `src` from bit `bit` on, most significant first; bits
/// past the end read as zero.
#[inline(always)]
fn peek(src: &[u8], bit: usize) -> u64 {
    let byte = bit / 8;
    let word = match src.get(byte..).and_then(|rest| rest.first_chunk()) {
        Some(word) => u64::from_be_bytes(*word),
        None => peek_tail(src, byte),
    };
    word << (bit % 8)
}

#[cold]
fn peek_tail(src: &[u8], byte: usize) -> u64 {
    let mut word = [0u8; 8];
    let rest = src.get(byte..).unwrap_or(&[]);
    word[..rest.len()].copy_from_slice(rest);
    u64::from_be_bytes(word)
}

/// The decode table: entry `value << 8 | length` at every index whose
/// top bits are the value's code. It is indexed by the next `width` bits
/// of a stream, `width` the longest code in use, so a short payload with
/// a shallow code fills a few hundred entries, not all of them.
struct Table {
    entries: [u16; TABLE_SIZE],
    /// `64 - width`: what brings the next `width` bits of a word down.
    shift: u32,
}

/// Decodes `out.len()` (at most four) codes from the top of `word`;
/// returns the bits they took.
#[inline(always)]
fn take(mut word: u64, out: &mut [u8], table: &Table) -> usize {
    let mut bits = 0u32;
    for o in out {
        // The mask is a no-op (`shift >= 64 - MAX_CODE_LEN`) that lets the
        // compiler drop the bounds check.
        let entry = table.entries[(word >> table.shift) as usize % TABLE_SIZE];
        *o = (entry >> 8) as u8;
        // The length is the low byte and below 64: the shift masks the rest.
        word = word.wrapping_shl(u32::from(entry));
        bits += u32::from(entry & 0xff);
    }
    bits as usize
}

/// Decodes `out.len()` codes of one stream starting at bit `*at`.
fn decode_run(src: &[u8], at: &mut usize, out: &mut [u8], table: &Table) {
    for quad in out.chunks_mut(4) {
        *at += take(peek(src, *at), quad, table);
    }
}

/// Decodes a stream produced by [`encode`].
///
/// Returns `Err` on every malformed input and never allocates more than
/// eight output bytes per stream byte. What an entropy code cannot do is
/// notice a flipped *payload* bit that lands on another valid code of the
/// same length: that decodes to other bytes of the declared length, and
/// is caught where LZ literals always were — by the object's content
/// address.
pub fn decode(stream: &[u8]) -> Result<Vec<u8>, HuffError> {
    let (declared, used) = decode_u64(stream).ok_or(HuffError::Truncated)?;
    let rest = &stream[used..];
    if declared == 0 {
        return if rest.is_empty() {
            Ok(Vec::new())
        } else {
            Err(HuffError::LengthMismatch)
        };
    }
    // Every coded byte takes at least one bit of what follows.
    let n = usize::try_from(declared)
        .ok()
        .filter(|&n| n <= rest.len().saturating_mul(8))
        .ok_or(HuffError::LengthMismatch)?;
    let (code, used) = Code::read(rest)?;
    let mut payload = &rest[used..];

    // Where each stream ends, in bytes of `payload`.
    let mut ends = [payload.len(); STREAMS];
    if n >= SPLIT_MIN {
        let mut lengths = [0usize; STREAMS - 1];
        for len in &mut lengths {
            let (value, used) = decode_u64(payload).ok_or(HuffError::Truncated)?;
            *len = usize::try_from(value).map_err(|_| HuffError::LengthMismatch)?;
            payload = &payload[used..];
        }
        let mut end = 0usize;
        for (slot, len) in ends.iter_mut().zip(lengths) {
            end = end
                .checked_add(len)
                .filter(|&end| end <= payload.len())
                .ok_or(HuffError::LengthMismatch)?;
            *slot = end;
        }
        ends[STREAMS - 1] = payload.len();
    }

    let mut out = vec![0u8; n];
    if code.coded == 1 {
        // The lone value's code is `0`: every stream is its segment's
        // length in zero bits.
        let mut start = 0usize;
        for (segment, &end) in segments(&out).iter().zip(&ends) {
            let stream = &payload[start..end];
            if stream.len() != segment.len().div_ceil(8) || stream.iter().any(|&b| b != 0) {
                return Err(HuffError::LengthMismatch);
            }
            start = end;
        }
        out.fill(code.values[0]);
        return Ok(out);
    }

    // Every index below `1 << width` is the prefix of exactly one code:
    // the code is complete.
    let width = code.lens[..code.coded].iter().copied().max().unwrap_or(1);
    let narrow = MAX_CODE_LEN - u32::from(width);
    let mut table = Table {
        entries: [0u16; TABLE_SIZE],
        shift: 64 - u32::from(width),
    };
    code.for_each_code(|value, len, first| {
        let first = first >> narrow;
        table.entries[first..first + (1 << (width - len))]
            .fill(u16::from(value) << 8 | u16::from(len));
    });

    let [mut at0, mut at1, mut at2, mut at3] = [0, ends[0] * 8, ends[1] * 8, ends[2] * 8];
    {
        let run = segments(&out)[0].len();
        let (a, rest) = out.split_at_mut(run);
        let (b, rest) = rest.split_at_mut(run.min(rest.len()));
        let (c, d) = rest.split_at_mut(run.min(rest.len()));
        // Four independent chains of lookups per round; the last segment
        // is the shortest, the others finish on their own below.
        let done = 4 * (d.len() / 4);
        for (((qa, qb), qc), qd) in (a.as_chunks_mut::<4>().0.iter_mut())
            .zip(b.as_chunks_mut::<4>().0)
            .zip(c.as_chunks_mut::<4>().0)
            .zip(d.as_chunks_mut::<4>().0)
        {
            at0 += take(peek(payload, at0), qa, &table);
            at1 += take(peek(payload, at1), qb, &table);
            at2 += take(peek(payload, at2), qc, &table);
            at3 += take(peek(payload, at3), qd, &table);
        }
        decode_run(payload, &mut at0, &mut a[done..], &table);
        decode_run(payload, &mut at1, &mut b[done..], &table);
        decode_run(payload, &mut at2, &mut c[done..], &table);
        decode_run(payload, &mut at3, &mut d[done..], &table);
    }

    // Each stream must end inside its last byte, on zero padding.
    for (at, end) in [at0, at1, at2, at3].into_iter().zip(ends) {
        let pad = (end * 8).checked_sub(at).filter(|&pad| pad < 8);
        let clean = pad.is_some_and(|pad| pad == 0 || payload[end - 1] & ((1 << pad) - 1) == 0);
        if !clean {
            return Err(HuffError::LengthMismatch);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let stream = encode(data);
        assert_eq!(coded_len(data), stream.len());
        assert_eq!(decode(&stream).as_deref(), Ok(data));
        assert_eq!(
            encode_smaller(data),
            (stream.len() < data.len()).then_some(stream.clone())
        );
        stream.len()
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(roundtrip(b""), 1);
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abracadabra");
    }

    #[test]
    fn a_lone_value_costs_a_bit_per_byte() {
        // varint 2 + groups 4 + mask 1 + nibble 1 + 3 × varint 1 + 4 × 40 bytes.
        assert_eq!(roundtrip(&[b'x'; 1280]), 2 + 4 + 1 + 1 + 3 + 160);
        assert_eq!(roundtrip(&[0u8; 9]), 1 + 4 + 1 + 1 + 2);
    }

    #[test]
    fn hex_cells_take_about_half() {
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut data = Vec::new();
        for i in 0..4000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            data.extend_from_slice(format!("x{:08x}", state as u32).as_bytes());
            data.push(if i % 10 == 9 { b'\n' } else { b',' });
        }
        let coded = roundtrip(&data);
        // Measured: 21,388 of 40,000 (the order-0 entropy is 4.17 bits).
        assert!(coded * 100 < data.len() * 54, "{coded} of {}", data.len());
    }

    #[test]
    fn every_split_boundary_round_trips() {
        let data: Vec<u8> = (0..SPLIT_MIN + 70)
            .map(|i| b"etaoin shrdlu"[i * i % 13])
            .collect();
        for n in SPLIT_MIN - 3..data.len() {
            roundtrip(&data[..n]);
        }
    }

    #[test]
    fn lengths_are_limited_and_complete() {
        // Fibonacci counts: the unconstrained code is 20 bits deep.
        let mut counts = [0u64; 256];
        let (mut a, mut b) = (1u64, 1u64);
        for c in counts.iter_mut().take(21) {
            *c = a;
            (a, b) = (b, a + b);
        }
        let lens = code_lengths(&counts);
        let kraft: u32 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1 << (MAX_CODE_LEN - u32::from(l)))
            .sum();
        assert_eq!(kraft, 1 << MAX_CODE_LEN);
        assert_eq!(u32::from(*lens.iter().max().unwrap()), MAX_CODE_LEN);
        // Rarer values never get shorter codes.
        for v in 1..21 {
            assert!(lens[v - 1] >= lens[v], "{lens:?}");
        }
    }
}
