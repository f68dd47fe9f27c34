//! An LZ77-style compressor with a hash-chain match finder.
//!
//! ## Format
//!
//! ```text
//! varint original_len
//! token*
//! token := varint header
//!          header = (literal_len << 1) | 0  followed by literal bytes
//!          header = (match_len   << 1) | 1  followed by varint distance
//! ```
//!
//! Matches always have `match_len >= MIN_MATCH` and `distance >= 1`;
//! overlapping copies (distance < length) are allowed and reproduce runs.

use crate::varint::{decode_u64, encode_u64};

/// Minimum length worth encoding as a match (shorter is cheaper literal).
const MIN_MATCH: usize = 4;
/// 16-bit hash table of chain heads.
const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// Tuning knobs for the match finder.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Sliding-window size: matches may only reach this far back.
    pub window: usize,
    /// Maximum hash-chain entries probed per position (speed/ratio knob).
    pub max_chain: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            window: 1 << 16,
            max_chain: 32,
        }
    }
}

/// Decompression failure (corrupt or truncated input).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// Input ended in the middle of a token.
    Truncated,
    /// A match referenced bytes before the start of the output.
    BadDistance,
    /// Decoded output did not match the declared length.
    LengthMismatch {
        /// Length the stream header declared.
        declared: u64,
        /// Length actually decoded.
        actual: u64,
    },
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::Truncated => write!(f, "compressed stream truncated"),
            CompressError::BadDistance => write!(f, "match distance out of range"),
            CompressError::LengthMismatch { declared, actual } => {
                write!(f, "declared length {declared} but decoded {actual}")
            }
        }
    }
}

impl std::error::Error for CompressError {}

#[inline]
fn word_at(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(
        data[at..at + MIN_MATCH]
            .try_into()
            .expect("slice is MIN_MATCH bytes long"),
    )
}

#[inline]
fn hash4(word: u32) -> usize {
    (word.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Length of the longest common prefix of `a` and `b`, compared a word at
/// a time.
#[inline]
pub fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut words_a = a.chunks_exact(8);
    let mut words_b = b.chunks_exact(8);
    let mut matched = 0usize;
    for (x, y) in words_a.by_ref().zip(words_b.by_ref()) {
        let x = u64::from_le_bytes(x.try_into().expect("8-byte chunk"));
        let y = u64::from_le_bytes(y.try_into().expect("8-byte chunk"));
        if x != y {
            // Little-endian: the lowest differing bit is in the first
            // differing byte.
            return matched + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        matched += 8;
    }
    // At most one side ran out of whole words; finish bytewise.
    matched
        + a[matched..]
            .iter()
            .zip(&b[matched..])
            .take_while(|(x, y)| x == y)
            .count()
}

/// Compresses `data` with default [`Params`].
pub fn compress(data: &[u8]) -> Vec<u8> {
    compress_with(data, &Params::default())
}

/// Compresses `data` with explicit [`Params`].
///
/// The parse is greedy: at each position the chain is probed most recent
/// candidate first, the longest match wins and the first found wins ties.
/// Every stored object's size is made of this rule, so the two rejects in
/// the probe loop only skip candidates that provably cannot become the
/// winner (`tests/golden.rs` pins the streams).
pub fn compress_with(data: &[u8], params: &Params) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    encode_u64(data.len() as u64, &mut out);
    if data.is_empty() {
        return out;
    }

    // head[h] = most recent position with hash h; prev[i] = previous
    // position in i's chain. Positions offset by +1 so 0 = empty.
    let mut head = vec![0u32; HASH_SIZE];
    let mut prev = vec![0u32; data.len()];

    let mut literal_start = 0usize;
    let mut i = 0usize;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize| {
        let mut s = from;
        while s < to {
            // Literal runs are varint-coded; no need to split, but keep
            // chunks bounded so the shift in the header can't overflow.
            let len = (to - s).min((u64::MAX >> 1) as usize);
            encode_u64((len as u64) << 1, out);
            out.extend_from_slice(&data[s..s + len]);
            s += len;
        }
    };

    while i + MIN_MATCH <= data.len() {
        let word = word_at(data, i);
        let h = hash4(word);
        // Probe the chain for the longest match.
        let max = data.len() - i;
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut cand = head[h];
        let mut probes = 0;
        while cand != 0 && probes < params.max_chain {
            let pos = (cand - 1) as usize;
            if i - pos > params.window {
                break;
            }
            // A candidate wins only with a match of at least MIN_MATCH
            // bytes that is strictly longer than the best so far: it must
            // share the first word, and the byte at `best_len` (in range:
            // a best match that reached the end of the data left the
            // loop). One test, not two: most candidates fail it, which
            // of the halves they fail is a coin toss.
            if (word_at(data, pos) == word) & (data[pos + best_len] == data[i + best_len]) {
                let l = common_prefix(&data[pos..], &data[i..]);
                if l > best_len {
                    best_len = l;
                    best_dist = i - pos;
                    if l >= max {
                        break;
                    }
                }
            }
            cand = prev[pos];
            probes += 1;
        }

        // Insert current position into the chain.
        prev[i] = head[h];
        head[h] = (i + 1) as u32;

        if best_len >= MIN_MATCH {
            flush_literals(&mut out, literal_start, i);
            encode_u64(((best_len as u64) << 1) | 1, &mut out);
            encode_u64(best_dist as u64, &mut out);
            // Insert the skipped positions into chains (bounded to keep
            // compression O(n) on pathological inputs).
            let end = i + best_len;
            let insert_to = end
                .min(i + 64)
                .min(data.len().saturating_sub(MIN_MATCH - 1));
            for (j, link) in prev.iter_mut().enumerate().take(insert_to).skip(i + 1) {
                let hj = hash4(word_at(data, j));
                *link = head[hj];
                head[hj] = (j + 1) as u32;
            }
            i = end;
            literal_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(&mut out, literal_start, data.len());
    out
}

/// Width of the fixed-size copy: the short tokens that make up nearly all
/// of a tabular stream are decoded from one word of input into one word
/// of output, whose tail the next token overwrites.
const WIDE: usize = 8;

/// The output is first sized for this many bytes per input byte (or the
/// declared length, if smaller); a stream that expands further grows it
/// as its tokens ask.
const PRESIZE_RATIO: usize = 4;

/// The `WIDE` bytes of `bytes` at `at` as a little-endian word, if there
/// are that many.
#[inline(always)]
fn word_le(bytes: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(*bytes.get(at..)?.first_chunk()?))
}

/// A short token decoded from the input word `w` that starts with its
/// header: how many input bytes it spans, how many output bytes it
/// yields, and the word holding them. `None` sends the token to the
/// general path: a header or distance varint longer than one / three
/// bytes, a token longer than a word, a distance shorter than a word (or
/// invalid), or no room for a whole word at `out[produced..]`.
#[inline(always)]
fn short_token(w: u64, out: &[u8], produced: usize) -> Option<(usize, usize, u64)> {
    let header = w as u8;
    let len = usize::from(header >> 1);
    if header >= 0x80 || out.len() - produced < WIDE {
        return None;
    }
    if header & 1 == 0 {
        // Literal: its bytes follow the header inside the word.
        return (len < WIDE).then_some((1 + len, len, w >> 8));
    }
    let [_, b1, b2, b3, ..] = w.to_le_bytes();
    let (dist, used) = if b1 < 0x80 {
        (usize::from(b1), 2)
    } else if b2 < 0x80 {
        (usize::from(b1 & 0x7f) | usize::from(b2) << 7, 3)
    } else if b3 < 0x80 {
        (
            usize::from(b1 & 0x7f) | usize::from(b2 & 0x7f) << 7 | usize::from(b3) << 14,
            4,
        )
    } else {
        return None;
    };
    if len > WIDE || dist < WIDE || dist > produced {
        return None;
    }
    Some((used, len, word_le(out, produced - dist)?))
}

/// Decompresses a stream produced by [`compress`]/[`compress_with`].
///
/// Returns `Err` on every malformed input, including a header that
/// declares more than the tokens deliver or than memory can hold: the
/// declared length only caps what tokens may produce, memory is taken as
/// tokens prove they need it, and a refused allocation is reported as a
/// [`CompressError::LengthMismatch`].
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, CompressError> {
    let (declared, mut pos) = decode_u64(input).ok_or(CompressError::Truncated)?;
    let mismatch = |actual: usize| CompressError::LengthMismatch {
        declared,
        actual: actual as u64,
    };
    let want = usize::try_from(declared).map_err(|_| mismatch(0))?;
    // `out[..produced]` is the output so far; the rest is zeroed room to
    // copy into, never more of it than `want`.
    let mut out: Vec<u8> = Vec::new();
    let mut produced = 0usize;
    let grow = |out: &mut Vec<u8>, to: usize, produced: usize| {
        out.try_reserve_exact(to - out.len())
            .map_err(|_| mismatch(produced))?;
        out.resize(to, 0);
        Ok::<(), CompressError>(())
    };
    let presize = want.min(input.len().saturating_mul(PRESIZE_RATIO));
    grow(&mut out, presize, 0)?;
    while pos < input.len() {
        if let Some((used, len, word)) =
            word_le(input, pos).and_then(|w| short_token(w, &out, produced))
        {
            out[produced..produced + WIDE].copy_from_slice(&word.to_le_bytes());
            pos += used;
            produced += len;
            continue;
        }
        // The general path: any token, exact copies, every check.
        let mut varint = || {
            let (value, used) = decode_u64(&input[pos..]).ok_or(CompressError::Truncated)?;
            pos += used;
            Ok::<u64, CompressError>(value)
        };
        let header = varint()?;
        let len = usize::try_from(header >> 1).unwrap_or(usize::MAX);
        // Validate the token's source before its size, so a stream that
        // is both truncated and too long reports what it always did.
        let from = if header & 1 == 1 {
            match usize::try_from(varint()?) {
                Ok(dist) if dist != 0 && dist <= produced => Some(produced - dist),
                _ => return Err(CompressError::BadDistance),
            }
        } else if len > input.len() - pos {
            return Err(CompressError::Truncated);
        } else {
            None
        };
        if len > out.len() - produced {
            if len > want - produced {
                return Err(mismatch(produced.saturating_add(len)));
            }
            let room = (produced + len).max(out.len() * 2).min(want);
            grow(&mut out, room, produced)?;
        }
        let end = produced + len;
        match from {
            None => {
                out[produced..end].copy_from_slice(&input[pos..pos + len]);
                pos += len;
            }
            Some(from) if from + len <= produced => out.copy_within(from..from + len, produced),
            Some(from) => {
                // Overlapping copy (distance < length): the output from
                // `from` on is periodic in the distance, so each round
                // may copy everything written since `from`, doubling it.
                let mut at = produced;
                while at < end {
                    let n = (end - at).min(at - from);
                    out.copy_within(from..from + n, at);
                    at += n;
                }
            }
        }
        produced = end;
    }
    if produced != want {
        return Err(mismatch(produced));
    }
    out.truncate(produced);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let c = compress(data);
        let d = decompress(&c).unwrap();
        assert_eq!(d, data);
        c.len()
    }

    #[test]
    fn empty_input() {
        assert_eq!(roundtrip(b""), 1);
    }

    #[test]
    fn short_input_stays_literal() {
        roundtrip(b"ab");
        roundtrip(b"abc");
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data: Vec<u8> = b"the quick brown fox ".repeat(200);
        let c = roundtrip(&data);
        assert!(c < data.len() / 10, "got {} of {}", c, data.len());
    }

    #[test]
    fn run_of_single_byte_uses_overlapping_copy() {
        let data = vec![b'x'; 10_000];
        let c = roundtrip(&data);
        assert!(c < 64, "run should collapse, got {c}");
    }

    #[test]
    fn csv_like_data() {
        let mut data = String::new();
        for i in 0..500 {
            data.push_str(&format!("{i},user{i},2015-05-19,some common suffix\n"));
        }
        let c = roundtrip(data.as_bytes());
        assert!(c < data.len() / 2);
    }

    #[test]
    fn incompressible_data_grows_only_slightly() {
        // xorshift noise
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut data = Vec::with_capacity(4096);
        for _ in 0..4096 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            data.push((state >> 32) as u8);
        }
        let c = compress(&data);
        assert!(c.len() <= data.len() + data.len() / 64 + 16);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn corrupt_stream_is_rejected_not_panicking() {
        let c = compress(b"hello hello hello hello hello");
        // Truncate
        assert!(decompress(&c[..c.len() - 1]).is_err());
        // Bad distance: craft match with distance beyond output
        let mut bad = Vec::new();
        crate::varint::encode_u64(4, &mut bad); // declared len
        crate::varint::encode_u64((4 << 1) | 1, &mut bad); // match len 4
        crate::varint::encode_u64(9, &mut bad); // distance 9 > 0 produced
        assert_eq!(decompress(&bad), Err(CompressError::BadDistance));
    }

    #[test]
    fn length_mismatch_detected() {
        let mut bad = Vec::new();
        crate::varint::encode_u64(10, &mut bad); // declare 10
        crate::varint::encode_u64(3 << 1, &mut bad); // 3 literals
        bad.extend_from_slice(b"abc");
        assert!(matches!(
            decompress(&bad),
            Err(CompressError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn params_affect_output_but_not_correctness() {
        let data: Vec<u8> = (0..200u32)
            .flat_map(|i| format!("row {} of the table\n", i % 17).into_bytes())
            .collect();
        let fast = compress_with(
            &data,
            &Params {
                window: 256,
                max_chain: 1,
            },
        );
        let tight = compress_with(&data, &Params::default());
        assert_eq!(decompress(&fast).unwrap(), data);
        assert_eq!(decompress(&tight).unwrap(), data);
        assert!(tight.len() <= fast.len());
    }
}
