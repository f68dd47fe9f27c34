//! Line-level edit scripts: the "UNIX-style diff" delta mechanism.
//!
//! A [`LineScript`] reconstructs a target text from a source text by
//! copying line ranges of the source and inserting new lines — the
//! directional (asymmetric) delta of the paper's §2.1. The encoded size of
//! the script is the storage cost `Δ` of storing the target as a delta;
//! note the inherent asymmetry the paper highlights: a delta that deletes
//! many lines is tiny, its reverse must embed them all.

use crate::myers::{diff_slices, DiffOp};
use dsv_compress::varint::{decode_u64, encode_u64, encoded_len};

/// One instruction of a line script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineOp {
    /// Copy `count` lines from the source starting at `src_line`.
    Copy {
        /// First source line to copy.
        src_line: u32,
        /// Number of lines.
        count: u32,
    },
    /// Insert literal text (one or more complete lines).
    Insert {
        /// The inserted bytes (lines including terminators).
        text: Vec<u8>,
    },
}

/// A directional line-level delta: apply to the source to get the target.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LineScript {
    /// Instructions in order.
    pub ops: Vec<LineOp>,
}

/// Errors applying a [`LineScript`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScriptError {
    /// A copy referenced lines beyond the end of the source.
    CopyOutOfRange,
    /// The encoded form was malformed.
    Malformed,
}

impl std::fmt::Display for ScriptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScriptError::CopyOutOfRange => write!(f, "copy range exceeds source"),
            ScriptError::Malformed => write!(f, "malformed line script"),
        }
    }
}

impl std::error::Error for ScriptError {}

/// Splits `text` into lines, each including its trailing `\n` when present.
pub fn split_lines(text: &[u8]) -> Vec<&[u8]> {
    let mut lines = Vec::new();
    let mut start = 0;
    for (i, &b) in text.iter().enumerate() {
        if b == b'\n' {
            lines.push(&text[start..=i]);
            start = i + 1;
        }
    }
    if start < text.len() {
        lines.push(&text[start..]);
    }
    lines
}

/// Computes a [`LineScript`] turning `src` into `dst` via Myers diff on
/// lines.
///
/// Lines are first interned into dense `u32` symbols (shared across both
/// inputs), so the O(ND) search compares integers rather than byte slices
/// — the same trick production diff tools use. Interning is exact (a
/// hash-map on the line content), so equal symbols always mean equal
/// lines.
pub fn line_diff(src: &[u8], dst: &[u8]) -> LineScript {
    let a = split_lines(src);
    let b = split_lines(dst);
    let mut symbols: std::collections::HashMap<&[u8], u32> =
        std::collections::HashMap::with_capacity(a.len() + b.len());
    let mut a_sym: Vec<u32> = Vec::with_capacity(a.len());
    for line in &a {
        let next = symbols.len() as u32;
        a_sym.push(*symbols.entry(line).or_insert(next));
    }
    let mut b_sym: Vec<u32> = Vec::with_capacity(b.len());
    for line in &b {
        let next = symbols.len() as u32;
        b_sym.push(*symbols.entry(line).or_insert(next));
    }
    let diff = diff_slices(&a_sym, &b_sym);
    let mut ops: Vec<LineOp> = Vec::new();
    for op in diff {
        match op {
            DiffOp::Equal { a_pos, len, .. } => {
                // Merge adjacent copies.
                if let Some(LineOp::Copy { src_line, count }) = ops.last_mut() {
                    if *src_line as usize + *count as usize == a_pos {
                        *count += len as u32;
                        continue;
                    }
                }
                ops.push(LineOp::Copy {
                    src_line: a_pos as u32,
                    count: len as u32,
                });
            }
            DiffOp::Delete { .. } => {}
            DiffOp::Insert { b_pos, len, .. } => {
                let mut text = Vec::new();
                for line in &b[b_pos..b_pos + len] {
                    text.extend_from_slice(line);
                }
                if let Some(LineOp::Insert { text: prev }) = ops.last_mut() {
                    prev.extend_from_slice(&text);
                } else {
                    ops.push(LineOp::Insert { text });
                }
            }
        }
    }
    LineScript { ops }
}

impl LineScript {
    /// Applies the script to `src`, producing the target text.
    pub fn apply(&self, src: &[u8]) -> Result<Vec<u8>, ScriptError> {
        let lines = split_lines(src);
        let mut out = Vec::with_capacity(src.len());
        for op in &self.ops {
            match op {
                LineOp::Copy { src_line, count } => {
                    let start = *src_line as usize;
                    let end = start + *count as usize;
                    if end > lines.len() {
                        return Err(ScriptError::CopyOutOfRange);
                    }
                    for line in &lines[start..end] {
                        out.extend_from_slice(line);
                    }
                }
                LineOp::Insert { text } => out.extend_from_slice(text),
            }
        }
        Ok(out)
    }

    /// Serializes the script: `varint op_count`, then per op a tag varint
    /// (`count << 1` for copy, `(len << 1) | 1` for insert) and payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        encode_u64(self.ops.len() as u64, &mut out);
        for op in &self.ops {
            match op {
                LineOp::Copy { src_line, count } => {
                    encode_u64(u64::from(*count) << 1, &mut out);
                    encode_u64(u64::from(*src_line), &mut out);
                }
                LineOp::Insert { text } => {
                    encode_u64(((text.len() as u64) << 1) | 1, &mut out);
                    out.extend_from_slice(text);
                }
            }
        }
        out
    }

    /// Parses a script produced by [`encode`](Self::encode).
    pub fn decode(input: &[u8]) -> Result<Self, ScriptError> {
        let (count, mut pos) = decode_u64(input).ok_or(ScriptError::Malformed)?;
        let mut ops = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let (tag, used) = decode_u64(&input[pos..]).ok_or(ScriptError::Malformed)?;
            pos += used;
            if tag & 1 == 0 {
                let (src_line, used) = decode_u64(&input[pos..]).ok_or(ScriptError::Malformed)?;
                pos += used;
                ops.push(LineOp::Copy {
                    src_line: src_line as u32,
                    count: (tag >> 1) as u32,
                });
            } else {
                let len = (tag >> 1) as usize;
                if pos + len > input.len() {
                    return Err(ScriptError::Malformed);
                }
                ops.push(LineOp::Insert {
                    text: input[pos..pos + len].to_vec(),
                });
                pos += len;
            }
        }
        Ok(LineScript { ops })
    }

    /// Size in bytes of the encoded script — the delta's storage cost `Δ`
    /// in the uncompressed-diff model: [`encode`](Self::encode)'s length,
    /// counted without building it.
    pub fn encoded_size(&self) -> usize {
        let ops: usize = self
            .ops
            .iter()
            .map(|op| match op {
                LineOp::Copy { src_line, count } => {
                    encoded_len(u64::from(*count) << 1) + encoded_len(u64::from(*src_line))
                }
                LineOp::Insert { text } => encoded_len(((text.len() as u64) << 1) | 1) + text.len(),
            })
            .sum();
        encoded_len(self.ops.len() as u64) + ops
    }

    /// Number of literal bytes the script inserts.
    pub fn inserted_bytes(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                LineOp::Insert { text } => text.len(),
                LineOp::Copy { .. } => 0,
            })
            .sum()
    }
}

/// Size of a symmetric ("two-way") line delta between `a` and `b`: the
/// concatenation of both directional scripts, which is how the paper builds
/// undirected deltas for its synthetic datasets (§5.3).
pub fn two_way_size(a: &[u8], b: &[u8]) -> usize {
    line_diff(a, b).encoded_size() + line_diff(b, a).encoded_size()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &[u8] = b"alpha\nbravo\ncharlie\ndelta\necho\n";

    #[test]
    fn split_keeps_terminators() {
        let lines = split_lines(b"a\nb\nc");
        assert_eq!(lines, vec![b"a\n".as_ref(), b"b\n".as_ref(), b"c".as_ref()]);
        assert!(split_lines(b"").is_empty());
    }

    #[test]
    fn roundtrip_modification() {
        let dst = b"alpha\nBRAVO\ncharlie\ndelta\necho\nfoxtrot\n";
        let script = line_diff(SRC, dst);
        assert_eq!(script.apply(SRC).unwrap(), dst);
    }

    #[test]
    fn identical_text_is_one_copy() {
        let script = line_diff(SRC, SRC);
        assert_eq!(script.ops.len(), 1);
        assert!(matches!(
            script.ops[0],
            LineOp::Copy {
                src_line: 0,
                count: 5
            }
        ));
        assert_eq!(script.apply(SRC).unwrap(), SRC);
    }

    #[test]
    fn deletion_delta_is_small_reverse_is_large() {
        let dst = b"alpha\necho\n";
        let fwd = line_diff(SRC, dst);
        let rev = line_diff(dst, SRC);
        assert!(fwd.encoded_size() < rev.encoded_size());
        assert_eq!(fwd.inserted_bytes(), 0);
        assert_eq!(rev.inserted_bytes(), "bravo\ncharlie\ndelta\n".len());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let dst = b"zero\nalpha\ncharlie\nnew tail";
        let script = line_diff(SRC, dst);
        let decoded = LineScript::decode(&script.encode()).unwrap();
        assert_eq!(decoded, script);
        assert_eq!(decoded.apply(SRC).unwrap(), dst);
    }

    #[test]
    fn apply_rejects_out_of_range_copy() {
        let script = LineScript {
            ops: vec![LineOp::Copy {
                src_line: 3,
                count: 10,
            }],
        };
        assert_eq!(script.apply(SRC), Err(ScriptError::CopyOutOfRange));
    }

    #[test]
    fn decode_rejects_truncation() {
        let script = line_diff(SRC, b"alpha\nNEW\n");
        let enc = script.encode();
        assert!(LineScript::decode(&enc[..enc.len() - 1]).is_err());
    }

    #[test]
    fn empty_source_and_target() {
        let script = line_diff(b"", b"");
        assert!(script.apply(b"").unwrap().is_empty());
        let script = line_diff(b"", b"data\n");
        assert_eq!(script.apply(b"").unwrap(), b"data\n");
        let script = line_diff(b"data\n", b"");
        assert!(script.apply(b"data\n").unwrap().is_empty());
    }

    #[test]
    fn two_way_size_is_symmetric() {
        let b = b"alpha\nbravo\nCHARLIE\ndelta\n";
        assert_eq!(two_way_size(SRC, b), two_way_size(b, SRC));
    }

    #[test]
    fn encoded_size_is_the_encoding_length() {
        // Every script this module's tests build, and ones whose varints
        // take several bytes: long copies, far sources, long inserts.
        let long: Vec<u8> = b"x".repeat(300);
        let mut scripts: Vec<LineScript> = [
            (
                SRC,
                b"alpha\nBRAVO\ncharlie\ndelta\necho\nfoxtrot\n".as_ref(),
            ),
            (SRC, SRC),
            (SRC, b"alpha\necho\n"),
            (b"alpha\necho\n", SRC),
            (SRC, b"zero\nalpha\ncharlie\nnew tail"),
            (SRC, b"alpha\nNEW\n"),
            (b"", b""),
            (b"", b"data\n"),
            (b"data\n", b""),
            (b"one\ntwo", b"one\ntwo\nthree"),
        ]
        .into_iter()
        .map(|(a, b)| line_diff(a, b))
        .collect();
        scripts.push(LineScript {
            ops: vec![
                LineOp::Copy {
                    src_line: 1 << 20,
                    count: 70_000,
                },
                LineOp::Insert { text: long },
                LineOp::Copy {
                    src_line: u32::MAX,
                    count: u32::MAX,
                },
            ],
        });
        scripts.push(LineScript {
            ops: vec![
                LineOp::Copy {
                    src_line: 0,
                    count: 1
                };
                200
            ],
        });
        for script in &scripts {
            assert_eq!(script.encoded_size(), script.encode().len(), "{script:?}");
        }
    }

    #[test]
    fn no_trailing_newline_handled() {
        let src = b"one\ntwo";
        let dst = b"one\ntwo\nthree";
        let script = line_diff(src, dst);
        assert_eq!(script.apply(src).unwrap(), dst);
    }
}
