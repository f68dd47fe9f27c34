//! Golden LZ streams and decoder equivalence.
//!
//! The hex literals are `compress` outputs captured from the
//! byte-at-a-time kernels this crate had at commit 8be7713. Every stored
//! object's size — hence every `total_bytes`, every stored/logical ratio —
//! is the length of such a stream, so the match finder may get faster but
//! may not choose differently: these literals change only in a PR that
//! says so. The old decode loop survives here as the oracle the new
//! decoder is compared with on arbitrary, truncated and bit-flipped
//! streams.

use dsv_compress::lz::{compress, decompress, CompressError};
use dsv_compress::varint::{decode_u64, encode_u64};
use proptest::prelude::*;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn noise(n: usize) -> Vec<u8> {
    let mut state = 0x243F_6A88_85A3_08D3u64;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect()
}

/// `(name, input, hex of the compressed stream)`.
fn cases() -> Vec<(&'static str, Vec<u8>, &'static str)> {
    let csv: Vec<u8> = (0..12)
        .flat_map(|i| format!("{i},user{i},2015-05-19,some common suffix\n").into_bytes())
        .collect();
    // The final match ends with the data, fewer than 64 positions after
    // it starts: the chain-insert loop is cut by the end of the input,
    // not by its 64-position bound.
    let mut window_tail = b"0123456789abcdefghij-".repeat(2);
    window_tail.extend_from_slice(b"0123456789abcdefghij");
    vec![
        (
            "csv rows",
            csv,
            "cc034e302c75736572302c323031352d30352d31392c736f6d6520636f6d6d6f6e2073756666\
             69780a310b2602313f2602320b2602323f2602330b2602333f2602340b2602343f2602350b26\
             02353f2602360b2602363f2602370b2602373f2602380b2602383f2602390b26023941d6020d\
             fd02023143fe020fff02418003",
        ),
        // One literal, then a 9999-byte match at distance 1.
        ("long run", vec![b'x'; 10_000], "904e02789f9c0101"),
        // A 27-byte match at distance 3: distance < length.
        ("overlapping match", b"abc".repeat(10), "1e066162633703"),
        ("shorter than MIN_MATCH", b"abc".to_vec(), "0306616263"),
        ("empty", Vec::new(), "00"),
        (
            "incompressible",
            noise(64),
            "40800128d42cec20146697edbc972e8e06ab5f602696ca2bfb7d89cbc27b48ce3ca6b003d3d7\
             42fbd47adaf6bd62949f701e3093387c71307ed948559a5d0b6d39f789",
        ),
        (
            "ends inside the insert window",
            window_tail,
            "3e2a303132333435363738396162636465666768696a2d5315",
        ),
    ]
}

#[test]
fn compress_reproduces_the_golden_streams() {
    for (name, input, expected) in cases() {
        assert_eq!(hex(&compress(&input)), expected, "{name}");
    }
}

#[test]
fn decompress_inverts_the_golden_streams() {
    for (name, input, stream) in cases() {
        let stream: Vec<u8> = stream
            .as_bytes()
            .chunks_exact(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect();
        assert_eq!(decompress(&stream).unwrap(), input, "{name}");
    }
}

#[test]
fn absurd_declared_lengths_are_errors_not_aborts() {
    // Both headers used to reach `Vec::with_capacity(declared)`: the
    // first died in the allocator, the second on capacity overflow.
    for declared in [1u64 << 45, u64::MAX >> 1] {
        let mut stream = Vec::new();
        encode_u64(declared, &mut stream);
        assert!(matches!(
            decompress(&stream),
            Err(CompressError::LengthMismatch { .. })
        ));
        // Backed by a real token the claim is still refused: as a length
        // mismatch where memory would have sufficed, as a refused
        // allocation where not.
        encode_u64(1 << 1, &mut stream);
        stream.push(b'x');
        assert!(decompress(&stream).is_err());
    }
}

/// The decode loop `lz::decompress` had before it was rewritten, with one
/// change that keeps it total: it pushes byte by byte but never past the
/// declared length — the old loop went on (for a corrupt length field,
/// until memory ran out) and then reported the same `LengthMismatch`.
fn reference_decompress(input: &[u8]) -> Result<Vec<u8>, CompressError> {
    let (declared, mut pos) = decode_u64(input).ok_or(CompressError::Truncated)?;
    let overrun = |actual: usize| CompressError::LengthMismatch {
        declared,
        actual: actual as u64,
    };
    let mut out: Vec<u8> = Vec::new();
    while pos < input.len() {
        let (header, used) = decode_u64(&input[pos..]).ok_or(CompressError::Truncated)?;
        pos += used;
        let len = (header >> 1) as usize;
        if header & 1 == 0 {
            if len > input.len() - pos {
                return Err(CompressError::Truncated);
            }
            if (out.len() + len) as u64 > declared {
                return Err(overrun(out.len() + len));
            }
            out.extend_from_slice(&input[pos..pos + len]);
            pos += len;
        } else {
            let (dist, used) = decode_u64(&input[pos..]).ok_or(CompressError::Truncated)?;
            pos += used;
            if dist == 0 || dist > out.len() as u64 {
                return Err(CompressError::BadDistance);
            }
            if out.len().saturating_add(len) as u64 > declared {
                return Err(overrun(out.len().saturating_add(len)));
            }
            let start = out.len() - dist as usize;
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        }
    }
    if out.len() as u64 != declared {
        return Err(overrun(out.len()));
    }
    Ok(out)
}

/// Inputs with the structure the match finder feeds on: a short random
/// pattern repeated (runs, overlapping matches), random bytes, or random
/// bytes with slices of themselves spliced back in (distant matches).
fn arb_input() -> impl Strategy<Value = Vec<u8>> {
    (
        proptest::collection::vec(any::<u8>(), 0..600),
        0..3usize,
        1..40usize,
        proptest::collection::vec(any::<prop::sample::Index>(), 0..12),
    )
        .prop_map(|(seed, kind, period, cuts)| match kind {
            0 => seed,
            1 => seed
                .iter()
                .take(period)
                .cycle()
                .take(seed.len() * 4)
                .copied()
                .collect(),
            _ => {
                let mut out = seed.clone();
                for pair in cuts.chunks_exact(2) {
                    if seed.is_empty() {
                        break;
                    }
                    let from = pair[0].index(seed.len());
                    let len = pair[1].index(seed.len() - from) + 1;
                    let at = pair[0].index(out.len() + 1);
                    let piece = seed[from..from + len].to_vec();
                    out.splice(at..at, piece);
                }
                out
            }
        })
}

/// A valid stream, or one damaged the ways a disk damages it: cut short,
/// or one bit flipped.
fn arb_stream() -> impl Strategy<Value = Vec<u8>> {
    (arb_input(), 0..3usize, any::<prop::sample::Index>(), 0..8u8).prop_map(
        |(input, damage, at, bit)| {
            let mut stream = compress(&input);
            match damage {
                0 => {}
                1 => stream.truncate(at.index(stream.len())),
                _ => {
                    let at = at.index(stream.len());
                    stream[at] ^= 1 << bit;
                }
            }
            stream
        },
    )
}

proptest! {
    #[test]
    fn round_trips(input in arb_input()) {
        let stream = compress(&input);
        prop_assert_eq!(decompress(&stream).unwrap(), input.clone());
        prop_assert_eq!(reference_decompress(&stream).unwrap(), input);
    }

    /// Same bytes where the old loop decoded, an error wherever it
    /// failed; where neither an overrun nor an allocation is involved
    /// the error is the same one.
    #[test]
    fn decoder_agrees_with_the_old_loop_on_damaged_streams(stream in arb_stream()) {
        match (reference_decompress(&stream), decompress(&stream)) {
            (Ok(old), new) => prop_assert_eq!(new, Ok(old)),
            (Err(old), new) => {
                prop_assert!(new.is_err());
                if !matches!(old, CompressError::LengthMismatch { .. }) {
                    prop_assert_eq!(new, Err(old));
                }
            }
        }
    }

    #[test]
    fn decoder_agrees_with_the_old_loop_on_arbitrary_bytes(
        stream in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let new = decompress(&stream);
        match reference_decompress(&stream) {
            Ok(old) => prop_assert_eq!(new, Ok(old)),
            Err(_) => prop_assert!(new.is_err()),
        }
    }
}
