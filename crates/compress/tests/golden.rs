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

/// Golden Huffman streams and decoder equivalence, the same way: every
/// stored object's size is now the length of a [`dsv_compress::huff`]
/// stream (or of the raw payload, when that is no longer), and the planner
/// prices objects with `coded_len`, so the code construction may get
/// faster but may not choose differently. The oracle here is a
/// bit-at-a-time decoder written from the format description alone.
mod huff {
    use super::{hex, noise};
    use dsv_compress::huff::{coded_len, decode, encode, encode_smaller, MAX_CODE_LEN};
    use dsv_compress::varint::{decode_u64, encode_u64};
    use proptest::prelude::*;

    fn unhex(text: &str) -> Vec<u8> {
        text.as_bytes()
            .chunks_exact(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    }

    /// 1 KiB shaped like an encoded byte delta of a table of hex cells:
    /// copy tags and offsets (varints) between short literal runs.
    fn delta_like() -> Vec<u8> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut out = Vec::new();
        while out.len() < 1024 {
            encode_u64((next() % 4000) << 1, &mut out);
            encode_u64(next() % 110_000, &mut out);
            let cells = 1 + next() % 3;
            let literal: Vec<u8> = (0..cells)
                .flat_map(|_| format!("x{:08x},", next() as u32).into_bytes())
                .collect();
            encode_u64(((literal.len() as u64) << 1) | 1, &mut out);
            out.extend_from_slice(&literal);
        }
        out.truncate(1024);
        out
    }

    /// Fourteen values with Fibonacci counts: the unconstrained Huffman
    /// code is 13 bits deep, one more than the limit.
    fn too_deep() -> Vec<u8> {
        let (mut a, mut b) = (1usize, 1usize);
        let mut out = Vec::new();
        for value in b'a'..b'a' + 14 {
            out.extend(std::iter::repeat_n(value, a));
            (a, b) = (b, a + b);
        }
        out
    }

    /// `(name, input, hex of the stream)`.
    fn cases() -> Vec<(&'static str, Vec<u8>, &'static str)> {
        let csv: Vec<u8> = (0..12)
            .flat_map(|i| format!("{i},user{i},2015-05-19,some common suffix\n").into_bytes())
            .collect();
        vec![
            (
                "csv rows",
                csv,
                "cc03f2f00000040130ff0368e22c01464444954988584554545444053e404031ba6e98e0\
                 d148d49323530c1a9889e055bbefdf20dd37507068a46a4991a9860d4c44f02addf7efb0\
                 374ddc0e0d148d49323530c1a9889e055bbefdf7f81ba6eff87068a46a4991a9860d4c44\
                 f02addf7efbfe374ddff8e0d148d49323530c1a9889e055bbefdf28dd37547068a46a499\
                 1a9860d4c44f02addf7efbf040ba6efe0e0d148d49323530c1a9889e055bbefdf7e8dd37\
                 7f47068a46a4991a9860d4c44f02addf7efbf86e9bbfc3834523524c8d4c306a62278156\
                 efbf7d91b0a6ee47068a46a4991a9860d4c44f02addf7ef90c6e9ba863834523524c8d4c\
                 306a62278156efbf7c88374dd441c1a291a92646a618353113c0ab77dfbe",
            ),
            (
                "1 KiB encoded delta",
                delta_like(),
                "8008ffb3fffffe88bf81ebfafff791047e4881dbdda85d465570af583fce7cb6e44cff78\
                 7797aaa9aaaaa699a8aa9aa6a4a95555554555a9a6aaaa5a5544a44aaaa999aaa9a999aa\
                 8a8aa89aaaaaaaa999aaaa8aa89aa9a98a89aa999a9889a99aaaa8aaa9a9ac01ae01ae01\
                 dce2edf6f460af94caf71807bfa3fbd9d4c55b5480b0ea0b66148dd3b06bf9df46bf0325\
                 a9545ad4205293ed3650c15e91ab58d40ef69fa7b79f259585b0b41016f3a9d2ada02c89\
                 8c936441b11deeb66c14c86ecbd8836bc3fb7d4c5654a3d937102d2625388907efe6f67b\
                 ba325149398c3b82930ac28640b7625e8e8b83e587438992b2f6bd91cc058c89cc38982c\
                 2767a15dc1dccbbbf066c169583ea84e0dce3767999f05ace0c2a180b877bccfbfe2cf8a\
                 c2924835ae05755c94b3581cbf136fafa7056b2b2285503a63cdf734e4b561daf46882b8\
                 d196b4220b27b09d617872bc5d8f7b4e0a9539b5f5a06be5f5fafa325a1cea42f702cc4a\
                 f036dc15118f46cd81b3e4ff1cee064ad9ce48313057be6d327b014a869571d436387d4e\
                 b67c55c43798a5416f36baec1887c99beef3f0573e967cac81bbe07ebff66c56508520f6\
                 d416e73ac45b70ddf23f4dcd38abc49b7ba082b51880b3aa61b78f6b7f364a74b4212280\
                 28d9a6db4680a231b135c81adc2eafd59b2548c11b695815f47c1e942056490dacab8393\
                 c4f6fd2c94994935e860b13136323405920daf56d03599f871f462b6395dc76b82b24c32\
                 a1b437783d1f9f5305b189361320f69bcce6e6c16d37d5d29543a7c3ed74b4e0a84836a5\
                 0436b8ddcf4705332bc5c310ec717afeee8c148889c31706ff8ff67fb9f059c05a6cbc03\
                 95abc7feb3e2a719c5f77a02be3399509887c7e0fb3d5d382d6e8f1bd9c1b7e573bd6c16\
                 2918daf6a86cf7dd4fcf5325bc68644c602be232ab2d5056ce3173c6c1d1d5fcb7b362b6\
                 7ba6c480828ca8323a5036b4effa18a9919491ec05a5a2234330ff385c8fdb530519de02\
                 95987abf8f8592b283699c5c0b522bd4ae60a737a545b10e7ea7c3e5e0afa4a516c621f3\
                 78dcff4f0536dec527d037b3eb6ae0b43b5d1f28872783c8e969c149f4374e4d0ec77fd0\
                 f63460b4955853b0872c3fffe74e4a40",
            ),
            // One coded value: a one-bit code, four streams of zero bits.
            (
                "single symbol, split",
                vec![b'x'; 1280],
                "800a00800000010128282800000000000000000000000000000000000000000000000000\
                 000000000000000000000000000000000000000000000000000000000000000000000000\
                 000000000000000000000000000000000000000000000000000000000000000000000000\
                 000000000000000000000000000000000000000000000000000000000000000000000000\
                 000000000000000000000000000000000000000000000000000000",
            ),
            (
                "single symbol, one stream",
                vec![0u8; 9],
                "090100000001010000",
            ),
            ("one byte", b"a".to_vec(), "0100100000020100"),
            ("empty", Vec::new(), "00"),
            // Every value once: eight bits each plus a 164-byte table.
            (
                "256 equiprobable",
                (0..=255u8).collect(),
                "8002ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff\
                 ffff88888888888888888888888888888888888888888888888888888888888888888888\
                 888888888888888888888888888888888888888888888888888888888888888888888888\
                 888888888888888888888888888888888888888888888888888888888888888888888888\
                 88888888888888888888888888888888888888888888404040000102030405060708090a\
                 0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e\
                 2f303132333435363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f505152\
                 535455565758595a5b5c5d5e5f606162636465666768696a6b6c6d6e6f70717273747576\
                 7778797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f909192939495969798999a\
                 9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbe\
                 bfc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2\
                 e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff",
            ),
            (
                "deeper than the limit",
                too_deep(),
                "da0700300000fe7fcccc9a78563412a8014e2effcffdffeffefffffffffffbfeffbfeffb\
                 fdfeff7fbfdfeff7fbfbfbfbfbfbfbfbfbfbfbfbfbfbf7efdfbf7efdfbf7efdfbf7efdfb\
                 f7efdfbf7df7df7df7df7df7df7df7df7df7df7df7df7df7df7df7df7df7bdef7bdef7bd\
                 ef7bdef7bdef7bdef7bdef7bdef7bdef7bdef7bdef7bdef7bdef7bdeeeeeeeeeeeeeeeee\
                 eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee\
                 edb6db6db6db00db6db6db6db6db6db6db6db6db6db6db6db6db6db6db6db6db6db6db6d\
                 b6db6db6db6db6db6db6db6db6db6db6db6db6d555555555555555555555555555555555\
                 55555555555555555555555554aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\
                 aaaaaaaaaaa8000000000000000000000000000000000000000000000000000000000000\
                 000000000000000000000000000000000000",
            ),
            (
                "incompressible",
                noise(64),
                "40fffffeef4808104041590113040120a04520037c42d88440080130044c980630c00866\
                 666666665666666566666666666656666665666666666656666666564c8af889f00fdc86\
                 b526e0ebc959aa859c5b69287766fc4ce3968a493bfb37ebba240152f3460a3a0b76b874\
                 2c7e20",
            ),
        ]
    }

    #[test]
    fn encode_reproduces_the_golden_streams() {
        for (name, input, expected) in cases() {
            let stream = encode(&input);
            assert_eq!(hex(&stream), expected, "{name}");
            assert_eq!(coded_len(&input), stream.len(), "{name}");
            let smaller = (stream.len() < input.len()).then_some(stream);
            assert_eq!(encode_smaller(&input), smaller, "{name}");
        }
    }

    #[test]
    fn decode_inverts_the_golden_streams() {
        for (name, input, stream) in cases() {
            let stream = unhex(stream);
            assert_eq!(decode(&stream).as_ref(), Ok(&input), "{name}");
            assert_eq!(reference_decode(&stream).as_ref(), Some(&input), "{name}");
        }
    }

    #[test]
    fn golden_sizes_say_what_the_codec_is_for() {
        let size = |name: &str| {
            let (_, input, stream) = cases().into_iter().find(|c| c.0 == name).unwrap();
            (input.len(), stream.len() / 2)
        };
        // Text codes to well under its length; a delta's varints and hex
        // literals still shed a fifth; flat histograms only grow.
        assert_eq!(size("csv rows"), (460, 282));
        assert_eq!(size("1 KiB encoded delta"), (1024, 808));
        assert_eq!(size("256 equiprobable"), (256, 425));
        assert_eq!(size("incompressible"), (64, 111));
        assert_eq!(size("deeper than the limit"), (986, 342));
    }

    /// A table of `lens` (value, code length) pairs in the stream layout.
    fn table(lens: &[(u8, u8)]) -> Vec<u8> {
        let mut masks = [0u8; 32];
        for &(value, _) in lens {
            masks[usize::from(value / 8)] |= 1 << (value % 8);
        }
        let groups = (0..32)
            .filter(|&g| masks[g] != 0)
            .fold(0u32, |groups, g| groups | 1 << g);
        let mut out = groups.to_le_bytes().to_vec();
        out.extend(masks.iter().filter(|&&mask| mask != 0));
        let mut sorted = lens.to_vec();
        sorted.sort_unstable();
        for pair in sorted.chunks(2) {
            out.push(pair[0].1 | pair.get(1).map_or(0, |high| high.1 << 4));
        }
        out
    }

    fn stream(n: u64, lens: &[(u8, u8)], bits: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_u64(n, &mut out);
        out.extend(table(lens));
        out.extend_from_slice(bits);
        out
    }

    #[test]
    fn malformed_tables_and_lengths_are_errors() {
        // The well-formed neighbour of every case below: a = 0, b = 10,
        // c = 11; "abc" is 0 10 11 + 3 bits of padding.
        let good = [(b'a', 1), (b'b', 2), (b'c', 2)];
        assert_eq!(
            decode(&stream(3, &good, &[0b0101_1000])),
            Ok(b"abc".to_vec())
        );

        let bad: Vec<(&str, Vec<u8>)> = vec![
            (
                "over-subscribed",
                stream(3, &[(b'a', 1), (b'b', 1), (b'c', 2)], &[0x58]),
            ),
            (
                "incomplete",
                stream(3, &[(b'a', 1), (b'b', 2), (b'c', 3)], &[0x58]),
            ),
            ("lone two-bit code", stream(3, &[(b'a', 2)], &[0x00])),
            (
                "zero length for a present value",
                stream(3, &[(b'a', 1), (b'b', 0), (b'c', 1)], &[0x58]),
            ),
            (
                "length above the limit",
                stream(3, &[(b'a', 1), (b'b', 13), (b'c', 13)], &[0x58]),
            ),
            ("non-zero pad nibble", {
                let mut s = stream(3, &good, &[0x58]);
                s[1 + 4 + 1 + 1] |= 0xf0;
                s
            }),
            ("empty group", {
                let mut s = stream(3, &good, &[0x58]);
                s[1 + 4] = 0;
                s
            }),
            ("non-zero stream padding", stream(3, &good, &[0b0101_1001])),
            ("a byte too many", stream(3, &good, &[0x58, 0x00])),
            ("a byte too few", stream(3, &good, &[])),
            ("longer than its bits", stream(9, &good, &[0x58])),
            ("zero length with a tail", vec![0x00, 0x00]),
            ("ends in the table", stream(3, &good, &[])[..5].to_vec()),
            ("ends in the length", vec![0x80]),
            ("nothing", Vec::new()),
        ];
        for (name, s) in bad {
            assert!(decode(&s).is_err(), "{name}: {:?}", decode(&s));
            assert_eq!(reference_decode(&s), None, "{name}");
        }

        // A declared length no stream this short could hold: refused
        // before anything is allocated, whatever follows it.
        for declared in [1u64 << 45, u64::MAX >> 1] {
            assert!(decode(&stream(declared, &good, &[])).is_err());
            assert!(decode(&stream(declared, &good, &[0x58; 64])).is_err());
            let mut bare = Vec::new();
            encode_u64(declared, &mut bare);
            assert!(decode(&bare).is_err());
        }

        // Split streams whose recorded lengths overrun the data or
        // overflow a sum.
        let mut split = encode(&b"abc".repeat(100));
        assert_eq!(decode(&split), Ok(b"abc".repeat(100)));
        let lengths_at = 2 + table(&good).len();
        split[lengths_at] = 0x7f;
        assert!(decode(&split).is_err());
        let mut overflow = split[..lengths_at].to_vec();
        for _ in 0..3 {
            encode_u64(u64::MAX, &mut overflow);
        }
        overflow.extend_from_slice(&[0u8; 80]);
        assert!(decode(&overflow).is_err());
    }

    /// A decoder that reads the format description and nothing else: one
    /// bit at a time, codes looked up by `(length, bits)`.
    fn reference_decode(input: &[u8]) -> Option<Vec<u8>> {
        let (n, used) = decode_u64(input)?;
        let mut rest = &input[used..];
        if n == 0 {
            return rest.is_empty().then(Vec::new);
        }
        let n = usize::try_from(n).ok().filter(|&n| n <= rest.len() * 8)?;
        let groups = u32::from_le_bytes(*rest.first_chunk()?);
        rest = &rest[4..];
        let mut values = Vec::new();
        for g in (0..32u32).filter(|g| groups >> g & 1 == 1) {
            let (&mask, tail) = rest.split_first()?;
            rest = tail;
            if mask == 0 {
                return None;
            }
            values.extend(
                (0..8u32)
                    .filter(|b| mask >> b & 1 == 1)
                    .map(|b| (8 * g + b) as u8),
            );
        }
        let nibbles = rest.get(..values.len().div_ceil(2))?;
        rest = &rest[nibbles.len()..];
        let mut lens: Vec<(u32, u8)> = Vec::new();
        for (i, &value) in values.iter().enumerate() {
            let len = u32::from(nibbles[i / 2] >> (4 * (i % 2)) & 0xf);
            if len == 0 || len > MAX_CODE_LEN {
                return None;
            }
            lens.push((len, value));
        }
        if values.len() % 2 == 1 && nibbles[values.len() / 2] >> 4 != 0 {
            return None;
        }
        let kraft: u32 = lens.iter().map(|&(len, _)| 1 << (MAX_CODE_LEN - len)).sum();
        let lone = lens.len() == 1 && lens[0].0 == 1;
        if kraft != 1 << MAX_CODE_LEN && !lone {
            return None;
        }
        // Canonical: consecutive codes by (length, value).
        lens.sort_unstable();
        let mut codes = std::collections::HashMap::new();
        let (mut code, mut prev) = (0u32, lens[0].0);
        for &(len, value) in &lens {
            code <<= len - prev;
            prev = len;
            codes.insert((len, code), value);
            code += 1;
        }

        let mut runs = vec![n, 0, 0, 0];
        let mut ends = vec![usize::MAX; 4];
        if n >= 256 {
            let run = n.div_ceil(4);
            runs = vec![run, run, run, n - 3 * run];
            let mut end = 0usize;
            for slot in ends.iter_mut().take(3) {
                let (len, used) = decode_u64(rest)?;
                rest = &rest[used..];
                end = end.checked_add(usize::try_from(len).ok()?)?;
                *slot = end;
            }
        }
        let mut out = Vec::with_capacity(n);
        let mut start = 0usize;
        for (run, end) in runs.into_iter().zip(ends) {
            let end = end.min(rest.len());
            let bits = rest.get(start..end)?;
            start = end;
            let mut at = 0usize;
            for _ in 0..run {
                let (mut len, mut acc) = (0u32, 0u32);
                let value = loop {
                    let byte = *bits.get(at / 8)?;
                    acc = acc << 1 | u32::from(byte >> (7 - at % 8) & 1);
                    at += 1;
                    len += 1;
                    if let Some(&value) = codes.get(&(len, acc)) {
                        break value;
                    }
                    if len == MAX_CODE_LEN {
                        return None;
                    }
                };
                out.push(value);
            }
            // The stream ends inside its last byte, on zero bits.
            if at.div_ceil(8) != bits.len() {
                return None;
            }
            if !at.is_multiple_of(8) && bits[at / 8] & (0xff >> (at % 8)) != 0 {
                return None;
            }
        }
        (start == rest.len()).then_some(out)
    }

    /// Random bytes, a skewed alphabet (most of what the store codes), a
    /// short pattern repeated, or one value: below and above the split.
    fn arb_input() -> impl Strategy<Value = Vec<u8>> {
        (
            proptest::collection::vec(any::<u8>(), 0..700),
            0..4usize,
            1..40usize,
        )
            .prop_map(|(seed, kind, period)| match kind {
                0 => seed,
                1 => seed
                    .iter()
                    .map(|&b| b"0123456789abcdef,x\n"[usize::from(b).pow(2) % 19])
                    .collect(),
                2 => seed
                    .iter()
                    .take(period)
                    .cycle()
                    .take(seed.len() * 3)
                    .copied()
                    .collect(),
                _ => vec![period as u8; seed.len()],
            })
    }

    /// A valid stream, or one cut short, grown, or with one bit flipped.
    fn arb_stream() -> impl Strategy<Value = (Vec<u8>, usize)> {
        (arb_input(), 0..4usize, any::<prop::sample::Index>(), 0..8u8).prop_map(
            |(input, damage, at, bit)| {
                let mut stream = encode(&input);
                match damage {
                    0 => {}
                    1 => stream.truncate(at.index(stream.len())),
                    2 => stream.push(bit),
                    _ => {
                        let at = at.index(stream.len());
                        stream[at] ^= 1 << bit;
                    }
                }
                (stream, damage)
            },
        )
    }

    proptest! {
        #[test]
        fn round_trips_at_the_priced_length(input in arb_input()) {
            let stream = encode(&input);
            prop_assert_eq!(coded_len(&input), stream.len());
            prop_assert_eq!(decode(&stream), Ok(input.clone()));
            prop_assert_eq!(reference_decode(&stream), Some(input.clone()));
            let smaller = (stream.len() < input.len()).then_some(stream);
            prop_assert_eq!(encode_smaller(&input), smaller);
        }

        /// The same bytes where the reference decodes, an error wherever
        /// it refuses. A cut or grown stream is always refused; a flipped
        /// payload bit that lands on another code of the same length is
        /// the one damage an entropy code cannot see (the object's
        /// content address does).
        #[test]
        fn decoder_agrees_with_the_reference_on_damaged_streams(case in arb_stream()) {
            let (stream, damage) = case;
            let decoded = decode(&stream);
            prop_assert_eq!(decoded.clone().ok(), reference_decode(&stream));
            if damage == 1 || damage == 2 {
                prop_assert!(decoded.is_err());
            }
        }

        #[test]
        fn decoder_agrees_with_the_reference_on_arbitrary_bytes(
            stream in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            prop_assert_eq!(decode(&stream).ok(), reference_decode(&stream));
        }

        /// Arbitrary bytes behind a table that is valid: the payload
        /// paths, which arbitrary headers almost never reach.
        #[test]
        fn decoder_agrees_with_the_reference_behind_a_valid_table(
            n in 0..600u64,
            bits in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            let lens = [(b'a', 1), (b'b', 2), (b'c', 3), (b'd', 3)];
            let s = stream(n, &lens, &bits);
            prop_assert_eq!(decode(&s).ok(), reference_decode(&s));
        }
    }
}
