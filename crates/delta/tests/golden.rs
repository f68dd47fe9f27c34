//! Golden byte-delta encodings: `encode(&diff(src, dst))` for fixed
//! inputs, as hex literals captured from the bucket-per-hash kernel that
//! [`SourceIndex`] replaced (commit fb4d901). The planner's cost matrix is
//! made of these lengths and the store of these bytes, so a kernel change
//! that moves one of them moves every plan and every object id — these
//! literals may only change in a PR that says so.

use dsv_delta::bytes_delta::{apply, decode, diff, encode, SourceIndex};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn rows(range: std::ops::Range<u32>) -> Vec<u8> {
    range
        .flat_map(|i| format!("row-{i},payload-{}\n", i * 31).into_bytes())
        .collect()
}

/// `(name, src, dst, hex of the encoded delta)`.
fn cases() -> Vec<(&'static str, Vec<u8>, Vec<u8>, &'static str)> {
    let table = rows(0..200);
    let mut edited = table.clone();
    let mid = edited.len() / 2;
    edited[mid] = b'X';
    edited[mid + 1] = b'Y';

    let body = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789".repeat(8);
    let mut shifted = b"xyz".to_vec();
    shifted.extend_from_slice(&body);

    let mut appended = table.clone();
    appended.extend_from_slice(b"!! new tail data\n");
    let mut prepended = b"!! new head\n".to_vec();
    prepended.extend_from_slice(&table);

    // Rows 50..150 moved in front of rows 0..50: two copies, the second
    // found through backward extension from a block-aligned hit.
    let mut moved = rows(50..150);
    moved.extend_from_slice(&rows(0..50));

    // Twelve copies of one block, then a unique tail. Only the first
    // eight offsets of the repeated block are candidates, so the three
    // leading blocks of `dst` copy from offset 0 (48 bytes) and the tail
    // is a second copy — an index without the cap would find the single
    // 72-byte match at offset 144.
    let mut repetitive = b"0123456789abcdef".repeat(12);
    repetitive.extend_from_slice(b"TAIL-UNIQUE-CONTENT-HERE");
    let mut after_repeats = b"0123456789abcdef".repeat(3);
    after_repeats.extend_from_slice(b"TAIL-UNIQUE-CONTENT-HERE");

    // The same block at two aligned offsets; only the second is followed
    // by what `dst` continues with, so the later, longer candidate wins.
    let longer_later =
        b"0123456789abcdef----------------0123456789abcdefTAIL-UNIQUE-CONTENT-HERE".to_vec();
    let picks_longer = b"0123456789abcdefTAIL-UNIQUE-CONTENT-HERE".to_vec();

    vec![
        ("small edit", table.clone(), edited, "d41f00055859d01fec0f"),
        ("shifted, unaligned", body, shifted, "0778797ac00400"),
        (
            "append",
            table.clone(),
            appended,
            "a83f00232121206e6577207461696c20646174610a",
        ),
        (
            "prepend",
            table.clone(),
            prepended,
            "192121206e657720686561640aa83f00",
        ),
        ("moved rows", table.clone(), moved, "8c20b807e80e04"),
        (
            "unrelated",
            b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa".to_vec(),
            b"bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb".to_vec(),
            "5162626262626262626262626262626262626262626262626262626262626262626262626262626262",
        ),
        (
            "src shorter than a block",
            b"short src".to_vec(),
            b"a destination longer than one block".to_vec(),
            "47612064657374696e6174696f6e206c6f6e676572207468616e206f6e6520626c6f636b",
        ),
        (
            "dst shorter than a block",
            table.clone(),
            b"row-7,payload".to_vec(),
            "1b726f772d372c7061796c6f6164",
        ),
        (
            "empty src",
            Vec::new(),
            b"new content".to_vec(),
            "176e657720636f6e74656e74",
        ),
        ("empty dst", table, Vec::new(), ""),
        ("both empty", Vec::new(), Vec::new(), ""),
        (
            "bucket cap overflow",
            repetitive,
            after_repeats,
            "600030c001",
        ),
        ("longest candidate wins", longer_later, picks_longer, "5020"),
    ]
}

#[test]
fn encoded_deltas_match_the_captured_bytes() {
    for (name, src, dst, expected) in cases() {
        let ops = diff(&src, &dst);
        let encoded = encode(&ops);
        assert_eq!(hex(&encoded), expected, "{name}: encoded delta moved");
        assert_eq!(decode(&encoded).unwrap(), ops, "{name}: decode");
        assert_eq!(apply(&src, &ops).unwrap(), dst, "{name}: apply");
        let index = SourceIndex::new(&src);
        assert_eq!(hex(&index.diff_encoded(&dst)), expected, "{name}: sink");
        assert_eq!(index.diff_encoded_len(&dst), encoded.len() as u64);
    }
}
