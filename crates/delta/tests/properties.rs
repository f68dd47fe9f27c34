//! Property-based tests for the differencing substrate: every delta
//! mechanism must reconstruct exactly, for arbitrary inputs.

use dsv_delta::bytes_delta::{self, SourceIndex};
use dsv_delta::myers::{apply_diff, diff_slices, edit_distance};
use dsv_delta::script::{line_diff, two_way_size, LineScript};
use dsv_delta::tabular::{Table, TableDelta, TableEdit};
use proptest::prelude::*;

/// Arbitrary "text": lines of printable content with varying terminators.
fn arb_text() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec("[a-z0-9 ,.]{0,30}", 0..40).prop_map(|lines| {
        let mut out = Vec::new();
        for (i, l) in lines.iter().enumerate() {
            out.extend_from_slice(l.as_bytes());
            if i + 1 < lines.len() || l.len() % 2 == 0 {
                out.push(b'\n');
            }
        }
        out
    })
}

/// A mutation of some text: splice random bytes at a random position.
fn arb_edited_pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (arb_text(), arb_text(), any::<prop::sample::Index>()).prop_map(|(base, insert, idx)| {
        let mut edited = base.clone();
        let pos = if base.is_empty() {
            0
        } else {
            idx.index(base.len())
        };
        edited.splice(pos..pos, insert.iter().copied());
        (base, edited)
    })
}

proptest! {
    /// Myers diff always reconstructs the target.
    #[test]
    fn myers_reconstructs((a, b) in (arb_text(), arb_text())) {
        let ops = diff_slices(&a, &b);
        prop_assert_eq!(apply_diff(&a, &b, &ops), b);
    }

    /// Myers edit distance is symmetric for token sequences.
    #[test]
    fn myers_distance_symmetric((a, b) in (arb_text(), arb_text())) {
        let d_ab = edit_distance(&diff_slices(&a, &b));
        let d_ba = edit_distance(&diff_slices(&b, &a));
        prop_assert_eq!(d_ab, d_ba);
    }

    /// Myers distance satisfies identity and a triangle-ish upper bound.
    #[test]
    fn myers_distance_metric_properties(a in arb_text(), b in arb_text(), c in arb_text()) {
        prop_assert_eq!(edit_distance(&diff_slices(&a, &a)), 0);
        let ab = edit_distance(&diff_slices(&a, &b));
        let bc = edit_distance(&diff_slices(&b, &c));
        let ac = edit_distance(&diff_slices(&a, &c));
        prop_assert!(ac <= ab + bc, "triangle: {} > {} + {}", ac, ab, bc);
    }

    /// Line scripts reconstruct and survive serialization.
    #[test]
    fn line_script_roundtrip((a, b) in arb_edited_pair()) {
        let script = line_diff(&a, &b);
        prop_assert_eq!(script.apply(&a).unwrap(), b.clone());
        let decoded = LineScript::decode(&script.encode()).unwrap();
        prop_assert_eq!(decoded.apply(&a).unwrap(), b);
    }

    /// Two-way (undirected) size is symmetric.
    #[test]
    fn two_way_symmetric((a, b) in (arb_text(), arb_text())) {
        prop_assert_eq!(two_way_size(&a, &b), two_way_size(&b, &a));
    }

    /// Byte deltas reconstruct, roundtrip their encoding, and a small
    /// splice produces a delta far smaller than the target.
    #[test]
    fn byte_delta_roundtrip((a, b) in arb_edited_pair()) {
        let ops = bytes_delta::diff(&a, &b);
        prop_assert_eq!(bytes_delta::apply(&a, &ops).unwrap(), b.clone());
        let enc = bytes_delta::encode(&ops);
        let dec = bytes_delta::decode(&enc).unwrap();
        prop_assert_eq!(bytes_delta::apply(&a, &dec).unwrap(), b);
    }

    /// `apply_encoded` is `apply` after `decode`, result for result: the
    /// same bytes, and the same error when the delta is cut short, has a
    /// bit flipped, or is replayed on a base it was not made for (a
    /// damaged stream that is *also* out of range stays `Malformed`).
    #[test]
    fn apply_encoded_is_decode_then_apply(
        (a, b) in arb_edited_pair(),
        wrong_base in arb_text(),
        damage in 0..3usize,
        at in any::<prop::sample::Index>(),
        bit in 0..8u8,
    ) {
        let mut delta = bytes_delta::encode(&bytes_delta::diff(&a, &b));
        prop_assert_eq!(bytes_delta::apply_encoded(&a, &delta), Ok(b));
        if damage > 0 && !delta.is_empty() {
            let at = at.index(delta.len());
            if damage == 1 {
                delta.truncate(at);
            } else {
                delta[at] ^= 1 << bit;
            }
        }
        for base in [&a, &wrong_base] {
            let two_step = bytes_delta::decode(&delta)
                .and_then(|ops| bytes_delta::apply(base, &ops));
            prop_assert_eq!(bytes_delta::apply_encoded(base, &delta), two_step);
        }
    }

    /// One kernel, three sinks: a reusable index gives the ops of the
    /// one-shot `diff`, its byte sink their encoding, its length sink
    /// that encoding's length — also when one index serves many targets.
    #[test]
    fn source_index_sinks_agree_with_one_shot_diff(
        (a, b) in arb_edited_pair(),
        others in proptest::collection::vec(arb_text(), 0..4),
    ) {
        let index = SourceIndex::new(&a);
        for target in std::iter::once(&b).chain(&others).chain([&a]) {
            let ops = bytes_delta::diff(&a, target);
            let encoded = bytes_delta::encode(&ops);
            prop_assert_eq!(&index.diff(target), &ops);
            prop_assert_eq!(&SourceIndex::new(&a).diff(target), &ops);
            prop_assert_eq!(&index.diff_encoded(target), &encoded);
            prop_assert_eq!(index.diff_encoded_len(target), encoded.len() as u64);
            prop_assert_eq!(&bytes_delta::apply(&a, &ops).unwrap(), target);
        }
    }

    /// Repetitive sources (few distinct blocks, buckets over the cap):
    /// the sinks still agree and the delta still reconstructs.
    #[test]
    fn source_index_on_repetitive_sources(
        unit in proptest::collection::vec(any::<u8>(), 1..24),
        reps in 1usize..40,
        (tail, b) in arb_edited_pair(),
    ) {
        let mut a = unit.repeat(reps);
        a.extend_from_slice(&tail);
        let mut target = unit.repeat(reps / 2 + 1);
        target.extend_from_slice(&b);
        let index = SourceIndex::new(&a);
        let ops = index.diff(&target);
        prop_assert_eq!(&bytes_delta::diff(&a, &target), &ops);
        prop_assert_eq!(&bytes_delta::apply(&a, &ops).unwrap(), &target);
        let encoded = bytes_delta::encode(&ops);
        prop_assert_eq!(&index.diff_encoded(&target), &encoded);
        prop_assert_eq!(index.diff_encoded_len(&target), encoded.len() as u64);
    }

    /// Compression roundtrips arbitrary bytes.
    #[test]
    fn lz_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4000)) {
        let c = dsv_compress::compress(&data);
        prop_assert_eq!(dsv_compress::decompress(&c).unwrap(), data);
    }
}

/// Random valid table edits, generated against the table's current shape.
fn apply_random_edits(
    mut table: Table,
    seeds: &[u64],
) -> Result<(Table, TableDelta), dsv_delta::tabular::TableError> {
    let mut edits = Vec::new();
    for &s in seeds {
        let rows = table.rows.len();
        let cols = table.columns.len();
        let edit = match s % 5 {
            0 => TableEdit::AddRows {
                at: (s as u32) % (rows as u32 + 1),
                rows: vec![(0..cols).map(|c| format!("v{s}c{c}")).collect()],
            },
            1 if rows > 0 => TableEdit::DeleteRows {
                at: (s as u32) % rows as u32,
                count: 1,
            },
            2 => TableEdit::AddColumn {
                at: (s as u32) % (cols as u32 + 1),
                name: format!("col{s}"),
                values: (0..rows).map(|r| format!("n{r}")).collect(),
            },
            3 if cols > 1 => TableEdit::RemoveColumn {
                at: (s as u32) % cols as u32,
            },
            _ if rows > 0 && cols > 0 => TableEdit::ModifyCells {
                cells: vec![(
                    (s as u32) % rows as u32,
                    (s as u32) % cols as u32,
                    format!("m{s}"),
                )],
            },
            _ => continue,
        };
        table = TableDelta {
            edits: vec![edit.clone()],
        }
        .apply(&table)?;
        edits.push(edit);
    }
    Ok((table, TableDelta { edits }))
}

proptest! {
    /// Chains of valid tabular edits apply, and the combined delta equals
    /// applying edits one at a time; encoding roundtrips.
    #[test]
    fn tabular_edit_chains(seeds in proptest::collection::vec(any::<u64>(), 1..20)) {
        let mut base = Table::new(vec!["a".into(), "b".into(), "c".into()]);
        for i in 0..5 {
            base.push_row(vec![format!("{i}a"), format!("{i}b"), format!("{i}c")]).unwrap();
        }
        let (expected, delta) = apply_random_edits(base.clone(), &seeds).unwrap();
        prop_assert_eq!(delta.apply(&base).unwrap(), expected.clone());
        let decoded = TableDelta::decode(&delta.encode()).unwrap();
        prop_assert_eq!(decoded.apply(&base).unwrap(), expected.clone());
        // CSV serialization of the result roundtrips too.
        prop_assert_eq!(Table::from_csv(&expected.to_csv()).unwrap(), expected);
    }
}
