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

/// A table as a plain cell grid: the reference a table of line rows
/// must read as after every edit.
#[derive(Debug, Clone, PartialEq)]
struct Grid {
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Grid {
    /// `edit` applied cell by cell, or the error it must fail with.
    fn apply(&self, edit: &TableEdit) -> Result<Grid, dsv_delta::tabular::TableError> {
        use dsv_delta::tabular::TableError::{OutOfRange, Ragged};
        let mut g = self.clone();
        match edit.clone() {
            TableEdit::AddRows { at, rows } => {
                if at as usize > g.rows.len() {
                    return Err(OutOfRange);
                }
                if rows.iter().any(|r| r.len() != g.columns.len()) {
                    return Err(Ragged);
                }
                g.rows.splice(at as usize..at as usize, rows);
            }
            TableEdit::DeleteRows { at, count } => {
                let end = at as usize + count as usize;
                if end > g.rows.len() {
                    return Err(OutOfRange);
                }
                g.rows.drain(at as usize..end);
            }
            TableEdit::AddColumn { at, name, values } => {
                if at as usize > g.columns.len() || values.len() != g.rows.len() {
                    return Err(OutOfRange);
                }
                g.columns.insert(at as usize, name);
                for (row, v) in g.rows.iter_mut().zip(values) {
                    row.insert(at as usize, v);
                }
            }
            TableEdit::RemoveColumn { at } => {
                if at as usize >= g.columns.len() {
                    return Err(OutOfRange);
                }
                g.columns.remove(at as usize);
                for row in &mut g.rows {
                    row.remove(at as usize);
                }
            }
            TableEdit::ModifyCells { cells } => {
                for (r, c, v) in cells {
                    if r as usize >= g.rows.len() || c as usize >= g.columns.len() {
                        return Err(OutOfRange);
                    }
                    g.rows[r as usize][c as usize] = v;
                }
            }
        }
        Ok(g)
    }

    /// Whether `table` holds exactly this grid: the same columns, and
    /// every row the line of its cells.
    fn is(&self, table: &Table) -> bool {
        table.columns == self.columns
            && table.rows.len() == self.rows.len()
            && table
                .rows
                .iter()
                .zip(&self.rows)
                .all(|(line, cells)| **line == cells.join(","))
    }
}

/// Applies `edits` one at a time to `base` through [`Table`]'s line rows
/// and through [`Grid`], which must agree edit for edit: `apply`,
/// `apply_in_place` and a CSV round trip give the grid's table, and an
/// edit the grid refuses fails with the grid's error and leaves its
/// input as it was. The edits that applied then do the same as one delta.
fn agrees_with_the_grid(base: &Table, edits: &[TableEdit]) -> Result<(), String> {
    let mut grid = Grid {
        columns: base.columns.clone(),
        rows: base
            .rows
            .iter()
            .map(|r| match base.columns.len() {
                0 => Vec::new(),
                _ => r.split(',').map(str::to_owned).collect(),
            })
            .collect(),
    };
    prop_assert!(grid.is(base));
    let mut table = base.clone();
    let mut applied = Vec::new();
    for edit in edits {
        let step = TableDelta {
            edits: vec![edit.clone()],
        };
        let mut in_place = table.clone();
        let result = step.apply_in_place(&mut in_place);
        match grid.apply(edit) {
            Err(e) => {
                prop_assert_eq!(step.apply(&table), Err(e.clone()), "{:?}", edit);
                prop_assert_eq!(result, Err(e), "{:?}", edit);
                prop_assert_eq!(&in_place, &table, "a refused edit changed its input");
            }
            Ok(next) => {
                prop_assert_eq!(result, Ok(()), "{:?}", edit);
                prop_assert!(next.is(&in_place), "{:?} in place: {:?}", edit, in_place);
                prop_assert_eq!(step.apply(&table).unwrap(), in_place.clone());
                grid = next;
                table = in_place;
                applied.push(edit.clone());
            }
        }
        let csv = table.to_csv();
        let mut lines = vec![grid.columns.join(",")];
        lines.extend(grid.rows.iter().map(|r| r.join(",")));
        prop_assert_eq!(&csv, &(lines.join("\n") + "\n").into_bytes());
        let parsed = Table::from_csv(&csv).unwrap();
        prop_assert_eq!(parsed.to_csv(), csv);
        // With no column left, a row's line is empty and reads back as
        // one empty cell, as the CSV itself does.
        if !grid.columns.is_empty() {
            prop_assert_eq!(&parsed, &table);
        }
    }
    // The edits that applied, as one delta and through its encoding; an
    // edit out of range at its end leaves the input untouched.
    let delta = TableDelta { edits: applied };
    prop_assert!(grid.is(&delta.apply(base).unwrap()));
    prop_assert!(grid.is(&TableDelta::decode(&delta.encode())
        .unwrap()
        .apply(base)
        .unwrap()));
    let mut in_place = base.clone();
    delta.apply_in_place(&mut in_place).unwrap();
    prop_assert!(grid.is(&in_place));
    let mut spoiled = delta;
    spoiled.edits.push(TableEdit::DeleteRows {
        at: grid.rows.len() as u32,
        count: 1,
    });
    let mut untouched = base.clone();
    prop_assert!(spoiled.apply_in_place(&mut untouched).is_err());
    prop_assert_eq!(&untouched, base);
    Ok(())
}

/// An edit drawn from `word` against a `rows` × `cols` table; about one
/// in seven is out of range or ragged. Cells are sometimes empty, so
/// lines hold empty cells at either end and between commas.
fn edit_from(word: u64, rows: usize, cols: usize) -> TableEdit {
    let pick = |n: usize| (word >> 8) as usize % n.max(1);
    let cell = |k: u64| {
        if (word >> k).is_multiple_of(5) {
            String::new()
        } else {
            format!("w{}", (word >> k) % 1000)
        }
    };
    let (rows32, cols32) = (rows as u32, cols as u32);
    match word % 14 {
        0 | 1 => TableEdit::AddRows {
            at: pick(rows + 1) as u32,
            rows: (0..1 + word % 2)
                .map(|r| (0..cols as u64).map(|c| cell(16 + r + c)).collect())
                .collect(),
        },
        2 if rows > 0 => {
            let at = pick(rows);
            TableEdit::DeleteRows {
                at: at as u32,
                count: 1 + ((word >> 20) as usize % (rows - at)) as u32,
            }
        }
        3 | 4 => TableEdit::AddColumn {
            // At the start, at the end, or between.
            at: match (word >> 4) % 3 {
                0 => 0,
                1 => cols32,
                _ => pick(cols + 1) as u32,
            },
            name: format!("n{}", word % 97),
            values: (0..rows as u64).map(|r| cell(12 + r % 40)).collect(),
        },
        5 | 6 if cols > 0 => TableEdit::RemoveColumn {
            // The first, the last, or any (the only one, if just one).
            at: match (word >> 4) % 3 {
                0 => 0,
                1 => cols32 - 1,
                _ => pick(cols) as u32,
            },
        },
        7..=11 if rows > 0 && cols > 0 => {
            // Two cells of one row, then one anywhere.
            let r = pick(rows) as u32;
            let c = |k: u64| ((word >> k) % cols as u64) as u32;
            TableEdit::ModifyCells {
                cells: vec![
                    (r, c(24), cell(30)),
                    (r, c(36), cell(42)),
                    (((word >> 48) % rows as u64) as u32, c(54), cell(60)),
                ],
            }
        }
        12 | 13 => match (word >> 4) % 7 {
            0 => TableEdit::AddRows {
                at: rows32 + 1,
                rows: vec![],
            },
            1 => TableEdit::AddRows {
                at: 0,
                rows: vec![vec!["r".into(); cols + 1]],
            },
            2 => TableEdit::DeleteRows {
                at: rows32,
                count: 1,
            },
            3 => TableEdit::AddColumn {
                at: cols32 + 1,
                name: "late".into(),
                values: vec![String::new(); rows],
            },
            4 => TableEdit::AddColumn {
                at: 0,
                name: "short".into(),
                values: vec!["v".into(); rows + 1],
            },
            5 => TableEdit::RemoveColumn { at: cols32 },
            _ => TableEdit::ModifyCells {
                cells: vec![(0, 0, "ok".into()), (rows32, 0, "x".into())],
            },
        },
        _ => TableEdit::ModifyCells { cells: vec![] },
    }
}

proptest! {
    /// Random edit sequences, valid and not, give through line rows
    /// exactly what they give through a cell grid.
    #[test]
    fn line_rows_agree_with_a_cell_grid(
        (cols, rows) in (0usize..4, 0usize..6),
        words in proptest::collection::vec(any::<u64>(), 1..24),
    ) {
        let mut base = Table::new((0..cols).map(|c| format!("c{c}")).collect());
        for r in 0..rows {
            let cell = |c: usize| match (r + c) % 4 {
                0 => String::new(),
                _ => format!("{r}.{c}"),
            };
            base.push_row((0..cols).map(cell).collect()).unwrap();
        }
        // The shape each valid edit leaves, for the next one to be drawn
        // against.
        let mut shape = Grid {
            columns: base.columns.clone(),
            rows: vec![vec![String::new(); cols]; rows],
        };
        let mut edits = Vec::new();
        for &word in &words {
            let edit = edit_from(word, shape.rows.len(), shape.columns.len());
            if let Ok(next) = shape.apply(&edit) {
                shape = next;
            }
            edits.push(edit);
        }
        agrees_with_the_grid(&base, &edits)?;
    }
}

#[test]
fn line_rows_agree_with_a_cell_grid_on_the_edge_cases() {
    let mut base = Table::new(vec!["a".into(), "b".into(), "c".into()]);
    for r in 0..3 {
        base.push_row(vec![format!("{r}a"), String::new(), format!("{r}c")])
            .unwrap();
    }
    let add_column = |at: u32, name: &str| TableEdit::AddColumn {
        at,
        name: name.into(),
        values: (0..3).map(|r| format!("{name}{r}")).collect(),
    };
    let edits = [
        add_column(0, "first"),
        add_column(4, "last"),
        TableEdit::ModifyCells {
            cells: vec![(1, 0, "x".into()), (1, 4, "y".into()), (1, 0, "".into())],
        },
        TableEdit::RemoveColumn { at: 0 },
        TableEdit::RemoveColumn { at: 3 },
        TableEdit::RemoveColumn { at: 9 },
        TableEdit::ModifyCells {
            cells: vec![(0, 0, "ok".into()), (3, 0, "past the end".into())],
        },
        TableEdit::RemoveColumn { at: 1 },
        TableEdit::RemoveColumn { at: 0 },
        TableEdit::RemoveColumn { at: 0 },
        // The only column left.
        TableEdit::RemoveColumn { at: 0 },
        TableEdit::RemoveColumn { at: 0 },
        TableEdit::ModifyCells {
            cells: vec![(0, 0, "none".into())],
        },
        TableEdit::AddRows {
            at: 3,
            rows: vec![vec![]],
        },
        add_column(0, "again"),
        TableEdit::AddRows {
            at: 5,
            rows: vec![vec!["far".into()]],
        },
        TableEdit::DeleteRows { at: 2, count: 3 },
    ];
    agrees_with_the_grid(&base, &edits).unwrap();
}
