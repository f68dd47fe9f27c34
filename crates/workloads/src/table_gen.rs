//! Tabular content generation and the paper's six edit commands.
//!
//! "The files in our synthetic dataset are ordered CSV files (containing
//! tabular data)… Edit commands are a combination of one of the following
//! six instructions – add/delete a set of consecutive rows, add/remove a
//! column, and modify a subset of rows/columns" (§5.1).

use dsv_delta::tabular::{Table, TableDelta, TableEdit};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// Parameters for initial tables and edit scripts.
#[derive(Debug, Clone, Copy)]
pub struct EditParams {
    /// Rows in the initial table.
    pub base_rows: usize,
    /// Columns in the initial table.
    pub base_cols: usize,
    /// Edit commands per commit.
    pub edits_per_commit: usize,
    /// Largest run of rows added/deleted by one command, as a fraction of
    /// the current row count (clamped to at least 1 row).
    pub max_row_change: f64,
    /// Largest number of cells modified by one command, as a fraction of
    /// the current cell count.
    pub max_cells_modified: f64,
    /// Relative probability of column-level commands (row commands and
    /// cell modifications share the rest evenly).
    pub column_op_weight: f64,
}

impl Default for EditParams {
    fn default() -> Self {
        EditParams {
            base_rows: 200,
            base_cols: 6,
            edits_per_commit: 3,
            max_row_change: 0.05,
            max_cells_modified: 0.02,
            column_op_weight: 0.05,
        }
    }
}

/// Deterministic cell content: short, comma/newline-free.
fn cell_value(rng: &mut StdRng) -> String {
    let mut cell = String::with_capacity(9);
    push_cell(&mut cell, rng);
    cell
}

/// Appends one drawn cell, `x` and eight lowercase hex digits, to `out`.
fn push_cell(out: &mut String, rng: &mut StdRng) {
    let v: u32 = rng.gen();
    out.push('x');
    for shift in (0..32).step_by(4).rev() {
        out.push(char::from(b"0123456789abcdef"[(v >> shift) as usize & 0xf]));
    }
}

fn fresh_row(rng: &mut StdRng, cols: usize) -> Vec<String> {
    (0..cols).map(|_| cell_value(rng)).collect()
}

/// Generates the initial (root) table, writing each row's line as its
/// cells are drawn.
pub fn base_table(params: &EditParams, rng: &mut StdRng) -> Table {
    let mut t = Table::new((0..params.base_cols).map(|c| format!("col{c}")).collect());
    let mut line = String::with_capacity(params.base_cols * 10);
    for _ in 0..params.base_rows {
        line.clear();
        for c in 0..params.base_cols {
            if c > 0 {
                line.push(',');
            }
            push_cell(&mut line, rng);
        }
        t.rows.push(Arc::from(line.as_str()));
    }
    t
}

/// One random edit command valid for `table`'s current shape.
pub fn random_edit(params: &EditParams, table: &Table, rng: &mut StdRng) -> TableEdit {
    let rows = table.rows.len();
    let cols = table.columns.len();
    let roll: f64 = rng.gen();
    let col_w = params.column_op_weight;
    // Distribution: column ops get `col_w`; the remaining mass is split
    // between row adds, row deletes, and cell modifications.
    if roll < col_w && cols >= 1 {
        if rng.gen_bool(0.5) && cols >= 2 {
            TableEdit::RemoveColumn {
                at: rng.gen_range(0..cols) as u32,
            }
        } else {
            let name = format!("col_{}", cell_value(rng));
            TableEdit::AddColumn {
                at: rng.gen_range(0..=cols) as u32,
                name,
                values: (0..rows).map(|_| cell_value(rng)).collect(),
            }
        }
    } else {
        let max_run = ((rows as f64 * params.max_row_change) as usize).max(1);
        match rng.gen_range(0..3u8) {
            0 => {
                let count = rng.gen_range(1..=max_run);
                let at = rng.gen_range(0..=rows) as u32;
                TableEdit::AddRows {
                    at,
                    rows: (0..count).map(|_| fresh_row(rng, cols)).collect(),
                }
            }
            1 if rows > max_run => {
                let count = rng.gen_range(1..=max_run);
                let at = rng.gen_range(0..=(rows - count)) as u32;
                TableEdit::DeleteRows {
                    at,
                    count: count as u32,
                }
            }
            _ => {
                let max_cells = ((rows * cols) as f64 * params.max_cells_modified) as usize;
                let count = rng.gen_range(1..=max_cells.max(1));
                let cells = (0..count)
                    .map(|_| {
                        (
                            rng.gen_range(0..rows.max(1)) as u32,
                            rng.gen_range(0..cols.max(1)) as u32,
                            cell_value(rng),
                        )
                    })
                    .collect();
                TableEdit::ModifyCells { cells }
            }
        }
    }
}

/// A commit's worth of edits: `edits_per_commit` commands, each generated
/// against the table state left by the previous one. Returns the delta and
/// the resulting table, which shares every row the edits leave alone with
/// `table`. The table is cloned once and edited in place.
pub fn random_commit(params: &EditParams, table: &Table, rng: &mut StdRng) -> (TableDelta, Table) {
    let mut current = table.clone();
    let mut edits = Vec::with_capacity(params.edits_per_commit);
    for _ in 0..params.edits_per_commit {
        let step = TableDelta {
            edits: vec![random_edit(params, &current, rng)],
        };
        step.apply_in_place(&mut current)
            .expect("generated edits are valid for the current shape");
        edits.extend(step.edits);
    }
    (TableDelta { edits }, current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn base_table_has_requested_shape() {
        let params = EditParams::default();
        let mut rng = StdRng::seed_from_u64(1);
        let t = base_table(&params, &mut rng);
        assert_eq!(t.rows.len(), 200);
        assert_eq!(t.columns.len(), 6);
    }

    #[test]
    fn random_edits_always_apply() {
        let params = EditParams::default();
        let mut rng = StdRng::seed_from_u64(2);
        let mut t = base_table(&params, &mut rng);
        for _ in 0..200 {
            let e = random_edit(&params, &t, &mut rng);
            t = TableDelta { edits: vec![e] }
                .apply(&t)
                .expect("edit applies");
        }
        assert!(!t.columns.is_empty());
    }

    #[test]
    fn commit_roundtrips_through_delta() {
        let params = EditParams::default();
        let mut rng = StdRng::seed_from_u64(3);
        let t = base_table(&params, &mut rng);
        let (delta, next) = random_commit(&params, &t, &mut rng);
        assert_eq!(delta.apply(&t).unwrap(), next);
        assert_eq!(delta.edits.len(), params.edits_per_commit);
    }

    #[test]
    fn generated_history_is_pinned() {
        // FNV-1a over the CSV of 12 versions and the encoded delta of
        // every commit, captured at commit 8be7713: benchmark inputs are
        // made by this generator, so a faster one must draw the same
        // numbers in the same order. Column commands are turned up so the
        // history meets all six.
        let params = EditParams {
            column_op_weight: 0.3,
            ..EditParams::default()
        };
        let mut rng = StdRng::seed_from_u64(2015);
        let mut table = base_table(&params, &mut rng);
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut feed = |bytes: &[u8]| {
            for &b in bytes {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
            }
        };
        feed(&table.to_csv());
        for _ in 1..12 {
            let (delta, next) = random_commit(&params, &table, &mut rng);
            assert_eq!(delta.apply(&table).unwrap(), next);
            feed(&delta.encode());
            feed(&next.to_csv());
            table = next;
        }
        assert_eq!((table.rows.len(), table.columns.len()), (188, 5));
        assert_eq!(hash, 0x7594_ae07_fe32_96d0);
    }

    #[test]
    fn benchmark_shaped_history_is_pinned() {
        // The same kind of pin at the shape the benchmark generates: a
        // 1000 × 10 root, cell commands of up to 0.5 % of the cells, four
        // appended rows per version, one column added and one dropped.
        // Captured at commit 63df90f, before rows were shared.
        let params = EditParams {
            base_rows: 1000,
            base_cols: 10,
            edits_per_commit: 3,
            max_row_change: 0.001,
            max_cells_modified: 0.005,
            column_op_weight: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(31);
        let mut table = base_table(&params, &mut rng);
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut feed = |bytes: &[u8]| {
            for &b in bytes {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
            }
        };
        feed(&table.to_csv());
        for v in 1..16 {
            let (mut delta, mut next) = random_commit(&params, &table, &mut rng);
            let at = next.rows.len() as u32;
            let cols = next.columns.len();
            let mut extra = vec![TableEdit::AddRows {
                at,
                rows: (0..4).map(|_| fresh_row(&mut rng, cols)).collect(),
            }];
            if v == 5 {
                extra.push(TableEdit::AddColumn {
                    at: rng.gen_range(0..=cols) as u32,
                    name: format!("col_{}", cell_value(&mut rng)),
                    values: (0..at as usize + 4).map(|_| cell_value(&mut rng)).collect(),
                });
            } else if v == 10 {
                extra.push(TableEdit::RemoveColumn {
                    at: rng.gen_range(0..cols) as u32,
                });
            }
            next = TableDelta {
                edits: extra.clone(),
            }
            .apply(&next)
            .unwrap();
            delta.edits.extend(extra);
            assert_eq!(delta.apply(&table).unwrap(), next);
            feed(&delta.encode());
            feed(&next.to_csv());
            table = next;
        }
        assert_eq!((table.rows.len(), table.columns.len()), (1068, 10));
        assert_eq!(hash, 0x980b_d123_d0af_ccec);
    }

    #[test]
    fn benchmark_shaped_reveal_is_pinned() {
        // The byte-delta kernel's output over a history of the
        // benchmark's shape: 40 versions of a 1000 × 10 table, each one
        // edit of a parent (mostly the newest) plus four appended rows,
        // one column added and one dropped, three merges. Every pair
        // within 5 hops is diffed both ways, as the optimizer's reveal
        // does, and FNV-1a runs over every encoded delta in pair order.
        // Every cost matrix, plan and object id is made of these bytes.
        // Captured at commit 26fa154, before the scan loop was tightened.
        let params = EditParams {
            base_rows: 1000,
            base_cols: 10,
            edits_per_commit: 3,
            max_row_change: 0.001,
            max_cells_modified: 0.005,
            column_op_weight: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(33);
        let mut tables = vec![base_table(&params, &mut rng)];
        let mut edges = Vec::new();
        for v in 1..40u32 {
            let parent = if rng.gen_bool(0.7) {
                v - 1
            } else {
                rng.gen_range(0..v)
            };
            let (_, mut next) = random_commit(&params, &tables[parent as usize], &mut rng);
            let cols = next.columns.len();
            let mut extra = vec![TableEdit::AddRows {
                at: next.rows.len() as u32,
                rows: (0..4).map(|_| fresh_row(&mut rng, cols)).collect(),
            }];
            if v == 13 {
                extra.push(TableEdit::AddColumn {
                    at: rng.gen_range(0..=cols) as u32,
                    name: format!("col_{}", cell_value(&mut rng)),
                    values: (0..next.rows.len() + 4)
                        .map(|_| cell_value(&mut rng))
                        .collect(),
                });
            } else if v == 26 {
                extra.push(TableEdit::RemoveColumn {
                    at: rng.gen_range(0..cols) as u32,
                });
            }
            next = TableDelta { edits: extra }.apply(&next).unwrap();
            edges.push((parent, v));
            if matches!(v, 16 | 28 | 34) {
                edges.push((rng.gen_range(v / 2..v - 1), v));
            }
            tables.push(next);
        }
        let contents: Vec<Vec<u8>> = tables.iter().map(Table::to_csv).collect();
        let pairs: Vec<(u32, u32)> = dsv_core::pairs_within_hops(40, edges, 5)
            .into_iter()
            .map(|(a, b, _)| (a, b))
            .collect();
        let jobs: Vec<(u32, u32)> = pairs.iter().flat_map(|&(a, b)| [(a, b), (b, a)]).collect();
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut delta_bytes = 0;
        for delta in dsv_delta::bytes_delta::encode_pairs(&contents, &jobs) {
            delta_bytes += delta.len();
            for b in delta {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
            }
        }
        assert_eq!((pairs.len(), delta_bytes), (370, 5_463_657));
        assert_eq!(hash, 0x76bf_1c36_3079_56e7);
    }

    /// Row allocations `delta` makes applied to a table of `rows` rows
    /// that its result still holds: each row it adds, and each inherited
    /// row it edits, once — a cell command rewrites the lines it touches,
    /// a column command every line.
    fn rows_made(delta: &TableDelta, rows: usize) -> usize {
        // `true`: a row this delta allocated (added, or already copied).
        let mut made = vec![false; rows];
        for edit in &delta.edits {
            match edit {
                TableEdit::AddRows { at, rows } => {
                    let at = *at as usize;
                    made.splice(at..at, rows.iter().map(|_| true));
                }
                TableEdit::DeleteRows { at, count } => {
                    made.drain(*at as usize..(*at + *count) as usize);
                }
                TableEdit::AddColumn { .. } | TableEdit::RemoveColumn { .. } => made.fill(true),
                TableEdit::ModifyCells { cells } => {
                    for &(r, _, _) in cells {
                        made[r as usize] = true;
                    }
                }
            }
        }
        made.into_iter().filter(|&m| m).count()
    }

    #[test]
    fn a_history_allocates_only_the_rows_its_deltas_create_or_copy() {
        // A count, not a timing: with every version alive, the distinct
        // row allocations are the root's rows plus what each version's
        // delta adds or copies — an unedited row is never duplicated.
        let params = EditParams::default();
        let mut rng = StdRng::seed_from_u64(31);
        let mut parents = StdRng::seed_from_u64(32);
        let root = base_table(&params, &mut rng);
        let copy = root.clone();
        assert!(root
            .rows
            .iter()
            .zip(&copy.rows)
            .all(|(a, b)| Arc::ptr_eq(a, b)));
        let mut expected = root.rows.len();
        let mut tables = vec![root];
        let mut column_commands = 0;
        for v in 1..40 {
            // Mostly the newest version, sometimes an older one: siblings
            // share rows too.
            let parent = if parents.gen_bool(0.7) {
                v - 1
            } else {
                parents.gen_range(0..v)
            };
            let (delta, next) = random_commit(&params, &tables[parent], &mut rng);
            expected += rows_made(&delta, tables[parent].rows.len());
            column_commands += delta
                .edits
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        TableEdit::AddColumn { .. } | TableEdit::RemoveColumn { .. }
                    )
                })
                .count();
            tables.push(next);
        }
        let distinct: HashSet<*const str> = tables
            .iter()
            .flat_map(|t| t.rows.iter().map(Arc::as_ptr))
            .collect();
        assert!(column_commands > 0, "the history meets the column commands");
        assert_eq!(distinct.len(), expected);
    }

    #[test]
    fn deterministic_per_seed() {
        let params = EditParams::default();
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        let t1 = base_table(&params, &mut r1);
        let t2 = base_table(&params, &mut r2);
        assert_eq!(t1, t2);
        let (d1, _) = random_commit(&params, &t1, &mut r1);
        let (d2, _) = random_commit(&params, &t2, &mut r2);
        assert_eq!(d1, d2);
    }

    #[test]
    fn csv_cells_are_always_safe() {
        let params = EditParams::default();
        let mut rng = StdRng::seed_from_u64(4);
        let mut t = base_table(&params, &mut rng);
        for _ in 0..50 {
            let e = random_edit(&params, &t, &mut rng);
            t = TableDelta { edits: vec![e] }.apply(&t).unwrap();
        }
        // to_csv debug-asserts safety; roundtrip proves it end-to-end.
        let parsed = Table::from_csv(&t.to_csv()).unwrap();
        assert_eq!(parsed, t);
    }
}
