//! Tabular content generation and the paper's six edit commands.
//!
//! "The files in our synthetic dataset are ordered CSV files (containing
//! tabular data)… Edit commands are a combination of one of the following
//! six instructions – add/delete a set of consecutive rows, add/remove a
//! column, and modify a subset of rows/columns" (§5.1).

use dsv_delta::tabular::{Table, TableDelta, TableEdit};
use rand::rngs::StdRng;
use rand::Rng;

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
    let v: u32 = rng.gen();
    format!("x{v:08x}")
}

fn fresh_row(rng: &mut StdRng, cols: usize) -> Vec<String> {
    (0..cols).map(|_| cell_value(rng)).collect()
}

/// Generates the initial (root) table.
pub fn base_table(params: &EditParams, rng: &mut StdRng) -> Table {
    let mut t = Table::new((0..params.base_cols).map(|c| format!("col{c}")).collect());
    for _ in 0..params.base_rows {
        let row = fresh_row(rng, params.base_cols);
        t.push_row(row).expect("arity matches by construction");
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
/// the resulting table.
pub fn random_commit(params: &EditParams, table: &Table, rng: &mut StdRng) -> (TableDelta, Table) {
    let mut current = table.clone();
    let mut edits = Vec::with_capacity(params.edits_per_commit);
    for _ in 0..params.edits_per_commit {
        let edit = random_edit(params, &current, rng);
        current = TableDelta {
            edits: vec![edit.clone()],
        }
        .apply(&current)
        .expect("generated edits are valid for the current shape");
        edits.push(edit);
    }
    (TableDelta { edits }, current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

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
