//! Pins a generated history of the benchmark's shape: what every
//! benchmark input is made of.
//!
//! A 1000 × 10 root, 40 versions on one line, each a `random_commit` of
//! its parent plus four appended rows, one drawn column added at v13 and
//! one dropped at v26, seed 2015. An FNV-1a digest runs over every
//! version's CSV and every commit's encoded delta, so a faster generator
//! must draw the same numbers in the same order and write the same
//! bytes. The count of rows each version shares with its parent (the
//! same allocation, not only equal content) is pinned too: an edit
//! copies only the rows it touches. Captured at commit 294f3bd, while a
//! row was still a vector of cells.

use dsv_delta::tabular::{Table, TableDelta, TableEdit};
use dsv_workloads::table_gen::{base_table, random_commit, EditParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

/// A cell in the generator's format.
fn cell(rng: &mut StdRng) -> String {
    format!("x{:08x}", rng.gen::<u32>())
}

/// Rows of `child` that are the very allocations of rows of `parent`.
fn shared_rows(parent: &Table, child: &Table) -> usize {
    let held: HashSet<*const u8> = parent
        .rows
        .iter()
        .map(|r| Arc::as_ptr(r).cast::<u8>())
        .collect();
    child
        .rows
        .iter()
        .filter(|r| held.contains(&Arc::as_ptr(r).cast::<u8>()))
        .count()
}

#[test]
fn a_benchmark_shaped_history_is_pinned() {
    let params = EditParams {
        base_rows: 1000,
        base_cols: 10,
        edits_per_commit: 3,
        max_row_change: 0.001,
        max_cells_modified: 0.005,
        column_op_weight: 0.0,
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
    let mut shared = Vec::new();
    for v in 1..40 {
        let (mut delta, next) = random_commit(&params, &table, &mut rng);
        let cols = next.columns.len();
        let mut extra = vec![TableEdit::AddRows {
            at: next.rows.len() as u32,
            rows: (0..4)
                .map(|_| (0..cols).map(|_| cell(&mut rng)).collect())
                .collect(),
        }];
        if v == 13 {
            extra.push(TableEdit::AddColumn {
                at: rng.gen_range(0..=cols) as u32,
                name: format!("col_{}", cell(&mut rng)),
                values: (0..next.rows.len() + 4).map(|_| cell(&mut rng)).collect(),
            });
        } else if v == 26 {
            extra.push(TableEdit::RemoveColumn {
                at: rng.gen_range(0..cols) as u32,
            });
        }
        let next = TableDelta {
            edits: extra.clone(),
        }
        .apply(&next)
        .unwrap();
        delta.edits.extend(extra);
        assert_eq!(delta.apply(&table).unwrap(), next, "v{v}");
        feed(&delta.encode());
        feed(&next.to_csv());
        shared.push(shared_rows(&table, &next));
        table = next;
    }
    assert_eq!((table.rows.len(), table.columns.len()), (1167, 10));
    // Column commands at v13 and v26 copy every row.
    assert_eq!(
        shared,
        [
            999, 966, 1006, 1008, 977, 1021, 1012, 1031, 1030, 1039, 1007, 1046, 0, 1031, 1022,
            1065, 1069, 1040, 1080, 1068, 1069, 1089, 1091, 1053, 1032, 0, 1088, 1122, 1092, 1132,
            1111, 1090, 1141, 1098, 1054, 1116, 1154, 1145, 1147,
        ]
    );
    assert_eq!(hash, 0xf692_9c29_6281_2017);
}
