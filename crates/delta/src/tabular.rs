//! Cell-level deltas for tabular (CSV-like) data.
//!
//! "For tabular data (e.g., relational tables), recording the differences
//! at the cell level is yet another type of delta" (§2.1). The paper's
//! synthetic datasets are ordered CSV files mutated by six edit commands —
//! add/delete consecutive rows, add/remove a column, modify a subset of
//! rows/columns. [`TableDelta`] represents exactly those commands, so the
//! workload generator can both *produce* version contents and *know* the
//! precise delta between adjacent versions.
//!
//! # Rows are lines
//!
//! A [`Table`] holds each row as its CSV line — its cells joined by `,`,
//! without the newline — behind an [`Arc`], so cloning a table copies row
//! pointers, not text: a generated history keeps each unedited row once
//! however many versions contain it (as OrpheusDB stores versions as sets
//! of shared record ids), and [`Table::to_csv`] copies each row in one
//! piece. A row's cells are found by splitting its line at the commas,
//! `columns.len()` of them. [`TableDelta::apply_in_place`] is the one
//! edit path ([`TableDelta::apply`] runs it on a clone). An edit never
//! writes into a line; it replaces the lines it changes — `AddRows`
//! joins each new row once, `ModifyCells` splices the new value over the
//! cell's bytes, and a column command rewrites every line, since every
//! row changes — so no edit can reach another version through a row they
//! share.
//!
//! [`Table::to_csv`] writes every version out in full and must keep both
//! its exact bytes and its growth: a `Vec::new()` that doubles, as it did
//! when it was written a cell at a time. An exact-size buffer was tried
//! once and cut a serving benchmark's requests/s from ~27 k to ~8 k. A
//! ~115 KB CSV doubles into a 128 KiB buffer, which glibc maps with
//! `mmap`; freeing it raises glibc's dynamic mmap threshold, so the
//! server's later buffers of that size come from the heap. An exact-size
//! buffer stays under the threshold, the threshold never rises, and every
//! large reply buffer becomes a fresh `mmap` / `munmap` pair.

use dsv_compress::varint::{decode_u64, encode_u64};
use std::ops::Range;
use std::sync::Arc;

/// An in-memory ordered table: a header row plus data rows of equal arity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Column names.
    pub columns: Vec<String>,
    /// Rows, each its CSV line (`columns.len()` cells joined by `,`, no
    /// newline). A row may be shared with other tables (see
    /// [Rows are lines](self#rows-are-lines)).
    pub rows: Vec<Arc<str>>,
}

/// Errors applying a [`TableDelta`] or parsing a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// Row/column index out of range for the table being edited.
    OutOfRange,
    /// A row had the wrong number of cells.
    Ragged,
    /// Malformed serialized form.
    Malformed,
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::OutOfRange => write!(f, "row/column index out of range"),
            TableError::Ragged => write!(f, "row arity does not match columns"),
            TableError::Malformed => write!(f, "malformed table encoding"),
        }
    }
}

impl std::error::Error for TableError {}

/// Cells are never quoted, so a cell must hold no comma or newline
/// (asserted in debug builds).
fn debug_check_cell(cell: &str) {
    debug_assert!(
        !cell.contains(',') && !cell.contains('\n'),
        "cells must be comma/newline free"
    );
}

/// `cells` joined by `,`: a row's line, written through `buf`.
fn line<S: AsRef<str>>(buf: &mut String, cells: &[S]) -> Arc<str> {
    buf.clear();
    for (i, c) in cells.iter().enumerate() {
        debug_check_cell(c.as_ref());
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(c.as_ref());
    }
    Arc::from(buf.as_str())
}

/// `parts` concatenated, written through `buf`: an edited line.
fn rebuilt(buf: &mut String, parts: &[&str]) -> Arc<str> {
    buf.clear();
    parts.iter().for_each(|p| buf.push_str(p));
    Arc::from(buf.as_str())
}

/// The byte span of cell `c` in a row's `line`; `c` must be below the
/// row's cell count.
fn cell_span(line: &str, c: usize) -> Range<usize> {
    let mut start = 0;
    for _ in 0..c {
        start += line[start..].find(',').expect("cell index within the row") + 1;
    }
    let end = line[start..].find(',').map_or(line.len(), |i| start + i);
    start..end
}

impl Table {
    /// Creates an empty table with the given columns.
    pub fn new(columns: Vec<String>) -> Self {
        Table {
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Errors
    /// Returns [`TableError::Ragged`] on arity mismatch.
    pub fn push_row(&mut self, row: Vec<String>) -> Result<(), TableError> {
        if row.len() != self.columns.len() {
            return Err(TableError::Ragged);
        }
        self.rows.push(line(&mut String::new(), &row));
        Ok(())
    }

    /// Serializes to CSV bytes (no quoting: generator cells never contain
    /// commas or newlines; asserted in debug builds).
    pub fn to_csv(&self) -> Vec<u8> {
        // The header goes a cell at a time into a `Vec::new()`, and the
        // buffer then doubles whenever the next row would overflow it:
        // the capacities a cell-at-a-time writer reached (module docs).
        let mut out = Vec::new();
        for (i, c) in self.columns.iter().enumerate() {
            debug_check_cell(c);
            if i > 0 {
                out.push(b',');
            }
            out.extend_from_slice(c.as_bytes());
        }
        out.push(b'\n');
        for row in &self.rows {
            let needed = out.len() + row.len() + 1;
            if needed > out.capacity() {
                let mut capacity = out.capacity();
                while capacity < needed {
                    capacity *= 2;
                }
                out.reserve_exact(capacity - out.len());
            }
            out.extend_from_slice(row.as_bytes());
            out.push(b'\n');
        }
        out
    }

    /// Parses CSV bytes produced by [`to_csv`](Self::to_csv).
    pub fn from_csv(data: &[u8]) -> Result<Self, TableError> {
        let text = std::str::from_utf8(data).map_err(|_| TableError::Malformed)?;
        let mut lines = text.lines();
        let header = lines.next().ok_or(TableError::Malformed)?;
        let columns: Vec<String> = header.split(',').map(str::to_owned).collect();
        let mut rows = Vec::new();
        for row in lines {
            if row.bytes().filter(|&b| b == b',').count() + 1 != columns.len() {
                return Err(TableError::Ragged);
            }
            rows.push(Arc::from(row));
        }
        Ok(Table { columns, rows })
    }
}

/// One of the paper's six edit commands (§5.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableEdit {
    /// Insert `rows` starting at row index `at`.
    AddRows {
        /// Insertion index (`<= rows.len()` of the table).
        at: u32,
        /// Rows to insert.
        rows: Vec<Vec<String>>,
    },
    /// Delete `count` consecutive rows starting at `at`.
    DeleteRows {
        /// First deleted row.
        at: u32,
        /// Number of rows deleted.
        count: u32,
    },
    /// Insert a column at position `at` with the given name and values
    /// (one per existing row).
    AddColumn {
        /// Insertion position in the column list.
        at: u32,
        /// New column name.
        name: String,
        /// One value per row.
        values: Vec<String>,
    },
    /// Remove the column at position `at`; the removed cells are recorded
    /// nowhere (the delta is directional).
    RemoveColumn {
        /// Column index.
        at: u32,
    },
    /// Overwrite individual cells.
    ModifyCells {
        /// `(row, column, new_value)` triples.
        cells: Vec<(u32, u32, String)>,
    },
}

/// A directional cell-level delta: a sequence of [`TableEdit`]s.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TableDelta {
    /// Edits applied in order.
    pub edits: Vec<TableEdit>,
}

impl TableDelta {
    /// Applies the edits to `table`, producing the target version. The
    /// result shares every row no edit touches with `table` (see
    /// [Rows are lines](self#rows-are-lines)).
    pub fn apply(&self, table: &Table) -> Result<Table, TableError> {
        let mut t = table.clone();
        self.apply_in_place(&mut t)?;
        Ok(t)
    }

    /// Applies the edits to `table` itself, replacing only the rows they
    /// change. The edits are checked against the shape each leaves before
    /// any is applied, so on an error `table` is left as it was.
    pub fn apply_in_place(&self, table: &mut Table) -> Result<(), TableError> {
        self.check(table.rows.len(), table.columns.len())?;
        let mut buf = String::new();
        for edit in &self.edits {
            match edit {
                TableEdit::AddRows { at, rows } => {
                    let at = *at as usize;
                    table
                        .rows
                        .splice(at..at, rows.iter().map(|r| line(&mut buf, r)));
                }
                TableEdit::DeleteRows { at, count } => {
                    let at = *at as usize;
                    table.rows.drain(at..at + *count as usize);
                }
                TableEdit::AddColumn { at, name, values } => {
                    let (at, cols) = (*at as usize, table.columns.len());
                    for (row, v) in table.rows.iter_mut().zip(values) {
                        debug_check_cell(v);
                        *row = if cols == 0 {
                            rebuilt(&mut buf, &[v])
                        } else if at == cols {
                            rebuilt(&mut buf, &[row, ",", v])
                        } else {
                            let (head, tail) = row.split_at(cell_span(row, at).start);
                            rebuilt(&mut buf, &[head, v, ",", tail])
                        };
                    }
                    table.columns.insert(at, name.clone());
                }
                TableEdit::RemoveColumn { at } => {
                    let (at, cols) = (*at as usize, table.columns.len());
                    for row in &mut table.rows {
                        let cell = cell_span(row, at);
                        // The cell and one comma beside it, if any.
                        let gone = if cols == 1 {
                            cell
                        } else if at + 1 < cols {
                            cell.start..cell.end + 1
                        } else {
                            cell.start - 1..cell.end
                        };
                        *row = rebuilt(&mut buf, &[&row[..gone.start], &row[gone.end..]]);
                    }
                    table.columns.remove(at);
                }
                TableEdit::ModifyCells { cells } => {
                    for (r, c, v) in cells {
                        debug_check_cell(v);
                        let row = &mut table.rows[*r as usize];
                        let cell = cell_span(row, *c as usize);
                        *row = rebuilt(&mut buf, &[&row[..cell.start], v, &row[cell.end..]]);
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks every edit against the shape (`rows` × `cols`) the edits
    /// before it leave: the first one that does not fit is the error.
    fn check(&self, mut rows: usize, mut cols: usize) -> Result<(), TableError> {
        for edit in &self.edits {
            match edit {
                TableEdit::AddRows { at, rows: new } => {
                    if *at as usize > rows {
                        return Err(TableError::OutOfRange);
                    }
                    if new.iter().any(|r| r.len() != cols) {
                        return Err(TableError::Ragged);
                    }
                    rows += new.len();
                }
                TableEdit::DeleteRows { at, count } => {
                    if *at as usize + *count as usize > rows {
                        return Err(TableError::OutOfRange);
                    }
                    rows -= *count as usize;
                }
                TableEdit::AddColumn { at, values, .. } => {
                    if *at as usize > cols || values.len() != rows {
                        return Err(TableError::OutOfRange);
                    }
                    cols += 1;
                }
                TableEdit::RemoveColumn { at } => {
                    if *at as usize >= cols {
                        return Err(TableError::OutOfRange);
                    }
                    cols -= 1;
                }
                TableEdit::ModifyCells { cells } => {
                    if cells
                        .iter()
                        .any(|&(r, c, _)| r as usize >= rows || c as usize >= cols)
                    {
                        return Err(TableError::OutOfRange);
                    }
                }
            }
        }
        Ok(())
    }

    /// Serialized size in bytes — the cell-level storage cost `Δ`.
    pub fn encoded_size(&self) -> usize {
        self.encode().len()
    }

    /// Compact binary encoding (varint-tagged).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        encode_u64(self.edits.len() as u64, &mut out);
        let put_str = |s: &str, out: &mut Vec<u8>| {
            encode_u64(s.len() as u64, out);
            out.extend_from_slice(s.as_bytes());
        };
        for e in &self.edits {
            match e {
                TableEdit::AddRows { at, rows } => {
                    encode_u64(0, &mut out);
                    encode_u64(u64::from(*at), &mut out);
                    encode_u64(rows.len() as u64, &mut out);
                    for row in rows {
                        encode_u64(row.len() as u64, &mut out);
                        for c in row {
                            put_str(c, &mut out);
                        }
                    }
                }
                TableEdit::DeleteRows { at, count } => {
                    encode_u64(1, &mut out);
                    encode_u64(u64::from(*at), &mut out);
                    encode_u64(u64::from(*count), &mut out);
                }
                TableEdit::AddColumn { at, name, values } => {
                    encode_u64(2, &mut out);
                    encode_u64(u64::from(*at), &mut out);
                    put_str(name, &mut out);
                    encode_u64(values.len() as u64, &mut out);
                    for v in values {
                        put_str(v, &mut out);
                    }
                }
                TableEdit::RemoveColumn { at } => {
                    encode_u64(3, &mut out);
                    encode_u64(u64::from(*at), &mut out);
                }
                TableEdit::ModifyCells { cells } => {
                    encode_u64(4, &mut out);
                    encode_u64(cells.len() as u64, &mut out);
                    for (r, c, v) in cells {
                        encode_u64(u64::from(*r), &mut out);
                        encode_u64(u64::from(*c), &mut out);
                        put_str(v, &mut out);
                    }
                }
            }
        }
        out
    }

    /// Parses an encoding produced by [`encode`](Self::encode).
    ///
    /// Input is untrusted: a malformed stream fails with
    /// [`TableError::Malformed`], never aborts, panics or truncates. A
    /// declared count is bounded by the bytes left (every counted item
    /// takes at least one), so no count reserves more than the input
    /// could hold, and an index must fit the `u32` it decodes into.
    pub fn decode(input: &[u8]) -> Result<Self, TableError> {
        let mut pos = 0usize;
        let get = |input: &[u8], pos: &mut usize| -> Result<u64, TableError> {
            let (v, used) = decode_u64(&input[*pos..]).ok_or(TableError::Malformed)?;
            *pos += used;
            Ok(v)
        };
        let get_index = |input: &[u8], pos: &mut usize| -> Result<u32, TableError> {
            u32::try_from(get(input, pos)?).map_err(|_| TableError::Malformed)
        };
        let get_count = |input: &[u8], pos: &mut usize| -> Result<usize, TableError> {
            let count = get(input, pos)?;
            usize::try_from(count)
                .ok()
                .filter(|&count| count <= input.len() - *pos)
                .ok_or(TableError::Malformed)
        };
        let get_str = |input: &[u8], pos: &mut usize| -> Result<String, TableError> {
            let len = get(input, pos)?;
            let end = usize::try_from(len)
                .ok()
                .and_then(|len| pos.checked_add(len))
                .filter(|&end| end <= input.len())
                .ok_or(TableError::Malformed)?;
            let s = std::str::from_utf8(&input[*pos..end])
                .map_err(|_| TableError::Malformed)?
                .to_owned();
            *pos = end;
            Ok(s)
        };
        let count = get_count(input, &mut pos)?;
        let mut edits = Vec::with_capacity(count);
        for _ in 0..count {
            let tag = get(input, &mut pos)?;
            edits.push(match tag {
                0 => {
                    let at = get_index(input, &mut pos)?;
                    let nrows = get_count(input, &mut pos)?;
                    let mut rows = Vec::with_capacity(nrows);
                    for _ in 0..nrows {
                        let ncells = get_count(input, &mut pos)?;
                        let mut row = Vec::with_capacity(ncells);
                        for _ in 0..ncells {
                            row.push(get_str(input, &mut pos)?);
                        }
                        rows.push(row);
                    }
                    TableEdit::AddRows { at, rows }
                }
                1 => TableEdit::DeleteRows {
                    at: get_index(input, &mut pos)?,
                    count: get_index(input, &mut pos)?,
                },
                2 => {
                    let at = get_index(input, &mut pos)?;
                    let name = get_str(input, &mut pos)?;
                    let nvals = get_count(input, &mut pos)?;
                    let mut values = Vec::with_capacity(nvals);
                    for _ in 0..nvals {
                        values.push(get_str(input, &mut pos)?);
                    }
                    TableEdit::AddColumn { at, name, values }
                }
                3 => TableEdit::RemoveColumn {
                    at: get_index(input, &mut pos)?,
                },
                4 => {
                    let ncells = get_count(input, &mut pos)?;
                    let mut cells = Vec::with_capacity(ncells);
                    for _ in 0..ncells {
                        let r = get_index(input, &mut pos)?;
                        let c = get_index(input, &mut pos)?;
                        cells.push((r, c, get_str(input, &mut pos)?));
                    }
                    TableEdit::ModifyCells { cells }
                }
                _ => return Err(TableError::Malformed),
            });
        }
        Ok(TableDelta { edits })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A row's cells.
    fn cells(row: &str) -> Vec<&str> {
        row.split(',').collect()
    }

    fn sample() -> Table {
        let mut t = Table::new(vec!["id".into(), "name".into(), "age".into()]);
        for i in 0..5 {
            t.push_row(vec![
                i.to_string(),
                format!("user{i}"),
                (20 + i).to_string(),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn csv_roundtrip() {
        let t = sample();
        let csv = t.to_csv();
        let t2 = Table::from_csv(&csv).unwrap();
        assert_eq!(t, t2);
        assert_eq!(t2.to_csv(), csv);
    }

    /// The CSV of `t` written a cell at a time into a `Vec::new()`, as
    /// [`Table::to_csv`] was before rows were lines.
    fn csv_a_cell_at_a_time(t: &Table) -> Vec<u8> {
        let mut out = Vec::new();
        let header = t.columns.join(",");
        for row in std::iter::once(header.as_str()).chain(t.rows.iter().map(|r| &**r)) {
            for (i, c) in row.split(',').enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                out.extend_from_slice(c.as_bytes());
            }
            out.push(b'\n');
        }
        out
    }

    #[test]
    fn to_csv_grows_its_buffer_as_a_cell_at_a_time_writer_did() {
        // The buffer's final capacity decides which of glibc's arenas a
        // version's CSV, and the serving buffers after it, come from
        // (module docs): the same bytes in the same capacity.
        let mut wide = Table::new((0..10).map(|c| format!("col{c}")).collect());
        for r in 0..1000u32 {
            let row = (0..10u32)
                .map(|c| format!("x{:08x}", (r * 10 + c).wrapping_mul(0x9e37_79b9)))
                .collect();
            wide.push_row(row).unwrap();
        }
        // A drawn column name first: the header then grows off the powers
        // of two.
        let renamed = TableDelta {
            edits: vec![TableEdit::AddColumn {
                at: 0,
                name: "col_x1234abcd".into(),
                values: vec!["x0000beef".into(); 1000],
            }],
        }
        .apply(&wide)
        .unwrap();
        for t in [sample(), Table::new(vec!["id".into()]), wide, renamed] {
            let (csv, reference) = (t.to_csv(), csv_a_cell_at_a_time(&t));
            assert_eq!(csv, reference);
            assert_eq!(csv.capacity(), reference.capacity(), "{} bytes", csv.len());
        }
    }

    #[test]
    fn add_and_delete_rows() {
        let t = sample();
        let d = TableDelta {
            edits: vec![
                TableEdit::AddRows {
                    at: 2,
                    rows: vec![vec!["99".into(), "new".into(), "50".into()]],
                },
                TableEdit::DeleteRows { at: 0, count: 1 },
            ],
        };
        let t2 = d.apply(&t).unwrap();
        assert_eq!(t2.rows.len(), 5);
        assert_eq!(cells(&t2.rows[1])[1], "new");
    }

    #[test]
    fn add_and_remove_column() {
        let t = sample();
        let d = TableDelta {
            edits: vec![
                TableEdit::AddColumn {
                    at: 1,
                    name: "email".into(),
                    values: (0..5).map(|i| format!("u{i}@x.org")).collect(),
                },
                TableEdit::RemoveColumn { at: 3 },
            ],
        };
        let t2 = d.apply(&t).unwrap();
        assert_eq!(t2.columns, vec!["id", "email", "name"]);
        assert_eq!(cells(&t2.rows[0]), vec!["0", "u0@x.org", "user0"]);
    }

    #[test]
    fn modify_cells() {
        let t = sample();
        let d = TableDelta {
            edits: vec![TableEdit::ModifyCells {
                cells: vec![(0, 2, "99".into()), (4, 1, "renamed".into())],
            }],
        };
        let t2 = d.apply(&t).unwrap();
        assert_eq!(cells(&t2.rows[0])[2], "99");
        assert_eq!(cells(&t2.rows[4])[1], "renamed");
    }

    #[test]
    fn out_of_range_edits_rejected() {
        let t = sample();
        assert_eq!(
            TableDelta {
                edits: vec![TableEdit::DeleteRows { at: 4, count: 5 }]
            }
            .apply(&t),
            Err(TableError::OutOfRange)
        );
        assert_eq!(
            TableDelta {
                edits: vec![TableEdit::RemoveColumn { at: 9 }]
            }
            .apply(&t),
            Err(TableError::OutOfRange)
        );
        assert_eq!(
            TableDelta {
                edits: vec![TableEdit::ModifyCells {
                    cells: vec![(9, 0, "x".into())]
                }]
            }
            .apply(&t),
            Err(TableError::OutOfRange)
        );
    }

    #[test]
    fn ragged_rows_rejected() {
        let t = sample();
        assert_eq!(
            TableDelta {
                edits: vec![TableEdit::AddRows {
                    at: 0,
                    rows: vec![vec!["only-one-cell".into()]]
                }]
            }
            .apply(&t),
            Err(TableError::Ragged)
        );
        let mut t2 = Table::new(vec!["a".into()]);
        assert_eq!(
            t2.push_row(vec!["1".into(), "2".into()]),
            Err(TableError::Ragged)
        );
    }

    #[test]
    fn encode_decode_roundtrip() {
        let d = TableDelta {
            edits: vec![
                TableEdit::AddRows {
                    at: 1,
                    rows: vec![vec!["a".into(), "b".into()]],
                },
                TableEdit::DeleteRows { at: 0, count: 2 },
                TableEdit::AddColumn {
                    at: 0,
                    name: "k".into(),
                    values: vec!["v".into()],
                },
                TableEdit::RemoveColumn { at: 1 },
                TableEdit::ModifyCells {
                    cells: vec![(1, 0, "z".into())],
                },
            ],
        };
        let d2 = TableDelta::decode(&d.encode()).unwrap();
        assert_eq!(d, d2);
        assert_eq!(d.encoded_size(), d.encode().len());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(TableDelta::decode(&[9, 9, 9]).is_err());
    }

    /// Varint-encodes `words` back to back: a hand-written delta stream.
    fn stream(words: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        for &w in words {
            encode_u64(w, &mut out);
        }
        out
    }

    #[test]
    fn decode_bounds_every_declared_count_by_the_bytes_left() {
        // Six bytes declaring 2^40 edits used to reserve 56 TiB and abort.
        let edits = stream(&[1 << 40]);
        assert_eq!(edits.len(), 6);
        assert_eq!(TableDelta::decode(&edits), Err(TableError::Malformed));
        // The same for the rows, cells, values and cell triples an edit
        // declares.
        for words in [
            &[1, 0, 0, 1 << 40][..],
            &[1, 0, 0, 1, 1 << 40],
            &[1, 2, 0, 1, b'k'.into(), 1 << 40],
            &[1, 4, 1 << 40],
        ] {
            assert_eq!(
                TableDelta::decode(&stream(words)),
                Err(TableError::Malformed),
                "{words:?}"
            );
        }
    }

    #[test]
    fn decode_rejects_an_index_wider_than_u32() {
        // `at: 2^32 + 1` used to decode as `at: 1`, so re-encoding it did
        // not give the input back.
        let wide = (1u64 << 32) + 1;
        assert_eq!(
            TableDelta::decode(&stream(&[1, 1, 1, 2])),
            Ok(TableDelta {
                edits: vec![TableEdit::DeleteRows { at: 1, count: 2 }]
            })
        );
        for words in [
            &[1, 1, wide, 2][..],
            &[1, 1, 1, wide],
            &[1, 0, wide, 0],
            &[1, 2, wide, 0, 0],
            &[1, 3, wide],
            &[1, 4, 1, wide, 0, 0],
            &[1, 4, 1, 0, wide, 0],
        ] {
            assert_eq!(
                TableDelta::decode(&stream(words)),
                Err(TableError::Malformed),
                "{words:?}"
            );
        }
    }

    #[test]
    fn decode_rejects_a_string_length_that_wraps_the_position() {
        // `pos + len` used to wrap past the bounds check, and the slice
        // then panicked.
        for len in [u64::MAX, u64::MAX - 3, u64::MAX / 2] {
            let cell = stream(&[1, 4, 1, 0, 0, len]);
            assert_eq!(TableDelta::decode(&cell), Err(TableError::Malformed));
            let name = stream(&[1, 2, 0, len]);
            assert_eq!(TableDelta::decode(&name), Err(TableError::Malformed));
        }
    }

    /// `chain` applied to `base` with plain, unshared cells: what every
    /// version must read as, whatever rows it shares with others.
    fn deep_replay(base: &Table, chain: &[&TableDelta]) -> Vec<u8> {
        let mut columns = base.columns.clone();
        let mut rows: Vec<Vec<String>> = base
            .rows
            .iter()
            .map(|r| cells(r).into_iter().map(str::to_owned).collect())
            .collect();
        for edit in chain.iter().flat_map(|d| &d.edits) {
            match edit.clone() {
                TableEdit::AddRows { at, rows: new } => {
                    rows.splice(at as usize..at as usize, new);
                }
                TableEdit::DeleteRows { at, count } => {
                    rows.drain(at as usize..(at + count) as usize);
                }
                TableEdit::AddColumn { at, name, values } => {
                    columns.insert(at as usize, name);
                    for (row, v) in rows.iter_mut().zip(values) {
                        row.insert(at as usize, v);
                    }
                }
                TableEdit::RemoveColumn { at } => {
                    columns.remove(at as usize);
                    for row in &mut rows {
                        row.remove(at as usize);
                    }
                }
                TableEdit::ModifyCells { cells } => {
                    for (r, c, v) in cells {
                        rows[r as usize][c as usize] = v;
                    }
                }
            }
        }
        let mut lines = vec![columns.join(",")];
        lines.extend(rows.iter().map(|r| r.join(",")));
        (lines.join("\n") + "\n").into_bytes()
    }

    #[test]
    fn no_edit_leaks_through_a_shared_row() {
        let modify = |cells: &[(u32, u32)], tag: &str| TableEdit::ModifyCells {
            cells: cells
                .iter()
                .map(|&(r, c)| (r, c, format!("{tag}{r}.{c}")))
                .collect(),
        };
        let add_column = |at: u32, rows: usize, tag: &str| TableEdit::AddColumn {
            at,
            name: tag.into(),
            values: (0..rows).map(|r| format!("{tag}{r}")).collect(),
        };
        // `(parent, delta)`: siblings, and a parent's children, edit the
        // same rows 0 and 2 — cells, then whole rows through the column
        // commands — while every version stays alive.
        let history: Vec<(usize, TableDelta)> = [
            (0, vec![modify(&[(0, 1), (2, 2)], "a")]),
            (0, vec![modify(&[(0, 1), (2, 0)], "b")]),
            (0, vec![add_column(1, 5, "c")]),
            (0, vec![TableEdit::RemoveColumn { at: 0 }]),
            (1, vec![modify(&[(0, 1), (2, 2), (0, 1)], "d")]),
            (
                1,
                vec![add_column(3, 5, "e"), modify(&[(0, 3), (2, 0)], "e")],
            ),
            (
                1,
                vec![TableEdit::RemoveColumn { at: 1 }, modify(&[(2, 1)], "f")],
            ),
            (6, vec![modify(&[(0, 0), (2, 3)], "g")]),
            (6, vec![TableEdit::RemoveColumn { at: 3 }]),
            (
                2,
                vec![
                    TableEdit::AddRows {
                        at: 1,
                        rows: vec![vec!["h0".into(), "h1".into(), "h2".into()]],
                    },
                    modify(&[(1, 0), (0, 2), (3, 1)], "h"),
                    TableEdit::DeleteRows { at: 4, count: 2 },
                ],
            ),
            (
                10,
                vec![add_column(0, 4, "i"), TableEdit::RemoveColumn { at: 2 }],
            ),
            (10, vec![modify(&[(0, 2), (1, 0)], "j")]),
        ]
        .into_iter()
        .map(|(parent, edits)| (parent, TableDelta { edits }))
        .collect();
        let mut tables = vec![sample()];
        for (parent, delta) in &history {
            let table = delta.apply(&tables[*parent]).unwrap();
            tables.push(table);
        }
        for (v, table) in tables.iter().enumerate() {
            let mut chain = Vec::new();
            let mut at = v;
            while at > 0 {
                let (parent, delta) = &history[at - 1];
                chain.push(delta);
                at = *parent;
            }
            chain.reverse();
            assert_eq!(table.to_csv(), deep_replay(&tables[0], &chain), "v{v}");
        }
        assert_eq!(tables[0], sample());
    }

    #[test]
    fn delete_delta_smaller_than_its_inverse_information() {
        // A "delete rows" delta is tiny even when many rows vanish — the
        // asymmetry motivating the directed case.
        let mut t = Table::new(vec!["c".into()]);
        for i in 0..1000 {
            t.push_row(vec![format!("row-{i}")]).unwrap();
        }
        let d = TableDelta {
            edits: vec![TableEdit::DeleteRows { at: 0, count: 900 }],
        };
        let t2 = d.apply(&t).unwrap();
        assert_eq!(t2.rows.len(), 100);
        assert!(d.encoded_size() < 16);
        assert!(t.to_csv().len() - t2.to_csv().len() > 5000);
    }
}
