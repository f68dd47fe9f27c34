//! Table rendering and CSV output for experiment results.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A simple aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (cells are pre-formatted).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}", w = w);
            }
            out.push('\n');
        };
        fmt_row(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }

    /// Prints to stdout and writes `target/experiments/<name>.csv`.
    pub fn emit(&self, name: &str) {
        println!("{}", self.render());
        let headers: Vec<&str> = self.headers.iter().map(String::as_str).collect();
        if let Err(e) = write_csv(name, &headers, &self.rows) {
            eprintln!("warning: could not write CSV for {name}: {e}");
        }
    }
}

/// Where every experiment output (CSV and `BENCH_*.json`) lands: the
/// workspace's `target/experiments/`, created on first use. Anchored at
/// this crate's manifest rather than the working directory — `cargo test`
/// runs from the package directory, `cargo run` from wherever it is
/// typed, and both must write where CI looks.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root");
    let dir = workspace.join("target/experiments");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Writes rows as CSV under `target/experiments/<name>.csv`.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) -> std::io::Result<PathBuf> {
    let path = out_dir()?.join(format!("{name}.csv"));
    let mut out = String::new();
    let _ = writeln!(out, "{}", headers.join(","));
    for row in rows {
        let _ = writeln!(out, "{}", row.join(","));
    }
    std::fs::write(&path, out)?;
    Ok(path)
}

/// Formats a byte count as a human-readable string (KB/MB/GB, base 1024).
pub fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes}B")
    } else {
        format!("{value:.2}{}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "100".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("name"));
        let lines: Vec<&str> = s.lines().collect();
        // header + separator + 2 rows + title
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn row_arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn human_bytes_formatting() {
        assert_eq!(human_bytes(512), "512B");
        assert_eq!(human_bytes(2048), "2.00KB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.00MB");
    }

    #[test]
    fn out_dir_is_the_workspace_target_whatever_the_cwd() {
        let dir = out_dir().unwrap();
        assert!(dir.is_absolute(), "{dir:?} would move with the cwd");
        assert!(dir.ends_with("target/experiments"));
        let workspace = dir.parent().and_then(Path::parent).unwrap();
        assert!(workspace.join("Cargo.lock").is_file(), "{workspace:?}");
    }

    #[test]
    fn csv_written() {
        let mut t = Table::new("csv-demo", &["x", "y"]);
        t.row(vec!["1".into(), "2".into()]);
        let path = write_csv(
            "test_csv_demo",
            &["x", "y"],
            &[vec!["1".into(), "2".into()]],
        )
        .unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "x,y\n1,2\n");
        let _ = t;
    }
}
