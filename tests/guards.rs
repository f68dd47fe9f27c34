//! Source guards: folds that must not grow back, checked by reading the
//! tree's own source.
//!
//! Each test is one guard, and each keeps the paths, patterns, counts and
//! comment skipping it was first written with as a shell `grep` step:
//! - a *comment line* is one whose first non-blank characters are `//`;
//! - where a guard reads only *production code*, it stops reading a file
//!   at its first `#[cfg(test)]` line;
//! - `\b` in a pattern is a word boundary (a word character is an ASCII
//!   letter, digit or `_`).
//!
//! The files are the `.rs` files under the repository root, outside
//! `target/` and hidden directories. This file holds every pattern, so
//! no guard reads it.

use std::path::Path;

/// This file: it spells every pattern it guards against.
const THIS_FILE: &str = "tests/guards.rs";

/// One line of a source file: its path from the repository root, its
/// 1-based number, the name of the last `fn` seen at or above it in the
/// file (empty if none), and its text.
struct Line {
    path: String,
    number: usize,
    func: String,
    text: String,
}

impl Line {
    /// `path:number:text`, the form a failure prints.
    fn shown(&self) -> String {
        format!("{}:{}:{}", self.path, self.number, self.text)
    }

    /// `path:number:func:text`.
    fn with_func(&self) -> String {
        format!("{}:{}:{}:{}", self.path, self.number, self.func, self.text)
    }
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every file under `dir` (a path from the repository root), skipping
/// `target/` and hidden directories, as sorted paths from the root.
fn files_under(dir: &str) -> Vec<String> {
    fn walk(path: &Path, rel: &str, out: &mut Vec<String>) {
        if path.is_file() {
            out.push(rel.to_owned());
            return;
        }
        let Ok(entries) = std::fs::read_dir(path) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with('.') || name == "target" {
                continue;
            }
            let rel = if rel.is_empty() {
                name
            } else {
                format!("{rel}/{name}")
            };
            walk(&entry.path(), &rel, out);
        }
    }
    let mut out = Vec::new();
    walk(&root().join(dir), dir, &mut out);
    out.retain(|f| f != THIS_FILE);
    out.sort();
    out
}

/// The `.rs` files under each of `dirs` (`""` is the whole tree).
fn rs_files(dirs: &[&str]) -> Vec<String> {
    dirs.iter()
        .flat_map(|d| files_under(d))
        .filter(|f| f.ends_with(".rs"))
        .collect()
}

fn is_word(c: Option<char>) -> bool {
    c.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Whether `text` holds `pat` with a word boundary before it (`\bpat`)
/// when `before`, and after it (`pat\b`) when `after`. Every pattern
/// here starts and ends with a word character.
fn holds(text: &str, pat: &str, before: bool, after: bool) -> bool {
    text.match_indices(pat).any(|(i, _)| {
        (!before || !is_word(text[..i].chars().next_back()))
            && (!after || !is_word(text[i + pat.len()..].chars().next()))
    })
}

/// The lines of `files` that are not comment lines. With
/// `production_only`, each file is read up to its first `#[cfg(test)]`
/// line.
fn code(files: &[String], production_only: bool) -> Vec<Line> {
    let mut out = Vec::new();
    for path in files {
        let bytes = std::fs::read(root().join(path)).unwrap_or_else(|e| panic!("{path}: {e}"));
        let mut func = String::new();
        for (i, text) in String::from_utf8_lossy(&bytes).lines().enumerate() {
            let trimmed = text.trim_start();
            if production_only && trimmed.starts_with("#[cfg(test)]") {
                break;
            }
            // A line holding `fn ` at its start or after a blank names
            // the function the lines below it are in: the identifier
            // after the first `fn ` that has one.
            if trimmed.starts_with("fn ") || text.contains(" fn ") || text.contains("\tfn ") {
                func = text
                    .match_indices("fn ")
                    .map(|(at, _)| &text[at + 3..])
                    .map(|rest| {
                        let end = rest
                            .find(|c: char| {
                                !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
                            })
                            .unwrap_or(rest.len());
                        &rest[..end]
                    })
                    .find(|name| !name.is_empty())
                    .unwrap_or("")
                    .to_owned();
            }
            if !trimmed.starts_with("//") {
                out.push(Line {
                    path: path.clone(),
                    number: i + 1,
                    func: func.clone(),
                    text: text.to_owned(),
                });
            }
        }
    }
    out
}

/// Fails with `message` and the offending lines if there are any.
fn none(lines: Vec<&Line>, show: fn(&Line) -> String, message: &str) {
    let shown: Vec<String> = lines.into_iter().map(show).collect();
    assert!(shown.is_empty(), "{message}:\n{}", shown.join("\n"));
}

/// `remove*` / `clear` / `contains_batch` / `object_ids` return `Result`,
/// so clippy (`unused_must_use` under `-D warnings`) rejects dropping one
/// on the floor; this rejects the explicit `let _ =` that would silence
/// it. Every file under a `src` directory of a crate, and under `src/`,
/// comments and tests included.
#[test]
fn no_ignored_store_answers() {
    let files: Vec<String> = files_under("crates")
        .into_iter()
        .filter(|f| f["crates/".len()..].contains("/src/"))
        .chain(files_under("src"))
        .collect();
    let mut found = Vec::new();
    for path in &files {
        let bytes = std::fs::read(root().join(path)).unwrap_or_else(|e| panic!("{path}: {e}"));
        for (i, text) in String::from_utf8_lossy(&bytes).lines().enumerate() {
            let discarded = text.match_indices("let _ = ").any(|(at, pat)| {
                let rest = &text[at + pat.len()..];
                [
                    ".remove(",
                    ".remove_batch(",
                    ".clear(",
                    ".contains_batch(",
                    ".object_ids(",
                ]
                .iter()
                .any(|call| rest.contains(call))
            });
            if discarded {
                found.push(format!("{path}:{}:{text}", i + 1));
            }
        }
    }
    assert!(
        found.is_empty(),
        "a store Result is being discarded:\n{}",
        found.join("\n")
    );
}

/// The forks the write-path fold removed cannot grow back: in
/// `crates/vcs/src`, outside comments and `#[cfg(test)]` modules, the
/// collector holds the only `remove_batch(` call (`RepoStore`'s
/// forwarding in persist.rs aside), `stored_len(` is called only inside
/// `fn price`, and nothing builds an uncached `Materializer`. The
/// byte-delta kernel has one scan loop: `bytes_delta.rs` defines exactly
/// one `fn scan`, so a faster loop replaces the old one instead of
/// sitting beside it.
#[test]
fn one_write_path() {
    let all = code(&rs_files(&["crates/vcs/src"]), true);
    let removes = all
        .iter()
        .filter(|l| !l.path.contains("persist.rs") && l.text.contains("remove_batch("))
        .count();
    assert_eq!(
        removes, 1,
        "remove_batch( call sites outside gc::collect: {removes}"
    );
    none(
        all.iter()
            .filter(|l| l.with_func().contains("remove_batch("))
            .filter(|l| {
                !l.with_func().contains(":collect:") && !l.with_func().contains("persist.rs")
            })
            .collect(),
        Line::with_func,
        "a deleter beside gc::collect",
    );
    none(
        all.iter()
            .filter(|l| l.with_func().contains("stored_len(") && !l.with_func().contains(":price:"))
            .collect(),
        Line::with_func,
        "an edge priced outside Repository::price",
    );
    none(
        all.iter()
            .filter(|l| l.with_func().contains("Materializer::new("))
            .collect(),
        Line::with_func,
        "an uncached Materializer on the write path",
    );
    let scans = code(&["crates/delta/src/bytes_delta.rs".to_owned()], true)
        .iter()
        .filter(|l| l.text.contains("fn scan(") || l.text.contains("fn scan<"))
        .count();
    assert_eq!(
        scans, 1,
        "bytes_delta.rs defines {scans} scan loops, not one"
    );
}

/// Chunking is part of dsv-storage, so nothing stands in for the old
/// crate boundary: outside comments and `#[cfg(test)]` modules,
/// `struct ChunkerParams` is defined exactly once in the workspace
/// (dsv-core, valid by construction), the mirror type `ChunkingSpec` and
/// the wrapper error `ChunkError` appear nowhere, and `crates/chunk/`
/// does not exist.
#[test]
fn one_chunker_type() {
    assert!(
        !root().join("crates/chunk").exists(),
        "crates/chunk/ exists again"
    );
    let all = code(&rs_files(&[""]), true);
    let defs = all
        .iter()
        .filter(|l| holds(&l.text, "struct ChunkerParams", false, true))
        .count();
    assert_eq!(
        defs, 1,
        "struct ChunkerParams is defined {defs} times, not once"
    );
    none(
        all.iter()
            .filter(|l| {
                ["ChunkingSpec", "ChunkError"]
                    .iter()
                    .any(|w| holds(&l.text, w, true, true))
            })
            .collect(),
        Line::shown,
        "a chunker mirror type or wrapper error is back",
    );
}

/// `dsv` is the only binary and `dsv serve` the only server: outside
/// comments, `crates/vcs/src/bin/` holds exactly `dsv.rs`, no test spawns
/// a second binary (`CARGO_BIN_EXE_dsvd`), and the wire carries
/// `dsv_core::SolverChoice` itself rather than a mirror type
/// (`WireSolver`).
#[test]
fn one_program() {
    let mut bins: Vec<String> = std::fs::read_dir(root().join("crates/vcs/src/bin"))
        .expect("crates/vcs/src/bin")
        .map(|e| {
            e.expect("a directory entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    bins.sort();
    assert_eq!(bins, ["dsv.rs"], "crates/vcs/src/bin/ holds: {bins:?}");
    none(
        code(&rs_files(&[""]), false)
            .iter()
            .filter(|l| {
                ["CARGO_BIN_EXE_dsvd", "WireSolver"]
                    .iter()
                    .any(|w| holds(&l.text, w, true, true))
            })
            .collect(),
        Line::shown,
        "a second binary or the solver mirror type is back",
    );
}

/// `dsv` walks argv once (`parse`, against the `COMMANDS` table): outside
/// comments in `crates/vcs/src/bin/dsv.rs`, exactly one token test
/// decides "this is a flag", the per-command walks (`fn extract_*`,
/// `fn flag_value`, `fn operands`) stay gone, and nothing reaches stdout
/// but the one writer (`emit`), which ends quietly on a closed pipe: no
/// `println!` / `print!`, one `stdout()`.
#[test]
fn one_grammar() {
    let code = code(&["crates/vcs/src/bin/dsv.rs".to_owned()], false);
    let tests = code
        .iter()
        .filter(|l| l.text.contains("starts_with(\"-") || l.text.contains("starts_with('-'"))
        .count();
    assert_eq!(
        tests, 1,
        "dsv.rs tests {tests} times whether a token is a flag, not once"
    );
    // `\bfn (extract_[a-z_]*|flag_value|operands)\b`
    let second_walk = |text: &str| {
        holds(text, "fn flag_value", true, true)
            || holds(text, "fn operands", true, true)
            || text.match_indices("fn extract_").any(|(at, pat)| {
                let rest = &text[at + pat.len()..];
                let name = rest.trim_start_matches(|c: char| c.is_ascii_lowercase() || c == '_');
                !is_word(text[..at].chars().next_back()) && !is_word(name.chars().next())
            })
    };
    none(
        code.iter().filter(|l| second_walk(&l.text)).collect(),
        Line::shown,
        "a second argv walk is back in dsv.rs",
    );
    none(
        code.iter()
            .filter(|l| {
                holds(&l.text, "print!", true, false) || holds(&l.text, "println!", true, false)
            })
            .collect(),
        Line::shown,
        "dsv.rs prints past its one stdout writer",
    );
    let writers = code.iter().filter(|l| l.text.contains("stdout()")).count();
    assert_eq!(writers, 1, "dsv.rs opens stdout {writers} times, not once");
}

/// The served path streams: outside comments and `#[cfg(test)]` modules,
/// the session loop, the client, the remote store and the repository
/// server build no `Frame` and copy no version — no `write_frame(`,
/// `read_frame(`, message `.encode()` or `unshare(`. The frame-at-once
/// functions live on only as public spellings in `frame.rs` /
/// `proto.rs`.
#[test]
fn one_wire_path() {
    let files = [
        "crates/net/src/server.rs",
        "crates/net/src/client.rs",
        "crates/net/src/remote.rs",
        "crates/vcs/src/serve.rs",
    ]
    .map(str::to_owned);
    none(
        code(&files, true)
            .iter()
            .filter(|l| {
                ["write_frame(", "read_frame(", ".encode()", "unshare("]
                    .iter()
                    .any(|call| l.text.contains(call))
            })
            .collect(),
        Line::shown,
        "a frame-at-once call on the served path",
    );
}

/// Every solver is one row of `SOLVERS`
/// (`crates/core/src/solvers/registry.rs`) that states its support once:
/// outside comments in `crates/` and `src/`, no adapter trait or impl
/// (`trait Solver`, `impl Solver for`, `dyn Solver`) and no paired entry
/// point (`fn registry_tuned`, `fn by_name_tuned`, `solve_detailed`) is
/// back, and `static SOLVERS` is defined once.
#[test]
fn one_solver_table() {
    let code = code(&rs_files(&["crates", "src"]), false);
    let adapter = |text: &str| {
        [
            "impl Solver for",
            "trait Solver",
            "dyn Solver",
            "fn registry_tuned",
            "fn by_name_tuned",
        ]
        .iter()
        .any(|p| holds(text, p, false, true))
            || holds(text, "solve_detailed", true, true)
    };
    none(
        code.iter().filter(|l| adapter(&l.text)).collect(),
        Line::shown,
        "a solver adapter or a paired entry point is back",
    );
    let tables = code
        .iter()
        .filter(|l| holds(&l.text, "static SOLVERS", true, true))
        .count();
    assert_eq!(
        tables, 1,
        "static SOLVERS is defined {tables} times, not once"
    );
}

/// The content builders reveal their matrices through one function,
/// `line_matrix` in `crates/workloads/src/dataset.rs`, with Φ = Δ =
/// bytes: outside comments in `crates/`, `src/`, `examples/` and
/// `tests/`, no second cost model (`CostModel`, `CostAnnotation`,
/// `full_annotation`, `delta_annotation`, `cost_model`, `phi_factor`) is
/// back, and `crates/workloads/src` calls `line_diff(` exactly once.
#[test]
fn one_reveal() {
    let code = code(&rs_files(&["crates", "src", "examples", "tests"]), false);
    let models = [
        "CostModel",
        "CostAnnotation",
        "full_annotation",
        "delta_annotation",
        "cost_model",
        "phi_factor",
    ];
    none(
        code.iter()
            .filter(|l| models.iter().any(|m| holds(&l.text, m, true, true)))
            .collect(),
        Line::shown,
        "a second cost model is back",
    );
    let calls = code
        .iter()
        .filter(|l| l.path.starts_with("crates/workloads/src/") && l.text.contains("line_diff("))
        .count();
    assert_eq!(
        calls, 1,
        "crates/workloads/src calls line_diff( {calls} times, not once"
    );
}
