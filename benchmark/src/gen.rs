//! The one input generator: a version DAG of CSV tables plus the
//! client's op scripts for the serve workloads, all drawn from `--seed`.
//!
//! The seed draws the root table, every `table_gen::random_commit` edit
//! (which rows and cells, how many, their new values), the rows each
//! version appends, the two column edits, and every op script. What is
//! *not* drawn is how much work a history is: the DAG is the issue's
//! fixed shape, edits are sized by fixed [`EditParams`], and every
//! version grows by [`GROWTH_ROWS`] rows — datasets grow — which
//! makes the oldest version the smallest, so the min-storage plan roots
//! at the start of the history for every seed and a cold checkout's
//! chain length is a property of the DAG, not of the draw. That is what
//! lets runs on different seeds be compared at all (README, "Inputs").
//! The libraries under test only ever see the bytes generated here, and
//! the same `contents` + `parents` are the correctness model of every
//! workload.

use dsv_delta::tabular::{Table, TableDelta, TableEdit};
use dsv_workloads::table_gen::{base_table, random_commit, EditParams};
use dsv_workloads::zipf_weights;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Input sizes. [`Scale::FULL`] is what every reported number uses;
/// [`Scale::QUICK`] is the smoke mode and refuses to be compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Versions in the generated history (`V`).
    pub versions: usize,
    /// Rows of the root table (10 cells of 10 bytes each per row).
    pub rows: usize,
    /// Checkouts per `serve-read` round.
    pub read_ops: usize,
    /// Checkouts per `serve-mixed*` round.
    pub mixed_checkouts: usize,
    /// Commits per `serve-mixed*` round.
    pub mixed_commits: usize,
    /// Size of the `serve-mixed` read window (newest versions).
    pub read_window: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        versions: 40,
        rows: 1000,
        read_ops: 4000,
        mixed_checkouts: 320,
        mixed_commits: 40,
        read_window: 32,
    };
    pub const QUICK: Scale = Scale {
        versions: 24,
        rows: 200,
        read_ops: 400,
        mixed_checkouts: 48,
        mixed_commits: 8,
        read_window: 12,
    };

    /// A row command adds or deletes one row and a cell command touches
    /// up to 0.5 % of the cells (with 2 %, how many bytes a history's
    /// deltas add up to differed by 5–12 % between seeds; now by 2–3 %),
    /// so a commit's three commands shrink a table by at most three
    /// rows — fewer than [`GROWTH_ROWS`]. `random_commit`'s own column
    /// commands are off: one moves every later version by 10 %, and
    /// their number per history follows the draw (README: 8–37 % between
    /// seeds with them on). The history gets its column edits from
    /// [`Inputs::generate`] instead, one add and one drop at fixed
    /// versions.
    fn edit_params(self) -> EditParams {
        EditParams {
            base_rows: self.rows,
            base_cols: COLS,
            edits_per_commit: 3,
            max_row_change: 0.001,
            max_cells_modified: 0.005,
            column_op_weight: 0.0,
        }
    }
}

const COLS: usize = 10;
/// Rows every version appends on top of its random edit: one more than
/// the edit can delete, so every version is larger than its parent.
const GROWTH_ROWS: usize = 4;

/// A cell in `table_gen`'s format.
fn cell(rng: &mut StdRng) -> String {
    format!("x{:08x}", rng.gen::<u32>())
}

fn apply(table: &Table, edit: TableEdit) -> Table {
    TableDelta { edits: vec![edit] }
        .apply(table)
        .expect("generated edits fit the table they were drawn for")
}

/// The next version of `table`: one `random_commit`, then the appended
/// rows.
fn next_table(scale: Scale, table: &Table, rng: &mut StdRng) -> Table {
    let edited = random_commit(&scale.edit_params(), table, rng).1;
    let rows = (0..GROWTH_ROWS)
        .map(|_| (0..edited.columns.len()).map(|_| cell(rng)).collect())
        .collect();
    let at = edited.rows.len() as u32;
    apply(&edited, TableEdit::AddRows { at, rows })
}

/// How version `i` enters a repository.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Commit on `branch`; `fork_from` is set on a branch's first commit.
    Commit {
        branch: &'static str,
        fork_from: Option<u32>,
    },
    /// Merge version `other` into `main` (content = an edit of main's head).
    Merge { other: u32 },
}

/// The fixed DAG shape for `n` versions: `(step, parents)` per version.
/// Branch `a` lives from 15 % to 70 % of the history and is merged twice,
/// `b` from 45 % to 85 % and is merged once; the rest is `main`.
fn shape(n: usize) -> Vec<(Step, Vec<u32>)> {
    let at = |share: f64| ((n as f64 * share) as usize).max(1);
    let (a_from, a_merge1, a_until) = (at(0.15), at(0.40), at(0.70));
    let (b_from, b_until) = (at(0.45), at(0.85));
    let mut out: Vec<(Step, Vec<u32>)> = Vec::with_capacity(n);
    let mut main: u32 = 0;
    let (mut a, mut b): (Option<u32>, Option<u32>) = (None, None);
    out.push((
        Step::Commit {
            branch: "main",
            fork_from: None,
        },
        Vec::new(),
    ));
    for i in 1..n {
        let id = i as u32;
        let merge = |other: u32, main: u32| (Step::Merge { other }, vec![main, other]);
        let on_branch = |name: &'static str, head: Option<u32>, main: u32| {
            (
                Step::Commit {
                    branch: name,
                    fork_from: head.is_none().then_some(main),
                },
                vec![head.unwrap_or(main)],
            )
        };
        let entry = match (a, b) {
            (Some(tip), _) if i == a_merge1 || i == a_until => merge(tip, main),
            (_, Some(tip)) if i == b_until => merge(tip, main),
            _ if (a_from..a_until).contains(&i) && i % 4 == 0 => on_branch("a", a, main),
            _ if (b_from..b_until).contains(&i) && i % 5 == 2 => on_branch("b", b, main),
            _ => (
                Step::Commit {
                    branch: "main",
                    fork_from: None,
                },
                vec![main],
            ),
        };
        match &entry.0 {
            Step::Commit { branch: "a", .. } => a = Some(id),
            Step::Commit { branch: "b", .. } => b = Some(id),
            _ => main = id,
        }
        out.push(entry);
    }
    out
}

/// One client op of a serve workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Check out golden version `id`.
    Checkout(u32),
    /// Check out entry `slot` of the client's read window (resolved at
    /// run time: the window holds the client's own fresh commits, whose
    /// ids the server assigns).
    CheckoutSlot(usize),
    /// Commit `data` on the client's branch, greedy or online (hops 2).
    Commit { online: bool, data: Vec<u8> },
    /// Ask for store + cache statistics.
    Stats,
}

/// Generated inputs of one seed.
pub struct Inputs {
    pub scale: Scale,
    pub seed: u64,
    /// Content of every version, in id order.
    pub contents: Vec<Vec<u8>>,
    /// Parents of every version (ids are topologically ordered).
    pub parents: Vec<Vec<u32>>,
    /// How each version is committed.
    pub steps: Vec<Step>,
    /// The tables the serve client's branch grows from: the newest
    /// version and the root.
    newest_table: Table,
    root_table: Table,
}

impl Inputs {
    pub fn generate(scale: Scale, seed: u64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = scale.versions;
        // The first main-line version from a third of the way in gains a
        // column, the first from two thirds drops one (position, name
        // and values drawn): every seed's deltas meet both commands, and
        // every seed's sizes move by the same amounts.
        let mut column_edits = [(n / 3, true), (2 * n / 3, false)].into_iter().peekable();
        let mut tables: Vec<Table> = Vec::with_capacity(n);
        let (mut steps, mut parents) = (Vec::new(), Vec::new());
        for (i, (step, from)) in shape(n).into_iter().enumerate() {
            let mut table = match from.first() {
                None => base_table(&scale.edit_params(), &mut rng),
                Some(&p) => next_table(scale, &tables[p as usize], &mut rng),
            };
            let on_main = !matches!(step, Step::Commit { branch, .. } if branch != "main");
            if let Some((_, add)) = column_edits.next_if(|&(due, _)| on_main && i >= due) {
                let cols = table.columns.len();
                let edit = if add {
                    TableEdit::AddColumn {
                        at: rng.gen_range(0..=cols) as u32,
                        name: format!("col_{}", cell(&mut rng)),
                        values: table.rows.iter().map(|_| cell(&mut rng)).collect(),
                    }
                } else {
                    TableEdit::RemoveColumn {
                        at: rng.gen_range(0..cols) as u32,
                    }
                };
                table = apply(&table, edit);
            }
            tables.push(table);
            steps.push(step);
            parents.push(from);
        }
        let contents = tables.iter().map(Table::to_csv).collect();
        Inputs {
            scale,
            seed,
            contents,
            parents,
            steps,
            newest_table: tables[n - 1].clone(),
            root_table: tables[0].clone(),
        }
    }

    pub fn logical_bytes(&self) -> u64 {
        self.contents.iter().map(|c| c.len() as u64).sum()
    }

    pub fn largest_version(&self) -> u64 {
        self.contents
            .iter()
            .map(|c| c.len() as u64)
            .max()
            .unwrap_or(0)
    }

    /// Where the serve client's branch forks from the golden history:
    /// the newest version.
    pub fn client_fork(&self) -> u32 {
        self.contents.len() as u32 - 1
    }

    /// The `serve-read` script: Zipf(2) over all versions by
    /// recency — the newest is the hottest — so that which sizes are hot
    /// does not follow the draw; the seed draws the sequence.
    pub fn read_script(&self) -> Vec<Op> {
        let mut weights = zipf_weights(self.contents.len(), 2.0, self.seed);
        weights.sort_by(f64::total_cmp);
        let total: f64 = weights.iter().sum();
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x2ead);
        (0..self.scale.read_ops)
            .map(|_| {
                let mut x = rng.gen::<f64>() * total;
                let hit = weights.iter().position(|w| {
                    x -= w;
                    x < 0.0
                });
                Op::Checkout(hit.unwrap_or(weights.len() - 1) as u32)
            })
            .collect()
    }

    /// The `serve-mixed` script, on the golden history.
    pub fn mixed_script(&self) -> Vec<Op> {
        self.script_from(&self.newest_table, 0).1
    }

    /// `serve-mixed-remote`: the untimed prelude commits of the client's
    /// branch (two edits of the root, so that the first timed online
    /// commit has a 2-hop neighbourhood to reveal) and its script.
    pub fn remote_script(&self) -> (Vec<Vec<u8>>, Vec<Op>) {
        self.script_from(&self.root_table, 2)
    }

    /// Content of the root version the remote rounds start from.
    pub fn remote_root(&self) -> &[u8] {
        &self.contents[0]
    }

    /// `prelude` edits of `base`, then the mixed script: checkouts
    /// uniform over the window slots, commits alternating greedy / online (each
    /// the [`next_table`] of the branch head), one `Stats` per ten
    /// commits.
    fn script_from(&self, base: &Table, prelude: usize) -> (Vec<Vec<u8>>, Vec<Op>) {
        let s = self.scale;
        let mut edits = StdRng::seed_from_u64(self.seed ^ 0xed175);
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x31bed);
        let mut head = base.clone();
        let mut next_commit = |head: &mut Table| {
            *head = next_table(s, head, &mut edits);
            head.to_csv()
        };
        let before = (0..prelude).map(|_| next_commit(&mut head)).collect();
        let total = s.mixed_checkouts + s.mixed_commits;
        // Every window slot equally often, in a drawn order: uniform
        // reads whose mix of near and far versions is the same for
        // every seed.
        let mut slots: Vec<usize> = (0..s.mixed_checkouts).map(|i| i % s.read_window).collect();
        slots.shuffle(&mut rng);
        let mut read = || Op::CheckoutSlot(slots.pop().expect("one slot per checkout"));
        // One commit per stride of ops, at a seeded position inside it
        // (first in the first stride: the remote variant reads only
        // what the client committed itself).
        let stride = total / s.mixed_commits;
        let mut ops = Vec::with_capacity(total + s.mixed_commits / 10);
        for k in 0..s.mixed_commits {
            let commit_at = if k == 0 { 0 } else { rng.gen_range(0..stride) };
            for pos in 0..stride {
                if pos != commit_at {
                    ops.push(read());
                    continue;
                }
                ops.push(Op::Commit {
                    online: k % 2 == 1,
                    data: next_commit(&mut head),
                });
                if (k + 1) % 10 == 0 {
                    ops.push(Op::Stats);
                }
            }
        }
        for _ in stride * s.mixed_commits..total {
            ops.push(read());
        }
        (before, ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_is_mostly_linear_with_two_branches_and_three_merges() {
        for n in [Scale::QUICK.versions, Scale::FULL.versions] {
            let dag = shape(n);
            assert_eq!(dag.len(), n);
            let merges = dag
                .iter()
                .filter(|(s, _)| matches!(s, Step::Merge { .. }))
                .count();
            assert_eq!(merges, 3, "n = {n}");
            let forks = dag
                .iter()
                .filter(|(s, _)| {
                    matches!(
                        s,
                        Step::Commit {
                            fork_from: Some(_),
                            ..
                        }
                    )
                })
                .count();
            assert_eq!(forks, 2, "n = {n}");
            for (i, (_, parents)) in dag.iter().enumerate() {
                assert!(parents.iter().all(|&p| (p as usize) < i), "topological");
                assert_eq!(parents.is_empty(), i == 0);
            }
        }
    }

    #[test]
    fn same_seed_same_inputs_and_scripts_other_seed_another_history() {
        let a = Inputs::generate(Scale::QUICK, 1);
        let b = Inputs::generate(Scale::QUICK, 1);
        let c = Inputs::generate(Scale::QUICK, 2);
        assert_eq!(a.contents, b.contents);
        assert_eq!(a.read_script(), b.read_script());
        assert_eq!(a.mixed_script(), b.mixed_script());
        assert_eq!(a.remote_script(), b.remote_script());
        assert_ne!(a.read_script(), c.read_script());
        assert_ne!(a.mixed_script(), c.mixed_script());
        assert_ne!(a.remote_script().1, c.remote_script().1);
        // Another seed is another history — other tables, other edits —
        // on the same DAG.
        let sizes = |i: &Inputs| i.contents.iter().map(Vec::len).collect::<Vec<_>>();
        assert_ne!(sizes(&a), sizes(&c));
        assert!(a.contents.iter().zip(&c.contents).all(|(x, y)| x != y));
        assert_eq!(a.parents, c.parents);
    }

    #[test]
    fn histories_grow_from_the_smallest_version_and_meet_both_column_edits() {
        for seed in 1..=8 {
            let inputs = Inputs::generate(Scale::QUICK, seed);
            let rows = |c: &Vec<u8>| c.iter().filter(|&&b| b == b'\n').count();
            for (child, parents) in inputs.parents.iter().enumerate().skip(1) {
                let parent = parents[0] as usize;
                assert!(rows(&inputs.contents[child]) > rows(&inputs.contents[parent]));
            }
            let root = inputs.contents[0].len();
            assert!(inputs.contents[1..].iter().all(|c| c.len() > root));
            let columns = |c: &Vec<u8>| {
                c.iter()
                    .take_while(|&&b| b != b'\n')
                    .filter(|&&b| b == b',')
                    .count()
                    + 1
            };
            let widths: Vec<usize> = inputs.contents.iter().map(columns).collect();
            assert_eq!(widths[0], COLS);
            assert_eq!(
                *widths.iter().max().unwrap(),
                COLS + 1,
                "a column was added"
            );
            assert_eq!(*widths.last().unwrap(), COLS, "and one dropped again");
        }
        // Equal work: no seed's history is more than a percent or two
        // larger than another's.
        let logical = |seed| Inputs::generate(Scale::FULL, seed).logical_bytes() as f64;
        for seed in 2..=4 {
            assert!(
                (logical(seed) / logical(1) - 1.0).abs() < 0.02,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn mixed_script_has_the_stated_op_counts_and_starts_with_a_commit() {
        let inputs = Inputs::generate(Scale::QUICK, 1);
        let s = inputs.scale;
        let ops = inputs.mixed_script();
        let count = |f: fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count();
        assert_eq!(count(|o| matches!(o, Op::Commit { .. })), s.mixed_commits);
        assert_eq!(
            count(|o| matches!(o, Op::CheckoutSlot(_))),
            s.mixed_checkouts
        );
        assert_eq!(count(|o| matches!(o, Op::Stats)), s.mixed_commits / 10);
        assert!(matches!(ops[0], Op::Commit { online: false, .. }));
        let (prelude, remote) = inputs.remote_script();
        assert_eq!(prelude.len(), 2);
        assert!(matches!(remote[0], Op::Commit { .. }));
    }
}
