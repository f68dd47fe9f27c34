//! The registry-wide cross-solver comparison (§5's "no free lunch" made
//! one experiment): every registered solver × Problems 1–6 × the
//! synthetic-chain (LC), forks (BF) and dedup (DD) workloads, plus a
//! portfolio run per (problem, workload) whose provenance records every
//! candidate. Emits `target/experiments/BENCH_solvers.json` with one row
//! per (solver, problem, workload).
//!
//! Instances are hybrid (per-version chunked costs revealed), so
//! hybrid-capable solvers search the three-mode model. Bounds are fixed
//! mid-frontier: `β = 1.5 ×` MCA storage, `θ = 1.5 ×` the SPT's Σ/max
//! recreation. Run via `cargo run -p dsv-bench -- solver_matrix`
//! (`--quick` for the CI smoke, which also asserts that every registered
//! solver produces at least one validating plan and that no portfolio
//! result is worse than the Table-1 prescribed solver's).

use crate::report::{human_bytes, out_dir, Table};
use crate::Scale;
use dsv_core::solvers::registry::{prescribed, SOLVERS};
use dsv_core::ChunkerParams;
use dsv_core::{plan, PlanSpec, Problem, ProblemInstance, SolverChoice};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// One (workload, solver, problem) outcome.
#[derive(Debug, Clone)]
pub struct MatrixRow {
    /// Workload name ("LC", "BF", "DD").
    pub workload: String,
    /// Registry solver name, or `"portfolio"` for the portfolio row.
    pub solver: String,
    /// Problem number (1–6).
    pub problem: u8,
    /// "ok", "infeasible" (solved but constraint violated),
    /// "unsupported", or "error".
    pub status: &'static str,
    /// Solved rows: total storage cost `C`.
    pub storage: u64,
    /// Solved rows: `Σ Ri`.
    pub sum_recreation: u64,
    /// Solved rows: `max Ri`.
    pub max_recreation: u64,
    /// Solved rows: the problem's objective value.
    pub objective: u64,
    /// Portfolio rows: the winning solver's registry name.
    pub winner: Option<String>,
    /// Portfolio rows: per-candidate `(solver, objective-if-solved,
    /// feasible)` — the provenance the planner recorded.
    pub candidates: Vec<(String, Option<u64>, bool)>,
    /// Error rows: the solver's error message.
    pub error: Option<String>,
}

fn blank_row(workload: &str, solver: &str, problem: Problem) -> MatrixRow {
    MatrixRow {
        workload: workload.to_owned(),
        solver: solver.to_owned(),
        problem: problem.number(),
        status: "error",
        storage: 0,
        sum_recreation: 0,
        max_recreation: 0,
        objective: 0,
        winner: None,
        candidates: Vec::new(),
        error: None,
    }
}

/// The six problems with mid-frontier bounds for `instance`.
fn problems(instance: &ProblemInstance) -> Vec<Problem> {
    let mca = super::mca_reference(instance);
    let spt = super::spt_reference(instance);
    let beta = mca.storage_cost() + mca.storage_cost() / 2;
    vec![
        Problem::MinStorage,
        Problem::MinRecreation,
        Problem::MinSumRecreationGivenStorage { beta },
        Problem::MinMaxRecreationGivenStorage { beta },
        Problem::MinStorageGivenSumRecreation {
            theta: spt.sum_recreation() + spt.sum_recreation() / 2,
        },
        Problem::MinStorageGivenMaxRecreation {
            theta: spt.max_recreation() + spt.max_recreation() / 2,
        },
    ]
}

fn run_workload(
    workload: &str,
    instance: &ProblemInstance,
    exact_budget: Duration,
) -> Vec<MatrixRow> {
    let mut rows = Vec::new();
    for problem in problems(instance) {
        for solver in &SOLVERS {
            let mut row = blank_row(workload, solver.name, problem);
            if solver.support(problem).is_none() {
                row.status = "unsupported";
                rows.push(row);
                continue;
            }
            let spec = PlanSpec::new(problem)
                .solver(SolverChoice::named(solver.name))
                .exact_budget(exact_budget);
            match plan(instance, &spec) {
                Ok(p) => {
                    assert!(
                        p.solution.validate(instance).is_ok(),
                        "{workload}/{}/{problem}: invalid plan",
                        solver.name
                    );
                    row.status = if p.provenance.feasible {
                        "ok"
                    } else {
                        "infeasible"
                    };
                    row.storage = p.solution.storage_cost();
                    row.sum_recreation = p.solution.sum_recreation();
                    row.max_recreation = p.solution.max_recreation();
                    row.objective = problem.objective_value(&p.solution);
                }
                Err(e) => row.error = Some(e.to_string()),
            }
            rows.push(row);
        }

        // The portfolio row: run every capable solver, keep the cheapest
        // feasible plan, and record the full provenance.
        let mut row = blank_row(workload, "portfolio", problem);
        let spec = PlanSpec::new(problem)
            .solver(SolverChoice::Portfolio)
            .exact_budget(exact_budget);
        match plan(instance, &spec) {
            Ok(p) => {
                assert!(p.solution.validate(instance).is_ok());
                row.status = "ok";
                row.storage = p.solution.storage_cost();
                row.sum_recreation = p.solution.sum_recreation();
                row.max_recreation = p.solution.max_recreation();
                row.objective = problem.objective_value(&p.solution);
                row.winner = Some(p.provenance.solver.to_owned());
                row.candidates = p
                    .provenance
                    .candidates
                    .iter()
                    .map(|c| match &c.result {
                        Ok(s) => (c.solver.to_owned(), Some(s.objective), s.feasible),
                        Err(_) => (c.solver.to_owned(), None, false),
                    })
                    .collect();
            }
            Err(e) => row.error = Some(e.to_string()),
        }
        // The portfolio is never worse than the Table-1 prescribed solver
        // (it contains it as a candidate).
        let presc = prescribed(problem);
        if let Some(p_row) = rows
            .iter()
            .find(|r| r.problem == problem.number() && r.solver == presc && r.status == "ok")
        {
            assert_eq!(row.status, "ok", "{workload}/{problem}: portfolio failed");
            assert!(
                row.objective <= p_row.objective,
                "{workload}/{problem}: portfolio {} worse than {presc} {}",
                row.objective,
                p_row.objective
            );
        }
        rows.push(row);
    }
    rows
}

/// Runs the matrix on the LC, BF and DD workloads (hybrid instances).
pub fn run(scale: Scale) -> Vec<MatrixRow> {
    let seed = 2015;
    let params = ChunkerParams::default();
    let exact_budget = scale.pick(Duration::from_millis(500), Duration::from_secs(3));
    use dsv_workloads::presets;
    let datasets = vec![
        // LC small enough at quick scale that every SVN skip pair falls
        // within the preset's 25-hop reveal window (so the structural
        // skip-delta baseline is exercised too).
        presets::linear_chain()
            .scaled(scale.pick(32, 96))
            .keep_contents()
            .build(seed),
        presets::bootstrap_forks()
            .scaled(scale.pick(16, 48))
            .keep_contents()
            .build(seed),
        presets::dedup_chain()
            .scaled(scale.pick(24, 60))
            .keep_contents()
            .build(seed),
    ];

    let mut rows = Vec::new();
    for ds in &datasets {
        let instance = ds
            .instance_with_chunked(params)
            .expect("contents kept for chunk estimation");
        rows.extend(run_workload(&ds.name, &instance, exact_budget));
    }

    if scale == Scale::Quick {
        // CI smoke: every registered solver must produce at least one
        // validating plan somewhere in the matrix.
        for solver in &SOLVERS {
            assert!(
                rows.iter()
                    .any(|r| r.solver == solver.name && r.status == "ok"),
                "solver {} produced no valid plan on any (problem, workload)",
                solver.name
            );
        }
    }

    let mut table = Table::new(
        "Solver matrix: all registered solvers × P1–P6 × workloads (hybrid instances)",
        &[
            "workload",
            "solver",
            "problem",
            "status",
            "C",
            "ΣR",
            "maxR",
            "objective",
            "winner",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.workload.clone(),
            r.solver.clone(),
            format!("P{}", r.problem),
            r.status.to_string(),
            human_bytes(r.storage),
            human_bytes(r.sum_recreation),
            human_bytes(r.max_recreation),
            human_bytes(r.objective),
            r.winner.clone().unwrap_or_default(),
        ]);
    }
    table.emit("solver_matrix");
    if let Err(e) = write_json(&rows) {
        eprintln!("warning: could not write BENCH_solvers.json: {e}");
    }
    rows
}

/// Writes the rows as `target/experiments/BENCH_solvers.json`.
pub fn write_json(rows: &[MatrixRow]) -> std::io::Result<PathBuf> {
    let path = out_dir()?.join("BENCH_solvers.json");
    let mut out = String::from("{\n  \"experiment\": \"solver_matrix\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"workload\": \"{}\", \"solver\": \"{}\", \"problem\": {}, \"status\": \"{}\", \"storage\": {}, \"sum_recreation\": {}, \"max_recreation\": {}, \"objective\": {}",
            r.workload,
            r.solver,
            r.problem,
            r.status,
            r.storage,
            r.sum_recreation,
            r.max_recreation,
            r.objective,
        );
        if let Some(w) = &r.winner {
            let _ = write!(out, ", \"winner\": \"{w}\", \"candidates\": [");
            for (k, (solver, objective, feasible)) in r.candidates.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}{{\"solver\": \"{solver}\", \"objective\": {}, \"feasible\": {feasible}}}",
                    if k > 0 { ", " } else { "" },
                    objective.map_or("null".to_owned(), |o| o.to_string()),
                );
            }
            out.push(']');
        }
        if let Some(e) = &r.error {
            let _ = write!(out, ", \"error\": \"{}\"", e.replace('"', "'"));
        }
        out.push('}');
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&path, out)?;
    Ok(path)
}

/// The status of `solver` on (`workload`, problem number) in `rows`.
pub fn status_of<'a>(
    rows: &'a [MatrixRow],
    workload: &str,
    solver: &str,
    problem: u8,
) -> Option<&'a MatrixRow> {
    rows.iter()
        .find(|r| r.workload == workload && r.solver == solver && r.problem == problem)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_solver_problem_workload_cell() {
        let rows = run(Scale::Quick);
        let solver_count = SOLVERS.len();
        for workload in ["LC", "BF", "DD"] {
            for problem in 1..=6u8 {
                for solver in &SOLVERS {
                    assert!(
                        status_of(&rows, workload, solver.name, problem).is_some(),
                        "missing row {workload}/{}/P{problem}",
                        solver.name
                    );
                }
                let portfolio = status_of(&rows, workload, "portfolio", problem)
                    .unwrap_or_else(|| panic!("missing portfolio row {workload}/P{problem}"));
                assert_eq!(portfolio.status, "ok");
                assert!(portfolio.winner.is_some());
                assert!(portfolio.candidates.len() >= 2);
            }
        }
        assert_eq!(rows.len(), 3 * 6 * (solver_count + 1));

        // The JSON artifact round-trips the matrix.
        let path = write_json(&rows).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        for workload in ["LC", "BF", "DD"] {
            assert!(text.contains(&format!("\"workload\": \"{workload}\"")));
        }
        assert!(text.contains("\"solver\": \"portfolio\""));
        assert!(text.contains("\"winner\""));
        assert!(text.contains("\"candidates\""));

        // Table 1's "no free lunch", checked from the same matrix (run()
        // is heavy — one execution serves both assertions): on every
        // workload the exact P1 solver (mst) sets the storage floor.
        for workload in ["LC", "BF", "DD"] {
            let mst = status_of(&rows, workload, "mst", 1).unwrap();
            assert_eq!(mst.status, "ok");
            for r in rows
                .iter()
                .filter(|r| r.workload == workload && r.problem == 1 && r.status == "ok")
            {
                assert!(
                    r.storage >= mst.storage,
                    "{workload}: {} stored {} below the MCA {}",
                    r.solver,
                    r.storage,
                    mst.storage
                );
            }
        }
    }
}
