//! Table 2: the exact solver vs MP under a max-recreation bound.
//!
//! The paper generates three small all-pairs datasets (v15, v25, v50),
//! sweeps five θ values each, and compares the ILP's optimal storage cost
//! with MP's. Its ILP "turned out to be very difficult to solve" and often
//! only reports best-found; our branch-and-bound behaves the same way
//! under a time budget. Reproduction targets: MP within a few percent of
//! the exact optimum on closable instances; the exact solver times out on
//! v50-scale instances.

use crate::report::{human_bytes, Table};
use crate::Scale;
use dsv_core::{plan, PlanSpec, Problem, ProblemInstance, SolverChoice};
use dsv_workloads::dataset::{self, DatasetParams};
use dsv_workloads::table_gen::EditParams;
use dsv_workloads::GraphParams;
use std::time::Duration;

/// One (instance, θ) comparison row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Instance name ("v15", "v25", "v50").
    pub instance: String,
    /// θ value.
    pub theta: u64,
    /// Exact (or best-found) storage.
    pub exact_storage: u64,
    /// Whether the exact search finished.
    pub proven_optimal: bool,
    /// MP's storage.
    pub mp_storage: u64,
}

/// Builds an all-pairs instance with `n` versions.
pub fn all_pairs_instance(n: usize, seed: u64) -> ProblemInstance {
    let ds = dataset::build(
        &format!("v{n}"),
        &DatasetParams {
            graph: GraphParams {
                commits: n,
                ..GraphParams::default()
            },
            edits: EditParams {
                base_rows: 120,
                base_cols: 5,
                ..EditParams::default()
            },
            reveal_hops: n, // all pairs: every version within n hops
            directed: true,
            keep_contents: false,
        },
        seed,
    );
    ds.instance()
}

/// Runs the comparison for one instance size.
pub fn compare(n: usize, seed: u64, budget: Duration) -> Vec<Row> {
    let instance = all_pairs_instance(n, seed);
    let spt_sol = super::spt_reference(&instance);
    let base_theta = spt_sol.max_recreation();
    let mut rows = Vec::new();
    for f in [1.0f64, 1.1, 1.25, 1.5, 2.0] {
        let theta = (base_theta as f64 * f) as u64;
        let problem = Problem::MinStorageGivenMaxRecreation { theta };
        let exact_spec = PlanSpec::new(problem)
            .solver(SolverChoice::named("ilp"))
            .exact_budget(budget);
        let exact = plan(&instance, &exact_spec);
        let heuristic = super::named_solve(&instance, problem, "mp");
        if let (Ok(exact), Ok(heuristic)) = (exact, heuristic) {
            // The planner's provenance carries the branch-and-bound's
            // proof status.
            let proven = exact.provenance.proven_optimal().unwrap_or(false);
            rows.push(Row {
                instance: format!("v{n}"),
                theta,
                exact_storage: exact.solution.storage_cost(),
                proven_optimal: proven,
                mp_storage: heuristic.storage_cost(),
            });
        }
    }
    rows
}

/// Runs v15/v25/v50 and emits the table.
pub fn run(scale: Scale) -> Vec<Row> {
    let budget = scale.pick(Duration::from_secs(2), Duration::from_secs(20));
    let mut rows = Vec::new();
    for n in [15usize, 25, 50] {
        rows.extend(compare(n, 2015 + n as u64, budget));
    }
    let mut table = Table::new(
        "Table 2: exact branch-and-bound vs MP (storage given max-recreation θ)",
        &["instance", "θ", "exact C", "optimal?", "MP C", "MP/exact"],
    );
    for r in &rows {
        table.row(vec![
            r.instance.clone(),
            human_bytes(r.theta),
            human_bytes(r.exact_storage),
            if r.proven_optimal { "yes" } else { "timeout" }.to_string(),
            human_bytes(r.mp_storage),
            format!("{:.3}", r.mp_storage as f64 / r.exact_storage.max(1) as f64),
        ]);
    }
    table.emit("table2");
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mp_close_to_exact_on_small_instances() {
        let rows = compare(10, 7, Duration::from_secs(5));
        assert!(!rows.is_empty());
        for r in &rows {
            // MP never beats the exact solver when the search closed.
            if r.proven_optimal {
                assert!(r.mp_storage >= r.exact_storage, "{r:?}");
            }
            // And stays within 2x on these tiny instances.
            assert!(r.mp_storage <= r.exact_storage * 2, "{r:?}");
        }
    }
}
