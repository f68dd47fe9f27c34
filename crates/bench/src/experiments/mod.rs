//! One module per element of the paper's evaluation (§5), plus the
//! registry-wide `solver_matrix` cross-comparison.
//!
//! All experiments reach the solver suite through the planner
//! ([`dsv_core::plan`] with a [`PlanSpec`]) — the registry is the single
//! solver entry point outside `dsv-core`.

pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod hybrid;
pub mod sec52;
pub mod solver_matrix;
pub mod substrates;
pub mod table2;

use crate::Scale;
use dsv_core::{
    plan, CostMatrix, PlanSpec, Problem, ProblemInstance, SolveError, SolverChoice, StorageSolution,
};
use dsv_workloads::{presets, Dataset};
use std::sync::{Arc, Mutex, OnceLock};

/// Runs one named registry solver on `problem` through the planner.
pub fn named_solve(
    instance: &ProblemInstance,
    problem: Problem,
    solver: &str,
) -> Result<StorageSolution, SolveError> {
    plan(
        instance,
        &PlanSpec::new(problem).solver(SolverChoice::named(solver)),
    )
    .map(|p| p.solution)
}

/// Runs the Table-1 prescribed solver on `problem` through the planner.
pub fn auto_solve(
    instance: &ProblemInstance,
    problem: Problem,
) -> Result<StorageSolution, SolveError> {
    plan(instance, &PlanSpec::new(problem)).map(|p| p.solution)
}

/// The minimum-storage (MST/MCA) reference solution.
pub fn mca_reference(instance: &ProblemInstance) -> StorageSolution {
    named_solve(instance, Problem::MinStorage, "mst").expect("instance solvable")
}

/// The minimum-recreation (SPT) reference solution.
pub fn spt_reference(instance: &ProblemInstance) -> StorageSolution {
    named_solve(instance, Problem::MinRecreation, "spt").expect("instance solvable")
}

/// Dataset construction dominates harness runtime (tens of thousands of
/// real diffs), and several figures share the same four datasets, so
/// `repro_all` caches them per scale within the process.
type Cache = Mutex<Vec<((Scale, bool), Arc<Vec<Dataset>>)>>;

fn cache() -> &'static Cache {
    static CACHE: OnceLock<Cache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(Vec::new()))
}

fn cached(
    scale: Scale,
    undirected: bool,
    build: impl FnOnce() -> Vec<Dataset>,
) -> Arc<Vec<Dataset>> {
    let key = (scale, undirected);
    if let Some((_, hit)) = cache().lock().unwrap().iter().find(|(k, _)| *k == key) {
        return Arc::clone(hit);
    }
    let built = Arc::new(build());
    cache().lock().unwrap().push((key, Arc::clone(&built)));
    built
}

/// The four presets at the scale's size.
pub fn datasets(scale: Scale) -> Arc<Vec<Dataset>> {
    cached(scale, false, || {
        let seed = 2015;
        vec![
            presets::densely_connected()
                .scaled(scale.pick(120, 600))
                .build(seed),
            presets::linear_chain()
                .scaled(scale.pick(120, 600))
                .build(seed),
            presets::bootstrap_forks()
                .scaled(scale.pick(40, 180))
                .build(seed),
            presets::linux_forks()
                .scaled(scale.pick(12, 48))
                .build(seed),
        ]
    })
}

/// Undirected variants of DC, LC, BF (the paper's §5.3 set).
pub fn undirected_datasets(scale: Scale) -> Arc<Vec<Dataset>> {
    cached(scale, true, || {
        let seed = 2015;
        vec![
            presets::densely_connected()
                .scaled(scale.pick(120, 600))
                .undirected()
                .build(seed),
            presets::linear_chain()
                .scaled(scale.pick(120, 600))
                .undirected()
                .build(seed),
            presets::bootstrap_forks()
                .scaled(scale.pick(40, 180))
                .undirected()
                .build(seed),
        ]
    })
}

/// Restricts a dataset's matrix to a BFS-sampled sub-version-graph of
/// `target` versions — the paper's subgraph sampling for the running-time
/// experiment ("we randomly choose a node and traverse the graph … in
/// breadth-first manner till we construct a subgraph with n versions").
pub fn subsample(dataset: &Dataset, target: usize, seed: u64) -> ProblemInstance {
    let graph = dataset
        .graph
        .as_ref()
        .expect("subsampling requires a version graph");
    let dg = graph.to_digraph();
    let start = dsv_graph::NodeId((seed % graph.n as u64) as u32);
    let picked = dsv_graph::traversal::bfs_undirected_limited(&dg, start, target);
    // Reindex.
    let mut index = vec![u32::MAX; graph.n];
    for (new, node) in picked.iter().enumerate() {
        index[node.index()] = new as u32;
    }
    let diag = picked
        .iter()
        .map(|v| dataset.matrix.materialization(v.0))
        .collect();
    let mut matrix = if dataset.matrix.is_symmetric() {
        CostMatrix::undirected(diag)
    } else {
        CostMatrix::directed(diag)
    };
    for (i, j, pair) in dataset.matrix.revealed_entries() {
        let (ni, nj) = (index[i as usize], index[j as usize]);
        if ni != u32::MAX && nj != u32::MAX {
            matrix.reveal(ni, nj, pair);
        }
    }
    ProblemInstance::new(matrix)
}

/// A sweep point: one solver configuration's outcome.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Algorithm name ("LMG", "MP", "LAST", "GitH").
    pub algo: &'static str,
    /// Human-readable parameter value.
    pub param: String,
    /// Total storage cost `C`.
    pub storage: u64,
    /// `Σ Ri`.
    pub sum_recreation: u64,
    /// `max Ri`.
    pub max_recreation: u64,
}

/// Parameter sweeps for the four heuristics on one instance, mirroring how
/// the paper produces each curve of Figures 13–15. `beta_factors`
/// multiply the MCA storage; `theta_factors` multiply the SPT max
/// recreation; `alphas` are LAST's balance parameters; GitH gets a
/// window/depth grid.
pub struct SweepConfig {
    /// LMG storage-budget factors (× minimum storage).
    pub beta_factors: Vec<f64>,
    /// MP recreation-threshold factors (× minimum possible max Ri).
    pub theta_factors: Vec<f64>,
    /// LAST α values.
    pub alphas: Vec<f64>,
    /// GitH (window, depth) grid.
    pub gith: Vec<(usize, u32)>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            beta_factors: vec![1.02, 1.05, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0],
            theta_factors: vec![1.0, 1.05, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0],
            alphas: vec![1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 8.0],
            gith: vec![(10, 50), (25, 50), (50, 50), (50, 10), (1000, 50)],
        }
    }
}

/// Runs all four heuristic sweeps through the planner (each point is a
/// `PlanSpec` naming one registry solver). Infeasible/parameter-error
/// points are skipped (e.g. a θ below feasibility).
pub fn sweep_heuristics(instance: &ProblemInstance, config: &SweepConfig) -> Vec<SweepPoint> {
    use dsv_core::solvers::gith::GitHParams;
    let mut out = Vec::new();
    let mca = mca_reference(instance);
    let spt_sol = spt_reference(instance);
    let mut push = |algo: &'static str, param: String, sol: &StorageSolution| {
        out.push(SweepPoint {
            algo,
            param,
            storage: sol.storage_cost(),
            sum_recreation: sol.sum_recreation(),
            max_recreation: sol.max_recreation(),
        });
    };

    for &f in &config.beta_factors {
        let beta = (mca.storage_cost() as f64 * f) as u64;
        let problem = Problem::MinSumRecreationGivenStorage { beta };
        if let Ok(sol) = named_solve(instance, problem, "lmg") {
            push("LMG", format!("β={f:.2}×MCA"), &sol);
        }
    }
    for &f in &config.theta_factors {
        let theta = (spt_sol.max_recreation() as f64 * f) as u64;
        let problem = Problem::MinStorageGivenMaxRecreation { theta };
        if let Ok(sol) = named_solve(instance, problem, "mp") {
            push("MP", format!("θ={f:.2}×SPTmax"), &sol);
        }
    }
    for &alpha in &config.alphas {
        let spec = PlanSpec::new(Problem::MinStorage)
            .solver(SolverChoice::named("last"))
            .last_alpha(alpha);
        if let Ok(p) = plan(instance, &spec) {
            push("LAST", format!("α={alpha}"), &p.solution);
        }
    }
    for &(window, max_depth) in &config.gith {
        let spec = PlanSpec::new(Problem::MinStorage)
            .solver(SolverChoice::named("gith"))
            .gith_params(GitHParams { window, max_depth });
        if let Ok(p) = plan(instance, &spec) {
            push("GitH", format!("w={window},d={max_depth}"), &p.solution);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_workloads::presets;

    #[test]
    fn subsample_produces_solvable_instance() {
        let ds = presets::densely_connected().scaled(80).build(1);
        let inst = subsample(&ds, 30, 7);
        assert_eq!(inst.version_count(), 30);
        let sol = mca_reference(&inst);
        assert!(sol.validate(&inst).is_ok());
    }

    #[test]
    fn sweep_covers_all_algorithms() {
        let ds = presets::densely_connected().scaled(40).build(2);
        let inst = ds.instance();
        let points = sweep_heuristics(&inst, &SweepConfig::default());
        for algo in ["LMG", "MP", "LAST", "GitH"] {
            assert!(points.iter().any(|p| p.algo == algo), "{algo} missing");
        }
    }
}
