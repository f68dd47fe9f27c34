//! The solver registry: one uniform [`Solver`] adapter per solver module,
//! discoverable by name.
//!
//! Every module in [`crate::solvers`] registers here with metadata — its
//! name, which problems it supports (exactly or heuristically), and
//! whether it is hybrid-capable — so new solvers become reachable from the
//! planner ([`crate::plan()`]), the VCS layer, the CLI, and the bench
//! harness by adding one adapter to [`registry_tuned`]. Adapters enforce a
//! shared contract:
//!
//! - a solver *errors* only when it can prove something (its parameters
//!   are invalid, the instance is unsolvable, or the problem's constraint
//!   is provably infeasible — e.g. MST's storage is the minimum, SPT's
//!   recreation costs are the minimum);
//! - otherwise it returns its best solution, and the planner records
//!   whether that solution satisfies the constraint
//!   ([`crate::Provenance::feasible`]);
//! - problems outside a solver's advertised support return
//!   [`SolveError::UnsupportedProblem`].

use crate::error::SolveError;
use crate::instance::ProblemInstance;
use crate::plan::SolverTuning;
use crate::problem::Problem;
use crate::solution::StorageSolution;
use crate::solvers::{gith, hop, ilp, last, lmg, mp, mst, skip_delta, spt};

/// How well a solver handles a problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Support {
    /// Produces a provably optimal solution (possibly within a time
    /// budget; see [`SolverOutcome::proven_optimal`]).
    Exact,
    /// Produces a best-effort solution; constraints may be enforced,
    /// checked post-hoc, or ignored (feasibility is recorded by the
    /// planner).
    Heuristic,
}

/// A solve result with optional exact-search metadata.
#[derive(Debug, Clone)]
pub struct SolverOutcome {
    /// The (validated) solution.
    pub solution: StorageSolution,
    /// For exact solvers: whether the search space was exhausted.
    pub proven_optimal: Option<bool>,
    /// For exact solvers: branch-and-bound nodes explored.
    pub nodes_explored: Option<u64>,
}

impl From<StorageSolution> for SolverOutcome {
    fn from(solution: StorageSolution) -> Self {
        SolverOutcome {
            solution,
            proven_optimal: None,
            nodes_explored: None,
        }
    }
}

/// The uniform adapter every solver module registers.
pub trait Solver: Send + Sync {
    /// Registry name (lower-case, stable: `"mst"`, `"lmg"`, ...).
    fn name(&self) -> &'static str;

    /// One-line description for listings.
    fn description(&self) -> &'static str;

    /// How this solver handles `problem` (`None` = not supported).
    fn support(&self, problem: Problem) -> Option<Support>;

    /// Whether the solver searches the three-mode hybrid model on
    /// instances with revealed chunked costs (binary-only solvers simply
    /// never choose [`crate::StorageMode::Chunked`]).
    fn hybrid_capable(&self) -> bool;

    /// Solves `problem` on `instance`.
    fn solve(
        &self,
        instance: &ProblemInstance,
        problem: &Problem,
    ) -> Result<StorageSolution, SolveError>;

    /// Like [`Solver::solve`], with exact-search metadata when the solver
    /// has any. The default wraps `solve`.
    fn solve_detailed(
        &self,
        instance: &ProblemInstance,
        problem: &Problem,
    ) -> Result<SolverOutcome, SolveError> {
        self.solve(instance, problem).map(SolverOutcome::from)
    }
}

fn unsupported(solver: &'static str, problem: &Problem) -> SolveError {
    SolveError::UnsupportedProblem {
        solver,
        problem: problem.number(),
    }
}

/// MST / minimum-cost arborescence: exact for Problem 1; its minimum-storage
/// tree is also the "all budget on storage" endpoint for the others.
struct MstSolver;

impl Solver for MstSolver {
    fn name(&self) -> &'static str {
        "mst"
    }
    fn description(&self) -> &'static str {
        "minimum spanning tree / min-cost arborescence (exact minimum storage)"
    }
    fn support(&self, problem: Problem) -> Option<Support> {
        match problem {
            Problem::MinStorage => Some(Support::Exact),
            Problem::MinRecreation => None,
            _ => Some(Support::Heuristic),
        }
    }
    fn hybrid_capable(&self) -> bool {
        true
    }
    fn solve(
        &self,
        instance: &ProblemInstance,
        problem: &Problem,
    ) -> Result<StorageSolution, SolveError> {
        match problem {
            Problem::MinRecreation => Err(unsupported(self.name(), problem)),
            Problem::MinSumRecreationGivenStorage { beta }
            | Problem::MinMaxRecreationGivenStorage { beta } => {
                let sol = mst::solve(instance)?;
                // MST storage is the minimum: exceeding β proves
                // infeasibility.
                if sol.storage_cost() > *beta {
                    Err(SolveError::StorageBudgetInfeasible {
                        beta: *beta,
                        minimum: sol.storage_cost(),
                    })
                } else {
                    Ok(sol)
                }
            }
            _ => mst::solve(instance),
        }
    }
}

/// Shortest-path tree: exact for Problem 2; the "all budget on recreation"
/// endpoint for the others.
struct SptSolver;

impl Solver for SptSolver {
    fn name(&self) -> &'static str {
        "spt"
    }
    fn description(&self) -> &'static str {
        "shortest-path tree over Φ (exact minimum recreation)"
    }
    fn support(&self, problem: Problem) -> Option<Support> {
        match problem {
            Problem::MinRecreation => Some(Support::Exact),
            Problem::MinStorage => None,
            _ => Some(Support::Heuristic),
        }
    }
    fn hybrid_capable(&self) -> bool {
        true
    }
    fn solve(
        &self,
        instance: &ProblemInstance,
        problem: &Problem,
    ) -> Result<StorageSolution, SolveError> {
        match problem {
            Problem::MinStorage => Err(unsupported(self.name(), problem)),
            Problem::MinStorageGivenSumRecreation { theta } => {
                let sol = spt::solve(instance)?;
                // SPT minimizes every Ri simultaneously: a ΣRi above θ
                // proves infeasibility.
                if sol.sum_recreation() > *theta {
                    Err(SolveError::RecreationThresholdInfeasible {
                        theta: *theta,
                        minimum: sol.sum_recreation(),
                    })
                } else {
                    Ok(sol)
                }
            }
            Problem::MinStorageGivenMaxRecreation { theta } => {
                let sol = spt::solve(instance)?;
                if sol.max_recreation() > *theta {
                    Err(SolveError::RecreationThresholdInfeasible {
                        theta: *theta,
                        minimum: sol.max_recreation(),
                    })
                } else {
                    Ok(sol)
                }
            }
            _ => spt::solve(instance),
        }
    }
}

/// LMG with an optional workload-aware override.
struct LmgSolver {
    weighted: Option<bool>,
}

impl Solver for LmgSolver {
    fn name(&self) -> &'static str {
        "lmg"
    }
    fn description(&self) -> &'static str {
        "Local Move Greedy (§4.1), workload-aware when weights are present"
    }
    fn support(&self, problem: Problem) -> Option<Support> {
        match problem {
            Problem::MinSumRecreationGivenStorage { .. }
            | Problem::MinStorageGivenSumRecreation { .. } => Some(Support::Heuristic),
            _ => None,
        }
    }
    fn hybrid_capable(&self) -> bool {
        true
    }
    fn solve(
        &self,
        instance: &ProblemInstance,
        problem: &Problem,
    ) -> Result<StorageSolution, SolveError> {
        let weighted = self
            .weighted
            .unwrap_or_else(|| instance.weights().is_some());
        match problem {
            Problem::MinSumRecreationGivenStorage { beta } => {
                lmg::solve_sum_given_storage(instance, *beta, weighted)
            }
            Problem::MinStorageGivenSumRecreation { theta } => {
                lmg::solve_storage_given_sum(instance, *theta, weighted)
            }
            _ => Err(unsupported(self.name(), problem)),
        }
    }
}

/// Modified Prim's.
struct MpSolver;

impl Solver for MpSolver {
    fn name(&self) -> &'static str {
        "mp"
    }
    fn description(&self) -> &'static str {
        "Modified Prim's (§4.2) for max-recreation bounds"
    }
    fn support(&self, problem: Problem) -> Option<Support> {
        match problem {
            Problem::MinMaxRecreationGivenStorage { .. }
            | Problem::MinStorageGivenMaxRecreation { .. } => Some(Support::Heuristic),
            _ => None,
        }
    }
    fn hybrid_capable(&self) -> bool {
        true
    }
    fn solve(
        &self,
        instance: &ProblemInstance,
        problem: &Problem,
    ) -> Result<StorageSolution, SolveError> {
        match problem {
            Problem::MinMaxRecreationGivenStorage { beta } => {
                mp::solve_max_given_storage(instance, *beta)
            }
            Problem::MinStorageGivenMaxRecreation { theta } => {
                mp::solve_storage_given_max(instance, *theta)
            }
            _ => Err(unsupported(self.name(), problem)),
        }
    }
}

/// LAST: an unconstrained MST/SPT balance, meaningful as a candidate on
/// every axis (constraints are checked by the planner, not the solver).
struct LastSolver {
    alpha: f64,
}

impl Solver for LastSolver {
    fn name(&self) -> &'static str {
        "last"
    }
    fn description(&self) -> &'static str {
        "Khuller et al. LAST (§4.3): α-balanced MST/SPT blend"
    }
    fn support(&self, _problem: Problem) -> Option<Support> {
        Some(Support::Heuristic)
    }
    fn hybrid_capable(&self) -> bool {
        true
    }
    fn solve(
        &self,
        instance: &ProblemInstance,
        _problem: &Problem,
    ) -> Result<StorageSolution, SolveError> {
        last::solve(instance, self.alpha)
    }
}

/// GitH: the practitioner baseline, likewise unconstrained.
struct GitHSolver {
    params: gith::GitHParams,
}

impl Solver for GitHSolver {
    fn name(&self) -> &'static str {
        "gith"
    }
    fn description(&self) -> &'static str {
        "Git repack heuristic (§4.4, Appendix A): windowed delta search"
    }
    fn support(&self, _problem: Problem) -> Option<Support> {
        Some(Support::Heuristic)
    }
    fn hybrid_capable(&self) -> bool {
        true
    }
    fn solve(
        &self,
        instance: &ProblemInstance,
        _problem: &Problem,
    ) -> Result<StorageSolution, SolveError> {
        gith::solve(instance, self.params)
    }
}

/// SVN skip-deltas: a structural baseline for linear histories.
struct SkipDeltaSolver;

impl Solver for SkipDeltaSolver {
    fn name(&self) -> &'static str {
        "skip-delta"
    }
    fn description(&self) -> &'static str {
        "SVN FSFS skip-delta baseline (§5.2); needs a linear history's skip pairs revealed"
    }
    fn support(&self, problem: Problem) -> Option<Support> {
        matches!(problem, Problem::MinStorage).then_some(Support::Heuristic)
    }
    fn hybrid_capable(&self) -> bool {
        false
    }
    fn solve(
        &self,
        instance: &ProblemInstance,
        problem: &Problem,
    ) -> Result<StorageSolution, SolveError> {
        match problem {
            Problem::MinStorage => skip_delta::solve(instance),
            _ => Err(unsupported(self.name(), problem)),
        }
    }
}

/// The exact branch-and-bound, under a wall-clock budget and an optional
/// deterministic node budget.
struct IlpSolver {
    budget: std::time::Duration,
    node_budget: Option<u64>,
}

impl Solver for IlpSolver {
    fn name(&self) -> &'static str {
        "ilp"
    }
    fn description(&self) -> &'static str {
        "exact branch-and-bound for Problem 6 (stands in for the §2.3 ILP)"
    }
    fn support(&self, problem: Problem) -> Option<Support> {
        matches!(problem, Problem::MinStorageGivenMaxRecreation { .. }).then_some(Support::Exact)
    }
    fn hybrid_capable(&self) -> bool {
        // The in-edge candidates include the chunk-store root, so the
        // search covers the three-mode model exactly.
        true
    }
    fn solve(
        &self,
        instance: &ProblemInstance,
        problem: &Problem,
    ) -> Result<StorageSolution, SolveError> {
        self.solve_detailed(instance, problem).map(|o| o.solution)
    }
    fn solve_detailed(
        &self,
        instance: &ProblemInstance,
        problem: &Problem,
    ) -> Result<SolverOutcome, SolveError> {
        match problem {
            Problem::MinStorageGivenMaxRecreation { theta } => {
                let r = ilp::solve_storage_given_max_exact_bounded(
                    instance,
                    *theta,
                    self.budget,
                    self.node_budget,
                )?;
                Ok(SolverOutcome {
                    solution: r.solution,
                    proven_optimal: Some(r.proven_optimal),
                    nodes_explored: Some(r.nodes_explored),
                })
            }
            _ => Err(unsupported(self.name(), problem)),
        }
    }
}

/// The bounded-hop variant: bounds chain *length* rather than Φ, offered
/// as a Problem-6 candidate (its θ-feasibility is checked by the planner).
struct HopSolver {
    max_hops: u32,
}

impl Solver for HopSolver {
    fn name(&self) -> &'static str {
        "hop"
    }
    fn description(&self) -> &'static str {
        "bounded-hop variant (Φ ≡ 1, §3): limits delta-chain length"
    }
    fn support(&self, problem: Problem) -> Option<Support> {
        matches!(problem, Problem::MinStorageGivenMaxRecreation { .. })
            .then_some(Support::Heuristic)
    }
    fn hybrid_capable(&self) -> bool {
        true
    }
    fn solve(
        &self,
        instance: &ProblemInstance,
        problem: &Problem,
    ) -> Result<StorageSolution, SolveError> {
        match problem {
            Problem::MinStorageGivenMaxRecreation { .. } => {
                hop::solve_storage_given_hops(instance, self.max_hops)
            }
            _ => Err(unsupported(self.name(), problem)),
        }
    }
}

/// All registered solvers, with per-solver parameters from `tuning`.
/// Registry order is the *last* tie-break for portfolio wins (after the
/// problem's cost key and exact-over-heuristic preference — see
/// [`mod@crate::plan`]).
pub fn registry_tuned(tuning: &SolverTuning) -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(MstSolver),
        Box::new(SptSolver),
        Box::new(IlpSolver {
            budget: tuning.exact_budget,
            node_budget: tuning.exact_node_budget,
        }),
        Box::new(LmgSolver {
            weighted: tuning.lmg_weighted,
        }),
        Box::new(MpSolver),
        Box::new(LastSolver {
            alpha: tuning.last_alpha,
        }),
        Box::new(GitHSolver {
            params: tuning.gith,
        }),
        Box::new(HopSolver {
            max_hops: tuning.hop_bound,
        }),
        Box::new(SkipDeltaSolver),
    ]
}

/// All registered solvers with default parameters.
pub fn registry() -> Vec<Box<dyn Solver>> {
    registry_tuned(&SolverTuning::default())
}

/// Looks up one registered solver by name (case-insensitive; `_` and `-`
/// are interchangeable), with parameters from `tuning`.
pub fn by_name_tuned(name: &str, tuning: &SolverTuning) -> Option<Box<dyn Solver>> {
    let normalized = name.to_ascii_lowercase().replace('_', "-");
    registry_tuned(tuning)
        .into_iter()
        .find(|s| s.name() == normalized)
}

/// Looks up one registered solver by name, with default parameters.
pub fn by_name(name: &str) -> Option<Box<dyn Solver>> {
    by_name_tuned(name, &SolverTuning::default())
}

/// The solver Table 1 prescribes for each problem.
pub fn prescribed(problem: Problem) -> &'static str {
    match problem {
        Problem::MinStorage => "mst",
        Problem::MinRecreation => "spt",
        Problem::MinSumRecreationGivenStorage { .. }
        | Problem::MinStorageGivenSumRecreation { .. } => "lmg",
        Problem::MinMaxRecreationGivenStorage { .. }
        | Problem::MinStorageGivenMaxRecreation { .. } => "mp",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::fixtures::{paper_example, paper_example_chunked};
    use crate::matrix::CostPair;

    /// The paper fixture with every SVN skip pair revealed (so the
    /// skip-delta baseline is structurally applicable), optionally with
    /// chunked costs.
    fn fixture(hybrid: bool) -> ProblemInstance {
        let base = if hybrid {
            paper_example_chunked()
        } else {
            paper_example()
        };
        let mut m = base.matrix().clone();
        // Skip parents for n = 5: v1←0 (revealed), v2←0 (revealed),
        // v3←2, v4←0 (both missing from the paper example).
        m.reveal(2, 3, CostPair::new(400, 900));
        m.reveal(0, 4, CostPair::new(1200, 2800));
        ProblemInstance::new(m)
    }

    /// Reasonable bounds for each problem on the fixture.
    fn problems(inst: &ProblemInstance) -> Vec<Problem> {
        let mca = mst::solve(inst).unwrap();
        let spt_sol = spt::solve(inst).unwrap();
        let beta = mca.storage_cost() * 3 / 2;
        vec![
            Problem::MinStorage,
            Problem::MinRecreation,
            Problem::MinSumRecreationGivenStorage { beta },
            Problem::MinMaxRecreationGivenStorage { beta },
            Problem::MinStorageGivenSumRecreation {
                theta: spt_sol.sum_recreation() * 3 / 2,
            },
            Problem::MinStorageGivenMaxRecreation {
                theta: spt_sol.max_recreation() * 3 / 2,
            },
        ]
    }

    /// Satellite acceptance: every registry entry's advertised problem
    /// support matches what it actually solves without error on the paper
    /// fixture, and unsupported problems are rejected as such.
    #[test]
    fn advertised_support_matches_behaviour() {
        for hybrid in [false, true] {
            let inst = fixture(hybrid);
            for solver in registry() {
                for problem in problems(&inst) {
                    match solver.support(problem) {
                        Some(_) => {
                            let sol = solver.solve(&inst, &problem).unwrap_or_else(|e| {
                                panic!("{} advertises {problem} but failed: {e}", solver.name())
                            });
                            assert!(
                                sol.validate(&inst).is_ok(),
                                "{} produced an invalid solution for {problem}",
                                solver.name()
                            );
                            if !solver.hybrid_capable() {
                                assert_eq!(sol.chunked().count(), 0, "{}", solver.name());
                            }
                        }
                        None => {
                            assert!(
                                matches!(
                                    solver.solve(&inst, &problem),
                                    Err(SolveError::UnsupportedProblem { .. })
                                ),
                                "{} should reject {problem}",
                                solver.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_problem_has_at_least_three_candidates() {
        let inst = fixture(false);
        for problem in problems(&inst) {
            let capable = registry()
                .iter()
                .filter(|s| s.support(problem).is_some())
                .count();
            assert!(capable >= 3, "{problem} has only {capable} candidates");
        }
    }

    #[test]
    fn by_name_normalizes() {
        assert_eq!(by_name("LMG").unwrap().name(), "lmg");
        assert_eq!(by_name("skip_delta").unwrap().name(), "skip-delta");
        assert!(by_name("gurobi").is_none());
    }

    #[test]
    fn prescribed_solvers_are_registered_and_capable() {
        let inst = fixture(false);
        for problem in problems(&inst) {
            let solver = by_name(prescribed(problem)).expect("registered");
            assert!(solver.support(problem).is_some(), "{problem}");
        }
    }

    #[test]
    fn exact_metadata_flows_through_solve_detailed() {
        let inst = fixture(false);
        let theta = spt::solve(&inst).unwrap().max_recreation() * 2;
        let solver = by_name("ilp").unwrap();
        let out = solver
            .solve_detailed(&inst, &Problem::MinStorageGivenMaxRecreation { theta })
            .unwrap();
        assert_eq!(out.proven_optimal, Some(true));
        assert!(out.nodes_explored.unwrap() > 0);
        // Heuristics have no exact metadata.
        let out = by_name("mp")
            .unwrap()
            .solve_detailed(&inst, &Problem::MinStorageGivenMaxRecreation { theta })
            .unwrap();
        assert_eq!(out.proven_optimal, None);
    }
}
