//! The solver registry: [`SOLVERS`], one row per solver module,
//! discoverable by name.
//!
//! A row states its solver once — its name, a one-line description, which
//! problems it supports (exactly or heuristically), whether it is
//! hybrid-capable, and how it solves — so a new solver becomes reachable
//! from the planner ([`crate::plan()`]), the VCS layer, the CLI, and the
//! bench harness by adding one row. Rows share a contract:
//!
//! - a solver *errors* only when it can prove something (its parameters
//!   are invalid, the instance is unsolvable, or the problem's constraint
//!   is provably infeasible — e.g. MST's storage is the minimum, SPT's
//!   recreation costs are the minimum);
//! - otherwise it returns its best solution, and the planner records
//!   whether that solution satisfies the constraint
//!   ([`crate::Provenance::feasible`]);
//! - [`Solver::solve`] refuses a problem outside the row's support with
//!   [`SolveError::UnsupportedProblem`] before the row runs, so a row
//!   only ever sees the problems its support names.

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

/// One registered solver: a row of [`SOLVERS`].
#[derive(Debug)]
pub struct Solver {
    /// Registry name (lower-case, stable: `"mst"`, `"lmg"`, ...).
    pub name: &'static str,
    /// One-line description for listings.
    pub description: &'static str,
    /// Whether the solver searches the three-mode hybrid model on
    /// instances with revealed chunked costs (binary-only solvers simply
    /// never choose [`crate::StorageMode::Chunked`]).
    pub hybrid_capable: bool,
    support: fn(Problem) -> Option<Support>,
    solve: fn(&ProblemInstance, &Problem, &SolverTuning) -> Result<SolverOutcome, SolveError>,
}

impl Solver {
    /// How this solver handles `problem` (`None` = not supported).
    pub fn support(&self, problem: Problem) -> Option<Support> {
        (self.support)(problem)
    }

    /// [`Solver::support`], with an unsupported problem as the error
    /// [`Solver::solve`] returns for it.
    pub(crate) fn require(&self, problem: Problem) -> Result<Support, SolveError> {
        self.support(problem).ok_or(SolveError::UnsupportedProblem {
            solver: self.name,
            problem: problem.number(),
        })
    }

    /// Solves `problem` on `instance` with this solver's parameters from
    /// `tuning`; a problem outside its support is refused before it runs.
    pub fn solve(
        &self,
        instance: &ProblemInstance,
        problem: &Problem,
        tuning: &SolverTuning,
    ) -> Result<SolverOutcome, SolveError> {
        self.require(*problem)?;
        (self.solve)(instance, problem, tuning)
    }
}

/// Why a row may treat every problem its support does not name as
/// unreachable.
const CHECKED: &str = "Solver::solve admits only supported problems";

/// Every registered solver. Row order is the *last* tie-break for
/// portfolio wins (after the problem's cost key and exact-over-heuristic
/// preference — see [`mod@crate::plan`]).
pub static SOLVERS: [Solver; 9] = [
    // MST / minimum-cost arborescence: exact for Problem 1; its
    // minimum-storage tree is also the "all budget on storage" endpoint
    // for the others.
    Solver {
        name: "mst",
        description: "minimum spanning tree / min-cost arborescence (exact minimum storage)",
        hybrid_capable: true,
        support: |problem| match problem {
            Problem::MinStorage => Some(Support::Exact),
            Problem::MinRecreation => None,
            _ => Some(Support::Heuristic),
        },
        solve: |instance, problem, _| {
            let sol = mst::solve(instance)?;
            match *problem {
                // MST storage is the minimum: exceeding β proves
                // infeasibility.
                Problem::MinSumRecreationGivenStorage { beta }
                | Problem::MinMaxRecreationGivenStorage { beta }
                    if sol.storage_cost() > beta =>
                {
                    Err(SolveError::StorageBudgetInfeasible {
                        beta,
                        minimum: sol.storage_cost(),
                    })
                }
                _ => Ok(sol.into()),
            }
        },
    },
    // Shortest-path tree: exact for Problem 2; the "all budget on
    // recreation" endpoint for the others.
    Solver {
        name: "spt",
        description: "shortest-path tree over Φ (exact minimum recreation)",
        hybrid_capable: true,
        support: |problem| match problem {
            Problem::MinRecreation => Some(Support::Exact),
            Problem::MinStorage => None,
            _ => Some(Support::Heuristic),
        },
        solve: |instance, problem, _| {
            let sol = spt::solve(instance)?;
            // SPT minimizes every Ri simultaneously: a ΣRi or max Ri
            // above θ proves infeasibility.
            let (theta, minimum) = match *problem {
                Problem::MinStorageGivenSumRecreation { theta } => (theta, sol.sum_recreation()),
                Problem::MinStorageGivenMaxRecreation { theta } => (theta, sol.max_recreation()),
                _ => return Ok(sol.into()),
            };
            if minimum > theta {
                Err(SolveError::RecreationThresholdInfeasible { theta, minimum })
            } else {
                Ok(sol.into())
            }
        },
    },
    // The exact branch-and-bound, under a wall-clock budget and an
    // optional deterministic node budget.
    Solver {
        name: "ilp",
        description: "exact branch-and-bound for Problem 6 (stands in for the §2.3 ILP)",
        // The in-edge candidates include the chunk-store root, so the
        // search covers the three-mode model exactly.
        hybrid_capable: true,
        support: |problem| {
            matches!(problem, Problem::MinStorageGivenMaxRecreation { .. })
                .then_some(Support::Exact)
        },
        solve: |instance, problem, tuning| {
            let Problem::MinStorageGivenMaxRecreation { theta } = *problem else {
                unreachable!("{CHECKED}")
            };
            let r = ilp::solve_storage_given_max_exact_bounded(
                instance,
                theta,
                tuning.exact_budget,
                tuning.exact_node_budget,
            )?;
            Ok(SolverOutcome {
                solution: r.solution,
                proven_optimal: Some(r.proven_optimal),
                nodes_explored: Some(r.nodes_explored),
            })
        },
    },
    // LMG, workload-aware when the tuning or the instance's weights say so.
    Solver {
        name: "lmg",
        description: "Local Move Greedy (§4.1), workload-aware when weights are present",
        hybrid_capable: true,
        support: |problem| match problem {
            Problem::MinSumRecreationGivenStorage { .. }
            | Problem::MinStorageGivenSumRecreation { .. } => Some(Support::Heuristic),
            _ => None,
        },
        solve: |instance, problem, tuning| {
            let weighted = tuning
                .lmg_weighted
                .unwrap_or_else(|| instance.weights().is_some());
            match *problem {
                Problem::MinSumRecreationGivenStorage { beta } => {
                    lmg::solve_sum_given_storage(instance, beta, weighted)
                }
                Problem::MinStorageGivenSumRecreation { theta } => {
                    lmg::solve_storage_given_sum(instance, theta, weighted)
                }
                _ => unreachable!("{CHECKED}"),
            }
            .map(SolverOutcome::from)
        },
    },
    // Modified Prim's.
    Solver {
        name: "mp",
        description: "Modified Prim's (§4.2) for max-recreation bounds",
        hybrid_capable: true,
        support: |problem| match problem {
            Problem::MinMaxRecreationGivenStorage { .. }
            | Problem::MinStorageGivenMaxRecreation { .. } => Some(Support::Heuristic),
            _ => None,
        },
        solve: |instance, problem, _| {
            match *problem {
                Problem::MinMaxRecreationGivenStorage { beta } => {
                    mp::solve_max_given_storage(instance, beta)
                }
                Problem::MinStorageGivenMaxRecreation { theta } => {
                    mp::solve_storage_given_max(instance, theta)
                }
                _ => unreachable!("{CHECKED}"),
            }
            .map(SolverOutcome::from)
        },
    },
    // LAST: an unconstrained MST/SPT balance, meaningful as a candidate
    // on every axis (constraints are checked by the planner, not the
    // solver).
    Solver {
        name: "last",
        description: "Khuller et al. LAST (§4.3): α-balanced MST/SPT blend",
        hybrid_capable: true,
        support: |_| Some(Support::Heuristic),
        solve: |instance, _, tuning| last::solve(instance, tuning.last_alpha).map(Into::into),
    },
    // GitH: the practitioner baseline, likewise unconstrained.
    Solver {
        name: "gith",
        description: "Git repack heuristic (§4.4, Appendix A): windowed delta search",
        hybrid_capable: true,
        support: |_| Some(Support::Heuristic),
        solve: |instance, _, tuning| gith::solve(instance, tuning.gith).map(Into::into),
    },
    // The bounded-hop variant: bounds chain *length* rather than Φ,
    // offered as a Problem-6 candidate (its θ-feasibility is checked by
    // the planner).
    Solver {
        name: "hop",
        description: "bounded-hop variant (Φ ≡ 1, §3): limits delta-chain length",
        hybrid_capable: true,
        support: |problem| {
            matches!(problem, Problem::MinStorageGivenMaxRecreation { .. })
                .then_some(Support::Heuristic)
        },
        solve: |instance, _, tuning| {
            hop::solve_storage_given_hops(instance, tuning.hop_bound).map(Into::into)
        },
    },
    // SVN skip-deltas: a structural baseline for linear histories.
    Solver {
        name: "skip-delta",
        description:
            "SVN FSFS skip-delta baseline (§5.2); needs a linear history's skip pairs revealed",
        hybrid_capable: false,
        support: |problem| matches!(problem, Problem::MinStorage).then_some(Support::Heuristic),
        solve: |instance, _, _| skip_delta::solve(instance).map(Into::into),
    },
];

/// Looks up one registered solver by name (case-insensitive; `_` and `-`
/// are interchangeable).
pub fn by_name(name: &str) -> Option<&'static Solver> {
    let normalized = name.to_ascii_lowercase().replace('_', "-");
    SOLVERS.iter().find(|s| s.name == normalized)
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
            for solver in &SOLVERS {
                for problem in problems(&inst) {
                    match solver.support(problem) {
                        Some(_) => {
                            let sol = solver
                                .solve(&inst, &problem, &SolverTuning::default())
                                .map(|o| o.solution)
                                .unwrap_or_else(|e| {
                                    panic!("{} advertises {problem} but failed: {e}", solver.name)
                                });
                            assert!(
                                sol.validate(&inst).is_ok(),
                                "{} produced an invalid solution for {problem}",
                                solver.name
                            );
                            if !solver.hybrid_capable {
                                assert_eq!(sol.chunked().count(), 0, "{}", solver.name);
                            }
                        }
                        None => {
                            assert!(
                                matches!(
                                    solver.solve(&inst, &problem, &SolverTuning::default()),
                                    Err(SolveError::UnsupportedProblem { .. })
                                ),
                                "{} should reject {problem}",
                                solver.name
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
            let capable = SOLVERS
                .iter()
                .filter(|s| s.support(problem).is_some())
                .count();
            assert!(capable >= 3, "{problem} has only {capable} candidates");
        }
    }

    #[test]
    fn by_name_normalizes() {
        assert_eq!(by_name("LMG").unwrap().name, "lmg");
        assert_eq!(by_name("skip_delta").unwrap().name, "skip-delta");
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
        let tuning = SolverTuning::default();
        let out = solver
            .solve(
                &inst,
                &Problem::MinStorageGivenMaxRecreation { theta },
                &tuning,
            )
            .unwrap();
        assert_eq!(out.proven_optimal, Some(true));
        assert!(out.nodes_explored.unwrap() > 0);
        // Heuristics have no exact metadata.
        let out = by_name("mp")
            .unwrap()
            .solve(
                &inst,
                &Problem::MinStorageGivenMaxRecreation { theta },
                &tuning,
            )
            .unwrap();
        assert_eq!(out.proven_optimal, None);
    }
}
