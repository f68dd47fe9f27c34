//! The unified planner API: [`PlanSpec`] + [`plan`].
//!
//! The paper's contribution is a *suite* of interchangeable algorithms
//! evaluated against each other across six problem formulations (its §5
//! cross-solver comparisons and Table 1's "no free lunch"). This module is
//! that suite made operational as one entry point:
//!
//! ```
//! use dsv_core::{plan, PlanSpec, Problem, SolverChoice};
//! # use dsv_core::{CostMatrix, CostPair, ProblemInstance};
//! # let mut m = CostMatrix::directed(vec![CostPair::proportional(100); 3]);
//! # m.reveal(0, 1, CostPair::proportional(10));
//! # m.reveal(1, 2, CostPair::proportional(10));
//! # let instance = ProblemInstance::new(m);
//! // Table-1 dispatch (the prescribed solver for the problem):
//! let auto = plan(&instance, &PlanSpec::new(Problem::MinStorage)).unwrap();
//! // A specific registered solver by name:
//! let spec = PlanSpec::new(Problem::MinStorage).solver(SolverChoice::named("gith"));
//! let gith = plan(&instance, &spec).unwrap();
//! // Portfolio: run every capable solver, keep the cheapest feasible plan.
//! let spec = PlanSpec::new(Problem::MinStorage).solver(SolverChoice::Portfolio);
//! let best = plan(&instance, &spec).unwrap();
//! assert_eq!(best.provenance.solver, "mst"); // P1: MST/MCA is exact
//! assert!(best.solution.storage_cost() <= gith.solution.storage_cost());
//! ```
//!
//! [`plan`] returns a [`Plan`] carrying the winning [`StorageSolution`]
//! plus [`Provenance`]: which solver produced it, whether it satisfies the
//! problem's constraint, and — for portfolio runs — the outcome of every
//! candidate solver, so experiments can reproduce the paper's cross-solver
//! tables from a single call.

use crate::error::SolveError;
use crate::instance::ProblemInstance;
use crate::problem::Problem;
use crate::solution::StorageSolution;
use crate::solvers::gith::GitHParams;
use crate::solvers::registry::{by_name, prescribed, Solver, SolverOutcome, Support, SOLVERS};
use dsv_obs as obs;
use std::time::Duration;

/// Which solver(s) a [`plan`] call runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverChoice {
    /// The solver Table 1 prescribes for the problem (MST/SPT exact,
    /// LMG for 3/5, MP for 4/6).
    Auto,
    /// One registered solver, by registry name (see [`SOLVERS`]).
    Named(String),
    /// Every registered solver that supports the problem; the cheapest
    /// feasible result (by the problem's objective) wins.
    Portfolio,
}

impl SolverChoice {
    /// Convenience constructor for [`SolverChoice::Named`].
    pub fn named(name: impl Into<String>) -> Self {
        SolverChoice::Named(name.into())
    }
}

/// Content-defined chunker sizes, carried by a hybrid [`PlanSpec`] and
/// used by dsv-storage's chunker, chunk store and chunked-cost estimator.
///
/// Valid by construction: [`ChunkerParams::new`] is the only way to build
/// one from outside numbers, and it enforces
/// `16 ≤ min_size ≤ avg_size ≤ max_size ≤ MAX_SIZE` with `avg_size` a
/// power of two (it defines the chunker's cut masks). The upper bound
/// [`ChunkerParams::MAX_SIZE`] (32 MiB) keeps the cut-mask arithmetic
/// (`4 · avg_size`) far from overflow, and keeps the object one chunk
/// becomes inside a 64 MiB `StorePut` frame with room for its envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkerParams {
    min_size: usize,
    avg_size: usize,
    max_size: usize,
}

impl Default for ChunkerParams {
    /// Defaults tuned for this workspace's dataset versions (tens of KB):
    /// 256 B / 1 KiB / 8 KiB.
    fn default() -> Self {
        ChunkerParams {
            min_size: 256,
            avg_size: 1024,
            max_size: 8192,
        }
    }
}

impl ChunkerParams {
    /// Smallest allowed `min_size`.
    pub const MIN_SIZE: usize = 16;

    /// Largest allowed `max_size`: 32 MiB, half the 64 MiB frame cap, so a
    /// chunk's object and its envelope always fit one `StorePut` frame.
    pub const MAX_SIZE: usize = 32 << 20;

    /// The validated constructor; fails with
    /// [`SolveError::InvalidParameter`] naming the violated bound.
    pub fn new(min_size: usize, avg_size: usize, max_size: usize) -> Result<Self, SolveError> {
        let bad = SolveError::InvalidParameter;
        if min_size < Self::MIN_SIZE {
            return Err(bad("chunker min_size must be at least 16"));
        }
        if !avg_size.is_power_of_two() {
            return Err(bad("chunker avg_size must be a power of two"));
        }
        if min_size > avg_size || avg_size > max_size {
            return Err(bad(
                "chunker sizes must satisfy min_size <= avg_size <= max_size",
            ));
        }
        if max_size > Self::MAX_SIZE {
            return Err(bad("chunker max_size must be at most 32 MiB"));
        }
        Ok(ChunkerParams {
            min_size,
            avg_size,
            max_size,
        })
    }

    /// No chunk boundary before this many bytes.
    pub fn min_size(&self) -> usize {
        self.min_size
    }

    /// Target mean chunk size (a power of two).
    pub fn avg_size(&self) -> usize {
        self.avg_size
    }

    /// A chunk boundary is forced at this many bytes.
    pub fn max_size(&self) -> usize {
        self.max_size
    }
}

/// Whether the planner works in the paper's binary model or the three-mode
/// hybrid model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModePolicy {
    /// Follow the context: hybrid when the instance reveals chunked costs
    /// (or, in the VCS layer, when the repository's placement policy is
    /// chunked), binary otherwise.
    #[default]
    Auto,
    /// The paper's binary model: materialize or delta. Chunked costs
    /// revealed on the instance are ignored.
    Binary,
    /// The three-mode model: solvers may also place versions in the shared
    /// chunk store. Layers that build instances from raw contents estimate
    /// chunked costs with this chunker configuration.
    Hybrid(ChunkerParams),
}

/// Per-solver parameters a [`PlanSpec`] can override; defaults match each
/// solver module's documented defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverTuning {
    /// LAST's balance parameter `α` (> 1).
    pub last_alpha: f64,
    /// GitH's window/depth parameters.
    pub gith: GitHParams,
    /// The bounded-hop solver's chain-length bound.
    pub hop_bound: u32,
    /// Wall-clock budget for the exact branch-and-bound.
    pub exact_budget: Duration,
    /// Optional branch-and-bound **node** budget. Unlike the wall-clock
    /// budget, a node cut is deterministic: budget-limited exact results
    /// reproduce across machines, load, and thread counts — set this when
    /// portfolio results must be byte-identical (the determinism suite
    /// does).
    pub exact_node_budget: Option<u64>,
    /// Force LMG's workload-aware variant on (`Some(true)`) or off
    /// (`Some(false)`); `None` uses weights whenever the instance has them.
    pub lmg_weighted: Option<bool>,
}

impl Default for SolverTuning {
    fn default() -> Self {
        SolverTuning {
            last_alpha: 2.0,
            gith: GitHParams::default(),
            hop_bound: 4,
            exact_budget: Duration::from_secs(5),
            exact_node_budget: None,
            lmg_weighted: None,
        }
    }
}

/// A declarative description of one planning run: the problem to solve,
/// which solver(s) to use, the storage-mode model, and layer parameters.
///
/// Built fluently:
///
/// ```
/// use dsv_core::{ModePolicy, PlanSpec, Problem, SolverChoice};
/// let spec = PlanSpec::new(Problem::MinStorage)
///     .solver(SolverChoice::Portfolio)
///     .modes(ModePolicy::Binary)
///     .reveal_hops(8);
/// assert_eq!(spec.reveal_hop_count(), 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSpec {
    problem: Problem,
    solver: SolverChoice,
    modes: ModePolicy,
    reveal_hops: usize,
    tuning: SolverTuning,
}

impl PlanSpec {
    /// A spec solving `problem` with the Table-1 solver, [`ModePolicy::Auto`],
    /// and a reveal neighbourhood of 5 hops.
    pub fn new(problem: Problem) -> Self {
        PlanSpec {
            problem,
            solver: SolverChoice::Auto,
            modes: ModePolicy::Auto,
            reveal_hops: 5,
            tuning: SolverTuning::default(),
        }
    }

    /// Chooses the solver(s) to run.
    pub fn solver(mut self, choice: SolverChoice) -> Self {
        self.solver = choice;
        self
    }

    /// Chooses the storage-mode model.
    pub fn modes(mut self, policy: ModePolicy) -> Self {
        self.modes = policy;
        self
    }

    /// Sets how far around the commit DAG matrix-building layers reveal
    /// deltas (used by `Repository::optimize_with`; ignored by [`plan`],
    /// which receives an already-revealed instance).
    pub fn reveal_hops(mut self, hops: usize) -> Self {
        self.reveal_hops = hops;
        self
    }

    /// Overrides LAST's balance parameter `α`.
    pub fn last_alpha(mut self, alpha: f64) -> Self {
        self.tuning.last_alpha = alpha;
        self
    }

    /// Overrides GitH's window/depth parameters.
    pub fn gith_params(mut self, params: GitHParams) -> Self {
        self.tuning.gith = params;
        self
    }

    /// Overrides the bounded-hop solver's chain-length bound.
    pub fn hop_bound(mut self, hops: u32) -> Self {
        self.tuning.hop_bound = hops;
        self
    }

    /// Overrides the exact solver's wall-clock budget.
    pub fn exact_budget(mut self, budget: Duration) -> Self {
        self.tuning.exact_budget = budget;
        self
    }

    /// Caps the exact solver's branch-and-bound at `nodes` explored — a
    /// deterministic cut, unlike the wall-clock budget (see
    /// [`SolverTuning::exact_node_budget`]).
    pub fn exact_node_budget(mut self, nodes: Option<u64>) -> Self {
        self.tuning.exact_node_budget = nodes;
        self
    }

    /// Forces LMG's workload-aware variant on or off (`None` = use the
    /// instance's weights when present).
    pub fn lmg_weighted(mut self, weighted: Option<bool>) -> Self {
        self.tuning.lmg_weighted = weighted;
        self
    }

    /// The problem this spec solves.
    pub fn problem(&self) -> Problem {
        self.problem
    }

    /// The solver choice.
    pub fn solver_choice(&self) -> &SolverChoice {
        &self.solver
    }

    /// The storage-mode policy.
    pub fn mode_policy(&self) -> ModePolicy {
        self.modes
    }

    /// The reveal neighbourhood for matrix-building layers.
    pub fn reveal_hop_count(&self) -> usize {
        self.reveal_hops
    }

    /// The per-solver parameter overrides.
    pub fn tuning(&self) -> &SolverTuning {
        &self.tuning
    }

    /// The registry rows this spec's solver choice runs, in registry
    /// order: the prescribed row (`Auto`), the named one (`Named`), or
    /// every row supporting the problem (`Portfolio`). Fails as [`plan`]
    /// does, without an instance: [`SolveError::UnknownSolver`] for an
    /// unregistered name, [`SolveError::UnsupportedProblem`] for a named
    /// row outside its support. A layer that builds the instance first
    /// (a repository repack reads every version) calls this before it.
    pub fn resolve_solvers(&self) -> Result<Vec<&'static Solver>, SolveError> {
        let name = match &self.solver {
            SolverChoice::Auto => prescribed(self.problem),
            SolverChoice::Named(name) => name.as_str(),
            SolverChoice::Portfolio => {
                let capable = SOLVERS.iter().filter(|s| s.support(self.problem).is_some());
                return Ok(capable.collect());
            }
        };
        let solver = by_name(name).ok_or_else(|| SolveError::UnknownSolver(name.to_owned()))?;
        solver.require(self.problem)?;
        Ok(vec![solver])
    }
}

/// Cost summary of one candidate solve, evaluated against the problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateSummary {
    /// Total storage cost `C`.
    pub storage: u64,
    /// `Σ Ri`.
    pub sum_recreation: u64,
    /// `max Ri`.
    pub max_recreation: u64,
    /// The problem's objective evaluated on this solution
    /// ([`Problem::objective_value_on`] — weighted on weighted instances;
    /// `sum_recreation` above stays unweighted).
    pub objective: u64,
    /// Whether the solution satisfies the problem's constraint
    /// ([`Problem::is_feasible_on`]).
    pub feasible: bool,
    /// For exact solvers: whether optimality was proven within the budget.
    pub proven_optimal: Option<bool>,
    /// For exact solvers: branch-and-bound nodes explored.
    pub nodes_explored: Option<u64>,
}

/// What one registered solver did during a [`plan`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateOutcome {
    /// Registry name of the solver.
    pub solver: &'static str,
    /// Its summary, or the error it returned.
    pub result: Result<CandidateSummary, SolveError>,
}

/// How a [`Plan`] came to be: the winning solver plus every candidate run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Registry name of the solver that produced the winning solution.
    pub solver: &'static str,
    /// The problem that was solved.
    pub problem: Problem,
    /// Whether the winning solution satisfies the problem's constraint.
    /// Always `true` for portfolio wins; a forced
    /// ([`SolverChoice::Named`]) solver may return an infeasible best
    /// effort, flagged here.
    pub feasible: bool,
    /// Whether this was a portfolio run (candidates from every capable
    /// solver) or a single-solver run (one candidate entry).
    pub portfolio: bool,
    /// Per-solver outcomes, in registry order.
    pub candidates: Vec<CandidateOutcome>,
}

impl Provenance {
    /// The winning solver's recorded summary (costs, feasibility, and —
    /// for exact solvers — proof metadata).
    pub fn winner_summary(&self) -> Option<&CandidateSummary> {
        self.candidates
            .iter()
            .find(|c| c.solver == self.solver)
            .and_then(|c| c.result.as_ref().ok())
    }

    /// Whether the winning solver proved optimality within its budget
    /// (`None` for heuristic solvers).
    pub fn proven_optimal(&self) -> Option<bool> {
        self.winner_summary().and_then(|s| s.proven_optimal)
    }
}

/// A planning result: the chosen storage solution plus its provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// The winning (validated) storage solution.
    pub solution: StorageSolution,
    /// How it was chosen.
    pub provenance: Provenance,
}

/// Runs one candidate solver inside `span` and summarizes its solution
/// against `problem`, recording the objective and feasibility on the span.
fn run_candidate(
    instance: &ProblemInstance,
    problem: Problem,
    solver: &Solver,
    tuning: &SolverTuning,
    span: obs::Span,
) -> Result<(StorageSolution, CandidateSummary), SolveError> {
    let SolverOutcome {
        solution,
        proven_optimal,
        nodes_explored,
    } = span.in_scope(|| solver.solve(instance, &problem, tuning))?;
    let weights = instance.weights();
    let summary = CandidateSummary {
        storage: solution.storage_cost(),
        sum_recreation: solution.sum_recreation(),
        max_recreation: solution.max_recreation(),
        objective: problem.objective_value_on(&solution, weights),
        feasible: problem.is_feasible_on(&solution, weights),
        proven_optimal,
        nodes_explored,
    };
    span.record("objective", summary.objective);
    span.record("feasible", summary.feasible);
    Ok((solution, summary))
}

/// Solves `spec.problem()` on `instance` per the spec's solver choice and
/// mode policy, returning the winning solution with full provenance.
///
/// - [`SolverChoice::Auto`] runs the Table-1 prescribed solver.
/// - [`SolverChoice::Named`] runs that registered solver
///   ([`SolveError::UnknownSolver`] if the name is not registered,
///   [`SolveError::UnsupportedProblem`] if it does not support the
///   problem).
/// - [`SolverChoice::Portfolio`] runs every registered solver supporting
///   the problem and keeps the cheapest *feasible* result by the problem's
///   objective (ties broken by storage, then `Σ Ri`, then exact-over-
///   heuristic so optimality proofs survive). If no candidate is
///   feasible, the prescribed solver's error (or the first error seen) is
///   returned. On weighted instances, recreation-sum objectives and
///   Problem 5 feasibility use the *weighted* sum `Σ wi·Ri` — the measure
///   the workload-aware LMG optimizes.
///
/// Under [`ModePolicy::Binary`] any chunked costs revealed on the instance
/// are stripped before solving; under `Auto`/`Hybrid` the instance is used
/// as revealed.
pub fn plan(instance: &ProblemInstance, spec: &PlanSpec) -> Result<Plan, SolveError> {
    let solvers = spec.resolve_solvers()?;
    let stripped;
    let inst: &ProblemInstance = match spec.mode_policy() {
        ModePolicy::Binary if instance.matrix().has_chunked() => {
            stripped = instance.without_chunked();
            &stripped
        }
        _ => instance,
    };
    let problem = spec.problem();
    // Every solve gets a "solve" span, and each candidate a child span
    // parented explicitly through a `SpanHandle`: dsv-par workers are
    // fresh threads that cannot see this thread's span stack. Each
    // candidate runs on its own worker (a lone one on this thread); the
    // fold below stays sequential in registry order, so the tie-breaking
    // (and thus the winner) is identical to a single-threaded run.
    let solve_span = obs::span!("solve", problem = format!("{problem}"));
    let fanout = solve_span.handle();
    let outcomes = dsv_par::par_map(&solvers, |s| {
        run_candidate(inst, problem, s, spec.tuning(), fanout.child(s.name))
    });
    if *spec.solver_choice() != SolverChoice::Portfolio {
        let (solution, summary) = outcomes.into_iter().next().expect("one row resolved")?;
        let solver = solvers[0].name;
        return Ok(Plan {
            solution,
            provenance: Provenance {
                solver,
                problem,
                feasible: summary.feasible,
                portfolio: false,
                candidates: vec![CandidateOutcome {
                    solver,
                    result: Ok(summary),
                }],
            },
        });
    }
    /// Portfolio ranking key: (objective, storage, `Σ Ri`, exact-rank) —
    /// strictly-smaller wins, ties keep the earlier-registered solver.
    type RankKey = (u64, u64, u64, u8);
    let mut candidates = Vec::new();
    let mut best: Option<(RankKey, StorageSolution, &'static str)> = None;
    let mut prescribed_err = None;
    let mut first_err = None;
    for (solver, outcome) in solvers.iter().zip(outcomes) {
        let result = match outcome {
            Ok((solution, summary)) => {
                if summary.feasible {
                    // On cost ties, an exact solver beats a heuristic (its
                    // optimality proof survives in the provenance);
                    // remaining ties keep the earlier-registered solver.
                    let exact_rank = u8::from(solver.support(problem) != Some(Support::Exact));
                    let key = (
                        summary.objective,
                        summary.storage,
                        summary.sum_recreation,
                        exact_rank,
                    );
                    if best.as_ref().is_none_or(|(b, ..)| key < *b) {
                        best = Some((key, solution, solver.name));
                    }
                }
                Ok(summary)
            }
            Err(e) => {
                if solver.name == prescribed(problem) {
                    prescribed_err = Some(e.clone());
                }
                if first_err.is_none() {
                    first_err = Some(e.clone());
                }
                Err(e)
            }
        };
        candidates.push(CandidateOutcome {
            solver: solver.name,
            result,
        });
    }
    match best {
        Some((_, solution, winner)) => Ok(Plan {
            solution,
            provenance: Provenance {
                solver: winner,
                problem,
                feasible: true,
                portfolio: true,
                candidates,
            },
        }),
        None => Err(prescribed_err.or(first_err).unwrap_or(SolveError::Internal(
            "portfolio found no feasible candidate and no solver errored",
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::fixtures::{paper_example, paper_example_chunked};

    #[test]
    fn auto_matches_table1_dispatch() {
        let inst = paper_example();
        let p = plan(&inst, &PlanSpec::new(Problem::MinStorage)).unwrap();
        assert_eq!(p.provenance.solver, "mst");
        assert!(!p.provenance.portfolio);
        assert!(p.provenance.feasible);
        let p = plan(&inst, &PlanSpec::new(Problem::MinRecreation)).unwrap();
        assert_eq!(p.provenance.solver, "spt");
        let beta = u64::MAX / 2;
        let p = plan(
            &inst,
            &PlanSpec::new(Problem::MinSumRecreationGivenStorage { beta }),
        )
        .unwrap();
        assert_eq!(p.provenance.solver, "lmg");
        let p = plan(
            &inst,
            &PlanSpec::new(Problem::MinStorageGivenMaxRecreation { theta: beta }),
        )
        .unwrap();
        assert_eq!(p.provenance.solver, "mp");
    }

    #[test]
    fn named_solver_runs_and_unknown_errors() {
        let inst = paper_example();
        let spec = PlanSpec::new(Problem::MinStorage).solver(SolverChoice::named("gith"));
        let p = plan(&inst, &spec).unwrap();
        assert_eq!(p.provenance.solver, "gith");
        assert!(p.solution.validate(&inst).is_ok());

        let spec = PlanSpec::new(Problem::MinStorage).solver(SolverChoice::named("simplex"));
        assert_eq!(
            plan(&inst, &spec).unwrap_err(),
            SolveError::UnknownSolver("simplex".into())
        );
    }

    #[test]
    fn named_solver_on_unsupported_problem_errors() {
        let inst = paper_example();
        let spec = PlanSpec::new(Problem::MinRecreation).solver(SolverChoice::named("mst"));
        assert!(matches!(
            plan(&inst, &spec).unwrap_err(),
            SolveError::UnsupportedProblem { solver: "mst", .. }
        ));
    }

    #[test]
    fn portfolio_wins_with_exact_solver_on_p1() {
        let inst = paper_example();
        let spec = PlanSpec::new(Problem::MinStorage).solver(SolverChoice::Portfolio);
        let p = plan(&inst, &spec).unwrap();
        assert!(p.provenance.portfolio);
        // MST is exact for P1: nothing beats it, and ties break in
        // registry order (mst first).
        assert_eq!(p.provenance.solver, "mst");
        // Candidates cover more than one solver.
        assert!(p.provenance.candidates.len() >= 3);
        // Every recorded feasible candidate stores at least as much.
        for c in &p.provenance.candidates {
            if let Ok(s) = &c.result {
                assert!(s.storage >= p.solution.storage_cost(), "{}", c.solver);
            }
        }
    }

    #[test]
    fn portfolio_never_worse_than_prescribed_on_fixture() {
        let inst = paper_example_chunked();
        let mca = plan(&inst, &PlanSpec::new(Problem::MinStorage)).unwrap();
        let beta = mca.solution.storage_cost() * 3 / 2;
        for problem in [
            Problem::MinStorage,
            Problem::MinRecreation,
            Problem::MinSumRecreationGivenStorage { beta },
            Problem::MinMaxRecreationGivenStorage { beta },
            Problem::MinStorageGivenSumRecreation {
                theta: u64::MAX / 2,
            },
            Problem::MinStorageGivenMaxRecreation {
                theta: u64::MAX / 2,
            },
        ] {
            let auto = plan(&inst, &PlanSpec::new(problem)).unwrap();
            let port = plan(
                &inst,
                &PlanSpec::new(problem).solver(SolverChoice::Portfolio),
            )
            .unwrap();
            assert!(
                problem.objective_value(&port.solution) <= problem.objective_value(&auto.solution),
                "{problem}: portfolio {} vs auto {}",
                problem.objective_value(&port.solution),
                problem.objective_value(&auto.solution),
            );
            assert!(port.provenance.feasible);
        }
    }

    #[test]
    fn weighted_portfolio_ranks_by_weighted_sum() {
        use crate::matrix::{CostMatrix, CostPair};
        // A chain 0 -> 1 -> 2 with a hot tail version: the objective that
        // matters is the weighted ΣR the workload-aware LMG optimizes.
        let mut m = CostMatrix::directed(vec![
            CostPair::new(1000, 1000),
            CostPair::new(1000, 1000),
            CostPair::new(1000, 1000),
        ]);
        m.reveal(0, 1, CostPair::new(10, 500));
        m.reveal(1, 2, CostPair::new(10, 500));
        let weights = vec![0.01, 0.01, 10.0];
        let inst = ProblemInstance::with_weights(m, weights.clone());
        let mca = plan(&inst, &PlanSpec::new(Problem::MinStorage)).unwrap();
        let problem = Problem::MinSumRecreationGivenStorage {
            beta: mca.solution.storage_cost() + 1000,
        };
        let auto = plan(&inst, &PlanSpec::new(problem)).unwrap();
        let port = plan(
            &inst,
            &PlanSpec::new(problem).solver(SolverChoice::Portfolio),
        )
        .unwrap();
        // Candidates are ranked (and recorded) on the weighted sum.
        let winner = port.provenance.winner_summary().unwrap();
        assert_eq!(
            winner.objective,
            port.solution.weighted_sum_recreation(&weights).ceil() as u64
        );
        assert!(
            port.solution.weighted_sum_recreation(&weights)
                <= auto.solution.weighted_sum_recreation(&weights)
        );
    }

    #[test]
    fn binary_policy_strips_chunked_costs() {
        let inst = paper_example_chunked();
        let hybrid = plan(&inst, &PlanSpec::new(Problem::MinStorage)).unwrap();
        let binary = plan(
            &inst,
            &PlanSpec::new(Problem::MinStorage).modes(ModePolicy::Binary),
        )
        .unwrap();
        assert_eq!(binary.solution.chunked().count(), 0);
        assert!(hybrid.solution.storage_cost() <= binary.solution.storage_cost());
        // The binary solution must validate against the *stripped* view —
        // costs were computed without chunk edges.
        assert!(binary.solution.validate(&inst.without_chunked()).is_ok());
    }

    #[test]
    fn infeasible_problem_propagates_prescribed_error() {
        let inst = paper_example();
        let spec = PlanSpec::new(Problem::MinStorageGivenMaxRecreation { theta: 5 })
            .solver(SolverChoice::Portfolio);
        assert!(matches!(
            plan(&inst, &spec).unwrap_err(),
            SolveError::RecreationThresholdInfeasible { .. }
        ));
        let spec = PlanSpec::new(Problem::MinSumRecreationGivenStorage { beta: 10 })
            .solver(SolverChoice::Portfolio);
        assert!(matches!(
            plan(&inst, &spec).unwrap_err(),
            SolveError::StorageBudgetInfeasible { .. }
        ));
    }

    #[test]
    fn tuning_reaches_the_adapters() {
        let inst = paper_example();
        // A narrow GitH window stores at least as much as the default.
        let narrow = plan(
            &inst,
            &PlanSpec::new(Problem::MinStorage)
                .solver(SolverChoice::named("gith"))
                .gith_params(GitHParams {
                    window: 1,
                    max_depth: 50,
                }),
        )
        .unwrap();
        let wide = plan(
            &inst,
            &PlanSpec::new(Problem::MinStorage).solver(SolverChoice::named("gith")),
        )
        .unwrap();
        assert!(wide.solution.storage_cost() <= narrow.solution.storage_cost());
        // An invalid LAST α surfaces the solver's own validation.
        let bad = plan(
            &inst,
            &PlanSpec::new(Problem::MinStorage)
                .solver(SolverChoice::named("last"))
                .last_alpha(0.5),
        );
        assert!(matches!(bad, Err(SolveError::InvalidParameter(_))));
    }

    /// The Auto dispatch respects every problem's bound (ported from the
    /// removed `api::solve` wrapper's tests).
    #[test]
    fn auto_dispatch_respects_bounds() {
        let inst = paper_example();
        let auto = |p: Problem| plan(&inst, &PlanSpec::new(p)).unwrap().solution;
        let mca = auto(Problem::MinStorage);
        let spt = auto(Problem::MinRecreation);
        assert!(mca.storage_cost() <= spt.storage_cost());
        assert!(spt.sum_recreation() <= mca.sum_recreation());

        let beta = mca.storage_cost() * 3 / 2;
        let p3 = auto(Problem::MinSumRecreationGivenStorage { beta });
        assert!(p3.storage_cost() <= beta);
        let p4 = auto(Problem::MinMaxRecreationGivenStorage { beta });
        assert!(p4.storage_cost() <= beta);

        let theta_sum = spt.sum_recreation() * 2;
        let p5 = auto(Problem::MinStorageGivenSumRecreation { theta: theta_sum });
        assert!(p5.sum_recreation() <= theta_sum);
        let theta_max = spt.max_recreation() * 2;
        let p6 = auto(Problem::MinStorageGivenMaxRecreation { theta: theta_max });
        assert!(p6.max_recreation() <= theta_max);
    }

    /// Every Auto-dispatched solution passes structural validation.
    #[test]
    fn auto_dispatch_solutions_validate() {
        let inst = paper_example();
        let mca = plan(&inst, &PlanSpec::new(Problem::MinStorage))
            .unwrap()
            .solution;
        let problems = [
            Problem::MinStorage,
            Problem::MinRecreation,
            Problem::MinSumRecreationGivenStorage {
                beta: mca.storage_cost() * 2,
            },
            Problem::MinMaxRecreationGivenStorage {
                beta: mca.storage_cost() * 2,
            },
            Problem::MinStorageGivenSumRecreation {
                theta: u64::MAX / 2,
            },
            Problem::MinStorageGivenMaxRecreation {
                theta: u64::MAX / 2,
            },
        ];
        for p in problems {
            let sol = plan(&inst, &PlanSpec::new(p)).unwrap().solution;
            assert!(sol.validate(&inst).is_ok(), "{p} produced invalid solution");
        }
    }
}
