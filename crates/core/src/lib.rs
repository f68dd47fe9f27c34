#![warn(missing_docs)]

//! The paper's primary contribution: principled storage of dataset version
//! collections under the **recreation/storage tradeoff**.
//!
//! Given `n` versions with a (partially revealed) pair of cost matrices —
//! `Δ` (bytes to store a version fully, or as a delta from another version)
//! and `Φ` (work to recreate a version from a materialized ancestor chain)
//! — choose for every version a [`StorageMode`]: *materialize*,
//! *delta-from-parent*, or (when the matrix reveals per-version chunked
//! costs) *chunked* into a shared deduplicating store, such that the
//! chosen edges form a spanning tree of the augmented graph rooted at the
//! dummy source `V0` (Lemma 1; the chunk store is a second dummy root
//! hanging off `V0`), optimizing one of six objectives (Table 1 of the
//! paper):
//!
//! | Problem | Objective | Constraint | Solver |
//! |---|---|---|---|
//! | 1 | min total storage `C` | — | MST / MCA (exact, PTime) |
//! | 2 | min every recreation `Ri` | — | shortest-path tree (exact, PTime) |
//! | 3 | min `Σ Ri` | `C ≤ β` | LMG (NP-hard) |
//! | 4 | min `max Ri` | `C ≤ β` | MP via binary search (NP-hard) |
//! | 5 | min `C` | `Σ Ri ≤ θ` | LMG via binary search (NP-hard) |
//! | 6 | min `C` | `max Ri ≤ θ` | MP (NP-hard) |
//!
//! Additional solvers: [`solvers::last`] (Khuller's LAST balance of
//! MST/SPT), [`solvers::gith`] (the Git repack heuristic, Appendix A),
//! [`solvers::skip_delta`] (SVN-style baseline), [`solvers::ilp`] (an exact
//! branch-and-bound used in place of the paper's Gurobi ILP) and
//! [`solvers::hop`] (the bounded-hop variant, `Φ ≡ 1`).
//!
//! **Entry point:** build a [`PlanSpec`] and call [`plan()`]. The spec names
//! the [`Problem`], picks a [`SolverChoice`] — `Auto` (Table-1 dispatch),
//! `Named` (any registry solver by name), or `Portfolio` (run every
//! capable solver, keep the cheapest feasible plan) — and a [`ModePolicy`]
//! (binary vs three-mode hybrid). The returned [`Plan`] carries a
//! validated [`StorageSolution`] plus [`Provenance`]: winning solver,
//! feasibility, and every portfolio candidate's outcome. The solver suite
//! itself is the table [`solvers::SOLVERS`], one row per solver, also
//! reachable via [`solvers::by_name`].
//!
//! **Graph substrate:** the solvers are built on the graph structures and
//! exact optima in [`graph`] (§2.2: Problem 1 is a minimum spanning tree
//! or arborescence, Problem 2 a shortest-path tree). Its modules —
//! [`digraph`], [`mod@dijkstra`], [`edmonds`], [`prim`], [`tree`], … — sit
//! at this crate's root; [`graph`] gathers them and their main types.

pub mod digraph;
pub mod dijkstra;
pub mod edmonds;
pub mod error;
pub mod graph;
pub mod hashing;
pub mod heap;
pub mod ids;
pub mod instance;
pub mod matrix;
pub mod online;
pub mod plan;
pub mod prim;
pub mod problem;
pub mod solution;
pub mod solvers;
pub mod traversal;
pub mod tree;
pub mod undirected;

pub use error::SolveError;
pub use instance::ProblemInstance;
pub use matrix::{pairs_within_hops, CostMatrix, CostPair, TriangleViolation};
pub use plan::{
    plan, CandidateOutcome, CandidateSummary, ChunkerParams, ModePolicy, Plan, PlanSpec,
    Provenance, SolverChoice, SolverTuning,
};
pub use problem::{Problem, Scenario};
pub use solution::{SolutionError, StorageMode, StorageSolution};
