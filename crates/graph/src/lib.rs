#![warn(missing_docs)]

//! Graph substrate for the dataset-versioning system.
//!
//! This crate provides the graph data structures and classic algorithms the
//! paper's storage/recreation optimization is built on (its §2.2 maps the
//! versioning problem onto spanning trees of a directed, edge-weighted
//! graph):
//!
//! - [`DiGraph`]: a compact directed multigraph with generic edge weights.
//! - [`UnGraph`]: an undirected multigraph (each edge stored once).
//! - [`dijkstra()`]: single-source shortest paths / shortest-path trees
//!   (Problem 2's optimum).
//! - [`prim_mst`]: minimum spanning trees of undirected graphs (Problem
//!   1's optimum in the undirected case).
//! - [`min_cost_arborescence`]: Edmonds' algorithm for directed graphs
//!   (Problem 1's optimum in the directed case), via cycle contraction.
//! - [`tree`]: rooted-tree utilities (subtree sizes, depths, path costs)
//!   used by the LMG and LAST heuristics.
//! - [`heap`]: an indexed binary min-heap with decrease-key, shared by the
//!   Dijkstra/Prim/Modified-Prim implementations.
//!
//! Everything is implemented from scratch; the crate has no dependencies.

pub mod digraph;
pub mod dijkstra;
pub mod edmonds;
pub mod hashing;
pub mod heap;
pub mod ids;
pub mod prim;
pub mod traversal;
pub mod tree;
pub mod undirected;

pub use digraph::{DiGraph, Edge, EdgeId};
pub use dijkstra::{dijkstra, ShortestPaths};
pub use edmonds::min_cost_arborescence;
pub use hashing::{FxBuildHasher, FxHashMap, FxHasher};
pub use heap::IndexedMinHeap;
pub use ids::NodeId;
pub use prim::prim_mst;
pub use tree::RootedTree;
pub use undirected::{UnGraph, UndirectedEdge};
