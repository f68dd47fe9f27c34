//! Synthetic version-graph generation (step one of the paper's suite).
//!
//! The generator grows a mainline of commits; every `branch_interval`
//! commits it may (with `branch_prob`) open `1..=branch_limit` branches of
//! `1..=branch_length` commits each, and branches may merge back into the
//! mainline, producing a DAG with the branch/merge structure DataHub
//! permits. "Flat" parameterizations (frequent, short branches) give the
//! paper's DC shape; "mostly-linear" ones (rare, long branches) give LC.

use dsv_core::graph::{DiGraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the version-graph generator (§5.1 of the paper).
#[derive(Debug, Clone, Copy)]
pub struct GraphParams {
    /// Total number of versions to generate.
    pub commits: usize,
    /// Number of consecutive mainline versions after which a branch point
    /// may occur.
    pub branch_interval: usize,
    /// Probability of actually branching at a branch point.
    pub branch_prob: f64,
    /// Maximum number of branches opened at one point (uniform in
    /// `1..=branch_limit`).
    pub branch_limit: usize,
    /// Maximum commits per branch (uniform in `1..=branch_length`).
    pub branch_length: usize,
    /// Probability that a finished branch merges back into the mainline.
    pub merge_prob: f64,
}

impl Default for GraphParams {
    fn default() -> Self {
        GraphParams {
            commits: 100,
            branch_interval: 5,
            branch_prob: 0.5,
            branch_limit: 2,
            branch_length: 5,
            merge_prob: 0.3,
        }
    }
}

/// A generated version DAG. Version ids are assigned in creation order, so
/// every edge goes from a lower id to a higher id (topologically sorted by
/// construction).
#[derive(Debug, Clone)]
pub struct VersionGraph {
    /// Number of versions.
    pub n: usize,
    /// Derivation edges `(parent, child)`.
    pub edges: Vec<(u32, u32)>,
    /// Parents of each version (1 for commits, 2 for merges, 0 for the
    /// root).
    pub parents: Vec<Vec<u32>>,
}

impl VersionGraph {
    /// Generates a version graph with the given parameters and seed.
    pub fn generate(params: &GraphParams, seed: u64) -> Self {
        assert!(params.commits >= 1, "need at least one commit");
        assert!(params.branch_interval >= 1);
        assert!(params.branch_limit >= 1);
        assert!(params.branch_length >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut parents: Vec<Vec<u32>> = vec![Vec::new()]; // root
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut head: u32 = 0; // current mainline head
        let mut since_branch = 0usize;

        let new_version =
            |parents: &mut Vec<Vec<u32>>, edges: &mut Vec<(u32, u32)>, from: &[u32]| -> u32 {
                let id = parents.len() as u32;
                parents.push(from.to_vec());
                for &p in from {
                    edges.push((p, id));
                }
                id
            };

        while parents.len() < params.commits {
            since_branch += 1;
            let at_branch_point = since_branch >= params.branch_interval;
            if at_branch_point && rng.gen_bool(params.branch_prob) {
                since_branch = 0;
                let branches = rng.gen_range(1..=params.branch_limit);
                let branch_root = head;
                for _ in 0..branches {
                    if parents.len() >= params.commits {
                        break;
                    }
                    let len = rng.gen_range(1..=params.branch_length);
                    let mut tip = branch_root;
                    for _ in 0..len {
                        if parents.len() >= params.commits {
                            break;
                        }
                        tip = new_version(&mut parents, &mut edges, &[tip]);
                    }
                    // Possibly merge the branch tip back into the mainline.
                    if tip != branch_root
                        && parents.len() < params.commits
                        && rng.gen_bool(params.merge_prob)
                    {
                        head = new_version(&mut parents, &mut edges, &[head, tip]);
                    }
                }
            } else {
                head = new_version(&mut parents, &mut edges, &[head]);
            }
        }

        VersionGraph {
            n: parents.len(),
            edges,
            parents,
        }
    }

    /// The graph as a [`DiGraph`] (edge weight = unit), e.g. for BFS
    /// sampling and DAG validation.
    pub fn to_digraph(&self) -> DiGraph<()> {
        let mut g = DiGraph::with_edge_capacity(self.n, self.edges.len());
        for &(u, v) in &self.edges {
            g.add_edge(NodeId(u), NodeId(v), ());
        }
        g
    }

    /// Number of merge commits (versions with 2+ parents).
    pub fn merge_count(&self) -> usize {
        self.parents.iter().filter(|p| p.len() >= 2).count()
    }

    /// All unordered version pairs within `hops` of each other in the
    /// undirected version graph — the paper's rule for which deltas to
    /// reveal ("we compute the delta with all versions in a k-hop
    /// distance"). Pairs are returned with `a < b`, each once.
    pub fn pairs_within_hops(&self, hops: usize) -> Vec<(u32, u32)> {
        self.pairs_within_hops_dist(hops)
            .into_iter()
            .map(|(a, b, _)| (a, b))
            .collect()
    }

    /// Like [`pairs_within_hops`](Self::pairs_within_hops) but also
    /// reporting the hop distance of each pair (used by the cost-only
    /// generator, which scales synthetic delta sizes with distance).
    pub fn pairs_within_hops_dist(&self, hops: usize) -> Vec<(u32, u32, u32)> {
        dsv_core::pairs_within_hops(self.n, self.edges.iter().copied(), hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_core::graph::traversal::topo_sort;

    #[test]
    fn generates_exactly_n_commits() {
        let g = VersionGraph::generate(&GraphParams::default(), 7);
        assert_eq!(g.n, 100);
        assert_eq!(g.parents.len(), 100);
    }

    #[test]
    fn graph_is_a_dag_with_increasing_edges() {
        let g = VersionGraph::generate(&GraphParams::default(), 3);
        for &(u, v) in &g.edges {
            assert!(u < v, "edges must go forward in id order");
        }
        assert!(topo_sort(&g.to_digraph()).is_some());
    }

    #[test]
    fn root_has_no_parents_everyone_else_does() {
        let g = VersionGraph::generate(&GraphParams::default(), 11);
        assert!(g.parents[0].is_empty());
        for p in &g.parents[1..] {
            assert!(!p.is_empty());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = VersionGraph::generate(&GraphParams::default(), 42);
        let b = VersionGraph::generate(&GraphParams::default(), 42);
        assert_eq!(a.edges, b.edges);
        let c = VersionGraph::generate(&GraphParams::default(), 43);
        assert_ne!(a.edges, c.edges);
    }

    #[test]
    fn flat_params_branch_more_than_linear() {
        let flat = GraphParams {
            commits: 400,
            branch_interval: 2,
            branch_prob: 0.9,
            branch_limit: 4,
            branch_length: 3,
            merge_prob: 0.4,
        };
        let linear = GraphParams {
            commits: 400,
            branch_interval: 50,
            branch_prob: 0.2,
            branch_limit: 1,
            branch_length: 10,
            merge_prob: 0.1,
        };
        let gf = VersionGraph::generate(&flat, 5);
        let gl = VersionGraph::generate(&linear, 5);
        let branchy = |g: &VersionGraph| {
            let mut out_deg = vec![0usize; g.n];
            for &(u, _) in &g.edges {
                out_deg[u as usize] += 1;
            }
            out_deg.iter().filter(|&&d| d >= 2).count()
        };
        assert!(branchy(&gf) > branchy(&gl) * 2);
    }

    #[test]
    fn merges_occur_with_positive_probability() {
        let params = GraphParams {
            commits: 500,
            merge_prob: 0.8,
            branch_prob: 0.9,
            branch_interval: 2,
            ..GraphParams::default()
        };
        let g = VersionGraph::generate(&params, 9);
        assert!(g.merge_count() > 0);
    }

    #[test]
    fn hop_pairs_of_a_chain() {
        // Force a pure chain: branch_prob = 0.
        let params = GraphParams {
            commits: 6,
            branch_prob: 0.0,
            ..GraphParams::default()
        };
        let g = VersionGraph::generate(&params, 1);
        assert_eq!(g.edges.len(), 5);
        let pairs1 = g.pairs_within_hops(1);
        assert_eq!(pairs1.len(), 5); // adjacent pairs only
        let pairs2 = g.pairs_within_hops(2);
        assert_eq!(pairs2.len(), 5 + 4);
        let all = g.pairs_within_hops(10);
        assert_eq!(all.len(), 6 * 5 / 2);
    }

    #[test]
    fn single_commit_graph() {
        let params = GraphParams {
            commits: 1,
            ..GraphParams::default()
        };
        let g = VersionGraph::generate(&params, 0);
        assert_eq!(g.n, 1);
        assert!(g.edges.is_empty());
        assert!(g.pairs_within_hops(5).is_empty());
    }
}
