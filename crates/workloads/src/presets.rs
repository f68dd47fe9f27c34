//! Scaled presets of the paper's four evaluation datasets (Fig. 12).
//!
//! | Preset | Paper shape | Here (defaults) |
//! |---|---|---|
//! | DC | 100k versions, flat/branchy graph, 10-hop reveals | 600 versions, same shape |
//! | LC | 100k versions, mostly-linear graph, 25-hop reveals | 600 versions, same shape |
//! | BF | 986 Bootstrap forks, ~0.4MB versions, many small files | 180 forks, small tables |
//! | LF | 100 Linux forks, ~423MB versions, few large files | 48 forks, large tables |
//!
//! Absolute sizes are scaled to laptop budgets; every reported experiment
//! is about ratios and curve shapes, which survive the scaling. All
//! presets are deterministic given the build seed.

use crate::dataset::{self, Dataset, DatasetParams};
use crate::dedup::{self, DedupParams};
use crate::forks::{self, ForkParams};
use crate::table_gen::EditParams;
use crate::version_graph::GraphParams;

/// Which of the four paper datasets a preset mimics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    DenselyConnected,
    LinearChain,
    BootstrapForks,
    LinuxForks,
    DedupChain,
}

/// A configurable, deterministic workload preset.
#[derive(Debug, Clone, Copy)]
pub struct Preset {
    name: &'static str,
    kind: Kind,
    /// Number of versions (DC/LC) or forks (BF/LF).
    scale: usize,
    directed: bool,
    keep_contents: bool,
}

impl Preset {
    /// Short name ("DC", "LC", "BF", "LF").
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Overrides the version/fork count.
    pub fn scaled(mut self, n: usize) -> Self {
        self.scale = n;
        self
    }

    /// Switches to symmetric (undirected) deltas, as in the paper's §5.3
    /// undirected experiments.
    pub fn undirected(mut self) -> Self {
        self.directed = false;
        self
    }

    /// Keeps raw version contents in the built dataset (needed when the
    /// dataset feeds the object store / VCS rather than just the solver).
    pub fn keep_contents(mut self) -> Self {
        self.keep_contents = true;
        self
    }

    /// Builds the dataset deterministically from `seed`.
    pub fn build(&self, seed: u64) -> Dataset {
        match self.kind {
            Kind::DenselyConnected => dataset::build(
                self.name,
                &DatasetParams {
                    graph: GraphParams {
                        commits: self.scale,
                        branch_interval: 2,
                        branch_prob: 0.8,
                        branch_limit: 4,
                        branch_length: 3,
                        merge_prob: 0.35,
                    },
                    edits: EditParams {
                        base_rows: 220,
                        base_cols: 6,
                        edits_per_commit: 3,
                        ..EditParams::default()
                    },
                    reveal_hops: 10,
                    directed: self.directed,
                    keep_contents: self.keep_contents,
                },
                seed,
            ),
            Kind::LinearChain => dataset::build(
                self.name,
                &DatasetParams {
                    graph: GraphParams {
                        commits: self.scale,
                        branch_interval: 40,
                        branch_prob: 0.25,
                        branch_limit: 1,
                        branch_length: 12,
                        merge_prob: 0.15,
                    },
                    edits: EditParams {
                        base_rows: 220,
                        base_cols: 6,
                        edits_per_commit: 3,
                        ..EditParams::default()
                    },
                    reveal_hops: 25,
                    directed: self.directed,
                    keep_contents: self.keep_contents,
                },
                seed,
            ),
            Kind::BootstrapForks => forks::build(
                self.name,
                &ForkParams {
                    forks: self.scale,
                    edits: EditParams {
                        base_rows: 90,
                        base_cols: 5,
                        edits_per_commit: 2,
                        ..EditParams::default()
                    },
                    divergence_continue_prob: 0.55,
                    max_commits_per_fork: 10,
                    clusters: (self.scale / 30).max(1),
                    cluster_spread_commits: 8,
                    size_diff_threshold: 2 * 1024,
                    directed: self.directed,
                    keep_contents: self.keep_contents,
                },
                seed,
            ),
            Kind::LinuxForks => forks::build(
                self.name,
                &ForkParams {
                    forks: self.scale,
                    edits: EditParams {
                        base_rows: 1600,
                        base_cols: 7,
                        edits_per_commit: 3,
                        ..EditParams::default()
                    },
                    divergence_continue_prob: 0.5,
                    max_commits_per_fork: 6,
                    clusters: (self.scale / 8).max(2),
                    cluster_spread_commits: 40,
                    size_diff_threshold: 48 * 1024,
                    directed: self.directed,
                    keep_contents: self.keep_contents,
                },
                seed,
            ),
            Kind::DedupChain => dedup::build(
                self.name,
                &DedupParams {
                    versions: self.scale,
                    keep_contents: self.keep_contents,
                    directed: self.directed,
                    ..DedupParams::default()
                },
                seed,
            ),
        }
    }
}

/// DC — densely connected: flat history, branches are frequent and short,
/// deltas revealed within 10 hops.
pub fn densely_connected() -> Preset {
    Preset {
        name: "DC",
        kind: Kind::DenselyConnected,
        scale: 600,
        directed: true,
        keep_contents: false,
    }
}

/// LC — linear chain: mostly-linear history, branches are rare and long,
/// deltas revealed within 25 hops.
pub fn linear_chain() -> Preset {
    Preset {
        name: "LC",
        kind: Kind::LinearChain,
        scale: 600,
        directed: true,
        keep_contents: false,
    }
}

/// BF — Bootstrap-forks analogue: many forks of a small base, all-pairs
/// deltas under a small size-difference threshold.
pub fn bootstrap_forks() -> Preset {
    Preset {
        name: "BF",
        kind: Kind::BootstrapForks,
        scale: 180,
        directed: true,
        keep_contents: false,
    }
}

/// LF — Linux-forks analogue: fewer forks of a much larger base.
pub fn linux_forks() -> Preset {
    Preset {
        name: "LF",
        kind: Kind::LinuxForks,
        scale: 48,
        directed: true,
        keep_contents: false,
    }
}

/// DD — dedup chain: versions sharing shifted/overlapping content (small
/// splices at random offsets). The workload where the chunked substrate
/// shows its storage/recreation point between Full and Delta.
pub fn dedup_chain() -> Preset {
    Preset {
        name: "DD",
        kind: Kind::DedupChain,
        scale: 60,
        directed: true,
        keep_contents: false,
    }
}

/// All four presets at their default scales.
pub fn all() -> Vec<Preset> {
    vec![
        densely_connected(),
        linear_chain(),
        bootstrap_forks(),
        linux_forks(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_build_small() {
        for preset in all() {
            let ds = preset.scaled(24).build(5);
            assert_eq!(ds.version_count(), 24, "{}", preset.name());
            assert!(ds.matrix.revealed_count() > 0, "{}", preset.name());
        }
    }

    #[test]
    fn dc_is_branchier_than_lc() {
        let dc = densely_connected().scaled(60).build(3);
        let lc = linear_chain().scaled(60).build(3);
        let branchy = |ds: &Dataset| {
            let g = ds.graph.as_ref().unwrap();
            let mut out_deg = vec![0usize; g.n];
            for &(u, _) in &g.edges {
                out_deg[u as usize] += 1;
            }
            out_deg.iter().filter(|&&d| d >= 2).count()
        };
        assert!(branchy(&dc) > branchy(&lc));
    }

    #[test]
    fn lf_versions_are_larger_than_bf() {
        let bf = bootstrap_forks().scaled(8).build(4);
        let lf = linux_forks().scaled(8).build(4);
        assert!(lf.average_version_size() > bf.average_version_size() * 5.0);
    }

    #[test]
    fn preset_builders_are_deterministic() {
        let a = densely_connected().scaled(40).build(9);
        let b = densely_connected().scaled(40).build(9);
        assert_eq!(a.sizes, b.sizes);
    }

    #[test]
    fn undirected_variant_is_symmetric() {
        let ds = densely_connected().scaled(30).undirected().build(2);
        assert!(ds.matrix.is_symmetric());
    }
}
