//! The two-step dataset builder (§5.1): version graph → contents → deltas.
//!
//! Step one generates a [`VersionGraph`]; step two derives each version's
//! CSV content from its (first) parent via random edit commands, then
//! computes **real deltas** — line scripts over the serialized tables —
//! between every pair of versions within `reveal_hops` of each other,
//! populating the `Δ`/`Φ` matrices under the chosen [`CostModel`].

use crate::table_gen::{base_table, random_commit, EditParams};
use crate::version_graph::{GraphParams, VersionGraph};
use crate::zipf::zipf_weights;
use dsv_core::{CostMatrix, CostPair, ProblemInstance};
use dsv_delta::cost::{delta_annotation, full_annotation, CostModel};
use dsv_delta::script::line_diff;
use dsv_obs as obs;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters of the full dataset builder.
#[derive(Debug, Clone, Copy)]
pub struct DatasetParams {
    /// Version-graph shape.
    pub graph: GraphParams,
    /// Content/edit shape.
    pub edits: EditParams,
    /// Reveal deltas between all pairs within this hop distance in the
    /// version graph (the paper uses 10 for DC, 25 for LC).
    pub reveal_hops: usize,
    /// How bytes map to `⟨Δ, Φ⟩`.
    pub cost_model: CostModel,
    /// Directed (one-way line scripts, asymmetric) or undirected
    /// (concatenated two-way scripts, symmetric).
    pub directed: bool,
    /// Keep the version contents in the built dataset (needed by the VCS
    /// and §5.2 experiments; drop for big optimization-only runs).
    pub keep_contents: bool,
}

impl Default for DatasetParams {
    fn default() -> Self {
        DatasetParams {
            graph: GraphParams::default(),
            edits: EditParams::default(),
            reveal_hops: 5,
            cost_model: CostModel::Proportional,
            directed: true,
            keep_contents: false,
        }
    }
}

/// A generated workload: matrices ready for the optimizer, plus optional
/// raw contents and the version graph that produced them.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable name ("DC", "LC", "BF", "LF", ...).
    pub name: String,
    /// The generating version graph (absent for fork workloads, which have
    /// none — as in the paper's BF/LF).
    pub graph: Option<VersionGraph>,
    /// The revealed cost matrices.
    pub matrix: CostMatrix,
    /// Raw serialized contents per version, if kept.
    pub contents: Option<Vec<Vec<u8>>>,
    /// Raw (uncompressed) byte size of each version.
    pub sizes: Vec<u64>,
}

impl Dataset {
    /// Wraps the matrix in a [`ProblemInstance`] (uniform access
    /// frequencies).
    pub fn instance(&self) -> ProblemInstance {
        ProblemInstance::new(self.matrix.clone())
    }

    /// Instance with Zipfian access frequencies (the paper's Fig. 16 uses
    /// exponent 2).
    pub fn instance_with_zipf(&self, exponent: f64, seed: u64) -> ProblemInstance {
        let w = zipf_weights(self.matrix.version_count(), exponent, seed);
        ProblemInstance::with_weights(self.matrix.clone(), w)
    }

    /// The **hybrid** instance: the matrix extended with per-version
    /// chunked cost estimates (incremental unique-chunk bytes under
    /// `params`, via `dsv-chunk`'s gear-hash chunker), so solvers choose
    /// Full / Delta / Chunked per version. Requires the dataset to have
    /// been built with contents kept (`None` otherwise).
    pub fn instance_with_chunked(
        &self,
        params: dsv_chunk::ChunkerParams,
    ) -> Option<ProblemInstance> {
        let contents = self.contents.as_ref()?;
        let pairs = dsv_chunk::chunked_cost_pairs(contents, params).ok()?;
        let mut matrix = self.matrix.clone();
        for (i, pair) in pairs.into_iter().enumerate() {
            matrix.set_chunked(i as u32, pair);
        }
        Some(ProblemInstance::new(matrix))
    }

    /// Number of versions.
    pub fn version_count(&self) -> usize {
        self.matrix.version_count()
    }

    /// Number of revealed deltas (symmetric entries stored once count
    /// once, matching how `CostMatrix` stores them).
    pub fn delta_count(&self) -> usize {
        self.matrix.revealed_count()
    }

    /// Mean raw version size in bytes.
    pub fn average_version_size(&self) -> f64 {
        if self.sizes.is_empty() {
            return 0.0;
        }
        self.sizes.iter().sum::<u64>() as f64 / self.sizes.len() as f64
    }

    /// Delta storage sizes normalized by the average version size — the
    /// distribution the paper plots in Figure 12 (right).
    pub fn normalized_delta_sizes(&self) -> Vec<f64> {
        let avg = self.average_version_size().max(1.0);
        self.matrix
            .revealed_entries()
            .map(|(_, _, p)| p.storage as f64 / avg)
            .collect()
    }
}

/// Builds a dataset: generates the version graph and contents, computes
/// the deltas, and assembles the matrices.
pub fn build(name: &str, params: &DatasetParams, seed: u64) -> Dataset {
    let build_span = obs::span!("build", versions = params.graph.commits).entered();
    let graph = VersionGraph::generate(&params.graph, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);

    // Step two: contents. Version 0 is the base table; each later version
    // derives from its first parent (merges take the first parent's
    // content plus fresh edits, matching the paper's user-performed-merge
    // model).
    let contents_span = obs::span!("contents");
    let mut tables = Vec::with_capacity(graph.n);
    tables.push(base_table(&params.edits, &mut rng));
    for v in 1..graph.n {
        let parent = graph.parents[v][0] as usize;
        let (_, table) = random_commit(&params.edits, &tables[parent], &mut rng);
        tables.push(table);
    }
    let contents: Vec<Vec<u8>> = tables.iter().map(|t| t.to_csv()).collect();
    drop(tables);
    drop(contents_span);
    let sizes: Vec<u64> = contents.iter().map(|c| c.len() as u64).collect();

    // Matrices: diagonal from full contents, off-diagonal from real diffs
    // within the reveal neighbourhood.
    let diag: Vec<CostPair> = contents
        .iter()
        .map(|c| to_pair(full_annotation(params.cost_model, c)))
        .collect();
    let mut matrix = if params.directed {
        CostMatrix::directed(diag)
    } else {
        CostMatrix::undirected(diag)
    };
    // Deltas are independent per pair: compute them on the dsv-par
    // runtime (thread count from `DSV_THREADS` / overrides),
    // reveal sequentially (reveal order does not affect the matrix).
    let pairs = graph.pairs_within_hops(params.reveal_hops);
    let model = params.cost_model;
    let reveal_span = obs::span!("reveal", pairs = pairs.len()).entered();
    let annotated = dsv_par::par_map(&pairs, |&(a, b)| {
        let (ca, cb) = (&contents[a as usize], &contents[b as usize]);
        if params.directed {
            let fwd = line_diff(ca, cb).encode();
            let rev = line_diff(cb, ca).encode();
            (
                to_pair(delta_annotation(model, &fwd, cb.len())),
                Some(to_pair(delta_annotation(model, &rev, ca.len()))),
            )
        } else {
            // Undirected delta = concatenation of the two directional
            // scripts (§5.3's construction for DC/LC).
            let mut both = line_diff(ca, cb).encode();
            both.extend_from_slice(&line_diff(cb, ca).encode());
            let target = ca.len().max(cb.len());
            (to_pair(delta_annotation(model, &both, target)), None)
        }
    });
    for (&(a, b), (fwd, rev)) in pairs.iter().zip(annotated) {
        matrix.reveal(a, b, fwd);
        if let Some(rev) = rev {
            matrix.reveal(b, a, rev);
        }
    }
    drop(reveal_span);
    drop(build_span);

    Dataset {
        name: name.to_owned(),
        graph: Some(graph),
        matrix,
        contents: params.keep_contents.then_some(contents),
        sizes,
    }
}

pub(crate) fn to_pair(ann: dsv_delta::cost::CostAnnotation) -> CostPair {
    CostPair::new(ann.storage, ann.recreation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_core::{plan, PlanSpec, Problem};

    fn solve(
        inst: &dsv_core::ProblemInstance,
        problem: Problem,
    ) -> Result<dsv_core::StorageSolution, dsv_core::SolveError> {
        plan(inst, &PlanSpec::new(problem)).map(|p| p.solution)
    }

    fn small_params() -> DatasetParams {
        DatasetParams {
            graph: GraphParams {
                commits: 40,
                ..GraphParams::default()
            },
            edits: EditParams {
                base_rows: 60,
                base_cols: 4,
                ..EditParams::default()
            },
            reveal_hops: 4,
            cost_model: CostModel::Proportional,
            directed: true,
            keep_contents: true,
        }
    }

    #[test]
    fn builds_consistent_dataset() {
        let ds = build("test", &small_params(), 42);
        assert_eq!(ds.version_count(), 40);
        assert_eq!(ds.sizes.len(), 40);
        assert!(ds.average_version_size() > 100.0);
        assert!(ds.delta_count() > 39, "at least the tree edges, both ways");
        let contents = ds.contents.as_ref().unwrap();
        assert_eq!(contents.len(), 40);
    }

    #[test]
    fn deltas_are_mostly_smaller_than_versions() {
        // Adjacent versions differ by a few edits: their deltas are far
        // smaller than materialization (the premise of the paper). A few
        // commits contain column rewrites that touch every line — those
        // legitimately cost near-full size — so assert on the median.
        let ds = build("test", &small_params(), 7);
        let g = ds.graph.as_ref().unwrap();
        let mut ratios: Vec<f64> = g
            .edges
            .iter()
            .map(|&(u, v)| {
                let pair = ds.matrix.get(u, v).expect("tree edge revealed");
                let full = ds.matrix.materialization(v);
                pair.storage as f64 / full.storage as f64
            })
            .collect();
        ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = ratios[ratios.len() / 2];
        assert!(median < 0.25, "median delta/full ratio {median}");
    }

    #[test]
    fn directed_dataset_has_asymmetric_entries() {
        let ds = build("test", &small_params(), 13);
        let g = ds.graph.as_ref().unwrap();
        let mut saw_asymmetry = false;
        for &(u, v) in &g.edges {
            let fwd = ds.matrix.get(u, v).unwrap();
            let rev = ds.matrix.get(v, u).unwrap();
            if fwd.storage != rev.storage {
                saw_asymmetry = true;
            }
        }
        assert!(saw_asymmetry, "row deletions should make deltas asymmetric");
    }

    #[test]
    fn undirected_dataset_is_symmetric() {
        let mut p = small_params();
        p.directed = false;
        let ds = build("test", &p, 13);
        assert!(ds.matrix.is_symmetric());
        let g = ds.graph.as_ref().unwrap();
        for &(u, v) in &g.edges {
            assert_eq!(ds.matrix.get(u, v), ds.matrix.get(v, u));
        }
    }

    #[test]
    fn instances_are_solvable_end_to_end() {
        let ds = build("test", &small_params(), 99);
        let inst = ds.instance();
        let mca = solve(&inst, Problem::MinStorage).unwrap();
        let spt = solve(&inst, Problem::MinRecreation).unwrap();
        // The core tradeoff must materialize in generated data.
        assert!(mca.storage_cost() < spt.storage_cost() / 3);
        assert!(spt.sum_recreation() <= mca.sum_recreation());
        let beta = mca.storage_cost() * 12 / 10;
        let lmg = solve(&inst, Problem::MinSumRecreationGivenStorage { beta }).unwrap();
        assert!(lmg.storage_cost() <= beta);
        assert!(lmg.sum_recreation() <= mca.sum_recreation());
    }

    #[test]
    fn hybrid_instance_reveals_chunked_costs() {
        let ds = build("test", &small_params(), 17);
        let inst = ds
            .instance_with_chunked(dsv_chunk::ChunkerParams::default())
            .expect("contents kept");
        assert_eq!(inst.matrix().chunked_count(), ds.version_count());
        // Increments never exceed materializing (dedup can only help), and
        // hybrid min-storage never stores more than binary.
        for i in 0..ds.version_count() as u32 {
            let c = inst.matrix().chunked(i).unwrap();
            assert!(c.storage <= inst.matrix().materialization(i).storage * 2);
        }
        let hybrid = solve(&inst, Problem::MinStorage).unwrap();
        let binary = solve(&ds.instance(), Problem::MinStorage).unwrap();
        assert!(hybrid.storage_cost() <= binary.storage_cost());
        // Without contents there is nothing to chunk.
        let mut p = small_params();
        p.keep_contents = false;
        let no_contents = build("test", &p, 17);
        assert!(no_contents
            .instance_with_chunked(dsv_chunk::ChunkerParams::default())
            .is_none());
    }

    #[test]
    fn zipf_instance_carries_weights() {
        let ds = build("test", &small_params(), 3);
        let inst = ds.instance_with_zipf(2.0, 5);
        assert!(inst.weights().is_some());
        assert_eq!(inst.weights().unwrap().len(), 40);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = build("a", &small_params(), 123);
        let b = build("b", &small_params(), 123);
        assert_eq!(a.sizes, b.sizes);
        assert_eq!(a.matrix.revealed_count(), b.matrix.revealed_count());
    }

    #[test]
    fn cost_model_changes_phi_delta_relationship() {
        let mut p = small_params();
        p.cost_model = CostModel::CompressedStorage;
        let compressed = build("c", &p, 21);
        // Diagonal: compressed storage never exceeds raw recreation (the
        // store falls back to raw payloads), and strictly improves for
        // most versions. Random-hex cell values are nearly incompressible
        // by construction, so the *margin* is small; the invariant that
        // matters is storage <= recreation with strict improvement being
        // the norm.
        let mut total_storage = 0u64;
        let mut total_recreation = 0u64;
        let mut strictly_below = 0usize;
        for i in 0..compressed.version_count() as u32 {
            let m = compressed.matrix.materialization(i);
            assert!(
                m.storage <= m.recreation,
                "v{i}: {} > {}",
                m.storage,
                m.recreation
            );
            strictly_below += usize::from(m.storage < m.recreation);
            total_storage += m.storage;
            total_recreation += m.recreation;
        }
        assert!(total_storage < total_recreation);
        assert!(strictly_below * 2 > compressed.version_count());
    }
}
