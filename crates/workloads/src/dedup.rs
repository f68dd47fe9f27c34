//! Dedup-friendly workload: a version chain of shifted, overlapping
//! content.
//!
//! Each version edits its predecessor by splicing fresh rows into (and
//! occasionally deleting rows from) *random positions*, so consecutive
//! versions share almost all their content but at **shifted byte
//! offsets**. That shape is the worst case for fixed-block dedup and the
//! home turf of content-defined chunking, while still giving the paper's
//! delta regime small line-diffs — exactly the workload on which the
//! three substrates (Full / Delta / Chunked) are meaningfully compared.
//! The chain edges are revealed by the shared `line_matrix` (`Φ = Δ` =
//! bytes).

use crate::dataset::{line_matrix, Dataset};
use dsv_obs as obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the dedup-chain workload.
#[derive(Debug, Clone, Copy)]
pub struct DedupParams {
    /// Number of versions in the chain.
    pub versions: usize,
    /// Rows in the shared base version.
    pub base_rows: usize,
    /// Splice/delete edits applied per version.
    pub edits_per_version: usize,
    /// Rows inserted (or deleted) by each edit.
    pub rows_per_edit: usize,
    /// Probability that an edit deletes rows instead of inserting.
    pub delete_prob: f64,
    /// Keep raw contents (needed to feed the object store).
    pub keep_contents: bool,
    /// Directed (asymmetric) or undirected deltas.
    pub directed: bool,
}

impl Default for DedupParams {
    fn default() -> Self {
        DedupParams {
            versions: 60,
            base_rows: 1200,
            edits_per_version: 3,
            rows_per_edit: 4,
            delete_prob: 0.25,
            keep_contents: false,
            directed: true,
        }
    }
}

/// One CSV-ish row with globally unique content (`serial` ensures
/// inserted rows never duplicate existing ones).
fn row(serial: u64, rng: &mut StdRng) -> Vec<u8> {
    format!(
        "{serial},sensor-{:04},reading-{},batch-{:03}\n",
        rng.gen_range(0u32..10_000),
        rng.gen_range(0u64..1_000_000),
        rng.gen_range(0u32..1_000),
    )
    .into_bytes()
}

/// Splits serialized content back into rows (keeps terminators).
fn rows_of(content: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut start = 0;
    for (i, &b) in content.iter().enumerate() {
        if b == b'\n' {
            out.push(content[start..=i].to_vec());
            start = i + 1;
        }
    }
    if start < content.len() {
        out.push(content[start..].to_vec());
    }
    out
}

/// Builds the dedup-chain dataset deterministically from `seed`.
pub fn build(name: &str, params: &DedupParams, seed: u64) -> Dataset {
    assert!(params.versions >= 1);
    let _build = obs::span!("build", versions = params.versions).entered();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5bd1_e995_9e37_79b9);
    let mut serial = 0u64;
    let mut next_row = |rng: &mut StdRng| {
        serial += 1;
        row(serial, rng)
    };

    let base: Vec<u8> = {
        let mut out = b"id,sensor,reading,batch\n".to_vec();
        for _ in 0..params.base_rows {
            out.extend_from_slice(&next_row(&mut rng));
        }
        out
    };

    let mut contents = Vec::with_capacity(params.versions);
    contents.push(base);
    for _ in 1..params.versions {
        let mut rows = rows_of(contents.last().expect("chain is non-empty"));
        for _ in 0..params.edits_per_version {
            // Keep the header row (index 0) fixed.
            if rng.gen_bool(params.delete_prob) && rows.len() > params.rows_per_edit + 1 {
                let at = rng.gen_range(1..=rows.len() - params.rows_per_edit);
                rows.drain(at..at + params.rows_per_edit);
            } else {
                let at = rng.gen_range(1..=rows.len());
                for k in 0..params.rows_per_edit {
                    rows.insert(at + k, next_row(&mut rng));
                }
            }
        }
        contents.push(rows.concat());
    }
    let sizes: Vec<u64> = contents.iter().map(|c| c.len() as u64).collect();

    // Chain edges revealed from real line diffs (the spanning structure
    // every solver needs); undirected ones are two-way scripts.
    let chain: Vec<(u32, u32)> = (1..params.versions as u32).map(|v| (v - 1, v)).collect();
    let matrix = line_matrix(&contents, &chain, params.directed, |f, r| f + r);

    Dataset {
        name: name.to_owned(),
        graph: None,
        matrix,
        contents: params.keep_contents.then_some(contents),
        sizes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DedupParams {
        DedupParams {
            versions: 20,
            base_rows: 300,
            keep_contents: true,
            ..DedupParams::default()
        }
    }

    #[test]
    fn deterministic_and_well_formed() {
        let a = build("DD", &small(), 11);
        let b = build("DD", &small(), 11);
        assert_eq!(a.sizes, b.sizes);
        assert_eq!(a.contents, b.contents);
        assert_eq!(a.version_count(), 20);
        let contents = a.contents.as_ref().unwrap();
        for c in contents {
            assert!(c.starts_with(b"id,sensor,reading,batch\n"));
        }
    }

    #[test]
    fn consecutive_versions_overlap_heavily_at_shifted_offsets() {
        let ds = build("DD", &small(), 7);
        let contents = ds.contents.as_ref().unwrap();
        let mut saw_shift = false;
        for w in contents.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            // Nearly all rows are shared...
            let rows_a: std::collections::HashSet<Vec<u8>> = rows_of(a).into_iter().collect();
            let rows_b: Vec<Vec<u8>> = rows_of(b);
            let shared = rows_b.iter().filter(|r| rows_a.contains(*r)).count();
            assert!(
                shared * 10 >= rows_b.len() * 9,
                "only {shared}/{} rows shared",
                rows_b.len()
            );
            // ...and edits land mid-file, not only at the end (byte
            // offsets of the shared tail shift).
            let common_prefix = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
            if common_prefix < a.len().min(b.len()) * 9 / 10 {
                saw_shift = true;
            }
        }
        assert!(
            saw_shift,
            "every edit hit the suffix; offsets never shifted"
        );
    }

    #[test]
    fn chain_deltas_are_far_smaller_than_versions() {
        let ds = build("DD", &small(), 3);
        for v in 1..ds.version_count() as u32 {
            let pair = ds.matrix.get(v - 1, v).expect("chain edge revealed");
            let full = ds.matrix.materialization(v);
            assert!(
                pair.storage * 5 < full.storage,
                "v{v}: delta {} vs full {}",
                pair.storage,
                full.storage
            );
        }
    }

    #[test]
    fn instance_is_solvable() {
        let ds = build("DD", &small(), 9);
        let inst = ds.instance();
        let mca = dsv_core::plan(
            &inst,
            &dsv_core::PlanSpec::new(dsv_core::Problem::MinStorage),
        )
        .unwrap()
        .solution;
        let spt = dsv_core::plan(
            &inst,
            &dsv_core::PlanSpec::new(dsv_core::Problem::MinRecreation),
        )
        .unwrap()
        .solution;
        assert!(mca.storage_cost() < spt.storage_cost() / 3);
    }

    #[test]
    fn undirected_variant_is_symmetric() {
        let mut p = small();
        p.directed = false;
        let ds = build("DD", &p, 5);
        assert!(ds.matrix.is_symmetric());
    }
}
