//! Cost models: turning bytes into the `⟨Δ, Φ⟩` annotations of §2.1.
//!
//! The paper identifies two regimes for the relationship between storage
//! cost `Δ` and recreation cost `Φ`:
//!
//! - **`Φ = Δ`** — uncompressed line/cell diffs where recreation is
//!   I/O-bound: the time to fetch and replay a delta is proportional to its
//!   size ([`CostModel::Proportional`]).
//! - **`Φ ≠ Δ`** — compressed deltas (or generating scripts), where a
//!   compact stored form can take disproportionate work to apply
//!   ([`CostModel::CompressedStorage`]).
//!
//! Costs are abstract `u64` units: bytes for `Δ`, byte-equivalents of work
//! for `Φ` (read the delta, then write the reconstructed version).

use dsv_compress::huff;

/// A `⟨storage, recreation⟩` cost pair — the per-edge annotation of the
/// paper's version/storage graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CostAnnotation {
    /// Storage cost `Δ` (bytes needed to record this object).
    pub storage: u64,
    /// Recreation cost `Φ` (work to recreate the target given the source).
    pub recreation: u64,
}

impl CostAnnotation {
    /// Constructs an annotation directly.
    pub fn new(storage: u64, recreation: u64) -> Self {
        CostAnnotation {
            storage,
            recreation,
        }
    }
}

/// How raw delta/version bytes map to `⟨Δ, Φ⟩`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostModel {
    /// `Φ = Δ`: store deltas uncompressed; recreation cost equals bytes
    /// processed (the paper's Scenarios 1 and 2).
    #[default]
    Proportional,
    /// `Φ ≠ Δ`: store payloads coded, as a compressing object store does
    /// (`dsv_compress::huff`). `Δ` is the coded size; `Φ` is the raw
    /// delta size plus the size of the reconstructed version (decode +
    /// patch work — Scenario 3).
    CompressedStorage,
}

/// Annotation for storing a version **in its entirety** (`⟨Δ_ii, Φ_ii⟩`).
pub fn full_annotation(model: CostModel, raw: &[u8]) -> CostAnnotation {
    match model {
        CostModel::Proportional => CostAnnotation::new(raw.len() as u64, raw.len() as u64),
        CostModel::CompressedStorage => {
            // The store keeps the raw payload when coding does not shrink
            // it (see `Object::encode`), so the modelled storage cost
            // mirrors that fallback.
            let compressed = huff::coded_len(raw).min(raw.len());
            CostAnnotation::new(compressed as u64, raw.len() as u64)
        }
    }
}

/// Annotation for storing a version as a **delta** (`⟨Δ_ij, Φ_ij⟩`), given
/// the encoded (uncompressed) delta bytes and the size of the version the
/// delta reconstructs.
pub fn delta_annotation(
    model: CostModel,
    encoded_delta: &[u8],
    target_len: usize,
) -> CostAnnotation {
    match model {
        CostModel::Proportional => {
            CostAnnotation::new(encoded_delta.len() as u64, encoded_delta.len() as u64)
        }
        CostModel::CompressedStorage => {
            // Same raw fallback as `full_annotation`.
            let compressed = huff::coded_len(encoded_delta).min(encoded_delta.len());
            CostAnnotation::new(
                compressed as u64,
                encoded_delta.len() as u64 + target_len as u64,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::line_diff;

    fn version(rows: usize) -> Vec<u8> {
        (0..rows)
            .flat_map(|i| format!("{i},value-{},2015\n", i * 3).into_bytes())
            .collect()
    }

    #[test]
    fn proportional_means_phi_equals_delta() {
        let v = version(100);
        let full = full_annotation(CostModel::Proportional, &v);
        assert_eq!(full.storage, full.recreation);
        assert_eq!(full.storage, v.len() as u64);

        let v2 = version(101);
        let d = line_diff(&v, &v2).encode();
        let ann = delta_annotation(CostModel::Proportional, &d, v2.len());
        assert_eq!(ann.storage, ann.recreation);
        assert_eq!(ann.storage, d.len() as u64);
    }

    #[test]
    fn compressed_model_diverges() {
        let v = version(500);
        let full = full_annotation(CostModel::CompressedStorage, &v);
        // CSV compresses: stored form smaller than recreation work.
        assert!(full.storage < full.recreation);
        assert_eq!(full.recreation, v.len() as u64);
    }

    #[test]
    fn compressed_delta_recreation_includes_target() {
        let a = version(300);
        let b = version(301);
        let d = line_diff(&a, &b).encode();
        let ann = delta_annotation(CostModel::CompressedStorage, &d, b.len());
        assert_eq!(ann.recreation, d.len() as u64 + b.len() as u64);
        assert!(ann.storage <= d.len() as u64 + 16);
    }

    #[test]
    fn small_delta_costs_less_than_materialization() {
        // The core premise: similar versions should be cheap to delta.
        let a = version(1000);
        let b = {
            let mut t = a.clone();
            t.extend_from_slice(b"1000,tail,2015\n");
            t
        };
        for model in [CostModel::Proportional, CostModel::CompressedStorage] {
            let full = full_annotation(model, &b);
            let d = line_diff(&a, &b).encode();
            let delta = delta_annotation(model, &d, b.len());
            assert!(
                delta.storage * 10 < full.storage,
                "{model:?}: delta {} vs full {}",
                delta.storage,
                full.storage
            );
        }
    }

    #[test]
    fn empty_inputs() {
        let full = full_annotation(CostModel::Proportional, b"");
        assert_eq!(full, CostAnnotation::new(0, 0));
        let ann = delta_annotation(CostModel::Proportional, b"", 0);
        assert_eq!(ann, CostAnnotation::new(0, 0));
    }
}
