//! Hybrid per-version storage modes vs the pure regimes.
//!
//! PR 1's substrate experiment compared Full, Delta and Chunked as
//! whole-store regimes. This experiment exercises the three-mode
//! optimizer (`StorageMode` in dsv-core): per workload it solves a hybrid
//! LMG plan — the solver choosing Full / Delta / Chunked *per version* —
//! and compares it against the three pure regimes, both on planned matrix
//! costs and end-to-end (every plan is executed through
//! `pack_versions_hybrid` into the same compressed store and every
//! version checked out byte-exact). Emits
//! `target/experiments/BENCH_hybrid.json`.
//!
//! The headline (asserted in this module's test, on the DD workload): the
//! hybrid plan's storage is at most the best pure regime's at
//! equal-or-better max recreation cost — the per-version choice reaches
//! tradeoff points no pure regime offers.

use crate::report::{human_bytes, out_dir, Table};
use crate::Scale;
use dsv_core::ChunkerParams;
use dsv_core::{Problem, ProblemInstance, StorageMode, StorageSolution};
use dsv_storage::chunk::pack_versions_hybrid;
use dsv_storage::{Materializer, MemStore, ObjectStore};
use dsv_workloads::presets;
use std::fmt::Write as _;
use std::path::PathBuf;

/// One (workload, regime) outcome.
#[derive(Debug, Clone)]
pub struct HybridRow {
    /// Workload name ("LC", "DD", "BF").
    pub workload: String,
    /// Regime name ("full", "delta", "chunked", "hybrid").
    pub regime: &'static str,
    /// Planned total storage cost (matrix units).
    pub planned_storage: u64,
    /// Planned `max Ri`.
    pub planned_max_recreation: u64,
    /// Planned `Σ Ri`.
    pub planned_sum_recreation: u64,
    /// Versions materialized / stored as deltas / chunked.
    pub modes: (usize, usize, usize),
    /// Measured physical store bytes after packing the plan.
    pub store_bytes: u64,
    /// Measured worst-case checkout bytes read.
    pub max_checkout_read: u64,
}

fn mode_counts(sol: &StorageSolution) -> (usize, usize, usize) {
    let mut counts = (0, 0, 0);
    for m in sol.modes() {
        match m {
            StorageMode::Materialized => counts.0 += 1,
            StorageMode::Delta(_) => counts.1 += 1,
            StorageMode::Chunked => counts.2 += 1,
        }
    }
    counts
}

fn execute(
    workload: &str,
    regime: &'static str,
    sol: &StorageSolution,
    contents: &[Vec<u8>],
    params: ChunkerParams,
) -> HybridRow {
    let store = MemStore::new(true);
    let (packed, _) =
        pack_versions_hybrid(&store, contents, sol.modes(), params).expect("plan packs");
    let m = Materializer::new(&store);
    let mut max_read = 0u64;
    for v in 0..contents.len() as u32 {
        let (data, work) = packed.checkout(&m, v).expect("checkout");
        assert_eq!(data, contents[v as usize], "{workload}/{regime} v{v}");
        max_read = max_read.max(work.bytes_read);
    }
    HybridRow {
        workload: workload.to_owned(),
        regime,
        planned_storage: sol.storage_cost(),
        planned_max_recreation: sol.max_recreation(),
        planned_sum_recreation: sol.sum_recreation(),
        modes: mode_counts(sol),
        store_bytes: store.total_bytes(),
        max_checkout_read: max_read,
    }
}

/// Runs the four regimes on one workload. The pure delta regime is LMG at
/// `β = 1.5 ×` minimum storage (a mid-frontier point); the hybrid plan is
/// LMG on the chunk-extended instance at `β =` the **best pure regime's
/// achieved storage**, so any recreation win it reports comes at
/// equal-or-less storage by construction.
fn run_workload(
    name: &str,
    binary: &ProblemInstance,
    hybrid: &ProblemInstance,
    contents: &[Vec<u8>],
    params: ChunkerParams,
) -> Vec<HybridRow> {
    let n = binary.version_count();
    let mca = super::mca_reference(binary);

    let full = StorageSolution::from_parents(binary, vec![None; n]).expect("full plan");
    let delta_beta = mca.storage_cost() + mca.storage_cost() / 2;
    let delta = super::named_solve(
        binary,
        Problem::MinSumRecreationGivenStorage { beta: delta_beta },
        "lmg",
    )
    .expect("delta plan");
    let chunked = StorageSolution::from_modes(hybrid, vec![StorageMode::Chunked; n])
        .expect("chunked costs revealed for every version");

    let pure = [&full, &delta, &chunked];
    let best_pure_storage = pure.iter().map(|s| s.storage_cost()).min().expect("pure");
    let hybrid_sol = super::named_solve(
        hybrid,
        Problem::MinSumRecreationGivenStorage {
            beta: best_pure_storage,
        },
        "lmg",
    )
    .expect("hybrid plan");

    vec![
        execute(name, "full", &full, contents, params),
        execute(name, "delta", &delta, contents, params),
        execute(name, "chunked", &chunked, contents, params),
        execute(name, "hybrid", &hybrid_sol, contents, params),
    ]
}

/// Runs the comparison on the LC, DD and BF workloads.
pub fn run(scale: Scale) -> Vec<HybridRow> {
    let seed = 2015;
    let params = ChunkerParams::default();
    let datasets = vec![
        presets::linear_chain()
            .scaled(scale.pick(40, 120))
            .keep_contents()
            .build(seed),
        presets::dedup_chain()
            .scaled(scale.pick(30, 60))
            .keep_contents()
            .build(seed),
        presets::bootstrap_forks()
            .scaled(scale.pick(16, 60))
            .keep_contents()
            .build(seed),
    ];

    let mut rows = Vec::new();
    for ds in &datasets {
        let binary = ds.instance();
        let hybrid = ds
            .instance_with_chunked(params)
            .expect("contents kept for chunk estimation");
        let contents = ds.contents.as_ref().expect("contents kept");
        rows.extend(run_workload(&ds.name, &binary, &hybrid, contents, params));
    }

    let mut table = Table::new(
        "Hybrid per-version modes vs pure regimes (planned costs; measured store)",
        &[
            "workload",
            "regime",
            "planned C",
            "planned maxR",
            "planned ΣR",
            "full/delta/chunked",
            "store bytes",
            "max checkout read",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.workload.clone(),
            r.regime.to_string(),
            human_bytes(r.planned_storage),
            human_bytes(r.planned_max_recreation),
            human_bytes(r.planned_sum_recreation),
            format!("{}/{}/{}", r.modes.0, r.modes.1, r.modes.2),
            human_bytes(r.store_bytes),
            human_bytes(r.max_checkout_read),
        ]);
    }
    table.emit("hybrid");
    if let Err(e) = write_json(&rows) {
        eprintln!("warning: could not write BENCH_hybrid.json: {e}");
    }
    rows
}

/// Writes the rows as `target/experiments/BENCH_hybrid.json`.
pub fn write_json(rows: &[HybridRow]) -> std::io::Result<PathBuf> {
    let path = out_dir()?.join("BENCH_hybrid.json");
    let mut out = String::from("{\n  \"experiment\": \"hybrid\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"workload\": \"{}\", \"regime\": \"{}\", \"planned_storage\": {}, \"planned_max_recreation\": {}, \"planned_sum_recreation\": {}, \"materialized\": {}, \"deltas\": {}, \"chunked\": {}, \"store_bytes\": {}, \"max_checkout_read\": {}}}",
            r.workload,
            r.regime,
            r.planned_storage,
            r.planned_max_recreation,
            r.planned_sum_recreation,
            r.modes.0,
            r.modes.1,
            r.modes.2,
            r.store_bytes,
            r.max_checkout_read,
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&path, out)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row<'a>(rows: &'a [HybridRow], workload: &str, regime: &str) -> &'a HybridRow {
        rows.iter()
            .find(|r| r.workload == workload && r.regime == regime)
            .unwrap_or_else(|| panic!("{workload}/{regime} row missing"))
    }

    /// The PR's acceptance bar: on the DD (dedup-chain) workload the
    /// hybrid LMG plan stores no more than the best pure regime while its
    /// max recreation cost is equal or better — and it actually mixes
    /// modes rather than collapsing into a pure plan.
    #[test]
    fn dd_hybrid_dominates_best_pure_regime() {
        let rows = run(Scale::Quick);
        let hybrid = row(&rows, "DD", "hybrid");
        let best_pure = ["full", "delta", "chunked"]
            .iter()
            .map(|r| row(&rows, "DD", r))
            .min_by_key(|r| r.planned_storage)
            .expect("pure rows");
        assert!(
            hybrid.planned_storage <= best_pure.planned_storage,
            "hybrid C {} vs best pure ({}) {}",
            hybrid.planned_storage,
            best_pure.regime,
            best_pure.planned_storage
        );
        assert!(
            hybrid.planned_max_recreation <= best_pure.planned_max_recreation,
            "hybrid maxR {} vs best pure ({}) {}",
            hybrid.planned_max_recreation,
            best_pure.regime,
            best_pure.planned_max_recreation
        );
        // The hybrid plan genuinely uses the third mode alongside deltas.
        assert!(hybrid.modes.2 >= 1, "no chunked versions in hybrid plan");
        assert!(hybrid.modes.1 >= 1, "no delta versions in hybrid plan");

        // Every workload's JSON row set made it to disk.
        let path = write_json(&rows).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        for workload in ["LC", "DD", "BF"] {
            assert!(text.contains(&format!("\"workload\": \"{workload}\"")));
        }
        assert!(text.contains("\"regime\": \"hybrid\""));
    }
}
