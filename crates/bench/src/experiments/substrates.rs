//! Substrate comparison: Full vs Delta vs Chunked on the dedup workload.
//!
//! The paper's tradeoff has two regimes — materialize everything (fast
//! checkout, maximal storage) or delta chains (minimal storage, chained
//! checkout). Content-defined chunking (dsv-chunk) is the third point:
//! near-delta storage at near-materialized recreation. This experiment
//! measures all of them on the dedup-chain workload (versions sharing
//! shifted/overlapping content) through the *same* compressed object
//! store, reporting physical bytes and measured checkout work, and emits
//! the rows as `target/experiments/BENCH_substrates.json` so future
//! changes have a machine-readable perf trajectory to track.

use crate::report::{human_bytes, out_dir, Table};
use crate::Scale;
use dsv_chunk::{pack_versions_chunked, ChunkerParams};
use dsv_core::Problem;
use dsv_storage::{
    pack_versions, Materializer, MemStore, ObjectStore, PackOptions, PackedVersions,
};
use dsv_workloads::presets;
use std::fmt::Write as _;
use std::path::PathBuf;

/// One substrate's measured outcome.
#[derive(Debug, Clone)]
pub struct SubstrateRow {
    /// Substrate name ("full", "delta-chain", "delta-mca", "chunked").
    pub substrate: &'static str,
    /// Physical store bytes (encoded, compressed objects).
    pub storage_bytes: u64,
    /// Objects in the store.
    pub objects: usize,
    /// Mean measured checkout bytes read (fetch work).
    pub avg_checkout_bytes_read: f64,
    /// Worst-case measured checkout bytes read.
    pub max_checkout_bytes_read: u64,
    /// Worst-case objects fetched by one checkout (chain depth for the
    /// delta plans, chunk count for the chunked plan).
    pub max_objects_fetched: usize,
}

fn measure(
    substrate: &'static str,
    store: &MemStore,
    packed: &PackedVersions,
    contents: &[Vec<u8>],
) -> SubstrateRow {
    let m = Materializer::new(store);
    let mut total_read = 0u64;
    let mut max_read = 0u64;
    let mut max_fetched = 0usize;
    for v in 0..contents.len() as u32 {
        let (data, work) = packed.checkout(&m, v).expect("checkout");
        assert_eq!(data, contents[v as usize], "substrate corrupted v{v}");
        total_read += work.bytes_read;
        max_read = max_read.max(work.bytes_read);
        max_fetched = max_fetched.max(work.objects_fetched);
    }
    SubstrateRow {
        substrate,
        storage_bytes: store.total_bytes(),
        objects: store.len(),
        avg_checkout_bytes_read: total_read as f64 / contents.len() as f64,
        max_checkout_bytes_read: max_read,
        max_objects_fetched: max_fetched,
    }
}

/// Runs the comparison: every substrate packs the same dedup-chain
/// contents into its own compressed `MemStore`.
pub fn run(scale: Scale) -> Vec<SubstrateRow> {
    let versions = scale.pick(60, 150);
    let ds = presets::dedup_chain()
        .scaled(versions)
        .keep_contents()
        .build(2015);
    let contents = ds.contents.as_ref().expect("contents kept");

    let mut rows = Vec::new();
    // One store serves every regime; `ObjectStore::clear` (the bulk
    // remove path) resets it between substrates so the measurements share
    // one store instance and configuration.
    let store = MemStore::new(true);

    // Full: every version materialized.
    {
        let plan = vec![None; contents.len()];
        let packed =
            pack_versions(&store, contents, &plan, PackOptions::default()).expect("full plan");
        rows.push(measure("full", &store, &packed, contents));
        store.clear().expect("reset the store");
    }

    // Delta chain: each version a delta off its predecessor (the naive
    // online plan; recreation grows with history).
    {
        let plan: Vec<Option<u32>> = (0..contents.len() as u32)
            .map(|i| i.checked_sub(1))
            .collect();
        let packed =
            pack_versions(&store, contents, &plan, PackOptions::default()).expect("chain plan");
        rows.push(measure("delta-chain", &store, &packed, contents));
        store.clear().expect("reset the store");
    }

    // Delta per the optimizer's minimum-storage plan (MCA).
    {
        let sol = super::auto_solve(&ds.instance(), Problem::MinStorage).expect("solvable");
        let packed = pack_versions(&store, contents, sol.parents(), PackOptions::default())
            .expect("mca plan");
        rows.push(measure("delta-mca", &store, &packed, contents));
        store.clear().expect("reset the store");
    }

    // Chunked: deduplicated manifests.
    {
        let (packed, stats) =
            pack_versions_chunked(&store, contents, ChunkerParams::default()).expect("chunk pack");
        let row = measure("chunked", &store, &packed, contents);
        assert!(stats.chunk_hit_rate() > 0.0, "no chunk was ever reused");
        rows.push(row);
    }

    let mut table = Table::new(
        "Substrates: Full / Delta / Chunked on the dedup-chain workload (same compressed store)",
        &[
            "substrate",
            "store bytes",
            "vs full",
            "objects",
            "avg checkout read",
            "max checkout read",
            "max fetches",
        ],
    );
    let full_bytes = rows[0].storage_bytes;
    for r in &rows {
        table.row(vec![
            r.substrate.to_string(),
            human_bytes(r.storage_bytes),
            format!("{:.2}x", r.storage_bytes as f64 / full_bytes.max(1) as f64),
            r.objects.to_string(),
            human_bytes(r.avg_checkout_bytes_read as u64),
            human_bytes(r.max_checkout_bytes_read),
            r.max_objects_fetched.to_string(),
        ]);
    }
    table.emit("substrates");
    if let Err(e) = write_json(&rows) {
        eprintln!("warning: could not write BENCH_substrates.json: {e}");
    }
    rows
}

/// Writes the rows as `target/experiments/BENCH_substrates.json`
/// (hand-rolled JSON; every field is a number or plain ASCII name).
pub fn write_json(rows: &[SubstrateRow]) -> std::io::Result<PathBuf> {
    let path = out_dir()?.join("BENCH_substrates.json");
    let mut out = String::from(
        "{\n  \"experiment\": \"substrates\",\n  \"workload\": \"dedup-chain\",\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"substrate\": \"{}\", \"storage_bytes\": {}, \"objects\": {}, \"avg_checkout_bytes_read\": {:.1}, \"max_checkout_bytes_read\": {}, \"max_objects_fetched\": {}}}",
            r.substrate,
            r.storage_bytes,
            r.objects,
            r.avg_checkout_bytes_read,
            r.max_checkout_bytes_read,
            r.max_objects_fetched,
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

    fn row<'a>(rows: &'a [SubstrateRow], name: &str) -> &'a SubstrateRow {
        rows.iter().find(|r| r.substrate == name).expect(name)
    }

    /// The acceptance bar for the chunked substrate: ≥2x storage
    /// reduction versus all-materialized AND recreation below the
    /// delta-chain plan, on the same dedup-friendly workload.
    #[test]
    fn chunked_sits_between_full_and_delta() {
        let rows = run(Scale::Quick);
        let full = row(&rows, "full");
        let chain = row(&rows, "delta-chain");
        let mca = row(&rows, "delta-mca");
        let chunked = row(&rows, "chunked");

        // Storage: at least 2x below all-materialized.
        assert!(
            chunked.storage_bytes * 2 <= full.storage_bytes,
            "chunked {} vs full {}",
            chunked.storage_bytes,
            full.storage_bytes
        );
        // Recreation: below the delta chain's, average and worst case.
        assert!(
            chunked.avg_checkout_bytes_read < chain.avg_checkout_bytes_read,
            "chunked avg {} vs chain avg {}",
            chunked.avg_checkout_bytes_read,
            chain.avg_checkout_bytes_read
        );
        assert!(chunked.max_checkout_bytes_read < chain.max_checkout_bytes_read);
        // Sanity on the frame: both delta plans store less than full.
        assert!(chain.storage_bytes < full.storage_bytes);
        assert!(mca.storage_bytes < full.storage_bytes);

        let path = write_json(&rows).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains("\"substrate\": \"chunked\""));
        assert!(text.contains("\"storage_bytes\""));
    }
}
