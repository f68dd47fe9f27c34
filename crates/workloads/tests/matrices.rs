//! Pins the cost matrices the workload builders reveal.
//!
//! Each content preset is built small at seed 2015, directed and
//! undirected, and the cost-only generator at its defaults. For each, the
//! number of revealed entries and an FNV-1a digest over the diagonal and
//! the sorted revealed entries are pinned, and every entry must have
//! `Φ = Δ`: a matrix is bytes, priced once.

use dsv_core::{CostMatrix, CostPair};
use dsv_workloads::presets::{self, Preset};
use dsv_workloads::synthetic::{self, SyntheticParams};

const SEED: u64 = 2015;

/// `(revealed entries, digest)` of a matrix, after checking `Φ = Δ` on
/// its diagonal and every revealed entry.
fn pin(matrix: &CostMatrix) -> (usize, u64) {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |x: u64| {
        for b in x.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let check = |what: String, pair: CostPair| {
        assert_eq!(pair.storage, pair.recreation, "{what}: Φ ≠ Δ");
    };
    let n = matrix.version_count() as u32;
    feed(u64::from(n));
    for i in 0..n {
        let pair = matrix.materialization(i);
        check(format!("diagonal {i}"), pair);
        feed(pair.storage);
        feed(pair.recreation);
    }
    let mut entries: Vec<(u32, u32, CostPair)> = matrix.revealed_entries().collect();
    entries.sort_by_key(|&(i, j, _)| (i, j));
    for &(i, j, pair) in &entries {
        check(format!("entry ({i}, {j})"), pair);
        feed(u64::from(i));
        feed(u64::from(j));
        feed(pair.storage);
        feed(pair.recreation);
    }
    (entries.len(), hash)
}

/// Builds `preset` directed and undirected and checks both pins.
fn check_preset(preset: Preset, directed: (usize, u64), undirected: (usize, u64)) {
    let name = preset.name();
    let got = pin(&preset.build(SEED).matrix);
    assert_eq!(got, directed, "{name} directed: (count, digest)");
    let got = pin(&preset.undirected().build(SEED).matrix);
    assert_eq!(got, undirected, "{name} undirected: (count, digest)");
}

#[test]
fn densely_connected_is_pinned() {
    check_preset(
        presets::densely_connected().scaled(40),
        (1488, 0x6306_42f5_f51f_88f9),
        (744, 0x096c_8f87_9767_1e5b),
    );
}

#[test]
fn linear_chain_is_pinned() {
    check_preset(
        presets::linear_chain().scaled(40),
        (1350, 0x1169_149c_f7c0_0fa9),
        (675, 0xbf19_f01d_9ffa_eec6),
    );
}

#[test]
fn bootstrap_forks_are_pinned() {
    check_preset(
        presets::bootstrap_forks().scaled(30),
        (870, 0x0a1d_aa8f_e85f_93eb),
        (435, 0x3010_add7_e4d1_733e),
    );
}

#[test]
fn linux_forks_are_pinned() {
    check_preset(
        presets::linux_forks().scaled(8),
        (34, 0x8e28_0038_cf1a_9541),
        (17, 0xfc0d_98a9_1491_9d9f),
    );
}

#[test]
fn dedup_chain_is_pinned() {
    check_preset(
        presets::dedup_chain().scaled(20),
        (38, 0x4853_4e7b_993f_63b9),
        (19, 0xbdd5_6174_1930_02fa),
    );
}

#[test]
fn synthetic_defaults_are_pinned() {
    let ds = synthetic::build("synthetic", &SyntheticParams::default(), 7);
    assert_eq!(
        pin(&ds.matrix),
        (1256, 0x5f67_8598_e317_15d1),
        "synthetic: (count, digest)"
    );
}
