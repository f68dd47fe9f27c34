//! The `Δ` / `Φ` cost matrices (§2.1).
//!
//! For a collection of `n` versions, the **diagonal** entries
//! `⟨Δ_ii, Φ_ii⟩` are the cost of storing version `i` in its entirety
//! (materialization) and of retrieving that stored copy; **off-diagonal**
//! entries `⟨Δ_ij, Φ_ij⟩` are the cost of storing version `j` as a delta
//! from `i` and of applying that delta once `i` is available.
//!
//! Off-diagonal entries are *revealed*, never assumed: computing all-pairs
//! deltas is infeasible at scale, so the paper (and this implementation)
//! works with a sparse matrix populated by some reveal strategy —
//! version-graph edges, k-hop neighbourhoods, or resemblance-sketch
//! candidates. The matrix may be declared *symmetric* (the undirected case,
//! e.g. XOR deltas), in which case `(i,j)` and `(j,i)` share one entry.

use dsv_graph::FxHashMap;

/// A `⟨Δ, Φ⟩` pair: storage cost and recreation cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CostPair {
    /// Storage cost `Δ` (bytes).
    pub storage: u64,
    /// Recreation cost `Φ` (abstract work units; bytes in the I/O-bound
    /// model).
    pub recreation: u64,
}

impl CostPair {
    /// Constructs a pair.
    pub const fn new(storage: u64, recreation: u64) -> Self {
        CostPair {
            storage,
            recreation,
        }
    }

    /// A pair with `Φ = Δ` (the proportional scenarios).
    pub const fn proportional(cost: u64) -> Self {
        CostPair {
            storage: cost,
            recreation: cost,
        }
    }
}

/// One detected violation of the triangle inequalities of §3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriangleViolation {
    /// The three versions involved (`w == p` encodes a diagonal check).
    pub p: u32,
    /// Middle version.
    pub q: u32,
    /// Third version.
    pub w: u32,
}

/// Sparse pair of cost matrices over `n` versions.
#[derive(Debug, Clone)]
pub struct CostMatrix {
    diag: Vec<CostPair>,
    off: FxHashMap<(u32, u32), CostPair>,
    /// Per-version chunked-storage cost `⟨Δ_ci, Φ_ci⟩`: the incremental
    /// unique-chunk bytes version `i` adds to the shared chunk store, and
    /// the work to reassemble it from its manifest. `None` = no chunked
    /// estimate revealed for this version (the binary model of the paper).
    chunked: Vec<Option<CostPair>>,
    /// Number of `Some` entries in `chunked`, maintained by
    /// `set_chunked`/`clear_chunked`/`push_version` — `has_chunked` and
    /// `chunked_count` are consulted on every solve, so they must not
    /// rescan the vector.
    chunked_set: usize,
    symmetric: bool,
}

impl CostMatrix {
    /// Creates a matrix for the **directed** case (`Δ` may be asymmetric)
    /// with the given materialization costs.
    pub fn directed(diag: Vec<CostPair>) -> Self {
        let chunked = vec![None; diag.len()];
        CostMatrix {
            diag,
            off: FxHashMap::default(),
            chunked,
            chunked_set: 0,
            symmetric: false,
        }
    }

    /// Creates a matrix for the **undirected** case (`Δ_ij = Δ_ji`,
    /// `Φ_ij = Φ_ji`); entries are stored once under the normalized key.
    pub fn undirected(diag: Vec<CostPair>) -> Self {
        let chunked = vec![None; diag.len()];
        CostMatrix {
            diag,
            off: FxHashMap::default(),
            chunked,
            chunked_set: 0,
            symmetric: true,
        }
    }

    /// Number of versions `n`.
    pub fn version_count(&self) -> usize {
        self.diag.len()
    }

    /// Whether this matrix models the undirected case.
    pub fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    /// `⟨Δ_ii, Φ_ii⟩` for version `i`.
    pub fn materialization(&self, i: u32) -> CostPair {
        self.diag[i as usize]
    }

    /// Overwrites the materialization cost of version `i` (used by online
    /// insertion).
    pub fn set_materialization(&mut self, i: u32, pair: CostPair) {
        self.diag[i as usize] = pair;
    }

    /// Appends a new version with the given materialization cost (and no
    /// chunked estimate), returning its index.
    pub fn push_version(&mut self, pair: CostPair) -> u32 {
        self.diag.push(pair);
        self.chunked.push(None);
        (self.diag.len() - 1) as u32
    }

    /// Reveals the chunked-storage cost `⟨Δ_ci, Φ_ci⟩` of version `i`:
    /// the incremental unique-chunk bytes it adds to the shared chunk
    /// store plus manifest overhead, and the work to reassemble it from
    /// its chunks. Estimates are order-dependent (a version's increment
    /// depends on the chunks earlier versions contributed), so callers
    /// reveal them for all versions at once, in version order.
    pub fn set_chunked(&mut self, i: u32, pair: CostPair) {
        if self.chunked[i as usize].replace(pair).is_none() {
            self.chunked_set += 1;
        }
    }

    /// The revealed chunked cost of version `i`, if any.
    pub fn chunked(&self, i: u32) -> Option<CostPair> {
        self.chunked[i as usize]
    }

    /// Whether any version has a chunked cost revealed (i.e. the instance
    /// models the three-way Full/Delta/Chunked choice). O(1): reads the
    /// maintained count.
    pub fn has_chunked(&self) -> bool {
        self.chunked_set > 0
    }

    /// Number of versions with a revealed chunked cost. O(1): reads the
    /// maintained count.
    pub fn chunked_count(&self) -> usize {
        self.chunked_set
    }

    /// Withdraws every chunked cost, returning the matrix to the paper's
    /// binary model (used by the planner's `ModePolicy::Binary`).
    pub fn clear_chunked(&mut self) {
        self.chunked.iter_mut().for_each(|c| *c = None);
        self.chunked_set = 0;
    }

    #[inline]
    fn key(&self, i: u32, j: u32) -> (u32, u32) {
        if self.symmetric && i > j {
            (j, i)
        } else {
            (i, j)
        }
    }

    /// Reveals the delta entry `⟨Δ_ij, Φ_ij⟩` (storing `j` as a delta from
    /// `i`). In the symmetric case this also serves as `(j,i)`.
    ///
    /// # Panics
    /// Panics if `i == j` (use the diagonal) or out of range.
    pub fn reveal(&mut self, i: u32, j: u32, pair: CostPair) {
        assert_ne!(i, j, "diagonal entries are set at construction");
        assert!((i as usize) < self.diag.len() && (j as usize) < self.diag.len());
        self.off.insert(self.key(i, j), pair);
    }

    /// The revealed `⟨Δ_ij, Φ_ij⟩`, if any. `i == j` returns the diagonal.
    pub fn get(&self, i: u32, j: u32) -> Option<CostPair> {
        if i == j {
            return Some(self.diag[i as usize]);
        }
        self.off.get(&self.key(i, j)).copied()
    }

    /// Number of revealed off-diagonal entries (symmetric entries count
    /// once).
    pub fn revealed_count(&self) -> usize {
        self.off.len()
    }

    /// Iterates over revealed off-diagonal entries as `(i, j, pair)`. For
    /// symmetric matrices each undirected entry is yielded once with
    /// `i < j`.
    pub fn revealed_entries(&self) -> impl Iterator<Item = (u32, u32, CostPair)> + '_ {
        self.off.iter().map(|(&(i, j), &p)| (i, j, p))
    }

    /// Sum of all materialization storage costs — the cost of the naive
    /// "store everything fully" solution.
    pub fn total_materialization_storage(&self) -> u64 {
        self.diag.iter().map(|p| p.storage).sum()
    }

    /// Checks the §3 triangle inequalities on revealed entries, stopping
    /// after `max_violations` findings. Only meaningful for symmetric
    /// matrices with `Φ = Δ`; callers use it to sanity-check generated
    /// workloads.
    ///
    /// Checked forms (on storage costs):
    /// `|Δ_pq − Δ_qw| ≤ Δ_pw ≤ Δ_pq + Δ_qw` for revealed triples, and
    /// `|Δ_pp − Δ_pq| ≤ Δ_qq ≤ Δ_pp + Δ_pq` for revealed pairs.
    pub fn triangle_violations(&self, max_violations: usize) -> Vec<TriangleViolation> {
        let mut found = Vec::new();
        // Pair checks against the diagonal.
        for (&(p, q), &pair) in &self.off {
            let dpp = self.diag[p as usize].storage;
            let dqq = self.diag[q as usize].storage;
            let dpq = pair.storage;
            if dqq > dpp.saturating_add(dpq) || dqq < dpp.abs_diff(dpq) {
                found.push(TriangleViolation { p, q, w: p });
            } else if dpp > dqq.saturating_add(dpq) || dpp < dqq.abs_diff(dpq) {
                found.push(TriangleViolation { p: q, q: p, w: q });
            }
            if found.len() >= max_violations {
                return found;
            }
        }
        // Triple checks among revealed edges: group by first endpoint.
        let mut by_node: FxHashMap<u32, Vec<(u32, u64)>> = FxHashMap::default();
        for (&(p, q), &pair) in &self.off {
            by_node.entry(p).or_default().push((q, pair.storage));
            by_node.entry(q).or_default().push((p, pair.storage));
        }
        for (&q, neigh) in &by_node {
            for a in 0..neigh.len() {
                for b in (a + 1)..neigh.len() {
                    let (p, dpq) = neigh[a];
                    let (w, dqw) = neigh[b];
                    if let Some(pw) = self.get(p, w) {
                        let dpw = pw.storage;
                        if dpw > dpq.saturating_add(dqw) || dpw < dpq.abs_diff(dqw) {
                            found.push(TriangleViolation { p, q, w });
                            if found.len() >= max_violations {
                                return found;
                            }
                        }
                    }
                }
            }
        }
        found
    }
}

/// The k-hop reveal strategy: every unordered pair of versions within
/// `hops` of each other in the undirected graph on `n` versions with the
/// given `edges` — the paper's rule for which deltas to compute ("we
/// compute the delta with all versions in a k-hop distance"). Returns
/// `(a, b, distance)` with `a < b`, each pair once, ordered by `a` and
/// then by breadth-first discovery from `a` (neighbours in edge order).
pub fn pairs_within_hops(
    n: usize,
    edges: impl IntoIterator<Item = (u32, u32)>,
    hops: usize,
) -> Vec<(u32, u32, u32)> {
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (u, v) in edges {
        adj[u as usize].push(v);
        adj[v as usize].push(u);
    }
    let mut out = Vec::new();
    let mut dist = vec![u32::MAX; n];
    let mut touched: Vec<u32> = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    for s in 0..n as u32 {
        // Bounded BFS from s, collecting pairs (s, t>s).
        dist[s as usize] = 0;
        touched.push(s);
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            let d = dist[v as usize];
            if d as usize >= hops {
                continue;
            }
            for &u in &adj[v as usize] {
                if dist[u as usize] == u32::MAX {
                    dist[u as usize] = d + 1;
                    touched.push(u);
                    if u > s {
                        out.push((s, u, d + 1));
                    }
                    queue.push_back(u);
                }
            }
        }
        for &t in &touched {
            dist[t as usize] = u32::MAX;
        }
        touched.clear();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(costs: &[u64]) -> Vec<CostPair> {
        costs.iter().map(|&c| CostPair::proportional(c)).collect()
    }

    #[test]
    fn diagonal_is_always_available() {
        let m = CostMatrix::directed(diag(&[100, 200, 300]));
        assert_eq!(m.version_count(), 3);
        assert_eq!(m.get(1, 1), Some(CostPair::proportional(200)));
        assert_eq!(m.get(0, 1), None);
    }

    #[test]
    fn directed_entries_are_one_way() {
        let mut m = CostMatrix::directed(diag(&[100, 200]));
        m.reveal(0, 1, CostPair::new(10, 20));
        assert_eq!(m.get(0, 1), Some(CostPair::new(10, 20)));
        assert_eq!(m.get(1, 0), None);
        assert_eq!(m.revealed_count(), 1);
    }

    #[test]
    fn undirected_entries_are_shared() {
        let mut m = CostMatrix::undirected(diag(&[100, 200]));
        m.reveal(1, 0, CostPair::new(10, 20));
        assert_eq!(m.get(0, 1), Some(CostPair::new(10, 20)));
        assert_eq!(m.get(1, 0), Some(CostPair::new(10, 20)));
        assert_eq!(m.revealed_count(), 1);
    }

    #[test]
    fn reveal_overwrites() {
        let mut m = CostMatrix::directed(diag(&[1, 2]));
        m.reveal(0, 1, CostPair::new(5, 5));
        m.reveal(0, 1, CostPair::new(3, 3));
        assert_eq!(m.get(0, 1).unwrap().storage, 3);
        assert_eq!(m.revealed_count(), 1);
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn reveal_rejects_diagonal() {
        let mut m = CostMatrix::directed(diag(&[1]));
        m.reveal(0, 0, CostPair::new(1, 1));
    }

    #[test]
    fn total_materialization() {
        let m = CostMatrix::directed(diag(&[100, 200, 300]));
        assert_eq!(m.total_materialization_storage(), 600);
    }

    #[test]
    fn push_version_extends() {
        let mut m = CostMatrix::directed(diag(&[1]));
        let idx = m.push_version(CostPair::proportional(9));
        assert_eq!(idx, 1);
        assert_eq!(m.version_count(), 2);
        assert_eq!(m.materialization(1).storage, 9);
        assert_eq!(m.chunked(1), None);
    }

    #[test]
    fn chunked_costs_are_per_version_and_optional() {
        let mut m = CostMatrix::directed(diag(&[100, 200, 300]));
        assert!(!m.has_chunked());
        assert_eq!(m.chunked_count(), 0);
        m.set_chunked(1, CostPair::new(40, 210));
        assert!(m.has_chunked());
        assert_eq!(m.chunked_count(), 1);
        assert_eq!(m.chunked(0), None);
        assert_eq!(m.chunked(1), Some(CostPair::new(40, 210)));
        // A pushed version starts without an estimate.
        let v = m.push_version(CostPair::proportional(9));
        assert_eq!(m.chunked(v), None);
        m.set_chunked(v, CostPair::new(1, 10));
        assert_eq!(m.chunked_count(), 2);
    }

    #[test]
    fn paper_example_numbers_are_fictitious_and_flagged() {
        // Figure 2 of the paper (Δ matrix), undirected reading. The paper
        // itself notes these numbers are "fictitious and not the result of
        // running any specific algorithm" — and indeed they violate the
        // diagonal triangle inequality (e.g. Δ_22 = 10100 vs Δ_44 = 9800
        // with a 50-byte delta between them), which the checker must flag.
        let mut m = CostMatrix::undirected(diag(&[10000, 10100, 9700, 9800, 10120]));
        m.reveal(0, 1, CostPair::proportional(200));
        m.reveal(0, 2, CostPair::proportional(1000));
        m.reveal(1, 3, CostPair::proportional(50));
        m.reveal(1, 4, CostPair::proportional(800));
        m.reveal(2, 4, CostPair::proportional(200));
        m.reveal(3, 4, CostPair::proportional(900));
        assert!(!m.triangle_violations(16).is_empty());
    }

    #[test]
    fn consistent_matrix_has_no_violations() {
        // Sizes and deltas that could come from real content: each delta
        // is at least the size difference and at most the sum.
        let mut m = CostMatrix::undirected(diag(&[10000, 10100, 9900]));
        m.reveal(0, 1, CostPair::proportional(300)); // |10000-10100|=100 ≤ 300
        m.reveal(0, 2, CostPair::proportional(250)); // 100 ≤ 250
        m.reveal(1, 2, CostPair::proportional(400)); // |300-250|=50 ≤ 400 ≤ 550
        assert!(m.triangle_violations(16).is_empty());
    }

    #[test]
    fn diagonal_triangle_violation_detected() {
        // Version 1 claims full size 1000, but version 0 has size 10 and
        // the delta between them is 5: |10 - 5| <= 1000 ok upper side, but
        // 1000 > 10 + 5 violates.
        let mut m = CostMatrix::undirected(diag(&[10, 1000]));
        m.reveal(0, 1, CostPair::proportional(5));
        let v = m.triangle_violations(16);
        assert!(!v.is_empty());
    }

    #[test]
    fn triple_triangle_violation_detected() {
        let mut m = CostMatrix::undirected(diag(&[100, 100, 100]));
        // 0-1: 10, 1-2: 10, but 0-2: 1000 > 10 + 10.
        m.reveal(0, 1, CostPair::proportional(10));
        m.reveal(1, 2, CostPair::proportional(10));
        m.reveal(0, 2, CostPair::proportional(1000));
        // Need diagonal-consistent values to isolate the triple check:
        // diagonal checks also fire here, so just assert detection.
        assert!(!m.triangle_violations(16).is_empty());
    }

    #[test]
    fn violation_limit_respected() {
        let mut m = CostMatrix::undirected(diag(&[1, 1000, 1000, 1000]));
        for j in 1..4 {
            m.reveal(0, j, CostPair::proportional(1));
        }
        let v = m.triangle_violations(2);
        assert_eq!(v.len(), 2);
    }
}
