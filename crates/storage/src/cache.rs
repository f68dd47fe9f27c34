//! Bounded, workload-aware checkout cache.
//!
//! The paper's workload-aware objective (§6) weighs each version's
//! recreation cost by its access frequency: the versions worth paying for
//! are the ones that are both *expensive to recreate* and *hot*. The
//! [`CheckoutCache`] applies that objective to the serving read path: it
//! keeps materialized version bytes (and chunk payloads) under a fixed
//! byte budget, and scores every entry by
//!
//! ```text
//! score = decayed_access_frequency × estimated_recreation_bytes / entry_bytes
//! ```
//!
//! — the paper's `frequency × recreation cost` benefit, normalized per
//! cached byte so a byte budget spends itself where it saves the most
//! recreation work (a knapsack density, not a raw benefit). Access
//! frequencies decay exponentially with a half-life measured in cache
//! accesses, so the score tracks a Zipf-shaped workload as its hot set
//! drifts: a version that stops being accessed halves its frequency every
//! [`HALF_LIFE_ACCESSES`] lookups and eventually loses its slot.
//!
//! **Eviction** removes the lowest-scored entry first (ties broken by
//! least-recent touch, then insertion order — deterministic for a given
//! access sequence). **Admission** is scored the same way: a new entry is
//! admitted only if the space it needs can be freed by evicting entries
//! that all score *strictly below* it, so a cold scan cannot flush the
//! hot set — the misbehavior an unbounded memoize-everything cache turns
//! into an OOM, and a plain LRU turns into thrash.
//!
//! The cache is keyed by [`ObjectId`]. Ids are content addresses, so an
//! id determines the bytes it materializes to *forever* — entries can
//! never go stale, even across [`optimize`](../../dsv_vcs) repacks; a
//! repack merely orphans old ids (see [`CheckoutCache::clear`] for
//! reclaiming their budget). Every operation is behind one mutex; hit
//! payloads are shared `Arc`s, so readers never copy cached bytes.
//!
//! Counters (`checkout_cache.hits` / `.misses` / `.evictions` /
//! `.bytes_saved`) are emitted through `dsv-obs`, and a [`CacheStats`]
//! snapshot is available for reports — the benchmark's `serve-read`
//! workload reads its `storage.cache_*` metrics from one.

use crate::hash::ObjectId;
use dsv_obs as obs;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Default byte budget used when callers ask for "a cache" without
/// sizing it (256 MiB) — bounded, unlike the old memoize-everything
/// `HashMap`, so a long-lived process cannot OOM by checking out every
/// version.
pub const DEFAULT_CACHE_BUDGET: u64 = 256 * 1024 * 1024;

/// Number of cache accesses over which a dormant entry's access
/// frequency halves.
pub const HALF_LIFE_ACCESSES: f64 = 512.0;

/// Cumulative counters and current occupancy of a [`CheckoutCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Configured byte budget.
    pub budget_bytes: u64,
    /// Bytes currently cached.
    pub bytes: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Lookups performed (one per chain node consulted during walks).
    pub lookups: u64,
    /// Lookups that returned cached bytes.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries admitted.
    pub admitted: u64,
    /// Offers rejected by the admission score (or an over-budget size).
    pub rejected: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Estimated recreation bytes the hits avoided reading.
    pub bytes_saved: u64,
}

struct Entry {
    data: Arc<Vec<u8>>,
    /// Estimated bytes a cold store would read to recreate this entry
    /// (its chain/manifest fetch cost) — the recreation-cost half of the
    /// score, and what a hit reports as saved.
    cost: u64,
    /// Exponentially decayed access count as of `stamp`.
    freq: f64,
    /// Cache clock at the last touch.
    stamp: u64,
    /// Insertion sequence (deterministic final tie-break).
    seq: u64,
}

impl Entry {
    /// Frequency decayed to the current clock: halves every
    /// [`HALF_LIFE_ACCESSES`] accesses since the last touch.
    fn decayed_freq(&self, now: u64) -> f64 {
        let dt = now.saturating_sub(self.stamp) as f64;
        self.freq * (-dt / HALF_LIFE_ACCESSES * std::f64::consts::LN_2).exp()
    }

    /// The workload-aware score: frequency × recreation cost per byte.
    fn score(&self, now: u64) -> f64 {
        self.decayed_freq(now) * self.cost as f64 / (self.data.len().max(1)) as f64
    }
}

#[derive(Default)]
struct Inner {
    map: HashMap<ObjectId, Entry>,
    bytes: u64,
    /// Advances on every lookup or offer — the decay timebase.
    clock: u64,
    next_seq: u64,
    stats: CacheStats,
}

/// A bounded, byte-budgeted cache of materialized version (and chunk)
/// bytes, scored by the paper's workload-aware objective. See the
/// [module docs](self) for the policy.
pub struct CheckoutCache {
    budget: u64,
    inner: Mutex<Inner>,
}

impl CheckoutCache {
    /// A cache holding at most `budget_bytes` of materialized bytes.
    /// A zero budget is valid and caches nothing (every offer is
    /// rejected), which keeps sweeps over budgets uniform.
    pub fn new(budget_bytes: u64) -> Self {
        CheckoutCache {
            budget: budget_bytes,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Looks up `id`. On a hit returns the cached bytes and the entry's
    /// estimated recreation cost (the bytes the caller did not have to
    /// read), and touches the entry's frequency.
    pub fn get(&self, id: ObjectId) -> Option<(Arc<Vec<u8>>, u64)> {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        inner.stats.lookups += 1;
        let now = inner.clock;
        match inner.map.get_mut(&id) {
            Some(entry) => {
                entry.freq = entry.decayed_freq(now) + 1.0;
                entry.stamp = now;
                let out = (Arc::clone(&entry.data), entry.cost);
                inner.stats.hits += 1;
                inner.stats.bytes_saved += out.1;
                obs::counter!("checkout_cache.hits", 1);
                obs::counter!("checkout_cache.bytes_saved", out.1);
                Some(out)
            }
            None => {
                inner.stats.misses += 1;
                obs::counter!("checkout_cache.misses", 1);
                None
            }
        }
    }

    /// Offers `data` (recreatable for `cost` bytes of reads) for
    /// admission under `id`. Admitted iff it fits after evicting only
    /// entries that score strictly below it; re-offering a cached id
    /// just refreshes its frequency.
    pub fn offer(&self, id: ObjectId, data: &Arc<Vec<u8>>, cost: u64) {
        let size = data.len() as u64;
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let now = inner.clock;
        if let Some(entry) = inner.map.get_mut(&id) {
            entry.freq = entry.decayed_freq(now) + 1.0;
            entry.stamp = now;
            return;
        }
        if size > self.budget {
            inner.stats.rejected += 1;
            return;
        }
        // A fresh entry enters with one access: score = cost density.
        let candidate_score = cost as f64 / (data.len().max(1)) as f64;
        while inner.bytes + size > self.budget {
            let victim = inner
                .map
                .iter()
                .min_by(|(_, a), (_, b)| {
                    a.score(now)
                        .total_cmp(&b.score(now))
                        .then(a.stamp.cmp(&b.stamp))
                        .then(a.seq.cmp(&b.seq))
                })
                .map(|(&vid, v)| (vid, v.score(now)));
            match victim {
                Some((vid, vscore)) if vscore < candidate_score => {
                    let evicted = inner.map.remove(&vid).expect("victim present");
                    inner.bytes -= evicted.data.len() as u64;
                    inner.stats.evictions += 1;
                    obs::counter!("checkout_cache.evictions", 1);
                }
                // Everything left is at least as valuable as the
                // candidate (or the map is empty but the entry still
                // cannot fit): reject the offer.
                _ => {
                    inner.stats.rejected += 1;
                    return;
                }
            }
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.bytes += size;
        inner.stats.admitted += 1;
        inner.map.insert(
            id,
            Entry {
                data: Arc::clone(data),
                cost,
                freq: 1.0,
                stamp: now,
                seq,
            },
        );
    }

    /// Drops every entry (counters survive). Call after a repack orphans
    /// the old plan's object ids, so dead entries stop occupying budget.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.bytes = 0;
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            budget_bytes: self.budget,
            bytes: inner.bytes,
            entries: inner.map.len(),
            ..inner.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(tag: u8, len: usize) -> (ObjectId, Arc<Vec<u8>>) {
        let data = vec![tag; len];
        (ObjectId::for_bytes(&data), Arc::new(data))
    }

    #[test]
    fn zero_budget_caches_nothing() {
        let cache = CheckoutCache::new(0);
        let (id, data) = blob(1, 100);
        cache.offer(id, &data, 1000);
        assert!(cache.get(id).is_none());
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn hit_returns_bytes_and_cost_saved() {
        let cache = CheckoutCache::new(1 << 20);
        let (id, data) = blob(2, 500);
        cache.offer(id, &data, 12345);
        let (hit, saved) = cache.get(id).expect("admitted");
        assert_eq!(*hit, *data);
        assert_eq!(saved, 12345);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.bytes_saved, 12345);
        assert_eq!(stats.bytes, 500);
    }

    #[test]
    fn eviction_removes_lowest_scored_entry() {
        // Budget fits two of the three equally sized entries. The cheap,
        // never-reaccessed entry must go; the expensive and the hot one
        // stay.
        let cache = CheckoutCache::new(200);
        let (cheap, cheap_data) = blob(1, 100);
        let (hot, hot_data) = blob(2, 100);
        let (expensive, expensive_data) = blob(3, 100);
        cache.offer(cheap, &cheap_data, 10);
        cache.offer(hot, &hot_data, 100);
        for _ in 0..50 {
            cache.get(hot).expect("hot entry cached");
        }
        cache.offer(expensive, &expensive_data, 100_000);
        assert!(cache.get(cheap).is_none(), "cheap entry evicted");
        assert!(cache.get(hot).is_some(), "hot entry survives");
        assert!(cache.get(expensive).is_some(), "expensive entry admitted");
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.stats().bytes <= 200);
    }

    #[test]
    fn cold_scan_cannot_flush_hot_entries() {
        // One hot, expensive entry fills most of the budget; a stream of
        // cold one-shot offers with lower scores must all be rejected.
        let cache = CheckoutCache::new(150);
        let (hot, hot_data) = blob(7, 100);
        cache.offer(hot, &hot_data, 50_000);
        for _ in 0..20 {
            cache.get(hot).unwrap();
        }
        for tag in 10..30u8 {
            let (id, data) = blob(tag, 100);
            cache.offer(id, &data, 100); // score far below the hot entry's
            assert!(cache.get(hot).is_some(), "hot entry flushed by scan");
        }
        assert!(cache.stats().rejected >= 20);
    }

    #[test]
    fn frequency_decays_toward_eviction() {
        let cache = CheckoutCache::new(100);
        let (old, old_data) = blob(1, 100);
        cache.offer(old, &old_data, 100);
        for _ in 0..4 {
            cache.get(old).unwrap();
        }
        // Thousands of accesses elsewhere decay `old` far below a fresh
        // offer of identical cost density, so the newcomer displaces it.
        let (other, other_data) = blob(2, 200); // over budget: never admitted
        for _ in 0..4000 {
            cache.offer(other, &other_data, 1);
        }
        let (new, new_data) = blob(3, 100);
        cache.offer(new, &new_data, 100);
        assert!(
            cache.get(new).is_some(),
            "decayed entry must yield its slot"
        );
        assert!(cache.get(old).is_none());
    }

    #[test]
    fn oversized_entry_rejected_outright() {
        let cache = CheckoutCache::new(50);
        let (id, data) = blob(1, 100);
        cache.offer(id, &data, u64::MAX);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().rejected, 1);
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let cache = CheckoutCache::new(1 << 20);
        let (id, data) = blob(1, 100);
        cache.offer(id, &data, 10);
        cache.get(id).unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().bytes, 0);
        assert_eq!(cache.stats().hits, 1, "counters survive clear");
        assert!(cache.get(id).is_none());
    }

    #[test]
    fn reoffer_refreshes_instead_of_duplicating() {
        let cache = CheckoutCache::new(1000);
        let (id, data) = blob(1, 100);
        cache.offer(id, &data, 10);
        cache.offer(id, &data, 10);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, 100);
        assert_eq!(stats.admitted, 1);
    }
}
