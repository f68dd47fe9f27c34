//! The repository: commits, branches, merges, checkout.
//!
//! There is one write path. Every commit — `commit`, `commit_bounded`,
//! `merge`, `commit_online` — is an online placement (the paper's §7
//! decision: reveal a few in-edges, price them ⟨Δ, Φ⟩, take the
//! storage-cheapest feasible one) and they differ only in the candidate
//! set: a plain commit reveals its first parent, an online commit a
//! bounded neighborhood of its parents. `Repository::price` is the one
//! place an edge is priced, for a commit and for `optimize` alike.

use crate::commit::{CommitId, CommitMeta};
use crate::error::VcsError;
use dsv_core::online::{place_version, OnlineCandidate, OnlinePolicy};
use dsv_core::{ChunkerParams, CostPair, SolveError, StorageMode};
use dsv_delta::bytes_delta::SourceIndex;
use dsv_obs as obs;
use dsv_storage::chunk::ChunkStore;
use dsv_storage::{
    stored_len, CheckoutCache, Materializer, MemStore, Object, ObjectId, ObjectStore, Priced,
    RecreationWork,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Byte budget of a job-local memo (see [`Repository::materializer`])
/// and of the repository's recent commits: room for the few dozen
/// versions a pass revisits.
const PASS_MEMO_BYTES: u64 = 4 << 20;

/// How many of its newest commits a repository holds the bytes of (see
/// `Repository::recent`): enough for the heads of the few branches a
/// history interleaves.
const RECENT_COMMITS: usize = 4;

/// How new commits are placed in the store (the offline optimizer can
/// later re-pack the whole history regardless of placement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Greedy: delta off the first parent when that beats materializing
    /// (the paper's online regime).
    GreedyDelta,
    /// Content-defined chunking: every commit becomes a chunk manifest,
    /// deduplicated against all previously stored chunks (the third
    /// regime; see `dsv_storage::chunk`).
    Chunked(ChunkerParams),
}

/// Options for [`Repository::commit_online`] — bounded local re-planning
/// of one new version (the paper's online problem promoted into the VCS).
///
/// Instead of re-packing the whole history (`optimize_with`, the explicit
/// slow path), a commit considers a bounded neighborhood of the new
/// version's parents as delta bases and places the version by the
/// storage-cheapest feasible in-edge ([`place_version`]-style local
/// decision). Commit latency is O(`max_candidates` diffs), never
/// O(repack). A plain [`commit`](Repository::commit) is the one-candidate
/// case: `hops: 0, max_candidates: 1`, i.e. the first parent alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnlineOptions {
    /// How many hops of the (undirected) commit DAG around the parents to
    /// consider as delta bases.
    pub hops: usize,
    /// Cap on the number of candidate bases diffed; with 0 there is no
    /// delta candidate and the version is materialized.
    pub max_candidates: usize,
    /// Recreation budget θ in fetched bytes: candidates whose chain would
    /// exceed it are infeasible (Problem 6 flavor). When even
    /// materializing breaches θ — a version can never be recreated
    /// cheaper than reading itself — the commit degrades to materialized,
    /// matching [`Repository::commit_bounded`].
    pub max_recreation_bytes: Option<u64>,
}

impl OnlineOptions {
    /// The plain commit: the candidate set is {first parent}.
    pub(crate) fn first_parent(max_recreation_bytes: Option<u64>) -> Self {
        OnlineOptions {
            hops: 0,
            max_candidates: 1,
            max_recreation_bytes,
        }
    }
}

impl Default for OnlineOptions {
    fn default() -> Self {
        OnlineOptions {
            hops: 2,
            max_candidates: 8,
            max_recreation_bytes: None,
        }
    }
}

/// A snapshot of a repository's logical state (history, plan, branches)
/// taken by [`Repository::checkpoint`], for rolling back an in-memory
/// mutation whose durable save failed (see the `serve` module): restore
/// it with [`Repository::restore`] and the repository answers requests
/// exactly as before the mutation. Objects the rolled-back mutation
/// already wrote stay in the store as unreferenced orphans — content
/// addressing makes them harmless (a retry converges on the same ids)
/// and `fsck --repair` reclaims them.
pub struct Checkpoint {
    commit_len: usize,
    plan: Vec<StorageMode>,
    objects: Vec<ObjectId>,
    branches: BTreeMap<String, CommitId>,
}

/// A dataset version repository over an object store `S`.
///
/// Commits store one dataset (a byte string) per version. New commits are
/// placed per the repository's [`Placement`] — as a delta from their first
/// parent when that beats materialization, or as deduplicated chunk
/// manifests — and [`Repository::optimize_with`](crate::Repository)
/// re-packs the whole history under one of the paper's problems.
pub struct Repository<S: ObjectStore> {
    pub(crate) store: S,
    pub(crate) commits: Vec<CommitMeta>,
    /// Current storage plan: the per-version [`StorageMode`].
    pub(crate) plan: Vec<StorageMode>,
    /// Object holding each version under the current plan.
    pub(crate) objects: Vec<ObjectId>,
    branches: BTreeMap<String, CommitId>,
    placement: Placement,
    /// Optional bounded cache serving the hot read path (see
    /// [`CheckoutCache`]); shared by every checkout of this repository.
    checkout_cache: Option<Arc<CheckoutCache>>,
    /// The bytes of the newest delta-placed commits, oldest first, keyed
    /// by the object each is stored as: at most [`RECENT_COMMITS`] of
    /// them and [`PASS_MEMO_BYTES`] together (a version larger than that
    /// is not held). The next commit's placement reads its candidates
    /// here before it asks the store, so a commit on a recent head does
    /// not replay the head's chain. Nothing else reads it: a checkout
    /// goes to the store (or the checkout cache), and a θ-budgeted
    /// placement walks the cold chain it must price. A repack,
    /// [`restore`](Self::restore) and a load leave it empty.
    recent: VecDeque<(ObjectId, Vec<u8>)>,
}

impl Repository<MemStore> {
    /// An in-memory repository (uncompressed store).
    pub fn in_memory() -> Self {
        Repository::init(MemStore::new(false))
    }

    /// An in-memory repository with a compressing store (the `Φ ≠ Δ`
    /// regime).
    pub fn in_memory_compressed() -> Self {
        Repository::init(MemStore::new(true))
    }

    /// An in-memory repository storing commits as deduplicated chunk
    /// manifests (compressing store, so chunk payloads also get the
    /// `dsv-compress` treatment).
    pub fn in_memory_chunked() -> Self {
        Repository::init_chunked(MemStore::new(true), ChunkerParams::default())
    }
}

impl<S: ObjectStore> Repository<S> {
    /// Creates an empty repository over `store` with greedy-delta
    /// placement.
    pub fn init(store: S) -> Self {
        Repository::with_placement(store, Placement::GreedyDelta)
    }

    /// Creates an empty repository over `store` whose commits are stored
    /// as content-defined chunk manifests under `params`. Checkout
    /// reassembles manifests transparently; persistence
    /// ([`crate::persist`]) round-trips the placement policy too, so a
    /// reloaded repository keeps chunking new commits.
    pub fn init_chunked(store: S, params: ChunkerParams) -> Self {
        Repository::with_placement(store, Placement::Chunked(params))
    }

    /// Creates an empty repository with an explicit placement policy.
    pub fn with_placement(store: S, placement: Placement) -> Self {
        Repository {
            store,
            commits: Vec::new(),
            plan: Vec::new(),
            objects: Vec::new(),
            branches: BTreeMap::new(),
            placement,
            checkout_cache: None,
            recent: VecDeque::new(),
        }
    }

    /// Enables a bounded checkout cache of `budget_bytes` (replacing any
    /// existing cache) and returns a handle to it, e.g. for
    /// [`CheckoutCache::stats`]. A zero budget is valid and caches
    /// nothing. Checkouts and unbudgeted commits read through the cache;
    /// entries are keyed by content address so they can never serve stale
    /// bytes.
    pub fn enable_checkout_cache(&mut self, budget_bytes: u64) -> Arc<CheckoutCache> {
        let cache = Arc::new(CheckoutCache::new(budget_bytes));
        self.checkout_cache = Some(Arc::clone(&cache));
        cache
    }

    /// The checkout cache, if one is enabled.
    pub fn checkout_cache(&self) -> Option<&Arc<CheckoutCache>> {
        self.checkout_cache.as_ref()
    }

    /// The one way this crate reads versions back: a materializer for a
    /// job that recreates `chains` versions. When their chains can overlap
    /// (`fsck`, a many-candidate reveal, `prepare_repack`) every object
    /// of the union is fetched and decoded once per job instead of once
    /// per version above it: the walk stops at the deepest ancestor the
    /// job has already rebuilt.
    ///
    /// A `cold` job must see the store itself — `fsck` verifies it, a
    /// budgeted placement prices it — so it never touches the shared
    /// checkout cache and starts from an empty job-local memo. The cold
    /// cost of a walk is then `bytes_read + bytes_saved`: what it fetched
    /// plus what the memoized ancestor had cost to fetch, the same sum
    /// whatever the memo holds. Other jobs read through the shared cache
    /// when one is installed and through a memo otherwise. The memo of a
    /// single chain (a checkout, a plain commit) has no room: nothing in
    /// it could be met twice, and every intermediate is freed as the
    /// replay moves past it.
    pub(crate) fn materializer(&self, cold: bool, chains: usize) -> Materializer<'_, S> {
        let cache = match &self.checkout_cache {
            Some(shared) if !cold => Arc::clone(shared),
            _ => Arc::new(CheckoutCache::new(match chains {
                0 | 1 => 0,
                _ => PASS_MEMO_BYTES,
            })),
        };
        Materializer::with_checkout_cache(&self.store, cache)
    }

    /// The price ⟨Δ, Φ⟩ of an edge, as a function of the object it would
    /// be stored as: Δ is what the store will hold for the object —
    /// header, and the payload as the store's codec leaves it — and Φ the
    /// payload bytes a checkout reads. A commit's placement and
    /// `optimize`'s matrix are made of these, so a binary plan's storage
    /// cost is the byte count its pack produces. A `hybrid` instance
    /// keeps Δ = Φ = payload bytes in all three modes until the chunk
    /// estimator prices manifests and chunks the same way.
    ///
    /// Returned as a value that borrows nothing: `optimize` prices on
    /// the dsv-par workers, and a store need not be `Sync`.
    pub(crate) fn price(&self, hybrid: bool) -> impl Fn(Priced, &[u8]) -> CostPair + Sync {
        let compress = self.store.compresses();
        move |kind, payload| {
            let raw = payload.len() as u64;
            CostPair {
                storage: if hybrid {
                    raw
                } else {
                    stored_len(kind, payload, compress)
                },
                recreation: raw,
            }
        }
    }

    /// The placement policy for new commits.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Number of commits.
    pub fn version_count(&self) -> usize {
        self.commits.len()
    }

    /// Commit metadata.
    pub fn meta(&self, id: CommitId) -> Result<&CommitMeta, VcsError> {
        self.commits
            .get(id.index())
            .ok_or(VcsError::UnknownCommit(id.0))
    }

    /// All branch names with their heads.
    pub fn branches(&self) -> impl Iterator<Item = (&str, CommitId)> {
        self.branches.iter().map(|(n, &h)| (n.as_str(), h))
    }

    /// Head of a branch.
    pub fn head(&self, branch: &str) -> Result<CommitId, VcsError> {
        self.branches
            .get(branch)
            .copied()
            .ok_or_else(|| VcsError::UnknownBranch(branch.to_owned()))
    }

    /// Creates a branch pointing at `from`.
    pub fn branch(&mut self, name: &str, from: CommitId) -> Result<(), VcsError> {
        self.meta(from)?;
        if self.branches.contains_key(name) {
            return Err(VcsError::BranchExists(name.to_owned()));
        }
        self.branches.insert(name.to_owned(), from);
        Ok(())
    }

    /// Commits `data` on `branch`. The first commit of the repository
    /// creates the branch implicitly; later commits require it to exist.
    pub fn commit(
        &mut self,
        branch: &str,
        data: &[u8],
        message: &str,
    ) -> Result<CommitId, VcsError> {
        self.commit_bounded(branch, data, message, None)
    }

    /// Like [`commit`](Self::commit), but materializes the new version
    /// whenever storing it as a delta would push its recreation work
    /// (bytes fetched along the chain) above `max_recreation_bytes` — the
    /// online flavour of the paper's Problem 6, applied at commit time so
    /// checkout latency stays bounded between `optimize` runs.
    pub fn commit_bounded(
        &mut self,
        branch: &str,
        data: &[u8],
        message: &str,
        max_recreation_bytes: Option<u64>,
    ) -> Result<CommitId, VcsError> {
        let options = OnlineOptions::first_parent(max_recreation_bytes);
        self.commit_placed(branch, data, message, options, false)
    }

    /// Like [`commit`](Self::commit), but places the new version by
    /// bounded online re-planning (see [`OnlineOptions`]): the best delta
    /// base is chosen from a neighborhood of the parents instead of the
    /// first parent alone, without ever running a full repack. The full
    /// [`optimize_with`](Self::optimize_with) repack remains the explicit
    /// slow path that revisits every placement.
    pub fn commit_online(
        &mut self,
        branch: &str,
        data: &[u8],
        message: &str,
        options: OnlineOptions,
    ) -> Result<CommitId, VcsError> {
        self.commit_placed(branch, data, message, options, true)
    }

    /// Commits `data` on `branch`, placed by `options`. `online` says the
    /// caller asked for an online commit (it is counted as one); the
    /// placement rule is the same either way.
    pub(crate) fn commit_placed(
        &mut self,
        branch: &str,
        data: &[u8],
        message: &str,
        options: OnlineOptions,
        online: bool,
    ) -> Result<CommitId, VcsError> {
        if online {
            obs::counter!("vcs.online_commits", 1);
        }
        let parent = match self.branches.get(branch) {
            Some(&head) => Some(head),
            None if self.commits.is_empty() => None,
            None => return Err(VcsError::UnknownBranch(branch.to_owned())),
        };
        let parents: Vec<CommitId> = parent.into_iter().collect();
        let id = self.record_commit(&parents, data, message, options)?;
        self.branches.insert(branch.to_owned(), id);
        Ok(id)
    }

    /// Records a user-performed merge of `other` into `branch`: `data` is
    /// the merged content the user produced; the commit gets both parents.
    pub fn merge(
        &mut self,
        branch: &str,
        other: CommitId,
        data: &[u8],
        message: &str,
    ) -> Result<CommitId, VcsError> {
        let head = self.head(branch)?;
        self.meta(other)?;
        if head == other {
            return Err(VcsError::DegenerateMerge);
        }
        let options = OnlineOptions::first_parent(None);
        let id = self.record_commit(&[head, other], data, message, options)?;
        self.branches.insert(branch.to_owned(), id);
        Ok(id)
    }

    /// Up to `cap` versions within `hops` undirected steps of `roots` on
    /// the commit DAG, in deterministic BFS order (distance, then parents
    /// before children, then ascending index).
    fn neighborhood(&self, roots: &[CommitId], hops: usize, cap: usize) -> Vec<u32> {
        let n = self.commits.len();
        // Only a walk that leaves the roots needs the child lists.
        let mut children: Vec<Vec<u32>> = Vec::new();
        if hops > 0 {
            children.resize(n, Vec::new());
            for meta in &self.commits {
                for &p in &meta.parents {
                    children[p.index()].push(meta.id.0);
                }
            }
        }
        let mut seen = vec![false; n];
        let mut queue: VecDeque<(u32, usize)> = VecDeque::new();
        let mut out = Vec::new();
        for &r in roots {
            if r.index() < n && !seen[r.index()] {
                seen[r.index()] = true;
                queue.push_back((r.0, 0));
            }
        }
        while let Some((v, d)) = queue.pop_front() {
            if out.len() >= cap {
                break;
            }
            out.push(v);
            if d == hops {
                continue;
            }
            let idx = v as usize;
            let parents = self.commits[idx].parents.iter().map(|p| p.0);
            for u in parents.chain(children[idx].iter().copied()) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    queue.push_back((u, d + 1));
                }
            }
        }
        out
    }

    /// Online placement of `data` — the placement of every commit: diff
    /// against a bounded neighborhood of the parents and pick the
    /// storage-cheapest feasible in-edge via the paper's online rule
    /// ([`place_version`]). Runs under an `online` span with
    /// `reveal`/`place` children and — by construction — no `pack` or `gc`
    /// phase.
    fn online_placement(
        &self,
        parents: &[CommitId],
        data: &[u8],
        options: OnlineOptions,
    ) -> Result<(Object, StorageMode), VcsError> {
        let _span = obs::span!(
            "online",
            hops = options.hops,
            max_candidates = options.max_candidates
        )
        .entered();
        let materialized = || Object::Full {
            data: data.to_vec(),
        };
        if parents.is_empty() {
            return Ok((materialized(), StorageMode::Materialized));
        }
        let neighborhood = self.neighborhood(parents, options.hops, options.max_candidates);
        let reveal = obs::span!("reveal", candidates = neighborhood.len()).entered();
        let mut candidates = Vec::with_capacity(neighborhood.len());
        let mut encodings = BTreeMap::new();
        // A recent commit's bytes are at hand; the rest come from one
        // pass over the union of the candidates' chains. Only a θ reads
        // `base_recreation`, and it must be the cold cost, so a budgeted
        // placement walks every chain.
        let budgeted = options.max_recreation_bytes.is_some();
        let m = self.materializer(budgeted, neighborhood.len());
        let price = self.price(false);
        for &u in &neighborhood {
            let id = self.objects[u as usize];
            let fetched;
            let (base, base_recreation) = match self.recent_bytes(id).filter(|_| !budgeted) {
                Some(held) => (held, 0),
                None => {
                    let (bytes, work) = m.materialize_measured(id)?;
                    fetched = bytes;
                    let cold = work.bytes_read + work.bytes_saved;
                    (fetched.as_slice(), if budgeted { cold } else { 0 })
                }
            };
            let encoded = SourceIndex::new(base).diff_encoded(data);
            candidates.push(OnlineCandidate {
                base: u,
                cost: price(Priced::Delta, &encoded),
                base_recreation,
            });
            encodings.insert(u, encoded);
        }
        drop(reveal);
        let _place = obs::span!("place").entered();
        let policy = match options.max_recreation_bytes {
            Some(theta) => OnlinePolicy::MaxRecreationWithin(theta),
            None => OnlinePolicy::MinStorage,
        };
        let placement = match place_version(price(Priced::Full, data), None, &candidates, policy) {
            Ok(p) => p,
            // θ below the version's own size: no placement can recreate
            // the version cheaper than reading it, so degrade to
            // materialized.
            Err(SolveError::RecreationThresholdInfeasible { .. }) => {
                return Ok((materialized(), StorageMode::Materialized));
            }
            Err(e) => return Err(e.into()),
        };
        Ok(match placement.mode {
            StorageMode::Delta(u) => (
                Object::Delta {
                    base: self.objects[u as usize],
                    delta: encodings.remove(&u).expect("winner came from candidates"),
                },
                StorageMode::Delta(u),
            ),
            // `place_version` is offered no chunked estimate here, so the
            // only other outcome is materialization.
            _ => (materialized(), StorageMode::Materialized),
        })
    }

    fn record_commit(
        &mut self,
        parents: &[CommitId],
        data: &[u8],
        message: &str,
        options: OnlineOptions,
    ) -> Result<CommitId, VcsError> {
        let _span = obs::span!("commit", bytes = data.len()).entered();
        obs::counter!("vcs.commits", 1);
        let id = CommitId(self.commits.len() as u32);
        let (oid, mode) = match self.placement {
            // Chunked placement: dedup against every chunk already stored.
            // Recreation cost is the version's own chunks (no chains), so
            // any recreation budget is trivially respected and placement
            // has nothing to decide.
            Placement::Chunked(params) => {
                let chunks = ChunkStore::new(&self.store, params);
                (chunks.put_version(data)?.id, StorageMode::Chunked)
            }
            Placement::GreedyDelta => {
                let (object, mode) = self.online_placement(parents, data, options)?;
                let oid = self.store.put(&object)?;
                self.remember(oid, data);
                (oid, mode)
            }
        };
        self.objects.push(oid);
        self.plan.push(mode);
        self.commits.push(CommitMeta {
            id,
            parents: parents.to_vec(),
            message: message.to_owned(),
            sequence: id.0 as u64,
            size: data.len() as u64,
        });
        Ok(id)
    }

    /// The bytes of the version stored as `id`, if it is one of the
    /// recent commits the repository holds.
    fn recent_bytes(&self, id: ObjectId) -> Option<&[u8]> {
        let (_, data) = self.recent.iter().find(|(held, _)| *held == id)?;
        Some(data)
    }

    /// Holds `data`, just stored as `id`, as the newest recent commit,
    /// letting the oldest go while the memo would pass either bound.
    fn remember(&mut self, id: ObjectId, data: &[u8]) {
        let len = data.len() as u64;
        if len > PASS_MEMO_BYTES {
            return;
        }
        let mut held: u64 = self.recent.iter().map(|(_, d)| d.len() as u64).sum();
        while self.recent.len() >= RECENT_COMMITS || held + len > PASS_MEMO_BYTES {
            let (_, oldest) = self
                .recent
                .pop_front()
                .expect("a memo past a bound holds one");
            held -= oldest.len() as u64;
        }
        self.recent.push_back((id, data.to_vec()));
    }

    /// Forgets the recent commits (a repack re-stores every version, a
    /// restore may drop the newest).
    pub(crate) fn forget_recent(&mut self) {
        self.recent.clear();
    }

    /// Reconstructs the content of a commit (through the checkout cache,
    /// when one is enabled).
    pub fn checkout(&self, id: CommitId) -> Result<Vec<u8>, VcsError> {
        Ok(self.checkout_measured(id)?.0)
    }

    /// Reconstructs the content of a commit and reports the recreation
    /// work performed, including cache interaction (`cache_hits`,
    /// `bytes_saved`).
    pub fn checkout_measured(&self, id: CommitId) -> Result<(Vec<u8>, RecreationWork), VcsError> {
        let (bytes, work) = self.checkout_shared(id)?;
        Ok((unshare(bytes), work))
    }

    /// [`Self::checkout_measured`] with the bytes as the materializer
    /// returns them: on a cache hit, the cache's own entry. For a caller
    /// that only lends them on (the server, to a socket) and so never
    /// needs a copy of its own.
    pub fn checkout_shared(
        &self,
        id: CommitId,
    ) -> Result<(Arc<Vec<u8>>, RecreationWork), VcsError> {
        self.meta(id)?;
        let _span = obs::span!("checkout").entered();
        obs::counter!("vcs.checkouts", 1);
        let m = self.materializer(false, 1);
        Ok(m.materialize_measured(self.objects[id.index()])?)
    }

    /// First-parent history of a branch, newest first.
    pub fn log(&self, branch: &str) -> Result<Vec<&CommitMeta>, VcsError> {
        let mut cur = Some(self.head(branch)?);
        let mut out = Vec::new();
        while let Some(id) = cur {
            let meta = self.meta(id)?;
            out.push(meta);
            cur = meta.parents.first().copied();
        }
        Ok(out)
    }

    /// Physical bytes currently used by the store.
    pub fn storage_bytes(&self) -> u64 {
        self.store.total_bytes()
    }

    /// The underlying object store (e.g. for [`ObjectStore::stats`];
    /// writes go through the repository methods).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Total raw bytes across all committed versions — the numerator of
    /// the store's dedup/delta ratio (`logical_bytes / storage_bytes`).
    pub fn logical_bytes(&self) -> u64 {
        self.commits.iter().map(|m| m.size).sum()
    }

    /// The current storage plan (per-version storage modes).
    pub fn current_plan(&self) -> &[StorageMode] {
        &self.plan
    }

    /// The object currently holding a commit's content.
    pub fn object_id(&self, id: CommitId) -> dsv_storage::ObjectId {
        self.objects[id.index()]
    }

    /// Snapshots the logical state (commit count, plan, objects,
    /// branches) so a failed durable save can be undone with
    /// [`restore`](Self::restore). Commits are append-only, so the
    /// snapshot records only their count; plan, objects, and branches
    /// are cloned (cheap: ids and head pointers, not content).
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            commit_len: self.commits.len(),
            plan: self.plan.clone(),
            objects: self.objects.clone(),
            branches: self.branches.clone(),
        }
    }

    /// Rolls the in-memory state back to `checkpoint`. The checkout
    /// cache needs no invalidation — entries are keyed by content
    /// address, so they can never serve stale bytes — and orphaned
    /// store objects are left for `fsck --repair` to reclaim.
    pub fn restore(&mut self, checkpoint: Checkpoint) {
        self.commits.truncate(checkpoint.commit_len);
        self.plan = checkpoint.plan;
        self.objects = checkpoint.objects;
        self.branches = checkpoint.branches;
        self.forget_recent();
    }

    /// Reassembles a repository from persisted parts (see
    /// [`crate::persist`]). Validates branch heads and array lengths. The
    /// placement policy persists too, so a reloaded chunked repository
    /// keeps chunking new commits.
    pub fn from_parts(
        store: S,
        commits: Vec<CommitMeta>,
        plan: Vec<StorageMode>,
        objects: Vec<ObjectId>,
        branches: Vec<(String, CommitId)>,
        placement: Placement,
    ) -> Result<Self, VcsError> {
        if commits.len() != plan.len() || commits.len() != objects.len() {
            return Err(VcsError::Store(dsv_storage::StoreError::Corrupt(
                "metadata arrays disagree in length",
            )));
        }
        let n = commits.len() as u32;
        let mut map = BTreeMap::new();
        for (name, head) in branches {
            if head.0 >= n {
                return Err(VcsError::UnknownCommit(head.0));
            }
            map.insert(name, head);
        }
        Ok(Repository {
            store,
            commits,
            plan,
            objects,
            branches: map,
            placement,
            checkout_cache: None,
            recent: VecDeque::new(),
        })
    }
}

/// The bytes of a materialized version, without a copy unless a cache
/// holds them too.
pub(crate) fn unshare(bytes: Arc<Vec<u8>>) -> Vec<u8> {
    Arc::try_unwrap(bytes).unwrap_or_else(|shared| (*shared).clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csv(rows: usize, tag: &str) -> Vec<u8> {
        let mut out = b"id,value\n".to_vec();
        for i in 0..rows {
            out.extend_from_slice(format!("{i},{tag}-{}\n", i * 3).as_bytes());
        }
        out
    }

    /// Bytes an uncached walk of `id`'s chain fetches.
    fn cold_read(repo: &Repository<MemStore>, id: CommitId) -> u64 {
        let m = Materializer::new(&repo.store);
        let (_, work) = m.materialize_measured(repo.objects[id.index()]).unwrap();
        work.bytes_read
    }

    #[test]
    fn commit_and_checkout_roundtrip() {
        let mut repo = Repository::in_memory();
        let data = csv(50, "a");
        let v0 = repo.commit("main", &data, "init").unwrap();
        assert_eq!(repo.checkout(v0).unwrap(), data);
        assert_eq!(repo.version_count(), 1);
    }

    #[test]
    fn chained_commits_store_deltas() {
        let mut repo = Repository::in_memory();
        let base = csv(500, "a");
        repo.commit("main", &base, "init").unwrap();
        let mut v1 = base.clone();
        v1.extend_from_slice(b"500,extra\n");
        let id1 = repo.commit("main", &v1, "append").unwrap();
        // Second commit must be stored as a delta.
        assert_eq!(repo.current_plan()[1], StorageMode::Delta(0));
        assert_eq!(repo.checkout(id1).unwrap(), v1);
        // Store footprint far below two full copies.
        assert!(repo.storage_bytes() < 2 * base.len() as u64);
    }

    #[test]
    fn unrelated_content_materializes() {
        let mut repo = Repository::in_memory();
        repo.commit("main", &csv(50, "a"), "init").unwrap();
        // Totally different content: delta would be larger than full.
        let noise: Vec<u8> = (0..5000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        repo.commit("main", &noise, "binary blob").unwrap();
        assert_eq!(repo.current_plan()[1], StorageMode::Materialized);
    }

    #[test]
    fn branches_and_merge() {
        let mut repo = Repository::in_memory();
        let v0 = repo.commit("main", &csv(100, "base"), "init").unwrap();
        repo.branch("team1", v0).unwrap();
        repo.branch("team2", v0).unwrap();
        let a = repo
            .commit("team1", &csv(101, "base"), "team1 row")
            .unwrap();
        let b = repo
            .commit("team2", &csv(100, "edit"), "team2 edit")
            .unwrap();
        let merged = repo
            .merge("team1", b, &csv(101, "edit"), "merge team2")
            .unwrap();
        let meta = repo.meta(merged).unwrap();
        assert!(meta.is_merge());
        assert_eq!(meta.parents, vec![a, b]);
        assert_eq!(repo.checkout(merged).unwrap(), csv(101, "edit"));
    }

    #[test]
    fn log_walks_first_parents() {
        let mut repo = Repository::in_memory();
        let v0 = repo.commit("main", &csv(10, "a"), "one").unwrap();
        let v1 = repo.commit("main", &csv(11, "a"), "two").unwrap();
        let v2 = repo.commit("main", &csv(12, "a"), "three").unwrap();
        let log = repo.log("main").unwrap();
        let ids: Vec<CommitId> = log.iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![v2, v1, v0]);
        assert_eq!(log[0].message, "three");
    }

    #[test]
    fn branch_errors() {
        let mut repo = Repository::in_memory();
        let v0 = repo.commit("main", &csv(5, "x"), "init").unwrap();
        assert!(matches!(
            repo.commit("ghost", b"data", "no such branch"),
            Err(VcsError::UnknownBranch(_))
        ));
        repo.branch("dev", v0).unwrap();
        assert!(matches!(
            repo.branch("dev", v0),
            Err(VcsError::BranchExists(_))
        ));
        assert!(matches!(
            repo.branch("dev2", CommitId(99)),
            Err(VcsError::UnknownCommit(99))
        ));
    }

    #[test]
    fn degenerate_merge_rejected() {
        let mut repo = Repository::in_memory();
        let v0 = repo.commit("main", &csv(5, "x"), "init").unwrap();
        assert!(matches!(
            repo.merge("main", v0, b"data", "self merge"),
            Err(VcsError::DegenerateMerge)
        ));
    }

    #[test]
    fn bounded_commit_caps_chain_depth() {
        // A long series of appends: unbounded commits chain forever;
        // bounded commits rematerialize once the chain's fetch bytes
        // would exceed θ.
        let base = csv(400, "x");
        // Budget: the base plus a few hundred delta bytes.
        let theta = base.len() as u64 + 400;
        let mut unbounded = Repository::in_memory();
        let mut bounded = Repository::in_memory();
        let mut data = base.clone();
        unbounded.commit("main", &data, "v0").unwrap();
        bounded
            .commit_bounded("main", &data, "v0", Some(theta))
            .unwrap();
        for i in 0..30 {
            data.extend_from_slice(
                format!(
                    "{},appended-payload-row-number-{i}-padding-padding\n",
                    400 + i
                )
                .as_bytes(),
            );
            unbounded.commit("main", &data, "grow").unwrap();
            bounded
                .commit_bounded("main", &data, "grow", Some(theta))
                .unwrap();
        }
        // Unbounded: a single materialized root.
        assert_eq!(
            unbounded
                .current_plan()
                .iter()
                .filter(|p| p.is_root())
                .count(),
            1
        );
        // Bounded: several materializations, and every checkout within θ
        // (or the version's own size, for versions that outgrew θ and must
        // be fetched whole).
        let materialized = bounded
            .current_plan()
            .iter()
            .filter(|p| p.is_root())
            .count();
        assert!(materialized > 1, "budget must force rematerialization");
        for v in 0..bounded.version_count() as u32 {
            let work = cold_read(&bounded, CommitId(v));
            let own = bounded.meta(CommitId(v)).unwrap().size;
            assert!(work <= theta.max(own), "v{v}: {work} > {theta}");
            assert_eq!(
                bounded.checkout(CommitId(v)).unwrap().len(),
                unbounded.checkout(CommitId(v)).unwrap().len()
            );
        }
        // The budget costs storage, as the tradeoff demands.
        assert!(bounded.storage_bytes() > unbounded.storage_bytes());
    }

    #[test]
    fn chunked_repo_roundtrips_and_dedups() {
        let mut plain = Repository::in_memory();
        let mut chunked = Repository::init_chunked(MemStore::new(false), ChunkerParams::default());
        assert!(matches!(chunked.placement(), Placement::Chunked(_)));
        // Branchy history over a large shared base: each branch appends
        // its own rows, so content overlaps heavily across versions.
        let base = csv(3000, "base");
        let v0p = plain.commit("main", &base, "init").unwrap();
        let v0c = chunked.commit("main", &base, "init").unwrap();
        assert_eq!(v0p, v0c);
        for team in ["team1", "team2", "team3"] {
            plain.branch(team, v0p).unwrap();
            chunked.branch(team, v0c).unwrap();
            let mut data = base.clone();
            for i in 0..4 {
                data.extend_from_slice(format!("{team}-extra-row-{i}\n").as_bytes());
                let a = plain.commit(team, &data, "grow").unwrap();
                let b = chunked.commit(team, &data, "grow").unwrap();
                assert_eq!(a, b);
            }
        }
        // Chunked placement materializes no delta chains...
        assert!(chunked.current_plan().iter().all(|p| p.is_chunked()));
        // ...but stays far below the all-materialized footprint by
        // deduplicating the shared base across branches.
        let materialized: u64 = (0..chunked.version_count() as u32)
            .map(|v| chunked.meta(CommitId(v)).unwrap().size)
            .sum();
        assert!(
            chunked.storage_bytes() < materialized / 2,
            "{} vs {materialized}",
            chunked.storage_bytes()
        );
        // Checkout reassembles manifests byte-exactly.
        for v in 0..chunked.version_count() as u32 {
            assert_eq!(
                chunked.checkout(CommitId(v)).unwrap(),
                plain.checkout(CommitId(v)).unwrap(),
                "v{v}"
            );
        }
    }

    #[test]
    fn chunked_checkout_cost_is_flat_in_history_length() {
        let mut repo = Repository::in_memory_chunked();
        let mut data = csv(800, "x");
        repo.commit("main", &data, "v0").unwrap();
        for i in 0..25 {
            data.extend_from_slice(format!("{},appended-{i}\n", 800 + i).as_bytes());
            repo.commit("main", &data, "grow").unwrap();
        }
        let m = Materializer::new(&repo.store);
        let (_, early) = m.materialize_measured(repo.objects[1]).unwrap();
        let last = repo.version_count() - 1;
        let (_, late) = m.materialize_measured(repo.objects[last]).unwrap();
        // The 26th version fetches its own chunks, not a 26-step chain:
        // work grows with version size (slightly), never with depth.
        assert!(
            late.bytes_written <= early.bytes_written * 2,
            "late {late:?} vs early {early:?}"
        );
    }

    #[test]
    fn checkout_cache_serves_repeat_checkouts() {
        let mut repo = Repository::in_memory();
        let mut data = csv(400, "x");
        repo.commit("main", &data, "v0").unwrap();
        for i in 0..10 {
            data.extend_from_slice(format!("{},grow\n", 400 + i).as_bytes());
            repo.commit("main", &data, "grow").unwrap();
        }
        let tip = CommitId(repo.version_count() as u32 - 1);
        let (cold_bytes, cold) = repo.checkout_measured(tip).unwrap();
        assert_eq!(cold.cache_hits, 0, "no cache installed yet");
        let cache = repo.enable_checkout_cache(1 << 20);
        let (warm_bytes, first) = repo.checkout_measured(tip).unwrap();
        assert_eq!(warm_bytes, cold_bytes);
        assert_eq!(
            first.bytes_read, cold.bytes_read,
            "first read fills the cache"
        );
        let (again_bytes, again) = repo.checkout_measured(tip).unwrap();
        assert_eq!(again_bytes, cold_bytes);
        assert_eq!(again.bytes_read, 0, "tip served from cache");
        assert!(again.cache_hits > 0);
        assert!(again.bytes_saved >= cold.bytes_read);
        let stats = cache.stats();
        assert!(stats.hits >= 1);
        assert!(stats.bytes <= stats.budget_bytes);
        // A mid-chain version only pays for the suffix past the deepest
        // cached ancestor (the intermediates were cached during replay).
        let (_, mid) = repo.checkout_measured(CommitId(5)).unwrap();
        assert_eq!(mid.bytes_read, 0, "prefix cached during tip replay");
    }

    #[test]
    fn online_commit_picks_better_base_than_first_parent() {
        // Greedy deltas chain off the first parent; online placement may
        // choose any neighbor. Construct a merge whose content equals its
        // *second* parent: greedy stores a (nonempty) delta off the first
        // parent, online finds the near-empty delta off the second.
        let base = csv(300, "base");
        let build = |online: bool| {
            let mut repo = Repository::in_memory();
            let v0 = repo.commit("main", &base, "init").unwrap();
            repo.branch("side", v0).unwrap();
            let mut side = base.clone();
            side.extend_from_slice(&csv(80, "side-only")[9..]); // skip header
            let s = repo.commit("side", &side, "side work").unwrap();
            let mut main = base.clone();
            main.extend_from_slice(b"300,main-extra\n");
            repo.commit("main", &main, "main work").unwrap();
            repo.merge("main", s, &side, "merge: take side").unwrap();
            let mut next = side.clone();
            next.extend_from_slice(b"tail-row\n");
            if online {
                repo.commit_online("main", &next, "after", OnlineOptions::default())
                    .unwrap();
            } else {
                repo.commit("main", &next, "after").unwrap();
            }
            repo
        };
        let greedy = build(false);
        let online = build(true);
        let tip = CommitId(greedy.version_count() as u32 - 1);
        assert_eq!(
            greedy.checkout(tip).unwrap(),
            online.checkout(tip).unwrap(),
            "placement must never change content"
        );
        // Both store the tip as a delta; online's base choice may differ
        // but must never store more than greedy's first-parent delta.
        assert!(matches!(
            online.current_plan()[tip.index()],
            StorageMode::Delta(_)
        ));
        assert!(online.storage_bytes() <= greedy.storage_bytes());
    }

    #[test]
    fn online_commit_respects_recreation_budget() {
        let base = csv(400, "x");
        let theta = base.len() as u64 + 400;
        let mut repo = Repository::in_memory();
        let mut data = base.clone();
        let opts = OnlineOptions {
            max_recreation_bytes: Some(theta),
            ..OnlineOptions::default()
        };
        repo.commit_online("main", &data, "v0", opts).unwrap();
        for i in 0..30 {
            data.extend_from_slice(
                format!("{},appended-payload-row-{i}-padding-padding\n", 400 + i).as_bytes(),
            );
            repo.commit_online("main", &data, "grow", opts).unwrap();
        }
        let materialized = repo.current_plan().iter().filter(|p| p.is_root()).count();
        assert!(materialized > 1, "θ must force rematerialization");
        for v in 0..repo.version_count() as u32 {
            let work = cold_read(&repo, CommitId(v));
            let own = repo.meta(CommitId(v)).unwrap().size;
            assert!(work <= theta.max(own), "v{v}: {work} > {theta}");
        }
    }

    #[test]
    fn online_reveal_fetches_each_chain_object_once() {
        use dsv_storage::fault::{FaultPlan, FaultStore};
        // v0 full ← v1 ← v2 ← v3, then an online commit on top: the 2-hop
        // neighbourhood is {v3, v2, v1}, whose chains are 4 + 3 + 2
        // objects long but only 4 objects together. The reveal is one
        // pass over that union, with or without a θ.
        // The repository's recent commits are forgotten, as a load
        // leaves them, unless `held`.
        let fixture = |held: bool| {
            let sites = FaultPlan::count_sites();
            let mut repo = Repository::init(FaultStore::new(MemStore::new(false), sites.clone()));
            let mut data = csv(300, "base");
            for i in 0..4 {
                data.extend_from_slice(format!("{},grown-row\n", 300 + i).as_bytes());
                repo.commit("main", &data, "grow").unwrap();
            }
            if !held {
                repo.forget_recent();
            }
            data.extend_from_slice(b"999,online-row\n");
            (repo, sites, data)
        };
        let commit_on = |held: bool, max_recreation_bytes: Option<u64>| {
            let (mut repo, sites, data) = fixture(held);
            let before = sites.hits();
            let options = OnlineOptions {
                max_recreation_bytes,
                ..OnlineOptions::default()
            };
            let tip = repo
                .commit_online("main", &data, "online", options)
                .unwrap();
            let gets = sites.sites()[before as usize..]
                .iter()
                .filter(|s| *s == "store.get")
                .count();
            (gets, repo.current_plan()[tip.index()], repo.object_id(tip))
        };
        let commit = |max_recreation_bytes| commit_on(false, max_recreation_bytes);
        // Placement and stored object are the ones commit 8be7713 made
        // with one walk per candidate (nine gets).
        let parent_made = ObjectId::from_hex("e55dacc45b760e4a7833ed9678ef3a86").unwrap();
        assert_eq!(commit(None), (4, StorageMode::Delta(3), parent_made));
        assert_eq!(
            commit(Some(u64::MAX)),
            (4, StorageMode::Delta(3), parent_made)
        );
        // Held, the three candidates are recent commits: the unbudgeted
        // reveal reads none of them, the budgeted one still walks cold.
        assert_eq!(
            commit_on(true, None),
            (0, StorageMode::Delta(3), parent_made)
        );
        assert_eq!(
            commit_on(true, Some(u64::MAX)),
            (4, StorageMode::Delta(3), parent_made)
        );

        // Under a θ the cold cost of a candidate is read off a memoized
        // walk. The oracle prices every candidate with an uncached walk of
        // its own, as the reveal used to; both must place alike at every
        // θ where a candidate turns feasible.
        let (repo, _, data) = fixture(false);
        let tip = CommitId(3);
        let mut candidates = Vec::new();
        let mut objects = BTreeMap::new();
        for u in repo.neighborhood(&[tip], 2, 8) {
            let m = Materializer::new(&repo.store);
            let (base, work) = m.materialize_measured(repo.objects[u as usize]).unwrap();
            let delta = SourceIndex::new(&base).diff_encoded(&data);
            candidates.push(OnlineCandidate {
                base: u,
                cost: CostPair::proportional(delta.len() as u64),
                base_recreation: work.bytes_read,
            });
            let base = repo.objects[u as usize];
            objects.insert(u, Object::Delta { base, delta }.id());
        }
        let own = data.len() as u64;
        let mut thetas = vec![own - 1, own];
        for c in &candidates {
            let chain = c.base_recreation + c.cost.recreation;
            thetas.extend([chain - 1, chain]);
        }
        let mut modes = std::collections::HashSet::new();
        for theta in thetas {
            let expected = match place_version(
                CostPair::proportional(own),
                None,
                &candidates,
                OnlinePolicy::MaxRecreationWithin(theta),
            ) {
                Ok(placement) => placement.mode,
                Err(_) => StorageMode::Materialized,
            };
            let object = match expected {
                StorageMode::Delta(u) => objects[&u],
                _ => Object::full_id(&data),
            };
            assert_eq!(commit(Some(theta)), (4, expected, object), "θ = {theta}");
            modes.insert(expected);
        }
        assert!(modes.len() >= 3, "the sweep must bind: {modes:?}");
    }

    #[test]
    fn online_commit_on_chunked_repo_stays_chunked() {
        let mut repo = Repository::in_memory_chunked();
        let data = csv(500, "x");
        repo.commit_online("main", &data, "v0", OnlineOptions::default())
            .unwrap();
        let mut next = data.clone();
        next.extend_from_slice(b"500,more\n");
        let v1 = repo
            .commit_online("main", &next, "v1", OnlineOptions::default())
            .unwrap();
        assert!(repo.current_plan().iter().all(|p| p.is_chunked()));
        assert_eq!(repo.checkout(v1).unwrap(), next);
    }

    #[test]
    fn neighborhood_is_bounded_and_deterministic() {
        let mut repo = Repository::in_memory();
        let v0 = repo.commit("main", &csv(50, "a"), "v0").unwrap();
        for i in 0..6 {
            repo.commit("main", &csv(51 + i, "a"), "grow").unwrap();
        }
        repo.branch("dev", v0).unwrap();
        repo.commit("dev", &csv(40, "d"), "dev").unwrap();
        let tip = CommitId(6);
        // hops=1 from v6: itself and its parent.
        assert_eq!(repo.neighborhood(&[tip], 1, 8), vec![6, 5]);
        // From v0: parents-before-children ordering, capped.
        assert_eq!(repo.neighborhood(&[v0], 1, 8), vec![0, 1, 7]);
        assert_eq!(repo.neighborhood(&[v0], 2, 2), vec![0, 1]);
        // A cap of zero is no candidate at all, not one.
        assert_eq!(repo.neighborhood(&[v0], 2, 0), Vec::<u32>::new());
    }

    #[test]
    fn compressed_store_is_smaller() {
        // Realistic tabular data repeats categorical values heavily.
        let mut data = b"id,species,origin\n".to_vec();
        for i in 0..800 {
            data.extend_from_slice(
                format!("{i},saccharomyces-cerevisiae,laboratory-strain-collection\n").as_bytes(),
            );
        }
        let build = |mut repo: Repository<MemStore>| {
            repo.commit("main", &data, "init").unwrap();
            repo.storage_bytes()
        };
        let raw = build(Repository::in_memory());
        let compressed = build(Repository::in_memory_compressed());
        // Measured: 46,313 B raw, 24,470 B coded (4.2 bits a byte over 31
        // values; LZ, which matched the repeated strings, made 3,948).
        assert!(compressed * 100 < raw * 55, "{compressed} vs {raw}");
    }
}
