//! Recreation: materializing a version from its delta chain or manifest.
//!
//! Walking `Delta` objects back to a `Full` object and replaying them is
//! exactly the recreation process whose cost the paper's `Φ` models. A
//! `Chunked` manifest terminates a walk the same way a `Full` object does:
//! its chunks are fetched and concatenated (each chunk is one store read,
//! so recreation cost stays proportional to the version's own size rather
//! than to a chain's length). The materializer reports the bytes it had to
//! fetch and produce, so measured costs can be compared against the
//! matrix-predicted ones.
//!
//! Repeated checkouts are served through an optional, shared
//! [`CheckoutCache`] — bounded and scored by the paper's workload-aware
//! objective (see [`crate::cache`] for the policy). Two cache behaviors
//! make chain-heavy plans cheap:
//!
//! - **Chain-prefix memoization:** the downward walk stops at the deepest
//!   cached ancestor, so two checkouts sharing a chain prefix pay for the
//!   shared prefix once; every intermediate version replayed on the way
//!   back up is offered to the cache under the same byte budget.
//! - **Chunk sharing:** chunk payloads are cached individually, so
//!   versions that share chunks skip each other's fetches.
//!
//! Because the cache is `Arc`-shared, one cache can serve many
//! materializers (and a whole `Repository`) across calls and threads.
//!
//! A pass over many versions (`optimize`, `fsck`, a commit weighing
//! several delta bases) reads through a [`VersionWalk`] instead: it reads
//! every object the versions' recreation paths need once and keeps the
//! stored form — full roots, delta payloads, manifests and chunks — not
//! the versions. A version is derived when the pass asks for it, by
//! replaying in-memory deltas from the nearest version the walk still
//! holds, and the walk holds only the few versions its traversal of the
//! plan tree will derive from again. Its memory follows the stored bytes
//! of the history, not the logical ones.

use crate::cache::CheckoutCache;
use crate::hash::ObjectId;
use crate::object::{Object, StoreError};
use crate::store::ObjectStore;
use dsv_delta::bytes_delta::{self, DeltaError, Reader, Versions};
use dsv_obs as obs;
use std::collections::HashMap;
use std::sync::Arc;

/// Defensive bound on delta-chain length (cycles cannot occur with
/// content addressing, but corrupt stores could still loop).
const MAX_CHAIN: usize = 100_000;

/// Measured work for one materialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecreationWork {
    /// Number of objects fetched.
    pub objects_fetched: usize,
    /// Bytes of delta/full payloads read.
    pub bytes_read: u64,
    /// Bytes of version content produced (including intermediates).
    pub bytes_written: u64,
    /// Cache lookups that returned bytes (chain nodes and chunks).
    pub cache_hits: usize,
    /// Estimated bytes of reads the cache hits avoided.
    pub bytes_saved: u64,
}

impl RecreationWork {
    /// Accumulates another measurement into this one.
    pub fn add(&mut self, other: RecreationWork) {
        self.objects_fetched += other.objects_fetched;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.cache_hits += other.cache_hits;
        self.bytes_saved += other.bytes_saved;
    }
}

/// Materializes versions from an [`ObjectStore`], optionally serving and
/// feeding a shared [`CheckoutCache`].
pub struct Materializer<'a, S: ObjectStore + ?Sized> {
    store: &'a S,
    cache: Option<Arc<CheckoutCache>>,
}

impl<'a, S: ObjectStore + ?Sized> Materializer<'a, S> {
    /// A materializer with no cache (every checkout replays its chain).
    pub fn new(store: &'a S) -> Self {
        Materializer { store, cache: None }
    }

    /// A materializer serving from (and feeding) `cache`. The cache is
    /// shared: clones of the `Arc` can back other materializers or a
    /// whole repository concurrently.
    pub fn with_checkout_cache(store: &'a S, cache: Arc<CheckoutCache>) -> Self {
        Materializer::with_cache(store, Some(cache))
    }

    /// A materializer reading through `cache` when there is one, and
    /// straight from the store otherwise.
    pub fn with_cache(store: &'a S, cache: Option<Arc<CheckoutCache>>) -> Self {
        Materializer { store, cache }
    }

    /// Reconstructs the version stored under `id`.
    pub fn materialize(&self, id: ObjectId) -> Result<Arc<Vec<u8>>, StoreError> {
        Ok(self.materialize_measured(id)?.0)
    }

    /// Reconstructs the version and reports the work performed (cache hits
    /// cost nothing and are tallied in `cache_hits` / `bytes_saved`).
    pub fn materialize_measured(
        &self,
        id: ObjectId,
    ) -> Result<(Arc<Vec<u8>>, RecreationWork), StoreError> {
        let _span = obs::span!("materialize").entered();
        let mut work = RecreationWork::default();
        // Walk the chain down to a Full object, a chunk manifest, or the
        // deepest cached ancestor (chain-prefix memoization).
        let mut chain: Vec<(ObjectId, Vec<u8>)> = Vec::new(); // (id, delta bytes)
        let mut cur = id;
        // `cost` tracks the estimated cold-store read bytes to recreate
        // the current `base` — the recreation-cost score fed to the cache.
        let (mut base, mut cost): (Arc<Vec<u8>>, u64) = loop {
            if chain.len() > MAX_CHAIN {
                return Err(StoreError::ChainTooLong);
            }
            if let Some(cache) = &self.cache {
                if let Some((hit, saved)) = cache.get(cur) {
                    work.cache_hits += 1;
                    work.bytes_saved += saved;
                    break (hit, saved);
                }
            }
            match self.store.get(cur)? {
                Object::Full { data } => {
                    work.objects_fetched += 1;
                    work.bytes_read += data.len() as u64;
                    let cost = data.len() as u64;
                    let arc = Arc::new(data);
                    if let Some(cache) = &self.cache {
                        cache.offer(cur, &arc, cost);
                    }
                    break (arc, cost);
                }
                Object::Delta { base, delta } => {
                    work.objects_fetched += 1;
                    work.bytes_read += delta.len() as u64;
                    chain.push((cur, delta));
                    cur = base;
                }
                Object::Chunked { chunks } => {
                    work.objects_fetched += 1;
                    work.bytes_read += (chunks.len() * 16) as u64;
                    let data = self.assemble(&chunks, &mut work)?;
                    // Cold recreation reads the manifest plus every chunk.
                    let cost = (chunks.len() * 16) as u64 + data.len() as u64;
                    let arc = Arc::new(data);
                    if let Some(cache) = &self.cache {
                        cache.offer(cur, &arc, cost);
                    }
                    break (arc, cost);
                }
            }
        };
        // Replay deltas top-down; every intermediate version is a cache
        // candidate carrying its cumulative recreation cost.
        for (obj_id, delta) in chain.into_iter().rev() {
            let next = replay(&base, &delta, Vec::new())?;
            work.bytes_written += next.len() as u64;
            cost += delta.len() as u64;
            base = Arc::new(next);
            if let Some(cache) = &self.cache {
                cache.offer(obj_id, &base, cost);
            }
        }
        obs::counter!("materialize.calls", 1);
        obs::counter!("materialize.objects_fetched", work.objects_fetched as u64);
        obs::counter!("materialize.bytes_read", work.bytes_read);
        Ok((base, work))
    }

    /// Reassembles a chunk manifest: fetches each chunk (a `Full` object
    /// holding the chunk bytes) and concatenates them in manifest order.
    /// Chunk payloads are individually cacheable, so shared chunks are
    /// fetched once across versions.
    fn assemble(
        &self,
        chunks: &[ObjectId],
        work: &mut RecreationWork,
    ) -> Result<Vec<u8>, StoreError> {
        let mut out = Vec::new();
        for &cid in chunks {
            if let Some(cache) = &self.cache {
                if let Some((hit, saved)) = cache.get(cid) {
                    work.cache_hits += 1;
                    work.bytes_saved += saved;
                    out.extend_from_slice(&hit);
                    continue;
                }
            }
            match self.store.get(cid)? {
                Object::Full { data } => {
                    work.objects_fetched += 1;
                    work.bytes_read += data.len() as u64;
                    let cost = data.len() as u64;
                    let arc = Arc::new(data);
                    out.extend_from_slice(&arc);
                    if let Some(cache) = &self.cache {
                        cache.offer(cid, &arc, cost);
                    }
                }
                // Chunks are always stored whole: a manifest pointing at a
                // delta or another manifest indicates store corruption.
                _ => return Err(StoreError::Corrupt("manifest chunk is not a full object")),
            }
        }
        work.bytes_written += out.len() as u64;
        Ok(out)
    }
}

/// Replays one stored delta on the version it is based on, into `out`'s
/// buffer: the step every recreation repeats, a checkout's and a
/// [`VersionWalk`]'s alike.
fn replay(base: &[u8], delta: &[u8], mut out: Vec<u8>) -> Result<Vec<u8>, StoreError> {
    match bytes_delta::apply_encoded_into(base, delta, &mut out) {
        Ok(()) => Ok(out),
        Err(DeltaError::Malformed) => Err(StoreError::Corrupt("undecodable delta")),
        Err(DeltaError::CopyOutOfRange) => {
            Err(StoreError::Corrupt("delta does not apply to its base"))
        }
    }
}

/// Keeps the buffer of a version nobody else holds as `spare`, for the
/// next replay to write into.
fn recycle(version: Derived, spare: &mut Vec<u8>) {
    if let Ok(Ok(buffer)) = version.map(Arc::try_unwrap) {
        if buffer.capacity() > spare.capacity() {
            *spare = buffer;
        }
    }
}

/// An object as a [`VersionWalk`] keeps it.
enum Stored {
    /// A materialized version; deriving it shares these bytes.
    Full(Arc<Vec<u8>>),
    /// A manifest: positions in the walk's chunk table, in order.
    Chunked(Vec<usize>),
    /// A delta payload; the version it applies to is the node's parent.
    Delta(Vec<u8>),
    /// The object could not be read (or a manifest's chunk could not).
    Unreadable(StoreError),
}

/// A version the walk derived, or why it could not.
type Derived = Result<Arc<Vec<u8>>, StoreError>;

/// The stored form of many versions, each object read once: the pass
/// over a whole history (or a commit's several delta bases) in memory
/// that follows the stored bytes.
///
/// [`VersionWalk::load`] reads every object on the versions' recreation
/// paths — and every chunk of a manifest among them — once, and keeps the
/// payloads. The objects form the *plan tree*: a delta's parent is its
/// base. A version is derived by replaying deltas down the tree from the
/// nearest version the walk holds (or a root), and what the walk holds is
/// chosen by its traversal, not by a byte budget:
///
/// - [`VersionWalk::each`] derives every version once, in plan-tree order,
///   holding only the versions that still have children to derive —
///   lightest subtree first, so that a chain holds one version and any
///   tree at most a logarithmic number.
/// - As a [`Versions`] source (the reveal and the packer of `optimize`)
///   each worker's [`WalkReader`] derives a run's versions the same way,
///   from the run's source and the two versions it kept at the end of its
///   last run: that run's source and the deepest common ancestor of its
///   versions.
///
/// An object that cannot be read is recorded, not returned:
/// [`each`](VersionWalk::each) hands every version above it that error,
/// as a checkout of the version would report it. A [`Versions`] reader
/// expects every version to derive, so a pass reads through `each` first.
pub struct VersionWalk {
    ids: Vec<ObjectId>,
    stored: Vec<Stored>,
    /// Plan-tree parent (the delta's base) of every object.
    parent: Vec<Option<usize>>,
    /// Delta children of every object, lightest subtree first.
    children: Vec<Vec<usize>>,
    /// Position of every object in the plan tree's depth-first order
    /// (`usize::MAX` for one no root reaches: a cycle).
    rank: Vec<usize>,
    depth: Vec<usize>,
    /// The root of every object's tree (`usize::MAX` in a cycle).
    tree: Vec<usize>,
    chunks: Vec<Result<Vec<u8>, StoreError>>,
    chunk_ids: Vec<ObjectId>,
    /// The object of every version.
    versions: Vec<usize>,
}

impl VersionWalk {
    /// Reads the objects the versions stored as `ids` need, each once: the
    /// versions' own objects, their delta chains and the chunks of their
    /// manifests. Version `v` of the walk is `ids[v]`.
    pub fn load<S: ObjectStore + ?Sized>(store: &S, ids: &[ObjectId]) -> VersionWalk {
        let _span = obs::span!("walk.load", versions = ids.len()).entered();
        let mut walk = VersionWalk {
            ids: Vec::new(),
            stored: Vec::new(),
            parent: Vec::new(),
            children: Vec::new(),
            rank: Vec::new(),
            depth: Vec::new(),
            tree: Vec::new(),
            chunks: Vec::new(),
            chunk_ids: Vec::new(),
            versions: Vec::with_capacity(ids.len()),
        };
        let mut nodes: HashMap<ObjectId, usize> = HashMap::new();
        let mut chunk_at: HashMap<ObjectId, usize> = HashMap::new();
        let mut bases: Vec<Option<ObjectId>> = Vec::new();
        for &id in ids {
            let mut cur = id;
            while !nodes.contains_key(&cur) {
                nodes.insert(cur, walk.ids.len());
                walk.ids.push(cur);
                let (stored, base) = match store.get(cur) {
                    Ok(Object::Full { data }) => (Stored::Full(Arc::new(data)), None),
                    Ok(Object::Delta { base, delta }) => (Stored::Delta(delta), Some(base)),
                    Ok(Object::Chunked { chunks }) => {
                        (walk.load_chunks(store, &chunks, &mut chunk_at), None)
                    }
                    Err(e) => (Stored::Unreadable(e), None),
                };
                walk.stored.push(stored);
                bases.push(base);
                match base {
                    Some(base) => cur = base,
                    None => break,
                }
            }
            walk.versions.push(nodes[&id]);
        }
        walk.parent = bases.iter().map(|b| b.map(|id| nodes[&id])).collect();
        walk.shape();
        walk
    }

    /// A manifest's chunks, each read the first time any manifest names
    /// it; the first that cannot be read makes the manifest unreadable.
    fn load_chunks<S: ObjectStore + ?Sized>(
        &mut self,
        store: &S,
        chunks: &[ObjectId],
        chunk_at: &mut HashMap<ObjectId, usize>,
    ) -> Stored {
        let mut at = Vec::with_capacity(chunks.len());
        for &cid in chunks {
            let slot = *chunk_at.entry(cid).or_insert_with(|| {
                self.chunk_ids.push(cid);
                self.chunks.push(match store.get(cid) {
                    Ok(Object::Full { data }) => Ok(data),
                    // Chunks are always stored whole: a manifest pointing
                    // at a delta or another manifest is store corruption.
                    Ok(_) => Err(StoreError::Corrupt("manifest chunk is not a full object")),
                    Err(e) => Err(e),
                });
                self.chunks.len() - 1
            });
            if let Err(e) = &self.chunks[slot] {
                return Stored::Unreadable(e.clone());
            }
            at.push(slot);
        }
        Stored::Chunked(at)
    }

    /// Children, depths and the depth-first ranks of the plan tree.
    fn shape(&mut self) {
        let n = self.ids.len();
        self.children = vec![Vec::new(); n];
        for (node, parent) in self.parent.iter().enumerate() {
            if let Some(p) = parent {
                self.children[*p].push(node);
            }
        }
        // Subtree sizes, children before parents: reverse preorder.
        let roots: Vec<usize> = (0..n).filter(|&v| self.parent[v].is_none()).collect();
        let mut preorder = Vec::with_capacity(n);
        let mut stack = roots.clone();
        while let Some(v) = stack.pop() {
            preorder.push(v);
            stack.extend(&self.children[v]);
        }
        let mut size = vec![1usize; n];
        for &v in preorder.iter().rev() {
            if let Some(p) = self.parent[v] {
                size[p] += size[v];
            }
        }
        for kids in &mut self.children {
            kids.sort_by_key(|&c| (size[c], c));
        }
        self.rank = vec![usize::MAX; n];
        self.depth = vec![0; n];
        self.tree = vec![usize::MAX; n];
        let mut next = 0;
        let mut stack: Vec<usize> = roots.into_iter().rev().collect();
        while let Some(v) = stack.pop() {
            self.rank[v] = next;
            next += 1;
            (self.depth[v], self.tree[v]) = match self.parent[v] {
                Some(p) => (self.depth[p] + 1, self.tree[p]),
                None => (0, v),
            };
            stack.extend(self.children[v].iter().rev());
        }
    }

    /// The versions' objects, and the chunks of every manifest among
    /// them: what the versions keep alive in the store.
    pub fn referenced(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.versions.iter().flat_map(|&node| {
            let chunks = match &self.stored[node] {
                Stored::Chunked(at) => at.as_slice(),
                _ => &[],
            };
            std::iter::once(self.ids[node]).chain(chunks.iter().map(|&c| self.chunk_ids[c]))
        })
    }

    /// Payload bytes a cold checkout of version `v` fetches: its chain's
    /// deltas and root, a manifest's entries and every chunk it names —
    /// what an uncached [`Materializer`] reports as `bytes_read`.
    pub fn cold_read(&self, v: usize) -> u64 {
        let mut node = Some(self.versions[v]);
        let mut bytes = 0;
        while let Some(at) = node {
            bytes += match &self.stored[at] {
                Stored::Full(data) => data.len() as u64,
                Stored::Delta(delta) => delta.len() as u64,
                Stored::Chunked(chunks) => {
                    chunks.iter().fold(16 * chunks.len() as u64, |sum, &c| {
                        sum + self.chunks[c].as_ref().map_or(0, |d| d.len() as u64)
                    })
                }
                Stored::Unreadable(_) => 0,
            };
            node = self.parent[at];
        }
        bytes
    }

    /// Derives every version once, in plan-tree order, and hands each
    /// to `visit` with its number — or the error a checkout of it would
    /// meet. Versions stored as the same object are handed out together.
    pub fn each(&self, mut visit: impl FnMut(usize, Result<&[u8], &StoreError>)) {
        let mut of_node: Vec<Vec<usize>> = vec![Vec::new(); self.ids.len()];
        for (v, &node) in self.versions.iter().enumerate() {
            of_node[node].push(v);
        }
        let mut marked = vec![false; self.ids.len()];
        for &node in &self.versions {
            self.mark(node, &mut marked, &[]);
        }
        self.derive(&marked, &[], &mut Vec::new(), |node, derived| {
            for &v in &of_node[node] {
                visit(v, derived.as_ref().map(|d| d.as_slice()));
            }
        });
    }

    /// [`each`](Self::each) for a pass that needs every version: hands
    /// each derived version to `visit`, and fails with the first error a
    /// version met.
    pub fn try_each(&self, mut visit: impl FnMut(usize, &[u8])) -> Result<(), StoreError> {
        let mut failed = None;
        self.each(|v, bytes| match bytes {
            Ok(bytes) => visit(v, bytes),
            Err(e) => {
                failed.get_or_insert_with(|| e.clone());
            }
        });
        failed.map_or(Ok(()), Err)
    }

    /// Marks `node` and its ancestors up to (not including) a held one
    /// or a root's parent.
    fn mark(&self, node: usize, marked: &mut [bool], held: &[(usize, &Arc<Vec<u8>>)]) {
        let mut at = Some(node);
        while let Some(v) = at {
            if marked[v] || held.iter().any(|(h, _)| *h == v) {
                return;
            }
            marked[v] = true;
            at = self.parent[v];
        }
    }

    /// Derives every marked object once, depth first and lightest
    /// subtree first, each from its parent: a held version, a root's own
    /// payload, or the marked parent derived just before. A version is
    /// held only while marked children of it remain to be derived, and
    /// the buffer of one let go is what the next replay writes into
    /// (`spare` carries it from one call to the next). Marked objects no
    /// root reaches (a corrupt store's cycle) are handed `ChainTooLong`.
    fn derive(
        &self,
        marked: &[bool],
        held: &[(usize, &Arc<Vec<u8>>)],
        spare: &mut Vec<u8>,
        mut visit: impl FnMut(usize, &Derived),
    ) {
        let mut tops: Vec<usize> = (0..self.ids.len())
            .filter(|&v| marked[v] && self.parent[v].is_none_or(|p| !marked[p]))
            .collect();
        tops.sort_by_key(|&v| self.rank[v]);
        let mut visited = 0;
        let next_marked = |kids: &[usize], from: usize| {
            (from..kids.len())
                .find(|&i| marked[kids[i]])
                .unwrap_or(kids.len())
        };
        for top in tops {
            let derived = match self.parent[top] {
                None => self.root(top),
                Some(p) => match held.iter().find(|(h, _)| *h == p) {
                    Some((_, base)) => self.child(top, base, std::mem::take(spare)),
                    None => Err(StoreError::ChainTooLong),
                },
            };
            visit(top, &derived);
            visited += 1;
            // (object, its version, its next marked child)
            let first = next_marked(&self.children[top], 0);
            let mut stack = vec![(top, derived, first)];
            while let Some(&mut (node, _, i)) = stack.last_mut() {
                let kids = &self.children[node];
                if i == kids.len() {
                    recycle(stack.pop().expect("a frame is on the stack").1, spare);
                    continue;
                }
                let child = kids[i];
                let after = next_marked(kids, i + 1);
                // The last marked child takes its parent's place.
                let base = if after == kids.len() {
                    stack.pop().expect("a frame is on the stack").1
                } else {
                    let frame = stack.last_mut().expect("a frame is on the stack");
                    frame.2 = after;
                    frame.1.clone()
                };
                let derived = match &base {
                    Ok(base) => self.child(child, base, std::mem::take(spare)),
                    Err(e) => Err(e.clone()),
                };
                recycle(base, spare);
                visit(child, &derived);
                visited += 1;
                let first = next_marked(&self.children[child], 0);
                if first < self.children[child].len() {
                    stack.push((child, derived, first));
                } else {
                    recycle(derived, spare);
                }
            }
        }
        if visited < marked.iter().filter(|m| **m).count() {
            for v in (0..self.ids.len()).filter(|&v| marked[v] && self.rank[v] == usize::MAX) {
                visit(v, &Err(StoreError::ChainTooLong));
            }
        }
    }

    /// A root's version: a full object's own bytes, or a manifest's chunks
    /// in order.
    fn root(&self, node: usize) -> Derived {
        match &self.stored[node] {
            Stored::Full(data) => Ok(Arc::clone(data)),
            Stored::Chunked(at) => {
                let mut out = Vec::new();
                for &c in at {
                    out.extend_from_slice(self.chunks[c].as_ref().map_err(Clone::clone)?);
                }
                Ok(Arc::new(out))
            }
            Stored::Unreadable(e) => Err(e.clone()),
            Stored::Delta(_) => Err(StoreError::ChainTooLong),
        }
    }

    /// A delta object's version, replayed on its parent's into `out`.
    fn child(&self, node: usize, base: &[u8], out: Vec<u8>) -> Derived {
        match &self.stored[node] {
            Stored::Delta(delta) => replay(base, delta, out).map(Arc::new),
            _ => unreachable!("only a delta has a parent"),
        }
    }

    /// Derives the objects of `wanted` — those `held` holds are handed
    /// out as they are — and returns the version of `keep`, or of the
    /// nearest object above it that the run holds or derives: what a
    /// reader keeps for its next run.
    fn run(
        &self,
        wanted: &[usize],
        held: &[(usize, &Arc<Vec<u8>>)],
        keep: Option<usize>,
        spare: &mut Vec<u8>,
        mut visit: impl FnMut(usize, &Arc<Vec<u8>>),
    ) -> Option<(usize, Arc<Vec<u8>>)> {
        let is_held = |node: usize| held.iter().find(|(h, _)| *h == node).map(|(_, b)| *b);
        let mut marked = vec![false; self.ids.len()];
        for &node in wanted {
            match is_held(node) {
                Some(bytes) => visit(node, bytes),
                None => self.mark(node, &mut marked, held),
            }
        }
        let mut keep = keep;
        while let Some(node) = keep.filter(|&k| !marked[k] && is_held(k).is_none()) {
            keep = self.parent[node];
        }
        let mut kept = keep.and_then(|k| Some((k, Arc::clone(is_held(k)?))));
        let wanted_set: std::collections::HashSet<usize> = wanted.iter().copied().collect();
        self.derive(&marked, held, spare, |node, derived| {
            let bytes = derived
                .as_ref()
                .expect("a walk's versions derive again once `each` derived them");
            if wanted_set.contains(&node) {
                visit(node, bytes);
            }
            if keep == Some(node) {
                kept = Some((node, Arc::clone(bytes)));
            }
        });
        kept
    }

    /// The deepest object that is an ancestor of (or is) every one of
    /// `nodes` — `None` when they sit in different trees.
    fn common_ancestor(&self, nodes: impl IntoIterator<Item = usize>) -> Option<usize> {
        let mut nodes = nodes.into_iter();
        let mut lca = nodes.next()?;
        for mut v in nodes {
            let mut u = lca;
            while self.depth[u] > self.depth[v] {
                u = self.parent[u]?;
            }
            while self.depth[v] > self.depth[u] {
                v = self.parent[v]?;
            }
            while u != v {
                u = self.parent[u]?;
                v = self.parent[v]?;
            }
            lca = u;
        }
        Some(lca)
    }
}

impl Versions for VersionWalk {
    type Reader<'a> = WalkReader<'a>;

    fn reader(&self) -> WalkReader<'_> {
        WalkReader {
            walk: self,
            kept: Vec::new(),
            spare: Vec::new(),
        }
    }

    fn rank(&self, v: u32) -> usize {
        self.rank[self.versions[v as usize]]
    }
}

/// A version a [`WalkReader`] derived, with the object it is stored as.
pub struct WalkVersion {
    node: usize,
    bytes: Arc<Vec<u8>>,
}

impl std::ops::Deref for WalkVersion {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

impl From<WalkVersion> for Vec<u8> {
    fn from(version: WalkVersion) -> Vec<u8> {
        Arc::try_unwrap(version.bytes).unwrap_or_else(|shared| (*shared).clone())
    }
}

/// One worker's reads from a [`VersionWalk`]. A run derives its versions
/// in plan-tree order from the run's source and from the two versions the
/// last run kept: its source, which the next source in plan-tree order
/// mostly is a child of, and the deepest common ancestor of its
/// versions, which the next run's versions mostly descend from.
/// Everything else it derives is let go as soon as no child of it is left
/// to derive.
pub struct WalkReader<'a> {
    walk: &'a VersionWalk,
    kept: Vec<(usize, Arc<Vec<u8>>)>,
    spare: Vec<u8>,
}

impl Reader for WalkReader<'_> {
    type Source = WalkVersion;

    fn source(&mut self, v: u32) -> WalkVersion {
        let node = self.walk.versions[v as usize];
        let held: Vec<_> = self.kept.iter().map(|(h, bytes)| (*h, bytes)).collect();
        let mut bytes = None;
        self.walk
            .run(&[node], &held, None, &mut self.spare, |_, derived| {
                bytes = Some(Arc::clone(derived))
            });
        WalkVersion {
            node,
            bytes: bytes.expect("the run derives its source"),
        }
    }

    fn targets(
        &mut self,
        source: &WalkVersion,
        targets: &[u32],
        mut visit: impl FnMut(usize, &[u8]),
    ) {
        let walk = self.walk;
        let mut by_node: Vec<(usize, usize)> = targets
            .iter()
            .enumerate()
            .map(|(i, &t)| (walk.versions[t as usize], i))
            .collect();
        by_node.sort_unstable();
        let nodes = || by_node.iter().map(|&(node, _)| node);
        let keep = walk.common_ancestor(
            std::iter::once(source.node)
                .chain(nodes())
                .filter(|&node| walk.tree[node] == walk.tree[source.node]),
        );
        let mut wanted: Vec<usize> = nodes().collect();
        wanted.dedup();
        let mut held: Vec<_> = self.kept.iter().map(|(h, bytes)| (*h, bytes)).collect();
        held.push((source.node, &source.bytes));
        let kept = walk.run(&wanted, &held, keep, &mut self.spare, |node, derived| {
            let from = by_node.partition_point(|&(n, _)| n < node);
            for &(_, i) in by_node[from..].iter().take_while(|&&(n, _)| n == node) {
                visit(i, derived);
            }
        });
        self.kept = kept
            .into_iter()
            .filter(|&(node, _)| node != source.node)
            .chain([(source.node, Arc::clone(&source.bytes))])
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    /// Stores v0 fully and v1..=k as a delta chain; returns ids and the
    /// expected contents.
    fn chain_fixture(store: &MemStore, k: usize) -> (Vec<ObjectId>, Vec<Vec<u8>>) {
        let mut contents = vec![b"base version 0\n".repeat(50)];
        for i in 1..=k {
            let mut next = contents[i - 1].clone();
            next.extend_from_slice(format!("appended line {i}\n").as_bytes());
            contents.push(next);
        }
        let mut ids = Vec::new();
        let full_id = store
            .put(&Object::Full {
                data: contents[0].clone(),
            })
            .unwrap();
        ids.push(full_id);
        for i in 1..=k {
            let ops = bytes_delta::diff(&contents[i - 1], &contents[i]);
            let obj = Object::Delta {
                base: ids[i - 1],
                delta: bytes_delta::encode(&ops),
            };
            ids.push(store.put(&obj).unwrap());
        }
        (ids, contents)
    }

    fn cached<S: ObjectStore + ?Sized>(store: &S, budget: u64) -> Materializer<'_, S> {
        Materializer::with_checkout_cache(store, Arc::new(CheckoutCache::new(budget)))
    }

    #[test]
    fn materializes_full_object() {
        let store = MemStore::new(false);
        let (ids, contents) = chain_fixture(&store, 0);
        let m = Materializer::new(&store);
        assert_eq!(*m.materialize(ids[0]).unwrap(), contents[0]);
    }

    #[test]
    fn materializes_deep_chain() {
        let store = MemStore::new(false);
        let (ids, contents) = chain_fixture(&store, 20);
        let m = Materializer::new(&store);
        for (id, expected) in ids.iter().zip(&contents) {
            assert_eq!(&*m.materialize(*id).unwrap(), expected);
        }
    }

    #[test]
    fn work_accounting_scales_with_depth() {
        let store = MemStore::new(false);
        let (ids, _) = chain_fixture(&store, 10);
        let m = Materializer::new(&store);
        let (_, w0) = m.materialize_measured(ids[0]).unwrap();
        let (_, w10) = m.materialize_measured(ids[10]).unwrap();
        assert_eq!(w0.objects_fetched, 1);
        assert_eq!(w10.objects_fetched, 11);
        assert!(w10.bytes_written > 0);
        assert_eq!(w10.cache_hits, 0);
        assert_eq!(w10.bytes_saved, 0);
    }

    #[test]
    fn cache_eliminates_repeat_work() {
        let store = MemStore::new(false);
        let (ids, _) = chain_fixture(&store, 10);
        let m = cached(&store, 1 << 20);
        let (_, first) = m.materialize_measured(ids[10]).unwrap();
        assert_eq!(first.objects_fetched, 11);
        let (_, second) = m.materialize_measured(ids[10]).unwrap();
        assert_eq!(second.objects_fetched, 0, "fully cached");
        assert_eq!(second.cache_hits, 1);
        assert!(second.bytes_saved >= first.bytes_read);
        // A sibling sharing the prefix only fetches its own delta.
        let (_, w9) = m.materialize_measured(ids[9]).unwrap();
        assert_eq!(w9.objects_fetched, 0, "prefix was cached during replay");
    }

    #[test]
    fn walk_stops_at_deepest_cached_ancestor() {
        let store = MemStore::new(false);
        let (ids, _) = chain_fixture(&store, 10);
        let m = cached(&store, 1 << 20);
        // Warm the prefix 0..=6 only.
        let (_, warm) = m.materialize_measured(ids[6]).unwrap();
        assert_eq!(warm.objects_fetched, 7);
        // A deeper checkout reads only its 4 unshared deltas.
        let (_, deep) = m.materialize_measured(ids[10]).unwrap();
        assert_eq!(deep.objects_fetched, 4, "prefix served from cache");
        assert_eq!(deep.cache_hits, 1, "one hit at the deepest ancestor");
        assert!(deep.bytes_saved >= warm.bytes_read);
        assert!(deep.bytes_read < warm.bytes_read + 4 * 64);
    }

    #[test]
    fn zero_budget_cache_is_equivalent_to_uncached() {
        let store = MemStore::new(false);
        let (ids, contents) = chain_fixture(&store, 8);
        let uncached = Materializer::new(&store);
        let zero = cached(&store, 0);
        for (id, expected) in ids.iter().zip(&contents) {
            let (a, wa) = uncached.materialize_measured(*id).unwrap();
            let (b, wb) = zero.materialize_measured(*id).unwrap();
            assert_eq!(*a, *expected);
            assert_eq!(*a, *b);
            assert_eq!(wa, wb, "zero budget must not change measured work");
        }
    }

    #[test]
    fn missing_base_is_reported() {
        let store = MemStore::new(false);
        let dangling = Object::Delta {
            base: ObjectId::for_bytes(b"never stored"),
            delta: bytes_delta::encode(&bytes_delta::diff(b"a", b"b")),
        };
        let id = store.put(&dangling).unwrap();
        let m = Materializer::new(&store);
        assert!(matches!(
            m.materialize(id).unwrap_err(),
            StoreError::NotFound(_)
        ));
    }

    /// A tree of versions: a main line of `n` edits with a side branch
    /// off every fifth version, each an edit of its parent.
    fn tree_fixture(n: usize) -> (Vec<Vec<u8>>, Vec<Option<u32>>) {
        let base = (0..300).flat_map(|i| format!("{i},base-{}\n", i * 7).into_bytes());
        let mut contents = vec![base.collect::<Vec<u8>>()];
        let mut plan = vec![None];
        for v in 1..n as u32 {
            let parent = if v % 5 == 0 { v - 3 } else { v - 1 };
            let mut next = contents[parent as usize].clone();
            let at = (v as usize * 97) % next.len();
            next.splice(at..at, format!("edit {v}\n").bytes());
            contents.push(next);
            plan.push(Some(parent));
        }
        (contents, plan)
    }

    #[test]
    fn a_walk_reads_each_object_once_and_derives_every_version() {
        use crate::fault::{FaultPlan, FaultStore};
        let (contents, plan) = tree_fixture(24);
        let sites = FaultPlan::count_sites();
        let store = FaultStore::new(MemStore::new(true), sites.clone());
        let packed = crate::pack_versions(&store, &contents, &plan, Default::default()).unwrap();
        let before = sites.hits() as usize;
        // Every version twice over: the walk reads each object once.
        let ids: Vec<ObjectId> = packed.ids.iter().chain(&packed.ids).copied().collect();
        let walk = VersionWalk::load(&store, &ids);
        let gets = sites.sites()[before..]
            .iter()
            .filter(|s| *s == "store.get")
            .count();
        assert_eq!(gets, contents.len());
        let mut seen = vec![0; ids.len()];
        walk.each(|v, bytes| {
            assert_eq!(
                bytes.unwrap(),
                contents[v % contents.len()].as_slice(),
                "v{v}"
            );
            seen[v] += 1;
        });
        assert!(seen.iter().all(|&n| n == 1));
        let m = Materializer::new(&store);
        for (v, id) in packed.ids.iter().enumerate() {
            let (_, work) = m.materialize_measured(*id).unwrap();
            assert_eq!(walk.cold_read(v), work.bytes_read, "v{v}");
        }
    }

    #[test]
    fn a_walk_is_a_version_source_like_the_versions_themselves() {
        use dsv_delta::bytes_delta::{
            encode_pairs, encode_pairs_from, pair_costs, pair_costs_from,
        };
        let (contents, plan) = tree_fixture(30);
        let store = MemStore::new(false);
        let packed = crate::pack_versions(&store, &contents, &plan, Default::default()).unwrap();
        let walk = VersionWalk::load(&store, &packed.ids);
        let n = contents.len() as u32;
        let pairs: Vec<(u32, u32)> = (0..n)
            .flat_map(|a| (a + 1..n.min(a + 7)).map(move |b| (a, b)))
            .collect();
        let jobs: Vec<(u32, u32)> = pairs.iter().map(|&(a, b)| (b, a)).collect();
        let len = |d: &[u8]| d.len();
        let expected = (
            pair_costs(&contents, &pairs, len),
            encode_pairs(&contents, &jobs),
        );
        for threads in [1, 2, 3] {
            let got = dsv_par::with_thread_count(threads, || {
                (
                    pair_costs_from(&walk, &pairs, len),
                    encode_pairs_from(&walk, &jobs),
                )
            });
            assert!(got == expected, "{threads} threads");
        }
        // Packing from the walk writes the objects packing the versions
        // themselves writes.
        let plan: Vec<Option<u32>> = (0..n).map(|v| v.checked_sub(2)).collect();
        let a = crate::pack_versions(&MemStore::new(true), &contents, &plan, Default::default());
        let b = crate::pack_from(&MemStore::new(true), &walk, &plan);
        assert_eq!(a.unwrap().ids, b.unwrap().ids);
    }

    #[test]
    fn a_walk_reports_what_a_checkout_reports() {
        let store = MemStore::new(false);
        let (ids, _) = chain_fixture(&store, 4);
        let dangling = store
            .put(&Object::Delta {
                base: ObjectId::for_bytes(b"never stored"),
                delta: bytes_delta::encode(&bytes_delta::diff(b"a", b"b")),
            })
            .unwrap();
        let bad_delta = store
            .put(&Object::Delta {
                base: ids[2],
                delta: vec![0xff, 0xff, 0xff],
            })
            .unwrap();
        let above_bad = store
            .put(&Object::Delta {
                base: bad_delta,
                delta: bytes_delta::encode(&bytes_delta::diff(b"x", b"y")),
            })
            .unwrap();
        let missing_chunk = store
            .put(&Object::Chunked {
                chunks: vec![ids[0], ObjectId::for_bytes(b"never stored")],
            })
            .unwrap();
        let chunk_not_full = store
            .put(&Object::Chunked {
                chunks: vec![ids[1]],
            })
            .unwrap();
        let shared_chunks = store_chunked(&store, b"0123456789abcdef0123456789abcdef", 8);
        let all = [
            ids[4],
            dangling,
            above_bad,
            ids[3],
            bad_delta,
            missing_chunk,
            chunk_not_full,
            shared_chunks,
            ObjectId::for_bytes(b"absent"),
        ];
        let walk = VersionWalk::load(&store, &all);
        let m = Materializer::new(&store);
        let mut visited = 0;
        walk.each(|v, got| {
            let want = m.materialize(all[v]);
            assert_eq!(got.map(<[u8]>::to_vec), want.as_deref().cloned(), "v{v}");
            visited += 1;
        });
        assert_eq!(visited, all.len());
        let referenced: std::collections::HashSet<ObjectId> = walk.referenced().collect();
        assert!(referenced.contains(&ids[4]) && referenced.contains(&shared_chunks));
        assert!(
            !referenced.contains(&ids[2]),
            "a base is not a version here"
        );
    }

    /// Stores `data` as chunk objects of `piece` bytes plus a manifest.
    fn store_chunked(store: &MemStore, data: &[u8], piece: usize) -> ObjectId {
        let chunks: Vec<ObjectId> = data
            .chunks(piece)
            .map(|c| store.put(&Object::Full { data: c.to_vec() }).unwrap())
            .collect();
        store.put(&Object::Chunked { chunks }).unwrap()
    }

    #[test]
    fn materializes_chunk_manifest() {
        let store = MemStore::new(false);
        let data = b"0123456789abcdef0123456789abcdef-tail".to_vec();
        let id = store_chunked(&store, &data, 8);
        let m = Materializer::new(&store);
        let (out, work) = m.materialize_measured(id).unwrap();
        assert_eq!(*out, data);
        // Manifest + 5 chunks fetched; reassembly wrote the version once.
        assert_eq!(work.objects_fetched, 1 + 5);
        assert_eq!(work.bytes_written, data.len() as u64);
        assert!(work.bytes_read >= data.len() as u64);
    }

    #[test]
    fn shared_chunks_hit_the_cache_across_versions() {
        let store = MemStore::new(false);
        let base = b"shared-block-one|shared-block-two|".repeat(4);
        let mut edited = base.clone();
        edited.extend_from_slice(b"unique-suffix");
        let id_a = store_chunked(&store, &base, 17);
        let id_b = store_chunked(&store, &edited, 17);
        let m = cached(&store, 1 << 20);
        let (_, first) = m.materialize_measured(id_a).unwrap();
        let (out, second) = m.materialize_measured(id_b).unwrap();
        assert_eq!(*out, edited);
        // Version b shares every aligned chunk with a: only its manifest
        // and its unique tail chunks are fetched.
        assert!(second.objects_fetched < first.objects_fetched);
        assert!(second.cache_hits > 0);
        assert!(second.bytes_saved > 0);
    }

    #[test]
    fn delta_on_top_of_manifest_replays() {
        let store = MemStore::new(false);
        let base = b"line a\nline b\nline c\n".repeat(30);
        let base_id = store_chunked(&store, &base, 64);
        let mut next = base.clone();
        next.extend_from_slice(b"line d appended\n");
        let ops = bytes_delta::diff(&base, &next);
        let delta_id = store
            .put(&Object::Delta {
                base: base_id,
                delta: bytes_delta::encode(&ops),
            })
            .unwrap();
        let m = Materializer::new(&store);
        assert_eq!(*m.materialize(delta_id).unwrap(), next);
    }

    #[test]
    fn manifest_with_missing_chunk_is_reported() {
        let store = MemStore::new(false);
        let id = store
            .put(&Object::Chunked {
                chunks: vec![ObjectId::for_bytes(b"never stored")],
            })
            .unwrap();
        let m = Materializer::new(&store);
        assert!(matches!(
            m.materialize(id).unwrap_err(),
            StoreError::NotFound(_)
        ));
    }

    #[test]
    fn manifest_chunk_must_be_full() {
        let store = MemStore::new(false);
        let full = store
            .put(&Object::Full {
                data: b"base".to_vec(),
            })
            .unwrap();
        let nested = store
            .put(&Object::Delta {
                base: full,
                delta: vec![1, 2, 3],
            })
            .unwrap();
        let id = store
            .put(&Object::Chunked {
                chunks: vec![nested],
            })
            .unwrap();
        let m = Materializer::new(&store);
        assert!(matches!(
            m.materialize(id).unwrap_err(),
            StoreError::Corrupt(_)
        ));
    }

    #[test]
    fn corrupt_delta_is_reported() {
        let store = MemStore::new(false);
        let base_id = store
            .put(&Object::Full {
                data: b"base".to_vec(),
            })
            .unwrap();
        let past_the_base = bytes_delta::encode(&[bytes_delta::DeltaOp::Copy {
            offset: 2,
            len: 100,
        }]);
        for (delta, what) in [
            (vec![0xff, 0xff, 0xff], "undecodable delta"),
            (past_the_base, "delta does not apply to its base"),
        ] {
            let bad = Object::Delta {
                base: base_id,
                delta,
            };
            let id = store.put(&bad).unwrap();
            let m = Materializer::new(&store);
            assert_eq!(m.materialize(id).unwrap_err(), StoreError::Corrupt(what));
        }
    }
}
