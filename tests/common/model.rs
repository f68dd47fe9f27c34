//! The model-based harness: one reference model, one seeded stream of
//! operations and one set of invariants, run through the single request
//! path — `Dsvd::handle` in this process, a `Client` over loopback — on
//! a fixed table of backends ([`CONFIGS`]).
//!
//! - [`Model`] is obviously correct: the bytes of every version, their
//!   parents, the branch heads.
//! - [`stream`] is a seeded sequence of [`Op`]s in which every
//!   subsequence is valid too: an op's fields are small indices resolved
//!   against the model when it runs, an op the model refuses must be
//!   refused, and an arm (`Crash`, `StoreFault`, `Kill`, …) that finds
//!   nothing to cut cuts nothing. That is what lets [`check`] shrink a
//!   failure by dropping one op at a time.
//! - `Run::step` applies one op to a system and to its model, then
//!   checks every invariant (DURABILITY.md, "Testing", lists them).
//! - [`lockstep`] runs a fault-free stream on several configs at once and
//!   holds configs that differ only in layout, transport, cache or
//!   threads to the same answers, object ids and stored bytes.
//!
//! A failure prints the shrunk sequence as a Rust literal; paste it into
//! a test as `model::replay("file", &[...])` to keep it as a regression
//! row.

use super::{fault_lock, Relay, StoreServer, TempDir};
use dsv_core::{ChunkerParams, Problem};
use dsv_net::proto::{FsckSummary, OptimizeSummary, Request, Response};
use dsv_net::{Client, RemoteStore, RetryPolicy, Server, ServerOptions, DEFAULT_MAX_FRAME};
use dsv_net::{WireMode, WireRecovery, WireSolver};
use dsv_obs as obs;
use dsv_storage::fault::{self, FaultPlan, FaultStore};
use dsv_storage::{shard_index, StoreStats};
use dsv_storage::{FileStore, MemStore, Object, ObjectId, ObjectStore, ShardedStore, StoreError};
use dsv_vcs::persist::{self, RepackJournal};
use dsv_vcs::{fsck, CommitId, Dsvd, DsvdConfig, Placement, RepoStore, Repository, VcsError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;
use Op::*;

// ---------------------------------------------------------------------
// operations

/// One step of a stream. Its fields are small indices resolved against
/// the model when it runs, so an op is valid after any prefix. The arms
/// (`Crash` … `Kill`) act on the op after them.
#[rustfmt::skip]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Commit an edit of `BRANCHES[branch]`'s head.
    Commit { branch: u8, edit: u8 },
    /// The same, placed online over `hops` hops under `THETAS[theta]`.
    Online { branch: u8, edit: u8, hops: u8, theta: u8 },
    /// A commit sent twice under one token, every connection cut between.
    Retry { branch: u8, edit: u8 },
    Branch { name: u8, from: u8 },
    /// Merge version `other` into `BRANCHES[branch]`.
    Merge { branch: u8, other: u8, edit: u8 },
    Checkout { version: u8 },
    /// P`problem + 1`, its bound scaled by `bound`, in mode auto / binary /
    /// hybrid, with the Table-1 solver (0) or `SOLVERS[solver - 1]`.
    Optimize { problem: u8, bound: u8, mode: u8, solver: u8 },
    Fsck { repair: bool },
    /// Die at the `k`th `FS_SITES[site]` site, then restart from disk.
    Crash { site: u8, k: u8 },
    /// Die in a torn write at the `k`th filesystem site.
    Tear { k: u8 },
    /// Fail at the `k`th `FS_SITES[site]` site; the process lives on.
    DiskFault { site: u8, k: u8 },
    /// Fail the `k`th `STORE_SITES[site]` call at the store boundary.
    StoreFault { site: u8, k: u8 },
    /// Kill store shard `shard`; it restarts over its directory after.
    Kill { shard: u8 },
    /// Cut every connection.
    Disconnect,
}

const BRANCHES: [&str; 3] = ["main", "dev", "fix"];
/// Online bounds: none, below every version (placement degrades to
/// materializing), roomy.
const THETAS: [Option<u64>; 3] = [None, Some(1), Some(1 << 20)];
#[rustfmt::skip]
const SOLVERS: [&str; 8] = ["mst", "spt", "lmg", "mp", "last", "gith", "hop", "skip-delta"];
/// Every durable filesystem site the workspace has.
#[rustfmt::skip]
pub const FS_SITES: [&str; 14] = [
    "object.write", "object.sync", "object.rename", "object.dirsync", "object.remove",
    "meta.write", "meta.sync", "meta.rename", "meta.dirsync",
    "journal.write", "journal.sync", "journal.rename", "journal.dirsync", "journal.remove",
];
pub const STORE_SITES: [&str; 3] = ["store.put", "store.get", "store.remove"];
/// Every op kind, and the durable ones a crash must reach.
#[rustfmt::skip]
pub const KINDS: [&str; 15] = [
    "commit", "online", "retry", "branch", "merge", "checkout", "optimize", "fsck",
    "fsck --repair", "crash", "tear", "disk fault", "store fault", "kill", "disconnect",
];
pub const DURABLE: [&str; 7] = [
    "commit",
    "online",
    "retry",
    "branch",
    "merge",
    "optimize",
    "fsck --repair",
];
/// The chunker of chunked placement and hybrid optimizes: a version of a
/// few KB is a dozen chunks.
const CHUNKS: [usize; 3] = [64, 256, 1024];

impl Op {
    pub fn kind(self) -> &'static str {
        let i = match self {
            Commit { .. } => 0,
            Online { .. } => 1,
            Retry { .. } => 2,
            Branch { .. } => 3,
            Merge { .. } => 4,
            Checkout { .. } => 5,
            Optimize { .. } => 6,
            Fsck { repair } => 7 + usize::from(repair),
            Crash { .. } => 9,
            Tear { .. } => 10,
            DiskFault { .. } => 11,
            StoreFault { .. } => 12,
            Kill { .. } => 13,
            Disconnect => 14,
        };
        KINDS[i]
    }

    fn is_arm(self) -> bool {
        matches!(
            self,
            Crash { .. } | Tear { .. } | DiskFault { .. } | StoreFault { .. } | Kill { .. }
        )
    }

    /// What a fault-free stream leaves out.
    pub fn is_fault(self) -> bool {
        self.is_arm() || self == Disconnect
    }
}

/// A seeded stream of `len` ops, faults included; see [`Streams`].
pub fn stream(seed: u64, len: usize) -> Vec<Op> {
    Streams::default().next(seed, len)
}

/// Seeded streams that share their fault rotation. An arm always comes
/// before an op it can cut (`faults_for`): each op kind takes the kinds
/// of fault in turn, a crash every other time, and each kind the sites it
/// can cut at in turn — the rotation going on from one stream to the
/// next — so a handful of streams reach every site.
#[derive(Default)]
pub struct Streams {
    turns: BTreeMap<(&'static str, &'static str), usize>,
}

impl Streams {
    pub fn next(&mut self, seed: u64, len: usize) -> Vec<Op> {
        let rng = StdRng::seed_from_u64(seed);
        let mut gen = Gen {
            rng,
            versions: 0,
            branches: 1,
        };
        let mut ops = Vec::with_capacity(len + 3);
        while ops.len() < len {
            let roll = gen.pick(100);
            // Optimize reaches the most sites: a third of the faults.
            let op = match roll {
                56..=59 => Disconnect,
                60.. if roll.is_multiple_of(3) => gen.optimize(false),
                _ => gen.plain(),
            };
            let faults = faults_for(op);
            // An optimize of nothing reaches no site.
            let empty = gen.versions == 0 && matches!(op, Optimize { .. });
            if roll >= 60 && !faults.is_empty() && !empty {
                let start = gen.pick(100) as usize;
                let mut turn = |kind| {
                    let turn = self.turns.entry((op.kind(), kind)).or_insert(start);
                    *turn += 1;
                    *turn
                };
                let t = turn("");
                let arms = &faults[if t % 2 == 0 { 0 } else { t / 2 % faults.len() }];
                let arm = arms[turn(arms[0].kind()) % arms.len()];
                // A repair has something to cut only with debris: a commit
                // whose metadata write failed leaves its object behind.
                if op == (Fsck { repair: true }) {
                    let edit = gen.pick(255);
                    ops.extend([DiskFault { site: 5, k: 0 }, Commit { branch: 0, edit }]);
                }
                ops.push(match arm {
                    Tear { .. } => Tear { k: gen.pick(8) },
                    StoreFault { site, .. } => StoreFault {
                        site,
                        k: gen.pick(3),
                    },
                    arm => arm,
                });
            }
            ops.push(op);
        }
        ops.truncate(len);
        ops
    }
}

/// [`stream`] without its faults: a subsequence, so just as valid.
pub fn fault_free(seed: u64, len: usize) -> Vec<Op> {
    let ops = stream(seed, len);
    ops.into_iter().filter(|op| !op.is_fault()).collect()
}

/// `ops` with every op run through an armed `FaultStore` that never
/// fires: each batch call becomes the single-object calls it stands for.
pub fn singly(ops: &[Op]) -> Vec<Op> {
    let never = StoreFault {
        site: 0,
        k: u8::MAX,
    };
    ops.iter().flat_map(|&op| [never, op]).collect()
}

/// `ops` as a Rust literal, for pasting into a regression row.
pub fn literal(ops: &[Op]) -> String {
    let ops: Vec<String> = ops.iter().map(|op| format!("{op:?}")).collect();
    format!("&[{}]", ops.join(", "))
}

/// The faults that can cut `op`, by kind — a crash, a disk fault it
/// survives, a torn write, a failed store call, a dead shard — each kind
/// one arm per site `op` reaches (the first of its name, which every run
/// of `op` reaches). Crashes come first; empty for an op nothing can cut.
fn faults_for(op: Op) -> Vec<Vec<Op>> {
    let writes = |site: &str| match op {
        Commit { .. } | Online { .. } | Retry { .. } | Merge { .. } => {
            site.starts_with("meta.") || (site.starts_with("object.") && site != "object.remove")
        }
        Branch { .. } => site.starts_with("meta."),
        Optimize { .. } => true,
        Fsck { repair: true } => site == "object.remove" || site == "journal.remove",
        _ => false,
    };
    let fs: Vec<u8> = (0..14).filter(|&i| writes(FS_SITES[i as usize])).collect();
    let lives = ["meta.write", "object.remove", "journal.remove"];
    let lives = fs
        .iter()
        .filter(|&&i| lives.contains(&FS_SITES[i as usize]));
    let store: &[u8] = match op {
        Branch { .. } => &[],
        Checkout { .. } | Fsck { repair: false } => &[1],
        Fsck { repair: true } => &[1, 2],
        _ => &[0, 1, 2],
    };
    let faults = [
        fs.iter().map(|&site| Crash { site, k: 0 }).collect(),
        lives.map(|&site| DiskFault { site, k: 0 }).collect(),
        fs.first().map(|_| Tear { k: 0 }).into_iter().collect(),
        store
            .iter()
            .map(|&site| StoreFault { site, k: 0 })
            .collect(),
        store
            .first()
            .map(|_| Kill { shard: 1 })
            .into_iter()
            .collect(),
    ];
    faults
        .into_iter()
        .filter(|arms: &Vec<Op>| !arms.is_empty())
        .collect()
}

/// The generator's guess at the history — versions committed and
/// branches made if every op succeeds — so that most ops it makes are
/// ones the model accepts. A guess only: every op stays valid either way.
struct Gen {
    rng: StdRng,
    versions: u8,
    branches: u8,
}

impl Gen {
    fn pick(&mut self, n: u8) -> u8 {
        self.rng.gen_range(0..n.max(1))
    }

    /// An optimize; with `named`, half the time a named solver rather
    /// than the Table-1 one (which takes every problem).
    fn optimize(&mut self, named: bool) -> Op {
        let n = SOLVERS.len() as u8 + 1;
        let solver = self.pick(2 * n).saturating_sub(n);
        Optimize {
            problem: self.pick(6),
            bound: self.pick(4),
            mode: self.pick(3),
            solver: solver * u8::from(named),
        }
    }

    fn plain(&mut self) -> Op {
        let n = self.versions.max(1);
        // A branch that exists, `main` most often.
        let branch = match self.pick(3) {
            0 => self.pick(self.branches),
            _ => 0,
        };
        let edit = self.pick(255);
        let op = match self.pick(100) {
            0..=33 => Commit { branch, edit },
            34..=43 => Online {
                branch,
                edit,
                hops: self.pick(3),
                theta: self.pick(3),
            },
            44..=49 => Retry { branch, edit },
            50..=55 => Branch {
                name: self.branches.min(2),
                from: self.pick(n),
            },
            56..=61 => Merge {
                branch,
                other: self.pick(n),
                edit,
            },
            62..=71 => Checkout {
                version: self.pick(n + 1),
            },
            72..=86 => self.optimize(true),
            _ => Fsck {
                repair: self.pick(2) == 1,
            },
        };
        match op {
            Commit { .. } | Online { .. } | Retry { .. } | Merge { .. } => {
                self.versions = self.versions.saturating_add(1)
            }
            Branch { .. } => self.branches = (self.branches + 1).min(3),
            _ => {}
        }
        op
    }
}

// ---------------------------------------------------------------------
// the model

/// The reference: every version's bytes, its parents, the branch heads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    pub versions: Vec<Vec<u8>>,
    pub parents: Vec<Vec<u32>>,
    pub heads: BTreeMap<String, u32>,
}

/// What an op asks of the model.
#[derive(Debug, Clone)]
enum Expect {
    Version {
        branch: &'static str,
        parents: Vec<u32>,
        data: Vec<u8>,
    },
    Branch {
        name: &'static str,
        at: u32,
    },
    /// A version's bytes.
    Read(u32),
    /// Nothing the model holds changes (optimize, fsck).
    Same,
    Refused,
}

impl Model {
    fn len(&self) -> usize {
        self.versions.len()
    }

    /// What `op` must do; `salt` makes a new version's bytes its own.
    fn expect(&self, op: Op, salt: &str) -> Expect {
        let n = self.len();
        let branch = |b: u8| BRANCHES[b as usize % BRANCHES.len()];
        match op {
            Commit { branch: b, edit }
            | Online {
                branch: b, edit, ..
            }
            | Retry { branch: b, edit } => match self.heads.get(branch(b)) {
                Some(&head) => Expect::Version {
                    branch: branch(b),
                    parents: vec![head],
                    data: edited(&self.versions[head as usize], edit, salt),
                },
                None if n == 0 => Expect::Version {
                    branch: branch(b),
                    parents: vec![],
                    data: base(edit),
                },
                None => Expect::Refused,
            },
            Merge {
                branch: b,
                other,
                edit,
            } => match self.heads.get(branch(b)) {
                Some(&head) if (other as usize) < n && head != u32::from(other) => {
                    let theirs = &self.versions[other as usize];
                    Expect::Version {
                        branch: branch(b),
                        parents: vec![head, other.into()],
                        data: merged(&self.versions[head as usize], theirs, edit, salt),
                    }
                }
                _ => Expect::Refused,
            },
            Branch { name, from }
                if !self.heads.contains_key(branch(name)) && (from as usize) < n =>
            {
                Expect::Branch {
                    name: branch(name),
                    at: from.into(),
                }
            }
            Checkout { version } if (version as usize) < n => Expect::Read(version.into()),
            Branch { .. } | Checkout { .. } => Expect::Refused,
            Optimize { .. } if n == 0 => Expect::Refused,
            _ => Expect::Same,
        }
    }

    fn apply(&mut self, expect: &Expect) {
        match expect {
            Expect::Version {
                branch,
                parents,
                data,
            } => {
                self.heads.insert(branch.to_string(), self.len() as u32);
                self.versions.push(data.clone());
                self.parents.push(parents.clone());
            }
            Expect::Branch { name, at } => {
                self.heads.insert(name.to_string(), *at);
            }
            _ => {}
        }
    }
}

/// The first version: a 200-row table.
fn base(edit: u8) -> Vec<u8> {
    let rows = (0..200).map(|i| format!("r{i},{}", (i * 37 + usize::from(edit) * 101) % 9973));
    lines(std::iter::once("id,value".to_owned()).chain(rows))
}

/// `parent` with one to three rows rewritten and one appended.
fn edited(parent: &[u8], edit: u8, salt: &str) -> Vec<u8> {
    let mut rows = split(parent);
    let mut rng = StdRng::seed_from_u64(u64::from(edit) << 32 | rows.len() as u64);
    for _ in 0..=edit % 3 {
        let i = rng.gen_range(1..rows.len());
        rows[i] = format!("e{edit},{}", rng.gen_range(0..100_000u32));
    }
    rows.push(format!("{salt},{edit}"));
    lines(rows)
}

/// `ours` plus the rows of `theirs` it lacks, plus one.
fn merged(ours: &[u8], theirs: &[u8], edit: u8, salt: &str) -> Vec<u8> {
    let mut rows = split(ours);
    let seen: HashSet<String> = rows.iter().cloned().collect();
    rows.extend(split(theirs).into_iter().filter(|r| !seen.contains(r)));
    rows.push(format!("{salt},merge-{edit}"));
    lines(rows)
}

fn split(data: &[u8]) -> Vec<String> {
    String::from_utf8_lossy(data)
        .lines()
        .map(str::to_owned)
        .collect()
}

fn lines(rows: impl IntoIterator<Item = String>) -> Vec<u8> {
    rows.into_iter()
        .flat_map(|r| (r + "\n").into_bytes())
        .collect()
}

// ---------------------------------------------------------------------
// the configs

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// `MemStore`, coding payloads.
    Mem,
    /// A `FileStore` under the repository root.
    File,
    /// `ShardedStore<FileStore>`, four shards.
    Sharded,
    /// `ShardedStore<RemoteStore>` over two `FileStore`-backed store
    /// servers.
    Remote,
}

#[derive(Debug)]
pub struct Config {
    pub name: &'static str,
    layout: Layout,
    /// Chunked placement (and hybrid optimizes by default).
    chunked: bool,
    /// 0: requests go to `Dsvd::handle` in this process, the way the
    /// `dsv` CLI runs them. n: n `Client`s reach a served `dsvd`.
    clients: usize,
    /// The checkout cache: none, or a budget (0 installs an empty one).
    cache: Option<u64>,
    /// `dsv-par` threads for in-process requests.
    threads: usize,
}

/// The fixed table. `mem` is the reference; configs with the same
/// placement differ only in layout, transport, cache and threads.
#[rustfmt::skip]
pub static CONFIGS: [Config; 12] = {
    use Layout::*;
    const fn row(name: &'static str, layout: Layout, chunked: bool, clients: usize, cache: Option<u64>, threads: usize) -> Config {
        Config { name, layout, chunked, clients, cache, threads }
    }
    [
        row("mem",               Mem,     false, 0, None,          1),
        row("mem-cache0",        Mem,     false, 0, Some(0),       1),
        row("mem-cache4k",       Mem,     false, 0, Some(4096),    2),
        row("mem-cache1g",       Mem,     false, 0, Some(1 << 30), 8),
        row("file",              File,    false, 0, None,          2),
        row("sharded",           Sharded, false, 0, Some(4096),    8),
        row("chunked",           File,    true,  0, Some(1 << 30), 1),
        row("served",            File,    false, 1, Some(1 << 20), 1),
        row("remote-sharded",    Remote,  false, 0, Some(1 << 20), 2),
        row("remote-chunked",    Remote,  true,  0, None,          8),
        row("concurrent",        File,    false, 4, Some(1 << 20), 1),
        row("concurrent-remote", Remote,  false, 4, Some(1 << 20), 1),
    ]
};

/// The config named `name`.
pub fn config(name: &str) -> &'static Config {
    let found = CONFIGS.iter().find(|c| c.name == name);
    found.unwrap_or_else(|| panic!("no config named {name}"))
}

impl Config {
    fn has_root(&self) -> bool {
        self.layout != Layout::Mem
    }

    pub fn concurrent(&self) -> bool {
        self.clients > 1
    }

    /// Whether `op` means anything here; an op that does not is skipped.
    pub fn applies(&self, op: Op) -> bool {
        match op {
            Crash { .. } | Tear { .. } | DiskFault { .. } => self.has_root() && !self.concurrent(),
            StoreFault { .. } => !self.concurrent(),
            Kill { .. } => self.layout == Layout::Remote && !self.concurrent(),
            Disconnect => self.clients > 0 || self.layout == Layout::Remote,
            _ => true,
        }
    }
}

// ---------------------------------------------------------------------
// the store every config runs on

/// A config's real store, as one type.
#[derive(Clone)]
struct Backing(Arc<dyn ObjectStore + Send + Sync>);

/// What a repository in the harness stores into: the config's store,
/// behind a `FaultStore` only while a `StoreFault` is armed — the rest of
/// the time batches reach the real store's batch surface.
struct Store {
    backing: Backing,
    armed: RwLock<Option<FaultStore<Backing>>>,
}

impl Store {
    fn new(store: impl ObjectStore + Send + Sync + 'static) -> Store {
        Store {
            backing: Backing(Arc::new(store)),
            armed: RwLock::new(None),
        }
    }

    /// Routes every call through `plan`, or (`None`) straight through.
    fn arm(&self, plan: Option<Arc<FaultPlan>>) {
        *self.armed.write().unwrap() = plan.map(|p| FaultStore::new(self.backing.clone(), p));
    }
}

macro_rules! forward {
    ($($name:ident($($arg:ident: $ty:ty),*) -> $ret:ty;)*) => {
        impl ObjectStore for Backing {
            $(fn $name(&self, $($arg: $ty),*) -> $ret { self.0.$name($($arg),*) })*
        }
        impl ObjectStore for Store {
            $(fn $name(&self, $($arg: $ty),*) -> $ret {
                match &*self.armed.read().unwrap() {
                    Some(faulty) => faulty.$name($($arg),*),
                    None => self.backing.$name($($arg),*),
                }
            })*
        }
    };
}

forward! {
    put(obj: &Object) -> Result<ObjectId, StoreError>;
    get(id: ObjectId) -> Result<Object, StoreError>;
    put_batch(objs: &[Object]) -> Result<Vec<ObjectId>, StoreError>;
    get_batch(ids: &[ObjectId]) -> Result<Vec<Object>, StoreError>;
    contains_batch(ids: &[ObjectId]) -> Result<Vec<bool>, StoreError>;
    remove_batch(ids: &[ObjectId]) -> Result<(), StoreError>;
    object_ids() -> Result<Vec<ObjectId>, StoreError>;
    stats() -> StoreStats;
    compresses() -> bool;
    shard_count() -> usize;
    remote_addrs() -> Vec<String>;
}

/// The harness's clients and remote stores retry a cut connection once,
/// at once.
const RETRY: RetryPolicy = RetryPolicy {
    attempts: 1,
    base_delay_ms: 0,
    seed: 0,
};

// ---------------------------------------------------------------------
// the system under test

/// One config's running system: its directories, its store servers, its
/// `Dsvd` and — when served — the server, the relay its clients dial and
/// the clients.
struct Sut {
    config: &'static Config,
    dir: TempDir,
    shards: Vec<StoreServer>,
    dsvd: Arc<Dsvd<Store>>,
    wire: Option<Wire>,
    threads: usize,
}

struct Wire {
    relay: Relay,
    server: Option<(String, JoinHandle<()>)>,
    clients: Vec<Client>,
}

impl Sut {
    fn new(config: &'static Config, threads: usize) -> Sut {
        let dir = TempDir::new(config.name);
        let shards: Vec<StoreServer> = match config.layout {
            Layout::Remote => (0..2)
                .map(|i| {
                    StoreServer::serve_dir(&dir.0.join(format!("shard-{i}")), DEFAULT_MAX_FRAME)
                })
                .collect(),
            _ => Vec::new(),
        };
        let store = open_store(config, &dir.0, &shards);
        let repo = match config.chunked {
            true => Repository::init_chunked(
                store,
                ChunkerParams::new(CHUNKS[0], CHUNKS[1], CHUNKS[2]).unwrap(),
            ),
            false => Repository::init(store),
        };
        let root = config.has_root().then(|| dir.0.join("repo"));
        // `dsv init`: the metadata exists before the first commit.
        if let Some(root) = &root {
            persist::save(&repo, root).unwrap();
        }
        let dsvd = Arc::new(dsvd(config, root, repo));
        let mut sut = Sut {
            config,
            dir,
            shards,
            dsvd,
            wire: None,
            threads,
        };
        sut.serve();
        sut
    }

    /// The repository directory; none for the in-memory config.
    fn root(&self) -> Option<PathBuf> {
        self.config.has_root().then(|| self.dir.0.join("repo"))
    }

    /// Serves `repo` from a new process: a new `Dsvd`, and for served
    /// configs a new server behind the relay.
    fn boot<S: ObjectStore>(&mut self, repo: &Repository<S>) {
        let store = open_store(self.config, &self.dir.0, &self.shards);
        let ids = 0..repo.version_count() as u32;
        let repo = Repository::from_parts(
            store,
            ids.clone()
                .map(|v| repo.meta(CommitId(v)).unwrap().clone())
                .collect(),
            repo.current_plan().to_vec(),
            ids.map(|v| repo.object_id(CommitId(v))).collect(),
            repo.branches().map(|(b, h)| (b.to_owned(), h)).collect(),
            repo.placement(),
        );
        self.dsvd = Arc::new(dsvd(self.config, self.root(), repo.unwrap()));
        self.serve();
    }

    /// Served configs: a server for the current `Dsvd`, behind the relay
    /// the clients dial.
    fn serve(&mut self) {
        if self.config.clients == 0 {
            return;
        }
        let workers = self.config.clients + 1;
        let opts = ServerOptions {
            workers,
            queue_depth: 8,
        };
        let server = Server::bind_with("127.0.0.1:0", opts).unwrap();
        let addr = server.local_addr().to_string();
        let dsvd = Arc::clone(&self.dsvd);
        let accept = std::thread::spawn(move || dsvd.serve(&server));
        match &mut self.wire {
            Some(wire) => wire.relay.retarget(&addr),
            None => {
                let relay = Relay::new(&addr);
                let clients = (0..self.config.clients)
                    .map(|_| Client::connect(&relay.addr).unwrap().with_retry(RETRY))
                    .collect();
                self.wire = Some(Wire {
                    relay,
                    server: None,
                    clients,
                });
            }
        }
        self.wire.as_mut().unwrap().server = Some((addr, accept));
    }

    /// The process dies: every connection is cut and the server stops.
    /// Only what is on disk survives.
    fn die(&mut self) {
        if let Some(wire) = &mut self.wire {
            wire.relay.sever();
            if let Some((addr, accept)) = wire.server.take() {
                if let Ok(mut client) = Client::connect(&addr) {
                    let _ = client.shutdown();
                }
                let joined = accept.join();
                // No second panic while a failing test unwinds.
                if !std::thread::panicking() {
                    joined.expect("the serve loop panicked");
                }
            }
        }
    }

    /// Cuts every connection.
    fn sever(&self) {
        if let Some(wire) = &self.wire {
            wire.relay.sever();
        }
        for shard in &self.shards {
            shard.sever();
        }
    }

    /// One request through the config's path, from client `client`.
    fn call(&mut self, client: usize, req: Request) -> Result<Response, String> {
        match &mut self.wire {
            Some(wire) => wire.clients[client].call(&req).map_err(|e| e.to_string()),
            None => dsv_par::with_thread_count(self.threads, || match self.dsvd.handle(req) {
                Response::Error { message, .. } => Err(message),
                resp => Ok(resp),
            }),
        }
    }

    fn with_repo<R>(&self, f: impl FnOnce(&Repository<Store>) -> R) -> R {
        f(&self.dsvd.repo().read())
    }

    /// A mutation with no opcode, made the way `Dsvd` makes one: under
    /// the write lock, persisted, rolled back if the save fails.
    fn mutate(
        &mut self,
        f: impl FnOnce(&mut Repository<Store>) -> Result<u32, VcsError>,
    ) -> Result<u32, String> {
        let root = self.root();
        let mut repo = self.dsvd.repo().write();
        let checkpoint = repo.checkpoint();
        let id = f(&mut repo).map_err(|e| e.to_string())?;
        if let Some(Err(e)) = root.map(|root| persist::save(&repo, &root)) {
            repo.restore(checkpoint);
            return Err(format!("persisting repository: {e}"));
        }
        Ok(id)
    }
}

impl Drop for Sut {
    fn drop(&mut self) {
        self.die();
    }
}

/// A fresh handle on `config`'s store under `dir`.
fn open_store(config: &Config, dir: &Path, shards: &[StoreServer]) -> Store {
    let objects = dir.join("repo").join("objects");
    let timeout = Some(Duration::from_secs(60));
    let remote =
        |s: &StoreServer| RemoteStore::connect_with(s.addr(), DEFAULT_MAX_FRAME, timeout, RETRY);
    match config.layout {
        Layout::Mem => Store::new(MemStore::new(true)),
        Layout::File => Store::new(FileStore::open(&objects, true).unwrap()),
        Layout::Sharded => Store::new(ShardedStore::open_sharded(&objects, 4, true).unwrap()),
        Layout::Remote => Store::new(ShardedStore::new(
            shards.iter().map(|s| remote(s).unwrap()).collect(),
        )),
    }
}

/// `config`'s `Dsvd` over `repo`, persisting under `root`.
fn dsvd(config: &Config, root: Option<PathBuf>, repo: Repository<Store>) -> Dsvd<Store> {
    let mut dsvd = Dsvd::new(
        repo,
        DsvdConfig {
            cache_bytes: config.cache.unwrap_or(0),
            max_frame: DEFAULT_MAX_FRAME,
            read_timeout: None,
        },
    );
    if let Some(root) = root {
        dsvd = dsvd.with_save_root(root);
    }
    if config.cache == Some(0) {
        dsvd.repo().write().enable_checkout_cache(0);
    }
    dsvd
}

// ---------------------------------------------------------------------
// one run

/// What a step did, as configs that should agree compare it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    Skipped,
    Armed,
    Disconnected,
    Refused,
    Failed,
    Committed(u32),
    Branched,
    Read,
    Optimized(OptimizeSummary),
    Checked(FsckSummary),
}

/// The state after one step.
#[derive(Debug, Clone)]
pub struct Trace {
    pub outcome: Outcome,
    /// Sorted object ids and stored bytes.
    pub ids: Vec<ObjectId>,
    pub bytes: u64,
    /// Store bytes read, and cache hits, checking out every version.
    pub reads: u64,
    pub hits: u64,
}

/// What runs exercised: (config, op kind) pairs, fault sites that fired,
/// op kinds a crash fired in.
#[derive(Debug, Default)]
pub struct Coverage {
    pub ops: BTreeSet<(&'static str, &'static str)>,
    pub sites: BTreeSet<&'static str>,
    pub crashed: BTreeSet<&'static str>,
}

impl Coverage {
    pub fn extend(&mut self, other: Coverage) {
        self.ops.extend(other.ops);
        self.sites.extend(other.sites);
        self.crashed.extend(other.crashed);
    }
}

/// The arm of one op, and the plan it installed.
struct Armed {
    op: Op,
    plan: Option<Arc<FaultPlan>>,
}

impl Armed {
    fn fired(&self) -> bool {
        matches!(self.op, Kill { .. }) || self.plan.as_ref().is_some_and(|p| p.fired() > 0)
    }

    fn crashed(&self) -> bool {
        matches!(self.op, Crash { .. } | Tear { .. }) && self.fired()
    }

    /// The site that fired.
    fn site(&self) -> Option<&'static str> {
        Some(match self.op {
            _ if !self.fired() => return None,
            Crash { site, .. } | DiskFault { site, .. } => FS_SITES[site as usize % FS_SITES.len()],
            StoreFault { site, .. } => STORE_SITES[site as usize % STORE_SITES.len()],
            Tear { .. } => "tear",
            _ => "kill",
        })
    }
}

/// One config driven through a stream, with its model.
pub struct Run {
    sut: Sut,
    pub model: Model,
    pending: Option<Op>,
    tokens: u64,
    pub cov: Coverage,
    pub trail: Vec<Trace>,
}

impl Run {
    fn new(config: &'static Config, threads: usize) -> Run {
        Run {
            sut: Sut::new(config, threads),
            model: Model::default(),
            pending: None,
            tokens: 0,
            cov: Coverage::default(),
            trail: Vec::new(),
        }
    }

    fn name(&self) -> &'static str {
        self.sut.config.name
    }

    /// Applies `op` and checks every invariant.
    fn step(&mut self, op: Op) -> Result<(), String> {
        let config = self.sut.config;
        let outcome = match op {
            _ if !config.applies(op) => Outcome::Skipped,
            _ if op.is_arm() => {
                self.pending = Some(op);
                Outcome::Armed
            }
            Disconnect => {
                self.sut.sever();
                Outcome::Disconnected
            }
            _ => self.apply(op)?,
        };
        if outcome != Outcome::Skipped {
            self.cov.ops.insert((config.name, op.kind()));
        }
        let trace = self.invariants(outcome)?;
        self.trail.push(trace);
        Ok(())
    }

    /// Installs the pending arm, if any.
    fn arm(&mut self) -> Option<Armed> {
        let op = self.pending.take()?;
        let plan = match op {
            Crash { site, k } | DiskFault { site, k } => Some(FaultPlan::fail_at_site(
                k.into(),
                FS_SITES[site as usize % FS_SITES.len()],
            )),
            Tear { k } => Some(FaultPlan::tear_at(k.into(), 16)),
            StoreFault { site, k } => {
                let plan = FaultPlan::fail_at_site(
                    k.into(),
                    STORE_SITES[site as usize % STORE_SITES.len()],
                );
                self.sut
                    .with_repo(|repo| repo.store().arm(Some(Arc::clone(&plan))));
                return Some(Armed {
                    op,
                    plan: Some(plan),
                });
            }
            Kill { shard } => {
                self.sut.shards[shard as usize % 2].kill();
                None
            }
            _ => unreachable!("{op:?} is not an arm"),
        };
        plan.iter()
            .for_each(|plan| fault::install(Arc::clone(plan)));
        Some(Armed { op, plan })
    }

    /// Lifts the arm; a dead shard is probed, then restarted.
    fn disarm(&mut self, armed: &Armed) -> Result<(), String> {
        match armed.op {
            StoreFault { .. } => self.sut.with_repo(|repo| repo.store().arm(None)),
            Kill { shard } => {
                let shard = shard as usize % 2;
                let probed = self
                    .sut
                    .with_repo(|repo| dead_shard_fails(repo.store(), shard));
                self.sut.shards[shard].restart();
                probed?;
            }
            _ => fault::uninstall(),
        }
        Ok(())
    }

    fn apply(&mut self, op: Op) -> Result<Outcome, String> {
        let expect = self.model.expect(op, &format!("v{}", self.model.len()));
        let objects = self.sut.with_repo(objects_of);
        let journal = self.journal();
        let armed = self.arm();
        let reply = self.request(op, &expect, armed.as_ref());
        let Some(armed) = armed else {
            return self.settle(op, &expect, reply?, false, journal, &objects);
        };
        self.disarm(&armed)?;
        self.cov.sites.extend(armed.site());
        if armed.crashed() {
            self.cov.crashed.insert(op.kind());
            return self.restart(&expect);
        }
        self.settle(op, &expect, reply?, armed.fired(), journal, &objects)
    }

    /// Sends `op` through the request path: the system's answer, or (the
    /// outer error) a broken invariant.
    fn request(
        &mut self,
        op: Op,
        expect: &Expect,
        armed: Option<&Armed>,
    ) -> Result<Result<Response, String>, String> {
        self.tokens += 1;
        let token = self.tokens;
        let commit = || commit_request(op, expect, token);
        Ok(match op {
            Commit { .. } | Online { .. } => self.sut.call(0, commit()),
            Retry { .. } => {
                let first = self.sut.call(0, commit());
                if armed.is_some_and(Armed::crashed) {
                    // The process is gone, and its replay log with it.
                    return Ok(first);
                }
                self.sut.sever();
                let second = self.sut.call(0, commit());
                match (&first, &second) {
                    (Ok(a), Ok(b)) if a != b => {
                        return Err(format!("a retried token answered {b:?} after {a:?}"))
                    }
                    (Ok(a), Err(e)) => {
                        return Err(format!("a retried token failed ({e}) after {a:?}"))
                    }
                    _ => second,
                }
            }
            // No opcode: the reply stands in for what one would say.
            Branch { name, from } => self
                .sut
                .mutate(|repo| {
                    repo.branch(
                        BRANCHES[name as usize % BRANCHES.len()],
                        CommitId(from.into()),
                    )
                    .map(|()| 0)
                })
                .map(|_| Response::Pong),
            Merge { other, .. } => {
                let Request::Commit { branch, data, .. } = commit() else {
                    unreachable!()
                };
                let other = CommitId(other.into());
                let merged = self
                    .sut
                    .mutate(|repo| Ok(repo.merge(&branch, other, &data, "")?.0));
                merged.map(|id| Response::CommitOk {
                    id,
                    bytes: data.len() as u64,
                    online: false,
                })
            }
            Checkout { version } => self.sut.call(
                0,
                Request::Checkout {
                    version: version.into(),
                },
            ),
            Optimize {
                problem,
                bound,
                mode,
                solver,
            } => {
                let req = optimize_request(&self.model, problem, bound, mode, solver);
                self.sut.call(0, req)
            }
            Fsck { repair } => self.sut.call(0, Request::Fsck { repair }),
            _ => unreachable!("{op:?} is handled in step"),
        })
    }

    /// Checks `reply` against the model and moves the model.
    fn settle(
        &mut self,
        op: Op,
        expect: &Expect,
        reply: Result<Response, String>,
        fired: bool,
        journal: Option<RepackJournal>,
        objects: &[ObjectId],
    ) -> Result<Outcome, String> {
        let resp = match (expect, reply) {
            (Expect::Refused, Ok(_)) => {
                return Err("the model refuses this op; the system took it".into())
            }
            (Expect::Refused, Err(_)) => return Ok(Outcome::Refused),
            // A plan the solver cannot make (a bound too tight, a solver
            // that does not take the problem) changes nothing.
            (_, Err(e)) if matches!(op, Optimize { .. }) && e.contains("optimizer error") => {
                return Ok(Outcome::Failed)
            }
            (_, Err(e)) if fired && honest(&e) => return Ok(Outcome::Failed),
            (_, Err(e)) if fired => return Err(format!("a fault read as something else: {e}")),
            (_, Err(e)) => return Err(format!("failed with no fault armed: {e}")),
            (_, Ok(resp)) => resp,
        };
        match (expect, resp) {
            (Expect::Version { .. }, Response::CommitOk { id, .. })
                if id as usize == self.model.len() =>
            {
                self.model.apply(expect);
                Ok(Outcome::Committed(id))
            }
            (Expect::Branch { .. }, Response::Pong) => {
                self.model.apply(expect);
                Ok(Outcome::Branched)
            }
            (Expect::Read(v), Response::CheckoutOk { data, .. })
                if data == self.model.versions[*v as usize] =>
            {
                Ok(Outcome::Read)
            }
            (Expect::Same, Response::OptimizeOk(summary)) => {
                // The swap is durable: a journal left behind (its GC did
                // not finish) names the plan now in memory, so recovery
                // rolls it forward.
                match self.journal() {
                    Some(j) if j.new_objects != self.sut.with_repo(objects_of) => {
                        Err("an optimize that answered OK left a journal for another plan".into())
                    }
                    _ => Ok(Outcome::Optimized(summary)),
                }
            }
            (Expect::Same, Response::FsckOk(s)) => {
                self.fsck_holds(op, &s, fired, journal, objects)?;
                // A repository with no root has no journal to resolve: its
                // `None` is everyone else's `Clean`.
                let clean = Some(WireRecovery::Clean).filter(|_| op == (Fsck { repair: true }));
                Ok(Outcome::Checked(FsckSummary {
                    recovery: s.recovery.or(clean),
                    ..s
                }))
            }
            (_, resp) => Err(format!(
                "the model expected {expect:?}; the system answered {resp:?}"
            )),
        }
    }

    /// What an fsck answer must say.
    fn fsck_holds(
        &self,
        op: Op,
        s: &FsckSummary,
        fired: bool,
        journal: Option<RepackJournal>,
        objects: &[ObjectId],
    ) -> Result<(), String> {
        let root = self.sut.root();
        // Nothing in this harness corrupts bytes: a bad address can only
        // be a store failure misread.
        if s.bad_addresses > 0 {
            return Err(format!("a store fault read as corruption: {s}"));
        }
        if fired {
            // Orphans are looked for only with the whole picture.
            let truth = self.sut.with_repo(|repo| fsck::fsck(repo, root.as_deref()));
            return match s.clean || s.orphans as usize > truth.orphans.len() {
                true => Err(format!(
                    "a fault fired and fsck says {s}; fault-free: {truth}"
                )),
                false => Ok(()),
            };
        }
        if s.unreadable > 0
            || s.journal_pending != (journal.is_some() && op == (Fsck { repair: false }))
        {
            return Err(format!(
                "journal on disk: {}; fsck says {s}",
                journal.is_some()
            ));
        }
        let Some(root) = root.filter(|_| op == (Fsck { repair: true })) else {
            return Ok(());
        };
        recovered_as(journal.as_ref(), objects, s.recovery)?;
        let staged = staging_files(&root.join("objects"));
        match s.clean && staged == 0 && self.journal().is_none() {
            true => Ok(()),
            false => Err(format!("after repair: {s}, {staged} staging files")),
        }
    }

    /// After a crash, the next process starts from disk. A served config
    /// is `dsvd`, which recovers first (`recover_at`): clean, the journal
    /// resolved the right way, no staging file left or counted. An
    /// in-process config is the `dsv` CLI, which loads and leaves the
    /// debris to `fsck --repair`. Either way the history is fully old or
    /// fully new.
    fn restart(&mut self, expect: &Expect) -> Result<Outcome, String> {
        let root = self
            .sut
            .root()
            .expect("crashes are armed only on configs with a root");
        let journal = self.journal();
        self.sut.die();
        let survivor = match self.sut.config.clients {
            0 => persist::load(&root, true).map_err(|e| format!("loading after the crash: {e}"))?,
            _ => recover(&root, journal.as_ref())?,
        };
        counts_only_objects(survivor.store())?;
        let (n, count) = (self.model.len(), survivor.version_count());
        let outcome = match expect {
            Expect::Branch { name, .. } if survivor.head(name).is_ok() => Outcome::Branched,
            Expect::Version { data, .. } if count == n + 1 => {
                if survivor.checkout(CommitId(n as u32)).as_ref() != Ok(data) {
                    return Err("the recovered new version's bytes differ".into());
                }
                Outcome::Committed(n as u32)
            }
            _ if count == n => Outcome::Failed,
            _ => {
                return Err(format!(
                    "{count} versions: neither fully old ({n}) nor fully new"
                ))
            }
        };
        if outcome != Outcome::Failed {
            self.model.apply(expect);
        }
        self.sut.boot(&survivor);
        Ok(outcome)
    }

    fn journal(&self) -> Option<RepackJournal> {
        let root = self.sut.root()?;
        persist::read_journal(&root).unwrap()
    }

    /// Every invariant that holds between steps; returns the step's
    /// trace.
    fn invariants(&mut self, outcome: Outcome) -> Result<Trace, String> {
        let memory = self.sut.with_repo(Snapshot::of);
        let chunked = matches!(memory.placement, Placement::Chunked(_));
        let model = (&self.model.parents, &self.model.heads);
        if (&memory.parents, &memory.heads) != model || chunked != self.sut.config.chunked {
            return Err(format!("memory holds {memory:?}; the model {model:?}"));
        }
        let (mut reads, mut hits) = (0, 0);
        for (v, want) in self.model.versions.iter().enumerate() {
            match self.sut.call(0, Request::Checkout { version: v as u32 }) {
                Ok(Response::CheckoutOk { data, work }) if data == *want => {
                    reads += work.bytes_read;
                    hits += work.cache_hits as u64;
                }
                other => {
                    return Err(format!(
                        "v{v} does not check out as committed: {:?}",
                        other.map(|_| ())
                    ))
                }
            }
        }
        // Only a step that may have written can have moved either side.
        let wrote = !matches!(
            outcome,
            Outcome::Skipped
                | Outcome::Armed
                | Outcome::Disconnected
                | Outcome::Refused
                | Outcome::Read
        );
        if let Some(root) = self.sut.root().filter(|_| wrote) {
            let disk =
                persist::load(&root, true).map_err(|e| format!("loading the metadata: {e}"))?;
            if Snapshot::of(&disk) != memory {
                return Err("memory and the metadata on disk disagree".into());
            }
        }
        let stats = self.sut.with_repo(|repo| repo.store().stats());
        let shards = &stats.shards;
        let objects: usize = shards.iter().map(|s| s.objects).sum();
        let bytes: u64 = shards.iter().map(|s| s.bytes).sum();
        if !shards.is_empty() && (objects, bytes) != (stats.objects, stats.bytes) {
            return Err(format!("per-shard stats do not add up: {stats:?}"));
        }
        let mut ids = self
            .sut
            .with_repo(|repo| repo.store().object_ids())
            .map_err(|e| e.to_string())?;
        ids.sort();
        let bytes = stats.bytes;
        Ok(Trace {
            outcome,
            ids,
            bytes,
            reads,
            hits,
        })
    }

    /// Stops the system and restarts it from disk alone, the way `dsvd`
    /// does ([`recover`]): every acknowledged version is there,
    /// byte-identical.
    fn finish(&mut self) -> Result<(), String> {
        let Some(root) = self.sut.root() else {
            return Ok(());
        };
        let journal = self.journal();
        self.sut.die();
        let survivor = recover(&root, journal.as_ref())?;
        for (v, want) in self.model.versions.iter().enumerate() {
            if survivor.checkout(CommitId(v as u32)).as_ref() != Ok(want) {
                return Err(format!("v{v} differs after a restart"));
            }
        }
        Ok(())
    }

    /// Runs commits and checkouts at once, one per client: the ids handed
    /// out are distinct and dense, and every checkout returns the bytes
    /// committed under its id.
    fn round(&mut self, ops: &[Op]) -> Result<(), String> {
        let pre = self.model.clone();
        self.tokens += 1;
        let jobs: Vec<(Request, Expect)> = ops
            .iter()
            .enumerate()
            .map(|(c, &op)| match op {
                Checkout { version } => {
                    let v = u32::from(version) % pre.len() as u32;
                    (Request::Checkout { version: v }, Expect::Read(v))
                }
                _ => {
                    let expect = pre.expect(op, &format!("c{c}-{}", self.tokens));
                    (
                        commit_request(op, &expect, self.tokens << 8 | c as u64),
                        expect,
                    )
                }
            })
            .collect();
        let clients = &mut self
            .sut
            .wire
            .as_mut()
            .expect("a round needs clients")
            .clients;
        let start = Barrier::new(jobs.len());
        let replies: Vec<Result<Response, String>> = std::thread::scope(|scope| {
            let calls: Vec<_> = clients
                .iter_mut()
                .zip(&jobs)
                .map(|(client, (req, _))| {
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        client.call(req).map_err(|e| e.to_string())
                    })
                })
                .collect();
            calls.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut committed = Vec::new();
        for (((_, expect), reply), &op) in jobs.iter().zip(replies).zip(ops) {
            self.cov.ops.insert((self.sut.config.name, op.kind()));
            match (expect, reply) {
                (Expect::Read(v), Ok(Response::CheckoutOk { data, .. }))
                    if data == pre.versions[*v as usize] => {}
                (Expect::Version { branch, data, .. }, Ok(Response::CommitOk { id, .. })) => {
                    committed.push((id, *branch, data.clone()))
                }
                (Expect::Refused, Err(_)) => {}
                (_, reply) => return Err(format!("{op:?} in a concurrent round: {reply:?}")),
            }
        }
        committed.sort();
        let ids: Vec<u32> = committed.iter().map(|c| c.0).collect();
        let dense: Vec<u32> = (pre.len() as u32..).take(ids.len()).collect();
        if ids != dense {
            return Err(format!("concurrent commits got ids {ids:?}, not {dense:?}"));
        }
        for (_, branch, data) in committed {
            let parents = vec![self.model.heads[branch]];
            self.model.apply(&Expect::Version {
                branch,
                parents,
                data,
            });
        }
        let trace = self.invariants(Outcome::Read)?;
        self.trail.push(trace);
        Ok(())
    }
}

/// What memory and the metadata on disk must agree on.
#[derive(Debug, PartialEq)]
struct Snapshot {
    parents: Vec<Vec<u32>>,
    heads: BTreeMap<String, u32>,
    objects: Vec<ObjectId>,
    plan: Vec<dsv_core::StorageMode>,
    placement: Placement,
}

impl Snapshot {
    fn of<S: ObjectStore>(repo: &Repository<S>) -> Snapshot {
        let parents = |v| {
            repo.meta(CommitId(v))
                .unwrap()
                .parents
                .iter()
                .map(|p| p.0)
                .collect()
        };
        Snapshot {
            parents: (0..repo.version_count() as u32).map(parents).collect(),
            objects: objects_of(repo),
            plan: repo.current_plan().to_vec(),
            heads: repo.branches().map(|(b, h)| (b.to_owned(), h.0)).collect(),
            placement: repo.placement(),
        }
    }
}

/// The plan a repository holds: its object per version.
fn objects_of<S: ObjectStore>(repo: &Repository<S>) -> Vec<ObjectId> {
    (0..repo.version_count() as u32)
        .map(|v| repo.object_id(CommitId(v)))
        .collect()
}

/// An error a fault may produce: its own, or a transport failure.
fn honest(error: &str) -> bool {
    fault::is_injected(error) || error.contains("remote store")
}

/// `dsvd`'s start: `recover_at`, which must end clean, resolve `journal`
/// the right way and leave no staging file.
fn recover(root: &Path, journal: Option<&RepackJournal>) -> Result<Repository<RepoStore>, String> {
    let (survivor, report) =
        fsck::recover_at(root, true).map_err(|e| format!("recover_at: {e}"))?;
    recovered_as(journal, &objects_of(&survivor), report.summary().recovery)?;
    let staged = staging_files(&root.join("objects"));
    match report.is_clean() && staged == 0 {
        true => Ok(survivor),
        false => Err(format!("after recovery: {report}, {staged} staging files")),
    }
}

/// Recovery resolved `journal` the one right way: forward when its swap
/// is durable (`objects` is its plan), back otherwise.
fn recovered_as(
    journal: Option<&RepackJournal>,
    objects: &[ObjectId],
    recovery: Option<WireRecovery>,
) -> Result<(), String> {
    let forward = journal.map(|j| j.new_objects == objects);
    match (forward, recovery) {
        (None, Some(WireRecovery::Clean))
        | (Some(true), Some(WireRecovery::RolledForward { .. }))
        | (Some(false), Some(WireRecovery::RolledBack { .. })) => Ok(()),
        _ => Err(format!(
            "swap durable: {forward:?}; recovery said {recovery:?}"
        )),
    }
}

/// With `shard` dead, no answer about it reads as absent, empty or
/// removed.
fn dead_shard_fails(store: &Store, shard: usize) -> Result<(), String> {
    let n = store.shard_count();
    let on_shard = |&id: &ObjectId| shard_index(id, n) == shard;
    let id = (0u32..)
        .map(|i| ObjectId::for_bytes(&i.to_le_bytes()))
        .find(on_shard)
        .unwrap();
    let probes = [
        (
            "contains_batch",
            store.contains_batch(&[id]).map(|v| format!("{v:?}")),
        ),
        (
            "object_ids",
            store.object_ids().map(|v| format!("{} ids", v.len())),
        ),
        (
            "remove_batch",
            store.remove_batch(&[id]).map(|()| "()".into()),
        ),
    ];
    match probes
        .into_iter()
        .find(|(_, answer)| !matches!(answer, Err(StoreError::Io(_))))
    {
        Some((probe, answer)) => Err(format!(
            "{probe} with shard {shard} dead answered {answer:?}"
        )),
        None => Ok(()),
    }
}

/// `stats` counts exactly the published objects: no staging file.
fn counts_only_objects<S: ObjectStore>(store: &S) -> Result<(), String> {
    let ids = store.object_ids().map_err(|e| e.to_string())?;
    let mut bytes = 0;
    for &id in &ids {
        bytes += store
            .get(id)
            .map_err(|e| e.to_string())?
            .encode(store.compresses())
            .len() as u64;
    }
    let stats = store.stats();
    match (stats.objects, stats.bytes) == (ids.len(), bytes) {
        true => Ok(()),
        false => Err(format!(
            "stats say {} objects / {} bytes; the store holds {} / {bytes}",
            stats.objects,
            stats.bytes,
            ids.len()
        )),
    }
}

/// `*.tmp` files anywhere under `dir` (none if it does not exist).
fn staging_files(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .map(|entry| entry.unwrap().path())
        .map(|path| match path.is_dir() {
            true => staging_files(&path),
            false => usize::from(path.extension().is_some_and(|ext| ext == "tmp")),
        })
        .sum()
}

/// The `Commit` request for a commit-like `op`; a refused one carries
/// some bytes all the same.
fn commit_request(op: Op, expect: &Expect, token: u64) -> Request {
    let (branch, online, hops, theta) = match op {
        Online {
            branch,
            hops,
            theta,
            ..
        } => (branch, true, hops, theta),
        Commit { branch, .. } | Retry { branch, .. } | Merge { branch, .. } => {
            (branch, false, 0, 0)
        }
        _ => unreachable!("{op:?} commits nothing"),
    };
    let data = match expect {
        Expect::Version { data, .. } => data.clone(),
        _ => base(0),
    };
    Request::Commit {
        token,
        branch: BRANCHES[branch as usize % BRANCHES.len()].to_owned(),
        message: format!("{op:?}"),
        online,
        hops: hops.into(),
        theta: THETAS[theta as usize % THETAS.len()],
        data,
    }
}

/// The `Optimize` request for these indices, bounds scaled to the
/// model's history.
fn optimize_request(model: &Model, problem: u8, bound: u8, mode: u8, solver: u8) -> Request {
    let logical: u64 = model.versions.iter().map(|v| v.len() as u64).sum();
    let widest = model
        .versions
        .iter()
        .map(|v| v.len() as u64)
        .max()
        .unwrap_or(0);
    let scale = u64::from(bound % 4) + 1;
    let problem = match problem % 6 {
        0 => Problem::MinStorage,
        1 => Problem::MinRecreation,
        2 => Problem::MinSumRecreationGivenStorage {
            beta: logical * scale / 2,
        },
        3 => Problem::MinMaxRecreationGivenStorage {
            beta: logical * scale / 2,
        },
        4 => Problem::MinStorageGivenSumRecreation {
            theta: logical * scale,
        },
        _ => Problem::MinStorageGivenMaxRecreation {
            theta: widest * scale,
        },
    };
    let [min_size, avg_size, max_size] = CHUNKS.map(|n| n as u64);
    Request::Optimize {
        problem,
        solver: match solver as usize % (SOLVERS.len() + 1) {
            0 => WireSolver::Auto,
            i => WireSolver::Named(SOLVERS[i - 1].to_owned()),
        },
        mode: [
            WireMode::Auto,
            WireMode::Binary,
            WireMode::Hybrid {
                min_size,
                avg_size,
                max_size,
            },
        ][mode as usize % 3],
        reveal_hops: 3,
        hop_bound: None,
    }
}

// ---------------------------------------------------------------------
// running streams

/// Where a run broke.
#[derive(Debug)]
pub struct Failure {
    pub config: &'static str,
    pub step: usize,
    pub message: String,
}

fn failed(config: &'static str, step: usize) -> impl FnOnce(String) -> Failure {
    move |message| Failure {
        config,
        step,
        message,
    }
}

/// `ops` on a fresh `config`, every invariant after every step, then a
/// restart from disk. The caller holds [`fault_lock`] (see [`check`]).
pub fn run(config: &'static Config, ops: &[Op]) -> Result<Run, Failure> {
    run_at(config, ops, config.threads)
}

fn run_at(config: &'static Config, ops: &[Op], threads: usize) -> Result<Run, Failure> {
    let mut run = start(config, ops, threads)?;
    run.finish().map_err(failed(config.name, ops.len()))?;
    Ok(run)
}

/// [`run`] without the final restart: the system is still up. In a
/// concurrent config, runs of commits and checkouts become rounds of one
/// op per client.
fn start(config: &'static Config, ops: &[Op], threads: usize) -> Result<Run, Failure> {
    let mut run = Run::new(config, threads);
    let mut i = 0;
    while i < ops.len() {
        let roundable = |op: &&Op| matches!(op, Commit { .. } | Online { .. } | Checkout { .. });
        let width = match (config.concurrent(), run.model.len()) {
            (true, 1..) => ops[i..]
                .iter()
                .take(config.clients)
                .take_while(roundable)
                .count(),
            _ => 0,
        };
        match width {
            0 | 1 => run.step(ops[i]).map_err(failed(config.name, i))?,
            _ => run
                .round(&ops[i..i + width])
                .map_err(failed(config.name, i))?,
        }
        i += width.max(1);
    }
    Ok(run)
}

/// `ops` on every config in `configs` at once, step by step: each run
/// keeps every invariant, and after each step configs with the same
/// placement agree on the answer, the sorted object ids and the stored
/// bytes; in-process caches read no more than the uncached reference, and
/// a zero budget reads exactly as much.
pub fn lockstep(configs: &[&'static Config], ops: &[Op]) -> Result<Vec<Run>, Failure> {
    let mut runs: Vec<Run> = configs.iter().map(|&c| Run::new(c, c.threads)).collect();
    for (i, &op) in ops.iter().enumerate() {
        for run in &mut runs {
            run.step(op).map_err(failed(run.name(), i))?;
        }
        agree(&runs).map_err(failed("lockstep", i))?;
    }
    for run in &mut runs {
        run.finish().map_err(failed(run.name(), ops.len()))?;
    }
    Ok(runs)
}

/// The cross-config invariants over the last step of each run.
fn agree(runs: &[Run]) -> Result<(), String> {
    let last = |run: &Run| run.trail.last().expect("a step ran").clone();
    for chunked in [false, true] {
        let mut same = runs.iter().filter(|r| r.sut.config.chunked == chunked);
        let Some(first) = same.next() else { continue };
        let want = last(first);
        for run in same {
            let got = last(run);
            if (&got.outcome, &got.ids, got.bytes) != (&want.outcome, &want.ids, want.bytes) {
                return Err(format!(
                    "{}: {:?}, {} objects / {} bytes; {}: {:?}, {} / {}",
                    first.name(),
                    want.outcome,
                    want.ids.len(),
                    want.bytes,
                    run.name(),
                    got.outcome,
                    got.ids.len(),
                    got.bytes
                ));
            }
        }
    }
    let in_process: Vec<&Run> = runs
        .iter()
        .filter(|r| r.sut.config.layout == Layout::Mem)
        .collect();
    let Some(uncached) = in_process.iter().find(|r| r.sut.config.cache.is_none()) else {
        return Ok(());
    };
    let base = last(uncached);
    for run in in_process {
        let t = last(run);
        let exact = run.sut.config.cache == Some(0);
        if t.reads > base.reads || (exact && (t.reads, t.hits) != (base.reads, 0)) {
            return Err(format!(
                "{} read {} bytes ({} hits); uncached {}",
                run.name(),
                t.reads,
                t.hits,
                base.reads
            ));
        }
    }
    Ok(())
}

/// A span tree's shape: each path and how often it closed.
pub type Shape = Vec<(String, u64)>;

/// `ops` on `config` at `threads` threads under a span recorder: the
/// trail, and the shape of the span tree.
pub fn traced(
    config: &'static Config,
    ops: &[Op],
    threads: usize,
) -> Result<(Vec<Trace>, Shape), Failure> {
    let recorder = Arc::new(obs::Recorder::new());
    let run = obs::with_recorder(&recorder, || run_at(config, ops, threads))?;
    Ok((run.trail, recorder.snapshot().shape()))
}

/// Runs `attempt` on `ops`, holding [`fault_lock`] — exclusively when an
/// op installs a fault plan. On failure drops one op at a time while it
/// still fails, then panics with the minimal sequence as a literal.
pub fn check<T>(what: &str, ops: &[Op], attempt: impl Fn(&[Op]) -> Result<T, Failure>) -> T {
    let installs = ops
        .iter()
        .any(|op| matches!(op, Crash { .. } | Tear { .. } | DiskFault { .. }));
    check_with(installs, what, ops, attempt)
}

fn check_with<T>(
    installs: bool,
    what: &str,
    ops: &[Op],
    attempt: impl Fn(&[Op]) -> Result<T, Failure>,
) -> T {
    let _lock = fault_lock(installs);
    let guarded = |ops: &[Op]| {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| attempt(ops)));
        caught.unwrap_or_else(|panic| {
            let message = panic.downcast_ref::<String>().cloned();
            let message = message.or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()));
            Err(failed("panic", ops.len())(message.unwrap_or_default()))
        })
    };
    let mut failure = match guarded(ops) {
        Ok(value) => return value,
        Err(failure) => failure,
    };
    let mut ops = ops.to_vec();
    loop {
        let before = ops.len();
        let mut i = 0;
        while i < ops.len() {
            let mut fewer = ops.clone();
            fewer.remove(i);
            match guarded(&fewer) {
                Err(f) => (ops, failure) = (fewer, f),
                Ok(_) => i += 1,
            }
        }
        if ops.len() == before {
            break;
        }
    }
    let Failure {
        config,
        step,
        message,
    } = failure;
    panic!(
        "{what}: {config} at step {step}: {message}\nminimal sequence ({} ops):\n{}",
        ops.len(),
        literal(&ops)
    );
}

/// A regression row: `ops` on the config named `name`, shrunk on failure.
pub fn replay(name: &str, ops: &[Op]) -> Run {
    let config = config(name);
    check(name, ops, |ops| run(config, ops))
}

/// What a sweep faults: each filesystem site `op` reaches (a crash at
/// each, and a tear at each write), or each `STORE_SITES[i]` call it makes.
pub enum Sites {
    Fs,
    Store(usize),
}

/// Runs `prefix`, then `op` with a fault at each site it reaches in turn,
/// each on a fresh system, every invariant checked through recovery.
/// Returns how many faults there were.
pub fn sweep(name: &str, prefix: &[Op], op: Op, sites: Sites) -> usize {
    let config = config(name);
    let counts_fs = matches!(sites, Sites::Fs);
    let reached: Vec<String> = check_with(counts_fs, name, prefix, |prefix| {
        let mut run = start(config, prefix, config.threads)?;
        // Stands in for the arm's step, so the op meets the same cache.
        run.step(Disconnect)
            .map_err(failed(config.name, prefix.len()))?;
        let counting = FaultPlan::count_sites();
        match sites {
            Sites::Fs => fault::install(Arc::clone(&counting)),
            Sites::Store(_) => run
                .sut
                .with_repo(|repo| repo.store().arm(Some(Arc::clone(&counting)))),
        }
        // The op alone: the invariants after it read the store too.
        let stepped = run.apply(op);
        fault::uninstall();
        run.sut.with_repo(|repo| repo.store().arm(None));
        stepped.map_err(failed(config.name, prefix.len()))?;
        Ok(counting.sites())
    });
    let mut arms = Vec::new();
    let mut seen: BTreeMap<&str, u8> = BTreeMap::new();
    for (k, reached) in reached.iter().enumerate() {
        let (site, crash) = match sites {
            Sites::Fs => (FS_SITES.iter().position(|s| s == reached), true),
            Sites::Store(i) => (Some(i).filter(|&i| STORE_SITES[i] == reached), false),
        };
        let Some(site) = site else { continue };
        let nth = seen.entry(reached.as_str()).or_default();
        arms.push(match crash {
            true => Crash {
                site: site as u8,
                k: *nth,
            },
            false => StoreFault {
                site: site as u8,
                k: *nth,
            },
        });
        *nth += 1;
        if crash && reached.ends_with(".write") {
            arms.push(Tear { k: k as u8 });
        }
    }
    assert!(!arms.is_empty(), "{name}: {op:?} reaches no site to fault");
    for &arm in &arms {
        let ops: Vec<Op> = prefix.iter().copied().chain([arm, op]).collect();
        let done = check(name, &ops, |ops| run(config, ops));
        assert!(
            !done.cov.sites.is_empty(),
            "{name}: {arm:?} never fired in {op:?}"
        );
    }
    arms.len()
}
