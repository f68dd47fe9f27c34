//! Request/response bodies for the `dsvd` protocol.
//!
//! Every message is one row of a table — [`Request`] and [`Response`]
//! below — giving its opcode, its name, and its fields in wire order;
//! the enum, `opcode()`, `name()`, `encode()` and `decode()` are all
//! generated from that row, so a message's layout is stated exactly
//! once. Field types encode through the crate-private [`Wire`] trait:
//! integers as fixed-width little-endian, booleans as one byte (`0`/`1`),
//! options as a presence byte followed by the value, strings and byte
//! blobs as a `u32` length prefix followed by the raw bytes, lists as a
//! `u32` count followed by the elements, structs as their fields in
//! order, enums as a selector byte followed by the arm's fields.
//! Decoding is strict — unknown selectors, non-UTF-8 strings, short
//! bodies, counts the body cannot hold, and trailing bytes all surface as
//! [`NetError::Malformed`], never a panic.
//!
//! See the crate docs for the frame layout and DISTRIBUTION.md for the
//! message table in prose.

use crate::frame::{errcode, opcode, Frame, NetError};
use dsv_core::{ChunkingSpec, ModePolicy, Problem, SolverChoice};
use dsv_storage::{
    CacheStats, Object, ObjectId, OpCounters, RecreationWork, ShardStats, StoreStats,
};

// ---------------------------------------------------------------------
// the codec: one trait, its primitive impls, two derive macros

/// Strict decoding cursor over a frame body.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(NetError::Malformed("body shorter than declared field"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take(1)?[0])
    }

    /// A `u32`-length-prefixed run of raw bytes, borrowed from the body.
    fn blob(&mut self) -> Result<&'a [u8], NetError> {
        let len = u32::get(self)? as usize;
        self.take(len)
    }

    /// Bytes not yet consumed — bounds a declared element count before
    /// any `Vec::with_capacity`.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decoders must consume exactly the body; trailing bytes mean the
    /// peer and we disagree about the layout.
    fn finish(self) -> Result<(), NetError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(NetError::Malformed("trailing bytes after body"))
        }
    }
}

/// A value with a fixed place in a frame body.
pub(crate) trait Wire: Sized {
    /// Fewest bytes one encoded value occupies (at least 1). A list
    /// decoder checks its declared count against this and the bytes
    /// left *before* allocating, so a corrupt count cannot trigger an
    /// outsized reservation.
    const MIN_SIZE: usize;
    /// Most elements a list of `Self` may declare, and what to call a
    /// frame that declares more — for element types whose real lists are
    /// small however large the frame.
    const MAX_RUN: (usize, &'static str) = (usize::MAX, "");

    fn put(&self, buf: &mut Vec<u8>);
    fn get(c: &mut Cursor) -> Result<Self, NetError>;
}

macro_rules! wire_int {
    ($($ty:ty),+) => {$(
        impl Wire for $ty {
            const MIN_SIZE: usize = std::mem::size_of::<$ty>();
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn get(c: &mut Cursor) -> Result<Self, NetError> {
                let bytes = c.take(Self::MIN_SIZE)?;
                Ok(<$ty>::from_le_bytes(
                    bytes.try_into().expect("take returned MIN_SIZE bytes"),
                ))
            }
        }
    )+};
}
wire_int!(u16, u32, u64);

/// Counts travel as `u64` whatever the platform's pointer width.
impl Wire for usize {
    const MIN_SIZE: usize = 8;
    fn put(&self, buf: &mut Vec<u8>) {
        (*self as u64).put(buf);
    }
    fn get(c: &mut Cursor) -> Result<Self, NetError> {
        Ok(u64::get(c)? as usize)
    }
}

impl Wire for bool {
    const MIN_SIZE: usize = 1;
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
    fn get(c: &mut Cursor) -> Result<Self, NetError> {
        match c.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(NetError::Malformed("boolean byte not 0/1")),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_SIZE: usize = 1;
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.put(buf);
            }
        }
    }
    fn get(c: &mut Cursor) -> Result<Self, NetError> {
        match c.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(c)?)),
            _ => Err(NetError::Malformed("option byte not 0/1")),
        }
    }
}

/// A byte blob is one length-prefixed copy, not a list of elements
/// (`u8` itself is deliberately not `Wire`, which is what keeps this
/// impl apart from the list impl below).
impl Wire for Vec<u8> {
    const MIN_SIZE: usize = 4;
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        buf.extend_from_slice(self);
    }
    fn get(c: &mut Cursor) -> Result<Self, NetError> {
        Ok(c.blob()?.to_vec())
    }
}

impl Wire for String {
    const MIN_SIZE: usize = 4;
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn get(c: &mut Cursor) -> Result<Self, NetError> {
        String::from_utf8(c.blob()?.to_vec()).map_err(|_| NetError::Malformed("string not UTF-8"))
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_SIZE: usize = 4;
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        for v in self {
            v.put(buf);
        }
    }
    fn get(c: &mut Cursor) -> Result<Self, NetError> {
        let n = u32::get(c)? as usize;
        if n > T::MAX_RUN.0 {
            return Err(NetError::Malformed(T::MAX_RUN.1));
        }
        if n > c.remaining() / T::MIN_SIZE {
            return Err(NetError::Malformed("count exceeds body"));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::get(c)?);
        }
        Ok(out)
    }
}

impl Wire for ObjectId {
    const MIN_SIZE: usize = 16;
    fn put(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.0);
    }
    fn get(c: &mut Cursor) -> Result<Self, NetError> {
        let bytes = c.take(16)?;
        Ok(ObjectId(bytes.try_into().expect("take returned 16 bytes")))
    }
}

/// Objects travel in their canonical *uncompressed* [`Object::encode`]
/// form (tag, base id, varint payload) as a length-prefixed blob — the
/// receiving store re-encodes per its own compression policy, so the wire
/// stays layout-agnostic and [`Object::decode`]'s strictness doubles as
/// body validation.
impl Wire for Object {
    const MIN_SIZE: usize = 4;
    fn put(&self, buf: &mut Vec<u8>) {
        self.encode(false).put(buf);
    }
    fn get(c: &mut Cursor) -> Result<Self, NetError> {
        Object::decode(c.blob()?).map_err(|_| NetError::Malformed("object blob failed to decode"))
    }
}

/// Derives [`Wire`] for a plain struct: its fields, in the order listed
/// (which is the wire order, whatever the declaration order). An
/// optional `[at most N, "what"]` caps how many a list may declare.
macro_rules! wire_struct {
    ($ty:ident { $($field:ident: $fty:ty),+ $(,)? } $([at most $max:expr, $what:literal])?) => {
        impl Wire for $ty {
            const MIN_SIZE: usize = 0 $(+ <$fty as Wire>::MIN_SIZE)+;
            $(const MAX_RUN: (usize, &'static str) = ($max, $what);)?
            fn put(&self, buf: &mut Vec<u8>) {
                $(self.$field.put(buf);)+
            }
            fn get(c: &mut Cursor) -> Result<Self, NetError> {
                Ok($ty { $($field: <$fty as Wire>::get(c)?),+ })
            }
        }
    };
}

/// Derives [`Wire`] for a tagged enum: one selector byte, then the arm's
/// fields in the order listed. Each arm's `( … )` is used both as the
/// match pattern when encoding and as the constructor when decoding, so
/// it names the bindings its field list declares.
macro_rules! wire_enum {
    ($ty:ty, $unknown:literal;
     $($tag:literal => ($($arm:tt)+) { $($field:ident: $fty:ty),* }),+ $(,)?) => {
        impl Wire for $ty {
            const MIN_SIZE: usize = 1;
            fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $($($arm)+ => {
                        buf.push($tag);
                        $($field.put(buf);)*
                    })+
                }
            }
            fn get(c: &mut Cursor) -> Result<Self, NetError> {
                Ok(match c.u8()? {
                    $($tag => {
                        $(let $field = <$fty as Wire>::get(c)?;)*
                        $($arm)+
                    })+
                    _ => return Err(NetError::Malformed($unknown)),
                })
            }
        }
    };
}

/// Defines one direction of the protocol from its message table. Each
/// row reads `OPCODE, "name" => Variant`, optionally followed by
/// `{ field: Type, … }` or `(binding: Type)` — the fields in wire order.
/// Generated from the rows: the enum itself, `opcode()`, `name()`,
/// `encode()` and `decode()`. To add an operation, add a row here and
/// its constant in [`opcode`]; nothing else in this crate names the
/// layout.
macro_rules! messages {
    (
        $(#[$enum_meta:meta])*
        pub enum $name:ident {
            $(
                $(#[$meta:meta])*
                $op:ident, $label:literal => $variant:ident
                    $({ $($(#[$fmeta:meta])* $field:ident: $fty:ty),+ $(,)? })?
                    $(($inner:ident: $ity:ty))?
            ),+ $(,)?
        }
    ) => {
        $(#[$enum_meta])*
        pub enum $name {
            $(
                $(#[$meta])*
                $variant $({ $($(#[$fmeta])* $field: $fty),+ })? $(($ity))?
            ),+
        }

        // The three matches below bind every field of every variant;
        // only `encode` reads them.
        #[allow(unused_variables)]
        impl $name {
            /// The opcode this message travels under.
            pub fn opcode(&self) -> u8 {
                match self {
                    $($name::$variant $({ $($field),+ })? $(($inner))? => opcode::$op),+
                }
            }

            /// Short stable name, for span labels and diagnostics.
            pub fn name(&self) -> &'static str {
                match self {
                    $($name::$variant $({ $($field),+ })? $(($inner))? => $label),+
                }
            }

            /// The frame for this message: fields in table order.
            pub fn encode(&self) -> Frame {
                let mut body = Vec::new();
                match self {
                    $($name::$variant $({ $($field),+ })? $(($inner))? => {
                        $($($field.put(&mut body);)+)?
                        $($inner.put(&mut body);)?
                    })+
                }
                Frame::new(self.opcode(), body)
            }

            /// Strict inverse of [`Self::encode`]: the body must hold
            /// exactly the opcode's fields.
            pub fn decode(frame: &Frame) -> Result<$name, NetError> {
                let mut c = Cursor::new(&frame.body);
                let msg = match frame.opcode {
                    $(opcode::$op => $name::$variant
                        $({ $($field: <$fty as Wire>::get(&mut c)?),+ })?
                        $((<$ity as Wire>::get(&mut c)?))?,)+
                    other => return Err(NetError::UnknownOpcode(other)),
                };
                c.finish()?;
                Ok(msg)
            }
        }
    };
}

// ---------------------------------------------------------------------
// the types that travel inside messages

/// Solver selection on the wire — mirrors [`SolverChoice`] with an owned
/// name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireSolver {
    Auto,
    Named(String),
    Portfolio,
}

impl WireSolver {
    pub fn to_choice(&self) -> SolverChoice {
        match self {
            WireSolver::Auto => SolverChoice::Auto,
            WireSolver::Named(name) => SolverChoice::Named(name.clone()),
            WireSolver::Portfolio => SolverChoice::Portfolio,
        }
    }
}

/// Mode policy on the wire — mirrors [`ModePolicy`]; hybrid carries the
/// client's chunker configuration (ignored by a chunked-placement server,
/// which keeps its own granularity, matching local `--hybrid`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMode {
    Auto,
    Binary,
    Hybrid {
        min_size: u64,
        avg_size: u64,
        max_size: u64,
    },
}

impl WireMode {
    pub fn to_policy(&self) -> ModePolicy {
        match *self {
            WireMode::Auto => ModePolicy::Auto,
            WireMode::Binary => ModePolicy::Binary,
            WireMode::Hybrid {
                min_size,
                avg_size,
                max_size,
            } => ModePolicy::Hybrid(ChunkingSpec {
                min_size: min_size as usize,
                avg_size: avg_size as usize,
                max_size: max_size as usize,
            }),
        }
    }
}

/// One portfolio candidate's numbers, mirroring
/// `dsv_core::CandidateSummary` with the solver name owned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateLine {
    pub solver: String,
    /// `Err` carries the solver's rendered `SolveError`.
    pub outcome: Result<CandidateNumbers, String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateNumbers {
    pub objective: u64,
    pub storage: u64,
    pub sum_recreation: u64,
    pub max_recreation: u64,
    pub feasible: bool,
}

/// Everything the client needs to print an optimize outcome exactly as
/// the local CLI does — `dsv_vcs::OptimizeReport` flattened to owned
/// strings (solver names are `&'static str` locally).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimizeSummary {
    /// Rendered problem, e.g. `P3(β=4096)`.
    pub problem: String,
    pub solver: String,
    pub feasible: bool,
    pub portfolio: bool,
    pub storage_before: u64,
    pub storage_after: u64,
    pub materialized: u64,
    pub chunked: u64,
    pub planned_storage_cost: u64,
    pub planned_max_recreation: u64,
    pub planned_sum_recreation: u64,
    pub candidates: Vec<CandidateLine>,
}

/// Store-wide numbers for `stats`/`store`, plus the server's shared
/// checkout-cache stats when one is installed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSummary {
    pub stats: StoreStats,
    pub logical_bytes: u64,
    pub cache: Option<CacheStats>,
}

/// What server-side fsck recovery did, on the wire — mirrors
/// `dsv_vcs::fsck::Recovery`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireRecovery {
    Clean,
    RolledForward { removed: u64 },
    RolledBack { removed: u64 },
}

/// `dsv_vcs::fsck::FsckReport` flattened to counts for the wire (the
/// offending ids stay server-side; the server logs them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckSummary {
    pub clean: bool,
    pub versions_checked: u64,
    pub objects_checked: u64,
    pub bad_addresses: u64,
    pub unreadable: u64,
    pub orphans: u64,
    pub orphans_removed: u64,
    pub journal_pending: bool,
    /// `None` for read-only checks; recovery outcome under `--repair`.
    pub recovery: Option<WireRecovery>,
}

/// The one rendering of an fsck outcome: `dsv fsck` prints it whether
/// the check ran locally or behind `--remote`, and
/// `dsv_vcs::FsckReport` displays through it.
impl std::fmt::Display for FsckSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fsck: {} versions, {} objects checked",
            self.versions_checked, self.objects_checked
        )?;
        match self.recovery {
            None | Some(WireRecovery::Clean) => {}
            Some(WireRecovery::RolledForward { removed }) => {
                write!(f, "; journal rolled forward ({removed} stale removed)")?
            }
            Some(WireRecovery::RolledBack { removed }) => {
                write!(f, "; journal rolled back ({removed} orphans removed)")?
            }
        }
        if self.bad_addresses > 0 {
            write!(f, "; {} BAD ADDRESSES", self.bad_addresses)?;
        }
        if self.unreadable > 0 {
            write!(f, "; {} UNREADABLE VERSIONS", self.unreadable)?;
        }
        if self.orphans_removed > 0 {
            write!(f, "; {} orphans removed", self.orphans_removed)?;
        } else if self.orphans > 0 {
            write!(f, "; {} orphans", self.orphans)?;
        }
        if self.journal_pending {
            write!(f, "; REPACK JOURNAL PENDING")?;
        }
        write!(f, "; {}", if self.clean { "clean" } else { "NOT CLEAN" })
    }
}

wire_struct!(RecreationWork {
    objects_fetched: usize,
    bytes_read: u64,
    bytes_written: u64,
    cache_hits: usize,
    bytes_saved: u64,
});
wire_struct!(CacheStats {
    budget_bytes: u64,
    bytes: u64,
    entries: usize,
    lookups: u64,
    hits: u64,
    misses: u64,
    admitted: u64,
    rejected: u64,
    evictions: u64,
    bytes_saved: u64,
});
// Shard count is server-controlled but still bounded defensively: the
// stores cap at well under 2^16 shards.
wire_struct!(ShardStats { objects: usize, bytes: u64, batch_ns: u64 }
    [at most 1 << 16, "implausible shard count"]);
wire_struct!(OpCounters {
    puts: u64,
    gets: u64,
    batch_puts: u64,
    batch_put_objects: u64,
    batch_gets: u64,
    batch_get_objects: u64,
    removes: u64,
});
wire_struct!(StoreStats {
    objects: usize,
    bytes: u64,
    shards: Vec<ShardStats>,
    ops: OpCounters,
});
wire_struct!(CandidateNumbers {
    objective: u64,
    storage: u64,
    sum_recreation: u64,
    max_recreation: u64,
    feasible: bool,
});
wire_struct!(CandidateLine { solver: String, outcome: Result<CandidateNumbers, String> }
    [at most 1 << 16, "implausible candidate count"]);
wire_struct!(OptimizeSummary {
    problem: String,
    solver: String,
    feasible: bool,
    portfolio: bool,
    storage_before: u64,
    storage_after: u64,
    materialized: u64,
    chunked: u64,
    planned_storage_cost: u64,
    planned_max_recreation: u64,
    planned_sum_recreation: u64,
    candidates: Vec<CandidateLine>,
});
wire_struct!(StatsSummary {
    stats: StoreStats,
    logical_bytes: u64,
    cache: Option<CacheStats>,
});
wire_struct!(FsckSummary {
    clean: bool,
    versions_checked: u64,
    objects_checked: u64,
    bad_addresses: u64,
    unreadable: u64,
    orphans: u64,
    orphans_removed: u64,
    journal_pending: bool,
    recovery: Option<WireRecovery>,
});

// Every problem is a kind byte plus one u64 bound, and the unbounded
// kinds carry a zero — a fixed-width shape `wire_enum!`'s per-arm field
// lists cannot say, so this one enum is written out.
impl Wire for Problem {
    const MIN_SIZE: usize = 9;
    fn put(&self, buf: &mut Vec<u8>) {
        let (kind, bound) = match *self {
            Problem::MinStorage => (1, 0),
            Problem::MinRecreation => (2, 0),
            Problem::MinSumRecreationGivenStorage { beta } => (3, beta),
            Problem::MinMaxRecreationGivenStorage { beta } => (4, beta),
            Problem::MinStorageGivenSumRecreation { theta } => (5, theta),
            Problem::MinStorageGivenMaxRecreation { theta } => (6, theta),
        };
        buf.push(kind);
        bound.put(buf);
    }
    fn get(c: &mut Cursor) -> Result<Self, NetError> {
        let kind = c.u8()?;
        let bound = u64::get(c)?;
        Ok(match kind {
            1 => Problem::MinStorage,
            2 => Problem::MinRecreation,
            3 => Problem::MinSumRecreationGivenStorage { beta: bound },
            4 => Problem::MinMaxRecreationGivenStorage { beta: bound },
            5 => Problem::MinStorageGivenSumRecreation { theta: bound },
            6 => Problem::MinStorageGivenMaxRecreation { theta: bound },
            _ => return Err(NetError::Malformed("unknown problem kind")),
        })
    }
}
wire_enum!(WireSolver, "unknown solver selector";
    0 => (WireSolver::Auto) {},
    1 => (WireSolver::Named(name)) { name: String },
    2 => (WireSolver::Portfolio) {},
);
wire_enum!(WireMode, "unknown mode selector";
    0 => (WireMode::Auto) {},
    1 => (WireMode::Binary) {},
    2 => (WireMode::Hybrid { min_size, avg_size, max_size })
        { min_size: u64, avg_size: u64, max_size: u64 },
);
// The recovery selector doubles as the option's presence byte (0 = no
// recovery ran). `WireRecovery` alone is deliberately not `Wire`, which
// is what keeps this impl apart from the blanket `Option<T>` one.
wire_enum!(Option<WireRecovery>, "unknown recovery selector";
    0 => (None) {},
    1 => (Some(WireRecovery::Clean)) {},
    2 => (Some(WireRecovery::RolledForward { removed })) { removed: u64 },
    3 => (Some(WireRecovery::RolledBack { removed })) { removed: u64 },
);
wire_enum!(Result<CandidateNumbers, String>, "candidate outcome byte not 0/1";
    1 => (Ok(numbers)) { numbers: CandidateNumbers },
    0 => (Err(error)) { error: String },
);

// ---------------------------------------------------------------------
// the message tables

messages! {
    /// Client → server messages. One request maps to exactly one response
    /// frame (the matching `*Ok` opcode or an error frame).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Request {
        /// Handshake; must be the first frame on a connection.
        HELLO, "hello" => Hello { version: u16 },
        PING, "ping" => Ping,
        COMMIT, "commit" => Commit {
            /// Idempotency token: the server records the response per token,
            /// so a commit retried after a lost response (same token) replays
            /// the recorded answer instead of double-applying. `0` opts out.
            token: u64,
            branch: String,
            message: String,
            online: bool,
            /// Reveal neighborhood for `--online` placement.
            hops: u32,
            /// `--theta`: recreation bound in bytes.
            theta: Option<u64>,
            data: Vec<u8>,
        },
        CHECKOUT, "checkout" => Checkout { version: u32 },
        OPTIMIZE, "optimize" => Optimize {
            problem: Problem,
            solver: WireSolver,
            mode: WireMode,
            reveal_hops: u32,
            hop_bound: Option<u32>,
        },
        STATS, "stats" => Stats,
        SHUTDOWN, "shutdown" => Shutdown,
        /// Verify the served repository's integrity (`dsv fsck --remote`);
        /// with `repair`, also resolve pending journals and GC orphans.
        FSCK, "fsck" => Fsck { repair: bool },
        /// Store a batch of objects on a bare store server (v3). Objects
        /// travel in their canonical uncompressed encoding; the server
        /// re-encodes per its own compression policy. Idempotent
        /// (content-addressed), so blind retries are safe.
        STORE_PUT, "store.put" => StorePut { objs: Vec<Object> },
        /// Fetch a batch of objects by id (v3). The response carries one
        /// presence-tagged slot per id, in input order.
        STORE_GET, "store.get" => StoreGet { ids: Vec<ObjectId> },
        /// Membership of each id (v3).
        STORE_CONTAINS, "store.contains" => StoreContains { ids: Vec<ObjectId> },
        /// Remove each id; unknown ids are ignored (v3).
        STORE_REMOVE, "store.remove" => StoreRemove { ids: Vec<ObjectId> },
        /// Enumerate every object id the store holds (v3) — the fsck /
        /// orphan-scan surface.
        STORE_IDS, "store.ids" => StoreObjectIds,
        /// The store's fill and operation counters (v3).
        STORE_STATS, "store.stats" => StoreStats,
    }
}

messages! {
    /// Server → client messages.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Response {
        HELLO_OK, "hello_ok" => HelloOk { version: u16 },
        PONG, "pong" => Pong,
        COMMIT_OK, "commit_ok" => CommitOk {
            /// The new version's numeric id (`CommitId.0`).
            id: u32,
            bytes: u64,
            online: bool,
        },
        CHECKOUT_OK, "checkout_ok" => CheckoutOk { work: RecreationWork, data: Vec<u8> },
        OPTIMIZE_OK, "optimize_ok" => OptimizeOk(summary: OptimizeSummary),
        STATS_OK, "stats_ok" => StatsOk(summary: StatsSummary),
        SHUTDOWN_OK, "shutdown_ok" => ShutdownOk,
        FSCK_OK, "fsck_ok" => FsckOk(summary: FsckSummary),
        /// Ids of the objects a `StorePut` stored, in input order (v3).
        STORE_PUT_OK, "store.put_ok" => StorePutOk { ids: Vec<ObjectId> },
        /// One slot per requested id, in input order; `None` = not held (v3).
        STORE_GET_OK, "store.get_ok" => StoreGetOk { objs: Vec<Option<Object>> },
        /// Membership per requested id, in input order (v3).
        STORE_CONTAINS_OK, "store.contains_ok" => StoreContainsOk { present: Vec<bool> },
        /// Acknowledges a `StoreRemove` (v3).
        STORE_REMOVE_OK, "store.remove_ok" => StoreRemoveOk,
        /// Every object id held, unspecified order (v3).
        STORE_IDS_OK, "store.ids_ok" => StoreObjectIdsOk { ids: Vec<ObjectId> },
        /// Fill and operation counters of the served store (v3).
        STORE_STATS_OK, "store.stats_ok" => StoreStatsOk(stats: StoreStats),
        ERROR, "error" => Error { code: u16, message: String },
    }
}

impl Response {
    /// Structured error frame for a codec/server failure.
    pub fn error_for(err: &NetError) -> Response {
        Response::Error {
            code: err.code(),
            message: err.to_string(),
        }
    }

    /// Server-side (VCS/repository) failure.
    pub fn server_error(message: impl Into<String>) -> Response {
        Response::Error {
            code: errcode::SERVER,
            message: message.into(),
        }
    }
}
