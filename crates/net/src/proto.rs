//! Request/response bodies for the `dsv serve` protocol.
//!
//! Every message is one row of a table — [`Request`] and [`Response`]
//! below — giving its opcode, its name, and its fields in wire order;
//! the enum, its borrowed twin ([`RequestRef`] / [`ResponseRef`]),
//! `opcode()`, `name()`, `gather()` / `encode()` and `read_body()` /
//! `decode()` are all generated from that row, so a message's layout is
//! stated exactly once. Field types encode through the crate-private
//! `Wire` trait: integers as fixed-width little-endian, booleans as one
//! byte (`0`/`1`), options as a presence byte followed by the value,
//! strings and byte blobs as a `u32` length prefix followed by the raw
//! bytes, lists as a `u32` count followed by the elements, structs as
//! their fields in order, enums as a selector byte followed by the arm's
//! fields. Decoding is strict — unknown selectors, non-UTF-8 strings,
//! short bodies, counts the body cannot hold, and trailing bytes all
//! surface as [`NetError::Malformed`], never a panic.
//!
//! # One codec, two spellings
//!
//! A message is written into an [`Outgoing`]: fixed fields go into a
//! small head buffer, and a bulk payload (a version's bytes, an object
//! blob) is *lent* — the frame leaves as one gathered write over head and
//! payloads, so the payload is never copied in user space. A message is
//! read from a `Body`: a reader limited to the declared body length,
//! from which every blob is read straight into its final `Vec`. The
//! server and the client speak only this streamed form
//! ([`ResponseRef::gather`] + [`Outgoing::write_to`],
//! [`crate::frame::read_header`] + `read_body`). `encode()` / `decode()`
//! are the same generated code over memory — `gather()` flattened into a
//! [`Frame`], `read_body` over the frame's bytes — kept for callers that
//! want a frame in hand (tests, the benchmark's codec probes).
//!
//! See the crate docs for the frame layout and DISTRIBUTION.md for the
//! message table in prose.

use crate::frame::{
    errcode, opcode, read_bounded, write_gathered, Frame, FrameHeader, NetError, EAGER_BYTES,
    HEADER_LEN,
};
use dsv_core::{ChunkerParams, ModePolicy, Problem, SolveError, SolverChoice};
use dsv_storage::{
    CacheStats, Object, ObjectId, OpCounters, RecreationWork, ShardStats, StoreStats,
};
use std::borrow::Cow;
use std::io::{IoSlice, Read, Write};
use std::sync::Arc;

// ---------------------------------------------------------------------
// the codec: a gather list out, a bounded reader in, one trait over both

/// Blobs shorter than this are copied into the head: an `iovec` of its
/// own costs more than moving a few hundred bytes.
const LEND_MIN: usize = 1024;

/// One frame on its way out: the header and every fixed field in `head`,
/// bulk payloads lent beside it. [`Outgoing::write_to`] sends both as one
/// gathered write; nothing here copies a lent payload.
pub struct Outgoing<'a> {
    /// Frame header, then every byte that is not lent, in wire order.
    head: Vec<u8>,
    /// The lent payloads, each with the offset in `head` it belongs at.
    lent: Vec<(usize, Cow<'a, [u8]>)>,
}

impl<'a> Outgoing<'a> {
    fn new(opcode: u8) -> Self {
        // Room for the fixed fields of any row but the summaries.
        let mut head = Vec::with_capacity(64);
        head.extend_from_slice(&[0, 0, 0, 0, opcode]);
        Outgoing {
            head,
            lent: Vec::new(),
        }
    }

    fn fixed(&mut self, bytes: &[u8]) {
        self.head.extend_from_slice(bytes);
    }

    /// A `u32`-length-prefixed run of raw bytes: lent when it is worth
    /// an `iovec`, copied into the head when it is not.
    fn blob(&mut self, bytes: Cow<'a, [u8]>) {
        self.fixed(&(bytes.len() as u32).to_le_bytes());
        if bytes.len() < LEND_MIN {
            self.fixed(&bytes);
        } else {
            self.lent.push((self.head.len(), bytes));
        }
    }

    /// Writes the body length into the header once the fields are in.
    fn sealed(mut self) -> Self {
        let body = self.wire_len() - HEADER_LEN;
        self.head[..4].copy_from_slice(&(body as u32).to_le_bytes());
        self
    }

    /// Total bytes this frame occupies on the wire (header + body).
    pub fn wire_len(&self) -> u64 {
        let lent: usize = self.lent.iter().map(|(_, bytes)| bytes.len()).sum();
        (self.head.len() + lent) as u64
    }

    /// The frame's bytes in wire order, as the slices they live in.
    fn pieces(&self) -> impl Iterator<Item = &[u8]> {
        let mut at = 0;
        let lent = self.lent.iter().flat_map(move |(offset, bytes)| {
            let fixed = &self.head[at..*offset];
            at = *offset;
            [fixed, &bytes[..]]
        });
        let tail = self.lent.last().map_or(0, |(offset, _)| *offset);
        lent.chain(std::iter::once(&self.head[tail..]))
    }

    /// Sends the frame — header, fixed fields and lent payloads — as one
    /// gathered write (one `writev`, one segment train), then flushes.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), NetError> {
        if self.lent.is_empty() {
            w.write_all(&self.head)?;
            return Ok(w.flush()?);
        }
        let mut slices: Vec<IoSlice<'_>> = self.pieces().map(IoSlice::new).collect();
        write_gathered(w, &mut slices)
    }

    /// The same frame in memory: the one copy a caller that wants a
    /// [`Frame`] in hand pays.
    fn into_frame(self) -> Frame {
        let mut body = Vec::with_capacity((self.wire_len() - HEADER_LEN) as usize);
        let mut pieces = self.pieces();
        let first = pieces.next().expect("the head piece is always there");
        body.extend_from_slice(&first[HEADER_LEN as usize..]);
        for piece in pieces {
            body.extend_from_slice(piece);
        }
        Frame::new(self.head[4], body)
    }
}

/// Strict decoding reader over one frame body: `src` limited to the
/// `left` bytes the header declared and nothing has consumed yet.
pub(crate) struct Body<'r> {
    src: &'r mut dyn Read,
    left: usize,
}

impl Body<'_> {
    /// Takes `n` bytes out of the declared remainder — the check every
    /// field makes *before* it reads or allocates.
    fn claim(&mut self, n: usize) -> Result<(), NetError> {
        self.left = self
            .left
            .checked_sub(n)
            .ok_or(NetError::Malformed("body shorter than declared field"))?;
        Ok(())
    }

    fn fixed<const N: usize>(&mut self) -> Result<[u8; N], NetError> {
        self.claim(N)?;
        let mut bytes = [0u8; N];
        self.src.read_exact(&mut bytes)?;
        Ok(bytes)
    }

    fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.fixed::<1>()?[0])
    }

    /// A `u32`-length-prefixed run of raw bytes, read into the `Vec` it
    /// will live in.
    fn blob(&mut self) -> Result<Vec<u8>, NetError> {
        let len = u32::get(self)? as usize;
        self.claim(len)?;
        let mut out = Vec::new();
        read_bounded(&mut *self.src, len, &mut out)?;
        Ok(out)
    }

    /// Bytes not yet consumed — bounds a declared element count before
    /// any `Vec::with_capacity`.
    fn remaining(&self) -> usize {
        self.left
    }

    /// Decoders must consume exactly the body; trailing bytes mean the
    /// peer and we disagree about the layout.
    fn finish(&self) -> Result<(), NetError> {
        if self.left == 0 {
            Ok(())
        } else {
            Err(NetError::Malformed("trailing bytes after body"))
        }
    }

    /// Skips what is left of the body, so the stream stands at the next
    /// frame boundary whatever the body turned out to hold.
    fn drain(&mut self) -> Result<(), NetError> {
        let left = std::mem::take(&mut self.left) as u64;
        if std::io::copy(&mut (&mut *self.src).take(left), &mut std::io::sink())? < left {
            return Err(NetError::Truncated);
        }
        Ok(())
    }
}

/// Reads one message body of `len` bytes from `src` with `parse`. A body
/// that does not parse ([`NetError::Malformed`], [`NetError::UnknownOpcode`])
/// is drained to its declared end first, so the caller can answer in-band
/// and read the next frame; a stream that ends or stalls inside the body
/// is the transport error it always was.
fn read_message<T>(
    opcode: u8,
    len: usize,
    src: &mut dyn Read,
    parse: fn(u8, &mut Body<'_>) -> Result<T, NetError>,
) -> Result<T, NetError> {
    let mut body = Body { src, left: len };
    let parsed = parse(opcode, &mut body).and_then(|msg| body.finish().map(|()| msg));
    if let Err(NetError::Malformed(_) | NetError::UnknownOpcode(_)) = parsed {
        body.drain()?;
    }
    parsed
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

    fn put<'a>(&'a self, out: &mut Outgoing<'a>);
    fn get(body: &mut Body<'_>) -> Result<Self, NetError>;
}

macro_rules! wire_int {
    ($($ty:ty),+) => {$(
        impl Wire for $ty {
            const MIN_SIZE: usize = std::mem::size_of::<$ty>();
            fn put<'a>(&'a self, out: &mut Outgoing<'a>) {
                out.fixed(&self.to_le_bytes());
            }
            fn get(body: &mut Body<'_>) -> Result<Self, NetError> {
                Ok(<$ty>::from_le_bytes(body.fixed()?))
            }
        }
    )+};
}
wire_int!(u16, u32, u64);

/// Counts travel as `u64` whatever the platform's pointer width.
impl Wire for usize {
    const MIN_SIZE: usize = 8;
    fn put<'a>(&'a self, out: &mut Outgoing<'a>) {
        out.fixed(&(*self as u64).to_le_bytes());
    }
    fn get(body: &mut Body<'_>) -> Result<Self, NetError> {
        Ok(u64::get(body)? as usize)
    }
}

impl Wire for bool {
    const MIN_SIZE: usize = 1;
    fn put<'a>(&'a self, out: &mut Outgoing<'a>) {
        out.fixed(&[*self as u8]);
    }
    fn get(body: &mut Body<'_>) -> Result<Self, NetError> {
        match body.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(NetError::Malformed("boolean byte not 0/1")),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_SIZE: usize = 1;
    fn put<'a>(&'a self, out: &mut Outgoing<'a>) {
        match self {
            None => out.fixed(&[0]),
            Some(v) => {
                out.fixed(&[1]);
                v.put(out);
            }
        }
    }
    fn get(body: &mut Body<'_>) -> Result<Self, NetError> {
        match body.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(body)?)),
            _ => Err(NetError::Malformed("option byte not 0/1")),
        }
    }
}

/// A byte blob is one length-prefixed run, lent on the way out and read
/// into place on the way in — not a list of elements (`u8` itself is
/// deliberately not `Wire`, which is what keeps this impl apart from the
/// list impl below).
impl Wire for Vec<u8> {
    const MIN_SIZE: usize = 4;
    fn put<'a>(&'a self, out: &mut Outgoing<'a>) {
        out.blob(Cow::Borrowed(self));
    }
    fn get(body: &mut Body<'_>) -> Result<Self, NetError> {
        body.blob()
    }
}

impl Wire for String {
    const MIN_SIZE: usize = 4;
    fn put<'a>(&'a self, out: &mut Outgoing<'a>) {
        out.blob(Cow::Borrowed(self.as_bytes()));
    }
    fn get(body: &mut Body<'_>) -> Result<Self, NetError> {
        String::from_utf8(body.blob()?).map_err(|_| NetError::Malformed("string not UTF-8"))
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_SIZE: usize = 4;
    fn put<'a>(&'a self, out: &mut Outgoing<'a>) {
        out.fixed(&(self.len() as u32).to_le_bytes());
        for v in self {
            v.put(out);
        }
    }
    fn get(body: &mut Body<'_>) -> Result<Self, NetError> {
        let n = u32::get(body)? as usize;
        if n > T::MAX_RUN.0 {
            return Err(NetError::Malformed(T::MAX_RUN.1));
        }
        if n > body.remaining() / T::MIN_SIZE {
            return Err(NetError::Malformed("count exceeds body"));
        }
        // The count fits the *declared* body; what is reserved before the
        // elements arrive is bounded like any other read.
        let mut out = Vec::with_capacity(n.min(EAGER_BYTES / std::mem::size_of::<T>().max(1)));
        for _ in 0..n {
            out.push(T::get(body)?);
        }
        Ok(out)
    }
}

impl Wire for ObjectId {
    const MIN_SIZE: usize = 16;
    fn put<'a>(&'a self, out: &mut Outgoing<'a>) {
        out.fixed(&self.0);
    }
    fn get(body: &mut Body<'_>) -> Result<Self, NetError> {
        Ok(ObjectId(body.fixed()?))
    }
}

/// Objects travel in their canonical *uncompressed* [`Object::encode`]
/// form (tag, base id, varint payload) as a length-prefixed blob — the
/// receiving store re-encodes per its own compression policy, so the wire
/// stays layout-agnostic and [`Object::decode_owned`]'s strictness doubles
/// as body validation. The encoding is handed to the frame as it is, and
/// a raw payload stays in the buffer it was received into.
impl Wire for Object {
    const MIN_SIZE: usize = 4;
    fn put<'a>(&'a self, out: &mut Outgoing<'a>) {
        out.blob(Cow::Owned(self.encode(false)));
    }
    fn get(body: &mut Body<'_>) -> Result<Self, NetError> {
        Object::decode_owned(body.blob()?)
            .map_err(|_| NetError::Malformed("object blob failed to decode"))
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
            fn put<'a>(&'a self, out: &mut Outgoing<'a>) {
                $(self.$field.put(out);)+
            }
            fn get(body: &mut Body<'_>) -> Result<Self, NetError> {
                Ok($ty { $($field: <$fty as Wire>::get(body)?),+ })
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
            fn put<'a>(&'a self, out: &mut Outgoing<'a>) {
                match self {
                    $($($arm)+ => {
                        out.fixed(&[$tag]);
                        $($field.put(out);)*
                    })+
                }
            }
            fn get(body: &mut Body<'_>) -> Result<Self, NetError> {
                Ok(match body.u8()? {
                    $($tag => {
                        $(let $field = <$fty as Wire>::get(body)?;)*
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
/// Generated from the rows: the enum itself, its borrowed twin (`lent as`:
/// the same variants with every field a reference, for a sender that does
/// not own its payload), `opcode()`, `name()`, `lend()`, `gather()` /
/// `encode()` and `read_body()` / `decode()`. To add an operation, add a
/// row here and its constant in [`opcode`]; nothing else in this crate
/// names the layout.
///
/// A row's bulk field — the version, the object blobs — sits last: what
/// precedes it is the head of the gathered write, and a reader has every
/// fixed field checked before the first payload byte is allocated for.
macro_rules! messages {
    (
        $(#[$enum_meta:meta])*
        pub enum $name:ident, lent as $lent:ident {
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

        #[doc = concat!("[`", stringify!($name), "`] with every field borrowed: what a sender \
                         holds when the payload is someone else's (a cache's, a caller's).")]
        #[derive(Debug, Clone, Copy)]
        pub enum $lent<'a> {
            $($variant $({ $($field: &'a $fty),+ })? $((&'a $ity))?),+
        }

        // The matches below bind every field of every variant; `lend`
        // and `gather` read them.
        #[allow(unused_variables)]
        impl $name {
            /// The opcode this message travels under.
            pub fn opcode(&self) -> u8 {
                self.lend().opcode()
            }

            /// Short stable name, for span labels and diagnostics.
            pub fn name(&self) -> &'static str {
                match self {
                    $($name::$variant $({ $($field),+ })? $(($inner))? => $label),+
                }
            }

            /// This message with its fields borrowed.
            pub fn lend(&self) -> $lent<'_> {
                match self {
                    $($name::$variant $({ $($field),+ })? $(($inner))? =>
                        $lent::$variant $({ $($field),+ })? $(($inner))?),+
                }
            }

            /// The frame for this message, in memory: fields in table
            /// order.
            pub fn encode(&self) -> Frame {
                self.lend().gather().into_frame()
            }

            /// Strict inverse of [`Self::encode`]: the body must hold
            /// exactly the opcode's fields.
            pub fn decode(frame: &Frame) -> Result<$name, NetError> {
                read_message(frame.opcode, frame.body.len(), &mut &frame.body[..], Self::parse)
            }

            /// Reads the body `header` announces straight off `r` — the
            /// streamed [`Self::decode`]: same checks, same errors, each
            /// payload landing in its final `Vec`. After
            /// [`NetError::Malformed`] / [`NetError::UnknownOpcode`] the
            /// stream stands at the next frame.
            pub fn read_body<R: Read>(header: FrameHeader, r: &mut R) -> Result<$name, NetError> {
                read_message(header.opcode, header.len as usize, r, Self::parse)
            }

            fn parse(opcode: u8, body: &mut Body<'_>) -> Result<$name, NetError> {
                Ok(match opcode {
                    $(opcode::$op => $name::$variant
                        $({ $($field: <$fty as Wire>::get(body)?),+ })?
                        $((<$ity as Wire>::get(body)?))?,)+
                    other => return Err(NetError::UnknownOpcode(other)),
                })
            }
        }

        #[allow(unused_variables)]
        impl<'a> $lent<'a> {
            /// The opcode this message travels under.
            pub fn opcode(&self) -> u8 {
                match self {
                    $($lent::$variant $({ $($field),+ })? $(($inner))? => opcode::$op),+
                }
            }

            /// The frame for this message, ready for one gathered write:
            /// fields in table order, bulk payloads lent.
            pub fn gather(&self) -> Outgoing<'a> {
                let mut out = Outgoing::new(self.opcode());
                match *self {
                    $($lent::$variant $({ $($field),+ })? $(($inner))? => {
                        $($($field.put(&mut out);)+)?
                        $($inner.put(&mut out);)?
                    })+
                }
                out.sealed()
            }
        }
    };
}

// ---------------------------------------------------------------------
// the types that travel inside messages

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
    /// The planner's policy. A hybrid spec goes through
    /// [`ChunkerParams::new`], so sizes a client sent out of range are an
    /// [`SolveError::InvalidParameter`], never a chunker.
    pub fn to_policy(&self) -> Result<ModePolicy, SolveError> {
        Ok(match *self {
            WireMode::Auto => ModePolicy::Auto,
            WireMode::Binary => ModePolicy::Binary,
            WireMode::Hybrid {
                min_size,
                avg_size,
                max_size,
            } => {
                let size = |n: u64| usize::try_from(n).unwrap_or(usize::MAX);
                ModePolicy::Hybrid(ChunkerParams::new(
                    size(min_size),
                    size(avg_size),
                    size(max_size),
                )?)
            }
        })
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
    fn put<'a>(&'a self, out: &mut Outgoing<'a>) {
        let (kind, bound): (u8, u64) = match *self {
            Problem::MinStorage => (1, 0),
            Problem::MinRecreation => (2, 0),
            Problem::MinSumRecreationGivenStorage { beta } => (3, beta),
            Problem::MinMaxRecreationGivenStorage { beta } => (4, beta),
            Problem::MinStorageGivenSumRecreation { theta } => (5, theta),
            Problem::MinStorageGivenMaxRecreation { theta } => (6, theta),
        };
        out.fixed(&[kind]);
        out.fixed(&bound.to_le_bytes());
    }
    fn get(body: &mut Body<'_>) -> Result<Self, NetError> {
        let kind = body.u8()?;
        let bound = u64::get(body)?;
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
wire_enum!(SolverChoice, "unknown solver selector";
    0 => (SolverChoice::Auto) {},
    1 => (SolverChoice::Named(name)) { name: String },
    2 => (SolverChoice::Portfolio) {},
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
    pub enum Request, lent as RequestRef {
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
            solver: SolverChoice,
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
    pub enum Response, lent as ResponseRef {
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

/// What a service answers one request with: a message it owns, or — the
/// one reply whose bulk is not the service's to own — a checked-out
/// version still shared with the checkout cache. [`Reply::lend`] gives
/// the socket either as the same [`ResponseRef`], so a cached version
/// goes from the cache's `Arc` to the wire without a copy.
#[derive(Debug, Clone)]
pub enum Reply {
    Message(Response),
    /// [`Response::CheckoutOk`] over bytes the cache may also hold.
    Checkout {
        work: RecreationWork,
        data: Arc<Vec<u8>>,
    },
}

impl From<Response> for Reply {
    fn from(resp: Response) -> Reply {
        Reply::Message(resp)
    }
}

impl Reply {
    pub fn lend(&self) -> ResponseRef<'_> {
        match self {
            Reply::Message(resp) => resp.lend(),
            Reply::Checkout { work, data } => ResponseRef::CheckoutOk { work, data },
        }
    }

    /// The reply as an owned message, for a caller with no socket to
    /// lend to; copies the version only if the cache holds it too.
    pub fn into_response(self) -> Response {
        match self {
            Reply::Message(resp) => resp,
            Reply::Checkout { work, data } => Response::CheckoutOk {
                work,
                data: Arc::try_unwrap(data).unwrap_or_else(|shared| (*shared).clone()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ChunkerParams::MAX_SIZE` is sized so that the largest chunk the
    /// chunker can cut travels as one object in one `StorePut` frame
    /// under the default frame cap.
    #[test]
    fn the_largest_chunk_fits_one_store_put_frame() {
        let chunk = Object::Full {
            data: vec![7; ChunkerParams::MAX_SIZE],
        };
        let body = Request::StorePut { objs: vec![chunk] }.encode().body;
        assert!(body.len() <= crate::DEFAULT_MAX_FRAME as usize);
    }

    fn cached_version() -> Arc<Vec<u8>> {
        Arc::new((0..100_000u32).map(|i| i as u8).collect())
    }

    /// The structural no-copy check on this side of the server: a reply
    /// over the cache's `Arc` reaches the writer as that allocation —
    /// fails if a clone, an owned `Response` or a staging body comes back
    /// between the cache and the socket.
    #[test]
    fn a_shared_checkout_is_lent_to_the_socket_not_copied() {
        let data = cached_version();
        let reply = Reply::Checkout {
            work: RecreationWork::default(),
            data: Arc::clone(&data),
        };
        let out = reply.lend().gather();
        assert_eq!(out.lent.len(), 1);
        assert!(matches!(out.lent[0].1, Cow::Borrowed(_)));
        assert_eq!(out.lent[0].1.as_ptr(), data.as_ptr());
        assert_eq!(out.lent[0].1.len(), data.len());
        // Header, work, length prefix: everything else is the head.
        assert_eq!(out.head.len(), 5 + 40 + 4);
        assert_eq!(out.wire_len(), (5 + 40 + 4 + data.len()) as u64);
        assert_eq!(Arc::strong_count(&data), 2, "lent, not cloned");

        // And what the writer sees is the frame `encode` would have built.
        let mut wire = Vec::new();
        out.write_to(&mut wire).unwrap();
        let frame = reply.clone().into_response().encode();
        assert_eq!(&wire[..4], &(frame.body.len() as u32).to_le_bytes());
        assert_eq!(wire[4], opcode::CHECKOUT_OK);
        assert_eq!(&wire[5..], &frame.body[..]);
    }

    #[test]
    fn an_unshared_reply_becomes_a_response_without_a_copy() {
        let data = cached_version();
        let at = data.as_ptr();
        let reply = Reply::Checkout {
            work: RecreationWork::default(),
            data,
        };
        match reply.into_response() {
            Response::CheckoutOk { data, .. } => assert_eq!(data.as_ptr(), at),
            other => panic!("expected CheckoutOk, got {other:?}"),
        }
    }

    #[test]
    fn small_blobs_ride_in_the_head_and_objects_are_handed_over_whole() {
        let small = Request::Commit {
            token: 1,
            branch: "main".into(),
            message: "m".into(),
            online: false,
            hops: 0,
            theta: None,
            data: vec![1; LEND_MIN - 1],
        };
        assert!(small.lend().gather().lent.is_empty());

        let objs = vec![
            Object::Full { data: vec![2; 10] },
            Object::Full {
                data: vec![3; 4 * LEND_MIN],
            },
        ];
        let put = Request::StorePut { objs };
        let out = put.lend().gather();
        assert_eq!(out.lent.len(), 1, "only the large object is a segment");
        assert!(matches!(out.lent[0].1, Cow::Owned(_)));
        let mut wire = Vec::new();
        out.write_to(&mut wire).unwrap();
        assert_eq!(&wire[5..], &put.encode().body[..]);
    }
}
