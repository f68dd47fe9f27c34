//! `dsv-net` — the wire layer for the `dsvd` server front end.
//!
//! A std-only networking shim in the spirit of `crates/shims/`: blocking
//! `TcpListener`/`TcpStream` wrapped in the small API subset the rest of
//! the workspace needs (no async runtime exists in the offline build),
//! with thread-per-connection concurrency provided by a bounded worker
//! pool sized from [`dsv_par::current_threads`].
//!
//! # Wire format
//!
//! Every message is one length-prefixed frame:
//!
//! ```text
//! | body len: u32 LE | opcode: u8 | body: len bytes |
//! ```
//!
//! A sender gathers it — header and fixed fields in one small buffer,
//! bulk payloads lent from wherever they live — and writes it with one
//! vectored write; a receiver reads the header, then parses the fields
//! off the stream, each payload straight into its final buffer (see
//! [`proto`], "One codec, two spellings").
//!
//! Request opcodes sit in the low range, responses have the high bit
//! set, and `0xFF` is the structured error frame (`u16` code + UTF-8
//! message — see [`frame::errcode`]):
//!
//! | request       | op   | response         | op   |
//! |---------------|------|------------------|------|
//! | Hello         | 0x01 | HelloOk          | 0x81 |
//! | Ping          | 0x02 | Pong             | 0x82 |
//! | Commit        | 0x03 | CommitOk         | 0x83 |
//! | Checkout      | 0x04 | CheckoutOk       | 0x84 |
//! | Optimize      | 0x05 | OptimizeOk       | 0x85 |
//! | Stats         | 0x06 | StatsOk          | 0x86 |
//! | Shutdown      | 0x07 | ShutdownOk       | 0x87 |
//! | Fsck          | 0x08 | FsckOk           | 0x88 |
//! | StorePut      | 0x09 | StorePutOk       | 0x89 |
//! | StoreGet      | 0x0A | StoreGetOk       | 0x8A |
//! | StoreContains | 0x0B | StoreContainsOk  | 0x8B |
//! | StoreRemove   | 0x0C | StoreRemoveOk    | 0x8C |
//! | StoreObjectIds| 0x0D | StoreObjectIdsOk | 0x8D |
//! | StoreStats    | 0x0E | StoreStatsOk     | 0x8E |
//! |               |      | Error            | 0xFF |
//!
//! The `Store*` opcodes (protocol v3) carry the raw object-store
//! surface; [`remote`] builds both ends on top — a bare-store server
//! ([`remote::StoreService`], behind `dsv serve --store-server`) and a
//! client-side [`remote::RemoteStore`] implementing the full
//! `ObjectStore` trait, the shard unit of the distributed storage tier.
//!
//! # Handshake
//!
//! The first frame on a connection must be `Hello { version }` with
//! [`PROTOCOL_VERSION`] (currently 3); the server answers `HelloOk` with
//! its own version or an error frame with code
//! [`frame::errcode::VERSION_MISMATCH`] and closes. Everything after the
//! handshake is a strict request→response alternation on the same
//! connection.
//!
//! # Robustness
//!
//! The codec never panics on wire input: oversized length prefixes are
//! rejected before allocation ([`NetError::FrameTooLarge`]), truncation
//! and timeouts are distinct error variants, unknown opcodes and
//! malformed bodies decode to structured errors the server reports back
//! as error frames. Body layouts are fixed-width little-endian with
//! length-prefixed strings/blobs — see [`proto`] for the exact field
//! order of every message.

pub mod client;
pub mod frame;
pub mod proto;
pub mod remote;
pub mod server;

pub use client::{Client, RetryPolicy};
pub use frame::{
    errcode, opcode, read_frame, read_header, write_frame, Frame, FrameHeader, NetError,
    DEFAULT_MAX_FRAME, HEADER_LEN, PROTOCOL_VERSION,
};
pub use proto::{
    CandidateLine, CandidateNumbers, FsckSummary, OptimizeSummary, Outgoing, Reply, Request,
    RequestRef, Response, ResponseRef, StatsSummary, WireMode, WireRecovery,
};
pub use remote::{RemoteStore, StoreService, StoreServiceConfig, FRAME_SLACK};
pub use server::{session, ConnHandler, ServeControl, Server, ServerOptions};
