#![warn(missing_docs)]

//! Compression substrate: varint coding, an order-0 Huffman coder and an
//! LZ77-style compressor.
//!
//! The paper distinguishes the storage cost `Δ` of a delta from its
//! recreation cost `Φ`, noting the two diverge "especially if the deltas
//! are stored in a compressed fashion" (§2.1). To exercise that regime with
//! real bytes, this crate provides two self-contained, deterministic
//! coders with no external dependencies. [`huff`] is the object store's
//! payload codec: its output sizes define `Δ`, and they are a function of
//! byte counts, so the planner can price them ([`huff::coded_len`]).
//! [`lz`] (hash-chain match finder, greedy parse, varint-coded tokens) was
//! that codec before; the store still reads what it wrote.

pub mod huff;
pub mod lz;
pub mod varint;

pub use lz::{common_prefix, compress, compress_with, decompress, CompressError, Params};
pub use varint::{decode_u64, encode_u64, encoded_len};
