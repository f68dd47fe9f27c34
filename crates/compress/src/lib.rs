#![warn(missing_docs)]

//! Compression substrate: varint coding and an LZ77-style compressor.
//!
//! The paper distinguishes the storage cost `Δ` of a delta from its
//! recreation cost `Φ`, noting the two diverge "especially if the deltas
//! are stored in a compressed fashion" (§2.1). To exercise that regime with
//! real bytes, this crate provides a self-contained LZ77 compressor
//! (hash-chain match finder, greedy parse, varint-coded tokens) with no
//! external dependencies. It is not meant to compete with zstd; it is meant
//! to be an honest, deterministic compressor whose output sizes define `Δ`
//! and whose decompression work contributes to `Φ`.

pub mod lz;
pub mod varint;

pub use lz::{common_prefix, compress, compress_with, decompress, CompressError, Params};
pub use varint::{decode_u64, encode_u64, encoded_len};
