//! Stored objects: materialized versions, deltas, and chunk manifests.
//!
//! Wire format (what [`crate::store`] persists):
//!
//! ```text
//! byte tag        0 = Full, 1 = Delta, 2 = Chunked
//! byte codec      0 = raw, 1 = LZ-compressed payload
//! [16 bytes base id]            -- Delta only
//! varint payload_len, payload   -- version bytes (Full), encoded delta
//!                                  (Delta), or concatenated 16-byte chunk
//!                                  ids in order (Chunked)
//! ```

use crate::hash::ObjectId;
use dsv_compress::lz;
use dsv_compress::varint::{decode_u64, encode_u64};
use std::borrow::Cow;

/// A stored object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Object {
    /// A fully materialized version.
    Full {
        /// The raw version bytes.
        data: Vec<u8>,
    },
    /// A version stored as a delta from another stored version.
    Delta {
        /// Content address of the delta's base object.
        base: ObjectId,
        /// Encoded byte-delta ops ([`dsv_delta::bytes_delta`]).
        delta: Vec<u8>,
    },
    /// A version stored as an ordered manifest of content-defined chunks
    /// (the deduplicating third regime; chunking lives in `dsv-chunk`).
    /// Each chunk is itself a [`Object::Full`] object holding the chunk
    /// bytes, so identical chunks across versions are stored once.
    Chunked {
        /// Content addresses of the chunks, in reassembly order.
        chunks: Vec<ObjectId>,
    },
}

/// Errors from the store layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// No object with the requested id.
    NotFound(ObjectId),
    /// Object bytes failed to parse.
    Corrupt(&'static str),
    /// A delta chain referenced itself or exceeded the sanity bound.
    ChainTooLong,
    /// Underlying I/O failure (message retained).
    Io(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NotFound(id) => write!(f, "object {id} not found"),
            StoreError::Corrupt(what) => write!(f, "corrupt object: {what}"),
            StoreError::ChainTooLong => write!(f, "delta chain too long or cyclic"),
            StoreError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

impl Object {
    /// Serializes the object, LZ-compressing the payload when
    /// `compress` is set and compression actually helps.
    pub fn encode(&self, compress: bool) -> Vec<u8> {
        let (tag, base, payload): (u8, Option<&ObjectId>, Cow<'_, [u8]>) = match self {
            Object::Full { data } => (0, None, Cow::Borrowed(data.as_slice())),
            Object::Delta { base, delta } => (1, Some(base), Cow::Borrowed(delta.as_slice())),
            Object::Chunked { chunks } => (2, None, Cow::Owned(concat_ids(chunks))),
        };
        let payload: &[u8] = &payload;
        let mut out = Vec::with_capacity(payload.len() / 2 + 24);
        out.push(tag);
        let compressed = compress.then(|| lz::compress(payload));
        let use_compressed = compressed.as_ref().is_some_and(|c| c.len() < payload.len());
        out.push(u8::from(use_compressed));
        if let Some(b) = base {
            out.extend_from_slice(&b.0);
        }
        let body: &[u8] = if use_compressed {
            compressed.as_ref().unwrap()
        } else {
            payload
        };
        encode_u64(body.len() as u64, &mut out);
        out.extend_from_slice(body);
        out
    }

    /// Parses an object serialized by [`encode`](Self::encode).
    pub fn decode(input: &[u8]) -> Result<Self, StoreError> {
        let header = Header::parse(input)?;
        let payload = match header.codec {
            Codec::Raw => input[header.payload_at..].to_vec(),
            Codec::Lz => header.decompress(input)?,
        };
        header.object(payload)
    }

    /// [`decode`](Self::decode) for a caller that owns the serialized
    /// bytes (a file just read): a raw payload is kept in that buffer
    /// instead of being copied out of it.
    pub fn decode_owned(mut input: Vec<u8>) -> Result<Self, StoreError> {
        let header = Header::parse(&input)?;
        let payload = match header.codec {
            Codec::Raw => {
                input.drain(..header.payload_at);
                input
            }
            Codec::Lz => header.decompress(&input)?,
        };
        header.object(payload)
    }

    /// The object's content address: the kind tag plus the kind's payload
    /// (data, base-id + delta bytes, or chunk ids). The tag prefix
    /// domain-separates the kinds, so no byte string can be made to
    /// collide with another kind's id by construction — in particular a
    /// chunk (an arbitrary slice of user data stored `Full`) can never
    /// alias a manifest's id. The same version stored two ways still has
    /// two ids; the *version* identity lives in the VCS layer.
    pub fn id(&self) -> ObjectId {
        match self {
            Object::Full { data } => Object::full_id(data),
            Object::Delta { base, delta } => ObjectId::for_parts(&[&[1u8], &base.0, delta]),
            Object::Chunked { chunks } => {
                let mut parts: Vec<&[u8]> = Vec::with_capacity(1 + chunks.len());
                parts.push(&[2u8]);
                for c in chunks {
                    parts.push(&c.0);
                }
                ObjectId::for_parts(&parts)
            }
        }
    }

    /// The id a `Full { data }` object would have, without constructing
    /// (or copying into) the object. Lets dedup callers probe
    /// `ObjectStore::contains` before materializing a chunk.
    pub fn full_id(data: &[u8]) -> ObjectId {
        ObjectId::for_parts(&[&[0u8], data])
    }
}

enum Codec {
    Raw,
    Lz,
}

/// The fixed part of a serialized object, validated: kind, codec, delta
/// base, and where the payload (which runs to the end) starts.
struct Header {
    tag: u8,
    codec: Codec,
    base: Option<ObjectId>,
    payload_at: usize,
}

impl Header {
    fn parse(input: &[u8]) -> Result<Self, StoreError> {
        if input.len() < 2 {
            return Err(StoreError::Corrupt("truncated header"));
        }
        let tag = input[0];
        let mut pos = 2usize;
        let base = if tag == 1 {
            if input.len() < pos + 16 {
                return Err(StoreError::Corrupt("truncated base id"));
            }
            let mut b = [0u8; 16];
            b.copy_from_slice(&input[pos..pos + 16]);
            pos += 16;
            Some(ObjectId(b))
        } else if tag == 0 || tag == 2 {
            None
        } else {
            return Err(StoreError::Corrupt("unknown tag"));
        };
        let (len, used) = decode_u64(&input[pos..]).ok_or(StoreError::Corrupt("bad length"))?;
        pos += used;
        if (input.len() - pos) as u64 != len {
            return Err(StoreError::Corrupt("length mismatch"));
        }
        let codec = match input[1] {
            0 => Codec::Raw,
            1 => Codec::Lz,
            _ => return Err(StoreError::Corrupt("unknown codec")),
        };
        Ok(Header {
            tag,
            codec,
            base,
            payload_at: pos,
        })
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, StoreError> {
        lz::decompress(&input[self.payload_at..])
            .map_err(|_| StoreError::Corrupt("bad compression"))
    }

    fn object(self, payload: Vec<u8>) -> Result<Object, StoreError> {
        Ok(match (self.tag, self.base) {
            (0, None) => Object::Full { data: payload },
            (1, Some(base)) => Object::Delta {
                base,
                delta: payload,
            },
            (2, None) => {
                if !payload.len().is_multiple_of(16) {
                    return Err(StoreError::Corrupt("manifest not a multiple of 16 bytes"));
                }
                Object::Chunked {
                    chunks: payload
                        .chunks_exact(16)
                        .map(|c| {
                            let mut b = [0u8; 16];
                            b.copy_from_slice(c);
                            ObjectId(b)
                        })
                        .collect(),
                }
            }
            _ => unreachable!("tag validated by parse"),
        })
    }
}

/// Concatenates chunk ids into the manifest payload layout.
fn concat_ids(chunks: &[ObjectId]) -> Vec<u8> {
    let mut out = Vec::with_capacity(chunks.len() * 16);
    for c in chunks {
        out.extend_from_slice(&c.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_roundtrip_raw_and_compressed() {
        let data = b"some,csv,content\n".repeat(100);
        let obj = Object::Full { data: data.clone() };
        for compress in [false, true] {
            let enc = obj.encode(compress);
            assert_eq!(Object::decode(&enc).unwrap(), obj);
            if compress {
                assert!(enc.len() < data.len() / 2, "compressible content");
            }
        }
    }

    #[test]
    fn delta_roundtrip() {
        let obj = Object::Delta {
            base: ObjectId::for_bytes(b"base"),
            delta: vec![1, 2, 3, 4, 5],
        };
        let enc = obj.encode(true);
        assert_eq!(Object::decode(&enc).unwrap(), obj);
    }

    #[test]
    fn incompressible_payload_stays_raw() {
        // Compression flag set, but the payload doesn't shrink: codec
        // byte must fall back to raw so size never regresses.
        let mut noise = Vec::new();
        let mut s = 0x12345u64;
        for _ in 0..256 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            noise.push((s >> 24) as u8);
        }
        let obj = Object::Full {
            data: noise.clone(),
        };
        let enc = obj.encode(true);
        assert!(enc.len() <= noise.len() + 16);
        assert_eq!(Object::decode(&enc).unwrap(), obj);
    }

    #[test]
    fn decode_rejects_corruption() {
        let obj = Object::Full {
            data: b"payload".to_vec(),
        };
        let enc = obj.encode(false);
        assert!(Object::decode(&enc[..enc.len() - 1]).is_err());
        assert!(Object::decode(&[]).is_err());
        let mut bad_tag = enc.clone();
        bad_tag[0] = 9;
        assert!(Object::decode(&bad_tag).is_err());
        let mut bad_codec = enc;
        bad_codec[1] = 7;
        assert!(Object::decode(&bad_codec).is_err());
    }

    #[test]
    fn decode_owned_agrees_with_decode() {
        let objects = [
            Object::Full {
                data: b"some,csv,content\n".repeat(100),
            },
            Object::Delta {
                base: ObjectId::for_bytes(b"base"),
                delta: vec![1, 2, 3, 4, 5],
            },
            Object::Chunked {
                chunks: vec![ObjectId::for_bytes(b"c1"), ObjectId::for_bytes(b"c2")],
            },
        ];
        for obj in &objects {
            for compress in [false, true] {
                let enc = obj.encode(compress);
                assert_eq!(&Object::decode_owned(enc.clone()).unwrap(), obj);
                let cut = enc[..enc.len() - 1].to_vec();
                assert_eq!(Object::decode_owned(cut.clone()), Object::decode(&cut));
            }
        }
    }

    #[test]
    fn absurd_compressed_lengths_are_corrupt_not_fatal() {
        // A codec-1 payload that is nothing but a declared length: these
        // two used to abort the process inside `lz::decompress` (a 32 TiB
        // allocation; a capacity overflow).
        for declared in [1u64 << 45, u64::MAX >> 1] {
            let mut payload = Vec::new();
            encode_u64(declared, &mut payload);
            let mut enc = vec![0u8, 1];
            encode_u64(payload.len() as u64, &mut enc);
            enc.extend_from_slice(&payload);
            assert_eq!(
                Object::decode(&enc),
                Err(StoreError::Corrupt("bad compression"))
            );
            assert_eq!(
                Object::decode_owned(enc),
                Err(StoreError::Corrupt("bad compression"))
            );
        }
    }

    #[test]
    fn ids_are_the_ones_stored_repositories_use() {
        // Hex literals captured at commit 8be7713 (two-pass hash).
        let full = Object::Full {
            data: b"id,value\n1,alpha\n2,beta\n".to_vec(),
        };
        let delta = Object::Delta {
            base: full.id(),
            delta: dsv_delta::bytes_delta::encode(&dsv_delta::bytes_delta::diff(
                b"id,value\n1,alpha\n",
                b"id,value\n1,alpha\n2,beta\n",
            )),
        };
        let chunked = Object::Chunked {
            chunks: vec![full.id(), delta.id()],
        };
        assert_eq!(full.id().to_hex(), "2566e91fa22e3e2bba0499e7f72f237f");
        assert_eq!(delta.id().to_hex(), "a6a34671bdad7656117e479b32294414");
        assert_eq!(chunked.id().to_hex(), "12dbe8cc383034862dc88bae95801b3a");
    }

    #[test]
    fn ids_distinguish_kinds() {
        let full = Object::Full {
            data: b"abc".to_vec(),
        };
        let delta = Object::Delta {
            base: ObjectId::for_bytes(b"abc"),
            delta: b"abc".to_vec(),
        };
        assert_ne!(full.id(), delta.id());
    }

    #[test]
    fn empty_payloads() {
        let obj = Object::Full { data: vec![] };
        assert_eq!(Object::decode(&obj.encode(true)).unwrap(), obj);
    }

    #[test]
    fn chunked_roundtrip() {
        let obj = Object::Chunked {
            chunks: (0..7).map(|i| ObjectId::for_bytes(&[i as u8; 4])).collect(),
        };
        for compress in [false, true] {
            assert_eq!(Object::decode(&obj.encode(compress)).unwrap(), obj);
        }
        // Empty manifests are legal (empty version).
        let empty = Object::Chunked { chunks: vec![] };
        assert_eq!(Object::decode(&empty.encode(false)).unwrap(), empty);
    }

    #[test]
    fn chunked_decode_rejects_ragged_manifest() {
        let obj = Object::Chunked {
            chunks: vec![ObjectId::for_bytes(b"c1")],
        };
        let mut enc = obj.encode(false);
        // Chop one byte off the single id and fix up the varint length.
        enc.pop();
        enc[2] -= 1; // single-byte varint (len 16 -> 15)
        assert!(matches!(
            Object::decode(&enc).unwrap_err(),
            StoreError::Corrupt(_)
        ));
    }

    #[test]
    fn chunked_ids_depend_on_order_and_kind() {
        let a = ObjectId::for_bytes(b"a");
        let b = ObjectId::for_bytes(b"b");
        let ab = Object::Chunked { chunks: vec![a, b] };
        let ba = Object::Chunked { chunks: vec![b, a] };
        assert_ne!(ab.id(), ba.id());
        // A manifest never collides with a Full object of the same bytes.
        let mut raw = Vec::new();
        raw.extend_from_slice(&a.0);
        raw.extend_from_slice(&b.0);
        assert_ne!(ab.id(), Object::Full { data: raw }.id());
    }

    #[test]
    fn full_id_matches_constructed_object() {
        let data = b"chunk payload".to_vec();
        assert_eq!(Object::full_id(&data), Object::Full { data }.id());
    }

    #[test]
    fn crafted_chunk_cannot_alias_a_manifest() {
        // Adversarial construction: a Full object (e.g. a CDC chunk of
        // committed user data) whose bytes equal a manifest's id
        // *preimage* — tag byte plus chunk ids. Domain separation (the
        // Full preimage carries its own tag) keeps the ids distinct.
        let x = ObjectId::for_bytes(b"x");
        let y = ObjectId::for_bytes(b"y");
        let manifest = Object::Chunked { chunks: vec![x, y] };
        let mut preimage = vec![2u8];
        preimage.extend_from_slice(&x.0);
        preimage.extend_from_slice(&y.0);
        assert_ne!(Object::full_id(&preimage), manifest.id());
    }
}
