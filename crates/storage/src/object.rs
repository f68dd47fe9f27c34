//! Stored objects: materialized versions, deltas, and chunk manifests.
//!
//! Wire format (what [`crate::store`] persists):
//!
//! ```text
//! byte tag        0 = Full, 1 = Delta, 2 = Chunked
//! byte codec      0 = raw, 1 = LZ stream, 2 = Huffman stream
//! [16 bytes base id]            -- Delta only
//! varint body_len, body         -- the payload under the codec: version
//!                                  bytes (Full), encoded delta (Delta), or
//!                                  concatenated 16-byte chunk ids in order
//!                                  (Chunked)
//! ```
//!
//! A compressing store writes codec 2 ([`dsv_compress::huff`]) when that
//! is strictly smaller than the raw payload and codec 0 otherwise; nothing
//! writes codec 1 any more. Objects an older build wrote with it still
//! decode, to the same [`Object`] and the same id (an id never covered the
//! codec), and the next `optimize` rewrites them.
//!
//! [`stored_len`] is the size [`Object::encode`] gives an object, computed
//! from byte counts: what the planner prices a version or a delta at.

use crate::hash::ObjectId;
use dsv_compress::varint::{decode_u64, encode_u64, encoded_len};
use dsv_compress::{huff, lz};
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

/// The kinds of object the planner prices (a chunk manifest's cost comes
/// from the chunk estimator, not from here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priced {
    /// An [`Object::Full`] holding these version bytes.
    Full,
    /// An [`Object::Delta`] holding this encoded delta.
    Delta,
}

/// The exact size of `Object::encode(compress)` for a `Full` / `Delta`
/// object with this payload — tag, codec, base id, length varint and the
/// smaller of the raw and the coded payload — without building the object
/// or writing a stream. A store's `total_bytes` is the sum of this over
/// its objects, so a plan priced with it costs what the store will hold.
pub fn stored_len(kind: Priced, payload: &[u8], compress: bool) -> u64 {
    let body = if compress {
        payload.len().min(huff::coded_len(payload))
    } else {
        payload.len()
    };
    let base = match kind {
        Priced::Full => 0,
        Priced::Delta => 16,
    };
    (2 + base + encoded_len(body as u64) + body) as u64
}

impl Object {
    /// Serializes the object, Huffman-coding the payload when `compress`
    /// is set and the coded form is strictly smaller.
    pub fn encode(&self, compress: bool) -> Vec<u8> {
        let (tag, base, payload): (u8, Option<&ObjectId>, Cow<'_, [u8]>) = match self {
            Object::Full { data } => (0, None, Cow::Borrowed(data.as_slice())),
            Object::Delta { base, delta } => (1, Some(base), Cow::Borrowed(delta.as_slice())),
            Object::Chunked { chunks } => (2, None, Cow::Owned(concat_ids(chunks))),
        };
        let coded = compress.then(|| huff::encode_smaller(&payload)).flatten();
        let (codec, body): (u8, &[u8]) = match &coded {
            Some(stream) => (2, stream),
            None => (0, &payload),
        };
        let mut out = Vec::with_capacity(body.len() + 28);
        out.push(tag);
        out.push(codec);
        if let Some(b) = base {
            out.extend_from_slice(&b.0);
        }
        encode_u64(body.len() as u64, &mut out);
        out.extend_from_slice(body);
        out
    }

    /// Parses an object serialized by [`encode`](Self::encode).
    pub fn decode(input: &[u8]) -> Result<Self, StoreError> {
        let header = Header::parse(input)?;
        let payload = header.payload(input)?;
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
            _ => header.payload(&input)?,
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
    /// Read-only: what compressing stores wrote before codec 2.
    Lz,
    Huff,
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
            2 => Codec::Huff,
            _ => return Err(StoreError::Corrupt("unknown codec")),
        };
        Ok(Header {
            tag,
            codec,
            base,
            payload_at: pos,
        })
    }

    /// The payload of the serialized object `input`, decoded.
    fn payload(&self, input: &[u8]) -> Result<Vec<u8>, StoreError> {
        let body = &input[self.payload_at..];
        let bad = StoreError::Corrupt("bad compression");
        match self.codec {
            Codec::Raw => Ok(body.to_vec()),
            Codec::Lz => lz::decompress(body).map_err(|_| bad),
            Codec::Huff => huff::decode(body).map_err(|_| bad),
        }
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

    fn unhex(text: &str) -> Vec<u8> {
        text.as_bytes()
            .chunks_exact(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    }

    #[test]
    fn full_roundtrip_raw_and_compressed() {
        let data = b"some,csv,content\n".repeat(100);
        let obj = Object::Full { data: data.clone() };
        for compress in [false, true] {
            let enc = obj.encode(compress);
            assert_eq!(Object::decode(&enc).unwrap(), obj);
            if compress {
                // Measured: 1,700 B over a 10-value alphabet code to 722 B
                // (3.4 bits a byte); LZ, which found the repeat, made 23.
                assert_eq!(enc[1], 2);
                assert!(
                    enc.len() < data.len() / 2,
                    "{} of {}",
                    enc.len(),
                    data.len()
                );
            }
        }
    }

    /// Objects a compressing store wrote at commit 146644a (codec 1), and
    /// what `encode(false)` gave there, as hex.
    const OLD_FULL: &str = "0001589401800169642c737065636965732c6f726967696e0a312c736163636861726f\
        6d796365732d636572657669736961652c6c61626f7261746f72792d73747261696e0a32592d0233352d1a77\
        696c642d69736f6c6174650a";
    const OLD_DELTA: &str = "01017d633ae901fd1af53ecfa0d19633775a50e001642400b903312c736163636861\
        726f6d796365732d636572657669736961652c6c61626f7261746f72792d73747261696e0a32592d0233352d\
        1c77696c642d69736f6c6174650a3459550235592d";
    const OLD_CHUNKED_RAW: &str =
        "0200207d633ae901fd1af53ecfa0d19633775a763ede9d7daf4066d1cf070294f7eef7";

    fn old_objects() -> (Object, Object) {
        let strain = |i: u32| format!("{i},saccharomyces-cerevisiae,laboratory-strain\n");
        let mut data = b"id,species,origin\n".to_vec();
        data.extend_from_slice((strain(1) + &strain(2)).as_bytes());
        data.extend_from_slice(b"3,saccharomyces-cerevisiae,wild-isolate\n");
        let full = Object::Full { data: data.clone() };
        data.extend_from_slice((strain(4) + &strain(5)).as_bytes());
        let delta = Object::Delta {
            base: full.id(),
            delta: dsv_delta::bytes_delta::encode(&dsv_delta::bytes_delta::diff(
                b"id,species,origin\n",
                &data,
            )),
        };
        (full, delta)
    }

    #[test]
    fn codec_1_objects_still_decode_to_the_same_object_and_id() {
        let (full, delta) = old_objects();
        for (old, obj, id) in [
            (OLD_FULL, &full, "7d633ae901fd1af53ecfa0d19633775a"),
            (OLD_DELTA, &delta, "763ede9d7daf4066d1cf070294f7eef7"),
        ] {
            let old = unhex(old);
            assert_eq!(old[1], 1, "an LZ object");
            assert_eq!(&Object::decode(&old).unwrap(), obj);
            assert_eq!(&Object::decode_owned(old).unwrap(), obj);
            assert_eq!(obj.id().to_hex(), id);
        }
    }

    #[test]
    fn raw_encoding_is_byte_identical_to_the_parents() {
        let (full, delta) = old_objects();
        // Codec 0 is the payload behind the same header as ever: the old
        // coded objects' payloads, decoded, are what follows it.
        let raw_of = |old: &str, header: usize| {
            let old = unhex(old);
            let mut raw = old[..header].to_vec();
            raw[1] = 0;
            let payload = lz::decompress(&old[header + 1..]).unwrap();
            encode_u64(payload.len() as u64, &mut raw);
            raw.extend_from_slice(&payload);
            raw
        };
        assert_eq!(full.encode(false), raw_of(OLD_FULL, 2));
        assert_eq!(delta.encode(false), raw_of(OLD_DELTA, 18));
        let chunked = Object::Chunked {
            chunks: vec![full.id(), delta.id()],
        };
        assert_eq!(chunked.encode(false), unhex(OLD_CHUNKED_RAW));
        // 32 bytes of ids are never worth a code table.
        assert_eq!(chunked.encode(true), unhex(OLD_CHUNKED_RAW));
    }

    #[test]
    fn nothing_writes_codec_1() {
        let (full, delta) = old_objects();
        let mut objects = vec![full, delta];
        for n in [0usize, 1, 7, 64, 255, 256, 257, 5000] {
            objects.push(Object::Full {
                data: b"0123456789abcdef,x\n"[..]
                    .iter()
                    .cycle()
                    .take(n)
                    .copied()
                    .collect(),
            });
            objects.push(Object::Full {
                data: (0..n).map(|i| ((i * i) >> 3) as u8).collect(),
            });
            objects.push(Object::Delta {
                base: ObjectId::for_bytes(b"base"),
                delta: vec![b'x'; n],
            });
            objects.push(Object::Chunked {
                chunks: (0..n % 40)
                    .map(|i| ObjectId::for_bytes(&[i as u8]))
                    .collect(),
            });
        }
        let mut coded = 0;
        for obj in &objects {
            let enc = obj.encode(true);
            assert!(enc[1] == 0 || enc[1] == 2, "codec {}", enc[1]);
            coded += usize::from(enc[1] == 2);
            assert_eq!(&Object::decode(&enc).unwrap(), obj);
            assert_eq!(obj.encode(false)[1], 0);
        }
        assert!(coded > 10 && coded < objects.len(), "{coded} coded");
    }

    #[test]
    fn coded_iff_strictly_smaller_and_priced_to_the_byte() {
        // Two values of one mask group: 7 bytes of header and table, then
        // a bit a byte. Nine bytes code to 9 — not smaller, stays raw; ten
        // code to 9 and are coded.
        let nine = b"ababababa".to_vec();
        let ten = b"ababababab".to_vec();
        assert_eq!((huff::coded_len(&nine), huff::coded_len(&ten)), (9, 9));
        let raw = Object::Full { data: nine.clone() }.encode(true);
        assert_eq!((raw[1], raw.len()), (0, 2 + 1 + 9));
        let coded = Object::Full { data: ten.clone() }.encode(true);
        assert_eq!((coded[1], coded.len()), (2, 2 + 1 + 9));
        assert_eq!(coded[3..], huff::encode(&ten));

        // `stored_len` is `encode(..).len()`, across the raw/coded choice
        // and the one- to two-byte length varint.
        let mut payloads = vec![nine, ten, Vec::new(), (0..=255u8).collect()];
        for n in [100usize, 126, 127, 128, 129, 200, 255, 256, 300, 20_000] {
            payloads.push(b"x1f,".iter().cycle().take(n).copied().collect());
            payloads.push((0..n).map(|i| (i * 2654435761) as u8).collect());
        }
        for payload in payloads {
            for compress in [false, true] {
                let full = Object::Full {
                    data: payload.clone(),
                };
                assert_eq!(
                    stored_len(Priced::Full, &payload, compress),
                    full.encode(compress).len() as u64
                );
                let delta = Object::Delta {
                    base: ObjectId::for_bytes(b"base"),
                    delta: payload.clone(),
                };
                assert_eq!(
                    stored_len(Priced::Delta, &payload, compress),
                    delta.encode(compress).len() as u64
                );
            }
        }
    }

    #[test]
    fn equiprobable_bytes_stay_raw() {
        let flat: Vec<u8> = (0..4096).map(|i| i as u8).collect();
        assert!(huff::coded_len(&flat) > flat.len());
        let enc = Object::Full { data: flat }.encode(true);
        assert_eq!((enc[1], enc.len()), (0, 2 + 2 + 4096));
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
        // A coded payload that is nothing but a declared length: under
        // codec 1 these two used to abort the process inside
        // `lz::decompress` (a 32 TiB allocation; a capacity overflow).
        // Codec 2 is held to the same.
        for codec in [1u8, 2] {
            for declared in [1u64 << 45, u64::MAX >> 1] {
                let mut payload = Vec::new();
                encode_u64(declared, &mut payload);
                let mut enc = vec![0u8, codec];
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
    }

    #[test]
    fn damaged_huffman_payloads_are_corrupt_not_fatal() {
        let obj = Object::Delta {
            base: ObjectId::for_bytes(b"base"),
            delta: b"x0123abcd,x4567cdef,x89abef01\n".repeat(20),
        };
        let good = obj.encode(true);
        assert_eq!(good[1], 2);
        let body_at = 18 + 2; // tag, codec, base id, two-byte length
        let with_body = |body: &[u8]| {
            let mut enc = good[..18].to_vec();
            encode_u64(body.len() as u64, &mut enc);
            enc.extend_from_slice(body);
            enc
        };
        let body = &good[body_at..];
        assert_eq!(Object::decode(&with_body(body)).unwrap(), obj);

        let mut garbage = body.to_vec();
        garbage.push(0);
        // Behind the two-byte length: group bits, a mask per group, then
        // the code lengths, two a byte.
        let groups = u32::from_le_bytes(*body[2..].first_chunk().unwrap());
        let lengths_at = 2 + 4 + groups.count_ones() as usize;
        let mut oversubscribed = body.to_vec();
        oversubscribed[lengths_at] = 0x11; // two one-bit codes, and 17 more
        let mut empty_group = body.to_vec();
        empty_group[2 + 4] = 0;
        for (name, body) in [
            ("truncated", &body[..body.len() - 1]),
            ("cut in the table", &body[..8]),
            ("trailing garbage", &garbage),
            ("over-subscribed code", &oversubscribed),
            ("empty group", &empty_group),
        ] {
            let enc = with_body(body);
            let corrupt = Err(StoreError::Corrupt("bad compression"));
            assert_eq!(Object::decode(&enc), corrupt, "{name}");
            assert_eq!(Object::decode_owned(enc), corrupt, "{name}");
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
