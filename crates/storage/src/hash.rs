//! Content addressing.
//!
//! Objects are keyed by a 128-bit hash: two independently-seeded FNV-1a
//! hashes of the content plus its length, computed in one pass. Not
//! cryptographic — the threat model of a local research prototype is
//! accidental collision, for which 128 bits over thousands of objects is
//! ample headroom (the paper's prototype similarly content-addresses
//! version files).

/// A 128-bit content address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub [u8; 16]);

const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Two independently seeded FNV-1a hashes of the concatenated `parts`,
/// in one pass: the lanes share each byte load and their multiplies do
/// not wait for one another.
fn fnv1a_pair(seeds: (u64, u64), parts: &[&[u8]]) -> (u64, u64) {
    let (mut a, mut b) = seeds;
    let mut len = 0u64;
    for part in parts {
        len += part.len() as u64;
        for &byte in *part {
            a = (a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            b = (b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }
    // Finalize with the length so prefixes don't collide trivially.
    (
        (a ^ len).wrapping_mul(FNV_PRIME),
        (b ^ len).wrapping_mul(FNV_PRIME),
    )
}

impl ObjectId {
    /// Hashes `data` into an id.
    pub fn for_bytes(data: &[u8]) -> Self {
        ObjectId::for_parts(&[data])
    }

    /// Hashes the concatenation of `parts` into an id, without
    /// materializing the concatenated buffer (used by `Object::id` to
    /// domain-separate object kinds with a tag prefix).
    pub fn for_parts(parts: &[&[u8]]) -> Self {
        let (a, b) = fnv1a_pair((0xcbf2_9ce4_8422_2325, 0x6c62_272e_07bb_0142), parts);
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&a.to_le_bytes());
        out[8..].copy_from_slice(&b.to_le_bytes());
        ObjectId(out)
    }

    /// Lowercase hex representation (32 chars).
    pub fn to_hex(self) -> String {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut hex = String::with_capacity(32);
        for b in self.0 {
            hex.push(char::from(DIGITS[usize::from(b >> 4)]));
            hex.push(char::from(DIGITS[usize::from(b & 15)]));
        }
        hex
    }

    /// Parses a 32-char hex string.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 || !s.is_ascii() {
            return None;
        }
        let mut out = [0u8; 16];
        for (i, chunk) in s.as_bytes().chunks_exact(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = (hi * 16 + lo) as u8;
        }
        Some(ObjectId(out))
    }
}

impl std::fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ObjectId({})", &self.to_hex()[..12])
    }
}

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_distinct() {
        let a = ObjectId::for_bytes(b"hello");
        assert_eq!(a, ObjectId::for_bytes(b"hello"));
        assert_ne!(a, ObjectId::for_bytes(b"hellp"));
        assert_ne!(a, ObjectId::for_bytes(b"hello "));
    }

    #[test]
    fn empty_input_has_an_id() {
        let a = ObjectId::for_bytes(b"");
        assert_ne!(a, ObjectId::for_bytes(b"\0"));
    }

    #[test]
    fn parts_match_concatenation() {
        let whole = ObjectId::for_bytes(b"abcdef");
        assert_eq!(ObjectId::for_parts(&[b"abc", b"def"]), whole);
        assert_eq!(ObjectId::for_parts(&[b"", b"abcdef", b""]), whole);
        assert_ne!(ObjectId::for_parts(&[b"abc"]), whole);
    }

    /// The old two-pass hash, kept as the oracle for the fused loop.
    fn two_pass(parts: &[&[u8]]) -> ObjectId {
        let one = |seed: u64| {
            let mut h = seed;
            let mut len = 0u64;
            for part in parts {
                len += part.len() as u64;
                for &b in *part {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(FNV_PRIME);
                }
            }
            (h ^ len).wrapping_mul(FNV_PRIME)
        };
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&one(0xcbf2_9ce4_8422_2325).to_le_bytes());
        out[8..].copy_from_slice(&one(0x6c62_272e_07bb_0142).to_le_bytes());
        ObjectId(out)
    }

    #[test]
    fn ids_are_the_ones_the_two_pass_hash_gave() {
        // Hex literals captured at commit 8be7713: every stored object is
        // named by this function, so it may get faster, never different.
        let noise: Vec<u8> = {
            let mut state = 0x243F_6A88_85A3_08D3u64;
            (0..1000)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state >> 32) as u8
                })
                .collect()
        };
        let multi: [&[u8]; 5] = [b"", b"multi", b"-", b"part input", &[0, 255, 128]];
        for (parts, hex) in [
            (&[&noise[..]][..], "7b2ad0697787bab072d76e9c418f3645"),
            (&[b"".as_slice()][..], "dfb701864ce872af2623c32237b3dcda"),
            (&multi[..], "74e6b3e0a608a5103bed4e0ede206ac2"),
        ] {
            assert_eq!(ObjectId::for_parts(parts).to_hex(), hex);
            assert_eq!(ObjectId::for_parts(parts), two_pass(parts));
        }
    }

    #[test]
    fn hex_roundtrip() {
        let a = ObjectId::for_bytes(b"some content");
        let hex = a.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(ObjectId::from_hex(&hex), Some(a));
    }

    #[test]
    fn from_hex_rejects_malformed() {
        assert_eq!(ObjectId::from_hex("zz"), None);
        assert_eq!(ObjectId::from_hex(&"g".repeat(32)), None);
        assert_eq!(ObjectId::from_hex(&"a".repeat(31)), None);
    }

    #[test]
    fn no_collisions_across_many_inputs() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..20_000u32 {
            let id = ObjectId::for_bytes(format!("object-{i}").as_bytes());
            assert!(seen.insert(id), "collision at {i}");
        }
    }
}
