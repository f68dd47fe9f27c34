//! A fast, non-cryptographic hasher for integer-keyed maps.
//!
//! The sparse Δ/Φ matrices key on `(u32, u32)` version pairs, and the
//! default SipHash hasher is measurably slow for such small keys. This is
//! the FxHash algorithm used by rustc (multiply-and-rotate), implemented
//! locally so the workspace stays dependency-free.
//!
//! Not HashDoS-resistant; do not use for untrusted keys.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit FxHash state.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Consume 8 bytes at a time, then the tail.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&(1u32, 2u32)), hash_of(&(1u32, 2u32)));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        assert_ne!(hash_of(&(1u32, 2u32)), hash_of(&(2u32, 1u32)));
        assert_ne!(hash_of(&0u64), hash_of(&1u64));
    }

    #[test]
    fn map_basic_usage() {
        let mut m: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i + 1), u64::from(i) * 3);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(10, 11)), Some(&30));
        assert_eq!(m.get(&(11, 10)), None);
    }

    #[test]
    fn byte_tail_handling() {
        // Writes that are not multiples of 8 bytes must still hash all bytes.
        assert_ne!(hash_of(&[1u8, 2, 3]), hash_of(&[1u8, 2, 4]));
        assert_ne!(hash_of(&[1u8; 9]), hash_of(&[1u8; 10]));
    }
}
