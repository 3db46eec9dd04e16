//! Fast non-cryptographic hashing for hot-path tables.
//!
//! `std::collections::HashMap`'s default SipHash-1-3 is DoS-resistant but
//! costs tens of cycles per lookup — pure overhead inside a
//! single-process simulator hashing its own block addresses. This module
//! provides an Fx-style multiply-xor hasher (the rustc folklore hash:
//! word-at-a-time `(h ^ w) * K` with a golden-ratio-derived constant) and
//! a map using it.
//!
//! Determinism note: unlike the std default, [`FastHasher`] is *unkeyed*,
//! so a [`FastHashMap`] behaves the same in every process. Its order is
//! still an accident of insertion, so the map has no iteration API at
//! all (rule D03 in the crate docs).

use std::collections::hash_map::Entry;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// 64-bit Fx multiplier (derived from the golden ratio, as in rustc).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fx-style streaming hasher: one multiply-xor per 8-byte word.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            // Fold the remainder length into the free top byte so inputs
            // that differ only by trailing zero bytes cannot collide.
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            tail[7] |= (rem.len() as u8) << 4;
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// One-shot Fx-style digest of a byte blob (word-at-a-time multiply-xor
/// with a length-salted tail, exactly [`FastHasher::write`]'s mixing but
/// seeded so an empty blob is nonzero). Not cryptographic: it detects
/// accidental change (bit rot, torn writes, an edited trace, another
/// build), not adversaries, and must stay cheap enough to run over tens
/// of MB.
pub fn digest64(bytes: &[u8]) -> u64 {
    let mut h = FastHasher {
        hash: 0x5DCA_2016_D16E_5700,
    };
    h.write(bytes);
    h.finish()
}

/// `BuildHasher` for [`FastHasher`].
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A hash map keyed by the fast unkeyed hasher that can be queried and
/// updated but not iterated, so hash order cannot reach event order or a
/// report (D03). Neither of these compiles:
///
/// ```compile_fail
/// let map = dca_sim_core::FastHashMap::<u64, u64>::default();
/// for (k, v) in &map {}
/// ```
///
/// ```compile_fail
/// let map = dca_sim_core::FastHashMap::<u64, u64>::default();
/// let _ = map.iter();
/// ```
#[derive(Clone, Debug)]
pub struct FastHashMap<K, V> {
    #[expect(
        clippy::disallowed_types,
        reason = "D01: the one std map, unkeyed and with no iteration API"
    )]
    map: std::collections::HashMap<K, V, FastBuildHasher>,
}

impl<K, V> Default for FastHashMap<K, V> {
    fn default() -> Self {
        FastHashMap {
            map: Default::default(),
        }
    }
}

impl<K: Eq + Hash, V> FastHashMap<K, V> {
    /// An empty map with room for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut m = Self::default();
        m.map.reserve(capacity);
        m
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn contains_key(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    pub fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.map.get_mut(key)
    }

    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.map.insert(key, value)
    }

    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key)
    }

    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        self.map.entry(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_of(v: impl std::hash::Hash) -> u64 {
        FastBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_input_sensitive() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_ne!(hash_of(42u64), hash_of(43u64));
        assert_ne!(hash_of("abc"), hash_of("abd"));
        assert_ne!(hash_of((1u32, 2u32)), hash_of((2u32, 1u32)));
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FastHashMap<u64, &str> = FastHashMap::with_capacity(4);
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.len(), 2);
        *m.entry(2).or_insert("?") = "deux";
        assert_eq!(m.remove(&2), Some("deux"));
        assert!(!m.contains_key(&2));
        // A map to `()` is the set.
        let mut s: FastHashMap<u64, ()> = FastHashMap::default();
        assert!(s.insert(7, ()).is_none());
        assert!(s.insert(7, ()).is_some());
    }

    #[test]
    fn block_addresses_spread_across_low_bits() {
        // HashMap uses the low bits of the hash; sequential block
        // addresses (the dominant key pattern) must not collide there.
        let mut low7 = std::collections::BTreeSet::new();
        for b in 0u64..128 {
            low7.insert(hash_of(b) & 127);
        }
        assert!(low7.len() > 64, "low bits too clumpy: {}", low7.len());
    }

    #[test]
    fn digest64_is_deterministic_and_sensitive() {
        let blob = vec![0xA5u8; 1000];
        assert_eq!(digest64(&blob), digest64(&blob));
        let mut flipped = blob.clone();
        flipped[500] ^= 0x10;
        assert_ne!(digest64(&blob), digest64(&flipped));
        assert_ne!(digest64(&blob[..999]), digest64(&blob));
        assert_ne!(digest64(b""), 0, "empty blob digest is seeded");
    }

    #[test]
    fn odd_length_byte_strings_differ() {
        assert_ne!(hash_of("1234567"), hash_of("12345678"));
        assert_ne!(hash_of(""), hash_of("\0"));
    }
}
