//! The one hasher for the simulator's integer-keyed maps.
//!
//! Every key hashed here is made by the program itself: page numbers,
//! frame ids, granule numbers, pipe and segment ids, signal numbers and
//! allocator addresses. None is chosen by anything outside it, and a
//! collision only costs a probe, never a different result (iteration
//! order is never allowed to reach guest-visible output). So SipHash's
//! flood resistance buys nothing here, and one multiply does the job.

// The aliases below are the one place the std tables are named.
#![allow(clippy::disallowed_types)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `2^64 / φ`: Fibonacci hashing's multiplier.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Hashes integers with one 64×64→128-bit multiply, folding the high half
/// of the product into the low half.
///
/// The table picks a bucket by the hash's low bits. A plain wrapping
/// multiply (Fibonacci hashing) leaves those bits depending only on the
/// key's low bits, so keys that differ only above bit *n* (vpns at 1 GiB
/// strides, allocator bases at 2^k strides) all land in one bucket. The
/// high half depends on every key bit, and folding it in spreads them.
/// Several writes (tuple keys) chain through the state.
#[derive(Clone, Copy, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        let p = u128::from(self.0 ^ n) * u128::from(K);
        self.0 = p as u64 ^ (p >> 64) as u64;
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// A hash map with integer-like keys, hashed by [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A hash set with integer-like keys, hashed by [`IntHasher`].
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(k: impl std::hash::Hash) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(k)
    }

    /// Keys that differ only in their high bits must not share the low
    /// bits a table indexes by. Plain Fibonacci hashing (a wrapping
    /// multiply) sends every one of these keys to bucket 0; a uniformly
    /// random hash would fill about 1024·(1 − 1/e) ≈ 647 of the 1,024
    /// buckets.
    #[test]
    fn keys_differing_only_in_high_bits_spread_over_low_bits() {
        for shift in [30, 31] {
            let mut buckets: Vec<u64> = (0..1024u64).map(|i| hash(i << shift) & 1023).collect();
            buckets.sort_unstable();
            buckets.dedup();
            assert!(
                buckets.len() >= 960,
                "keys i << {shift} fill only {} of 1024 buckets",
                buckets.len()
            );
        }
    }

    #[test]
    fn small_keys_and_tuples_hash_apart() {
        let mut hs: Vec<u64> = (0..256u64).map(hash).collect();
        hs.sort_unstable();
        hs.dedup();
        assert_eq!(hs.len(), 256);
        assert_ne!(hash((1u32, 2u16)), hash((2u32, 1u16)));
    }

    #[test]
    fn maps_keyed_by_integers_behave_as_maps() {
        let mut m: IntMap<u64, u64> = IntMap::default();
        for i in 0..1000u64 {
            m.insert(i << 40, i);
        }
        assert!((0..1000u64).all(|i| m[&(i << 40)] == i));
        let s: IntSet<(u32, u16)> = [(1, 2), (1, 2), (2, 1)].into_iter().collect();
        assert_eq!(s.len(), 2);
    }
}
