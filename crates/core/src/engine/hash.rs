//! A small multiply-rotate hasher for the loop's integer-keyed maps.
//!
//! The coalescing key map and the `(batch, component)` maps (pending
//! hedges, partly delivered joins, the try ledger) are keyed by a few
//! machine integers each and are only probed, never iterated in an order
//! that matters, so they need neither SipHash's flooding resistance nor
//! its cost. Each word is folded in with a rotate, an xor and one
//! multiply by a 64-bit odd constant (the mixing step of the Fx hasher),
//! and `finish` rotates the well-mixed high bits down to where the table
//! takes its bucket index from.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`MulRotate`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<MulRotate>>;

/// A multiply-rotate [`Hasher`] for integer keys.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct MulRotate {
    hash: u64,
}

/// An odd constant with well-spread bits, from the Fx hasher.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl MulRotate {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for MulRotate {
    fn write(&mut self, bytes: &[u8]) {
        // The maps' keys hash through the integer writes below; this
        // only completes the trait.
        for &byte in bytes {
            self.add_word(byte.into());
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_word(i.into());
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_word(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_word(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, BuildHasherDefault};

    use ntc_simcore::units::SimTime;

    use super::*;

    fn hash_of(key: (usize, SimTime)) -> u64 {
        BuildHasherDefault::<MulRotate>::default().hash_one(key)
    }

    #[test]
    fn equal_keys_hash_equal_and_neighbours_differ() {
        let at = SimTime::from_secs(60);
        assert_eq!(hash_of((3, at)), hash_of((3, at)));
        assert_ne!(hash_of((3, at)), hash_of((4, at)));
        assert_ne!(hash_of((3, at)), hash_of((3, SimTime::from_secs(120))));
    }

    #[test]
    fn window_aligned_keys_spread_over_the_low_bits() {
        // Coalescing keys are window boundaries: multiples of a minute
        // in microseconds, whose low bits are all zero. Their hashes
        // must still fill the low bits a table indexes by.
        let mut buckets = [0u32; 64];
        for w in 0..6_400u64 {
            buckets[(hash_of((w as usize % 7, SimTime::from_secs(60 * w))) % 64) as usize] += 1;
        }
        assert!(buckets.iter().all(|&n| (50..=150).contains(&n)), "{buckets:?}");
    }
}
