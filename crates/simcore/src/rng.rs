//! Deterministic, hierarchically splittable random-number streams.
//!
//! Every source of randomness in a simulation derives from one master seed
//! through named [`RngStream::derive`] calls, e.g.
//! `root.derive("arrivals").derive("user-42")`. Adding a new consumer of
//! randomness therefore never perturbs the draws seen by existing consumers,
//! which keeps experiments comparable across code revisions — the classic
//! "common random numbers" variance-reduction setup.
//!
//! # Generator contract
//!
//! A stream is a 64-bit key. Its words are the Philox4x32-10 blocks
//! (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC
//! 2011) of counters 0, 1, 2, … under that key, four words per block,
//! read in pairs: `next_u64` joins the next two words, low word first, and
//! `next_u32` is the low word of the next pair.
//! Block `i` is a pure function of `(key, i)`, so a child costs only a
//! hash: its key is the SplitMix64 finalizer of an FNV-1a hash of the
//! parent's key and the child's spelling, and no block is computed until
//! the first draw. A root's key is the finalizer of the master seed.
//!
//! The samplers' float math (`ln`, `exp`, and the sine and cosine of
//! 2πu) is this crate's own ([`math`]), so a draw is the same bits on
//! every platform whatever its libm. A normal is one half of a
//! Box–Muller pair: the first of two uniforms (in `(0, 1]`) sets the
//! radius, the second the angle, and the stream serves the cosine branch
//! first and the sine branch on its next normal.
//!
//! # Examples
//!
//! ```
//! use ntc_simcore::rng::RngStream;
//!
//! let root = RngStream::root(42);
//! let mut a = root.derive("arrivals");
//! let mut b = root.derive("arrivals");
//! // Same path ⇒ same stream.
//! assert_eq!(a.next_u64(), b.next_u64());
//! // A tuple key derives the same child as its concatenated spelling.
//! let user = 42_u64;
//! let mut c = root.derive(("user-", user));
//! assert_eq!(c.next_u64(), root.derive("user-42").next_u64());
//! ```
//!
//! # Keys
//!
//! A child is addressed by a [`Key`]: text, an integer (spelled as its
//! decimal digits, as `Display` does), a type that spells itself, or a
//! tuple of two to six keys spelled one after another, nested or not.
//! The child depends only on the spelling, so
//! `("inv-", 7_u64)` and `"inv-7"` address the same stream. Keys spell
//! straight into the label hash: no `String` is built and no `core::fmt`
//! machinery runs.

use core::fmt;

pub mod math;

/// The FNV-1a 64-bit hash state that folds a key's spelling into a child
/// seed. A [`Key`] feeds it the bytes of its label, in order.
#[derive(Debug)]
pub struct KeyHasher(u64);

impl KeyHasher {
    fn new(init: u64) -> Self {
        KeyHasher(init ^ 0xcbf29ce484222325)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        const PRIME: u64 = 0x100000001b3;
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Spells `s`: its UTF-8 bytes.
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Spells `n` as `Display` does: its decimal digits, no sign, no
    /// padding.
    #[inline]
    pub fn write_decimal(&mut self, mut n: u64) {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.write_bytes(&digits[i..]);
    }
}

/// A label that addresses a child stream, spelled without `core::fmt`.
///
/// A key's spelling must equal the text its `Display` (or the
/// equivalent `format!`) would produce: the child is derived from those
/// bytes, so the spelling is part of the reproducibility contract.
pub trait Key {
    /// Feeds the key's label to `h`, byte for byte.
    fn spell(&self, h: &mut KeyHasher);
}

impl Key for str {
    #[inline]
    fn spell(&self, h: &mut KeyHasher) {
        h.write_str(self);
    }
}

impl Key for String {
    #[inline]
    fn spell(&self, h: &mut KeyHasher) {
        h.write_str(self);
    }
}

impl<K: Key + ?Sized> Key for &K {
    #[inline]
    fn spell(&self, h: &mut KeyHasher) {
        (**self).spell(h);
    }
}

macro_rules! unsigned_keys {
    ($($t:ty),*) => {$(
        impl Key for $t {
            #[inline]
            fn spell(&self, h: &mut KeyHasher) {
                h.write_decimal(*self as u64);
            }
        }
    )*};
}

unsigned_keys!(u64, u32, usize);

impl Key for i64 {
    #[inline]
    fn spell(&self, h: &mut KeyHasher) {
        if *self < 0 {
            h.write_str("-");
        }
        h.write_decimal(self.unsigned_abs());
    }
}

macro_rules! tuple_keys {
    ($(($($k:ident),+)),+) => {$(
        impl<$($k: Key),+> Key for ($($k,)+) {
            #[inline]
            #[allow(non_snake_case)]
            fn spell(&self, h: &mut KeyHasher) {
                let ($($k,)+) = self;
                $($k.spell(h);)+
            }
        }
    )+};
}

tuple_keys!((A, B), (A, B, C), (A, B, C, D), (A, B, C, D, E), (A, B, C, D, E, F));

/// SplitMix64 finalizer: turns a structured seed into well-mixed bits.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// One Philox4x32-10 block (Salmon et al., SC 2011): ten rounds of two
/// 32×32→64-bit multiplies over the 128-bit `counter`, the 64-bit `key`
/// bumped by the Weyl constants between rounds.
#[inline]
fn philox4x32_10(counter: [u32; 4], key: [u32; 2]) -> [u32; 4] {
    const M0: u64 = 0xd251_1f53;
    const M1: u64 = 0xcd9e_8d57;
    const W0: u32 = 0x9e37_79b9;
    const W1: u32 = 0xbb67_ae85;
    let (mut c, mut k) = (counter, key);
    for round in 0..10 {
        if round > 0 {
            k = [k[0].wrapping_add(W0), k[1].wrapping_add(W1)];
        }
        let p0 = M0 * u64::from(c[0]);
        let p1 = M1 * u64::from(c[2]);
        c = [
            (p1 >> 32) as u32 ^ c[1] ^ k[0],
            p1 as u32,
            (p0 >> 32) as u32 ^ c[3] ^ k[1],
            p0 as u32,
        ];
    }
    c
}

/// A named, deterministic random stream.
///
/// Streams form a tree: [`RngStream::root`] creates the root from a master
/// seed, and [`RngStream::derive`] creates children addressed by label.
/// Deriving reads only the stream's key, never its position, so the set of
/// children is independent of how many values have been drawn from the
/// parent.
pub struct RngStream {
    /// The Philox key of every block, and the seed its children's keys
    /// are hashed from.
    key: u64,
    /// Index of the next block to compute.
    counter: u64,
    /// The current block as two `u64`s, each two words low word first.
    block: [u64; 2],
    /// Next unread `u64` of `block`; 2 when it is used up.
    index: usize,
    /// The radius and angle of the last Box–Muller pair, whose sine
    /// branch is the stream's next normal.
    spare: Option<(f64, f64)>,
}

impl RngStream {
    fn with_key(key: u64) -> Self {
        RngStream { key, counter: 0, block: [0; 2], index: 2, spare: None }
    }

    /// Creates the root stream of a seed tree.
    pub fn root(master_seed: u64) -> Self {
        Self::with_key(splitmix64(master_seed))
    }

    /// Derives an independent child stream addressed by `key`: a hash of
    /// the parent's key and the spelling, and no block.
    ///
    /// The same `(parent, spelling)` pair always yields the same stream,
    /// whatever mix of text, integers and tuples spells it.
    #[inline]
    pub fn derive(&self, key: impl Key) -> RngStream {
        let mut h = KeyHasher::new(self.key);
        key.spell(&mut h);
        Self::with_key(splitmix64(h.0))
    }

    /// The next 64 random bits: two consecutive words, low word first.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        if self.index >= 2 {
            let c = self.counter;
            let key = [self.key as u32, (self.key >> 32) as u32];
            let w = philox4x32_10([c as u32, (c >> 32) as u32, 0, 0], key);
            self.block =
                [u64::from(w[1]) << 32 | u64::from(w[0]), u64::from(w[3]) << 32 | u64::from(w[2])];
            self.counter = c.wrapping_add(1);
            self.index = 0;
        }
        let x = self.block[self.index];
        self.index += 1;
        x
    }

    /// The next 32 random bits: the low half of [`next_u64`](Self::next_u64).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }

    /// Draws a uniform float in `[0, 1)` from the top 53 bits of one
    /// `u64`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        SCALE * (self.next_u64() >> 11) as f64
    }

    /// Draws a uniform float in `(0, 1]` from the top 53 bits of one
    /// `u64`: the logarithm's domain, never zero.
    #[inline]
    fn uniform_open0(&mut self) -> f64 {
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        SCALE * ((self.next_u64() >> 11) + 1) as f64
    }

    /// Draws a uniform integer in `[low, high)`: a widening multiply,
    /// rejecting low halves above the zone.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    #[inline]
    pub fn uniform_range(&mut self, low: u64, high: u64) -> u64 {
        assert!(low < high, "uniform_range requires low < high");
        let range = high - low;
        let zone = (range << range.leading_zeros()).wrapping_sub(1);
        loop {
            let m = u128::from(self.next_u64()) * u128::from(range);
            if m as u64 <= zone {
                return low + (m >> 64) as u64;
            }
        }
    }

    /// Draws an exponential variate with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "exponential mean must be positive");
        -mean * math::ln(self.uniform_open0())
    }

    /// Draws a standard normal variate. Box–Muller turns one block's two
    /// uniforms into two normals: the cosine branch is returned, and the
    /// sine branch is the next call's, computed only if it comes.
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        if let Some((r, u)) = self.spare.take() {
            return r * math::sin_2pi(u);
        }
        let r = (-2.0 * math::ln(self.uniform_open0())).sqrt();
        let u = self.uniform();
        self.spare = Some((r, u));
        r * math::cos_2pi(u)
    }

    /// Draws a normal variate with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or either parameter is not finite.
    #[inline]
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(mean.is_finite() && std_dev.is_finite() && std_dev >= 0.0);
        mean + std_dev * self.standard_normal()
    }

    /// Draws a lognormal variate parameterised by the mean and standard
    /// deviation of the *underlying normal*.
    ///
    /// # Panics
    ///
    /// Panics as [`RngStream::normal`] does.
    #[inline]
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        math::exp(self.normal(mu, sigma))
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.uniform() < p
    }

    /// Picks a uniformly random element of `items`, or `None` if empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            let i = self.uniform_range(0, items.len() as u64) as usize;
            Some(&items[i])
        }
    }
}

impl fmt::Debug for RngStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RngStream").field("key", &self.key).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A second, plain transcription of the Philox4x32-10 round function
    /// as the paper and Random123's `philox.h` state it: the multiply
    /// spelled out as high and low halves, the key schedule kept as an
    /// array of round keys.
    fn philox_reference(ctr: [u32; 4], key: [u32; 2]) -> [u32; 4] {
        fn mulhilo(a: u32, b: u32) -> (u32, u32) {
            let product = a as u64 * b as u64;
            ((product >> 32) as u32, (product & 0xffff_ffff) as u32)
        }
        let mut round_keys = [key; 10];
        for r in 1..10 {
            round_keys[r][0] = round_keys[r - 1][0].wrapping_add(0x9E37_79B9);
            round_keys[r][1] = round_keys[r - 1][1].wrapping_add(0xBB67_AE85);
        }
        let mut x = ctr;
        for k in round_keys {
            let (hi0, lo0) = mulhilo(0xD251_1F53, x[0]);
            let (hi1, lo1) = mulhilo(0xCD9E_8D57, x[2]);
            x = [hi1 ^ x[1] ^ k[0], lo1, hi0 ^ x[3] ^ k[1], lo0];
        }
        x
    }

    #[test]
    fn philox_matches_the_random123_known_answers() {
        // Random123's kat_vectors for philox4x32 at 10 rounds.
        let cases = [
            ([0; 4], [0; 2], [0x6627_e8d5, 0xe169_c58d, 0xbc57_ac4c, 0x9b00_dbd8]),
            ([u32::MAX; 4], [u32::MAX; 2], [0x408f_276d, 0x41c8_3b0e, 0xa20b_c7c6, 0x6d54_51fd]),
            (
                [0x243f_6a88, 0x85a3_08d3, 0x1319_8a2e, 0x0370_7344],
                [0xa409_3822, 0x299f_31d0],
                [0xd16c_fe09, 0x94fd_cceb, 0x5001_e420, 0x2412_6ea1],
            ),
        ];
        for (ctr, key, want) in cases {
            assert_eq!(philox4x32_10(ctr, key), want, "ctr {ctr:x?}, key {key:x?}");
            assert_eq!(philox_reference(ctr, key), want, "ctr {ctr:x?}, key {key:x?}");
        }
    }

    #[test]
    fn philox_matches_the_plain_transcription() {
        let mut r = RngStream::root(17);
        for _ in 0..10_000 {
            let ctr = [r.next_u32(), r.next_u32(), r.next_u32(), r.next_u32()];
            let key = [r.next_u32(), r.next_u32()];
            assert_eq!(philox4x32_10(ctr, key), philox_reference(ctr, key));
        }
    }

    #[test]
    fn a_streams_words_are_its_keys_blocks_in_counter_order() {
        let mut s = RngStream::root(3).derive("x");
        let key = [s.key as u32, (s.key >> 32) as u32];
        for i in 0..6 {
            let w = philox_reference([i, 0, 0, 0], key);
            let pair = |lo: u32, hi: u32| u64::from(hi) << 32 | u64::from(lo);
            assert_eq!(s.next_u64(), pair(w[0], w[1]), "block {i}, low half");
            assert_eq!(s.next_u32(), w[2], "block {i}, high half's low word");
        }
    }

    #[test]
    fn box_muller_serves_both_branches() {
        let mut s = RngStream::root(9).derive("bm");
        let mut u = RngStream::root(9).derive("bm");
        for _ in 0..100 {
            let (z0, z1) = (s.standard_normal(), s.standard_normal());
            let r = (-2.0 * math::ln(u.uniform_open0())).sqrt();
            let a = u.uniform();
            let (cos, sin) = (math::cos_2pi(a), math::sin_2pi(a));
            assert_eq!((z0.to_bits(), z1.to_bits()), ((r * cos).to_bits(), (r * sin).to_bits()));
        }
    }

    #[test]
    fn same_path_same_stream() {
        let root = RngStream::root(7);
        let mut a = root.derive("x").derive("y");
        let mut b = root.derive("x").derive("y");
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn different_labels_differ() {
        let root = RngStream::root(7);
        assert_ne!(root.derive("a").next_u64(), root.derive("b").next_u64());
    }

    #[test]
    fn different_master_seeds_differ() {
        assert_ne!(
            RngStream::root(1).derive("a").next_u64(),
            RngStream::root(2).derive("a").next_u64()
        );
    }

    #[test]
    fn derivation_is_position_independent() {
        let root = RngStream::root(99);
        let mut consumed = root.derive("p");
        for _ in 0..100 {
            consumed.next_u64();
        }
        // Deriving from `consumed` after drawing matches deriving before.
        let fresh = root.derive("p");
        assert_eq!(consumed.derive("c").next_u64(), fresh.derive("c").next_u64());
    }

    #[test]
    fn integer_keys_spell_their_decimal_digits() {
        let root = RngStream::root(3);
        for i in [0, 7, 42, 1_000_000, u64::MAX] {
            assert_eq!(root.derive(i).next_u64(), root.derive(i.to_string()).next_u64());
        }
        for i in [0, -1, 42, i64::MIN, i64::MAX] {
            assert_eq!(root.derive(i).next_u64(), root.derive(i.to_string()).next_u64());
        }
        assert_eq!(root.derive(u32::MAX).next_u64(), root.derive("4294967295").next_u64());
        assert_eq!(root.derive(9_usize).next_u64(), root.derive("9").next_u64());
    }

    #[test]
    fn tuple_keys_hash_their_concatenated_spelling() {
        let root = RngStream::root(11);
        for (text, n) in [("", 0), ("é-中", 3), ("😀", u64::MAX)] {
            let label = format!("{text}{n}");
            assert_eq!(root.derive((text, n)).next_u64(), root.derive(&label).next_u64());
        }
        let nested = (("inv-", (7_u64, "-")), 3_u32, ("-a", 2_usize), "");
        assert_eq!(root.derive(nested).next_u64(), root.derive("inv-7-3-a2").next_u64());
        assert_eq!(root.derive(("", "")).next_u64(), root.derive("").next_u64());
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut s = RngStream::root(5).derive("exp");
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| s.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn normal_moments_are_close() {
        let mut s = RngStream::root(5).derive("norm");
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| s.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean={mean}");
        assert!((var - 4.0).abs() < 0.3, "var={var}");
    }

    #[test]
    fn chance_frequency_is_close() {
        let mut s = RngStream::root(5).derive("chance");
        let hits = (0..10_000).filter(|_| s.chance(0.25)).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.02);
    }

    #[test]
    fn choose_covers_all_items() {
        let mut s = RngStream::root(5).derive("choose");
        let items = [1, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[*s.choose(&items).unwrap() as usize - 1] = true;
        }
        assert_eq!(seen, [true, true, true]);
        assert_eq!(s.choose::<u8>(&[]), None);
    }
}
