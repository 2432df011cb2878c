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
//! A stream's words are exactly those of rand 0.8.5's `StdRng` seeded with
//! `seed_from_u64` from the stream's seed: ChaCha12 with a 64-bit block
//! counter and a zero nonce, keyed by `rand_core`'s PCG32 seed expansion,
//! with `next_u64` joining two consecutive words low word first. The
//! samplers follow rand 0.8.5's algorithms too, so every draw matches the
//! crate's. Unlike the crate, a stream buffers one 16-word block rather
//! than four: ChaCha is counter-mode, so the words are the same, and a leaf
//! stream that draws a few values pays for one block.
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

mod feed;

pub use feed::{Background, NormalFeed, NormalPump};

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

const BLOCK_WORDS: usize = 16;

#[inline(always)]
fn quarter_round(x: &mut [u32; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(16);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(12);
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(8);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(7);
}

/// One ChaCha block: `double_rounds` column-and-diagonal rounds over the
/// constants, `key`, a 64-bit block counter in words 12–13 and a zero
/// nonce, added back to the input.
fn chacha_block(key: &[u32; 8], counter: u64, double_rounds: usize) -> [u32; BLOCK_WORDS] {
    let mut init = [0u32; BLOCK_WORDS];
    init[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
    init[4..12].copy_from_slice(key);
    init[12] = counter as u32;
    init[13] = (counter >> 32) as u32;
    let mut x = init;
    for _ in 0..double_rounds {
        quarter_round(&mut x, 0, 4, 8, 12);
        quarter_round(&mut x, 1, 5, 9, 13);
        quarter_round(&mut x, 2, 6, 10, 14);
        quarter_round(&mut x, 3, 7, 11, 15);
        quarter_round(&mut x, 0, 5, 10, 15);
        quarter_round(&mut x, 1, 6, 11, 12);
        quarter_round(&mut x, 2, 7, 8, 13);
        quarter_round(&mut x, 3, 4, 9, 14);
    }
    for (w, i) in x.iter_mut().zip(init) {
        *w = w.wrapping_add(i);
    }
    x
}

/// The ChaCha12 keystream of rand 0.8.5's `StdRng`, one block buffered.
struct ChaCha12 {
    key: [u32; 8],
    /// Counter of the next block to compute.
    counter: u64,
    block: [u32; BLOCK_WORDS],
    /// Next unread word of `block`; `BLOCK_WORDS` when it is used up.
    index: usize,
}

impl ChaCha12 {
    /// `rand_core` 0.6's `SeedableRng::seed_from_u64`: each PCG32 output
    /// is one little-endian key word. No block is computed until the
    /// first draw.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let key = core::array::from_fn(|_| {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            xorshifted.rotate_right((state >> 59) as u32)
        });
        ChaCha12 { key, counter: 0, block: [0; BLOCK_WORDS], index: BLOCK_WORDS }
    }

    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.index >= BLOCK_WORDS {
            self.block = chacha_block(&self.key, self.counter, 6);
            self.counter = self.counter.wrapping_add(1);
            self.index = 0;
        }
        let w = self.block[self.index];
        self.index += 1;
        w
    }

    /// Two consecutive words, low word first — across a block boundary
    /// too, as rand's `BlockRng` does at the end of its buffer.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let i = self.index;
        if i + 1 < BLOCK_WORDS {
            self.index = i + 2;
            u64::from(self.block[i + 1]) << 32 | u64::from(self.block[i])
        } else {
            let lo = self.next_u32();
            u64::from(self.next_u32()) << 32 | u64::from(lo)
        }
    }
}

/// A named, deterministic random stream.
///
/// Streams form a tree: [`RngStream::root`] creates the root from a master
/// seed, and [`RngStream::derive`] creates children addressed by label.
/// Deriving reads only the stream's identity (seed + label), never its
/// position, so the set of children is independent of how many values have
/// been drawn from the parent.
pub struct RngStream {
    rng: ChaCha12,
    derivation_seed: u64,
}

impl RngStream {
    fn from_derivation_seed(derivation_seed: u64) -> Self {
        RngStream {
            rng: ChaCha12::seed_from_u64(splitmix64(derivation_seed ^ 0x5eed)),
            derivation_seed,
        }
    }

    /// Creates the root stream of a seed tree.
    pub fn root(master_seed: u64) -> Self {
        Self::from_derivation_seed(splitmix64(master_seed))
    }

    /// Derives an independent child stream addressed by `key`.
    ///
    /// The same `(parent, spelling)` pair always yields the same stream,
    /// whatever mix of text, integers and tuples spells it.
    pub fn derive(&self, key: impl Key) -> RngStream {
        let mut h = KeyHasher::new(self.derivation_seed);
        key.spell(&mut h);
        Self::from_derivation_seed(splitmix64(h.0))
    }

    /// The next 32 random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        self.rng.next_u32()
    }

    /// The next 64 random bits: two words, low word first.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Draws a uniform float in `[0, 1)` from the top 53 bits of one
    /// `u64` (rand's `Standard` for `f64`).
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        SCALE * (self.rng.next_u64() >> 11) as f64
    }

    /// Draws a uniform float in `[low, high)` the way rand's
    /// `UniformFloat::sample_single` does: a `[1, 2)` float built from 52
    /// bits, shifted and scaled, redrawn with the scale one ulp smaller
    /// whenever rounding lands on `high`. Over `[f64::MIN_POSITIVE, 1)`,
    /// the only range drawn from, rounding never lands there, so each
    /// call reads exactly one `u64`.
    fn uniform_between(&mut self, low: f64, high: f64) -> f64 {
        let mut scale = high - low;
        loop {
            let value1_2 = f64::from_bits((self.rng.next_u64() >> 12) | (1023u64 << 52));
            let res = (value1_2 - 1.0) * scale + low;
            if res < high {
                return res;
            }
            scale = f64::from_bits(scale.to_bits() - 1);
        }
    }

    /// Draws a uniform integer in `[low, high)` (rand's `UniformInt`:
    /// a widening multiply, rejecting low halves above the zone).
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
            let m = u128::from(self.rng.next_u64()) * u128::from(range);
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
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "exponential mean must be positive");
        let u = self.uniform_between(f64::MIN_POSITIVE, 1.0);
        -mean * u.ln()
    }

    /// Draws a standard normal variate via Box–Muller.
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = self.uniform_between(f64::MIN_POSITIVE, 1.0);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }

    /// Draws a normal variate with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or either parameter is not finite.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        check_normal(mean, std_dev);
        mean + std_dev * self.standard_normal()
    }

    /// Draws a lognormal variate parameterised by the mean and standard
    /// deviation of the *underlying normal*.
    ///
    /// # Panics
    ///
    /// Panics as [`RngStream::normal`] does.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
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

/// The parameter check of every normal sampler.
fn check_normal(mean: f64, std_dev: f64) {
    assert!(mean.is_finite() && std_dev.is_finite() && std_dev >= 0.0);
}

/// A source of standard normal variates, in a fixed order.
///
/// [`RngStream`] draws them on the spot; a [`NormalFeed`] serves one
/// stream's draws, in the same order, from chunks that may be computed
/// on another thread. A sampler generic over `Normals` therefore sees the
/// same values from either.
pub trait Normals {
    /// The next standard normal variate.
    fn standard_normal(&mut self) -> f64;

    /// Draws a lognormal variate from the next standard normal `z`:
    /// `(mu + sigma * z).exp()`, bit for bit [`RngStream::lognormal`].
    ///
    /// # Panics
    ///
    /// Panics as [`RngStream::normal`] does, before drawing.
    #[inline]
    fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        check_normal(mu, sigma);
        (mu + sigma * self.standard_normal()).exp()
    }
}

impl Normals for RngStream {
    #[inline]
    fn standard_normal(&mut self) -> f64 {
        RngStream::standard_normal(self)
    }
}

impl fmt::Debug for RngStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RngStream").field("derivation_seed", &self.derivation_seed).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chacha20_block_matches_rfc7539_zero_key_vector() {
        // RFC 7539 appendix A.1, test vector 1: all-zero key, nonce and
        // counter, 20 rounds.
        let expected = [
            0x76, 0xb8, 0xe0, 0xad, 0xa0, 0xf1, 0x3d, 0x90, 0x40, 0x5d, 0x6a, 0xe5, 0x53, 0x86,
            0xbd, 0x28, 0xbd, 0xd2, 0x19, 0xb8, 0xa0, 0x8d, 0xed, 0x1a, 0xa8, 0x36, 0xef, 0xcc,
            0x8b, 0x77, 0x0d, 0xc7, 0xda, 0x41, 0x59, 0x7c, 0x51, 0x57, 0x48, 0x8d, 0x77, 0x24,
            0xe0, 0x3f, 0xb8, 0xd8, 0x4a, 0x37, 0x6a, 0x43, 0xb8, 0xf4, 0x15, 0x18, 0xa1, 0x1c,
            0xc3, 0x87, 0xb6, 0x69, 0xb2, 0xee, 0x65, 0x86,
        ];
        let bytes: Vec<u8> =
            chacha_block(&[0; 8], 0, 10).iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(bytes, expected);
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
