//! Known-answer vectors for [`RngStream`]: the words of six checks
//! (root streams, mixed and aligned word reads, uniform floats and
//! integers, exponential and normal variates), recorded at two
//! `(master, label)` pairs so the generator, its key derivation and its
//! samplers stay pinned.
//!
//! Each check turns its draws into a trace of `u64` words (`u32` reads
//! widened, floats as their bits). A recording holds the trace's length,
//! its words at a few positions, and an FNV-1a digest of the whole trace.
//! The values were taken from `RngStream` itself; the Philox block under
//! it is pinned separately, by Random123's known answers and a second,
//! plain implementation (`rng.rs`'s unit tests), and the float math by
//! `math_against_std.rs`.

use ntc_simcore::rng::RngStream;

/// The two `(master, label)` pairs every recording is taken at; the root
/// check uses the masters alone.
const PAIRS: [(u64, &str); 2] = [(42, "work"), (u64::MAX, "inv-3-c1-edge-a1")];

/// Trace positions recorded word for word, besides the last word.
const POSITIONS: [usize; 5] = [0, 1, 31, 32, 64];

/// One check's recording at one pair.
struct Known {
    len: usize,
    words: [u64; 5],
    last: u64,
    digest: u64,
}

fn fnv1a(trace: &[u64]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for w in trace {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn check(name: &str, pair: usize, trace: &[u64], known: &Known) {
    let ctx = format!("{name} at {:?}", PAIRS[pair]);
    assert_eq!(trace.len(), known.len, "{ctx}: trace length");
    for (&at, &word) in POSITIONS.iter().zip(&known.words) {
        assert_eq!(trace[at], word, "{ctx}: word {at}");
    }
    assert_eq!(trace.last(), Some(&known.last), "{ctx}: last word");
    assert_eq!(fnv1a(trace), known.digest, "{ctx}: digest");
}

fn derived(pair: usize) -> RngStream {
    let (master, label) = PAIRS[pair];
    RngStream::root(master).derive(label)
}

fn root_trace(pair: usize) -> Vec<u64> {
    let mut r = RngStream::root(PAIRS[pair].0);
    (0..80).map(|_| r.next_u64()).collect()
}

fn mixed_trace(pair: usize) -> Vec<u64> {
    let mut r = derived(pair);
    let mut trace = Vec::new();
    for (reads_u32, then_u64) in [(15, 1), (46, 1), (1, 40), (3, 70), (0, 5)] {
        trace.extend((0..reads_u32).map(|_| u64::from(r.next_u32())));
        trace.extend((0..then_u64).map(|_| r.next_u64()));
    }
    trace
}

fn aligned_trace(pair: usize) -> Vec<u64> {
    let mut r = derived(pair);
    (0..100).map(|_| r.next_u64()).collect()
}

fn uniform_trace(pair: usize) -> Vec<u64> {
    let mut r = derived(pair);
    (0..100).map(|_| r.uniform().to_bits()).collect()
}

fn uniform_range_trace(pair: usize) -> Vec<u64> {
    let ranges = [
        (0, 1),
        (0, 7),
        (5, 1_000),
        (1_000_000, 1_000_000_007),
        (0, u64::MAX),
        (0, (1 << 63) + 1),
        (10, 10 + (1 << 63) + 12_345),
    ];
    let mut r = derived(pair);
    let mut trace = Vec::new();
    for (low, high) in ranges {
        trace.extend((0..64).map(|_| r.uniform_range(low, high)));
    }
    trace
}

fn exponential_normal_trace(pair: usize) -> Vec<u64> {
    let mut r = derived(pair);
    let mut trace = Vec::new();
    for _ in 0..64 {
        trace.push(r.exponential(2.5).to_bits());
        trace.push(r.standard_normal().to_bits());
    }
    trace
}

#[test]
fn root_streams() {
    for (pair, known) in ROOT.iter().enumerate() {
        check("root", pair, &root_trace(pair), known);
    }
}

#[test]
fn mixed_word_reads_across_block_boundaries() {
    for (pair, known) in MIXED.iter().enumerate() {
        check("mixed", pair, &mixed_trace(pair), known);
    }
}

#[test]
fn aligned_u64_reads() {
    for (pair, known) in ALIGNED.iter().enumerate() {
        check("aligned", pair, &aligned_trace(pair), known);
    }
}

#[test]
fn uniform_f64() {
    for (pair, known) in UNIFORM.iter().enumerate() {
        check("uniform", pair, &uniform_trace(pair), known);
    }
}

#[test]
fn uniform_range() {
    for (pair, known) in UNIFORM_RANGE.iter().enumerate() {
        check("uniform_range", pair, &uniform_range_trace(pair), known);
    }
}

#[test]
fn exponential_and_normal() {
    for (pair, known) in EXPONENTIAL_NORMAL.iter().enumerate() {
        check("exponential_normal", pair, &exponential_normal_trace(pair), known);
    }
}

// Recorded values, one table per check, one entry per pair of `PAIRS`.

const ROOT: [Known; 2] = [
    Known {
        len: 80,
        words: [
            0x4306b273a1d7a484,
            0x8a9e1b8531c5804d,
            0x4897fbaa6f57b21d,
            0x68ef344004581d3d,
            0x9623d9610840ec4c,
        ],
        last: 0x752b31c92776b2d9,
        digest: 0x299c39f4767e7080,
    },
    Known {
        len: 80,
        words: [
            0xe87638da67a0d152,
            0x29e034149a4df249,
            0xdd4b81acb735733c,
            0x9424abf74ee2d393,
            0x3d7c3d975a7556e6,
        ],
        last: 0x6dc0a58337734991,
        digest: 0x312b89e5c7d74abc,
    },
];
const MIXED: [Known; 2] = [
    Known {
        len: 182,
        words: [
            0x000000003ef846f1,
            0x00000000253b99bf,
            0x00000000bbb544ba,
            0x000000003f5c37e8,
            0x2ed6acd74dcc788d,
        ],
        last: 0x39a0e857e34f8ae3,
        digest: 0x8107d268fe678e0b,
    },
    Known {
        len: 182,
        words: [
            0x00000000f0c07d4d,
            0x0000000006a53e46,
            0x0000000008a4594d,
            0x00000000f6afbf19,
            0xd12de62a811fccb6,
        ],
        last: 0x290f7185d51e4e3e,
        digest: 0xb6e02915821332d5,
    },
];
const ALIGNED: [Known; 2] = [
    Known {
        len: 100,
        words: [
            0xe47d76af3ef846f1,
            0x51d98914253b99bf,
            0x18520b90bbb544ba,
            0x8f98f2533f5c37e8,
            0x2ed6acd74dcc788d,
        ],
        last: 0x364c13c3243d624c,
        digest: 0xafae5dfb85817ad3,
    },
    Known {
        len: 100,
        words: [
            0x729f28a7f0c07d4d,
            0x6d160f4406a53e46,
            0xb709090c08a4594d,
            0xc124857df6afbf19,
            0xd12de62a811fccb6,
        ],
        last: 0x8ce32e3a9cff91be,
        digest: 0xcd2b6a6524080bf8,
    },
];
const UNIFORM: [Known; 2] = [
    Known {
        len: 100,
        words: [
            0x3fec8faed5e7df08,
            0x3fd4766245094ee6,
            0x3fb8520b90bbb540,
            0x3fe1f31e4a67eb86,
            0x3fc76b566ba6e63c,
        ],
        last: 0x3fcb2609e1921eb0,
        digest: 0x2e99f74ec4f05319,
    },
    Known {
        len: 100,
        words: [
            0x3fdca7ca29fc301e,
            0x3fdb4583d101a94e,
            0x3fe6e1212181148b,
            0x3fe82490afbed5f7,
            0x3fea25bcc55023f9,
        ],
        last: 0x3fe19c65c7539ff2,
        digest: 0xb813e77ad4e3eb7a,
    },
];
const UNIFORM_RANGE: [Known; 2] = [
    Known {
        len: 448,
        words: [
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000001,
        ],
        last: 0x66ffd81dd6e7a097,
        digest: 0x403124868150260d,
    },
    Known {
        len: 448,
        words: [
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000003,
        ],
        last: 0x4d29b5ab135804ca,
        digest: 0x0c325283d7cc3737,
    },
];
const EXPONENTIAL_NORMAL: [Known; 2] = [
    Known {
        len: 128,
        words: [
            0x3fd23085614e6a60,
            0xbff40948d3f70ecb,
            0xbfefacc74b42f24f,
            0x3ff7206516d69789,
            0x4010fc15845606ad,
        ],
        last: 0xbfd995df130d6cd5,
        digest: 0x23b73d3b16e0d7ed,
    },
    Known {
        len: 128,
        words: [
            0x400012202f897c34,
            0x3fa2c422f632e2f0,
            0x3fcab50c2275608b,
            0x3fe68a34c6ea1598,
            0x3fe028aac6284fa6,
        ],
        last: 0x3ff2111fd34e548f,
        digest: 0xc6085ea12d75bd0d,
    },
];
