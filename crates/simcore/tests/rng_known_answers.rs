//! Known-answer vectors for [`RngStream`]: the words of six checks
//! (root streams, mixed and aligned word reads, uniform floats and
//! integers, exponential and normal variates), recorded at two
//! `(master, label)` pairs so the generator stays pinned without an
//! external oracle.
//!
//! Each check turns its draws into a trace of `u64` words (`u32` reads
//! widened, floats as their bits). A recording holds
//! the trace's length, its words at a few positions around the 32-word
//! buffer refills, and an FNV-1a digest of the whole trace. The values
//! were taken from `RngStream` while a differential test held it equal,
//! word for word, to rand 0.8.5's `StdRng`, so they are rand's words too.

use ntc_simcore::rng::RngStream;

/// The two `(master, label)` pairs every recording is taken at; the root
/// check uses the masters alone.
const PAIRS: [(u64, &str); 2] = [(42, "work"), (u64::MAX, "inv-3-c1-edge-a1")];

/// Trace positions recorded word for word, besides the last word: the
/// first two, and the two 32-word buffer refills a `u64` trace crosses
/// first.
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
            0xcfabf0acb22c16de,
            0xf975fad01e962977,
            0x37ac89d3093fc52a,
            0x297a8d7f4968f05c,
            0x83077c3a27ac91ac,
        ],
        last: 0x3ba7e9eee0ec9256,
        digest: 0x8f8b2c2797cc14b2,
    },
    Known {
        len: 80,
        words: [
            0x4150f90102b1ee30,
            0x9ffaa6f631b66571,
            0x00564e9fa8b99acb,
            0x84c207b076364790,
            0x1e2310166e0ed688,
        ],
        last: 0xec4033a337af8670,
        digest: 0x9ef33b183f8e9443,
    },
];
const MIXED: [Known; 2] = [
    Known {
        len: 182,
        words: [
            0x00000000eeabb7b9,
            0x00000000f3a07334,
            0x000000006577225b,
            0x00000000fe808511,
            0xa2e638172cf81dde,
        ],
        last: 0x3d9413d73636794d,
        digest: 0x6a132300f0347f66,
    },
    Known {
        len: 182,
        words: [
            0x00000000632185a8,
            0x00000000ee7ba49e,
            0x00000000f314eff5,
            0x000000000aecea66,
            0xe6eeb76fc50d6195,
        ],
        last: 0x6d2e66be656cbd13,
        digest: 0xb49c89f5c26fe8bc,
    },
];
const ALIGNED: [Known; 2] = [
    Known {
        len: 100,
        words: [
            0xf3a07334eeabb7b9,
            0x96c46984d6333019,
            0x5b83d510e9d0f477,
            0x145cf30c981832a7,
            0xc9c3af143158362e,
        ],
        last: 0xa77053b6b86d6b72,
        digest: 0xa9dc5b2b62b099bd,
    },
    Known {
        len: 100,
        words: [
            0xee7ba49e632185a8,
            0x6f765b3d841c0266,
            0x180405c3c8ee19d4,
            0x5089e7ee9d7856d0,
            0x6abe1e6491444834,
        ],
        last: 0xdfc67f1cd62d7f91,
        digest: 0x2e3076546d947704,
    },
];
const UNIFORM: [Known; 2] = [
    Known {
        len: 100,
        words: [
            0x3fee740e669dd576,
            0x3fe2d88d309ac666,
            0x3fd6e0f5443a743c,
            0x3fb45cf30c981830,
            0x3fe93875e2862b06,
        ],
        last: 0x3fe4ee0a76d70dad,
        digest: 0x3cb369b8150ffae9,
    },
    Known {
        len: 100,
        words: [
            0x3fedcf7493cc6430,
            0x3fdbdd96cf610700,
            0x3fb80405c3c8ee18,
            0x3fd42279fba75e14,
            0x3fdaaf8799245112,
        ],
        last: 0x3febf8cfe39ac5af,
        digest: 0xaccfe0aedad8c0d5,
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
        last: 0x6c1b858d5df03a3e,
        digest: 0x9813043e01632c69,
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
        last: 0x48003d37f5920c95,
        digest: 0x97f41f4bd8430bc3,
    },
];
const EXPONENTIAL_NORMAL: [Known; 2] = [
    Known {
        len: 128,
        words: [
            0x3fbfb4a52e21e17d,
            0x3fdff454fe053df7,
            0xbff733eac0c396b0,
            0x3fec6aeca3ffa098,
            0x3fd1d75ef86e83e7,
        ],
        last: 0xbfe5f2947fa7c302,
        digest: 0x81cb1e3328ae5147,
    },
    Known {
        len: 128,
        words: [
            0x3fc6ae72c8852102,
            0xbff33129477a3371,
            0x3fe5bf932a837cfa,
            0x400191de82eb7f11,
            0x3fe9608540eb19a2,
        ],
        last: 0xbff771ccefa6a629,
        digest: 0x7b58fa63177a52fd,
    },
];
