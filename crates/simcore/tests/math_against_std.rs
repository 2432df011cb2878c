//! The samplers' own math against `std` (the platform's libm): the
//! largest distance, in ulps, between `ln`, `exp`, `cos_2pi` and `sin_2pi` and
//! the same functions computed by `std`, over ten million arguments each
//! across the samplers' domains, plus bit-pattern known answers.
//!
//! `std`'s sine and cosine take an argument already rounded to a double,
//! so the reference for 2πu reduces `u` exactly first, as `cos_2pi`
//! does, and corrects `std`'s result for the rounding of 2πr to first
//! order. Run with `--nocapture` to see the measured maxima.

use ntc_simcore::rng::math::{cos_2pi, exp, ln, sin_2pi};
use ntc_simcore::rng::RngStream;

/// Arguments per function.
const N: usize = 10_000_000;

/// The distance between `a` and `b` in units of the last place of `b`.
fn ulps(a: f64, b: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    let ulp = f64::from_bits(b.abs().to_bits() + 1) - b.abs();
    (a - b).abs() / ulp
}

/// `(sin 2πu, cos 2πu)` from `std`, for `u` in `[0, 1)`.
fn std_sin_cos_2pi(u: f64) -> (f64, f64) {
    let q = (4.0 * u + 0.5) as i64;
    let r = u - 0.25 * q as f64;
    let x = std::f64::consts::TAU * r;
    // 2πr − x, from the double-double 2π: exact enough for a first-order
    // correction of std's result.
    let (tau_lo, split) = (2.449_293_598_294_706_4e-16, 134_217_729.0);
    let hi = |v: f64| {
        let c = split * v;
        c - (c - v)
    };
    let (th, rh) = (hi(std::f64::consts::TAU), hi(r));
    let (tl, rl) = (std::f64::consts::TAU - th, r - rh);
    let err = ((th * rh - x) + th * rl + tl * rh) + tl * rl + tau_lo * r;
    let (s, c) = (x.sin() + err * x.cos(), x.cos() - err * x.sin());
    match q & 3 {
        0 => (s, c),
        1 => (c, -s),
        2 => (-s, -c),
        _ => (-c, s),
    }
}

/// The largest ulp distance of `ours` from `theirs` over `args`.
fn max_ulps(args: impl Iterator<Item = f64>, ours: fn(f64) -> f64, theirs: fn(f64) -> f64) -> f64 {
    args.map(|x| ulps(ours(x), theirs(x))).fold(0.0, f64::max)
}

#[test]
fn ln_is_within_one_ulp_of_std() {
    let mut r = RngStream::root(1).derive("ln");
    // Half the arguments in (0, 1], as the samplers draw them; half
    // spread over every binade.
    let unit = (0..N / 2).map(|_| 1.0 - r.uniform());
    let worst_unit = max_ulps(unit, ln, f64::ln);
    let mut r = RngStream::root(2).derive("ln");
    let wide = (0..N / 2).map(|_| f64::from_bits(r.uniform_range(1, 0x7ff0_0000_0000_0000)));
    let worst_wide = max_ulps(wide, ln, f64::ln);
    println!("ln: max {worst_unit} ulp on (0, 1], {worst_wide} ulp over all positive doubles");
    assert!(worst_unit <= 1.0 && worst_wide <= 1.0, "{worst_unit}, {worst_wide}");
}

#[test]
fn exp_is_within_one_ulp_of_std() {
    let mut r = RngStream::root(3).derive("exp");
    // Lognormal arguments mu + sigma z stay within a few units; the
    // rest covers the whole finite range.
    let near = (0..N / 2).map(|_| 16.0 * r.uniform() - 8.0);
    let worst_near = max_ulps(near, exp, f64::exp);
    let mut r = RngStream::root(4).derive("exp");
    let wide = (0..N / 2).map(|_| 1_454.0 * r.uniform() - 745.0);
    let worst_wide = max_ulps(wide, exp, f64::exp);
    println!("exp: max {worst_near} ulp on [-8, 8), {worst_wide} ulp on [-745, 709)");
    assert!(worst_near <= 1.0 && worst_wide <= 1.0, "{worst_near}, {worst_wide}");
}

#[test]
fn cos_2pi_and_sin_2pi_are_within_one_ulp_of_std() {
    let mut r = RngStream::root(5).derive("sincos");
    let (mut worst_sin, mut worst_cos) = (0.0_f64, 0.0_f64);
    for _ in 0..N {
        let u = r.uniform();
        let ((s, c), (ws, wc)) = ((sin_2pi(u), cos_2pi(u)), std_sin_cos_2pi(u));
        worst_sin = worst_sin.max(ulps(s, ws));
        worst_cos = worst_cos.max(ulps(c, wc));
    }
    println!("sin 2πu: max {worst_sin} ulp, cos 2πu: max {worst_cos} ulp on [0, 1)");
    assert!(worst_sin <= 1.0 && worst_cos <= 1.0, "{worst_sin}, {worst_cos}");
}

/// Bit patterns of `ln`, `exp`, `cos_2pi` and `sin_2pi` at fixed arguments. A
/// change to a series, a constant or the order of an operation fails
/// here by value, whatever `std` does.
#[test]
fn known_answers() {
    let ln_cases = [
        (0.5, 0xbfe6_2e42_fefa_39ef),
        (f64::from_bits(1), 0xc087_4385_446d_71c3),
        (0.1, 0xc002_6bb1_bbb5_5515),
        (10.0, 0x4002_6bb1_bbb5_5516),
        (1e-300, 0xc085_9634_47f8_7fb5),
    ];
    for (x, bits) in ln_cases {
        assert_eq!(ln(x).to_bits(), bits, "ln({x:e})");
    }
    let exp_cases = [
        (1.0, 0x4005_bf0a_8b14_5769),
        (-1.0, 0x3fd7_8b56_362c_ef38),
        (0.1, 0x3ff1_aec7_b35a_00d4),
        (700.0, 0x7f0d_945d_f4f8_ec8e),
        (-700.0, 0x00d1_4f2b_0fb9_307f),
    ];
    for (x, bits) in exp_cases {
        assert_eq!(exp(x).to_bits(), bits, "exp({x:e})");
    }
    let sin_cos_cases = [
        (0.125, (0x3fe6_a09e_667f_3bcc, 0x3fe6_a09e_667f_3bcd)),
        (1.0 / 3.0, (0x3feb_b67a_e858_4cab, 0xbfdf_ffff_ffff_fffe)),
        (0.1, (0x3fe2_cf23_0475_5a5e, 0x3fe9_e377_9b97_f4a8)),
        (0.9, (0xbfe2_cf23_0475_5a5d, 0x3fe9_e377_9b97_f4a8)),
    ];
    for (u, bits) in sin_cos_cases {
        assert_eq!((sin_2pi(u).to_bits(), cos_2pi(u).to_bits()), bits, "sin, cos 2π·{u}");
    }
}
