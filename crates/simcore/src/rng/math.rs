//! The float math the samplers use: `ln`, `exp` and the cosine and sine
//! of 2πu.
//!
//! Each function reduces its argument exactly, or to a remainder carried
//! as an unevaluated sum of two doubles, and sums a Taylor series whose
//! coefficients are exact rationals (1/n!, 2/(2k+1)) rounded once to the
//! nearest double, by Estrin's scheme, whose independent products keep
//! the dependency chain short. Nothing here calls the platform's libm,
//! and nothing uses a fused multiply-add, so IEEE-754 double arithmetic
//! alone fixes every bit of every result on every platform. The error stays within
//! one ulp of the exact value; `tests/math_against_std.rs` measures it
//! against `std` over ten million arguments per function.

/// The high part of ln 2: its leading 32 significant bits, so
/// `k * LN2_HI` is exact for every `|k| < 2^21`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
/// ln 2 − [`LN2_HI`], rounded.
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// 2π rounded to a double.
const TAU_HI: f64 = core::f64::consts::TAU;
/// 2π − [`TAU_HI`], rounded.
const TAU_LO: f64 = f64::from_bits(0x3cb1_a626_3314_5c07);

/// `2/(2k+1)` for k = 1..=10: the atanh series of `ln`, after `2s`.
const ATANH_2: [f64; 10] = {
    let mut c = [0.0; 10];
    let mut k = 0;
    while k < 10 {
        c[k] = 2.0 / (2 * k + 3) as f64;
        k += 1;
    }
    c
};
/// `1/n!` for n = 2..=14: the series of `exp`, after `1 + r`.
const EXP_2: [f64; 13] = taylor(2, 1, 1.0);
/// `(-1)^k/(2k+1)!` for k = 2..=8: the sine series, after `x − x³/6`.
const SIN_5: [f64; 7] = taylor(5, 2, -1.0);
/// `(-1)^k/(2k)!` for k = 2..=9: the cosine series, after `1 − x²/2`.
const COS_4: [f64; 8] = taylor(4, 2, -1.0);

/// `sign^i / (first + step·i)!` for `i` in `0..N`. Every factorial here
/// is at most 18! < 2^53, exact in a double, so each coefficient is its
/// exact rational rounded once.
const fn taylor<const N: usize>(first: u64, step: u64, sign: f64) -> [f64; N] {
    let mut c = [0.0; N];
    let (mut n, mut factorial, mut s) = (1, 1.0, 1.0);
    let mut i = 0;
    while i < N {
        while n < first + step * i as u64 {
            n += 1;
            factorial *= n as f64;
        }
        c[i] = s / factorial;
        s *= sign;
        i += 1;
    }
    c
}

/// `a + b x`: one pair of Estrin's scheme, which evaluates a polynomial
/// as such pairs, then pairs of pairs in `x²`, and so on, so the chain of
/// dependent operations grows with log₂ of the length, not the length.
#[inline(always)]
fn pair(a: f64, b: f64, x: f64) -> f64 {
    a + b * x
}

/// `2^n` for `-1022 <= n <= 1023`.
#[inline]
fn pow2(n: i64) -> f64 {
    f64::from_bits(((n + 1023) as u64) << 52)
}

/// The exact product `a * b` as `p + e`, with `p` the rounded product
/// (Dekker's algorithm on Veltkamp halves, so no fused multiply-add).
#[inline]
fn two_prod(a: f64, b: f64) -> (f64, f64) {
    fn split(x: f64) -> (f64, f64) {
        let c = 134_217_729.0 * x; // 2^27 + 1
        let hi = c - (c - x);
        (hi, x - hi)
    }
    let p = a * b;
    let ((ah, al), (bh, bl)) = (split(a), split(b));
    (p, ((ah * bh - p) + ah * bl + al * bh) + al * bl)
}

/// The natural logarithm of `x`: `NaN` below zero, −∞ at zero.
///
/// `x = 2^k · m` with `m` in `[√2/2, √2)`, so `ln x = k ln 2 + ln m`,
/// and `ln m = 2 atanh(s)` with `s = (m − 1)/(m + 1)`, `|s| < 0.1716`,
/// summed as `2s + 2s³/3 + … + 2s²¹/21` in the arrangement that keeps
/// the leading `m − 1` exact.
#[inline]
pub fn ln(x: f64) -> f64 {
    if x.is_nan() || x < 0.0 {
        return f64::NAN;
    }
    if x == 0.0 {
        return f64::NEG_INFINITY;
    }
    if x == f64::INFINITY {
        return x;
    }
    let (mut bits, mut k) = (x.to_bits(), 0_i64);
    if bits < 1 << 52 {
        // Subnormal: scale into the normal range first.
        bits = (x * pow2(54)).to_bits();
        k = -54;
    }
    k += (bits >> 52) as i64 - 1023;
    let mut m = f64::from_bits(bits & ((1 << 52) - 1) | 0x3ff0_0000_0000_0000);
    if m > core::f64::consts::SQRT_2 {
        m *= 0.5;
        k += 1;
    }
    // Exact: m is within a factor of two of 1.
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let c = &ATANH_2;
    let (z2, z4) = (z * z, z * z * (z * z));
    let q0 = pair(pair(c[0], c[1], z), pair(c[2], c[3], z), z2);
    let q1 = pair(pair(c[4], c[5], z), pair(c[6], c[7], z), z2);
    let r = z * pair(pair(q0, q1, z4), pair(c[8], c[9], z), z4 * z4);
    // ln(1 + f) = f − f²/2 + s (f²/2 + r), since 2s = f − s f.
    let hfsq = 0.5 * f * f;
    let kf = k as f64;
    kf * LN2_HI - ((hfsq - (s * (hfsq + r) + kf * LN2_LO)) - f)
}

/// `e^x`: +∞ above ln(`f64::MAX`), zero below the smallest subnormal.
///
/// `x = k ln 2 + r` with `|r| <= ln 2 / 2`, so `e^x = 2^k e^r`, and
/// `e^r = 1 + r + r²/2! + … + r¹⁴/14!`, with `1 + r` summed exactly.
#[inline]
pub fn exp(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    if x > 709.782_712_893_384 {
        return f64::INFINITY;
    }
    if x < -745.133_219_101_941_2 {
        return 0.0;
    }
    // k = x/ln 2 rounded to the nearest integer, by the addition of 1.5 ·
    // 2^52, which leaves k in the low bits.
    const SHIFT: f64 = 6_755_399_441_055_744.0;
    let kd = x * core::f64::consts::LOG2_E + SHIFT;
    let (k, kf) = (i64::from(kd.to_bits() as i32), kd - SHIFT);
    // Exact: k ln2_hi carries at most 43 significant bits and lies
    // within a factor of two of x.
    let hi = x - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let r = hi - lo;
    let c = &EXP_2;
    let (r2, r4) = (r * r, r * r * (r * r));
    let q0 = pair(pair(c[0], c[1], r), pair(c[2], c[3], r), r2);
    let q1 = pair(pair(c[4], c[5], r), pair(c[6], c[7], r), r2);
    let q2 = pair(pair(c[8], c[9], r), pair(c[10], c[11], r), r2);
    let p = r2 * pair(pair(q0, q1, r4), pair(q2, c[12], r4), r4 * r4);
    // 1 + hi as an exact two-double sum, then the small terms.
    let one_hi = 1.0 + hi;
    let tail = (1.0 - one_hi) + hi;
    let y = one_hi + (tail + (p - lo));
    if k > 1023 {
        y * pow2(k - 1) * 2.0
    } else if k < -1021 {
        y * pow2(k + 1000) * pow2(-1000)
    } else {
        y * pow2(k)
    }
}

/// The quadrant `q` of 2πu, for `u` in `[0, 1)`, and the rest of the
/// angle, 2π(u − q/4) in `[−π/4, π/4]`, as a two-double sum `x + y`.
///
/// `u − q/4` is exact, since `u` is a multiple of its own ulp, and `2π`
/// times it is carried to twice a double's precision, so the reduction
/// adds no error.
#[inline]
fn reduce_2pi(u: f64) -> (i64, f64, f64) {
    debug_assert!((0.0..1.0).contains(&u), "the angle is 2πu for u in [0, 1)");
    let q = (4.0 * u + 0.5) as i64;
    let r = u - 0.25 * q as f64;
    let (x, e) = two_prod(TAU_HI, r);
    (q, x, e + TAU_LO * r)
}

/// cos 2πu, for `u` in `[0, 1)`.
///
/// # Panics
///
/// Panics in debug builds if `u` is outside `[0, 1)`.
#[inline]
pub fn cos_2pi(u: f64) -> f64 {
    cos_2pi_less_quarters(u, 0)
}

/// sin 2πu = cos(2πu − π/2), for `u` in `[0, 1)`.
///
/// # Panics
///
/// Panics in debug builds if `u` is outside `[0, 1)`.
#[inline]
pub fn sin_2pi(u: f64) -> f64 {
    cos_2pi_less_quarters(u, 1)
}

/// cos(2πu − `quarters`·π/2): the quadrant of 2πu, less `quarters`,
/// picks the kernel and the sign.
#[inline]
fn cos_2pi_less_quarters(u: f64, quarters: i64) -> f64 {
    let (q, x, y) = reduce_2pi(u);
    match (q - quarters) & 3 {
        0 => cos_kernel(x, y),
        1 => -sin_kernel(x, y),
        2 => -cos_kernel(x, y),
        _ => sin_kernel(x, y),
    }
}

/// sin(x + y) for `|x| <= π/4` and `|y|` below half an ulp of `x`:
/// `x − x³/3! + … + x¹⁷/17!`, plus `y cos x` to first order.
#[inline]
fn sin_kernel(x: f64, y: f64) -> f64 {
    let z = x * x;
    let v = z * x;
    let c = &SIN_5;
    let z2 = z * z;
    let q0 = pair(pair(c[0], c[1], z), pair(c[2], c[3], z), z2);
    let r = pair(q0, pair(pair(c[4], c[5], z), c[6], z2), z2 * z2);
    x - ((z * (0.5 * y - v * r) - y) - v * (-1.0 / 6.0))
}

/// cos(x + y) for `|x| <= π/4` and `|y|` below half an ulp of `x`:
/// `1 − x²/2! + … − x¹⁸/18!`, minus `x y` to first order, with the
/// rounding of `1 − x²/2` recovered.
#[inline]
fn cos_kernel(x: f64, y: f64) -> f64 {
    let z = x * x;
    let c = &COS_4;
    let z2 = z * z;
    let q0 = pair(pair(c[0], c[1], z), pair(c[2], c[3], z), z2);
    let q1 = pair(pair(c[4], c[5], z), pair(c[6], c[7], z), z2);
    let r = z * pair(q0, q1, z2 * z2);
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    w + (((1.0 - w) - hz) + (z * r - x * y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_split_their_values() {
        assert_eq!(LN2_HI + LN2_LO, core::f64::consts::LN_2);
        assert_eq!(LN2_HI.to_bits() & 0x1f_ffff, 0, "k * LN2_HI must be exact");
        assert_eq!(TAU_HI + TAU_LO, TAU_HI, "TAU_LO is below half an ulp of 2π");
        // 2π = 6.283185307179586476925286766559005768..., TAU_HI =
        // 6.283185307179586231995926937088370323...
        assert!((TAU_LO - 2.449_293_598_294_706_4e-16).abs() < 1e-31);
    }

    #[test]
    fn special_values() {
        assert!(ln(-1.0).is_nan() && ln(f64::NAN).is_nan());
        assert_eq!(ln(0.0), f64::NEG_INFINITY);
        assert_eq!(ln(f64::INFINITY), f64::INFINITY);
        assert_eq!(ln(1.0), 0.0);
        assert_eq!(exp(0.0), 1.0);
        assert!(exp(f64::NAN).is_nan());
        assert_eq!(exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp(f64::NEG_INFINITY), 0.0);
        assert_eq!(exp(710.0), f64::INFINITY);
        assert_eq!(exp(-746.0), 0.0);
        for (u, sin, cos) in
            [(0.0, 0.0, 1.0), (0.25, 1.0, 0.0), (0.5, 0.0, -1.0), (0.75, -1.0, 0.0)]
        {
            assert_eq!((sin_2pi(u), cos_2pi(u)), (sin, cos), "u = {u}");
        }
    }

    #[test]
    fn two_prod_is_exact() {
        let (a, b) = (TAU_HI, 0.123_456_789_012_345_67);
        let (p, e) = two_prod(a, b);
        assert_eq!(p, a * b);
        assert!(e.abs() <= f64::EPSILON * p.abs());
        assert_ne!(e, 0.0);
    }
}
