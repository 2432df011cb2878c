//! Property-based tests of the demand estimators.

use ntc_check::prelude::*;

use ntc_profiler::estimator::{
    DemandEstimator, EwmaEstimator, HybridEstimator, Observation, QuantileEstimator,
    RegressionEstimator,
};
use ntc_profiler::EstimatorKind;
use ntc_simcore::units::{Cycles, DataSize};

fn obs(input: u64, cycles: u64) -> Observation {
    Observation::new(DataSize::from_bytes(input), Cycles::new(cycles))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every estimator's prediction stays inside the observed value range
    /// for input-independent demand (no extrapolation blow-ups).
    #[test]
    fn predictions_stay_in_observed_range(
        values in prop::collection::vec(1u64..1_000_000, 2..100),
    ) {
        let lo = *values.iter().min().unwrap();
        let hi = *values.iter().max().unwrap();
        for kind in EstimatorKind::all() {
            if kind == EstimatorKind::Holt {
                // Holt deliberately extrapolates a trend: on adversarial
                // zig-zags its one-step-ahead forecast can leave the
                // observed range by design. Its behaviour is covered by
                // the dedicated unit tests (anticipates growth, flat on
                // stationary data, clamps at zero).
                continue;
            }
            let mut e = kind.build();
            for &v in &values {
                e.observe(obs(0, v));
            }
            let p = e.predict(DataSize::ZERO).get();
            prop_assert!(
                p >= lo && p <= hi,
                "{kind}: prediction {p} escaped [{lo}, {hi}]"
            );
        }
    }

    /// Regression recovers an exactly representable integer linear law to
    /// near machine precision, given two or more distinct inputs. (An
    /// integer slope keeps the observations rounding-free: with few
    /// points, half-cycle rounding of `y` is amplified by `x / Δx` into
    /// the intercept, which is measurement error, not estimator error.)
    #[test]
    fn regression_recovers_exact_linear_laws(
        intercept in 0u64..10_000_000,
        slope in 1u64..500,
        inputs in prop::collection::btree_set(1u64..10_000_000, 2..40),
    ) {
        let mut e = RegressionEstimator::new();
        for &x in &inputs {
            let y = intercept + slope * x;
            e.observe(obs(x, y));
        }
        let (a, b) = e.coefficients().expect("distinct inputs give a fit");
        prop_assert!((b - slope as f64).abs() < 1e-6 * slope as f64, "slope {b} vs {slope}");
        // Intercept float error scales with x²-sums; allow a small
        // absolute-plus-relative envelope.
        let x_max = *inputs.iter().max().unwrap() as f64;
        let tol = 1e-9 * x_max * slope as f64 + 1e-6 * intercept as f64 + 1e-3;
        prop_assert!((a - intercept as f64).abs() < tol, "intercept {a} vs {intercept} (tol {tol})");
        let probe = 123_457u64;
        let expected = (intercept + slope * probe) as f64;
        let p = e.predict(DataSize::from_bytes(probe)).get() as f64;
        prop_assert!((p - expected).abs() <= expected * 1e-6 + 2.0);
    }

    /// The windowed quantile never exceeds the 100-observation window's
    /// max nor drops below its min.
    #[test]
    fn quantile_respects_window_bounds(
        values in prop::collection::vec(1u64..1_000_000, 1..300),
    ) {
        let mut e = QuantileEstimator::default();
        for &v in &values {
            e.observe(obs(0, v));
        }
        let window: Vec<u64> =
            values.iter().rev().take(100).copied().collect();
        let p = e.predict(DataSize::ZERO).get();
        prop_assert!(p >= *window.iter().min().unwrap());
        prop_assert!(p <= *window.iter().max().unwrap());
    }

    /// EWMA lies between the latest observation and the previous smooth
    /// value (convexity), so it can never overshoot a level change.
    #[test]
    fn ewma_is_convex(values in prop::collection::vec(1u64..1_000_000, 2..100)) {
        let mut e = EwmaEstimator::default();
        e.observe(obs(0, values[0]));
        let mut prev = e.predict(DataSize::ZERO).get() as f64;
        for &v in &values[1..] {
            e.observe(obs(0, v));
            let now = e.predict(DataSize::ZERO).get() as f64;
            let (lo, hi) = if prev <= v as f64 { (prev, v as f64) } else { (v as f64, prev) };
            prop_assert!(now >= lo - 1.0 && now <= hi + 1.0, "{now} outside [{lo}, {hi}]");
            prev = now;
        }
    }

    /// Hybrid never predicts outside the envelope of its two branches.
    #[test]
    fn hybrid_is_bracketed_by_branches(
        pairs in prop::collection::vec((1u64..1_000_000, 1u64..10_000_000), 3..60),
        probe in 1u64..1_000_000,
    ) {
        let mut h = HybridEstimator::default();
        let mut e = EwmaEstimator::default();
        let mut r = RegressionEstimator::new();
        for &(x, y) in &pairs {
            h.observe(obs(x, y));
            e.observe(obs(x, y));
            r.observe(obs(x, y));
        }
        let ph = h.predict(DataSize::from_bytes(probe));
        prop_assert!(
            ph == e.predict(DataSize::from_bytes(probe)) || ph == r.predict(DataSize::from_bytes(probe)),
            "hybrid must delegate to one branch"
        );
    }
}
