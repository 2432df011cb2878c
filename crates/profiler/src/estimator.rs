//! Online demand estimators: predict a component's compute demand for the
//! next invocation from past observations.

use core::fmt;
use std::collections::VecDeque;

use ntc_simcore::units::{round_to_u64, Cycles, DataSize};

/// One observed execution: the job input size and the cycles it consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// Input size of the job.
    pub input: DataSize,
    /// Measured compute demand.
    pub cycles: Cycles,
}

impl Observation {
    /// Creates an observation.
    pub fn new(input: DataSize, cycles: Cycles) -> Self {
        Observation { input, cycles }
    }
}

/// An online estimator of per-invocation compute demand.
///
/// Implementations are deterministic given the same observation sequence.
/// All estimators return [`Cycles::ZERO`] before the first observation —
/// callers should treat a zero prediction from an empty estimator as
/// "unknown" and fall back to static annotations.
pub trait DemandEstimator: fmt::Debug {
    /// Feeds one observed execution.
    fn observe(&mut self, obs: Observation);

    /// Predicts the demand of the next invocation with the given input.
    fn predict(&self, input: DataSize) -> Cycles;

    /// The number of observations seen so far.
    fn observations(&self) -> u64;

    /// A short human-readable estimator name (for result tables).
    fn name(&self) -> &'static str;
}

/// [`EwmaEstimator`]'s smoothing factor: the weight of the newest
/// observation.
const EWMA_ALPHA: f64 = 0.2;

/// Exponentially weighted moving average of demand, ignoring input size,
/// with smoothing factor 0.2 (the weight of the newest observation).
///
/// Best for components whose demand is stationary and uncorrelated with
/// input (e.g. fixed-size model inference).
#[derive(Debug, Clone, Default)]
pub struct EwmaEstimator {
    mean: f64,
    count: u64,
}

impl DemandEstimator for EwmaEstimator {
    fn observe(&mut self, obs: Observation) {
        let x = obs.cycles.get() as f64;
        if self.count == 0 {
            self.mean = x;
        } else {
            self.mean = EWMA_ALPHA * x + (1.0 - EWMA_ALPHA) * self.mean;
        }
        self.count += 1;
    }

    fn predict(&self, _input: DataSize) -> Cycles {
        Cycles::new(round_to_u64(self.mean))
    }

    fn observations(&self) -> u64 {
        self.count
    }

    fn name(&self) -> &'static str {
        "ewma"
    }
}

/// [`QuantileEstimator`]'s quantile.
const QUANTILE_Q: f64 = 0.9;
/// [`QuantileEstimator`]'s window, in observations.
const QUANTILE_WINDOW: usize = 100;

/// Windowed quantile estimator: predicts the 90th percentile of the last
/// 100 observations.
///
/// A conservative (high-quantile) setting is useful when under-prediction
/// is costly — e.g. when the prediction feeds a function-timeout choice.
#[derive(Debug, Clone, Default)]
pub struct QuantileEstimator {
    window: VecDeque<u64>,
    count: u64,
}

impl DemandEstimator for QuantileEstimator {
    fn observe(&mut self, obs: Observation) {
        if self.window.len() == QUANTILE_WINDOW {
            self.window.pop_front();
        }
        self.window.push_back(obs.cycles.get());
        self.count += 1;
    }

    fn predict(&self, _input: DataSize) -> Cycles {
        if self.window.is_empty() {
            return Cycles::ZERO;
        }
        let mut sorted: Vec<u64> = self.window.iter().copied().collect();
        sorted.sort_unstable();
        let pos = round_to_u64(QUANTILE_Q * (sorted.len() - 1) as f64) as usize;
        Cycles::new(sorted[pos])
    }

    fn observations(&self) -> u64 {
        self.count
    }

    fn name(&self) -> &'static str {
        "quantile"
    }
}

/// Online simple linear regression of demand on input size
/// (`cycles ≈ a + b · input_bytes`, least squares).
///
/// Best when demand is strongly input-correlated (decode, transcode,
/// compression).
#[derive(Debug, Clone, Default)]
pub struct RegressionEstimator {
    n: f64,
    sx: f64,
    sy: f64,
    sxx: f64,
    sxy: f64,
    syy: f64,
    count: u64,
}

impl RegressionEstimator {
    /// Creates an empty regression estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// The fitted `(intercept, slope)` in cycles and cycles/byte, or
    /// `None` with fewer than two distinct inputs.
    pub fn coefficients(&self) -> Option<(f64, f64)> {
        if self.count < 2 {
            return None;
        }
        let denom = self.n * self.sxx - self.sx * self.sx;
        if denom.abs() < f64::EPSILON * self.n * self.sxx.max(1.0) {
            return None; // all inputs identical: slope undefined
        }
        let slope = (self.n * self.sxy - self.sx * self.sy) / denom;
        let intercept = (self.sy - slope * self.sx) / self.n;
        Some((intercept, slope))
    }

    /// The coefficient of determination r² of the fit, or `None` if
    /// undefined.
    pub fn r_squared(&self) -> Option<f64> {
        let (intercept, slope) = self.coefficients()?;
        let ss_tot = self.syy - self.sy * self.sy / self.n;
        if ss_tot <= 0.0 {
            return None; // zero variance in y
        }
        // SS_res = Σ(y - a - bx)² expanded in terms of the running sums.
        let ss_res = self.syy + self.n * intercept * intercept + slope * slope * self.sxx
            - 2.0 * intercept * self.sy
            - 2.0 * slope * self.sxy
            + 2.0 * intercept * slope * self.sx;
        Some((1.0 - ss_res / ss_tot).clamp(0.0, 1.0))
    }

    fn mean_y(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sy / self.n
        }
    }
}

impl DemandEstimator for RegressionEstimator {
    fn observe(&mut self, obs: Observation) {
        let x = obs.input.as_bytes() as f64;
        let y = obs.cycles.get() as f64;
        self.n += 1.0;
        self.sx += x;
        self.sy += y;
        self.sxx += x * x;
        self.sxy += x * y;
        self.syy += y * y;
        self.count += 1;
    }

    fn predict(&self, input: DataSize) -> Cycles {
        match self.coefficients() {
            Some((a, b)) => Cycles::new(round_to_u64((a + b * input.as_bytes() as f64).max(0.0))),
            None => Cycles::new(round_to_u64(self.mean_y())),
        }
    }

    fn observations(&self) -> u64 {
        self.count
    }

    fn name(&self) -> &'static str {
        "regression"
    }
}

/// [`HoltEstimator`]'s level-smoothing factor.
const HOLT_ALPHA: f64 = 0.3;
/// [`HoltEstimator`]'s trend-smoothing factor.
const HOLT_BETA: f64 = 0.1;

/// Holt double-exponential smoothing: tracks a *level* and a *trend*, so
/// steadily growing (or shrinking) demand is anticipated instead of
/// lagged — the failure mode of plain EWMA under monotone drift.
///
/// Input-agnostic like [`EwmaEstimator`]; predictions are
/// `level + trend` (one step ahead), clamped at zero. The level smooths
/// with factor 0.3, the trend with 0.1.
#[derive(Debug, Clone, Default)]
pub struct HoltEstimator {
    level: f64,
    trend: f64,
    count: u64,
}

impl DemandEstimator for HoltEstimator {
    fn observe(&mut self, obs: Observation) {
        let x = obs.cycles.get() as f64;
        match self.count {
            0 => self.level = x,
            1 => {
                self.trend = x - self.level;
                self.level = x;
            }
            _ => {
                let prev_level = self.level;
                self.level = HOLT_ALPHA * x + (1.0 - HOLT_ALPHA) * (self.level + self.trend);
                self.trend = HOLT_BETA * (self.level - prev_level) + (1.0 - HOLT_BETA) * self.trend;
            }
        }
        self.count += 1;
    }

    fn predict(&self, _input: DataSize) -> Cycles {
        Cycles::new(round_to_u64((self.level + self.trend).max(0.0)))
    }

    fn observations(&self) -> u64 {
        self.count
    }

    fn name(&self) -> &'static str {
        "holt"
    }
}

/// [`HybridEstimator`]'s r² switch-over threshold.
const HYBRID_R2_THRESHOLD: f64 = 0.7;
/// Observations [`HybridEstimator`] takes before it may switch over.
const HYBRID_WARMUP: u64 = 10;

/// Hybrid estimator: uses the regression when the input correlation is
/// strong (r² at least 0.7 after a 10-observation warm-up), otherwise the
/// EWMA.
#[derive(Debug, Clone, Default)]
pub struct HybridEstimator {
    ewma: EwmaEstimator,
    regression: RegressionEstimator,
}

impl HybridEstimator {
    /// Whether the regression branch is currently active.
    pub fn using_regression(&self) -> bool {
        self.regression.observations() >= HYBRID_WARMUP
            && self.regression.r_squared().is_some_and(|r2| r2 >= HYBRID_R2_THRESHOLD)
    }
}

impl DemandEstimator for HybridEstimator {
    fn observe(&mut self, obs: Observation) {
        self.ewma.observe(obs);
        self.regression.observe(obs);
    }

    fn predict(&self, input: DataSize) -> Cycles {
        if self.using_regression() {
            self.regression.predict(input)
        } else {
            self.ewma.predict(input)
        }
    }

    fn observations(&self) -> u64 {
        self.ewma.observations()
    }

    fn name(&self) -> &'static str {
        "hybrid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(input: u64, cycles: u64) -> Observation {
        Observation::new(DataSize::from_bytes(input), Cycles::new(cycles))
    }

    #[test]
    fn empty_estimators_predict_zero() {
        let input = DataSize::from_kib(1);
        assert_eq!(EwmaEstimator::default().predict(input), Cycles::ZERO);
        assert_eq!(QuantileEstimator::default().predict(input), Cycles::ZERO);
        assert_eq!(RegressionEstimator::new().predict(input), Cycles::ZERO);
        assert_eq!(HybridEstimator::default().predict(input), Cycles::ZERO);
    }

    #[test]
    fn ewma_converges_to_stationary_mean() {
        let mut e = EwmaEstimator::default();
        for _ in 0..100 {
            e.observe(obs(0, 1000));
        }
        assert_eq!(e.predict(DataSize::ZERO), Cycles::new(1000));
        assert_eq!(e.observations(), 100);
    }

    #[test]
    fn ewma_tracks_level_shift() {
        let mut e = EwmaEstimator::default();
        for _ in 0..20 {
            e.observe(obs(0, 100));
        }
        for _ in 0..20 {
            e.observe(obs(0, 900));
        }
        let p = e.predict(DataSize::ZERO).get();
        assert!(p > 800, "should have adapted, got {p}");
    }

    #[test]
    fn quantile_is_conservative() {
        let mut e = QuantileEstimator::default();
        for i in 1..=100u64 {
            e.observe(obs(0, i));
        }
        let p = e.predict(DataSize::ZERO).get();
        assert!((85..=95).contains(&p), "p90 of 1..=100 should be ~90, got {p}");
    }

    #[test]
    fn quantile_window_slides() {
        // The 100-observation window: a full window of small values
        // pushes every high one out, so even the 90th percentile drops.
        let mut e = QuantileEstimator::default();
        for _ in 0..100 {
            e.observe(obs(0, 1000));
        }
        for _ in 0..100 {
            e.observe(obs(0, 1));
        }
        assert_eq!(e.predict(DataSize::ZERO), Cycles::new(1), "old values left the window");
    }

    #[test]
    fn regression_recovers_linear_law() {
        let mut e = RegressionEstimator::new();
        for x in (0..100u64).map(|i| i * 1000) {
            e.observe(obs(x, 5000 + 3 * x));
        }
        let (a, b) = e.coefficients().unwrap();
        assert!((a - 5000.0).abs() < 1.0, "intercept {a}");
        assert!((b - 3.0).abs() < 1e-6, "slope {b}");
        assert_eq!(e.predict(DataSize::from_bytes(200_000)), Cycles::new(605_000));
        assert!(e.r_squared().unwrap() > 0.999);
    }

    #[test]
    fn regression_with_constant_input_falls_back_to_mean() {
        let mut e = RegressionEstimator::new();
        for _ in 0..10 {
            e.observe(obs(500, 100));
        }
        assert_eq!(e.coefficients(), None);
        assert_eq!(e.predict(DataSize::from_bytes(9999)), Cycles::new(100));
    }

    #[test]
    fn regression_clamps_negative_predictions() {
        let mut e = RegressionEstimator::new();
        e.observe(obs(0, 1000));
        e.observe(obs(1000, 0));
        assert_eq!(e.predict(DataSize::from_bytes(10_000)), Cycles::ZERO);
    }

    #[test]
    fn hybrid_switches_to_regression_on_correlated_data() {
        let mut h = HybridEstimator::default();
        for x in (0..50u64).map(|i| i * 100) {
            h.observe(obs(x, 10 * x + 7));
        }
        assert!(h.using_regression());
        let p = h.predict(DataSize::from_bytes(10_000)).get();
        assert!((p as i64 - 100_007).abs() < 10, "p={p}");
    }

    #[test]
    fn hybrid_stays_on_ewma_for_uncorrelated_data() {
        let mut h = HybridEstimator::default();
        // Demand independent of input: alternating inputs, noisy constant demand.
        for i in 0..50u64 {
            h.observe(obs(i % 7 * 1000, 1_000_000 + (i % 3) * 10));
        }
        assert!(!h.using_regression());
        let p = h.predict(DataSize::from_bytes(1)).get();
        assert!((999_000..1_001_000).contains(&p), "p={p}");
    }

    #[test]
    fn holt_anticipates_linear_growth() {
        let mut holt = HoltEstimator::default();
        let mut ewma = EwmaEstimator::default();
        // Demand grows 1000 cycles per invocation.
        for i in 1..=200u64 {
            holt.observe(obs(0, i * 1000));
            ewma.observe(obs(0, i * 1000));
        }
        let next = 201_000f64;
        let holt_err = (holt.predict(DataSize::ZERO).get() as f64 - next).abs();
        let ewma_err = (ewma.predict(DataSize::ZERO).get() as f64 - next).abs();
        assert!(holt_err < ewma_err / 2.0, "holt {holt_err} vs ewma {ewma_err}");
        assert!(holt_err < 1000.0, "holt should be within one step: {holt_err}");
    }

    #[test]
    fn holt_is_flat_on_stationary_demand() {
        let mut holt = HoltEstimator::default();
        for _ in 0..100 {
            holt.observe(obs(0, 5000));
        }
        let p = holt.predict(DataSize::ZERO).get();
        assert!((4990..=5010).contains(&p), "p={p}");
    }

    #[test]
    fn holt_clamps_negative_extrapolation() {
        let mut holt = HoltEstimator::default();
        holt.observe(obs(0, 10_000));
        holt.observe(obs(0, 100));
        holt.observe(obs(0, 0));
        assert_eq!(holt.predict(DataSize::ZERO), Cycles::ZERO);
    }
}
