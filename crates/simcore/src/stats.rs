//! Small statistics helpers used throughout the simulators and the
//! experiment harness.

use ntc_json::ToJson;

/// Online mean/variance accumulator (Welford's algorithm).
///
/// Numerically stable for long runs; O(1) per observation.
///
/// # Examples
///
/// ```
/// use ntc_simcore::stats::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.record(x);
/// }
/// assert_eq!(w.mean(), 5.0);
/// assert!((w.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, ToJson)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// The number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The sample (Bessel-corrected) variance (0 if fewer than two
    /// observations).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// The sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }
}

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of `sorted` using linear
/// interpolation between closest ranks.
///
/// Returns `None` if `sorted` is empty.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or if `sorted` is not sorted
/// (checked only with `debug_assert`).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input must be sorted");
    if sorted.is_empty() {
        return None;
    }
    if sorted.len() == 1 {
        return Some(sorted[0]);
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Sorts a copy of `values` and returns its `q`-quantile.
///
/// Returns `None` if `values` is empty or contains NaN.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after check"));
    quantile_sorted(&sorted, q)
}

/// Mean absolute percentage error of `predicted` against `actual`, in
/// percent.
///
/// Pairs whose actual value is zero are skipped. Returns `None` if no
/// usable pairs remain.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mape(actual: &[f64], predicted: &[f64]) -> Option<f64> {
    assert_eq!(actual.len(), predicted.len(), "mape requires equal-length slices");
    let mut sum = 0.0;
    let mut n = 0u64;
    for (&a, &p) in actual.iter().zip(predicted) {
        if a != 0.0 {
            sum += ((a - p) / a).abs();
            n += 1;
        }
    }
    if n == 0 {
        None
    } else {
        Some(100.0 * sum / n as f64)
    }
}

/// A compact five-number-plus-mean summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq, ToJson)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Minimum observation.
    pub min: f64,
    /// Median (p50).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum observation.
    pub max: f64,
}

impl Summary {
    /// Summarises `values`; returns `None` if empty or containing NaN.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() || values.iter().any(|v| v.is_nan()) {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after check"));
        Self::of_sorted(&sorted)
    }

    /// Summarises an already-ascending sample without copying or
    /// re-sorting it; returns `None` if empty or containing NaN.
    ///
    /// Every field (including the mean, which is summed in sorted order)
    /// is bit-identical to what [`Summary::of`] computes for the same
    /// multiset, so a caller holding one shared sorted buffer can serve
    /// many summaries from it.
    ///
    /// # Panics
    ///
    /// Panics if `sorted` is not ascending (checked only with
    /// `debug_assert`).
    pub fn of_sorted(sorted: &[f64]) -> Option<Summary> {
        if sorted.is_empty() || sorted.iter().any(|v| v.is_nan()) {
            return None;
        }
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input must be sorted");
        Some(Summary {
            count: sorted.len() as u64,
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            min: sorted[0],
            p50: quantile_sorted(sorted, 0.50)?,
            p95: quantile_sorted(sorted, 0.95)?,
            p99: quantile_sorted(sorted, 0.99)?,
            max: *sorted.last()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_computation() {
        let xs = [1.0, 2.0, 3.0, 4.0, 10.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.record(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.sample_variance() - var).abs() < 1e-12);
        assert_eq!(w.count(), 5);
    }

    #[test]
    fn welford_empty_is_zero() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.sample_variance(), 0.0);
        assert_eq!(w.std_dev(), 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(quantile(&xs, 0.5), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.5), Some(7.0));
        assert_eq!(quantile(&[1.0, f64::NAN], 0.5), None);
    }

    #[test]
    fn mape_skips_zero_actuals() {
        let m = mape(&[100.0, 0.0, 200.0], &[110.0, 50.0, 180.0]).unwrap();
        assert!((m - 10.0).abs() < 1e-9); // (10% + 10%) / 2
        assert_eq!(mape(&[0.0], &[1.0]), None);
    }

    #[test]
    fn summary_fields_are_consistent() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert!(s.p50 < s.p95 && s.p95 < s.p99);
        assert_eq!(Summary::of(&[]), None);
    }
}
