//! Measurement instruments for simulations: log-linear histograms.
//!
//! The histogram uses HDR-style log-linear bucketing: values are grouped by
//! order of magnitude, with a fixed number of linear sub-buckets per
//! magnitude, giving bounded relative error (< 1/`SUB_BUCKETS`) across the
//! full `u64` range with constant memory.

use ntc_json::ToJson;

use crate::units::SimDuration;

const SUB_BUCKET_BITS: u32 = 5;
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS; // 32 sub-buckets per magnitude
                                               // Shifts range over 0..=58 (64-bit values normalised into [32, 64)), so the
                                               // largest index is 32*58 + 63 = 1919.
const BUCKET_COUNT: usize = 1920;

/// A fixed-memory log-linear histogram over `u64` values.
///
/// Quantile queries return the *upper bound* of the containing bucket, so the
/// reported quantile is never an underestimate and the relative error is
/// bounded by `1/32 ≈ 3%`.
///
/// # Examples
///
/// ```
/// use ntc_simcore::metrics::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.value_at_quantile(0.5);
/// assert!((450..=560).contains(&p50));
/// ```
#[derive(Debug, Clone, ToJson)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// The documented quantile error bound: a value reported by
    /// [`value_at_quantile`](Self::value_at_quantile) is the upper bound
    /// of the containing log-linear bucket (clamped to the observed
    /// maximum), so it never falls below the exact order statistic and
    /// exceeds it by strictly less than this relative fraction
    /// (`1/32 ≈ 3.1%`).
    pub const RELATIVE_ERROR_BOUND: f64 = 1.0 / SUB_BUCKETS as f64;

    /// Creates an empty histogram; the first record allocates its buckets.
    pub fn new() -> Self {
        Histogram { counts: Vec::new(), total: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    // Values below 32 index directly. Otherwise the value is normalised by a
    // right shift into [32, 64), and buckets for shift `s` occupy the index
    // range [32*(s+1), 32*(s+1)+31]: index = 32*s + (value >> s).
    fn bucket_index(value: u64) -> usize {
        if value < SUB_BUCKETS {
            return value as usize;
        }
        let magnitude = 63 - value.leading_zeros();
        let shift = magnitude - SUB_BUCKET_BITS;
        (u64::from(shift) * SUB_BUCKETS + (value >> shift)) as usize
    }

    /// The largest value that maps to the bucket at `index` (inclusive).
    fn bucket_upper_bound(index: usize) -> u64 {
        let idx = index as u64;
        if idx < SUB_BUCKETS {
            return idx;
        }
        let shift = idx / SUB_BUCKETS - 1;
        let base = idx - SUB_BUCKETS * shift;
        // (base + 1) << shift − 1, written to avoid overflow in the top bucket.
        (base << shift) | ((1u64 << shift) - 1)
    }

    /// Records one observation of `value`.
    pub fn record(&mut self, value: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKET_COUNT];
        }
        self.counts[Self::bucket_index(value)] += 1;
        self.total += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a duration observation in microseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_micros());
    }

    /// The number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The arithmetic mean of all observations (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The minimum observation, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        if self.total == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// The maximum observation, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        if self.total == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// The value at quantile `q` (0 ≤ q ≤ 1), as a bucket upper bound
    /// clamped to the observed maximum. Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.total == 0 {
            return 0;
        }
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut cumulative = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return Self::bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..32 {
            h.record(v);
        }
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(31));
        assert_eq!(h.value_at_quantile(0.0), 0);
        assert_eq!(h.value_at_quantile(1.0), 31);
        assert_eq!(h.count(), 32);
    }

    #[test]
    fn histogram_quantile_relative_error_is_bounded() {
        let mut h = Histogram::new();
        let values: Vec<u64> = (0..10_000).map(|i| 1 + i * 137).collect();
        for &v in &values {
            h.record(v);
        }
        for q in [0.1, 0.5, 0.9, 0.99] {
            let exact = values[((q * (values.len() - 1) as f64) as usize).min(values.len() - 1)];
            let approx = h.value_at_quantile(q);
            let rel = (approx as f64 - exact as f64).abs() / exact as f64;
            assert!(rel < 0.05, "q={q} exact={exact} approx={approx} rel={rel}");
            assert!(approx as f64 >= exact as f64 * 0.97, "quantile should not underestimate much");
        }
    }

    #[test]
    fn histogram_empty_behaviour() {
        let h = Histogram::new();
        assert_eq!(h.value_at_quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn histogram_mean_is_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.mean(), 20.0);
    }

    #[test]
    fn bucket_bounds_are_monotone() {
        let mut prev = 0;
        for i in 0..BUCKET_COUNT {
            let ub = Histogram::bucket_upper_bound(i);
            assert!(ub >= prev, "bucket {i}: {ub} < {prev}");
            prev = ub;
        }
    }

    #[test]
    fn bucket_index_maps_into_bound() {
        for v in [0u64, 1, 31, 32, 33, 100, 1000, 65_535, 1 << 30, u64::MAX / 2] {
            let idx = Histogram::bucket_index(v);
            assert!(idx < BUCKET_COUNT);
            let ub = Histogram::bucket_upper_bound(idx);
            assert!(ub >= v, "value {v} above its bucket upper bound {ub}");
        }
    }
}
