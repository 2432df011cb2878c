//! Fixed-bucket time series: counts and means of a quantity over
//! simulated time, for experiment output (e.g. jobs completed per hour,
//! warm instances over the day).

use ntc_json::ToJson;

use crate::units::{SimDuration, SimTime};

/// A time series with fixed-width buckets from the simulation epoch.
///
/// Observations land in `floor(t / bucket)`; querying yields per-bucket
/// counts, sums and means. Buckets are created lazily up to the latest
/// observation, so sparse tails cost nothing until touched.
///
/// # Examples
///
/// ```
/// use ntc_simcore::timeseries::TimeSeries;
/// use ntc_simcore::units::{SimDuration, SimTime};
///
/// let mut ts = TimeSeries::new(SimDuration::from_hours(1));
/// ts.record(SimTime::from_secs(600), 2.0);
/// ts.record(SimTime::from_secs(1200), 4.0);
/// ts.record(SimTime::from_secs(4000), 10.0);
/// assert_eq!(ts.count(0), 2);
/// assert_eq!(ts.mean(0), Some(3.0));
/// assert_eq!(ts.count(1), 1);
/// ```
#[derive(Debug, Clone, PartialEq, ToJson)]
pub struct TimeSeries {
    bucket: SimDuration,
    counts: Vec<u64>,
    sums: Vec<f64>,
}

impl TimeSeries {
    /// Creates a series with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn new(bucket: SimDuration) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        TimeSeries { bucket, counts: Vec::new(), sums: Vec::new() }
    }

    /// The bucket width.
    pub fn bucket(&self) -> SimDuration {
        self.bucket
    }

    /// The index of the bucket containing `at`.
    pub fn bucket_of(&self, at: SimTime) -> usize {
        (at.as_micros() / self.bucket.as_micros()) as usize
    }

    /// Records `value` at instant `at`.
    pub fn record(&mut self, at: SimTime, value: f64) {
        let idx = self.bucket_of(at);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
            self.sums.resize(idx + 1, 0.0);
        }
        self.counts[idx] += 1;
        self.sums[idx] += value;
    }

    /// Records an occurrence (value 1) at instant `at`.
    pub fn mark(&mut self, at: SimTime) {
        self.record(at, 1.0);
    }

    /// The number of buckets touched so far (dense from 0).
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Observations in bucket `idx` (0 beyond the recorded range).
    pub fn count(&self, idx: usize) -> u64 {
        self.counts.get(idx).copied().unwrap_or(0)
    }

    /// Sum of values in bucket `idx` (0 beyond the recorded range).
    pub fn sum(&self, idx: usize) -> f64 {
        self.sums.get(idx).copied().unwrap_or(0.0)
    }

    /// Mean value in bucket `idx`, or `None` when the bucket is empty.
    pub fn mean(&self, idx: usize) -> Option<f64> {
        let c = self.count(idx);
        if c == 0 {
            None
        } else {
            Some(self.sum(idx) / c as f64)
        }
    }

    /// Iterates `(bucket_start, count, sum)` over all touched buckets.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, u64, f64)> + '_ {
        let width = self.bucket.as_micros();
        self.counts
            .iter()
            .zip(&self.sums)
            .enumerate()
            .map(move |(i, (&c, &s))| (SimTime::from_micros(i as u64 * width), c, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_buckets() {
        let mut ts = TimeSeries::new(SimDuration::from_mins(10));
        ts.mark(SimTime::from_secs(0));
        ts.mark(SimTime::from_secs(599));
        ts.mark(SimTime::from_secs(600));
        assert_eq!(ts.count(0), 2);
        assert_eq!(ts.count(1), 1);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.count(99), 0);
    }

    #[test]
    fn means_and_sums() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1));
        ts.record(SimTime::from_micros(10), 3.0);
        ts.record(SimTime::from_micros(20), 5.0);
        assert_eq!(ts.sum(0), 8.0);
        assert_eq!(ts.mean(0), Some(4.0));
        assert_eq!(ts.mean(5), None);
    }

    #[test]
    fn iter_yields_bucket_starts() {
        let mut ts = TimeSeries::new(SimDuration::from_hours(1));
        ts.mark(SimTime::from_secs(3 * 3600 + 5));
        let rows: Vec<_> = ts.iter().collect();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[3].0, SimTime::from_secs(3 * 3600));
        assert_eq!(rows[3].1, 1);
        assert_eq!(rows[0].1, 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bucket_panics() {
        let _ = TimeSeries::new(SimDuration::ZERO);
    }
}
