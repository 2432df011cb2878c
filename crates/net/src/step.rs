//! The periodic step table behind the connectivity and bandwidth traces.

use ntc_simcore::units::{SimDuration, SimTime};

/// A piecewise-constant value that repeats every `period`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StepTable<T> {
    period: SimDuration,
    // (offset from period start, value); sorted by offset, first at ZERO.
    segments: Vec<(SimDuration, T)>,
}

impl<T: Copy> StepTable<T> {
    /// Builds a table from `(offset, value)` segments.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty, unsorted, does not start at offset
    /// zero, or reaches past `period`.
    pub(crate) fn new(period: SimDuration, segments: Vec<(SimDuration, T)>) -> Self {
        assert!(!segments.is_empty(), "trace needs at least one segment");
        assert_eq!(segments[0].0, SimDuration::ZERO, "first segment must start at zero");
        assert!(segments.windows(2).all(|w| w[0].0 < w[1].0), "segments must be sorted");
        assert!(segments.last().expect("non-empty").0 < period, "segments must fit in the period");
        StepTable { period, segments }
    }

    /// The repeat period.
    pub(crate) fn period(&self) -> SimDuration {
        self.period
    }

    /// The `(offset, value)` segments of one period, in order.
    pub(crate) fn segments(&self) -> &[(SimDuration, T)] {
        &self.segments
    }

    /// The index of the segment in effect at `at`.
    #[inline]
    pub(crate) fn index_at(&self, at: SimTime) -> usize {
        let offset = SimDuration::from_micros(at.as_micros() % self.period.as_micros());
        match self.segments.binary_search_by(|&(o, _)| o.cmp(&offset)) {
            Ok(i) => i,
            Err(0) => unreachable!("first segment starts at zero"),
            Err(i) => i - 1,
        }
    }

    /// The value in effect at `at`.
    #[inline]
    pub(crate) fn at(&self, at: SimTime) -> T {
        self.segments[self.index_at(at)].1
    }

    /// Each segment's value and length within one period; the last one
    /// runs to the end of the period.
    pub(crate) fn spans(&self) -> impl Iterator<Item = (T, SimDuration)> + '_ {
        self.segments.iter().enumerate().map(|(i, &(start, value))| {
            let end = self.segments.get(i + 1).map_or(self.period, |&(o, _)| o);
            (value, end - start)
        })
    }
}
