//! Time-varying bandwidth conditions (diurnal congestion, throttling).

use ntc_simcore::units::{SimDuration, SimTime};

use crate::step::StepTable;

/// A piecewise-constant multiplier on nominal bandwidth over time.
///
/// The schedule repeats with the configured period, so a 24-hour diurnal
/// profile applies to arbitrarily long simulations.
///
/// # Examples
///
/// ```
/// use ntc_net::trace::BandwidthTrace;
/// use ntc_simcore::units::{SimDuration, SimTime};
///
/// let t = BandwidthTrace::diurnal_congestion();
/// // 3 AM is off-peak: full bandwidth.
/// assert!(t.share_at(SimTime::from_secs(3 * 3600)) > 0.9);
/// // 8 PM is peak: congested.
/// assert!(t.share_at(SimTime::from_secs(20 * 3600)) < 0.7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthTrace {
    table: StepTable<f64>,
}

impl BandwidthTrace {
    /// A trace that always grants the full nominal bandwidth.
    pub fn constant() -> Self {
        BandwidthTrace::new(SimDuration::from_hours(24), vec![(SimDuration::ZERO, 1.0)])
    }

    /// Builds a trace from `(offset, share)` segments repeating every
    /// `period`.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty, unsorted, does not start at offset
    /// zero, reaches past `period`, or contains a share outside `(0, 1]`.
    pub fn new(period: SimDuration, segments: Vec<(SimDuration, f64)>) -> Self {
        let table = StepTable::new(period, segments);
        assert!(
            table.segments().iter().all(|&(_, s)| s > 0.0 && s <= 1.0),
            "shares must be in (0, 1]"
        );
        BandwidthTrace { table }
    }

    /// A reference diurnal profile: full bandwidth overnight, mild
    /// congestion during working hours, heavy congestion in the evening
    /// peak (18:00–23:00).
    pub fn diurnal_congestion() -> Self {
        BandwidthTrace::new(
            SimDuration::from_hours(24),
            vec![
                (SimDuration::ZERO, 1.0),           // 00:00 night
                (SimDuration::from_hours(8), 0.8),  // 08:00 work hours
                (SimDuration::from_hours(18), 0.5), // 18:00 evening peak
                (SimDuration::from_hours(23), 0.9), // 23:00 wind-down
            ],
        )
    }

    /// The repeat period of the schedule.
    pub fn period(&self) -> SimDuration {
        self.table.period()
    }

    /// The smallest share anywhere in the schedule (worst-case planning).
    pub fn min_share(&self) -> f64 {
        self.table.segments().iter().map(|&(_, s)| s).fold(1.0, f64::min)
    }

    /// The bandwidth share in effect at instant `at`.
    #[inline]
    pub fn share_at(&self, at: SimTime) -> f64 {
        self.table.at(at)
    }
}

impl Default for BandwidthTrace {
    fn default() -> Self {
        Self::constant()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_share_finds_the_trough() {
        assert_eq!(BandwidthTrace::constant().min_share(), 1.0);
        assert_eq!(BandwidthTrace::diurnal_congestion().min_share(), 0.5);
    }

    #[test]
    fn constant_trace_is_always_one() {
        let t = BandwidthTrace::constant();
        for h in 0..48 {
            assert_eq!(t.share_at(SimTime::from_secs(h * 3600)), 1.0);
        }
    }

    #[test]
    fn segments_select_correctly_and_repeat() {
        let t = BandwidthTrace::diurnal_congestion();
        assert_eq!(t.share_at(SimTime::from_secs(0)), 1.0);
        assert_eq!(t.share_at(SimTime::from_secs(9 * 3600)), 0.8);
        assert_eq!(t.share_at(SimTime::from_secs(20 * 3600)), 0.5);
        assert_eq!(t.share_at(SimTime::from_secs(23 * 3600 + 1)), 0.9);
        // Next day, same profile.
        assert_eq!(t.share_at(SimTime::from_secs((24 + 9) * 3600)), 0.8);
    }

    #[test]
    fn boundary_instant_uses_new_segment() {
        let t = BandwidthTrace::diurnal_congestion();
        assert_eq!(t.share_at(SimTime::from_secs(8 * 3600)), 0.8);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_segments_panic() {
        BandwidthTrace::new(
            SimDuration::from_hours(1),
            vec![
                (SimDuration::ZERO, 1.0),
                (SimDuration::from_mins(30), 0.5),
                (SimDuration::from_mins(10), 0.7),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "start at zero")]
    fn missing_zero_segment_panics() {
        BandwidthTrace::new(SimDuration::from_hours(1), vec![(SimDuration::from_mins(5), 1.0)]);
    }
}
