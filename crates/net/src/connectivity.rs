//! UE connectivity schedules: when the device can reach the network at
//! all.
//!
//! Mobile users lose connectivity — elevators, subways, flights, dead
//! zones. A time-critical offloaded job fails or stalls; a
//! non-time-critical job simply waits. This module provides deterministic
//! on/off schedules the engine consults before starting any UE-side
//! transfer.

use ntc_simcore::units::{SimDuration, SimTime};

use crate::step::StepTable;

/// A periodic on/off connectivity schedule.
///
/// Like [`crate::BandwidthTrace`], the schedule repeats with its period,
/// so a 24-hour commuter profile covers arbitrarily long runs.
///
/// # Examples
///
/// ```
/// use ntc_net::connectivity::ConnectivityTrace;
/// use ntc_simcore::units::SimTime;
///
/// let t = ConnectivityTrace::commuter();
/// assert!(t.is_online(SimTime::from_secs(12 * 3600)));  // midday: online
/// assert!(!t.is_online(SimTime::from_secs(8 * 3600 + 60))); // morning subway
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectivityTrace {
    table: StepTable<bool>,
}

impl ConnectivityTrace {
    /// A schedule that is always online.
    pub fn always() -> Self {
        ConnectivityTrace::new(SimDuration::from_hours(24), vec![(SimDuration::ZERO, true)])
    }

    /// Builds a schedule from `(offset, online)` segments repeating every
    /// `period`.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty, unsorted, does not start at offset
    /// zero, or reaches past `period`.
    pub fn new(period: SimDuration, segments: Vec<(SimDuration, bool)>) -> Self {
        ConnectivityTrace { table: StepTable::new(period, segments) }
    }

    /// A commuter's day: offline 08:00–08:45 and 17:30–18:15 (subway),
    /// online otherwise.
    pub fn commuter() -> Self {
        let m = |mins: u64| SimDuration::from_mins(mins);
        ConnectivityTrace::new(
            SimDuration::from_hours(24),
            vec![
                (SimDuration::ZERO, true),
                (m(8 * 60), false),
                (m(8 * 60 + 45), true),
                (m(17 * 60 + 30), false),
                (m(18 * 60 + 15), true),
            ],
        )
    }

    /// A flaky rural link: 20 minutes offline out of every 2 hours.
    pub fn flaky() -> Self {
        ConnectivityTrace::new(
            SimDuration::from_hours(2),
            vec![(SimDuration::ZERO, true), (SimDuration::from_mins(100), false)],
        )
    }

    /// The repeat period.
    pub fn period(&self) -> SimDuration {
        self.table.period()
    }

    /// Whether the device can reach the network at `at`.
    #[inline]
    pub fn is_online(&self, at: SimTime) -> bool {
        self.table.at(at)
    }

    /// The earliest instant `>= at` at which the device is online
    /// (`at` itself when already online).
    ///
    /// # Panics
    ///
    /// Panics if the schedule has no online segment at all.
    #[inline]
    pub fn next_online(&self, at: SimTime) -> SimTime {
        if self.is_online(at) {
            at
        } else {
            self.next_reconnect(at)
        }
    }

    /// [`next_online`](Self::next_online) for an `at` that is offline.
    fn next_reconnect(&self, at: SimTime) -> SimTime {
        let segments = self.table.segments();
        let first_on = segments.iter().find(|&&(_, on)| on).expect("schedule is never online").0;
        let period_us = self.period().as_micros();
        let cycle_start = at.as_micros() - at.as_micros() % period_us;
        // Scan forward within this cycle, then wrap to the next.
        let idx = self.table.index_at(at);
        match segments[idx + 1..].iter().find(|&&(_, on)| on) {
            Some(&(offset, _)) => SimTime::from_micros(cycle_start + offset.as_micros()),
            None => SimTime::from_micros(cycle_start + period_us + first_on.as_micros()),
        }
    }

    /// The worst-case wait a transfer initiated anywhere in
    /// `[from, until]` could incur before the device is online: the
    /// longest remaining-outage time over all initiation instants in the
    /// interval. Zero when the whole interval is online.
    pub fn worst_wait_within(&self, from: SimTime, until: SimTime) -> SimDuration {
        if until < from {
            return SimDuration::ZERO;
        }
        let mut worst = self.next_online(from).saturating_duration_since(from);
        // A transfer started the instant an outage begins waits the whole
        // window: check every offline segment start inside the interval.
        let period_us = self.period().as_micros();
        let mut cycle_start = from.as_micros() - from.as_micros() % period_us;
        while cycle_start <= until.as_micros() {
            for &(offset, on) in self.table.segments() {
                if !on {
                    let s = cycle_start + offset.as_micros();
                    if s >= from.as_micros() && s <= until.as_micros() {
                        let start = SimTime::from_micros(s);
                        let wait = self.next_online(start).saturating_duration_since(start);
                        if wait > worst {
                            worst = wait;
                        }
                    }
                }
            }
            cycle_start += period_us;
        }
        worst
    }

    /// The longest single offline window in one period.
    pub fn longest_offline(&self) -> SimDuration {
        self.offline_spans().max().unwrap_or(SimDuration::ZERO)
    }

    /// Total offline time per period, as a fraction in `[0, 1]`
    /// (exactly `1.0` for a schedule that is never online).
    pub fn offline_fraction(&self) -> f64 {
        let offline: SimDuration = self.offline_spans().sum();
        offline.as_secs_f64() / self.period().as_secs_f64()
    }

    /// The length of each offline segment in one period.
    fn offline_spans(&self) -> impl Iterator<Item = SimDuration> + '_ {
        self.table.spans().filter(|&(on, _)| !on).map(|(_, length)| length)
    }
}

impl Default for ConnectivityTrace {
    fn default() -> Self {
        Self::always()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_is_always_online() {
        let t = ConnectivityTrace::always();
        for h in 0..30 {
            let at = SimTime::from_secs(h * 3600);
            assert!(t.is_online(at));
            assert_eq!(t.next_online(at), at);
        }
        assert_eq!(t.offline_fraction(), 0.0);
    }

    #[test]
    fn commuter_windows_are_respected() {
        let t = ConnectivityTrace::commuter();
        assert!(t.is_online(SimTime::from_secs(7 * 3600)));
        assert!(!t.is_online(SimTime::from_secs(8 * 3600)));
        assert!(!t.is_online(SimTime::from_secs(8 * 3600 + 44 * 60)));
        assert!(t.is_online(SimTime::from_secs(8 * 3600 + 45 * 60)));
        assert!(!t.is_online(SimTime::from_secs(17 * 3600 + 45 * 60)));
        assert!(t.is_online(SimTime::from_secs(19 * 3600)));
    }

    #[test]
    fn next_online_lands_on_the_reconnect_edge() {
        let t = ConnectivityTrace::commuter();
        let mid_outage = SimTime::from_secs(8 * 3600 + 600);
        assert_eq!(t.next_online(mid_outage), SimTime::from_secs(8 * 3600 + 45 * 60));
        // Second day wraps correctly.
        let day2 = SimTime::from_secs(24 * 3600 + 8 * 3600 + 600);
        assert_eq!(t.next_online(day2), SimTime::from_secs(24 * 3600 + 8 * 3600 + 45 * 60));
    }

    #[test]
    fn trailing_offline_segment_wraps_to_next_cycle() {
        let t = ConnectivityTrace::flaky();
        // Offline from minute 100 to the end of the 2 h cycle.
        let at = SimTime::from_secs(110 * 60);
        assert!(!t.is_online(at));
        assert_eq!(t.next_online(at), SimTime::from_secs(2 * 3600));
        let frac = t.offline_fraction();
        assert!((frac - 20.0 / 120.0).abs() < 1e-12, "frac={frac}");
    }

    #[test]
    fn longest_offline_finds_the_worst_window() {
        assert_eq!(ConnectivityTrace::always().longest_offline(), SimDuration::ZERO);
        assert_eq!(ConnectivityTrace::commuter().longest_offline(), SimDuration::from_mins(45));
        assert_eq!(ConnectivityTrace::flaky().longest_offline(), SimDuration::from_mins(20));
    }

    #[test]
    fn worst_wait_within_sees_only_overlapping_outages() {
        let t = ConnectivityTrace::commuter();
        // Midday window with no outage: zero wait.
        let from = SimTime::from_secs(10 * 3600);
        let until = SimTime::from_secs(16 * 3600);
        assert_eq!(t.worst_wait_within(from, until), SimDuration::ZERO);
        // Window covering the morning subway: full 45-minute wait.
        let from = SimTime::from_secs(7 * 3600);
        let until = SimTime::from_secs(9 * 3600);
        assert_eq!(t.worst_wait_within(from, until), SimDuration::from_mins(45));
        // Starting mid-outage: the remaining outage counts.
        let from = SimTime::from_secs(8 * 3600 + 30 * 60);
        assert_eq!(t.worst_wait_within(from, from), SimDuration::from_mins(15));
        // Inverted interval is empty.
        assert_eq!(
            t.worst_wait_within(SimTime::from_secs(100), SimTime::from_secs(50)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn commuter_offline_fraction() {
        let t = ConnectivityTrace::commuter();
        let expected = (45.0 + 45.0) / (24.0 * 60.0);
        assert!((t.offline_fraction() - expected).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "never online")]
    fn never_online_schedule_panics_on_next_online() {
        let t =
            ConnectivityTrace::new(SimDuration::from_hours(1), vec![(SimDuration::ZERO, false)]);
        let _ = t.next_online(SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "fit in the period")]
    fn segment_exactly_at_period_boundary_is_rejected() {
        // A segment starting at the period itself belongs to the next
        // cycle's offset zero; accepting it would shadow the first
        // segment's mandatory zero offset.
        let _ = ConnectivityTrace::new(
            SimDuration::from_hours(1),
            vec![(SimDuration::ZERO, true), (SimDuration::from_hours(1), false)],
        );
    }

    #[test]
    fn single_offline_only_segment_is_offline_everywhere() {
        let t =
            ConnectivityTrace::new(SimDuration::from_hours(1), vec![(SimDuration::ZERO, false)]);
        for mins in [0u64, 1, 59, 60, 61, 600] {
            assert!(!t.is_online(SimTime::from_secs(mins * 60)), "minute {mins}");
        }
        assert_eq!(t.offline_fraction(), 1.0);
        assert_eq!(t.longest_offline(), SimDuration::from_hours(1));
    }

    #[test]
    fn queries_far_past_many_periods_stay_aligned() {
        let t = ConnectivityTrace::flaky(); // 2 h period, offline 100–120 min
                                            // One thousand cycles in, the schedule still reads like cycle zero.
        let cycles = 1000u64;
        let base = SimTime::from_secs(cycles * 2 * 3600);
        assert!(t.is_online(base + SimDuration::from_mins(50)));
        assert!(!t.is_online(base + SimDuration::from_mins(110)));
        assert_eq!(
            t.next_online(base + SimDuration::from_mins(110)),
            SimTime::from_secs((cycles + 1) * 2 * 3600),
        );
        // And the worst wait over a many-period window is one full outage.
        let wait = t.worst_wait_within(base, base + SimDuration::from_hours(20));
        assert_eq!(wait, SimDuration::from_mins(20));
    }
}
