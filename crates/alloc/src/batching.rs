//! Deadline-aware dispatch: exploit delay tolerance to batch invocations
//! onto warm instances (Figure 4 of the reconstructed evaluation).
//!
//! A non-time-critical job arrives with *slack*: it only has to finish by
//! `arrival + slack`. Instead of dispatching immediately (and paying a
//! cold start for every sporadic arrival), the scheduler may hold jobs and
//! release them in windows, so that consecutive invocations reuse the same
//! warm instance. The invariant every policy maintains: **dispatching late
//! never violates the deadline**, given the completion-time estimate.

use core::fmt;

use ntc_simcore::units::{SimDuration, SimTime};

/// When to release a delay-tolerant job to the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Dispatch the moment the job arrives (the time-critical default).
    Immediate,
    /// Hold jobs until the next multiple of `window` (aligned to the
    /// simulation epoch), unless the deadline forces earlier release.
    Windowed {
        /// Batching-window length.
        window: SimDuration,
    },
    /// Hold jobs until the next `window` boundary that falls inside the
    /// nightly off-peak band, 00:00–06:00 of the simulated day; jobs whose
    /// deadline cannot reach the band fall back to windowed behaviour.
    OffPeak {
        /// Batching-window length inside the band.
        window: SimDuration,
    },
}

/// First hour of the nightly off-peak band.
const OFF_PEAK_START_HOUR: u64 = 0;

/// First hour after the nightly off-peak band.
const OFF_PEAK_END_HOUR: u64 = 6;

impl fmt::Display for DispatchPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DispatchPolicy::Immediate => f.write_str("immediate"),
            DispatchPolicy::Windowed { window } => write!(f, "windowed({window})"),
            DispatchPolicy::OffPeak { window } => {
                write!(f, "off-peak({window}, {OFF_PEAK_START_HOUR}h-{OFF_PEAK_END_HOUR}h)")
            }
        }
    }
}

/// Whether the instant `t` falls inside the nightly off-peak band of its
/// simulated day.
fn in_off_peak_band(t: SimTime) -> bool {
    let hour = (t.as_micros() / 3_600_000_000) % 24;
    (OFF_PEAK_START_HOUR..OFF_PEAK_END_HOUR).contains(&hour)
}

/// The latest instant a job may be dispatched and still meet its deadline,
/// with a safety `margin` on the completion estimate.
pub fn latest_safe_dispatch(
    arrival: SimTime,
    slack: SimDuration,
    estimated_completion: SimDuration,
    margin: SimDuration,
) -> SimTime {
    let deadline = arrival + slack;
    let reserve = estimated_completion + margin;
    let latest = deadline.saturating_duration_since(SimTime::ZERO).saturating_sub(reserve);
    let latest = SimTime::from_micros(latest.as_micros());
    latest.max(arrival)
}

/// Computes the dispatch instant for a job under `policy`.
///
/// Never returns earlier than `arrival`, and never later than the latest
/// safe dispatch for the given estimate and margin. Every window boundary
/// it considers is at or after `arrival`, and
/// [`latest_safe_dispatch`] is too, so neither bound needs a clamp here.
pub fn dispatch_time(
    policy: DispatchPolicy,
    arrival: SimTime,
    slack: SimDuration,
    estimated_completion: SimDuration,
    margin: SimDuration,
) -> SimTime {
    let latest = latest_safe_dispatch(arrival, slack, estimated_completion, margin);
    match policy {
        DispatchPolicy::Immediate => arrival,
        DispatchPolicy::Windowed { window } => {
            if window.is_zero() {
                return arrival;
            }
            let w = window.as_micros();
            let next_boundary = SimTime::from_micros(arrival.as_micros().div_ceil(w) * w);
            next_boundary.min(latest)
        }
        DispatchPolicy::OffPeak { window } => {
            if window.is_zero() {
                return arrival;
            }
            let w = window.as_micros();
            let mut candidate = SimTime::from_micros(arrival.as_micros().div_ceil(w) * w);
            let first_boundary = candidate;
            // Walk window boundaries until one lands in the band or the
            // deadline forecloses the wait.
            let mut steps = 0u32;
            while candidate <= latest && steps < 100_000 {
                if in_off_peak_band(candidate) {
                    return candidate;
                }
                candidate += window;
                steps += 1;
            }
            // Band unreachable within the slack: behave like Windowed.
            first_boundary.min(latest)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EST: SimDuration = SimDuration::from_secs(30);
    const MARGIN: SimDuration = SimDuration::from_secs(10);

    #[test]
    fn immediate_never_holds() {
        let t = SimTime::from_secs(1234);
        let d =
            dispatch_time(DispatchPolicy::Immediate, t, SimDuration::from_hours(8), EST, MARGIN);
        assert_eq!(d, t);
    }

    #[test]
    fn slack_max_uses_all_slack_minus_reserve() {
        let arrival = SimTime::from_secs(1000);
        let slack = SimDuration::from_hours(1);
        let d = latest_safe_dispatch(arrival, slack, EST, MARGIN);
        assert_eq!(d, SimTime::from_secs(1000 + 3600 - 40));
    }

    #[test]
    fn zero_slack_dispatches_immediately() {
        let arrival = SimTime::from_secs(50);
        for policy in [
            DispatchPolicy::Immediate,
            DispatchPolicy::Windowed { window: SimDuration::from_mins(30) },
            DispatchPolicy::OffPeak { window: SimDuration::from_mins(30) },
        ] {
            let d = dispatch_time(policy, arrival, SimDuration::ZERO, EST, MARGIN);
            assert_eq!(d, arrival, "{policy} must not hold a zero-slack job");
        }
    }

    #[test]
    fn windowed_aligns_to_boundaries() {
        let window = SimDuration::from_mins(10);
        let arrival = SimTime::from_secs(123);
        let d = dispatch_time(
            DispatchPolicy::Windowed { window },
            arrival,
            SimDuration::from_hours(4),
            EST,
            MARGIN,
        );
        assert_eq!(d, SimTime::from_secs(600), "releases at the next 10-min boundary");
        // A job arriving exactly on a boundary goes immediately.
        let on_boundary = SimTime::from_secs(1200);
        let d2 = dispatch_time(
            DispatchPolicy::Windowed { window },
            on_boundary,
            SimDuration::from_hours(4),
            EST,
            MARGIN,
        );
        assert_eq!(d2, on_boundary);
    }

    #[test]
    fn windowed_respects_tight_deadlines() {
        let window = SimDuration::from_hours(6);
        let arrival = SimTime::from_secs(100);
        let slack = SimDuration::from_mins(2);
        let d = dispatch_time(DispatchPolicy::Windowed { window }, arrival, slack, EST, MARGIN);
        // Next boundary (6 h) is far past the deadline: clamp to latest safe.
        assert_eq!(d, SimTime::from_secs(100 + 120 - 40));
    }

    #[test]
    fn dispatch_never_violates_deadline_invariant() {
        // Property-style sweep: over many (arrival, slack, est) combos the
        // dispatch + reserve always fits the deadline.
        for a in [0u64, 7, 3600, 86_400] {
            for s in [0u64, 60, 600, 28_800] {
                for e in [1u64, 30, 600] {
                    for policy in [
                        DispatchPolicy::Immediate,
                        DispatchPolicy::Windowed { window: SimDuration::from_mins(15) },
                        DispatchPolicy::OffPeak { window: SimDuration::from_mins(15) },
                        DispatchPolicy::Windowed { window: SimDuration::ZERO },
                        DispatchPolicy::OffPeak { window: SimDuration::ZERO },
                    ] {
                        let arrival = SimTime::from_secs(a);
                        let slack = SimDuration::from_secs(s);
                        let est = SimDuration::from_secs(e);
                        let d = dispatch_time(policy, arrival, slack, est, SimDuration::ZERO);
                        assert!(d >= arrival);
                        if est <= slack {
                            assert!(
                                d + est <= arrival + slack,
                                "{policy}: a={a} s={s} e={e} dispatch {d}"
                            );
                        } else {
                            // Infeasible estimate: dispatch immediately.
                            assert_eq!(d, arrival);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn off_peak_waits_for_the_band() {
        // Arrive at 14:00 with 24 h slack; off-peak band 00:00–06:00.
        let arrival = SimTime::from_secs(14 * 3600);
        let policy = DispatchPolicy::OffPeak { window: SimDuration::from_hours(1) };
        let d = dispatch_time(policy, arrival, SimDuration::from_hours(24), EST, MARGIN);
        assert_eq!(d, SimTime::from_secs(24 * 3600), "released at midnight");
        // Arrive at 20:00 with a slack whose latest safe dispatch is
        // midnight exactly: that boundary is still in reach.
        let arrival = SimTime::from_secs(20 * 3600);
        let slack = SimDuration::from_hours(4) + EST + MARGIN;
        let d = dispatch_time(policy, arrival, slack, EST, MARGIN);
        assert_eq!(d, SimTime::from_secs(24 * 3600), "released at the latest instant");
    }

    #[test]
    fn off_peak_inside_band_goes_at_next_boundary() {
        let arrival = SimTime::from_secs(2 * 3600 + 100);
        let policy = DispatchPolicy::OffPeak { window: SimDuration::from_hours(1) };
        let d = dispatch_time(policy, arrival, SimDuration::from_hours(12), EST, MARGIN);
        assert_eq!(d, SimTime::from_secs(3 * 3600));
    }

    #[test]
    fn off_peak_falls_back_when_band_is_unreachable() {
        // Arrive just past 08:00 with 2 h slack: the midnight band is out
        // of reach.
        let arrival = SimTime::from_secs(8 * 3600 + 100);
        let policy = DispatchPolicy::OffPeak { window: SimDuration::from_mins(30) };
        let slack = SimDuration::from_hours(2);
        let d = dispatch_time(policy, arrival, slack, EST, MARGIN);
        assert_eq!(d, SimTime::from_secs(8 * 3600 + 1800), "windowed fallback");
        assert!(d + EST + MARGIN <= arrival + slack);
        // The walk gives up after 100 000 windows: at a quarter-second
        // window, midnight is 172 800 windows past noon, so a noon arrival
        // behaves like Windowed although its day of slack reaches the band.
        let noon = SimTime::from_secs(12 * 3600);
        let policy = DispatchPolicy::OffPeak { window: SimDuration::from_millis(250) };
        let d = dispatch_time(policy, noon, SimDuration::from_hours(24), EST, MARGIN);
        assert_eq!(d, noon, "the walk is bounded");
    }

    #[test]
    fn off_peak_respects_deadlines() {
        let policy = DispatchPolicy::OffPeak { window: SimDuration::from_hours(1) };
        for a in [0u64, 3600, 10 * 3600, 23 * 3600] {
            for s in [600u64, 7200, 86_400] {
                let arrival = SimTime::from_secs(a);
                let slack = SimDuration::from_secs(s);
                let d = dispatch_time(policy, arrival, slack, EST, SimDuration::ZERO);
                assert!(d >= arrival);
                if EST <= slack {
                    assert!(d + EST <= arrival + slack, "a={a} s={s} d={d}");
                }
            }
        }
    }

    #[test]
    fn off_peak_band_is_midnight_to_six_every_day() {
        let at = |h: u64| in_off_peak_band(SimTime::from_secs(h * 3600));
        assert!(at(0) && at(5) && at(24 + 2));
        assert!(!at(6) && !at(12) && !at(23) && !at(24 + 6));
        assert!(in_off_peak_band(SimTime::from_secs(6 * 3600 - 1)));
    }

    #[test]
    fn held_job_records_hold_time() {
        // The next window boundary (1 h) lies past the latest safe
        // dispatch (500 s), so the job is held exactly until then.
        let arrival = SimTime::from_secs(100);
        let d = dispatch_time(
            DispatchPolicy::Windowed { window: SimDuration::from_hours(1) },
            arrival,
            SimDuration::from_secs(500),
            SimDuration::from_secs(100),
            SimDuration::ZERO,
        );
        assert_eq!(d - arrival, SimDuration::from_secs(400));
    }

    #[test]
    fn policy_display() {
        assert_eq!(DispatchPolicy::Immediate.to_string(), "immediate");
        assert_eq!(
            DispatchPolicy::OffPeak { window: SimDuration::from_hours(1) }.to_string(),
            "off-peak(1.00h, 0h-6h)"
        );
        assert!(DispatchPolicy::Windowed { window: SimDuration::from_mins(5) }
            .to_string()
            .starts_with("windowed("));
    }
}
