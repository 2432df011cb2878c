//! Runtime drift detection: notice when a deployed component's demand
//! departs from the profile it was released with.
//!
//! The CI/CD pipeline profiles a release once (contribution C1/C4); after
//! promotion, demand can drift — library updates, fatter inputs, cache
//! behaviour. The [`PageHinkley`] detector watches the stream of
//! observed-vs-expected ratios and raises a signal when the cumulative
//! deviation leaves the tolerance band, prompting a re-profile/re-release
//! (the "many iterations" of the paper's Design Science methodology).

use core::fmt;

/// Direction of a detected drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drift {
    /// Values drifted upward (demand grew: risk of misses/timeouts).
    Up,
    /// Values drifted downward (demand shrank: over-provisioned).
    Down,
}

impl fmt::Display for Drift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Drift::Up => "up",
            Drift::Down => "down",
        })
    }
}

/// Two-sided Page–Hinkley change detector.
///
/// Feed it a stream of values (typically `observed / expected` ratios,
/// which hover around 1.0 in steady state). It maintains cumulative
/// deviations from the running mean in both directions, each less a
/// per-observation noise allowance of 0.1; when either exceeds the
/// detection threshold of 3.0, the corresponding [`Drift`] fires and the
/// detector resets. So it tolerates ~10 % noise and fires after a
/// sustained ~30 % shift.
///
/// # Examples
///
/// ```
/// use ntc_profiler::drift::{Drift, PageHinkley};
///
/// let mut d = PageHinkley::for_demand_ratios();
/// // Stable phase: no alarms.
/// for _ in 0..100 {
///     assert_eq!(d.observe(1.0), None);
/// }
/// // Demand jumps 60 %: the detector fires within a bounded delay.
/// let fired = (0..100).find_map(|_| d.observe(1.6));
/// assert_eq!(fired, Some(Drift::Up));
/// ```
#[derive(Debug, Clone)]
pub struct PageHinkley {
    count: u64,
    mean: f64,
    cum_up: f64,
    min_up: f64,
    cum_down: f64,
    max_down: f64,
}

/// [`PageHinkley`]'s per-observation tolerance (noise allowance).
const DELTA: f64 = 0.1;
/// [`PageHinkley`]'s detection threshold (bigger = fewer, later
/// detections).
const LAMBDA: f64 = 3.0;

impl PageHinkley {
    /// A detector for demand ratios (`observed/expected`), with no
    /// history.
    pub fn for_demand_ratios() -> Self {
        PageHinkley { count: 0, mean: 0.0, cum_up: 0.0, min_up: 0.0, cum_down: 0.0, max_down: 0.0 }
    }

    /// Observations since the last reset.
    pub fn observations(&self) -> u64 {
        self.count
    }

    /// Clears all state (fresh baseline).
    pub fn reset(&mut self) {
        *self = PageHinkley::for_demand_ratios();
    }

    /// Feeds one value; returns a [`Drift`] if a change is detected
    /// (the detector resets itself on detection).
    pub fn observe(&mut self, x: f64) -> Option<Drift> {
        self.count += 1;
        self.mean += (x - self.mean) / self.count as f64;

        self.cum_up += x - self.mean - DELTA;
        self.min_up = self.min_up.min(self.cum_up);
        self.cum_down += x - self.mean + DELTA;
        self.max_down = self.max_down.max(self.cum_down);

        if self.cum_up - self.min_up > LAMBDA {
            self.reset();
            return Some(Drift::Up);
        }
        if self.max_down - self.cum_down > LAMBDA {
            self.reset();
            return Some(Drift::Down);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_simcore::rng::RngStream;

    #[test]
    fn stable_stream_never_fires() {
        let mut d = PageHinkley::for_demand_ratios();
        let mut rng = RngStream::root(1).derive("stable");
        for _ in 0..5_000 {
            let x = rng.lognormal(0.0, 0.08);
            assert_eq!(d.observe(x), None, "false alarm on stationary noise");
        }
    }

    #[test]
    fn upward_shift_is_detected_quickly() {
        let mut d = PageHinkley::for_demand_ratios();
        let mut rng = RngStream::root(2).derive("up");
        for _ in 0..500 {
            assert_eq!(d.observe(rng.lognormal(0.0, 0.08)), None);
        }
        let detection = (0..200).position(|_| d.observe(1.5 * rng.lognormal(0.0, 0.08)).is_some());
        let k = detection.expect("a 50 % shift must be caught within 200 samples");
        assert!(k < 60, "detected after {k} samples — too slow");
    }

    #[test]
    fn downward_shift_is_detected_with_direction() {
        let mut d = PageHinkley::for_demand_ratios();
        for _ in 0..300 {
            assert_eq!(d.observe(1.0), None);
        }
        let fired = (0..200).find_map(|_| d.observe(0.5));
        assert_eq!(fired, Some(Drift::Down));
    }

    #[test]
    fn detector_resets_after_firing() {
        let mut d = PageHinkley::for_demand_ratios();
        for _ in 0..50 {
            d.observe(1.0);
        }
        let fired = (0..100).find_map(|_| d.observe(2.0));
        assert_eq!(fired, Some(Drift::Up));
        assert_eq!(d.observations(), 0, "state must clear after detection");
        // The new regime becomes the new baseline: no immediate re-fire.
        for _ in 0..20 {
            assert_eq!(d.observe(2.0), None);
        }
    }

    #[test]
    fn manual_reset_clears_history() {
        let mut d = PageHinkley::for_demand_ratios();
        for _ in 0..100 {
            d.observe(1.0);
        }
        d.reset();
        assert_eq!(d.observations(), 0);
    }
}
