//! Post-promotion production monitoring: watch the live release's demand
//! and trigger a re-profile/re-release when it drifts.
//!
//! This closes the Design-Science-Research iteration loop of the paper:
//! profile → partition → deploy → **observe → iterate**. The canary
//! (Table 4) guards the *release boundary*; the monitor guards the long
//! tail of production time after it.

use ntc_profiler::{Drift, PageHinkley};

/// What the monitor asks the team (or the automation) to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorAction {
    /// Demand drifted; run a new pipeline iteration so profiling,
    /// partitioning and allocation can catch up.
    Reprofile(Drift),
}

/// Watches observed demand against the promoted release's profiled
/// baseline.
///
/// # Examples
///
/// ```
/// use ntc_cicd::monitor::{MonitorAction, ProductionMonitor};
///
/// let mut m = ProductionMonitor::new(1_000_000.0);
/// // Steady production: quiet.
/// for _ in 0..200 {
///     assert_eq!(m.observe(1_000_000.0), None);
/// }
/// // Demand grows 60 %: a re-profile is requested.
/// let action = (0..200).find_map(|_| m.observe(1_600_000.0));
/// assert!(matches!(action, Some(MonitorAction::Reprofile(_))));
/// ```
#[derive(Debug, Clone)]
pub struct ProductionMonitor {
    baseline_demand: f64,
    detector: PageHinkley,
    observed: u64,
    triggered: u64,
}

impl ProductionMonitor {
    /// Creates a monitor around the release's profiled mean demand.
    ///
    /// # Panics
    ///
    /// Panics if `baseline_demand` is not positive.
    pub fn new(baseline_demand: f64) -> Self {
        assert!(
            baseline_demand > 0.0 && baseline_demand.is_finite(),
            "baseline demand must be positive"
        );
        ProductionMonitor {
            baseline_demand,
            detector: PageHinkley::for_demand_ratios(),
            observed: 0,
            triggered: 0,
        }
    }

    /// The baseline this monitor compares against.
    pub fn baseline_demand(&self) -> f64 {
        self.baseline_demand
    }

    /// Observations fed since creation.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// How many times the monitor has requested a re-profile.
    pub fn triggered(&self) -> u64 {
        self.triggered
    }

    /// Feeds one production measurement of total job demand (cycles).
    /// Returns an action when drift is confirmed.
    pub fn observe(&mut self, measured_demand: f64) -> Option<MonitorAction> {
        self.observed += 1;
        let ratio = measured_demand / self.baseline_demand;
        self.detector.observe(ratio).map(|d| {
            self.triggered += 1;
            MonitorAction::Reprofile(d)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_simcore::rng::RngStream;

    #[test]
    fn quiet_production_never_triggers() {
        let mut m = ProductionMonitor::new(5e9);
        let mut rng = RngStream::root(4).derive("prod");
        for _ in 0..3_000 {
            let demand = 5e9 * rng.lognormal(0.0, 0.08);
            assert_eq!(m.observe(demand), None);
        }
        assert_eq!(m.triggered(), 0);
        assert_eq!(m.observed(), 3_000);
    }

    #[test]
    fn library_regression_triggers_reprofile_up() {
        let mut m = ProductionMonitor::new(5e9);
        let mut rng = RngStream::root(5).derive("prod");
        for _ in 0..500 {
            m.observe(5e9 * rng.lognormal(0.0, 0.08));
        }
        let action = (0..300).find_map(|_| m.observe(5e9 * 1.6 * rng.lognormal(0.0, 0.08)));
        assert_eq!(action, Some(MonitorAction::Reprofile(Drift::Up)));
        assert_eq!(m.triggered(), 1);
    }

    #[test]
    fn optimisation_triggers_reprofile_down() {
        let mut m = ProductionMonitor::new(5e9);
        for _ in 0..300 {
            m.observe(5e9);
        }
        let action = (0..300).find_map(|_| m.observe(5e9 * 0.5));
        assert_eq!(action, Some(MonitorAction::Reprofile(Drift::Down)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_baseline_panics() {
        let _ = ProductionMonitor::new(0.0);
    }
}
