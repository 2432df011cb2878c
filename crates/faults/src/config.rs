//! Static description of how unreliable the world is.

use std::collections::BTreeMap;

use ntc_net::ConnectivityTrace;

/// Fault-injection parameters for one environment.
///
/// Rates are per-attempt probabilities in `[0, 1]`. The default
/// ([`FaultConfig::none`]) injects nothing, so environments that predate
/// fault modelling behave exactly as before.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability that one offloaded invocation attempt fails with a
    /// transient error (instance crash, dropped response, 5xx).
    pub transient_rate: f64,
    /// Probability that one offloaded invocation attempt is throttled by
    /// the platform (429-style admission rejection).
    pub throttle_rate: f64,
    /// When each execution site is reachable at all, keyed by site name
    /// (`"edge"` or `"cloud"`): outage windows during which every
    /// invocation on that site is rejected. Plays the same role for a
    /// site that the UE `ConnectivityTrace` plays for the device radio.
    /// Sites absent from the map are always online.
    pub site_availability: BTreeMap<String, ConnectivityTrace>,
    /// Probability that a UE-side transfer drops mid-flight and must
    /// re-send part of its payload.
    pub transfer_drop_rate: f64,
    /// Fraction of the transfer re-done after each mid-flight drop
    /// (partial-progress loss), in `[0, 1]`.
    pub transfer_progress_loss: f64,
}

impl FaultConfig {
    /// A world without injected faults.
    pub fn none() -> Self {
        FaultConfig {
            transient_rate: 0.0,
            throttle_rate: 0.0,
            site_availability: BTreeMap::new(),
            transfer_drop_rate: 0.0,
            transfer_progress_loss: 0.5,
        }
    }

    /// Only transient invocation errors, at the given per-attempt rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn transient(rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        FaultConfig { transient_rate: rate, ..FaultConfig::none() }
    }

    /// Whether this configuration injects nothing at all.
    pub fn is_none(&self) -> bool {
        self.transient_rate == 0.0
            && self.throttle_rate == 0.0
            && self.transfer_drop_rate == 0.0
            && self.site_availability.values().all(|t| t.offline_fraction() == 0.0)
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_injects_nothing() {
        let c = FaultConfig::none();
        assert!(c.is_none());
    }

    #[test]
    fn transient_sets_only_the_transient_rate() {
        let c = FaultConfig::transient(0.1);
        assert!(!c.is_none());
        assert_eq!(c.transient_rate, 0.1);
        assert_eq!(c.throttle_rate, 0.0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn transient_rejects_out_of_range_rates() {
        let _ = FaultConfig::transient(1.5);
    }

    #[test]
    fn edge_outages_make_a_config_non_trivial() {
        let mut c = FaultConfig::none();
        c.site_availability.insert("edge".into(), ConnectivityTrace::flaky());
        assert!(!c.is_none());
    }
}
