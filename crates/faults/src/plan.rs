//! The faults of one environment: how unreliable the world is, and the
//! deterministic queries that answer in [`FailureCause`] and
//! [`ErrorClass`].

use std::collections::BTreeMap;

use ntc_net::ConnectivityTrace;
use ntc_simcore::rng::{Key, RngStream};
use ntc_simcore::units::SimTime;

use crate::classify::{ErrorClass, FailureCause};

/// Fault-injection parameters for one environment.
///
/// Rates are per-attempt probabilities in `[0, 1]`. The default
/// ([`FaultConfig::none`]) injects nothing, so environments that predate
/// fault modelling behave exactly as before.
///
/// Every random query derives its own child stream, by a caller-chosen
/// key, from a stream the caller passes (the engine passes the job's own
/// stream), so results are independent of query order and of how much
/// randomness other subsystems consumed — the same
/// common-random-numbers discipline as the rest of the simulator. The
/// same `(stream, key)` pair always produces the same answer.
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

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
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

    /// The injected fault, if any, that hits the invocation attempt
    /// identified by `key` under `rng`: [`FailureCause::Transient`] or
    /// [`FailureCause::Throttled`], each retryable since every attempt
    /// re-rolls. Keys must be unique per attempt (include the component,
    /// site and attempt number) so retries re-roll independently. The
    /// answer comes from `rng`'s child stream `inv-{key}`, derived from
    /// the key's spelling, so that spelling is part of the
    /// reproducibility contract.
    pub fn invocation_fault(&self, rng: &RngStream, key: impl Key) -> Option<FailureCause> {
        let (tr, th) = (self.transient_rate, self.throttle_rate);
        if tr <= 0.0 && th <= 0.0 {
            return None;
        }
        let mut r = rng.derive(("inv-", key));
        let u = r.uniform();
        if u < tr {
            Some(FailureCause::Transient)
        } else if u < tr + th {
            Some(FailureCause::Throttled)
        } else {
            None
        }
    }

    /// What an invocation on the execution site named `site` at `at`
    /// meets from its [`site_availability`](Self::site_availability)
    /// trace: `None` while the site is online (sites absent from the map
    /// always are), a free [`ErrorClass::WaitUntil`] the instant it comes
    /// back when the outage has a known end, and an
    /// [`ErrorClass::Fallback`] down the site chain when the trace is
    /// never online.
    pub fn site_outage(&self, site: &str, at: SimTime) -> Option<ErrorClass> {
        let trace = self.site_availability.get(site)?;
        if trace.is_online(at) {
            None
        } else if trace.offline_fraction() >= 1.0 {
            Some(ErrorClass::Fallback)
        } else {
            Some(ErrorClass::WaitUntil(trace.next_online(at)))
        }
    }

    /// How many times the transfer identified by `key` under `rng` drops
    /// mid-flight, capped at `max` (each drop re-sends a
    /// [`transfer_progress_loss`](Self::transfer_progress_loss)
    /// fraction of the payload), drawn from `rng`'s child stream
    /// `xfer-{key}`.
    pub fn transfer_drops(&self, rng: &RngStream, key: impl Key, max: u32) -> u32 {
        let p = self.transfer_drop_rate;
        if p <= 0.0 || max == 0 {
            return 0;
        }
        let mut r = rng.derive(("xfer-", key));
        let mut drops = 0;
        while drops < max && r.chance(p.min(1.0)) {
            drops += 1;
        }
        drops
    }

    /// The latency multiplier a transfer suffers from its injected
    /// drops: `1 + progress_loss × drops`.
    pub fn transfer_penalty(&self, rng: &RngStream, key: impl Key) -> f64 {
        const MAX_DROPS: u32 = 8;
        let drops = self.transfer_drops(rng, key, MAX_DROPS);
        1.0 + self.transfer_progress_loss * f64::from(drops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_simcore::units::SimDuration;

    /// `config` with the stream its queries draw under.
    fn plan(config: FaultConfig, seed: u64) -> (FaultConfig, RngStream) {
        (config, RngStream::root(seed).derive("faults"))
    }

    /// A config whose only fault is `site` following `trace`.
    fn site_down(site: &str, trace: ConnectivityTrace) -> FaultConfig {
        let mut cfg = FaultConfig::none();
        cfg.site_availability.insert(site.into(), trace);
        cfg
    }

    fn never_online() -> ConnectivityTrace {
        ConnectivityTrace::new(SimDuration::from_hours(1), vec![(SimDuration::ZERO, false)])
    }

    #[test]
    fn transient_sets_only_the_transient_rate() {
        let c = FaultConfig::transient(0.1);
        assert_eq!(c.transient_rate, 0.1);
        assert_eq!(c.throttle_rate, 0.0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn transient_rejects_out_of_range_rates() {
        let _ = FaultConfig::transient(1.5);
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let (p, rp) = plan(FaultConfig::none(), 1);
        for i in 0..1000_u64 {
            assert_eq!(p.invocation_fault(&rp, ("k", i)), None);
            assert_eq!(p.transfer_drops(&rp, ("k", i), 8), 0);
        }
    }

    #[test]
    fn plans_are_deterministic_and_order_independent() {
        let (a, ra) = plan(FaultConfig::transient(0.3), 42);
        let (b, rb) = plan(FaultConfig::transient(0.3), 42);
        // Query b in reverse order: answers must match a's.
        let keys: Vec<String> = (0..500).map(|i| format!("job{i}-c0-a1")).collect();
        let from_a: Vec<_> = keys.iter().map(|k| a.invocation_fault(&ra, k)).collect();
        let from_b: Vec<_> = keys.iter().rev().map(|k| b.invocation_fault(&rb, k)).collect();
        let from_b_fwd: Vec<_> = from_b.into_iter().rev().collect();
        assert_eq!(from_a, from_b_fwd);
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let (a, ra) = plan(FaultConfig::transient(0.5), 1);
        let (b, rb) = plan(FaultConfig::transient(0.5), 2);
        let fa: Vec<_> = (0..200_u64).map(|i| a.invocation_fault(&ra, ("k", i))).collect();
        let fb: Vec<_> = (0..200_u64).map(|i| b.invocation_fault(&rb, ("k", i))).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn fault_frequency_tracks_the_rate() {
        let (p, rp) = plan(FaultConfig::transient(0.2), 7);
        let hits = (0..5000_u64).filter(|&i| p.invocation_fault(&rp, ("k", i)).is_some()).count();
        let freq = hits as f64 / 5000.0;
        assert!((freq - 0.2).abs() < 0.03, "freq={freq}");
    }

    #[test]
    fn throttles_and_transients_split_by_rate() {
        let cfg = FaultConfig { transient_rate: 0.1, throttle_rate: 0.1, ..FaultConfig::none() };
        let (p, rp) = plan(cfg, 7);
        let mut transients = 0;
        let mut throttles = 0;
        for i in 0..5000_u64 {
            match p.invocation_fault(&rp, ("k", i)) {
                Some(FailureCause::Transient) => transients += 1,
                Some(FailureCause::Throttled) => throttles += 1,
                other => assert_eq!(other, None),
            }
        }
        assert!(transients > 0 && throttles > 0);
        let ratio = transients as f64 / throttles as f64;
        assert!((0.6..1.6).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn edge_outage_follows_the_availability_trace() {
        let (p, _) = plan(site_down("edge", ConnectivityTrace::flaky()), 1);
        assert_eq!(p.site_outage("edge", SimTime::from_secs(60)), None);
        let mid_outage = SimTime::from_secs(110 * 60);
        let back = ErrorClass::WaitUntil(SimTime::from_secs(2 * 3600));
        assert_eq!(p.site_outage("edge", mid_outage), Some(back));
    }

    #[test]
    fn permanently_down_edge_reports_forever() {
        let (p, _) = plan(site_down("edge", never_online()), 1);
        assert_eq!(p.site_outage("edge", SimTime::ZERO), Some(ErrorClass::Fallback));
    }

    #[test]
    fn site_outages_follow_the_keyed_availability_map() {
        let (p, _) = plan(site_down("cloud", never_online()), 1);
        assert_eq!(p.site_outage("cloud", SimTime::ZERO), Some(ErrorClass::Fallback));
        // Unlisted sites are always online.
        assert_eq!(p.site_outage("edge", SimTime::ZERO), None);
    }

    #[test]
    fn transfer_drops_respect_the_cap_and_seed() {
        let cfg = FaultConfig { transfer_drop_rate: 0.9, ..FaultConfig::none() };
        let (p, rp) = plan(cfg.clone(), 3);
        let (q, rq) = plan(cfg, 3);
        for i in 0..200_u64 {
            let d = p.transfer_drops(&rp, ("t", i), 4);
            assert!(d <= 4);
            assert_eq!(d, q.transfer_drops(&rq, ("t", i), 4), "same seed, same drops");
        }
    }

    #[test]
    fn transfer_penalty_scales_with_progress_loss() {
        let cfg = FaultConfig {
            transfer_drop_rate: 1.0,
            transfer_progress_loss: 0.25,
            ..FaultConfig::none()
        };
        let (p, rp) = plan(cfg, 3);
        // Rate 1.0 always hits the cap of 8 drops.
        assert!((p.transfer_penalty(&rp, "k") - 3.0).abs() < 1e-12);
        let (none, rnone) = plan(FaultConfig::none(), 3);
        assert_eq!(none.transfer_penalty(&rnone, "k"), 1.0);
    }

    /// Known answers for the `inv-{key}` and `xfer-{key}` streams,
    /// recorded from the formatted labels these keys spell: a respelled
    /// prefix fails here by name.
    #[test]
    fn faults_draw_from_the_inv_and_xfer_streams() {
        let (p, rp) = plan(FaultConfig::transient(0.5), 42);
        let hits = (0..64_u64)
            .fold(0_u64, |m, i| m | u64::from(p.invocation_fault(&rp, ("k", i)).is_some()) << i);
        assert_eq!(hits, 0x42b0_ed3e_0069_cf6f);
        let (p, rp) = plan(FaultConfig { transfer_drop_rate: 0.5, ..FaultConfig::none() }, 3);
        let drops: Vec<u32> = (0..16_u64).map(|i| p.transfer_drops(&rp, ("t", i), 8)).collect();
        assert_eq!(drops, [0, 1, 0, 2, 2, 0, 1, 1, 1, 1, 2, 0, 0, 1, 3, 0]);
    }
}
