//! Property-based tests of the circuit-breaker invariants: an Open
//! breaker always recovers once its site does, and healthy (Closed)
//! sites are never probed.

use ntc_check::prelude::*;

use ntc_faults::health::{Admission, BreakerState, HealthConfig, SiteHealth};
use ntc_simcore::rng::RngStream;
use ntc_simcore::units::{SimDuration, SimTime};

fn config(failure_threshold: u32, error_rate_threshold: f64, alpha: f64) -> HealthConfig {
    HealthConfig {
        breakers: true,
        admission: true,
        hedge: true,
        failure_threshold,
        error_rate_threshold,
        ewma_alpha: alpha,
        min_samples: 4,
        ..HealthConfig::disabled()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// However the breaker was tripped (any failure pattern, any
    /// threshold configuration), once the site recovers — every probe
    /// from now on succeeds — the breaker reaches Closed again in a
    /// bounded number of cooldown cycles. It never stays Open forever.
    #[test]
    fn breaker_never_stays_open_under_a_recovering_site(
        seed in 0u64..1024,
        failure_threshold in 1u32..8,
        error_rate_threshold in 0.2f64..0.9,
        alpha in 0.05f64..0.6,
        failures in 1u32..64,
    ) {
        let cfg = config(failure_threshold, error_rate_threshold, alpha);
        let mut h = SiteHealth::new("edge", cfg);
        let rng = RngStream::root(seed).derive("health");

        // Arbitrary outage: hammer the site with at least enough
        // consecutive failures to trip whichever threshold binds first.
        let mut t = SimTime::ZERO;
        for _ in 0..failures.max(failure_threshold) {
            h.record_failure(t, &rng);
            t += SimDuration::from_secs(1);
        }
        prop_assert_eq!(h.state(), BreakerState::Open, "enough failures must trip");

        // The site recovers: every admitted request now succeeds. Walk
        // time forward; each step either waits out a cooldown or answers
        // a probe. The longest possible path is one probe per cooldown,
        // and cooldowns are capped, so a handful of cycles must suffice.
        for _ in 0..16 {
            if h.state() == BreakerState::Closed {
                break;
            }
            t += cfg.cooldown_cap;
            match h.check(t) {
                Admission::Probe => h.record_success(SimDuration::from_secs(1)),
                Admission::Ready => {}
                Admission::Unavailable => prop_assert!(
                    false,
                    "breaker unavailable a full cooldown_cap after opening at {t}"
                ),
            }
        }
        prop_assert_eq!(
            h.state(),
            BreakerState::Closed,
            "recovering site stuck {:?} after 16 cooldown cycles",
            h.state()
        );
        // And once Closed, traffic flows immediately.
        prop_assert_eq!(h.check(t), Admission::Ready);
    }

    /// A Closed breaker never answers `Probe`: probes are reserved for
    /// the HalfOpen recovery handshake, so healthy sites see normal
    /// traffic only — regardless of how many sub-threshold failures and
    /// successes they absorb.
    #[test]
    fn closed_sites_are_never_probed(
        seed in 0u64..1024,
        pattern in 0u64..u64::MAX,
        steps in 1u32..200,
    ) {
        // High thresholds keep the breaker Closed through the whole run.
        let cfg = config(u32::MAX, 1.1, 0.2);
        let mut h = SiteHealth::new("cloud", cfg);
        let rng = RngStream::root(seed).derive("health");

        let mut t = SimTime::ZERO;
        for i in 0..steps {
            prop_assert_eq!(h.state(), BreakerState::Closed);
            let adm = h.check(t);
            prop_assert!(
                adm == Admission::Ready,
                "closed site answered {:?} at step {}", adm, i
            );
            if (pattern >> (i % 64)) & 1 == 1 {
                h.record_failure(t, &rng);
            } else {
                h.record_success(SimDuration::from_secs(2));
            }
            t += SimDuration::from_secs(30);
        }
        prop_assert_eq!(h.transitions(), 0, "a closed-forever site transitions never");
    }
}
