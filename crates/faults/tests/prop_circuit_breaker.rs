//! Property-based tests of the circuit-breaker invariants: an Open
//! breaker always recovers once its site does, and healthy (Closed)
//! sites are never probed.

use ntc_check::prelude::*;

use ntc_faults::health::{
    Admission, BreakerState, HealthConfig, SiteHealth, COOLDOWN_CAP, FAILURE_THRESHOLD,
};
use ntc_simcore::rng::RngStream;
use ntc_simcore::units::{SimDuration, SimTime};

fn config() -> HealthConfig {
    HealthConfig { breakers: true, admission: true, hedge: true, ..HealthConfig::disabled() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// However the breaker was tripped (any run of failures), once the
    /// site recovers — every probe from now on succeeds — the breaker
    /// reaches Closed again in a bounded number of cooldown cycles. It
    /// never stays Open forever.
    #[test]
    fn breaker_never_stays_open_under_a_recovering_site(
        seed in 0u64..1024,
        failures in 1u32..64,
    ) {
        let mut h = SiteHealth::new("edge", config());
        let rng = RngStream::root(seed).derive("health");

        // Arbitrary outage: hammer the site with at least enough
        // consecutive failures to trip whichever threshold binds first.
        let mut t = SimTime::ZERO;
        for _ in 0..failures.max(FAILURE_THRESHOLD) {
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
            t += COOLDOWN_CAP;
            match h.check(t) {
                Admission::Probe => h.record_success(SimDuration::from_secs(1)),
                Admission::Ready => {}
                Admission::Unavailable => prop_assert!(
                    false,
                    "breaker unavailable a full COOLDOWN_CAP after opening at {t}"
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
    /// traffic only, whatever failures and successes they absorb (and
    /// however often the breaker trips and recovers in between). A site
    /// that fails at most once in four observations never trips at all.
    #[test]
    fn closed_sites_are_never_probed(
        seed in 0u64..1024,
        pattern in 0u64..u64::MAX,
        steps in 1u32..200,
        sparse in any::<bool>(),
    ) {
        let mut h = SiteHealth::new("cloud", config());
        let rng = RngStream::root(seed).derive("health");

        let mut t = SimTime::ZERO;
        for i in 0..steps {
            let closed = h.state() == BreakerState::Closed;
            let adm = h.check(t);
            prop_assert!(
                !closed || adm == Admission::Ready,
                "closed site answered {:?} at step {}", adm, i
            );
            let fails = (pattern >> (i % 64)) & 1 == 1 && (!sparse || i % 4 == 0);
            if fails {
                h.record_failure(t, &rng);
            } else {
                h.record_success(SimDuration::from_secs(2));
            }
            t += SimDuration::from_secs(30);
        }
        if sparse {
            prop_assert_eq!(h.transitions(), 0, "a sparsely failing site transitions never");
        }
    }
}
