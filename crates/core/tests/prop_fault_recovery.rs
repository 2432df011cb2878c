//! Property-based tests of the fault-recovery invariants: for any fault
//! plan short of total failure, a patiently retrying NTC policy loses no
//! jobs, and its retry accounting stays physically consistent.

use ntc_check::prelude::*;

use ntc_core::{Engine, Environment, FaultConfig, OffloadPolicy};
use ntc_simcore::units::SimDuration;
use ntc_workloads::{Archetype, StreamSpec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any transient/throttle fault rate below 1.0, met by the default
    /// NTC policy's patient retries, yields zero NTC job loss; every job makes
    /// at least one attempt; and backoff time fits inside the job's
    /// dispatch-to-finish span.
    #[test]
    fn unbounded_retries_absorb_any_partial_fault_rate(
        transient in 0.0f64..0.6,
        throttle in 0.0f64..0.3,
        drop_rate in 0.0f64..0.5,
        seed in 0u64..32,
    ) {
        let mut env = Environment::metro_reference();
        env.faults = FaultConfig {
            transient_rate: transient,
            throttle_rate: throttle,
            transfer_drop_rate: drop_rate,
            ..FaultConfig::none()
        };
        let policy = OffloadPolicy::ntc();
        let specs = [StreamSpec::poisson(Archetype::LogAnalytics, 0.01)];
        let engine = Engine::new(env, seed);
        let r = engine.run(&policy, &specs, SimDuration::from_hours(2));

        prop_assert_eq!(r.failures(), 0, "lost jobs at rate {}+{}", transient, throttle);
        for j in &r.jobs {
            prop_assert!(j.attempts >= 1, "job {} made no attempts", j.id);
            prop_assert!(
                j.backoff <= j.finish.saturating_duration_since(j.dispatched),
                "job {} backoff {} exceeds its {}..{} execution span",
                j.id, j.backoff, j.dispatched, j.finish
            );
            prop_assert!(j.cause.is_none());
        }
    }
}
