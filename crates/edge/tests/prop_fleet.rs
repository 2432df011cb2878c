//! Property-based tests of the edge fleet's capacity and accounting
//! invariants.

use ntc_check::prelude::*;

use ntc_edge::{EdgeConfig, EdgeFleet};
use ntc_simcore::units::{Cycles, DataSize, Money, SimDuration, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// At most `slots` jobs can overlap in time: for any instant the
    /// number of in-flight invocations never exceeds fleet capacity.
    #[test]
    fn slot_capacity_is_never_exceeded(
        servers in 1u32..4,
        slots in 1u32..4,
        n in 1usize..50,
        gap_ms in 0u64..5_000,
        work_giga in 1u64..60,
    ) {
        let mut fleet = EdgeFleet::new(EdgeConfig { servers, slots_per_server: slots, ..Default::default() });
        let svc = fleet.register();
        fleet.install(SimTime::ZERO, svc, DataSize::from_mib(1));
        let mut t = SimTime::from_secs(1);
        let mut intervals: Vec<(SimTime, SimTime)> = Vec::new();
        for _ in 0..n {
            let out = fleet.invoke(t, svc, Cycles::from_giga(work_giga)).unwrap();
            let start = out.submitted + out.queue_wait;
            intervals.push((start, out.finish));
            t += SimDuration::from_millis(gap_ms);
        }
        let cap = (servers * slots) as usize;
        for &(probe, _) in &intervals {
            let overlapping = intervals.iter().filter(|&&(s, f)| s <= probe && probe < f).count();
            prop_assert!(overlapping <= cap, "{overlapping} jobs in flight with {cap} slots");
        }
    }

    /// Queue waits are zero while the fleet has a free slot and execution
    /// never shrinks below the work/clock quotient.
    #[test]
    fn exec_time_matches_clock(work_giga in 1u64..200) {
        let mut fleet = EdgeFleet::new(EdgeConfig::default());
        let svc = fleet.register();
        fleet.install(SimTime::ZERO, svc, DataSize::from_mib(1));
        let out = fleet.invoke(SimTime::from_secs(1), svc, Cycles::from_giga(work_giga)).unwrap();
        let expected = fleet.config().clock.execution_time(Cycles::from_giga(work_giga));
        prop_assert_eq!(out.exec, expected);
        prop_assert!(out.queue_wait.is_zero());
    }

    /// Infrastructure cost is linear in time and server count, whatever
    /// the fleet ran.
    #[test]
    fn cost_and_utilisation_are_bounded(
        servers in 1u32..16,
        hours in 1u64..100,
        n in 0usize..30,
    ) {
        let mut fleet =
            EdgeFleet::new(EdgeConfig { servers, slots_per_server: 2, ..Default::default() });
        let svc = fleet.register();
        fleet.install(SimTime::ZERO, svc, DataSize::from_mib(1));
        let mut t = SimTime::from_secs(10);
        for _ in 0..n {
            fleet.invoke(t, svc, Cycles::from_giga(10)).unwrap();
            t += SimDuration::from_secs(30);
        }
        let until = SimTime::from_secs(hours * 3600);
        let cost = fleet.infrastructure_cost(until);
        let per_server_hour = Money::from_usd_f64(0.35);
        let expected = per_server_hour.mul_f64((hours * u64::from(servers)) as f64);
        prop_assert!((cost.as_nano_usd() - expected.as_nano_usd()).abs() <= 1);
    }
}
