//! Property-based tests of the periodic traces: `is_online`,
//! `next_online` and `share_at` agree with a linear scan of the segment
//! list at random instants, at every segment boundary and across period
//! wraps.

use std::collections::BTreeSet;

use ntc_check::prelude::*;

use ntc_net::{BandwidthTrace, ConnectivityTrace};
use ntc_simcore::units::{SimDuration, SimTime};

/// Segment offsets in µs: zero, then one per cut, a cut being a
/// millionth of the period. A period of at least one second keeps
/// distinct cuts distinct and every offset inside the period.
fn offsets(period_us: u64, cuts: &BTreeSet<u64>) -> Vec<u64> {
    std::iter::once(0).chain(cuts.iter().map(|&c| period_us / 1_000_000 * c)).collect()
}

/// The value of the last segment starting at or before `at`'s offset.
fn scan<T: Copy>(period_us: u64, segments: &[(u64, T)], at: u64) -> T {
    let offset = at % period_us;
    segments.iter().rev().find(|&&(o, _)| o <= offset).expect("first segment at zero").1
}

/// `at` itself when online, else the next online segment's start,
/// walking this period's segments and then the next period's.
fn scan_next_online(period_us: u64, segments: &[(u64, bool)], at: u64) -> u64 {
    if scan(period_us, segments, at) {
        return at;
    }
    let cycle = at - at % period_us;
    [cycle, cycle + period_us]
        .iter()
        .flat_map(|&c| segments.iter().map(move |&(o, on)| (c + o, on)))
        .find(|&(start, on)| on && start > at)
        .expect("some segment is online")
        .0
}

/// `segments` with their offsets as durations.
fn segments<T: Copy>(segments: &[(u64, T)]) -> Vec<(SimDuration, T)> {
    segments.iter().map(|&(o, x)| (SimDuration::from_micros(o), x)).collect()
}

/// Random instants, plus each segment start and the instant before it,
/// in the first period and in `far_cycle`.
fn instants(period_us: u64, offsets: &[u64], random: &[u64], far_cycle: u64) -> Vec<u64> {
    let mut out: Vec<u64> = random.iter().map(|r| r % (period_us * 1_000)).collect();
    for cycle in [0, 1, far_cycle] {
        let base = cycle * period_us;
        // Offset zero is the wrap: its instant before is the end of the
        // previous period.
        for &o in offsets.iter().chain([period_us].iter()) {
            out.push(base + o);
            if base + o > 0 {
                out.push(base + o - 1);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn traces_agree_with_a_linear_scan(
        period_us in 1_000_000u64..100_000_000_000,
        cuts in prop::collection::btree_set(1u64..1_000_000, 0..12),
        values in prop::collection::vec((any::<bool>(), 1u64..=1_000), 12..13),
        random in prop::collection::vec(any::<u64>(), 32..33),
        far_cycle in 2u64..1_000_000,
    ) {
        let offsets = offsets(period_us, &cuts);
        let online: Vec<(u64, bool)> =
            offsets.iter().zip(&values).map(|(&o, &(on, _))| (o, on)).collect();
        let shares: Vec<(u64, f64)> =
            offsets.iter().zip(&values).map(|(&o, &(_, s))| (o, s as f64 / 1_000.0)).collect();
        let period = SimDuration::from_micros(period_us);
        let connectivity = ConnectivityTrace::new(period, segments(&online));
        let bandwidth = BandwidthTrace::new(period, segments(&shares));
        prop_assert_eq!(connectivity.period(), period);
        prop_assert_eq!(bandwidth.period(), period);
        let ever_online = online.iter().any(|&(_, on)| on);

        for at_us in instants(period_us, &offsets, &random, far_cycle) {
            let at = SimTime::from_micros(at_us);
            prop_assert_eq!(connectivity.is_online(at), scan(period_us, &online, at_us), "at {}", at_us);
            prop_assert_eq!(bandwidth.share_at(at), scan(period_us, &shares, at_us), "at {}", at_us);
            if ever_online {
                prop_assert_eq!(
                    connectivity.next_online(at),
                    SimTime::from_micros(scan_next_online(period_us, &online, at_us)),
                    "at {}",
                    at_us
                );
            }
        }
    }
}
