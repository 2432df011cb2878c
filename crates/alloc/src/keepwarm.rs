//! Cold-start mitigation strategies and the choice between them
//! (Figure 2 of the reconstructed evaluation).

use core::fmt;

use ntc_simcore::units::SimDuration;

/// A strategy for keeping latency tails down between sporadic arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmStrategy {
    /// Rely on the platform's own keep-alive only (free, cold tail when
    /// arrivals are sparser than the keep-alive TTL).
    PlatformOnly,
    /// Fire a tiny "warmer" ping every `period` so the platform keep-alive
    /// never lapses. Costs one minimal invocation per period.
    Warmer {
        /// Ping interval; must be shorter than the platform TTL to help.
        period: SimDuration,
    },
    /// Buy `count` provisioned always-warm instances.
    Provisioned {
        /// Number of instances held warm.
        count: u32,
    },
}

impl fmt::Display for WarmStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarmStrategy::PlatformOnly => f.write_str("platform-only"),
            WarmStrategy::Warmer { period } => write!(f, "warmer({period})"),
            WarmStrategy::Provisioned { count } => write!(f, "provisioned({count})"),
        }
    }
}

/// Recommends a strategy for a function with mean inter-arrival time
/// `interarrival`, platform keep-alive `ttl`, and a target that cold
/// starts stay rare.
///
/// * arrivals denser than the TTL → the platform keeps things warm for
///   free;
/// * moderately sparse arrivals → a warmer ping just under the TTL;
/// * very sparse arrivals where even pinging costs more than the rare
///   cold start hurts → accept the cold start (platform-only).
pub fn recommend(interarrival: SimDuration, ttl: SimDuration) -> WarmStrategy {
    if ttl.is_zero() {
        // Platform reaps instantly: only provisioning keeps anything warm.
        return WarmStrategy::Provisioned { count: 1 };
    }
    if interarrival <= ttl {
        return WarmStrategy::PlatformOnly;
    }
    // Ping at 90 % of the TTL. Beyond ~100× the TTL the traffic is so rare
    // that warming is wasted money — accept the cold start.
    if interarrival > ttl.mul_f64(100.0) {
        WarmStrategy::PlatformOnly
    } else {
        WarmStrategy::Warmer { period: ttl.mul_f64(0.9) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TTL: SimDuration = SimDuration::from_mins(10);

    #[test]
    fn dense_traffic_needs_nothing() {
        assert_eq!(recommend(SimDuration::from_secs(30), TTL), WarmStrategy::PlatformOnly);
        assert_eq!(recommend(TTL, TTL), WarmStrategy::PlatformOnly);
    }

    #[test]
    fn sparse_traffic_gets_a_warmer() {
        let s = recommend(SimDuration::from_mins(45), TTL);
        match s {
            WarmStrategy::Warmer { period } => assert!(period < TTL),
            other => panic!("expected warmer, got {other}"),
        }
    }

    #[test]
    fn ultra_sparse_traffic_accepts_cold_starts() {
        assert_eq!(recommend(SimDuration::from_hours(100), TTL), WarmStrategy::PlatformOnly);
    }

    #[test]
    fn zero_ttl_requires_provisioning() {
        assert_eq!(
            recommend(SimDuration::from_secs(1), SimDuration::ZERO),
            WarmStrategy::Provisioned { count: 1 }
        );
    }
}
