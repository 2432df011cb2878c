//! Retry policies: how long to back off and when to give up.

use ntc_simcore::rng::{Key, RngStream};
use ntc_simcore::units::SimDuration;

/// Capped exponential backoff with decorrelated jitter.
///
/// The backoff before retry `k` (1-based) is drawn uniformly from
/// `[base, min(cap, base·3^k)]`, each draw from its own derived stream,
/// so the schedule is deterministic per `(seed, key, attempt)` and
/// independent of everything else the simulation draws — retried runs
/// replay bit-identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Minimum (and first) backoff.
    pub base: SimDuration,
    /// Upper bound any single backoff can reach.
    pub cap: SimDuration,
    /// Maximum number of attempts, including the first (`>= 1`): 1 never
    /// retries (the time-critical baselines), `u32::MAX` waits failures
    /// out (the NTC stance).
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// No retries at all: one attempt, terminal on failure.
    pub fn none() -> Self {
        RetryPolicy { base: SimDuration::ZERO, cap: SimDuration::ZERO, max_attempts: 1 }
    }

    /// The NTC default: effectively unlimited patient retries, backing
    /// off from 2 s up to 5 min.
    pub fn ntc_default() -> Self {
        RetryPolicy {
            base: SimDuration::from_secs(2),
            cap: SimDuration::from_mins(5),
            max_attempts: u32::MAX,
        }
    }

    /// The backoff to wait before retry number `attempt` (1-based: the
    /// wait after the first failed attempt is `attempt = 1`).
    ///
    /// Deterministic in `(rng seed, key, attempt)`: the draw comes from
    /// the child stream `backoff-{key}-a{attempt}`, derived from the
    /// key's spelling.
    ///
    /// # Panics
    ///
    /// Panics if `attempt` is zero.
    pub fn backoff(&self, rng: &RngStream, key: impl Key, attempt: u32) -> SimDuration {
        assert!(attempt > 0, "attempt numbering is 1-based");
        let base_us = self.base.as_micros();
        let cap_us = self.cap.as_micros().max(base_us);
        if cap_us == 0 {
            return SimDuration::ZERO;
        }
        // 3^k, saturating: past ~40 doublings everything hits the cap.
        let growth = 3u64.saturating_pow(attempt.min(40));
        let hi = base_us.max(1).saturating_mul(growth).min(cap_us);
        let mut r = rng.derive(("backoff-", key, "-a", attempt));
        SimDuration::from_micros(r.uniform_range(base_us, hi + 1))
    }

    /// Whether another attempt may be made, given that `attempts_made`
    /// attempts already ran.
    pub fn allows(&self, attempts_made: u32) -> bool {
        attempts_made < self.max_attempts
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> RngStream {
        RngStream::root(seed).derive("retry")
    }

    /// Satellite requirement: same seed ⇒ identical attempt times.
    #[test]
    fn backoff_schedule_is_deterministic_per_seed() {
        let p = RetryPolicy::ntc_default();
        let a: Vec<SimDuration> = (1..=10).map(|k| p.backoff(&rng(9), "b0-c1", k)).collect();
        let b: Vec<SimDuration> = (1..=10).map(|k| p.backoff(&rng(9), "b0-c1", k)).collect();
        assert_eq!(a, b, "same seed must replay the same schedule");
        let c: Vec<SimDuration> = (1..=10).map(|k| p.backoff(&rng(10), "b0-c1", k)).collect();
        assert_ne!(a, c, "a different seed must jitter differently");
    }

    #[test]
    fn backoff_is_position_independent() {
        let p = RetryPolicy::ntc_default();
        let r = rng(5);
        // Interleave queries for two keys: each key's schedule must match
        // the schedule obtained by querying it alone.
        let alone: Vec<SimDuration> = (1..=5).map(|k| p.backoff(&rng(5), "x", k)).collect();
        let mut interleaved = Vec::new();
        for k in 1..=5 {
            let _ = p.backoff(&r, "y", k);
            interleaved.push(p.backoff(&r, "x", k));
        }
        assert_eq!(alone, interleaved);
    }

    #[test]
    fn backoff_respects_base_and_cap() {
        let p = RetryPolicy {
            base: SimDuration::from_secs(2),
            cap: SimDuration::from_secs(60),
            max_attempts: u32::MAX,
        };
        for k in 1..=50 {
            let b = p.backoff(&rng(3), "k", k);
            assert!(b >= p.base, "attempt {k}: {b} below base");
            assert!(b <= p.cap, "attempt {k}: {b} above cap");
        }
    }

    #[test]
    fn backoff_window_grows_with_attempts() {
        // With a huge cap, the upper bound of the jitter window grows
        // geometrically; the empirical max over many draws must grow too.
        let p = RetryPolicy {
            base: SimDuration::from_secs(1),
            cap: SimDuration::from_hours(10),
            max_attempts: u32::MAX,
        };
        let max_at = |attempt: u32| {
            (0..200).map(|i| p.backoff(&rng(100 + i), "g", attempt)).max().expect("non-empty")
        };
        assert!(max_at(6) > max_at(1) * 10);
    }

    #[test]
    fn zero_cap_means_zero_backoff() {
        let p = RetryPolicy::none();
        assert_eq!(p.backoff(&rng(1), "k", 1), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn attempt_zero_is_rejected() {
        let _ = RetryPolicy::ntc_default().backoff(&rng(1), "k", 0);
    }

    #[test]
    fn budget_none_never_allows() {
        let p = RetryPolicy::none();
        assert!(!p.allows(1));
    }

    #[test]
    fn budget_unbounded_respects_only_the_attempt_cap() {
        let p = RetryPolicy { max_attempts: 3, ..RetryPolicy::ntc_default() };
        assert!(p.allows(1));
        assert!(p.allows(2));
        assert!(!p.allows(3), "attempt cap must bind");
        assert!(RetryPolicy::ntc_default().allows(u32::MAX - 1));
    }

    /// Known answers for the `backoff-{key}-a{attempt}` stream, recorded
    /// from the formatted labels this key spells: a respelled key fails
    /// here by name.
    #[test]
    fn backoffs_draw_from_the_key_and_attempt_stream() {
        let p = RetryPolicy::ntc_default();
        let us: Vec<u64> = (1..=4).map(|k| p.backoff(&rng(9), "b0-c1", k).as_micros()).collect();
        assert_eq!(us, [5_563_943, 16_006_720, 23_583_961, 123_241_766]);
    }
}
