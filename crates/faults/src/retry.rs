//! Retry backoff: how long a patient caller waits before trying again.

use ntc_simcore::rng::{Key, RngStream};
use ntc_simcore::units::SimDuration;

/// Minimum (and first) backoff.
pub const BACKOFF_BASE: SimDuration = SimDuration::from_secs(2);

/// Upper bound any single backoff can reach.
pub const BACKOFF_CAP: SimDuration = SimDuration::from_mins(5);

/// The backoff to wait before retry number `attempt` (1-based: the wait
/// after the first failed attempt is `attempt = 1`): capped exponential
/// backoff with decorrelated jitter, drawn uniformly from
/// `[BACKOFF_BASE, min(BACKOFF_CAP, BACKOFF_BASE·3^attempt)]`.
///
/// Deterministic in `(rng seed, key, attempt)`: the draw comes from the
/// child stream `backoff-{key}-a{attempt}`, derived from the key's
/// spelling, so the schedule is independent of everything else the
/// simulation draws and retried runs replay bit-identically.
///
/// # Panics
///
/// Panics if `attempt` is zero.
pub fn backoff(rng: &RngStream, key: impl Key, attempt: u32) -> SimDuration {
    assert!(attempt > 0, "attempt numbering is 1-based");
    let (base_us, cap_us) = (BACKOFF_BASE.as_micros(), BACKOFF_CAP.as_micros());
    // 3^k, saturating: past ~40 steps everything hits the cap.
    let hi = base_us.saturating_mul(3u64.saturating_pow(attempt.min(40))).min(cap_us);
    let mut r = rng.derive(("backoff-", key, "-a", attempt));
    SimDuration::from_micros(r.uniform_range(base_us, hi + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> RngStream {
        RngStream::root(seed).derive("retry")
    }

    /// Same seed ⇒ identical attempt times.
    #[test]
    fn backoff_schedule_is_deterministic_per_seed() {
        let a: Vec<SimDuration> = (1..=10).map(|k| backoff(&rng(9), "b0-c1", k)).collect();
        let b: Vec<SimDuration> = (1..=10).map(|k| backoff(&rng(9), "b0-c1", k)).collect();
        assert_eq!(a, b, "same seed must replay the same schedule");
        let c: Vec<SimDuration> = (1..=10).map(|k| backoff(&rng(10), "b0-c1", k)).collect();
        assert_ne!(a, c, "a different seed must jitter differently");
    }

    #[test]
    fn backoff_is_position_independent() {
        let r = rng(5);
        // Interleave queries for two keys: each key's schedule must match
        // the schedule obtained by querying it alone.
        let alone: Vec<SimDuration> = (1..=5).map(|k| backoff(&rng(5), "x", k)).collect();
        let mut interleaved = Vec::new();
        for k in 1..=5 {
            let _ = backoff(&r, "y", k);
            interleaved.push(backoff(&r, "x", k));
        }
        assert_eq!(alone, interleaved);
    }

    #[test]
    fn backoff_respects_base_and_cap() {
        assert_eq!(
            (BACKOFF_BASE, BACKOFF_CAP),
            (SimDuration::from_secs(2), SimDuration::from_mins(5))
        );
        for k in 1..=50 {
            let b = backoff(&rng(3), "k", k);
            assert!(b >= BACKOFF_BASE, "attempt {k}: {b} below base");
            assert!(b <= BACKOFF_CAP, "attempt {k}: {b} above cap");
        }
    }

    /// The window's upper end is `2 s·3^k` until the 5 min cap binds at
    /// the fifth retry: the largest of many draws approaches it.
    #[test]
    fn backoff_window_grows_with_attempts() {
        let max_at = |attempt: u32| {
            (0..200).map(|i| backoff(&rng(100 + i), "g", attempt)).max().expect("non-empty")
        };
        for (attempt, hi_s) in [(1, 6), (2, 18), (3, 54), (4, 162), (5, 300), (9, 300)] {
            let max = max_at(attempt);
            assert!(max <= SimDuration::from_secs(hi_s), "attempt {attempt}: {max}");
            assert!(max >= SimDuration::from_secs(hi_s).mul_f64(0.95), "attempt {attempt}: {max}");
        }
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn attempt_zero_is_rejected() {
        let _ = backoff(&rng(1), "k", 0);
    }

    /// Known answers for the `backoff-{key}-a{attempt}` stream, recorded
    /// from the formatted labels this key spells: a respelled key fails
    /// here by name.
    #[test]
    fn backoffs_draw_from_the_key_and_attempt_stream() {
        let us: Vec<u64> = (1..=4).map(|k| backoff(&rng(9), "b0-c1", k).as_micros()).collect();
        assert_eq!(us, [5_563_943, 16_006_720, 23_583_961, 123_241_766]);
    }
}
