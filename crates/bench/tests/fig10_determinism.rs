//! Thread-count invariance of the Figure 10 overload sweep: the rows —
//! goodput, miss rates, shed/defer/hedge counters, breaker transitions —
//! must be bit-identical whether the sweep runs on one worker or eight.
//! This is the experiment-level witness of the engine contract that the
//! health layer draws all its randomness from derived streams keyed by
//! point identity, never from sweep scheduling.

use ntc_bench::fig10_overload;
use ntc_simcore::units::SimDuration;

#[test]
fn fig10_rows_are_identical_across_thread_counts() {
    let horizon = SimDuration::from_hours(2);
    let multipliers = [1.0, 3.0];
    let one = fig10_overload::rows(42, horizon, &multipliers, 1);
    let eight = fig10_overload::rows(42, horizon, &multipliers, 8);
    assert_eq!(one.len(), eight.len());
    for (a, b) in one.iter().zip(&eight) {
        assert_eq!(a, b, "row diverged between 1 and 8 sweep threads");
    }
}
