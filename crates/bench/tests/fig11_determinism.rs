//! Thread-count invariance of the Figure 11 scale sweep: the rows —
//! job counts, latency digest quantiles, miss rates, failures — must be
//! bit-identical whether the sweep runs on one worker or eight. This is
//! the experiment-level witness that `JobRetention::Aggregates` changes
//! only what the engine *retains*, never what it computes: the streaming
//! accumulator folds jobs in completion order inside each run, so sweep
//! scheduling cannot reorder anything it sees.

use ntc_bench::fig11_scale;
use ntc_simcore::units::SimDuration;

#[test]
fn fig11_rows_are_identical_across_thread_counts() {
    // A third of the figure's horizon and a fiftieth of its populations,
    // so the test stays CI-fast while exercising the real sweep path.
    let horizon = SimDuration::from_mins(10);
    let users = [5_000, 20_000];
    let one = fig11_scale::rows(42, &users, horizon, 1);
    let eight = fig11_scale::rows(42, &users, horizon, 8);
    assert_eq!(one.len(), eight.len());
    for (a, b) in one.iter().zip(&eight) {
        assert_eq!(a, b, "row diverged between 1 and 8 sweep threads");
    }
}
