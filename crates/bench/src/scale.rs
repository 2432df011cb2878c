//! Shared sweep core of the **Figure 11** scale experiment.
//!
//! Lives in the library (rather than the `fig11_scale` binary) so the
//! determinism integration test can run the exact sweep the figure is
//! built from at different thread counts and compare rows.
//!
//! The scenario: a metro population of `users` devices each emitting
//! delay-tolerant log-analytics jobs at a fixed per-user rate, so the
//! aggregate arrival rate — and with it the job count — scales linearly
//! with the population. CloudAll and EdgeAll both serve every point of
//! the sweep. Every run uses [`JobRetention::Aggregates`]: the engine
//! folds each job into streaming `RunAggregates` at completion time and
//! retains no per-job vector, which is what lets the million-user point
//! fit in constant result-side memory. The rows below are a pure function
//! of the seed; the binary reports each point's wall-clock time and
//! resident memory on stderr, outside the committed results.

use ntc_core::{run_sweep_with, Engine, Environment, JobRetention, OffloadPolicy, RunScratch};
use ntc_json::ToJson;
use ntc_simcore::units::SimDuration;
use ntc_workloads::{Archetype, StreamSpec};

/// Jobs per simulated second each user contributes. At the sweep's
/// 30-minute horizon this puts the million-user point at ~3.6 M jobs —
/// two orders of magnitude past what the retained-mode experiments
/// carry.
pub const PER_USER_RATE: f64 = 0.002;

/// One measured (users, policy) cell of Figure 11.
#[derive(Debug, Clone, PartialEq, ToJson)]
pub struct ScaleRow {
    /// Simulated user population.
    pub users: u64,
    /// Policy label (`cloud-all` / `edge-all`).
    pub policy: String,
    /// Jobs arrived within the horizon.
    pub jobs: u64,
    /// Mean end-to-end latency, seconds.
    pub mean_latency_s: f64,
    /// Median latency, seconds (histogram bucket bound).
    pub p50_s: f64,
    /// 95th-percentile latency, seconds (histogram bucket bound).
    pub p95_s: f64,
    /// 99th-percentile latency, seconds (histogram bucket bound).
    pub p99_s: f64,
    /// Deadline-miss fraction.
    pub miss_rate: f64,
    /// Jobs that terminally failed.
    pub failures: u64,
}

/// The policies compared at every population size, in plot order.
pub fn policies() -> [OffloadPolicy; 2] {
    [OffloadPolicy::CloudAll, OffloadPolicy::EdgeAll]
}

/// The user populations swept, ending at the million-user point.
pub const USER_COUNTS: [u64; 4] = [10_000, 100_000, 300_000, 1_000_000];

/// Horizon of one run.
pub const HORIZON: SimDuration = SimDuration::from_mins(30);

/// The traffic `users` devices generate: one aggregate log-analytics
/// stream at the population's pooled rate. Tight slack (5 % of the
/// archetype deadline) keeps the miss-rate column informative at scale —
/// at the default slack neither backend ever misses and the comparison
/// degenerates.
pub fn specs(users: u64) -> [StreamSpec; 1] {
    [StreamSpec::poisson(Archetype::LogAnalytics, users as f64 * PER_USER_RATE)
        .with_slack_factor(0.05)]
}

/// Runs one (users, policy) point under streaming aggregation and
/// reduces it to a row. Shared by the sweep below and the binary's
/// serially-timed measurement loop.
pub fn run_point(
    seed: u64,
    users: u64,
    policy: &OffloadPolicy,
    horizon: SimDuration,
    scratch: &mut RunScratch,
) -> ScaleRow {
    let engine = Engine::new(Environment::metro_reference(), seed);
    let r = engine.run_retained(
        seed,
        policy,
        &specs(users),
        horizon,
        scratch,
        JobRetention::Aggregates,
    );
    let lat = r.latency_summary();
    ScaleRow {
        users,
        policy: policy.name(),
        jobs: r.job_count(),
        mean_latency_s: lat.map_or(0.0, |s| s.mean),
        p50_s: lat.map_or(0.0, |s| s.p50),
        p95_s: lat.map_or(0.0, |s| s.p95),
        p99_s: lat.map_or(0.0, |s| s.p99),
        miss_rate: r.miss_rate(),
        failures: r.failures(),
    }
}

/// Runs the full (users × policy) grid on `threads` workers and returns
/// the rows in grid order. Deterministic in `(seed, horizon, users)` and
/// — by the sweep contract — independent of `threads`.
pub fn rows(seed: u64, users: &[u64], horizon: SimDuration, threads: usize) -> Vec<ScaleRow> {
    let policies = policies();
    let grid: Vec<(u64, &OffloadPolicy)> =
        users.iter().flat_map(|&u| policies.iter().map(move |p| (u, p))).collect();
    run_sweep_with(&grid, threads, RunScratch::new, |scratch, &(u, policy), _| {
        run_point(seed, u, policy, horizon, scratch)
    })
}
