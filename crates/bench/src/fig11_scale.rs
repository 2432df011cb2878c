//! **Figure 11** — The million-user scale run: latency and deadline
//! misses vs user population.
//!
//! A metro population of `users` devices each emitting delay-tolerant
//! log-analytics jobs at a fixed per-user rate, so the aggregate arrival
//! rate — and with it the job count — scales linearly with the
//! population, from ten thousand to one million users under CloudAll and
//! EdgeAll. Every point runs in [`JobRetention::Aggregates`] mode: jobs
//! fold into streaming `RunAggregates` at completion and no per-job
//! vector is kept, so the result-side memory stays constant while the job
//! count grows by two orders of magnitude. The report holds only the
//! seeded rows; each point's wall-clock seconds, simulated jobs per
//! wall-clock second and resident memory (current and peak, from
//! `/proc/self/status`) go to stderr, since they describe the host.
//!
//! Points run serially — each wall-clock figure times exactly one run —
//! so [`run`] ignores its thread count; [`rows`], the same sweep fanned
//! out, is public so the determinism test can check that the rows do not
//! depend on the thread count.

use std::time::Instant;

use crate::{f3, pct, Report, Table};
use ntc_core::{run_sweep_with, Engine, Environment, JobRetention, OffloadPolicy, RunScratch};
use ntc_json::ToJson;
use ntc_simcore::units::SimDuration;
use ntc_workloads::{Archetype, StreamSpec};

/// Jobs per simulated second each user contributes. At the sweep's
/// 30-minute horizon this puts the million-user point at ~3.6 M jobs —
/// two orders of magnitude past what the retained-mode experiments
/// carry.
const PER_USER_RATE: f64 = 0.002;

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
fn policies() -> [OffloadPolicy; 2] {
    [OffloadPolicy::CloudAll, OffloadPolicy::EdgeAll]
}

/// The user populations swept, ending at the million-user point.
const USER_COUNTS: [u64; 4] = [10_000, 100_000, 300_000, 1_000_000];

/// Horizon of one run.
const HORIZON: SimDuration = SimDuration::from_mins(30);

/// The traffic `users` devices generate: one aggregate log-analytics
/// stream at the population's pooled rate. Tight slack (5 % of the
/// archetype deadline) keeps the miss-rate column informative at scale —
/// at the default slack neither backend ever misses and the comparison
/// degenerates.
fn specs(users: u64) -> [StreamSpec; 1] {
    [StreamSpec::poisson(Archetype::LogAnalytics, users as f64 * PER_USER_RATE)
        .with_slack_factor(0.05)]
}

/// Runs one (users, policy) point under streaming aggregation and
/// reduces it to a row. Shared by [`rows`] and [`run`]'s serially-timed
/// measurement loop.
fn run_point(
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

/// Reads a `kB`-valued field from `/proc/self/status` as MiB, or `n/a`
/// off-Linux.
fn proc_status_mib(field: &str) -> String {
    let kb = std::fs::read_to_string("/proc/self/status").ok().and_then(|status| {
        let line = status.lines().find(|l| l.starts_with(field))?;
        line.split_whitespace().nth(1)?.parse::<f64>().ok()
    });
    kb.map_or("n/a".into(), |kb| format!("{:.0}", kb / 1024.0))
}

/// Runs the experiment at `seed`, one point at a time.
pub fn run(seed: u64, _threads: usize) -> Report {
    // One scratch reused across every point: steady-state memory, the
    // same way long sweeps run. Points run in ascending size, so the
    // last peak reading is the experiment's peak.
    let mut scratch = RunScratch::new();
    let mut series: Vec<ScaleRow> = Vec::new();
    for users in USER_COUNTS {
        for policy in &policies() {
            let start = Instant::now();
            let row = run_point(seed, users, policy, HORIZON, &mut scratch);
            let wall = start.elapsed().as_secs_f64();
            eprintln!(
                "host: {users} users {}: {}s wall, {:.0} jobs/s, rss {} MiB, peak {} MiB",
                row.policy,
                f3(wall),
                row.jobs as f64 / wall,
                proc_status_mib("VmRSS:"),
                proc_status_mib("VmHWM:"),
            );
            series.push(row);
        }
    }

    let mut table = Table::new(["users", "policy", "jobs", "p95", "miss rate", "failures"]);
    for r in &series {
        table.row([
            r.users.to_string(),
            r.policy.clone(),
            r.jobs.to_string(),
            format!("{}s", f3(r.p95_s)),
            pct(r.miss_rate),
            r.failures.to_string(),
        ]);
    }

    let mut out = format!("Figure 11 — scale sweep over {HORIZON} (seed {seed})\n\n");
    out.push_str(&table.render());
    outln!(out);
    let last = series.last().expect("non-empty sweep");
    let first = series.first().expect("non-empty sweep");
    // What Full retention would have pinned at the largest point, on top
    // of the summary-side vectors it re-collects: the per-job vector the
    // Aggregates knob never allocates. The remaining RSS growth above is
    // the arrival stream and batch state the engine materialises up
    // front in either mode.
    let retained_mib =
        last.jobs as f64 * std::mem::size_of::<ntc_core::JobResult>() as f64 / (1024.0 * 1024.0);
    outln!(
        out,
        "shape: {}x the jobs ({} -> {}) through a constant-size metrics sketch; \
         Full retention would add {:.0} MiB of JobResults at the largest point",
        last.jobs / first.jobs.max(1),
        first.jobs,
        last.jobs,
        retained_mib,
    );
    Report::new(out, &series)
}
