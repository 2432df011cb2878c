//! **Figure 9** — Fault tolerance of NTC offloading (robustness
//! extension).
//!
//! A mixed archetype stream over a sweep of transient-fault rates.
//! Expectation (DESIGN.md §Fault model & recovery): the latency-critical
//! baselines treat the first failure as final, so their job loss tracks
//! the fault rate; the NTC policy absorbs the same faults with patient
//! retries and backend fallback, completing essentially every job at the
//! price of extra attempts and backoff time — delay tolerance buys
//! robustness, not just cheap latency.

use crate::{f3, pct, Report, Table};
use ntc_core::{
    run_sweep_with, Engine, Environment, FailureCause, FaultConfig, JobRetention, NtcConfig,
    OffloadPolicy, RunScratch,
};
use ntc_json::ToJson;
use ntc_simcore::units::SimDuration;
use ntc_workloads::{Archetype, StreamSpec};

#[derive(Debug, ToJson)]
struct Row {
    policy: String,
    fault_rate: f64,
    jobs: usize,
    failures: u64,
    loss_rate: f64,
    total_retries: u64,
    total_fallbacks: u64,
    mean_attempts: f64,
    backoff_s: f64,
    miss_rate: f64,
    total_cost_usd: f64,
}

/// Runs the experiment at `seed` on `threads` sweep workers.
pub fn run(seed: u64, threads: usize) -> Report {
    let horizon = SimDuration::from_hours(12);
    let rates = [0.0, 0.05, 0.10, 0.20, 0.30];

    let specs = [
        StreamSpec::poisson(Archetype::PhotoPipeline, 0.01),
        StreamSpec::poisson(Archetype::ReportRendering, 0.004),
        StreamSpec::poisson(Archetype::MlInference, 0.008),
        StreamSpec::poisson(Archetype::LogAnalytics, 0.006),
    ];

    let no_retry =
        OffloadPolicy::Ntc(NtcConfig { retry: false, fallback: false, ..Default::default() });
    let policies =
        [OffloadPolicy::CloudAll, OffloadPolicy::EdgeAll, no_retry, OffloadPolicy::ntc()];

    let grid: Vec<(f64, &OffloadPolicy)> =
        rates.iter().flat_map(|&rate| policies.iter().map(move |p| (rate, p))).collect();
    // Each row with its injected-fault and timeout losses, which the
    // shape line reads but the committed series does not carry.
    let (rows, losses): (Vec<Row>, Vec<(u64, u64)>) =
        run_sweep_with(&grid, threads, RunScratch::new, |scratch, &(rate, policy), _| {
            let mut env = Environment::metro_reference();
            env.faults = FaultConfig::transient(rate);
            let engine = Engine::new(env, seed);
            let r = engine.run_retained(seed, policy, &specs, horizon, scratch, JobRetention::Full);
            let per_job =
                |n: u64| if r.jobs.is_empty() { 0.0 } else { n as f64 / r.jobs.len() as f64 };
            let row = Row {
                policy: policy.name(),
                fault_rate: rate,
                jobs: r.jobs.len(),
                failures: r.failures(),
                loss_rate: per_job(r.failures()),
                total_retries: r.total_retries(),
                total_fallbacks: r.total_fallbacks(),
                mean_attempts: per_job(r.total_attempts()),
                backoff_s: r.total_backoff().as_secs_f64(),
                miss_rate: r.miss_rate(),
                total_cost_usd: r.total_cost().as_usd_f64(),
            };
            (row, (r.lost_to(FailureCause::is_injected), r.lost_to(|c| c == FailureCause::Timeout)))
        })
        .into_iter()
        .unzip();
    let mut table = Table::new([
        "policy",
        "fault rate",
        "jobs",
        "lost",
        "loss",
        "retries",
        "fallbacks",
        "backoff",
        "miss",
    ]);
    for r in &rows {
        table.row([
            r.policy.clone(),
            pct(r.fault_rate),
            r.jobs.to_string(),
            r.failures.to_string(),
            pct(r.loss_rate),
            r.total_retries.to_string(),
            r.total_fallbacks.to_string(),
            format!("{}s", f3(r.backoff_s)),
            pct(r.miss_rate),
        ]);
    }

    let mut out = format!("Figure 9 — fault-rate sweep over {horizon} (seed {seed})\n\n");
    out.push_str(&table.render());
    outln!(out);

    // Shape checks: NTC keeps loss at zero across the sweep, the
    // zero-retry baselines lose a strictly positive fraction as soon as
    // faults are injected, and fault-free runs lose nothing to an
    // injected cause. A batch can still outrun its function timeout with
    // no fault injected, which the zero-retry ablation cannot recover
    // from: those natural losses are printed beside the clause.
    let ntc_lossless = rows.iter().filter(|r| r.policy == "ntc").all(|r| r.failures == 0);
    let baselines_lose =
        rows.iter().filter(|r| r.fault_rate >= 0.05 && r.policy != "ntc").all(|r| r.failures > 0);
    let fault_free = || rows.iter().zip(&losses).filter(|(r, _)| r.fault_rate == 0.0);
    let fault_free_clean = fault_free().all(|(_, &(injected, _))| injected == 0);
    let fault_free_timeouts: u64 = fault_free().map(|(_, &(_, timeouts))| timeouts).sum();
    let ntc_retries = rows
        .iter()
        .filter(|r| r.fault_rate >= 0.05 && r.policy == "ntc")
        .all(|r| r.total_retries > 0);
    outln!(
        out,
        "shape: ntc lossless across sweep: {ntc_lossless} | zero-retry baselines lose jobs at every rate >= 5%: {baselines_lose} | no injected-fault losses at 0%: {fault_free_clean} (timeout losses at 0%: {fault_free_timeouts}) | ntc visibly retries under faults: {ntc_retries}",
    );
    Report::new(out, &rows)
}
