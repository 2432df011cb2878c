//! **Figure 6** — Ablation of the NTC framework.
//!
//! A mixed archetype stream under the full framework and with each
//! contribution disabled in turn. Expectation (DESIGN.md §4): every
//! removal degrades cost and/or deadline behaviour; the full system
//! dominates (or ties) all ablations.

use crate::{f3, pct, Report, Table};
use ntc_core::{
    run_sweep_with, Engine, Environment, JobRetention, NtcConfig, OffloadPolicy, RunScratch,
};
use ntc_json::ToJson;
use ntc_simcore::units::SimDuration;
use ntc_workloads::{Archetype, StreamSpec};

#[derive(Debug, ToJson)]
struct Row {
    policy: String,
    jobs: usize,
    total_cost_usd: f64,
    miss_rate: f64,
    p95_s: f64,
    device_energy_j: f64,
}

/// Runs the experiment at `seed` on `threads` sweep workers.
pub fn run(seed: u64, threads: usize) -> Report {
    let horizon = SimDuration::from_hours(24);
    let engine = Engine::new(Environment::metro_reference(), seed);

    // Tighter-than-typical (but still delay-tolerant) deadlines, so the
    // framework's threshold decisions — memory sizing, safe holding —
    // actually bite.
    let specs = [
        StreamSpec::diurnal(Archetype::PhotoPipeline, 0.02).with_slack_factor(0.3),
        StreamSpec::poisson(Archetype::ReportRendering, 0.004).with_slack_factor(0.3),
        StreamSpec::poisson(Archetype::MlInference, 0.01).with_slack_factor(0.3),
        StreamSpec::poisson(Archetype::LogAnalytics, 0.008).with_slack_factor(0.3),
        StreamSpec::poisson(Archetype::DocIndexing, 0.008).with_slack_factor(0.3),
    ];

    let variants: Vec<OffloadPolicy> = vec![
        OffloadPolicy::ntc(),
        OffloadPolicy::Ntc(NtcConfig { use_profiler: false, ..Default::default() }),
        OffloadPolicy::Ntc(NtcConfig { use_partitioner: false, ..Default::default() }),
        OffloadPolicy::Ntc(NtcConfig { use_allocator: false, ..Default::default() }),
        OffloadPolicy::Ntc(NtcConfig { use_batching: false, ..Default::default() }),
        OffloadPolicy::CloudAll,
    ];

    let rows: Vec<Row> =
        run_sweep_with(&variants, threads, RunScratch::new, |scratch, policy, _| {
            let r = engine.run_retained(seed, policy, &specs, horizon, scratch, JobRetention::Full);
            let p95 = r.latency_summary().map(|s| s.p95).unwrap_or(0.0);
            Row {
                policy: policy.name(),
                jobs: r.jobs.len(),
                total_cost_usd: r.total_cost().as_usd_f64(),
                miss_rate: r.miss_rate(),
                p95_s: p95,
                device_energy_j: r.device_energy.as_joules_f64(),
            }
        });
    let mut table = Table::new(["policy", "jobs", "total $", "miss rate", "p95", "device J"]);
    for r in &rows {
        table.row([
            r.policy.clone(),
            r.jobs.to_string(),
            format!("{:.4}", r.total_cost_usd),
            pct(r.miss_rate),
            format!("{}s", f3(r.p95_s)),
            f3(r.device_energy_j),
        ]);
    }

    let mut out = format!("Figure 6 — ablation over {horizon}, mixed stream (seed {seed})\n\n");
    out.push_str(&table.render());
    outln!(out);
    let full = &rows[0];
    // A removal "degrades" the system if it is worse on cost, misses, or
    // tail latency by a meaningful margin; the full system should never be
    // strictly dominated by an ablation.
    let degraded = |r: &Row| {
        r.total_cost_usd > full.total_cost_usd * 1.01
            || r.miss_rate > full.miss_rate + 0.005
            || r.p95_s > full.p95_s * 1.05
    };
    let dominated_by_ablation = rows.iter().skip(1).any(|r| {
        r.total_cost_usd < full.total_cost_usd * 0.99
            && r.miss_rate <= full.miss_rate
            && r.p95_s <= full.p95_s
    });
    outln!(
        out,
        "shape: ablations degrading at least one axis: {}/{} | full system strictly dominated by an ablation: {} | full miss rate {}",
        rows.iter().skip(1).filter(|r| degraded(r)).count(),
        rows.len() - 1,
        dominated_by_ablation,
        pct(full.miss_rate),
    );
    Report::new(out, &rows)
}
