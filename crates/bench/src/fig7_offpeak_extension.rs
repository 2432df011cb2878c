//! **Figure 7 (extension)** — Off-peak steering of delay-tolerant jobs.
//!
//! Not part of the reconstructed core evaluation (DESIGN.md §4): this
//! implements the natural "future work" of contribution C5. With diurnal
//! WAN congestion (evening bandwidth halves), jobs whose slack reaches the
//! nightly 00:00–06:00 band are held until then: they ride uncongested
//! bandwidth (less UE radio time) and coalesce into one nightly mega-batch
//! per application (more amortisation). Expectation: lower cost and lower
//! device energy than plain windowed batching, at the price of latency the
//! workload tolerates by definition — and still zero deadline misses.

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
    misses: u64,
    p95_s: f64,
    device_energy_j: f64,
    mean_hold_min: f64,
}

/// Runs the experiment at `seed` on `threads` sweep workers.
pub fn run(seed: u64, threads: usize) -> Report {
    let horizon = SimDuration::from_hours(48);
    let engine = Engine::new(Environment::metro_reference(), seed);

    // Long-slack workloads that can actually reach the night band.
    let specs = [
        StreamSpec::diurnal(Archetype::ReportRendering, 0.01).with_slack_factor(2.0), // 16 h slack
        StreamSpec::diurnal(Archetype::SciSweep, 0.003),                              // 24 h slack
        StreamSpec::diurnal(Archetype::VideoTranscode, 0.003).with_slack_factor(3.0), // 12 h slack
    ];

    let policies = [
        OffloadPolicy::CloudAll,
        OffloadPolicy::ntc(),
        OffloadPolicy::Ntc(NtcConfig { off_peak: true, ..Default::default() }),
    ];

    let swept: Vec<(Row, Option<Vec<u64>>)> =
        run_sweep_with(&policies, threads, RunScratch::new, |scratch, policy, _| {
            let r = engine.run_retained(seed, policy, &specs, horizon, scratch, JobRetention::Full);
            let profile = (policy.name() == "ntc[+offpeak]").then(|| {
                (0..r.completions_per_hour.len().min(48))
                    .map(|i| r.completions_per_hour.count(i))
                    .collect()
            });
            let p95 = r.latency_summary().map(|s| s.p95).unwrap_or(0.0);
            let row = Row {
                policy: policy.name(),
                jobs: r.jobs.len(),
                total_cost_usd: r.total_cost().as_usd_f64(),
                misses: r.deadline_misses(),
                p95_s: p95,
                device_energy_j: r.device_energy.as_joules_f64(),
                mean_hold_min: r.mean_hold_s() / 60.0,
            };
            (row, profile)
        });
    let night_profile: Option<Vec<u64>> = swept.iter().find_map(|(_, p)| p.clone());
    let rows: Vec<Row> = swept.into_iter().map(|(row, _)| row).collect();
    let mut table =
        Table::new(["policy", "jobs", "total $", "misses", "p95", "device J", "mean hold"]);
    for r in &rows {
        table.row([
            r.policy.clone(),
            r.jobs.to_string(),
            format!("{:.4}", r.total_cost_usd),
            r.misses.to_string(),
            format!("{}s", f3(r.p95_s)),
            f3(r.device_energy_j),
            format!("{:.1}min", r.mean_hold_min),
        ]);
    }

    let mut out =
        format!("Figure 7 (extension) — off-peak steering over {horizon} (seed {seed})\n\n");
    out.push_str(&table.render());
    outln!(out);
    let by = |name: &str| rows.iter().find(|r| r.policy == name).expect("present");
    let (ntc, off) = (by("ntc"), by("ntc[+offpeak]"));
    outln!(
        out,
        "shape: off-peak cost ${:.4} <= windowed ${:.4}: {} | off-peak device energy {} vs {} J ({} saved) | misses: {}",
        off.total_cost_usd,
        ntc.total_cost_usd,
        off.total_cost_usd <= ntc.total_cost_usd * 1.001,
        f3(off.device_energy_j),
        f3(ntc.device_energy_j),
        pct(1.0 - off.device_energy_j / ntc.device_energy_j),
        off.misses,
    );
    if let Some(profile) = night_profile {
        let night: u64 =
            profile.iter().enumerate().filter(|&(h, _)| h % 24 < 7).map(|(_, &c)| c).sum();
        let total: u64 = profile.iter().sum();
        outln!(
            out,
            "completion profile: {} of {} off-peak completions land in hours 00-07 ({})",
            night,
            total,
            pct(night as f64 / total.max(1) as f64),
        );
    }
    Report::new(out, &rows)
}
