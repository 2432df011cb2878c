//! **Table 5** — End-to-end policy comparison on a realistic mixed day.
//!
//! The headline table: cost, latency percentiles, deadline-miss rate, UE
//! energy, and data moved for local-only, edge-all, cloud-all and the
//! full NTC framework, averaged over replications. Expectation
//! (DESIGN.md §4): NTC spends no more than cloud-all, misses no more
//! deadlines than edge-all, and drains far less battery than local-only —
//! the "developer-friendly approach" pays no penalty where it does not
//! matter.

use crate::{f3, pct, Report, Table};
use ntc_core::{across, run_replications, Environment, OffloadPolicy};
use ntc_json::ToJson;
use ntc_simcore::units::SimDuration;
use ntc_workloads::{Archetype, StreamSpec};

#[derive(Debug, ToJson)]
struct Row {
    policy: String,
    jobs_mean: f64,
    total_cost_usd: f64,
    cost_std: f64,
    p50_s: f64,
    p95_s: f64,
    miss_rate: f64,
    device_energy_j: f64,
    bytes_up_mib: f64,
}

/// Runs the experiment at `seed` on `threads` sweep workers.
pub fn run(seed: u64, threads: usize) -> Report {
    let (horizon, reps) = (SimDuration::from_hours(24), 5u32);
    let env = Environment::metro_reference();

    let specs = [
        StreamSpec::diurnal(Archetype::PhotoPipeline, 0.02),
        StreamSpec::diurnal(Archetype::VideoTranscode, 0.002),
        StreamSpec::poisson(Archetype::ReportRendering, 0.004),
        StreamSpec::poisson(Archetype::MlInference, 0.01),
        StreamSpec::poisson(Archetype::SciSweep, 0.001),
        StreamSpec::poisson(Archetype::LogAnalytics, 0.008),
        StreamSpec::poisson(Archetype::DocIndexing, 0.005),
    ];

    let policies = [
        OffloadPolicy::LocalOnly,
        OffloadPolicy::EdgeAll,
        OffloadPolicy::CloudAll,
        OffloadPolicy::ntc(),
    ];

    let mut rows = Vec::new();
    let mut ntc_breakdown = Vec::new();
    let mut table = Table::new([
        "policy",
        "jobs",
        "total $",
        "± $",
        "p50",
        "p95",
        "miss rate",
        "device J",
        "up MiB",
    ]);
    for policy in &policies {
        let results = run_replications(&env, policy, &specs, horizon, seed, reps, threads);
        if policy.name() == "ntc" {
            ntc_breakdown = results[0].by_archetype();
        }
        let cost = across(&results, |r| r.total_cost().as_usd_f64());
        let jobs = across(&results, |r| r.jobs.len() as f64);
        let p50 = across(&results, |r| r.latency_summary().map(|s| s.p50).unwrap_or(0.0));
        let p95 = across(&results, |r| r.latency_summary().map(|s| s.p95).unwrap_or(0.0));
        let miss = across(&results, |r| r.miss_rate());
        let energy = across(&results, |r| r.device_energy.as_joules_f64());
        let up = across(&results, |r| r.bytes_up.as_mib_f64());
        table.row([
            policy.name(),
            format!("{:.0}", jobs.mean),
            format!("{:.4}", cost.mean),
            format!("{:.4}", cost.std_dev),
            format!("{}s", f3(p50.mean)),
            format!("{}s", f3(p95.mean)),
            pct(miss.mean),
            f3(energy.mean),
            f3(up.mean),
        ]);
        rows.push(Row {
            policy: policy.name(),
            jobs_mean: jobs.mean,
            total_cost_usd: cost.mean,
            cost_std: cost.std_dev,
            p50_s: p50.mean,
            p95_s: p95.mean,
            miss_rate: miss.mean,
            device_energy_j: energy.mean,
            bytes_up_mib: up.mean,
        });
    }

    let mut out =
        format!("Table 5 — end-to-end policies, {reps} replications x {horizon} (seed {seed})\n\n");
    out.push_str(&table.render());
    outln!(out);
    let by = |name: &str| rows.iter().find(|r| r.policy == name).expect("present");
    let (local, edge, cloud, ntc) = (by("local-only"), by("edge-all"), by("cloud-all"), by("ntc"));
    outln!(
        out,
        "shape: ntc cost ${:.4} <= cloud-all ${:.4}: {} | ntc miss rate {} vs edge {} | ntc device energy {:.0} J << local {:.0} J: {}",
        ntc.total_cost_usd,
        cloud.total_cost_usd,
        ntc.total_cost_usd <= cloud.total_cost_usd * 1.02,
        pct(ntc.miss_rate),
        pct(edge.miss_rate),
        ntc.device_energy_j,
        local.device_energy_j,
        ntc.device_energy_j < local.device_energy_j / 2.0,
    );
    outln!(
        out,
        "
per-archetype under ntc (replication 0):"
    );
    let mut bt = Table::new(["archetype", "jobs", "misses", "p50", "p95", "mean hold"]);
    for b in &ntc_breakdown {
        let (p50, p95) = b.latency.map(|s| (s.p50, s.p95)).unwrap_or((0.0, 0.0));
        bt.row([
            b.archetype.name().to_string(),
            b.jobs.to_string(),
            b.misses.to_string(),
            format!("{}s", f3(p50)),
            format!("{}s", f3(p95)),
            format!("{:.1}min", b.mean_hold_s / 60.0),
        ]);
    }
    out.push_str(&bt.render());

    #[derive(ToJson)]
    struct Out {
        policies: Vec<Row>,
        ntc_by_archetype: Vec<ntc_core::report::ArchetypeBreakdown>,
    }
    Report::new(out, &Out { policies: rows, ntc_by_archetype: ntc_breakdown })
}
