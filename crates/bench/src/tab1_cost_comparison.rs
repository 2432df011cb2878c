//! **Table 1** — Monetary cost per 1 000 jobs, per archetype and policy.
//!
//! Panel (a): per-archetype costs at realistic (low-to-moderate) traffic.
//! UE electricity is cheap in dollars — the device's constrained
//! resources are *time and battery*, covered by Table 5 — so the economic
//! question is edge vs cloud. Expectation (DESIGN.md §4): pay-per-use
//! FaaS beats flat-rate edge infrastructure at this utilisation, and the
//! NTC policy never pays more than naive cloud-all.
//!
//! Panel (b): the amortisation crossover — sweeping photo-pipeline
//! traffic density until the pre-paid edge fleet becomes cheaper per job
//! than per-use FaaS.

use crate::{f3, Report, Table};
use ntc_core::{run_sweep_with, Engine, Environment, JobRetention, OffloadPolicy, RunScratch};
use ntc_json::ToJson;
use ntc_simcore::units::SimDuration;
use ntc_workloads::{Archetype, StreamSpec};

#[derive(Debug, ToJson)]
struct Row {
    archetype: String,
    jobs: usize,
    local_per_1k: f64,
    edge_per_1k: f64,
    cloud_per_1k: f64,
    ntc_per_1k: f64,
}

#[derive(Debug, ToJson)]
struct SweepPoint {
    rate_per_sec: f64,
    jobs: usize,
    edge_per_1k: f64,
    cloud_per_1k: f64,
    edge_utilization_proxy: f64,
}

fn peak_rate(a: Archetype) -> f64 {
    match a {
        Archetype::PhotoPipeline => 0.05,
        Archetype::VideoTranscode => 0.005,
        Archetype::ReportRendering => 0.01,
        Archetype::MlInference => 0.05,
        Archetype::SciSweep => 0.002,
        Archetype::LogAnalytics => 0.02,
        Archetype::DocIndexing => 0.01,
    }
}

fn per_1k(cost_usd: f64, jobs: usize) -> f64 {
    if jobs == 0 {
        0.0
    } else {
        cost_usd * 1000.0 / jobs as f64
    }
}

/// Runs the experiment at `seed` on `threads` sweep workers.
pub fn run(seed: u64, threads: usize) -> Report {
    // Always span a full diurnal day.
    let horizon = SimDuration::from_hours(24);
    let env = Environment::metro_reference();
    let engine = Engine::new(env, seed);

    let policies = [
        OffloadPolicy::LocalOnly,
        OffloadPolicy::EdgeAll,
        OffloadPolicy::CloudAll,
        OffloadPolicy::ntc(),
    ];

    // --- Panel (a): per-archetype. Each (archetype, policy) cell is an
    // independent simulation, so the whole panel fans out at once. ---
    let cells: Vec<(Archetype, &OffloadPolicy)> =
        Archetype::all().into_iter().flat_map(|a| policies.iter().map(move |p| (a, p))).collect();
    let cell_results: Vec<(usize, f64)> =
        run_sweep_with(&cells, threads, RunScratch::new, |scratch, &(a, p), _| {
            let specs = [StreamSpec::diurnal(a, peak_rate(a))];
            let r = engine.run_retained(seed, p, &specs, horizon, scratch, JobRetention::Full);
            let jobs = r.jobs.len();
            (jobs, per_1k(r.total_cost().as_usd_f64(), jobs))
        });
    let mut rows = Vec::new();
    let mut table = Table::new([
        "archetype",
        "jobs",
        "local $/1k",
        "edge $/1k",
        "cloud $/1k",
        "ntc $/1k",
        "cheapest remote",
    ]);
    for (ai, a) in Archetype::all().into_iter().enumerate() {
        let cell = &cell_results[ai * policies.len()..(ai + 1) * policies.len()];
        let costs: Vec<f64> = cell.iter().map(|&(_, c)| c).collect();
        let jobs = cell.last().expect("four policies").0;
        let cheapest_remote = if costs[1] <= costs[2] && costs[1] <= costs[3] {
            "edge-all"
        } else if costs[2] <= costs[3] {
            "cloud-all"
        } else {
            "ntc"
        };
        table.row([
            a.name().to_string(),
            jobs.to_string(),
            f3(costs[0]),
            f3(costs[1]),
            f3(costs[2]),
            f3(costs[3]),
            cheapest_remote.into(),
        ]);
        rows.push(Row {
            archetype: a.name().into(),
            jobs,
            local_per_1k: costs[0],
            edge_per_1k: costs[1],
            cloud_per_1k: costs[2],
            ntc_per_1k: costs[3],
        });
    }

    let mut out = format!("Table 1a — cost per 1000 jobs over {horizon} (seed {seed})\n\n");
    out.push_str(&table.render());
    let faas_cheaper = rows.iter().filter(|r| r.cloud_per_1k < r.edge_per_1k).count();
    let ntc_ok = rows
        .iter()
        .filter(|r| r.jobs >= 20) // small-sample warmer overhead is noise
        .all(|r| r.ntc_per_1k <= r.cloud_per_1k * 1.05);
    outln!(
        out,
        "\nshape (a): cloud cheaper than edge on {}/{} archetypes at this utilisation | ntc <= cloud-all (well-sampled rows): {}\n",
        faas_cheaper,
        rows.len(),
        ntc_ok,
    );

    // --- Panel (b): amortisation crossover. ---
    let sweep_horizon = SimDuration::from_hours(6);
    let rates: &[f64] = &[0.05, 0.5, 2.0, 8.0, 16.0];
    let sweep: Vec<SweepPoint> =
        run_sweep_with(rates, threads, RunScratch::new, |scratch, &rate, _| {
            let specs = [StreamSpec::poisson(Archetype::PhotoPipeline, rate)];
            let mut run = |p: &OffloadPolicy| {
                engine.run_retained(seed, p, &specs, sweep_horizon, scratch, JobRetention::Full)
            };
            let (re, rc) = (run(&OffloadPolicy::EdgeAll), run(&OffloadPolicy::CloudAll));
            SweepPoint {
                rate_per_sec: rate,
                jobs: re.jobs.len(),
                edge_per_1k: per_1k(re.total_cost().as_usd_f64(), re.jobs.len()),
                cloud_per_1k: per_1k(rc.total_cost().as_usd_f64(), rc.jobs.len()),
                edge_utilization_proxy: rate,
            }
        });
    let mut tb = Table::new(["rate/s", "jobs", "edge $/1k", "cloud $/1k", "cheaper"]);
    for p in &sweep {
        tb.row([
            f3(p.rate_per_sec),
            p.jobs.to_string(),
            f3(p.edge_per_1k),
            f3(p.cloud_per_1k),
            if p.edge_per_1k < p.cloud_per_1k { "edge" } else { "cloud" }.into(),
        ]);
    }
    outln!(out, "Table 1b — edge amortisation sweep, photo-pipeline over {sweep_horizon}\n");
    out.push_str(&tb.render());
    let first = &sweep[0];
    let last = sweep.last().expect("non-empty");
    outln!(
        out,
        "\nshape (b): sparse traffic favours cloud ({} vs {} $/1k) | dense traffic amortises the edge ({} vs {} $/1k)",
        f3(first.edge_per_1k),
        f3(first.cloud_per_1k),
        f3(last.edge_per_1k),
        f3(last.cloud_per_1k),
    );

    #[derive(ToJson)]
    struct Out {
        per_archetype: Vec<Row>,
        amortisation_sweep: Vec<SweepPoint>,
    }
    Report::new(out, &Out { per_archetype: rows, amortisation_sweep: sweep })
}
