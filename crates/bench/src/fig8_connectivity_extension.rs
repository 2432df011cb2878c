//! **Figure 8 (extension)** — Intermittent connectivity.
//!
//! Not part of the reconstructed core evaluation (DESIGN.md §4): mobile
//! users go offline (subway commutes, dead zones). A time-critical
//! offloaded job stalls on the outage; a non-time-critical one simply
//! rides it out inside its slack. Expectation: outages inflate the
//! latency tail of every offloading policy but produce deadline misses
//! only where slack is tight; local-only is immune; the NTC framework's
//! deadline-safe holding (which reserves for the worst outage window)
//! keeps misses at zero.

use crate::{f3, pct, Report, Table};
use ntc_core::{run_sweep_with, Engine, Environment, JobRetention, OffloadPolicy, RunScratch};
use ntc_json::ToJson;
use ntc_net::ConnectivityTrace;
use ntc_simcore::units::SimDuration;
use ntc_workloads::{Archetype, StreamSpec};

#[derive(Debug, ToJson)]
struct Row {
    connectivity: String,
    policy: String,
    jobs: usize,
    p50_s: f64,
    p95_s: f64,
    miss_rate: f64,
}

/// Runs the experiment at `seed` on `threads` sweep workers.
pub fn run(seed: u64, threads: usize) -> Report {
    let horizon = SimDuration::from_hours(24);

    let traces: [(&str, ConnectivityTrace); 3] = [
        ("always-on", ConnectivityTrace::always()),
        ("commuter", ConnectivityTrace::commuter()),
        ("flaky", ConnectivityTrace::flaky()),
    ];
    // Photo batches with their modest 30-minute slack: outages are a real
    // fraction of the deadline budget.
    let specs = [StreamSpec::poisson(Archetype::PhotoPipeline, 0.02)];

    let grid: Vec<(usize, OffloadPolicy)> = (0..traces.len())
        .flat_map(|ti| {
            [OffloadPolicy::LocalOnly, OffloadPolicy::CloudAll, OffloadPolicy::ntc()]
                .map(|p| (ti, p))
        })
        .collect();
    let rows: Vec<Row> =
        run_sweep_with(&grid, threads, RunScratch::new, |scratch, (ti, policy), _| {
            let (name, trace) = &traces[*ti];
            let mut env = Environment::metro_reference();
            env.connectivity = trace.clone();
            let engine = Engine::new(env, seed);
            let r = engine.run_retained(seed, policy, &specs, horizon, scratch, JobRetention::Full);
            let s = r.latency_summary().expect("jobs ran");
            Row {
                connectivity: (*name).into(),
                policy: policy.name(),
                jobs: r.jobs.len(),
                p50_s: s.p50,
                p95_s: s.p95,
                miss_rate: r.miss_rate(),
            }
        });
    let mut table =
        Table::new(["connectivity", "offline", "policy", "jobs", "p50", "p95", "miss rate"]);
    for r in &rows {
        let (_, trace) = traces.iter().find(|(n, _)| *n == r.connectivity).expect("present");
        table.row([
            r.connectivity.clone(),
            pct(trace.offline_fraction()),
            r.policy.clone(),
            r.jobs.to_string(),
            format!("{}s", f3(r.p50_s)),
            format!("{}s", f3(r.p95_s)),
            pct(r.miss_rate),
        ]);
    }

    let mut out =
        format!("Figure 8 (extension) — connectivity outages over {horizon} (seed {seed})\n\n");
    out.push_str(&table.render());
    outln!(out);
    let find = |c: &str, p: &str| {
        rows.iter().find(|r| r.connectivity == c && r.policy == p).expect("present")
    };
    let local_flaky = find("flaky", "local-only");
    let local_on = find("always-on", "local-only");
    let cloud_flaky = find("flaky", "cloud-all");
    let cloud_on = find("always-on", "cloud-all");
    let ntc_flaky = find("flaky", "ntc");
    outln!(
        out,
        "shape: local-only immune (p95 {}s vs {}s) | cloud-all tail inflates {}s -> {}s | ntc holds through outages with {} misses",
        f3(local_on.p95_s),
        f3(local_flaky.p95_s),
        f3(cloud_on.p95_s),
        f3(cloud_flaky.p95_s),
        pct(ntc_flaky.miss_rate),
    );
    Report::new(out, &rows)
}
