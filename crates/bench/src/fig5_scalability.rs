//! **Figure 5** — Sustained throughput and tail latency vs offered load:
//! edge fleet vs cloud serverless.
//!
//! Log-analytics traffic scaled by user population. Expectation
//! (DESIGN.md §4): the pre-provisioned edge saturates at its slot
//! capacity — queueing blows up the p95 and deadline misses appear —
//! while the serverless platform scales out ~linearly.

use crate::{f3, pct, Report, Table};
use ntc_core::{run_sweep_with, Engine, Environment, JobRetention, OffloadPolicy, RunScratch};
use ntc_json::ToJson;
use ntc_simcore::units::SimDuration;
use ntc_workloads::{Archetype, StreamSpec};

#[derive(Debug, ToJson)]
struct Point {
    users: u32,
    rate_per_sec: f64,
    policy: String,
    jobs: usize,
    p50_s: f64,
    p95_s: f64,
    miss_rate: f64,
}

/// Runs the experiment at `seed` on `threads` sweep workers.
pub fn run(seed: u64, threads: usize) -> Report {
    let horizon = SimDuration::from_hours(2);
    let per_user_rate = 0.002; // one log batch per user every ~8 minutes

    let engine = Engine::new(Environment::metro_reference(), seed);
    // The edge fleet has 32 slots at ~10 s/job ≈ 3.3 jobs/s capacity; the
    // sweep deliberately crosses it.
    let user_counts: &[u32] = &[10, 50, 100, 250, 500, 1000, 2000, 3000];

    let grid: Vec<(u32, OffloadPolicy)> = user_counts
        .iter()
        .flat_map(|&u| [OffloadPolicy::EdgeAll, OffloadPolicy::CloudAll].map(|p| (u, p)))
        .collect();
    let series: Vec<Point> =
        run_sweep_with(&grid, threads, RunScratch::new, |scratch, (users, policy), _| {
            let rate = f64::from(*users) * per_user_rate;
            // Tighter-than-typical slack so saturation shows up as misses.
            let specs =
                [StreamSpec::poisson(Archetype::LogAnalytics, rate).with_slack_factor(0.05)];
            let r = engine.run_retained(seed, policy, &specs, horizon, scratch, JobRetention::Full);
            let s = r.latency_summary();
            let (p50, p95) = s.map(|s| (s.p50, s.p95)).unwrap_or((0.0, 0.0));
            Point {
                users: *users,
                rate_per_sec: rate,
                policy: policy.name(),
                jobs: r.jobs.len(),
                p50_s: p50,
                p95_s: p95,
                miss_rate: r.miss_rate(),
            }
        });
    let mut table = Table::new(["users", "rate/s", "policy", "jobs", "p50", "p95", "miss rate"]);
    for p in &series {
        table.row([
            p.users.to_string(),
            f3(p.rate_per_sec),
            p.policy.clone(),
            p.jobs.to_string(),
            format!("{}s", f3(p.p50_s)),
            format!("{}s", f3(p.p95_s)),
            pct(p.miss_rate),
        ]);
    }

    let mut out = format!("Figure 5 — load scalability over {horizon} (seed {seed})\n\n");
    out.push_str(&table.render());
    outln!(out);
    let max_users = *user_counts.last().expect("non-empty");
    let edge_hi =
        series.iter().find(|p| p.users == max_users && p.policy == "edge-all").expect("present");
    let cloud_hi =
        series.iter().find(|p| p.users == max_users && p.policy == "cloud-all").expect("present");
    outln!(
        out,
        "shape: at {} users edge p95 {}s vs cloud p95 {}s | edge miss rate {} vs cloud {}",
        max_users,
        f3(edge_hi.p95_s),
        f3(cloud_hi.p95_s),
        pct(edge_hi.miss_rate),
        pct(cloud_hi.miss_rate),
    );
    Report::new(out, &series)
}
