//! **Figure 11** — The million-user scale run: latency and deadline
//! misses vs user population.
//!
//! Sweeps a log-analytics population from ten thousand to one million
//! users under CloudAll and EdgeAll, every point in
//! `JobRetention::Aggregates` mode: jobs fold into streaming
//! `RunAggregates` at completion and no per-job vector is kept, so the
//! result-side memory stays constant while the job count grows by two
//! orders of magnitude. stdout and `results/fig11_scale.json` hold only
//! the seeded rows; each point's wall-clock seconds, simulated jobs per
//! wall-clock second and resident memory (current and peak, from
//! `/proc/self/status`) go to stderr, since they describe the host.
//!
//! Points run serially — each wall-clock figure times exactly one run —
//! so this binary ignores `--threads`; thread-count invariance of the
//! rows is covered by `crates/bench/tests/fig11_determinism.rs`.

use std::time::Instant;

use ntc_bench::scale::{policies, run_point, ScaleRow, HORIZON, USER_COUNTS};
use ntc_bench::{f3, pct, seed_from_args, write_json, Table};
use ntc_core::RunScratch;

/// Reads a `kB`-valued field from `/proc/self/status` as MiB, or `n/a`
/// off-Linux.
fn proc_status_mib(field: &str) -> String {
    let kb = std::fs::read_to_string("/proc/self/status").ok().and_then(|status| {
        let line = status.lines().find(|l| l.starts_with(field))?;
        line.split_whitespace().nth(1)?.parse::<f64>().ok()
    });
    kb.map_or("n/a".into(), |kb| format!("{:.0}", kb / 1024.0))
}

fn main() {
    let seed = seed_from_args();

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

    println!("Figure 11 — scale sweep over {HORIZON} (seed {seed})\n");
    table.print();
    println!();
    let last = series.last().expect("non-empty sweep");
    let first = series.first().expect("non-empty sweep");
    // What Full retention would have pinned at the largest point, on top
    // of the summary-side vectors it re-collects: the per-job vector the
    // Aggregates knob never allocates. The remaining RSS growth above is
    // the arrival stream and batch state the engine materialises up
    // front in either mode.
    let retained_mib =
        last.jobs as f64 * std::mem::size_of::<ntc_core::JobResult>() as f64 / (1024.0 * 1024.0);
    println!(
        "shape: {}x the jobs ({} -> {}) through a constant-size metrics sketch; \
         Full retention would add {:.0} MiB of JobResults at the largest point",
        last.jobs / first.jobs.max(1),
        first.jobs,
        last.jobs,
        retained_mib,
    );
    let path = write_json("fig11_scale", &series);
    println!("series written to {}", path.display());
}
