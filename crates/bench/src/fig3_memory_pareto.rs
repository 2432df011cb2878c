//! **Figure 3** — Cost vs completion-time Pareto over FaaS memory sizes.
//!
//! Sweeps the memory ladder for the video-transcode hot component.
//! Expectation (DESIGN.md §4): execution time falls until the CPU cap,
//! cost stays ~flat below the one-vCPU knee and rises past it; the
//! allocator's pick is the cheapest point meeting the deadline budget.

use crate::{f3, Report, Table};
use ntc_alloc::{pareto_frontier, select_memory, standard_sizes, sweep};
use ntc_core::run_sweep;
use ntc_json::ToJson;
use ntc_serverless::{BillingModel, CpuScaling};
use ntc_simcore::rng::RngStream;
use ntc_simcore::units::SimDuration;
use ntc_workloads::Archetype;

#[derive(Debug, ToJson)]
struct Point {
    memory_mib: f64,
    exec_s: f64,
    cost_usd: f64,
    on_frontier: bool,
    allocator_pick: bool,
}

/// Runs the experiment at `seed` on `threads` sweep workers.
pub fn run(seed: u64, threads: usize) -> Report {
    let cpu = CpuScaling::lambda_like();
    let billing = BillingModel::aws_like();

    // The transcode component at a typical video input.
    let graph = Archetype::VideoTranscode.graph();
    let input = {
        let mut rng = RngStream::root(seed).derive("input");
        Archetype::VideoTranscode.sample_input(&mut rng)
    };
    let (_, transcode) =
        graph.components().max_by_key(|(_, c)| c.demand_cycles(input)).expect("non-empty graph");
    let work = transcode.demand_cycles(input);

    // Each ladder rung is an independent (exec, cost) evaluation, so the
    // ladder fans out across the sweep pool like every other grid here.
    let sizes = standard_sizes();
    let points: Vec<ntc_alloc::MemoryPoint> =
        run_sweep(&sizes, threads, |&m, _| sweep(work, &cpu, &billing, &[m]).remove(0));
    let frontier = pareto_frontier(&points);
    let budget = SimDuration::from_mins(2);
    let pick =
        select_memory(work, budget, &cpu, &billing, &standard_sizes()).expect("ladder non-empty");

    let mut series = Vec::new();
    let mut table = Table::new(["memory", "exec", "cost $", "pareto", "allocator pick"]);
    for p in &points {
        let on_frontier = frontier.iter().any(|f| f.memory == p.memory);
        let is_pick = p.memory == pick.memory;
        table.row([
            format!("{}", p.memory),
            format!("{}", p.exec),
            format!("{:.6}", p.cost.as_usd_f64()),
            if on_frontier { "*".into() } else { String::new() },
            if is_pick { "<= pick".into() } else { String::new() },
        ]);
        series.push(Point {
            memory_mib: p.memory.as_mib_f64(),
            exec_s: p.exec.as_secs_f64(),
            cost_usd: p.cost.as_usd_f64(),
            on_frontier,
            allocator_pick: is_pick,
        });
    }

    let mut out = format!(
        "Figure 3 — memory sweep for transcode ({work} at input {input}), deadline budget {budget} (seed {seed})\n\n",
        input = input,
    );
    out.push_str(&table.render());
    outln!(out);
    let cheapest = points.iter().min_by_key(|p| p.cost).expect("non-empty");
    outln!(
        out,
        "shape: pick {} meets budget: {} | pick within {} of the global cheapest | frontier has {} of {} points",
        pick.memory,
        pick.exec <= budget,
        f3((pick.cost.as_usd_f64() / cheapest.cost.as_usd_f64() - 1.0) * 100.0) + "%",
        frontier.len(),
        points.len(),
    );
    Report::new(out, &series)
}
