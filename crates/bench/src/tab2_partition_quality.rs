//! **Table 2** — Partitioning-algorithm quality against the exhaustive
//! optimum.
//!
//! 100 random layered DAGs plus the three pipeline-like archetype graphs.
//! Expectation (DESIGN.md §4): min-cut matches the optimum exactly;
//! greedy lands within ~10–20 %; naive full-offload pays the transfer
//! penalty; keep-local pays the device-compute penalty.

use crate::{f3, pct, Report, Table};
use ntc_core::run_sweep_with;
use ntc_json::ToJson;
use ntc_partition::{
    standard_roster, CostParams, ExhaustivePartitioner, PartitionContext, Partitioner,
};
use ntc_simcore::rng::RngStream;
use ntc_simcore::units::DataSize;
use ntc_taskgraph::{random_layered_dag, RandomDagConfig, TaskGraph};
use ntc_workloads::Archetype;

#[derive(Debug, ToJson)]
struct Row {
    algorithm: String,
    mean_gap_pct: f64,
    max_gap_pct: f64,
    optimal_rate: f64,
    mean_bytes_moved_kib: f64,
    mean_offloaded: f64,
    mean_makespan_s: f64,
}

fn graphs(seed: u64) -> Vec<TaskGraph> {
    let root = RngStream::root(seed).derive("tab2");
    let mut gs: Vec<TaskGraph> = (0..100_u64)
        .map(|i| {
            let mut rng = root.derive(i);
            let cfg = RandomDagConfig {
                nodes: 6 + (i % 9) as usize,
                layers: 3 + (i % 3) as usize,
                ..Default::default()
            };
            random_layered_dag(&mut rng, &cfg)
        })
        .collect();
    gs.push(Archetype::PhotoPipeline.graph());
    gs.push(Archetype::ReportRendering.graph());
    gs.push(Archetype::LogAnalytics.graph());
    gs
}

/// Runs the experiment at `seed` on `threads` sweep workers.
pub fn run(seed: u64, threads: usize) -> Report {
    let gs = graphs(seed);
    let input = DataSize::from_mib(2);
    let params = CostParams::default();

    let roster = standard_roster();
    // Per-graph work (exhaustive optimum + every roster algorithm) fans
    // out across the pool; trait objects are not Sync, so each worker
    // builds its own roster copy once.
    let per_graph: Vec<Vec<(f64, f64, f64, f64)>> =
        run_sweep_with(&gs, threads, standard_roster, |roster, g, _| {
            let ctx = PartitionContext::new(g, input, params);
            let opt = ctx.evaluate(&ExhaustivePartitioner.partition(&ctx)).weighted;
            roster
                .iter()
                .map(|p| {
                    let plan = p.partition(&ctx);
                    plan.validate(g).expect("roster plans are valid");
                    let cost = ctx.evaluate(&plan);
                    (
                        (cost.weighted - opt).max(0.0) / opt.max(1.0),
                        cost.bytes_moved.as_bytes() as f64 / 1024.0,
                        plan.offloaded().count() as f64,
                        cost.makespan.as_secs_f64(),
                    )
                })
                .collect()
        });

    let mut rows = Vec::new();
    let mut table = Table::new([
        "algorithm",
        "mean gap",
        "max gap",
        "optimal rate",
        "bytes moved (KiB)",
        "mean offloaded",
        "makespan (s)",
    ]);
    let n = per_graph.len() as f64;
    for (pi, p) in roster.iter().enumerate() {
        // This algorithm's (gap, KiB moved, offloaded, makespan) per graph.
        let cells = || per_graph.iter().map(move |row| row[pi]);
        let mean = |f: fn((f64, f64, f64, f64)) -> f64| cells().map(f).sum::<f64>() / n;
        let mean_gap = mean(|c| c.0);
        let max_gap = cells().map(|c| c.0).fold(0.0, f64::max);
        let optimal_rate = cells().filter(|c| c.0 < 1e-6).count() as f64 / n;
        let (mean_bytes, mean_off, mean_mk) = (mean(|c| c.1), mean(|c| c.2), mean(|c| c.3));
        table.row([
            p.name().to_string(),
            pct(mean_gap),
            pct(max_gap),
            pct(optimal_rate),
            f3(mean_bytes),
            f3(mean_off),
            f3(mean_mk),
        ]);
        rows.push(Row {
            algorithm: p.name().into(),
            mean_gap_pct: mean_gap * 100.0,
            max_gap_pct: max_gap * 100.0,
            optimal_rate,
            mean_bytes_moved_kib: mean_bytes,
            mean_offloaded: mean_off,
            mean_makespan_s: mean_mk,
        });
    }

    let mut out = format!("Table 2 — partition quality on {} graphs (seed {seed})\n\n", gs.len());
    out.push_str(&table.render());
    outln!(out);
    let mincut = rows.iter().find(|r| r.algorithm == "min-cut").expect("present");
    let greedy = rows.iter().find(|r| r.algorithm == "greedy").expect("present");
    let full = rows.iter().find(|r| r.algorithm == "full-offload").expect("present");
    outln!(
        out,
        "shape: min-cut optimal on {} of graphs | greedy within {} on average | full-offload moves {:.0}x the bytes of min-cut",
        pct(mincut.optimal_rate),
        pct(greedy.mean_gap_pct / 100.0),
        full.mean_bytes_moved_kib / mincut.mean_bytes_moved_kib.max(1e-9),
    );
    Report::new(out, &rows)
}
