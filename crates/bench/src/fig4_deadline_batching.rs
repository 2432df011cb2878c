//! **Figure 4** — Cost saving vs deadline slack from delay-tolerant
//! batching.
//!
//! Runs report-rendering traffic at increasing slack factors, with
//! batching on vs off. Expectation (DESIGN.md §4): zero slack yields no
//! saving; savings grow with slack (cold starts amortise over warm
//! batches) and saturate once windows exceed the keep-alive TTL.

use crate::{f3, pct, Report, Table};
use ntc_core::{
    run_sweep_with, Engine, Environment, JobRetention, NtcConfig, OffloadPolicy, RunScratch,
};
use ntc_json::ToJson;
use ntc_simcore::units::SimDuration;
use ntc_workloads::{Archetype, StreamSpec};

#[derive(Debug, ToJson)]
struct Point {
    slack_factor: f64,
    slack_hours: f64,
    cost_batched_usd: f64,
    cost_unbatched_usd: f64,
    saving_pct: f64,
    misses_batched: u64,
    misses_unbatched: u64,
    mean_hold_s: f64,
}

/// Runs the experiment at `seed` on `threads` sweep workers.
pub fn run(seed: u64, threads: usize) -> Report {
    let horizon = SimDuration::from_hours(24);
    let engine = Engine::new(Environment::metro_reference(), seed);

    let batched = OffloadPolicy::ntc();
    let unbatched = OffloadPolicy::Ntc(NtcConfig { use_batching: false, ..Default::default() });

    let factors = [0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0];
    let series: Vec<Point> =
        run_sweep_with(&factors, threads, RunScratch::new, |scratch, &factor, _| {
            let specs =
                [StreamSpec::poisson(Archetype::ReportRendering, 0.005).with_slack_factor(factor)];
            let rb =
                engine.run_retained(seed, &batched, &specs, horizon, scratch, JobRetention::Full);
            let ru =
                engine.run_retained(seed, &unbatched, &specs, horizon, scratch, JobRetention::Full);
            let cb = rb.total_cost().as_usd_f64();
            let cu = ru.total_cost().as_usd_f64();
            let saving = if cu > 0.0 { 1.0 - cb / cu } else { 0.0 };
            let slack_hours =
                Archetype::ReportRendering.typical_slack().as_secs_f64() * factor / 3600.0;
            Point {
                slack_factor: factor,
                slack_hours,
                cost_batched_usd: cb,
                cost_unbatched_usd: cu,
                saving_pct: saving * 100.0,
                misses_batched: rb.deadline_misses(),
                misses_unbatched: ru.deadline_misses(),
                mean_hold_s: rb.mean_hold_s(),
            }
        });
    let mut table =
        Table::new(["slack", "batched $", "unbatched $", "saving", "misses (b/u)", "mean hold"]);
    for p in &series {
        table.row([
            format!("{}x ({:.1}h)", p.slack_factor, p.slack_hours),
            format!("{:.4}", p.cost_batched_usd),
            format!("{:.4}", p.cost_unbatched_usd),
            pct(p.saving_pct / 100.0),
            format!("{}/{}", p.misses_batched, p.misses_unbatched),
            format!("{}s", f3(p.mean_hold_s)),
        ]);
    }

    let mut out =
        format!("Figure 4 — batching saving vs deadline slack over {horizon} (seed {seed})\n\n");
    out.push_str(&table.render());
    outln!(out);
    let zero = &series[0];
    let best = series
        .iter()
        .max_by(|a, b| a.saving_pct.partial_cmp(&b.saving_pct).expect("finite"))
        .expect("non-empty");
    outln!(
        out,
        "shape: zero slack saves {} | peak saving {} at {}x slack | batching never misses a deadline: {}",
        pct(zero.saving_pct / 100.0),
        pct(best.saving_pct / 100.0),
        best.slack_factor,
        // Skip the degenerate zero-slack row (deadline == arrival is
        // infeasible for any policy).
        series.iter().skip(1).all(|p| p.misses_batched == 0),
    );
    Report::new(out, &series)
}
