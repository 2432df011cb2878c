//! **Table 3** — Demand-estimator accuracy per archetype.
//!
//! One-step-ahead MAPE/p95 error of each estimator family on 10 000
//! synthetic invocations of each archetype's heaviest component.
//! Expectation (DESIGN.md §4): regression wins where demand correlates
//! with input size (video, logs), EWMA where it does not (inference), and
//! the hybrid is never far from the better of the two.

use crate::{f3, Report, Table};
use ntc_core::run_sweep;
use ntc_json::ToJson;
use ntc_profiler::{evaluate, EstimatorKind};
use ntc_simcore::rng::RngStream;
use ntc_simcore::units::{round_to_u64, Cycles, DataSize};
use ntc_workloads::Archetype;

#[derive(Debug, ToJson)]
struct Row {
    archetype: String,
    estimator: String,
    mape_pct: f64,
    p95_ape_pct: f64,
    underestimate_rate: f64,
}

fn trace(a: Archetype, n: usize, seed: u64) -> Vec<(DataSize, Cycles)> {
    let mut rng = RngStream::root(seed).derive(("trace-", a.name()));
    let graph = a.graph();
    let (_, heavy) = graph
        .components()
        .max_by_key(|(_, c)| c.demand_cycles(DataSize::from_mib(4)))
        .expect("non-empty graph");
    let sigma = a.demand_noise_sigma();
    (0..n)
        .map(|_| {
            let input = a.sample_input(&mut rng);
            let actual = heavy.demand_cycles(input).get() as f64 * rng.lognormal(0.0, sigma);
            (input, Cycles::new(round_to_u64(actual)))
        })
        .collect()
}

/// Runs the experiment at `seed` on `threads` sweep workers.
pub fn run(seed: u64, threads: usize) -> Report {
    let n = 10_000;

    // One sweep point per archetype: the trace synthesis dominates, and
    // every estimator family shares the archetype's trace.
    let archetypes = Archetype::all();
    let per_arch: Vec<(Vec<Row>, (String, f64))> = run_sweep(&archetypes, threads, |&a, _| {
        let t = trace(a, n, seed);
        let mut arch_rows = Vec::new();
        let mut best: Option<(String, f64)> = None;
        for kind in EstimatorKind::all() {
            let mut est = kind.build();
            let report = evaluate(est.as_mut(), &t, 20).expect("long trace");
            if best.as_ref().is_none_or(|(_, m)| report.mape < *m) {
                best = Some((kind.to_string(), report.mape));
            }
            arch_rows.push(Row {
                archetype: a.name().into(),
                estimator: kind.to_string(),
                mape_pct: report.mape,
                p95_ape_pct: report.p95_ape,
                underestimate_rate: report.underestimate_rate,
            });
        }
        (arch_rows, best.expect("estimators ran"))
    });
    let mut rows = Vec::new();
    let mut table = Table::new(["archetype", "estimator", "MAPE %", "p95 APE %", "under-rate"]);
    for (arch_rows, (bname, bmape)) in per_arch {
        let archetype = arch_rows[0].archetype.clone();
        for r in arch_rows {
            table.row([
                r.archetype.clone(),
                r.estimator.clone(),
                f3(r.mape_pct),
                f3(r.p95_ape_pct),
                f3(r.underestimate_rate),
            ]);
            rows.push(r);
        }
        table.row([
            archetype,
            format!("-> best: {bname}"),
            f3(bmape),
            String::new(),
            String::new(),
        ]);
    }

    let mut out =
        format!("Table 3 — demand-estimation accuracy over {n} invocations (seed {seed})\n\n");
    out.push_str(&table.render());
    outln!(out);
    let mape_of = |arch: &str, est: &str| {
        rows.iter().find(|r| r.archetype == arch && r.estimator == est).expect("present").mape_pct
    };
    outln!(
        out,
        "shape: regression beats ewma on input-correlated video ({} vs {}) | ewma competitive on inference ({} vs {}) | hybrid tracks the winner",
        f3(mape_of("video-transcode", "regression")),
        f3(mape_of("video-transcode", "ewma")),
        f3(mape_of("ml-inference", "ewma")),
        f3(mape_of("ml-inference", "regression")),
    );
    Report::new(out, &rows)
}
