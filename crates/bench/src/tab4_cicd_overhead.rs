//! **Table 4** — CI/CD pipeline overhead and canary safety.
//!
//! Runs 50 releases through the pipeline with and without the offloading
//! stages; 20 % of releases carry an injected demand regression.
//! Expectation (DESIGN.md §4): the offload stages add a bounded, mostly
//! profiling-budget overhead; the canary catches the injected regressions
//! and rollback keeps the previous plan live; healthy releases are not
//! falsely rolled back.

use crate::{f3, pct, Report, Table};
use ntc_cicd::{Outcome, Pipeline, ReleaseSpec, Stage};
use ntc_core::run_sweep;
use ntc_json::ToJson;
use ntc_simcore::rng::RngStream;
use ntc_simcore::units::SimDuration;
use ntc_workloads::Archetype;

#[derive(Debug, ToJson)]
struct Summary {
    variant: String,
    releases: u32,
    mean_duration_min: f64,
    profile_share_pct: f64,
    injected_regressions: u32,
    caught: u32,
    false_rollbacks: u32,
}

fn run_variant(offloading: bool, releases: u32, seed: u64) -> Summary {
    let root = RngStream::root(seed);
    let mut pipeline = if offloading { Pipeline::new(root) } else { Pipeline::conventional(root) };
    let mut rng = RngStream::root(seed).derive("inject");
    let graph = Archetype::ReportRendering.graph();

    let mut total = SimDuration::ZERO;
    let mut profile_total = SimDuration::ZERO;
    let mut injected = 0u32;
    let mut caught = 0u32;
    let mut false_rollbacks = 0u32;
    for v in 1..=u64::from(releases) {
        let bad = v > 1 && rng.chance(0.2);
        let demand_factor = if bad { 2.5 + rng.uniform() * 1.5 } else { 1.0 };
        if bad {
            injected += 1;
        }
        let report = pipeline.run(&ReleaseSpec {
            version: v,
            graph: graph.clone(),
            demand_factor,
            noise_sigma: 0.1,
        });
        total += report.total();
        profile_total += report.stage(Stage::Profile).unwrap_or(SimDuration::ZERO);
        match report.outcome {
            Outcome::RolledBack { .. } if bad => caught += 1,
            Outcome::RolledBack { .. } => false_rollbacks += 1,
            _ => {}
        }
    }
    Summary {
        variant: if offloading { "with offload stages".into() } else { "conventional".into() },
        releases,
        mean_duration_min: total.as_secs_f64() / 60.0 / f64::from(releases),
        profile_share_pct: 100.0 * profile_total.as_secs_f64() / total.as_secs_f64().max(1e-9),
        injected_regressions: injected,
        caught,
        false_rollbacks,
    }
}

/// Runs the experiment at `seed` on `threads` sweep workers.
pub fn run(seed: u64, threads: usize) -> Report {
    let releases = 50;
    // Each variant is an independent 50-release pipeline replay; the two
    // run side by side on the sweep pool.
    let variants = [true, false];
    let [with, without]: [Summary; 2] =
        run_sweep(&variants, threads, |&o, _| run_variant(o, releases, seed))
            .try_into()
            .expect("two variants");

    let mut table = Table::new([
        "variant",
        "releases",
        "mean duration (min)",
        "profile share",
        "injected",
        "caught",
        "false rollbacks",
    ]);
    for s in [&without, &with] {
        table.row([
            s.variant.clone(),
            s.releases.to_string(),
            f3(s.mean_duration_min),
            pct(s.profile_share_pct / 100.0),
            s.injected_regressions.to_string(),
            s.caught.to_string(),
            s.false_rollbacks.to_string(),
        ]);
    }

    let mut out = format!(
        "Table 4 — pipeline overhead and canary safety, {releases} releases (seed {seed})\n\n"
    );
    out.push_str(&table.render());
    outln!(out);
    let overhead = with.mean_duration_min - without.mean_duration_min;
    outln!(
        out,
        "shape: offload stages add {} min/release ({} of which is profiling budget) | canary catch rate {} | false rollbacks {}",
        f3(overhead),
        pct(with.profile_share_pct / 100.0),
        pct(if with.injected_regressions == 0 {
            1.0
        } else {
            f64::from(with.caught) / f64::from(with.injected_regressions)
        }),
        with.false_rollbacks,
    );
    Report::new(out, &[without, with])
}
