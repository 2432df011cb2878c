//! Offloading as part of the release process: three releases ride the
//! CI/CD pipeline — a healthy one, a mild drift, and a bad regression
//! that the canary catches and rolls back.
//!
//! Run with: `cargo run --example cicd_rollout`

use ntc_cicd::{Outcome, Pipeline, ReleaseSpec, Stage};
use ntc_simcore::rng::RngStream;
use ntc_workloads::Archetype;

fn main() {
    let mut pipeline = Pipeline::new(RngStream::root(2024));
    let graph = Archetype::ReportRendering.graph();

    let releases = [
        (1u64, 1.0, "baseline release"),
        (2u64, 1.15, "mild demand drift (+15%)"),
        (3u64, 3.0, "bad release (3x demand regression)"),
        (4u64, 1.1, "fixed release"),
    ];

    for (version, demand_factor, label) in releases {
        let report = pipeline.run(&ReleaseSpec {
            version,
            graph: graph.clone(),
            demand_factor,
            noise_sigma: 0.08,
        });
        println!("release v{version} — {label}");
        for (stage, duration) in &report.stages {
            println!("  {:<10} {}", stage.to_string(), duration);
        }
        match &report.outcome {
            Outcome::Promoted { plan } => {
                println!(
                    "  => PROMOTED in {} ({} components offloaded)\n",
                    report.total(),
                    plan.offloaded().count()
                );
            }
            Outcome::RolledBack { regression } => {
                println!(
                    "  => ROLLED BACK: canary measured {regression:.2}x the last good demand (SLO 1.5x)\n"
                );
            }
        }
        assert!(
            report.stage(Stage::Partition).is_some(),
            "offload stages are part of the pipeline"
        );
    }

    println!(
        "live version after the rollout: v{} (the bad v3 never served traffic)",
        pipeline.live_version().expect("a release was promoted")
    );
    println!("plan audit trail: {} promoted plans", pipeline.plan_history().len());
    println!(
        "artifact registry holds {} versions of the render component",
        pipeline.registry().version_count("report-rendering/render")
    );
}
