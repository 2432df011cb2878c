//! Enterprise report rendering with eight hours of slack: the poster
//! child of a non-time-critical workload. Shows how much money
//! deadline-aware batching recovers, and that no report misses its
//! deadline.
//!
//! Run with: `cargo run --release --example nightly_reports`

use ntc_core::{Engine, Environment, NtcConfig, OffloadPolicy};
use ntc_simcore::units::SimDuration;
use ntc_workloads::{Archetype, StreamSpec};

fn main() {
    let env = Environment::metro_reference();
    let engine = Engine::new(env, 11);
    let horizon = SimDuration::from_hours(24);

    // Report requests trickle in all day; each must be delivered within
    // its slack (typical 8 h, scaled below).
    println!("Report-rendering day ({horizon}), batching on vs off, by deadline slack:\n");
    println!(
        "{:>8} {:>6} {:>12} {:>12} {:>9} {:>11} {:>8}",
        "slack", "jobs", "batched $", "eager $", "saving", "mean hold", "misses"
    );
    for factor in [0.125, 0.25, 0.5, 1.0] {
        let specs =
            [StreamSpec::poisson(Archetype::ReportRendering, 0.008).with_slack_factor(factor)];
        let batched = engine.run(&OffloadPolicy::ntc(), &specs, horizon);
        let eager = engine.run(
            &OffloadPolicy::Ntc(NtcConfig { use_batching: false, ..Default::default() }),
            &specs,
            horizon,
        );
        let cb = batched.total_cost().as_usd_f64();
        let ce = eager.total_cost().as_usd_f64();
        println!(
            "{:>7.1}h {:>6} {:>12.4} {:>12.4} {:>8.1}% {:>10.1}m {:>8}",
            8.0 * factor,
            batched.jobs.len(),
            cb,
            ce,
            (1.0 - cb / ce) * 100.0,
            batched.mean_hold_s() / 60.0,
            batched.deadline_misses(),
        );
    }

    println!();
    println!("Every report still lands inside its deadline: the framework holds jobs");
    println!("only as long as the per-job slack (minus a safety margin) allows, and");
    println!("coalesced render batches share one function invocation — the fixed");
    println!("template-compilation demand and the per-request fee are paid once per");
    println!("window instead of once per report.");
}
