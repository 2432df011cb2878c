//! **Figure 10** — Overload-aware dispatch (robustness extension).
//!
//! An edge-primary NTC stream over a sweep of arrival-rate multipliers,
//! against a flaky edge site, with the health layer's mechanisms toggled
//! per variant (see `ntc_bench::overload` for the shared sweep core).
//! Expectation (DESIGN.md §6): without the health layer, overload
//! cascades — batches queue into the flaky edge, burn retries there and
//! miss deadlines; with breakers + admission control the same traffic
//! defers (NTC jobs have the slack) or sheds down the chain, and hedging
//! converts stragglers into on-time completions. Goodput with the full
//! stance dominates the bare engine at every multiplier from 2× up.

use ntc_bench::overload::{self, MULTIPLIERS};
use ntc_bench::{f3, pct, seed_from_args, threads_from_args, write_json, Table};
use ntc_simcore::units::SimDuration;

fn main() {
    let seed = seed_from_args();
    let horizon = SimDuration::from_hours(12);
    let rows = overload::rows(seed, horizon, &MULTIPLIERS, threads_from_args());

    let mut table = Table::new([
        "variant",
        "mult",
        "jobs",
        "lost",
        "miss",
        "goodput/h",
        "sheds",
        "defers",
        "skips",
        "hedges",
        "won",
        "opens",
    ]);
    for r in &rows {
        table.row([
            r.variant.clone(),
            format!("{:.1}x", r.multiplier),
            r.jobs.to_string(),
            r.failures.to_string(),
            pct(r.miss_rate),
            f3(r.goodput_per_hour),
            r.sheds.to_string(),
            r.deferrals.to_string(),
            r.breaker_skips.to_string(),
            r.hedges.to_string(),
            r.hedges_won.to_string(),
            r.breaker_transitions.to_string(),
        ]);
    }

    println!("Figure 10 — overload sweep over {horizon} (seed {seed})\n");
    table.print();
    println!();

    // Shape checks: the full health stance never yields less goodput
    // than the bare engine at any multiplier >= 2x, the health layer
    // visibly acts (defers/sheds/skips) under overload, and the bare
    // engine records no health activity at all.
    let goodput = |variant: &str, m: f64| {
        rows.iter()
            .find(|r| r.variant == variant && r.multiplier == m)
            .map(|r| r.goodput_per_hour)
            .expect("grid covers every (variant, multiplier)")
    };
    let all_on_dominates = MULTIPLIERS
        .iter()
        .filter(|&&m| m >= 2.0)
        .all(|&m| goodput("all-on", m) >= goodput("off", m));
    let health_acts = rows
        .iter()
        .filter(|r| r.variant == "all-on" && r.multiplier >= 2.0)
        .all(|r| r.sheds + r.deferrals + r.breaker_skips + r.hedges > 0);
    let bare_is_inert = rows
        .iter()
        .filter(|r| r.variant == "off")
        .all(|r| r.sheds + r.deferrals + r.breaker_skips + r.hedges + r.breaker_transitions == 0);
    println!(
        "shape: all-on goodput >= off at every multiplier >= 2x: {all_on_dominates} | health layer visibly acts under overload: {health_acts} | bare engine records no health activity: {bare_is_inert}",
    );
    let path = write_json("fig10_overload", &rows);
    println!("series written to {}", path.display());
}
