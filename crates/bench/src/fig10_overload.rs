//! **Figure 10** — Overload-aware dispatch (robustness extension).
//!
//! An edge-primary NTC deployment under a flaky edge site (transient
//! faults plus a flapping availability trace), swept over arrival-rate
//! multipliers. Four health-layer variants run the *same* traffic:
//! everything off (the PR-3 engine), breakers + admission control,
//! hedging alone, and the full overload-aware stance. Expectation
//! (DESIGN.md §6): without the health layer, overload cascades — batches
//! queue into the flaky edge, burn retries there and miss deadlines; with
//! breakers + admission control the same traffic defers (NTC jobs have
//! the slack) or sheds down the chain, and hedging converts stragglers
//! into on-time completions. Goodput with the full stance dominates the
//! bare engine at every multiplier from 2× up.
//!
//! [`rows`] is public so the determinism test can run the exact sweep the
//! figure is built from at different thread counts and compare rows.

use crate::{f3, pct, Report, Table};
use ntc_core::{
    run_sweep_with, Backend, Engine, Environment, FaultConfig, HealthConfig, JobRetention,
    NtcConfig, OffloadPolicy, RunScratch,
};
use ntc_edge::EdgeConfig;
use ntc_json::ToJson;
use ntc_net::ConnectivityTrace;
use ntc_simcore::units::SimDuration;
use ntc_workloads::{Archetype, StreamSpec};

/// One measured (variant, multiplier) cell of Figure 10.
#[derive(Debug, Clone, PartialEq, ToJson)]
pub struct Row {
    /// Health-layer variant label.
    pub variant: String,
    /// Arrival-rate multiplier over the base traffic.
    pub multiplier: f64,
    /// Jobs arrived within the horizon.
    pub jobs: usize,
    /// Jobs that terminally failed.
    pub failures: u64,
    /// Jobs that completed after their deadline (or failed).
    pub deadline_misses: u64,
    /// Deadline-miss fraction.
    pub miss_rate: f64,
    /// Deadline-met completions per simulated hour — the goodput axis.
    pub goodput_per_hour: f64,
    /// Batches shed down their chain by admission control.
    pub sheds: u64,
    /// Dispatch deferrals granted by admission control.
    pub deferrals: u64,
    /// Dispatches redirected past an Open breaker.
    pub breaker_skips: u64,
    /// Hedged duplicates launched.
    pub hedges: u64,
    /// Hedges that beat their primary.
    pub hedges_won: u64,
    /// Hedges their primary beat.
    pub hedges_lost: u64,
    /// Breaker state transitions summed over all sites.
    pub breaker_transitions: u64,
    /// Total run cost in USD.
    pub total_cost_usd: f64,
}

/// The four health-layer variants of the figure, in plot order. The
/// thresholds are shared; only the mechanism switches differ. The queue
/// bound is sized to the experiment's two-slot edge (a couple of
/// batches deep), where the global default of 64 is sized to the
/// metro-reference 32-slot fleet and would never bind here.
fn variants() -> [(&'static str, HealthConfig); 4] {
    let base = HealthConfig {
        queue_bound: 6,
        defer_step: SimDuration::from_mins(5),
        ..HealthConfig::disabled()
    };
    [
        ("off", HealthConfig::disabled()),
        ("breakers+admission", HealthConfig { breakers: true, admission: true, ..base }),
        ("hedge", HealthConfig { hedge: true, ..base }),
        ("all-on", HealthConfig { breakers: true, admission: true, hedge: true, ..base }),
    ]
}

/// The arrival-rate multipliers swept.
const MULTIPLIERS: [f64; 5] = [1.0, 1.5, 2.0, 3.0, 4.0];

/// The environment all variants share: a metro reference deployment whose
/// edge site is flaky — transient invocation faults plus a flapping
/// availability trace — so breakers have something to trip on.
fn overload_environment() -> Environment {
    let mut env = Environment::metro_reference();
    // A deliberately small edge — one server, two slots — so the arrival
    // sweep actually drives it into saturation; the metro-reference
    // 32-slot fleet would absorb every multiplier here without queueing.
    env.edge = EdgeConfig { servers: 1, slots_per_server: 2, ..EdgeConfig::default() };
    let mut faults = FaultConfig::transient(0.12);
    // The edge flaps: 48 min up, 12 min down, every hour.
    faults.site_availability.insert(
        "edge".to_string(),
        ConnectivityTrace::new(
            SimDuration::from_hours(1),
            vec![(SimDuration::ZERO, true), (SimDuration::from_mins(48), false)],
        ),
    );
    env.faults = faults;
    env
}

/// The policy one variant runs: edge-primary, unbatched (deferral needs
/// per-batch slack, and batching would coalesce it away) NTC with the
/// variant's health configuration. Everything else stays at the NTC
/// defaults so the only degree of freedom across variants is the health
/// layer.
fn policy(health: HealthConfig) -> OffloadPolicy {
    OffloadPolicy::Ntc(NtcConfig {
        use_batching: false,
        primary_backend: Backend::Edge,
        health,
        ..Default::default()
    })
}

/// The base traffic at multiplier 1.0; rates scale linearly with the
/// multiplier. Three delay-tolerant streams (the deferral clientele)
/// plus one tight-deadline photo stream whose slack cannot absorb a
/// deferral — under saturation those batches must shed down the chain
/// instead of queueing into a miss.
fn specs(multiplier: f64) -> [StreamSpec; 4] {
    let mut tight = StreamSpec::poisson(Archetype::PhotoPipeline, 0.008 * multiplier);
    tight.slack_factor = 0.15;
    [
        StreamSpec::poisson(Archetype::PhotoPipeline, 0.02 * multiplier),
        StreamSpec::poisson(Archetype::MlInference, 0.012 * multiplier),
        StreamSpec::poisson(Archetype::LogAnalytics, 0.008 * multiplier),
        tight,
    ]
}

/// Runs the full (variant × multiplier) grid on `threads` workers and
/// returns the rows in grid order. Deterministic in `(seed, horizon,
/// multipliers)` and — by the sweep contract — independent of `threads`.
pub fn rows(seed: u64, horizon: SimDuration, multipliers: &[f64], threads: usize) -> Vec<Row> {
    let variants = variants();
    let grid: Vec<(f64, &(&'static str, HealthConfig))> =
        multipliers.iter().flat_map(|&m| variants.iter().map(move |v| (m, v))).collect();
    run_sweep_with(&grid, threads, RunScratch::new, |scratch, &(m, &(name, health)), _| {
        let engine = Engine::new(overload_environment(), seed);
        let (policy, specs) = (policy(health), specs(m));
        let r = engine.run_retained(seed, &policy, &specs, horizon, scratch, JobRetention::Full);
        let o = r.overload.clone().unwrap_or_default();
        Row {
            variant: name.to_string(),
            multiplier: m,
            jobs: r.jobs.len(),
            failures: r.failures(),
            deadline_misses: r.deadline_misses(),
            miss_rate: r.miss_rate(),
            goodput_per_hour: r.goodput_per_hour(),
            sheds: o.sheds,
            deferrals: o.deferrals,
            breaker_skips: o.breaker_skips,
            hedges: o.hedges,
            hedges_won: o.hedges_won,
            hedges_lost: o.hedges_lost,
            breaker_transitions: o.breaker_transitions.values().map(|&n| u64::from(n)).sum(),
            total_cost_usd: r.total_cost().as_usd_f64(),
        }
    })
}

/// Runs the experiment at `seed` on `threads` sweep workers.
pub fn run(seed: u64, threads: usize) -> Report {
    let horizon = SimDuration::from_hours(12);
    let rows = rows(seed, horizon, &MULTIPLIERS, threads);

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

    let mut out = format!("Figure 10 — overload sweep over {horizon} (seed {seed})\n\n");
    out.push_str(&table.render());
    outln!(out);

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
    outln!(
        out,
        "shape: all-on goodput >= off at every multiplier >= 2x: {all_on_dominates} | health layer visibly acts under overload: {health_acts} | bare engine records no health activity: {bare_is_inert}",
    );
    Report::new(out, &rows)
}
