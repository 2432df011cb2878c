//! Scenario tests of the release pipeline: long release sequences,
//! repeated regressions, recovery, and audit-trail integrity.

use ntc_cicd::{Outcome, Pipeline, ReleaseSpec, Stage};
use ntc_simcore::rng::RngStream;
use ntc_taskgraph::TaskGraph;
use ntc_workloads::Archetype;

fn app() -> TaskGraph {
    Archetype::LogAnalytics.graph()
}

fn release(version: u64, demand_factor: f64) -> ReleaseSpec {
    ReleaseSpec { version, graph: app(), demand_factor, noise_sigma: 0.08 }
}

#[test]
fn long_healthy_sequence_promotes_everything() {
    let mut p = Pipeline::new(RngStream::root(10));
    for v in 1..=20 {
        let r = p.run(&release(v, 1.0));
        assert!(matches!(r.outcome, Outcome::Promoted { .. }), "v{v} should promote");
    }
    assert_eq!(p.plan_history().len(), 20);
    assert_eq!(p.live_version(), Some(20));
}

#[test]
fn consecutive_regressions_all_bounce_off_the_same_baseline() {
    let mut p = Pipeline::new(RngStream::root(11));
    p.run(&release(1, 1.0));
    for v in 2..=5 {
        let r = p.run(&release(v, 2.5));
        assert!(matches!(r.outcome, Outcome::RolledBack { .. }), "v{v} should roll back");
        assert_eq!(p.live_version(), Some(1), "v1 must stay live through every bounce");
    }
    // A fixed release finally lands.
    let fixed = p.run(&release(6, 1.05));
    assert!(matches!(fixed.outcome, Outcome::Promoted { .. }));
    assert_eq!(p.live_version(), Some(6));
    assert_eq!(p.plan_history().len(), 2);
}

#[test]
fn gradual_drift_under_the_slo_is_never_caught() {
    // Each release drifts +20% against the previous *accepted* baseline —
    // under the 1.5x SLO, so the canary (by design) lets the frog boil.
    let mut p = Pipeline::new(RngStream::root(12));
    let mut factor = 1.0;
    for v in 1..=6 {
        let r = p.run(&release(v, factor));
        assert!(matches!(r.outcome, Outcome::Promoted { .. }), "v{v} drift within SLO");
        factor *= 1.2;
    }
    // Documented behaviour: rollback compares to the last *good* release,
    // so cumulative drift passes 2x overall without tripping — the
    // per-release SLO bounds the rate, not the total.
    assert_eq!(p.live_version(), Some(6));
}

#[test]
fn sudden_regression_after_drift_is_still_caught() {
    let mut p = Pipeline::new(RngStream::root(13));
    p.run(&release(1, 1.0));
    p.run(&release(2, 1.3));
    let bad = p.run(&release(3, 1.3 * 2.0));
    assert!(matches!(bad.outcome, Outcome::RolledBack { .. }));
    assert_eq!(p.live_version(), Some(2));
}

#[test]
fn first_release_has_no_baseline_and_always_promotes() {
    let mut p = Pipeline::new(RngStream::root(14));
    // Even a terrible first release promotes: there is nothing to compare
    // against (and nothing already in production to protect).
    let r = p.run(&release(1, 10.0));
    assert!(matches!(r.outcome, Outcome::Promoted { .. }));
}

#[test]
fn stage_durations_are_positive_and_ordered() {
    let mut p = Pipeline::new(RngStream::root(15));
    let r = p.run(&release(1, 1.0));
    let order: Vec<Stage> = r.stages.iter().map(|&(s, _)| s).collect();
    let expected_prefix = [Stage::Build, Stage::Test, Stage::Profile, Stage::Partition];
    assert_eq!(&order[..4], &expected_prefix);
    assert!(order.contains(&Stage::Deploy));
    assert!(order.last() == Some(&Stage::Promote));
    for &(stage, d) in &r.stages {
        assert!(d.as_micros() > 0 || stage == Stage::Partition, "{stage} has zero duration");
    }
}

#[test]
fn pipelines_are_deterministic_per_seed() {
    let run = |seed: u64| {
        let mut p = Pipeline::new(RngStream::root(seed));
        (1..=5).map(|v| p.run(&release(v, if v == 3 { 3.0 } else { 1.0 }))).collect::<Vec<_>>()
    };
    let a = run(99);
    let b = run(99);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x, y);
    }
    let c = run(100);
    assert!(a.iter().zip(&c).any(|(x, y)| x.total() != y.total()), "different seeds should differ");
}

#[test]
fn monitor_closes_the_iteration_loop() {
    use ntc_cicd::{MonitorAction, ProductionMonitor};

    let mut p = Pipeline::new(RngStream::root(16));
    p.run(&release(1, 1.0));
    let mut monitor: ProductionMonitor = p.start_monitor().expect("live release");

    // Steady production, then the runtime drifts +60 %.
    let baseline = monitor.baseline_demand();
    for _ in 0..400 {
        assert_eq!(monitor.observe(baseline), None);
    }
    let action = (0..300).find_map(|_| monitor.observe(baseline * 1.6));
    assert!(matches!(action, Some(MonitorAction::Reprofile(_))), "drift must be flagged");

    // The team iterates: a new release re-profiles the drifted demand.
    // (demand_factor carries the drift; the canary compares against v1's
    // baseline, and 1.6 is past the fixed 1.5x SLO, so this release rolls
    // back.)
    let attempted = p.run(&release(2, 1.6));
    assert!(matches!(attempted.outcome, Outcome::RolledBack { .. }));

    // A release just under the SLO lands, and the monitor is re-armed on
    // the new normal.
    let ok = p.run(&release(3, 1.4));
    assert!(matches!(ok.outcome, Outcome::Promoted { .. }));
    let m2 = p.start_monitor().expect("live release");
    assert!(m2.baseline_demand() > baseline * 1.3, "monitor re-baselined on the new demand");
}

#[test]
fn monitor_absent_before_any_promotion() {
    let p = Pipeline::new(RngStream::root(17));
    assert!(p.start_monitor().is_none());
}
