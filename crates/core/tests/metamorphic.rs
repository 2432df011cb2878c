//! Metamorphic relations: pairs of runs whose results must be the same
//! bytes, compared through `RunResult::to_json`.
//!
//! * Permuting the `StreamSpec` list changes nothing: a spec's jobs are
//!   keyed by its archetype and its rank among that archetype's specs
//!   (equal here, so their order does not matter either), every draw by
//!   its job, and deployments are made in archetype order.
//! * Appending a spec that makes no jobs changes nothing.
//! * A `FaultConfig` whose rates are all zero is no faults at all.
//!
//! Each relation is checked under every policy kind, with faults, breakers,
//! admission and hedges live where the relation allows.

use ntc_core::{
    Backend, Engine, Environment, FaultConfig, HealthConfig, JobRetention, NtcConfig,
    OffloadPolicy, RunScratch,
};
use ntc_edge::EdgeConfig;
use ntc_simcore::units::SimDuration;
use ntc_workloads::{Archetype, StreamSpec};

/// Four archetypes, one of them twice with the same spec, at rates that
/// batch, queue and fail over two hours.
fn specs() -> Vec<StreamSpec> {
    vec![
        StreamSpec::poisson(Archetype::PhotoPipeline, 0.05),
        StreamSpec::diurnal(Archetype::MlInference, 0.08),
        StreamSpec::poisson(Archetype::LogAnalytics, 0.02).with_slack_factor(0.5),
        StreamSpec::poisson(Archetype::PhotoPipeline, 0.05),
        StreamSpec::poisson(Archetype::ReportRendering, 0.01),
    ]
}

/// A two-slot edge with transient faults, dropped transfers and an hourly
/// outage.
fn faulty() -> Environment {
    let mut env = Environment::metro_reference();
    env.edge = EdgeConfig { servers: 1, slots_per_server: 2, ..EdgeConfig::default() };
    env.faults = FaultConfig { transfer_drop_rate: 0.1, ..FaultConfig::transient(0.1) };
    env.faults.site_availability.insert(
        "edge".to_string(),
        ntc_net::ConnectivityTrace::new(
            SimDuration::from_hours(1),
            vec![(SimDuration::ZERO, true), (SimDuration::from_mins(50), false)],
        ),
    );
    env
}

/// Every policy kind, the last with the whole health layer on.
fn policies() -> Vec<OffloadPolicy> {
    let health = HealthConfig {
        breakers: true,
        admission: true,
        hedge: true,
        queue_bound: 6,
        defer_step: SimDuration::from_mins(5),
        ..HealthConfig::disabled()
    };
    vec![
        OffloadPolicy::LocalOnly,
        OffloadPolicy::EdgeAll,
        OffloadPolicy::CloudAll,
        OffloadPolicy::ntc(),
        OffloadPolicy::Ntc(NtcConfig {
            use_batching: false,
            primary_backend: Backend::Edge,
            health,
            ..Default::default()
        }),
    ]
}

/// One seeded `Full` run over two hours, as JSON.
fn bytes(env: &Environment, seed: u64, policy: &OffloadPolicy, specs: &[StreamSpec]) -> String {
    Engine::new(env.clone(), seed)
        .run_retained(
            seed,
            policy,
            specs,
            SimDuration::from_hours(2),
            &mut RunScratch::new(),
            JobRetention::Full,
        )
        .to_json()
}

#[test]
fn permuting_the_specs_changes_nothing() {
    let env = faulty();
    let original = specs();
    let mut reversed = original.clone();
    reversed.reverse();
    let mut rotated = original.clone();
    rotated.rotate_left(2);
    for seed in [3, 42] {
        for policy in policies() {
            let want = bytes(&env, seed, &policy, &original);
            for permuted in [&reversed, &rotated] {
                let got = bytes(&env, seed, &policy, permuted);
                assert_eq!(got, want, "{policy} at seed {seed}, specs {permuted:?}");
            }
        }
    }
}

#[test]
fn appending_a_spec_without_jobs_changes_nothing() {
    let env = faulty();
    let mut extended = specs();
    extended.push(StreamSpec::poisson(Archetype::MlInference, 0.0));
    for policy in policies() {
        assert_eq!(
            bytes(&env, 5, &policy, &extended),
            bytes(&env, 5, &policy, &specs()),
            "{policy}"
        );
    }
}

#[test]
fn a_fault_config_of_zero_rates_is_no_faults() {
    let none = Environment::metro_reference();
    let mut zero = none.clone();
    zero.faults = FaultConfig { transfer_drop_rate: 0.0, ..FaultConfig::transient(0.0) };
    zero.faults.transfer_progress_loss = 0.5;
    for policy in policies() {
        assert_eq!(
            bytes(&zero, 5, &policy, &specs()),
            bytes(&none, 5, &policy, &specs()),
            "{policy}"
        );
    }
}
