//! Metamorphic relations: pairs of runs whose results must be the same
//! bytes, compared through `RunResult::to_json`, or whose difference
//! the relation fixes.
//!
//! * Permuting the `StreamSpec` list changes nothing: a spec's jobs are
//!   keyed by its archetype and its rank among that archetype's specs
//!   (equal here, so their order does not matter either), every draw by
//!   its job, and deployments are made in archetype order.
//! * Appending a spec that makes no jobs changes nothing.
//! * A `FaultConfig` whose rates are all zero is no faults at all.
//! * Doubling every price doubles every cost, within the nano-dollar
//!   each billed item rounds to, and changes nothing else.
//! * Without faults, slack too large to run out lets `ntc` miss no
//!   deadline.
//!
//! Each relation is checked under every policy kind, with faults, breakers,
//! admission and hedges live where the relation allows.

use ntc_core::{
    Backend, Engine, Environment, FaultConfig, HealthConfig, JobRetention, NtcConfig,
    OffloadPolicy, RunResult, RunScratch,
};
use ntc_edge::EdgeConfig;
use ntc_simcore::units::{Money, SimDuration};
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

/// `env` with every price multiplied by `k`: the FaaS request, GB-second
/// and provisioned GB-second rates, the edge server-hour and the UE's
/// energy.
fn priced(env: &Environment, k: i64) -> Environment {
    let mut env = env.clone();
    let billing = &mut env.platform.billing;
    billing.per_request = billing.per_request * k;
    billing.per_gb_second = billing.per_gb_second * k;
    billing.per_gb_second_provisioned = billing.per_gb_second_provisioned * k;
    env.edge.cost_per_server_hour = env.edge.cost_per_server_hour * k;
    env.energy_price_per_joule = env.energy_price_per_joule * k;
    env
}

/// More items than `r` can have billed: every component of every job
/// on every attempt (coalesced batches bill fewer), each hedged
/// duplicate, a warm ping a minute for every component of every
/// archetype over the two-hour runs, the edge fleet and the UE's energy.
fn billed_items_bound(r: &RunResult) -> i64 {
    let invocations: u64 = r
        .jobs
        .iter()
        .map(|j| u64::from(j.attempts.max(1)) * j.archetype.graph().len() as u64)
        .sum();
    let hedges = r.overload.as_ref().map_or(0, |o| o.hedges);
    let pings: u64 = Archetype::all().iter().map(|a| 120 * a.graph().len() as u64).sum();
    (invocations + hedges + pings + 2) as i64
}

#[test]
fn doubling_every_price_doubles_every_cost() {
    let base = faulty();
    let doubled = priced(&base, 2);
    for seed in [3, 42] {
        for policy in policies() {
            let run = |env: &Environment| {
                Engine::new(env.clone(), seed).run_retained(
                    seed,
                    &policy,
                    &specs(),
                    SimDuration::from_hours(2),
                    &mut RunScratch::new(),
                    JobRetention::Full,
                )
            };
            let (one, two) = (run(&base), run(&doubled));
            // Each billed item rounds once to the nano-dollar, so its
            // doubled price can bill one nano-dollar off twice the
            // original; per request is exact.
            let bound = billed_items_bound(&one);
            for (what, a, b) in [
                ("cloud", one.cloud_cost, two.cloud_cost),
                ("edge", one.edge_cost, two.edge_cost),
                ("energy", one.device_energy_cost, two.device_energy_cost),
            ] {
                let off = (b.as_nano_usd() - 2 * a.as_nano_usd()).abs();
                assert!(off <= bound, "{policy} at seed {seed}: {what} {a} -> {b}, {off} n$ off");
            }
            assert!(one.total_cost() > Money::ZERO, "{policy} at seed {seed} bills nothing");
            // Prices move no decision: everything but the bills is equal.
            let mut rebilled = two;
            rebilled.cloud_cost = one.cloud_cost;
            rebilled.edge_cost = one.edge_cost;
            rebilled.device_energy_cost = one.device_energy_cost;
            assert_eq!(rebilled.to_json(), one.to_json(), "{policy} at seed {seed}");
        }
    }
}

#[test]
fn unbounded_slack_lets_ntc_miss_nothing_without_faults() {
    let env = Environment::metro_reference();
    let relaxed: Vec<StreamSpec> = specs().into_iter().map(|s| s.with_slack_factor(1e6)).collect();
    for seed in [3, 42] {
        for policy in [OffloadPolicy::ntc(), policies().pop().expect("five policies")] {
            let r = Engine::new(env.clone(), seed).run_retained(
                seed,
                &policy,
                &relaxed,
                SimDuration::from_hours(2),
                &mut RunScratch::new(),
                JobRetention::Full,
            );
            assert!(r.job_count() > 100, "{policy} at seed {seed}: {} jobs", r.job_count());
            assert_eq!(r.failures(), 0, "{policy} at seed {seed}");
            assert_eq!(r.deadline_misses(), 0, "{policy} at seed {seed}");
        }
    }
}
