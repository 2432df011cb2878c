//! Whole-engine invariants over random policies, health settings, faults
//! and loads: whatever the configuration, every generated job gets
//! exactly one result with a consistent timeline, and `Full` and
//! `Aggregates` retention report the same run.

use ntc_check::prelude::*;

use ntc_core::{
    Backend, Engine, Environment, FaultConfig, HealthConfig, JobRetention, NtcConfig,
    OffloadPolicy, RunResult, RunScratch,
};
use ntc_edge::EdgeConfig;
use ntc_net::ConnectivityTrace;
use ntc_simcore::rng::RngStream;
use ntc_simcore::units::SimDuration;
use ntc_workloads::{generate_jobs_into, Archetype, StreamSpec};

/// The metro reference with a one-server, two-slot edge, so that queues,
/// admission and hedges bind, failing `transient` of its invocations and,
/// with `outage`, down the last 12 minutes of every hour.
fn environment(transient: f64, outage: bool) -> Environment {
    let mut env = Environment::metro_reference();
    env.edge = EdgeConfig { servers: 1, slots_per_server: 2, ..EdgeConfig::default() };
    env.faults = FaultConfig::transient(transient);
    if outage {
        env.faults.site_availability.insert(
            "edge".to_string(),
            ConnectivityTrace::new(
                SimDuration::from_hours(1),
                vec![(SimDuration::ZERO, true), (SimDuration::from_mins(48), false)],
            ),
        );
    }
    env
}

/// Kinds 0–2 are the baselines; the rest are NTC with the drawn
/// switches: edge primary, batching, retry and fallback.
fn policy(kind: u8, ntc: (bool, bool, bool, bool), health: HealthConfig) -> OffloadPolicy {
    let (edge, use_batching, retry, fallback) = ntc;
    match kind {
        0 => OffloadPolicy::LocalOnly,
        1 => OffloadPolicy::EdgeAll,
        2 => OffloadPolicy::CloudAll,
        _ => OffloadPolicy::Ntc(NtcConfig {
            primary_backend: if edge { Backend::Edge } else { Backend::Cloud },
            use_batching,
            retry,
            fallback,
            health,
            ..Default::default()
        }),
    }
}

/// The counters a run reports, read through the accessors that fold
/// `Full` runs' jobs and read `Aggregates` runs' fold.
fn counters(r: &RunResult) -> String {
    format!(
        "jobs {} misses {} failures {} attempts {} retries {} backoff {:?} fallbacks {} \
         causes {:?} goodput {} cloud {:?} edge {:?} energy {:?} up {:?} down {:?} overload {:?}",
        r.job_count(),
        r.deadline_misses(),
        r.failures(),
        r.total_attempts(),
        r.total_retries(),
        r.total_backoff(),
        r.total_fallbacks(),
        r.failure_causes(),
        r.goodput_per_hour(),
        r.cloud_cost,
        r.edge_cost,
        r.device_energy,
        r.bytes_up,
        r.bytes_down,
        r.overload,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_configuration_keeps_the_engine_invariants(
        kind in 0u8..6,
        ntc in (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
        switches in (any::<bool>(), any::<bool>(), any::<bool>()),
        sizes in (1u32..16, 1u64..30),
        transient in 0.0f64..0.3,
        outage in any::<bool>(),
        seed in 0u64..1_000,
        load in (1u64..4, 0.005f64..0.05),
    ) {
        let (breakers, admission, hedge) = switches;
        let health = HealthConfig {
            breakers,
            admission,
            hedge,
            queue_bound: sizes.0,
            defer_step: SimDuration::from_mins(sizes.1),
        };
        let policy = policy(kind, ntc, health);
        let horizon = SimDuration::from_hours(load.0);
        let specs = [
            StreamSpec::poisson(Archetype::PhotoPipeline, load.1),
            StreamSpec::poisson(Archetype::MlInference, load.1).with_slack_factor(0.5),
        ];
        let engine = Engine::new(environment(transient, outage), seed);
        let full = engine.run_retained(
            seed, &policy, &specs, horizon, &mut RunScratch::new(), JobRetention::Full,
        );
        let agg = engine.run_retained(
            seed, &policy, &specs, horizon, &mut RunScratch::new(), JobRetention::Aggregates,
        );

        // One result per generated job.
        let mut generated = Vec::new();
        let rng = RngStream::root(seed).derive("engine").derive("jobs");
        generate_jobs_into(&specs, horizon, &rng, &mut generated);
        let mut ids: Vec<u64> = full.jobs.iter().map(|j| j.id).collect();
        ids.sort_unstable();
        prop_assert!(
            ids.iter().copied().eq(0..generated.len() as u64),
            "{}: {} results for {} generated jobs", policy, ids.len(), generated.len()
        );

        for j in &full.jobs {
            prop_assert!(
                j.arrival <= j.dispatched && j.dispatched <= j.finish,
                "{}: job {} runs {} → {} → {}", policy, j.id, j.arrival, j.dispatched, j.finish
            );
            prop_assert_eq!(j.failed, j.cause.is_some(), "{}: job {} cause {:?}", policy, j.id, j.cause);
            prop_assert!(
                j.backoff <= j.finish - j.dispatched,
                "{}: job {} backed off {} in {} → {}", policy, j.id, j.backoff, j.dispatched, j.finish
            );
        }

        prop_assert_eq!(counters(&full), counters(&agg), "{}: retention changed a counter", policy);
    }
}
