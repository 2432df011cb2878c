//! Whole-engine invariants over random policies, health settings, faults
//! and archetype mixes: whatever the configuration, every generated job
//! gets exactly one result with a consistent timeline, and `Full` and
//! `Aggregates` retention report the same run.

use ntc_check::prelude::*;

use ntc_core::{
    Backend, Engine, Environment, FaultConfig, HealthConfig, JobRetention, NtcConfig,
    OffloadPolicy, RunResult, RunScratch,
};
use ntc_edge::EdgeConfig;
use ntc_net::ConnectivityTrace;
use ntc_simcore::metrics::Histogram;
use ntc_simcore::rng::RngStream;
use ntc_simcore::units::SimDuration;
use ntc_workloads::{generate_jobs_into, Archetype, StreamSpec};

/// The metro reference with a one-server, two-slot edge, so that queues,
/// admission and hedges bind, failing and throttling the given shares of
/// its invocations, dropping the given share of transfers and, with
/// `outage`, down the last 12 minutes of every hour.
fn environment(faults: (f64, f64, f64, bool)) -> Environment {
    let (transient, throttle, drop, outage) = faults;
    let mut env = Environment::metro_reference();
    env.edge = EdgeConfig { servers: 1, slots_per_server: 2, ..EdgeConfig::default() };
    env.faults = FaultConfig {
        throttle_rate: throttle,
        transfer_drop_rate: drop,
        ..FaultConfig::transient(transient)
    };
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

/// Everything a run reports that retention must not change: the counters,
/// each archetype's counts, and the latency count, min and max, which the
/// `Aggregates` sketch keeps exactly.
fn counters(r: &RunResult) -> String {
    let archetypes: Vec<_> = r
        .by_archetype()
        .iter()
        .map(|b| (b.archetype, b.jobs, b.misses, b.failures, b.latency.map(|l| l.count)))
        .collect();
    let latency = r.latency_summary().map(|s| (s.count, s.min, s.max));
    format!(
        "jobs {} misses {} miss rate {} failures {} attempts {} retries {} backoff {:?} \
         fallbacks {} causes {:?} goodput {} cloud {:?} edge {:?} energy {:?} up {:?} down {:?} \
         completions {:?} overload {:?} archetypes {archetypes:?} latency {latency:?}",
        r.job_count(),
        r.deadline_misses(),
        r.miss_rate(),
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
        r.completions_per_hour,
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
        faults in (0.0f64..0.3, 0.0f64..0.2, 0.0f64..0.2, any::<bool>()),
        run in (0u64..1_000, 1u64..4),
        mix in prop::collection::btree_set(0usize..Archetype::all().len(), 1..4),
        loads in prop::collection::vec((0.002f64..0.03, 0.05f64..4.0), 3..4),
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
        let (seed, hours) = run;
        let horizon = SimDuration::from_hours(hours);
        let specs: Vec<StreamSpec> = mix
            .iter()
            .zip(&loads)
            .map(|(&a, &(rate, slack))| {
                StreamSpec::poisson(Archetype::all()[a], rate).with_slack_factor(slack)
            })
            .collect();
        let engine = Engine::new(environment(faults), seed);
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

        prop_assert!(
            agg.jobs.is_empty() && agg.aggregates.is_some() && full.aggregates.is_none(),
            "{}: each retention keeps what it names", policy
        );
        prop_assert_eq!(counters(&full), counters(&agg), "{}: retention changed a counter", policy);

        // What the sketch approximates: the mean to the float error of
        // another summation order, the holds likewise (`Aggregates` sums
        // them in settlement order, `Full` in arrival order, so they can
        // differ in the last bit), and each percentile as a bucket upper
        // bound within the histogram's bound over the exact rank-ceil
        // order statistic of `Full`'s jobs.
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
        let bound = 1.0 + Histogram::RELATIVE_ERROR_BOUND;
        prop_assert!(close(agg.mean_hold_s(), full.mean_hold_s()), "{}: run hold", policy);
        for (f, a) in full.by_archetype().iter().zip(&agg.by_archetype()) {
            prop_assert!(close(a.mean_hold_s, f.mean_hold_s), "{}: {:?} hold", policy, f.archetype);
        }
        let mut lats: Vec<f64> = full.jobs.iter().map(|j| j.latency().as_secs_f64()).collect();
        lats.sort_by(f64::total_cmp);
        if let (Some(fs), Some(as_)) = (full.latency_summary(), agg.latency_summary()) {
            prop_assert!(close(as_.mean, fs.mean), "{}: mean {} vs {}", policy, as_.mean, fs.mean);
            for (q, got) in [(0.50, as_.p50), (0.95, as_.p95), (0.99, as_.p99)] {
                let k = ((q * lats.len() as f64).ceil() as usize).max(1);
                let exact = lats[k - 1];
                prop_assert!(
                    got + 1e-9 >= exact && got <= exact * bound + 1e-9,
                    "{}: p{} sketch {} outside the bound over {}", policy, q * 100.0, got, exact
                );
            }
        }
    }
}
