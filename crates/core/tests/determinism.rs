//! Determinism regression tests: the engine's reproducibility contract.
//!
//! The contract has three faces, and each one guards a different
//! optimisation in the kernel:
//!
//! * *run twice, same bytes* — the calendar event queue must preserve the
//!   heap's exact (time, FIFO) pop order;
//! * *fresh scratch vs reused scratch, same bytes* — [`RunScratch`] reuse
//!   must refill buffers, never leak state between runs, including the
//!   noise memo it keeps per input and the retention its accounting
//!   was last reset for (on fixed inputs, and as a property over random
//!   run sequences);
//! * *1 thread vs N threads, same bytes* — the sweep runner's derived
//!   seeds and order-stable collection must make thread count invisible.
//!
//! "Same bytes" is literal: results are compared through
//! `RunResult::to_json`, the writer behind every file the fig/tab
//! binaries commit to `results/`.

use ntc_check::prelude::*;

use ntc_core::{
    run_replications, Backend, Engine, Environment, FaultConfig, HealthConfig, JobRetention,
    NtcConfig, OffloadPolicy, RunScratch,
};
use ntc_edge::EdgeConfig;
use ntc_simcore::units::SimDuration;
use ntc_workloads::{Archetype, StreamSpec};

fn specs() -> [StreamSpec; 2] {
    [
        StreamSpec::poisson(Archetype::PhotoPipeline, 0.03),
        StreamSpec::poisson(Archetype::MlInference, 0.01),
    ]
}

/// Ten times [`specs`]' rates: over 45 minutes about 1,100 jobs per run,
/// so `cloud-all` heads as many batches and fills the noise memo, which a
/// later `ntc` run on the same input then reads.
fn busy_specs() -> [StreamSpec; 2] {
    [
        StreamSpec::poisson(Archetype::PhotoPipeline, 0.3),
        StreamSpec::poisson(Archetype::MlInference, 0.1),
    ]
}

/// fig10's overload point in miniature, at [`busy_specs`]' rates: a
/// two-slot edge with transient faults under unbatched, edge-primary NTC
/// with breakers, admission and hedges on. Every job heads its own batch,
/// so a run reads every slot of the noise memo, and retries and hedges
/// re-read slots their first attempt drew.
fn overload() -> (Environment, OffloadPolicy) {
    let mut env = Environment::metro_reference();
    env.edge = EdgeConfig { servers: 1, slots_per_server: 2, ..EdgeConfig::default() };
    env.faults = FaultConfig::transient(0.12);
    let health = HealthConfig {
        breakers: true,
        admission: true,
        hedge: true,
        queue_bound: 6,
        defer_step: SimDuration::from_mins(5),
    };
    let policy = OffloadPolicy::Ntc(NtcConfig {
        use_batching: false,
        primary_backend: Backend::Edge,
        health,
        ..Default::default()
    });
    (env, policy)
}

fn horizon() -> SimDuration {
    SimDuration::from_mins(45)
}

/// One seeded `Full` run on `scratch`, as JSON.
fn bytes(
    engine: &Engine,
    seed: u64,
    policy: &OffloadPolicy,
    specs: &[StreamSpec],
    scratch: &mut RunScratch,
) -> String {
    engine.run_retained(seed, policy, specs, horizon(), scratch, JobRetention::Full).to_json()
}

#[test]
fn same_seed_same_bytes_across_runs() {
    let engine = Engine::new(Environment::metro_reference(), 9);
    for policy in [OffloadPolicy::ntc(), OffloadPolicy::CloudAll, OffloadPolicy::LocalOnly] {
        let a = engine.run(&policy, &specs(), horizon());
        let b = engine.run(&policy, &specs(), horizon());
        assert_eq!(a.to_json(), b.to_json(), "two runs of {} diverged", policy.name());
    }
}

#[test]
fn reused_scratch_matches_fresh_run() {
    let engine = Engine::new(Environment::metro_reference(), 9);
    let points = [
        (OffloadPolicy::ntc(), specs()),
        (OffloadPolicy::CloudAll, busy_specs()),
        (OffloadPolicy::ntc(), busy_specs()),
    ];
    let runs: Vec<(u64, &OffloadPolicy, &[StreamSpec])> =
        (9..13).flat_map(|seed| points.iter().map(move |(p, s)| (seed, p, &s[..]))).collect();
    let fresh: Vec<String> = runs
        .iter()
        .map(|&(seed, p, s)| bytes(&engine, seed, p, s, &mut RunScratch::new()))
        .collect();
    // One scratch across all seeds and policies — and dirty it with a different workload first, so the test fails if any
    // buffer survives reset.
    let mut scratch = RunScratch::new();
    engine.run_retained(
        1234,
        &OffloadPolicy::EdgeAll,
        &[StreamSpec::poisson(Archetype::ReportRendering, 0.05)],
        SimDuration::from_mins(20),
        &mut scratch,
        JobRetention::Full,
    );
    for (&(seed, p, s), expected) in runs.iter().zip(&fresh) {
        let got = bytes(&engine, seed, p, s, &mut scratch);
        let rate = s[0].arrivals.mean_rate();
        assert_eq!(
            &got,
            expected,
            "reused scratch diverged: {} at {rate}/s, seed {seed}",
            p.name()
        );
    }
}

/// The specs a run of [`reuse_matches_fresh`] picks one or two of: few, so
/// that whole inputs repeat within a sequence. The third differs from the
/// first only in its slack factor.
fn spec_pool() -> [StreamSpec; 4] {
    [
        StreamSpec::poisson(Archetype::PhotoPipeline, 0.03),
        StreamSpec::poisson(Archetype::MlInference, 0.01),
        StreamSpec::poisson(Archetype::PhotoPipeline, 0.03).with_slack_factor(1.5),
        StreamSpec::poisson(Archetype::LogAnalytics, 0.02),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Over random sequences of (seed, specs, policy, horizon, retention),
    /// with seeds drawn from three so that inputs repeat, every run on one
    /// reused scratch writes the bytes it writes on a fresh one.
    #[test]
    fn reuse_matches_fresh(
        runs in prop::collection::vec(
            (
                0u64..3,
                prop::collection::vec(0usize..4, 1..3),
                0u8..5,
                1u64..3,
                any::<bool>(),
            ),
            2..6,
        ),
    ) {
        let (env, overload_policy) = overload();
        let engine = Engine::new(env, 0);
        let pool = spec_pool();
        let policies = [
            OffloadPolicy::LocalOnly,
            OffloadPolicy::EdgeAll,
            OffloadPolicy::CloudAll,
            OffloadPolicy::ntc(),
            overload_policy,
        ];
        let mut scratch = RunScratch::new();
        for (i, (seed, picks, kind, hours, aggregates)) in runs.iter().enumerate() {
            let specs: Vec<StreamSpec> = picks.iter().map(|&k| pool[k].clone()).collect();
            let policy = &policies[usize::from(*kind)];
            let horizon = SimDuration::from_hours(*hours);
            let retention =
                if *aggregates { JobRetention::Aggregates } else { JobRetention::Full };
            let run = |scratch: &mut RunScratch| {
                engine.run_retained(*seed, policy, &specs, horizon, scratch, retention).to_json()
            };
            let reused = run(&mut scratch);
            prop_assert!(reused == run(&mut RunScratch::new()), "run {} diverged on reuse", i);
        }
    }
}

#[test]
fn thread_count_is_invisible_in_replications() {
    let (overload_env, overload_policy) = overload();
    let metro = Environment::metro_reference();
    for (env, policy, specs) in [
        (&metro, OffloadPolicy::ntc(), specs()),
        (&metro, OffloadPolicy::CloudAll, busy_specs()),
        (&overload_env, overload_policy, busy_specs()),
    ] {
        let one = run_replications(env, &policy, &specs, horizon(), 70, 6, 1);
        for threads in [2, 3, 6, 8] {
            let many = run_replications(env, &policy, &specs, horizon(), 70, 6, threads);
            assert_eq!(one.len(), many.len());
            for (i, (a, b)) in one.iter().zip(&many).enumerate() {
                assert_eq!(
                    a.to_json(),
                    b.to_json(),
                    "{} replication {i} diverged between 1 and {threads} threads",
                    policy.name()
                );
            }
        }
    }
}
