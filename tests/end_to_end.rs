//! Cross-crate integration tests: full pipelines from workload generation
//! through deployment, execution and accounting.

use ntc_offload::core::{across, run_replications, Engine, Environment, NtcConfig, OffloadPolicy};
use ntc_offload::simcore::units::{DataSize, Money, SimDuration};
use ntc_offload::workloads::{Archetype, StreamSpec};

fn engine(seed: u64) -> Engine {
    Engine::new(Environment::metro_reference(), seed)
}

#[test]
fn every_archetype_completes_under_every_policy() {
    let e = engine(1);
    let horizon = SimDuration::from_hours(1);
    for a in Archetype::all() {
        let specs = [StreamSpec::poisson(a, 0.01)];
        for policy in [
            OffloadPolicy::LocalOnly,
            OffloadPolicy::EdgeAll,
            OffloadPolicy::CloudAll,
            OffloadPolicy::ntc(),
        ] {
            let r = e.run(&policy, &specs, horizon);
            assert_eq!(r.failures(), 0, "{a} under {policy} had failures");
            for j in &r.jobs {
                assert!(j.finish >= j.dispatched, "{a}/{policy}: finish before dispatch");
                assert!(j.dispatched >= j.arrival, "{a}/{policy}: dispatch before arrival");
            }
        }
    }
}

#[test]
fn headline_claims_hold_on_a_mixed_day() {
    let e = engine(5);
    let horizon = SimDuration::from_hours(12);
    let specs = [
        StreamSpec::diurnal(Archetype::PhotoPipeline, 0.02),
        StreamSpec::poisson(Archetype::ReportRendering, 0.005),
        StreamSpec::poisson(Archetype::LogAnalytics, 0.008),
        StreamSpec::poisson(Archetype::DocIndexing, 0.005),
    ];
    let local = e.run(&OffloadPolicy::LocalOnly, &specs, horizon);
    let edge = e.run(&OffloadPolicy::EdgeAll, &specs, horizon);
    let cloud = e.run(&OffloadPolicy::CloudAll, &specs, horizon);
    let ntc = e.run(&OffloadPolicy::ntc(), &specs, horizon);

    // The abstract's promises:
    assert!(ntc.total_cost() <= cloud.total_cost(), "ntc must not out-spend cloud-all");
    assert!(ntc.total_cost() < edge.total_cost(), "pay-per-use beats idle edge infra here");
    assert!(
        ntc.device_energy.as_joules_f64() < local.device_energy.as_joules_f64() / 2.0,
        "offloading must relieve the battery"
    );
    assert_eq!(ntc.deadline_misses(), 0, "slack-aware holding never misses");
}

#[test]
fn ablations_produce_distinct_deployable_policies() {
    let mut names = std::collections::HashSet::new();
    for cfg in [
        NtcConfig::default(),
        NtcConfig { use_profiler: false, ..Default::default() },
        NtcConfig { use_partitioner: false, ..Default::default() },
        NtcConfig { use_allocator: false, ..Default::default() },
        NtcConfig { use_batching: false, ..Default::default() },
    ] {
        assert!(names.insert(OffloadPolicy::Ntc(cfg).name()), "duplicate policy name");
    }
}

#[test]
fn doc_indexing_stays_mostly_local_under_ntc() {
    // The transfer-dominated archetype: min-cut should refuse to ship the
    // corpus over the WAN.
    let rng = ntc_offload::simcore::rng::RngStream::root(9).derive("engine");
    let d = ntc_offload::core::deploy(
        &OffloadPolicy::ntc(),
        Archetype::DocIndexing,
        &Environment::metro_reference(),
        0.01,
        Archetype::DocIndexing.typical_slack(),
        &rng,
    );
    assert!(
        d.plan.offloaded().count() <= 1,
        "doc-indexing should keep the heavy-data stages local, got {:?}",
        d.plan
    );
}

#[test]
fn sci_sweep_offloads_under_ntc() {
    // The compute-dominated archetype: the 60 Gcyc simulation must move.
    let rng = ntc_offload::simcore::rng::RngStream::root(9).derive("engine");
    let d = ntc_offload::core::deploy(
        &OffloadPolicy::ntc(),
        Archetype::SciSweep,
        &Environment::metro_reference(),
        0.002,
        Archetype::SciSweep.typical_slack(),
        &rng,
    );
    assert!(d.plan.offloaded().count() >= 2, "sci-sweep compute should offload, got {:?}", d.plan);
}

#[test]
fn replications_are_deterministic_and_independent() {
    let env = Environment::metro_reference();
    let specs = [StreamSpec::poisson(Archetype::MlInference, 0.02)];
    let horizon = SimDuration::from_mins(30);
    let a = run_replications(&env, &OffloadPolicy::ntc(), &specs, horizon, 77, 3, 3);
    let b = run_replications(&env, &OffloadPolicy::ntc(), &specs, horizon, 77, 3, 1);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.jobs, y.jobs);
        assert_eq!(x.cloud_cost, y.cloud_cost);
    }
    let costs = across(&a, |r| r.total_cost().as_usd_f64());
    assert_eq!(costs.n, 3);
}

#[test]
fn zero_traffic_day_is_free_on_the_cloud_but_not_on_the_edge() {
    let e = engine(3);
    let specs = [StreamSpec::poisson(Archetype::SciSweep, 0.0)];
    let horizon = SimDuration::from_hours(24);
    let cloud = e.run(&OffloadPolicy::CloudAll, &specs, horizon);
    let edge = e.run(&OffloadPolicy::EdgeAll, &specs, horizon);
    assert!(cloud.jobs.is_empty() && edge.jobs.is_empty());
    assert_eq!(cloud.total_cost(), Money::ZERO, "pay-per-use: no jobs, no bill");
    assert!(edge.total_cost() > Money::from_usd(30), "the edge bills around the clock");
}

#[test]
fn bytes_accounting_is_consistent() {
    let e = engine(13);
    let specs = [StreamSpec::poisson(Archetype::PhotoPipeline, 0.02)];
    let r = e.run(&OffloadPolicy::CloudAll, &specs, SimDuration::from_hours(2));
    // Every job uploads at least its input and downloads at least the
    // result notification.
    let total_inputs: u64 = r.jobs.len() as u64;
    assert!(r.bytes_up >= DataSize::from_mib(total_inputs), "uploads look too small");
    assert!(r.bytes_down.as_bytes() >= total_inputs * 100 * 1024, "missing result returns");
}
