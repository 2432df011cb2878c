//! End-to-end engine behaviour tests, run against the full site pipeline.

use ntc_simcore::units::{DataSize, Energy, SimDuration};
use ntc_workloads::{Archetype, StreamSpec};

use crate::engine::Engine;
use crate::environment::Environment;
use crate::policy::{Backend, OffloadPolicy};

fn engine() -> Engine {
    Engine::new(Environment::metro_reference(), 7)
}

fn photo_specs(rate: f64) -> [StreamSpec; 1] {
    [StreamSpec::poisson(Archetype::PhotoPipeline, rate)]
}

/// Runs `f` on a `Run` over what a finished run under `env` left in its
/// scratch `s` (deployments, batches, ledgers, a drained calendar) and a
/// fresh site registry, to replay one decision of the loop in a state
/// the test sets up.
fn replay<R>(
    env: &Environment,
    s: &mut crate::engine::RunScratch,
    f: impl FnOnce(&mut crate::engine::Run<'_>) -> R,
) -> R {
    use ntc_simcore::rng::RngStream;
    use ntc_simcore::units::SimTime;

    let rng = RngStream::root(7).derive("engine");
    let ctx = crate::engine::RunCtx {
        env,
        deployments: &s.deployments,
        jobs: &s.jobs,
        batches: &s.batches,
        members: &s.members,
        local_override: &s.local_override,
        pings: &s.pings,
        retry: true,
        horizon_end: SimTime::ZERO + SimDuration::from_hours(1),
    };
    f(&mut crate::engine::Run {
        ctx: &ctx,
        sites: crate::site::SiteRegistry::standard(env, &rng),
        sim: &mut s.sim,
        states: &mut s.states,
        acct: &mut s.acct,
        noise: &mut s.noise,
        health: &mut s.health,
        health_rng: rng.derive("health"),
        hedges: &mut s.hedges,
    })
}

#[test]
fn all_jobs_complete_under_every_policy() {
    let e = engine();
    let horizon = SimDuration::from_hours(2);
    for policy in [
        OffloadPolicy::LocalOnly,
        OffloadPolicy::EdgeAll,
        OffloadPolicy::CloudAll,
        OffloadPolicy::ntc(),
    ] {
        let r = e.run(&policy, &photo_specs(0.02), horizon);
        assert!(!r.jobs.is_empty(), "{policy}: no jobs ran");
        assert_eq!(r.failures(), 0, "{policy}: unexpected failures");
        for j in &r.jobs {
            assert!(j.finish >= j.arrival, "{policy}: job finished before arriving");
        }
    }
}

#[test]
fn every_job_gets_a_result() {
    let e = engine();
    for policy in [OffloadPolicy::CloudAll, OffloadPolicy::ntc()] {
        let r = e.run(&policy, &photo_specs(0.05), SimDuration::from_hours(2));
        let mut ids: Vec<u64> = r.jobs.iter().map(|j| j.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), r.jobs.len(), "{policy}: duplicate results");
    }
}

#[test]
fn local_only_costs_no_money_but_burns_battery() {
    let e = engine();
    let r = e.run(&OffloadPolicy::LocalOnly, &photo_specs(0.02), SimDuration::from_hours(1));
    assert_eq!(r.cloud_cost, ntc_simcore::units::Money::ZERO);
    assert_eq!(r.edge_cost, ntc_simcore::units::Money::ZERO);
    assert!(r.device_energy > Energy::ZERO);
    assert_eq!(r.bytes_up, DataSize::ZERO);
}

#[test]
fn cloud_all_moves_bytes_and_money() {
    let e = engine();
    let r = e.run(&OffloadPolicy::CloudAll, &photo_specs(0.02), SimDuration::from_hours(1));
    assert!(r.cloud_cost > ntc_simcore::units::Money::ZERO);
    assert!(r.bytes_up > DataSize::ZERO);
    assert!(r.bytes_down > DataSize::ZERO);
    assert_eq!(r.edge_cost, ntc_simcore::units::Money::ZERO);
}

#[test]
fn edge_all_pays_infrastructure_even_when_idle() {
    let e = engine();
    let r = e.run(&OffloadPolicy::EdgeAll, &photo_specs(0.001), SimDuration::from_hours(1));
    assert!(r.edge_cost > ntc_simcore::units::Money::ZERO);
    assert_eq!(r.cloud_cost, ntc_simcore::units::Money::ZERO);
}

/// Provisioned concurrency, NTC's warming on a platform that reaps at
/// once, is billed to the horizon even when the run drains earlier: here
/// no job arrives at all.
#[test]
fn provisioned_concurrency_is_billed_to_the_horizon() {
    let mut env = Environment::metro_reference();
    env.platform.keep_alive = ntc_serverless::KeepAlive::None;
    let e = Engine::new(env, 7);
    let cost = |hours| {
        let r = e.run(&OffloadPolicy::ntc(), &photo_specs(0.0), SimDuration::from_hours(hours));
        assert_eq!(r.job_count(), 0);
        r.cloud_cost
    };
    assert!(cost(2) > cost(1) && cost(1) > ntc_simcore::units::Money::ZERO);
}

#[test]
fn offloading_beats_local_latency_for_heavy_work() {
    let e = engine();
    let specs = [StreamSpec::poisson(Archetype::SciSweep, 0.002)];
    let horizon = SimDuration::from_hours(4);
    let local = e.run(&OffloadPolicy::LocalOnly, &specs, horizon);
    let cloud = e.run(&OffloadPolicy::CloudAll, &specs, horizon);
    let l50 = local.latency_summary().unwrap().p50;
    let c50 = cloud.latency_summary().unwrap().p50;
    // The default cloud function gets one 2.5 GHz vCPU vs the 1.5 GHz
    // UE core: ~1.7× faster even after paying the WAN transfers.
    assert!(c50 < l50 * 0.7, "cloud p50 {c50}s should beat local {l50}s");
}

#[test]
fn ntc_is_cheaper_than_cloud_all() {
    let e = engine();
    let specs = [StreamSpec::poisson(Archetype::ReportRendering, 0.01)];
    let horizon = SimDuration::from_hours(6);
    let naive = e.run(&OffloadPolicy::CloudAll, &specs, horizon);
    let ntc = e.run(&OffloadPolicy::ntc(), &specs, horizon);
    assert!(
        ntc.total_cost() <= naive.total_cost(),
        "ntc {} should not out-cost cloud-all {}",
        ntc.total_cost(),
        naive.total_cost()
    );
    assert_eq!(ntc.miss_rate(), 0.0, "slack is huge; nothing should miss");
}

#[test]
fn batching_coalesces_jobs_and_meets_deadlines() {
    let e = engine();
    let specs = [StreamSpec::poisson(Archetype::ReportRendering, 0.01)];
    let r = e.run(&OffloadPolicy::ntc(), &specs, SimDuration::from_hours(4));
    let held = r.jobs.iter().filter(|j| j.dispatched > j.arrival).count();
    assert!(held > 0, "batching should hold at least some jobs");
    assert_eq!(r.deadline_misses(), 0);
    // Coalescing: several jobs share a finish instant.
    let mut finishes: Vec<_> = r.jobs.iter().map(|j| j.finish).collect();
    finishes.sort_unstable();
    finishes.dedup();
    assert!(finishes.len() < r.jobs.len(), "some jobs should share a batch");
}

#[test]
fn mean_hold_is_the_arrival_order_fold_of_a_full_run() {
    let specs = [
        StreamSpec::poisson(Archetype::ReportRendering, 0.01),
        StreamSpec::poisson(Archetype::PhotoPipeline, 0.02),
    ];
    let r = engine().run(&OffloadPolicy::ntc(), &specs, SimDuration::from_hours(4));
    let fold: f64 = r.jobs.iter().map(|j| (j.dispatched - j.arrival).as_secs_f64()).sum();
    assert!(fold > 0.0, "batching should hold some jobs");
    assert_eq!(r.mean_hold_s().to_bits(), (fold / r.jobs.len() as f64).to_bits());
    let empty = engine().run(&OffloadPolicy::ntc(), &[], SimDuration::from_hours(1));
    assert_eq!(empty.mean_hold_s().to_bits(), 0.0_f64.to_bits());
}

#[test]
fn sparse_traffic_deployment_warms_and_stays_mostly_warm() {
    // 1 job / 25 min < the 10-min platform TTL: the deployment picks a
    // warmer, and the engine's periodic pings keep tails down.
    let e = engine();
    let specs = [StreamSpec::poisson(Archetype::MlInference, 1.0 / 1500.0)];
    let r = e.run(&OffloadPolicy::ntc(), &specs, SimDuration::from_hours(12));
    assert!(!r.jobs.is_empty());
    assert_eq!(r.failures(), 0);
    // With warming, p95 should sit close to p50 (no pervasive cold tail).
    let s = r.latency_summary().unwrap();
    assert!(s.p95 < s.p50 * 20.0, "p95 {} vs p50 {}", s.p95, s.p50);
    // And the run still costs money (pings and invocations are billed).
    assert!(r.cloud_cost > ntc_simcore::units::Money::ZERO);
}

#[test]
fn bursty_stream_survives_end_to_end() {
    let e = engine();
    let specs = [StreamSpec::bursty(
        Archetype::LogAnalytics,
        0.005,
        1.0,
        SimDuration::from_mins(30),
        SimDuration::from_mins(2),
    )];
    for policy in [OffloadPolicy::CloudAll, OffloadPolicy::ntc()] {
        let r = e.run(&policy, &specs, SimDuration::from_hours(6));
        assert_eq!(r.failures(), 0, "{policy}");
        assert_eq!(r.deadline_misses(), 0, "{policy}");
    }
}

#[test]
fn hourly_completions_sum_to_job_count() {
    let e = engine();
    let r = e.run(&OffloadPolicy::ntc(), &photo_specs(0.05), SimDuration::from_hours(3));
    let total: u64 =
        (0..r.completions_per_hour.len()).map(|i| r.completions_per_hour.count(i)).sum();
    assert_eq!(total, r.jobs.len() as u64);
}

#[test]
fn runs_are_reproducible() {
    let e = engine();
    let a = e.run(&OffloadPolicy::ntc(), &photo_specs(0.02), SimDuration::from_hours(1));
    let b = e.run(&OffloadPolicy::ntc(), &photo_specs(0.02), SimDuration::from_hours(1));
    assert_eq!(a.jobs, b.jobs);
    assert_eq!(a.cloud_cost, b.cloud_cost);
    assert_eq!(a.device_energy, b.device_energy);
}

#[test]
fn empty_spec_list_yields_an_empty_result() {
    let e = engine();
    let r = e.run(&OffloadPolicy::ntc(), &[], SimDuration::from_hours(1));
    assert!(r.jobs.is_empty());
    assert_eq!(r.total_cost(), ntc_simcore::units::Money::ZERO);
    assert_eq!(r.device_energy, Energy::ZERO);
}

#[test]
fn different_seeds_differ() {
    let a = Engine::new(Environment::metro_reference(), 1).run(
        &OffloadPolicy::ntc(),
        &photo_specs(0.02),
        SimDuration::from_hours(1),
    );
    let b = Engine::new(Environment::metro_reference(), 2).run(
        &OffloadPolicy::ntc(),
        &photo_specs(0.02),
        SimDuration::from_hours(1),
    );
    assert_ne!(a.jobs, b.jobs);
}

/// Every remote site of every chain hosts every offloaded component:
/// the breaker, hedge and fallback walks rely on it when they move a
/// batch along its chain without asking whether the site can serve it.
/// The baselines never fall back; NTC runs with either primary, with
/// fallback on and off.
#[test]
fn provisioned_chains_serve_every_offloaded_component() {
    use ntc_simcore::event::Simulator;
    use ntc_simcore::rng::RngStream;
    use ntc_simcore::units::{Cycles, SimTime};

    use crate::deploy::{deploy, Deployment};
    use crate::policy::NtcConfig;
    use crate::site::SiteRegistry;

    let env = Environment::metro_reference();
    let rng = RngStream::root(7);
    let mut policies =
        vec![OffloadPolicy::LocalOnly, OffloadPolicy::EdgeAll, OffloadPolicy::CloudAll];
    for primary_backend in [Backend::Cloud, Backend::Edge] {
        for fallback in [true, false] {
            let cfg = NtcConfig { primary_backend, fallback, ..Default::default() };
            policies.push(OffloadPolicy::Ntc(cfg));
        }
    }
    for policy in policies {
        let deployments: Vec<Deployment> = Archetype::all()
            .into_iter()
            .map(|a| deploy(&policy, a, &env, 0.05, a.typical_slack(), &rng))
            .collect();
        let mut sites = SiteRegistry::standard(&env, &rng);
        let (mut sim, mut pings) = (Simulator::new(), Vec::new());
        super::execute::provision_deployments(&deployments, &mut sites, &mut sim, &mut pings);
        // An hour in, every edge installation has finished.
        let at = SimTime::from_hours(1);
        for (di, d) in deployments.iter().enumerate() {
            for comp in d.plan.offloaded() {
                for &site in d.site_chain.iter().filter(|s| s.is_remote()) {
                    let out = sites.invoke(site, at, di, comp, Cycles::new(1_000_000));
                    assert!(out.is_ok(), "{}: {} on {site}: {out:?}", policy.name(), d.archetype);
                }
            }
        }
    }
}

/// A cloud-primary NTC batch that admission sheds down its
/// `[cloud, device]` chain runs every component on its members' devices:
/// each of its components, executed again, finishes on the device, and
/// the batch sends nothing up. One in-flight invocation
/// saturates the cloud, and a tenth of the usual slack leaves no room to
/// defer, so a batch dispatched while another runs sheds.
#[test]
fn a_batch_shed_to_the_device_runs_every_component_there() {
    use ntc_faults::HealthConfig;
    use ntc_partition::Side;

    use crate::engine::admission::members_of;
    use crate::engine::{JobRetention, RunScratch};
    use crate::policy::NtcConfig;
    use crate::site::Site;

    let health = HealthConfig { admission: true, queue_bound: 1, ..HealthConfig::disabled() };
    let policy =
        OffloadPolicy::Ntc(NtcConfig { use_batching: false, health, ..Default::default() });
    let specs = [StreamSpec::poisson(Archetype::PhotoPipeline, 0.05).with_slack_factor(0.1)];
    let mut scratch = RunScratch::new();
    let horizon = SimDuration::from_hours(2);
    let r = engine().run_retained(7, &policy, &specs, horizon, &mut scratch, JobRetention::Full);
    let d = &scratch.deployments[0];
    assert_eq!(d.site_chain, [Site::Cloud, Site::Device]);
    let (shed, admitted): (Vec<usize>, Vec<usize>) =
        (0..scratch.batches.len()).partition(|&bi| scratch.states.chain_pos(bi) == 1);
    assert_eq!(r.overload.as_ref().expect("health layer on").sheds, shed.len() as u64);
    assert!(!shed.is_empty() && !admitted.is_empty(), "{} shed", shed.len());
    let env = Environment::metro_reference();
    let t = ntc_simcore::units::SimTime::from_secs(1);
    let comps: Vec<_> = d.graph.ids().collect();
    for &bi in &shed {
        for &c in &comps {
            let done = replay(&env, &mut scratch, |run| {
                run.exec(t, bi, c);
                run.sim.step().map(|(_, ev)| ev)
            });
            let Some(crate::engine::Ev::Done(_, _, site)) = done else { panic!("{done:?}") };
            assert_eq!(site, Site::Device, "batch {bi}");
        }
    }
    let d = &scratch.deployments[0];
    // Every byte up is an admitted member's input crossing the plan's
    // device-to-cloud flows.
    let uploads: Vec<_> =
        d.plan.cut_flows(&d.graph).filter(|f| d.plan.side(f.from) == Side::Device).collect();
    let admitted_up: DataSize = admitted
        .iter()
        .flat_map(|&bi| members_of(&scratch.batches, &scratch.members, bi))
        .flat_map(|&ji| uploads.iter().map(move |f| (ji, f)))
        .map(|(ji, f)| f.payload.eval_bytes(scratch.jobs[ji as usize].input))
        .fold(DataSize::ZERO, |a, b| a + b);
    assert_eq!(r.bytes_up, admitted_up);
    assert_eq!(r.failures(), 0);
}

/// An unbatched NTC run under admission control with every health
/// switch but admission off, over `specs` for two hours at seed 7.
fn admission_run(
    specs: &[StreamSpec],
    queue_bound: u32,
    defer_step: SimDuration,
) -> (crate::report::RunResult, crate::engine::RunScratch) {
    use crate::engine::{JobRetention, RunScratch};
    let health = ntc_faults::HealthConfig {
        admission: true,
        queue_bound,
        defer_step,
        ..ntc_faults::HealthConfig::disabled()
    };
    let policy =
        OffloadPolicy::Ntc(crate::NtcConfig { use_batching: false, health, ..Default::default() });
    let mut scratch = RunScratch::new();
    let horizon = SimDuration::from_hours(2);
    let r = engine().run_retained(7, &policy, specs, horizon, &mut scratch, JobRetention::Full);
    (r, scratch)
}

/// Admission asks no queue about a batch that runs on its members'
/// devices: one under the local override (video transcodes whose tenth
/// of the usual slack the remote estimate cannot keep), or one whose plan
/// offloads nothing (doc indexing at this rate). Neither is deferred or
/// shed while a busy photo stream keeps the one-slot cloud saturated.
#[test]
fn batches_on_the_device_skip_admission() {
    let specs = [
        StreamSpec::poisson(Archetype::PhotoPipeline, 0.05),
        StreamSpec::poisson(Archetype::VideoTranscode, 0.01).with_slack_factor(0.01),
        StreamSpec::poisson(Archetype::DocIndexing, 0.01),
    ];
    let (r, s) = admission_run(&specs, 1, SimDuration::from_mins(10));
    let o = r.overload.as_ref().expect("health layer on");
    assert!(o.sheds > 0 && o.deferrals > 0, "saturation idle: {o:?}");
    let local = |bi: usize| s.deployments[s.batches[bi].di as usize].plan.offloaded().count() == 0;
    let overridden = (0..s.batches.len()).filter(|&bi| s.local_override[bi]).count();
    let nothing_offloaded = (0..s.batches.len()).filter(|&bi| local(bi)).count();
    assert!(overridden > 0 && nothing_offloaded > 0, "{overridden}, {nothing_offloaded}");
    for bi in (0..s.batches.len()).filter(|&bi| s.local_override[bi] || local(bi)) {
        assert_eq!((s.states.deferrals[bi], s.states.chain_pos(bi)), (0, 0), "batch {bi}");
    }
}

/// A batch defers at most `MAX_DEFERRALS` (24) times, which also keeps
/// its `u8` count from wrapping: under a one-slot cloud held by
/// minutes-long science sweeps, a one-second defer step and a day of
/// slack, some batches use every deferral, and their 25th dispatch sheds
/// or admits.
#[test]
fn deferrals_stop_at_the_cap() {
    let specs = [StreamSpec::poisson(Archetype::SciSweep, 0.02)];
    let (r, s) = admission_run(&specs, 1, SimDuration::from_secs(1));
    let most = s.states.deferrals.iter().copied().max().unwrap_or(0);
    assert_eq!(most, 24, "{:?}", r.overload);
}

/// Admission's tests to the microsecond, replayed on one edge-primary
/// log-analytics batch: it is admitted while its dispatch instant, plus the site's
/// queue-delay estimate, its completion estimate and
/// [`COMPLETION_MARGIN`](crate::engine::admission::COMPLETION_MARGIN),
/// still meets its deadline, and shed a microsecond later; on a
/// saturated site it is deferred while one more defer step fits the same
/// way, and shed once it has used `MAX_DEFERRALS` (24), unless it is at
/// its chain's last site.
#[test]
fn admission_keeps_the_queue_delay_and_the_margin_to_the_microsecond() {
    use ntc_faults::health::MIN_SAMPLES;
    use ntc_faults::HealthConfig;
    use ntc_simcore::units::SimTime;

    use crate::engine::admission::{members_of, min_deadline, Verdict, COMPLETION_MARGIN};
    use crate::engine::{JobRetention, RunScratch};

    let env = Environment::metro_reference();
    let health = HealthConfig { admission: true, queue_bound: 2, ..HealthConfig::disabled() };
    let policy = OffloadPolicy::Ntc(crate::NtcConfig {
        use_batching: false,
        primary_backend: Backend::Edge,
        health,
        ..Default::default()
    });
    let specs = [StreamSpec::poisson(Archetype::LogAnalytics, 0.01)];
    let mut s = RunScratch::new();
    let horizon = SimDuration::from_hours(1);
    engine().run_retained(7, &policy, &specs, horizon, &mut s, JobRetention::Full);
    let bi = (0..s.batches.len()).find(|&bi| !s.local_override[bi]).expect("a remote batch");
    let (est, site) = (s.deployments[0].est_completion, s.deployments[0].site_chain[0]);
    let deadline = min_deadline(&s.jobs, members_of(&s.batches, &s.members, bi));
    // The latest admissible instant, as a duration since the epoch.
    let latest = deadline - SimTime::ZERO - est - COMPLETION_MARGIN;
    let at = |since: SimDuration| SimTime::ZERO + since;
    s.health.reset(health);
    s.states.set_chain_pos(bi, 0);
    s.states.deferrals[bi] = 0;
    let us = SimDuration::from_micros(1);
    replay(&env, &mut s, |run| {
        assert_eq!(run.admission_verdict(at(latest), bi), Verdict::Admit);
        assert_eq!(run.admission_verdict(at(latest + us), bi), Verdict::Shed(1));
        // One invocation ahead, on a site with eight 100 s observations.
        for _ in 0..MIN_SAMPLES {
            run.health.site_mut(site).record_success(SimDuration::from_secs(100));
        }
        run.health.site_mut(site).enter();
        let wait = run.health.site(site).queue_delay(site.concurrency(&env));
        assert!(wait > SimDuration::ZERO);
        assert_eq!(run.admission_verdict(at(latest - wait), bi), Verdict::Admit);
        assert_eq!(run.admission_verdict(at(latest - wait + us), bi), Verdict::Shed(1));
        run.health.site_mut(site).enter();
        let step = run.health.cfg().defer_step;
        assert_eq!(run.admission_verdict(at(latest - step), bi), Verdict::Defer(step));
        assert_eq!(run.admission_verdict(at(latest - step + us), bi), Verdict::Shed(1));
        run.states.deferrals[bi] = 24;
        assert_eq!(run.admission_verdict(at(latest - step), bi), Verdict::Shed(1));
    });
    // With no later site to shed to, the batch is admitted where it is.
    s.deployments[0].site_chain.truncate(1);
    let admitted = replay(&env, &mut s, |run| run.admission_verdict(at(latest), bi));
    assert_eq!(admitted, Verdict::Admit);
}

// --- Job retention modes. ---

/// A fig10-style overload setting: a flaky two-slot edge (transient
/// faults plus a 48-min-up, 12-min-down availability trace) under
/// edge-primary, unbatched NTC with every health mechanism on.
fn overload_case() -> (Environment, OffloadPolicy) {
    let mut env = faulty_env(0.12);
    env.edge = ntc_edge::EdgeConfig { servers: 1, slots_per_server: 2, ..Default::default() };
    env.faults.site_availability.insert(
        "edge".to_string(),
        ntc_net::ConnectivityTrace::new(
            SimDuration::from_hours(1),
            vec![(SimDuration::ZERO, true), (SimDuration::from_mins(48), false)],
        ),
    );
    let health = ntc_faults::HealthConfig {
        breakers: true,
        admission: true,
        hedge: true,
        queue_bound: 6,
        defer_step: SimDuration::from_mins(5),
    };
    let policy = OffloadPolicy::Ntc(crate::NtcConfig {
        use_batching: false,
        primary_backend: Backend::Edge,
        health,
        ..Default::default()
    });
    (env, policy)
}

/// Breakers, admission, hedges and retries all live, which the random
/// draws of `tests/prop_engine_invariants.rs` (where every other counter's
/// agreement between retentions is checked) do not guarantee: a batch
/// settled twice would count its jobs twice under `Aggregates` only. One
/// seed sheds or defers nothing about one time in six, so three seeds run
/// and the layer must act across them.
#[test]
fn aggregates_retention_matches_full_metrics() {
    use crate::engine::{JobRetention, RunScratch};
    let horizon = SimDuration::from_hours(2);
    let specs = [
        StreamSpec::poisson(Archetype::PhotoPipeline, 0.06),
        StreamSpec::poisson(Archetype::LogAnalytics, 0.03),
    ];
    let mut scratch = RunScratch::new();
    let (env, all_on) = overload_case();
    let (mut hedges, mut holds, mut moves, mut retries) = (0, 0, 0, 0);
    for seed in 7..=9 {
        let e = Engine::new(env.clone(), seed);
        let run = |scratch: &mut RunScratch, retention| {
            e.run_retained(seed, &all_on, &specs, horizon, scratch, retention)
        };
        let full = run(&mut scratch, JobRetention::Full);
        let agg = run(&mut scratch, JobRetention::Aggregates);
        assert_eq!(agg.job_count(), full.job_count(), "seed {seed}");
        assert_eq!(agg.overload, full.overload, "seed {seed}");
        let o = full.overload.as_ref().expect("health layer on");
        hedges += o.hedges;
        holds += o.sheds + o.deferrals;
        moves += o.breaker_transitions.values().sum::<u32>();
        retries += full.total_retries();
    }
    assert!(hedges > 0 && holds > 0, "overload layer idle: {hedges} hedges, {holds} holds");
    assert!(moves > 0, "no breaker moved");
    assert!(retries > 0, "retries idle");
}

#[test]
fn aggregates_retention_does_not_perturb_subsequent_full_runs() {
    use crate::engine::{JobRetention, RunScratch};
    let e = engine();
    let specs = photo_specs(0.02);
    let horizon = SimDuration::from_hours(1);
    let baseline = e.run(&OffloadPolicy::ntc(), &specs, horizon);
    let mut scratch = RunScratch::new();
    let _ = e.run_retained(
        7,
        &OffloadPolicy::ntc(),
        &specs,
        horizon,
        &mut scratch,
        JobRetention::Aggregates,
    );
    let after =
        e.run_retained(7, &OffloadPolicy::ntc(), &specs, horizon, &mut scratch, JobRetention::Full);
    assert_eq!(after.jobs, baseline.jobs, "scratch reuse across retention modes must be inert");
    assert_eq!(after.cloud_cost, baseline.cloud_cost);
}

#[test]
fn a_reused_scratch_matches_a_fresh_one_as_the_input_changes() {
    use crate::engine::{JobRetention, RunScratch};
    let e = engine();
    let (one_hour, two_hours) = (SimDuration::from_hours(1), SimDuration::from_hours(2));
    let photo = photo_specs(0.02);
    let slacker = [photo[0].clone().with_slack_factor(1.5)];
    // The seed alternates, then the horizon with the same specs, then a
    // spec that differs only in its slack factor, then the first input
    // comes back: each must regenerate the job stream the scratch holds.
    let inputs: [(u64, &[StreamSpec], SimDuration); 6] = [
        (7, &photo, one_hour),
        (8, &photo, one_hour),
        (7, &photo, one_hour),
        (7, &photo, two_hours),
        (7, &slacker, two_hours),
        (7, &photo, one_hour),
    ];
    let mut scratch = RunScratch::new();
    let mut previous = String::new();
    for (seed, specs, horizon) in inputs {
        for policy in [OffloadPolicy::CloudAll, OffloadPolicy::ntc()] {
            let run = |scratch: &mut RunScratch| {
                e.run_retained(seed, &policy, specs, horizon, scratch, JobRetention::Full).to_json()
            };
            let reused = run(&mut scratch);
            assert_eq!(reused, run(&mut RunScratch::new()), "{policy} on seed {seed}, {horizon}");
            assert_ne!(reused, previous, "{policy}: the input change changed nothing");
            previous = reused;
        }
    }
}

// --- Reserved memory. ---

/// fig11's population, at 2,000 users instead of a million: log-analytics
/// at 0.002 jobs/s per user and 5 % of its typical slack, over 30 min
/// under `Aggregates`, cloud-all then edge-all on one scratch (7,200
/// jobs). The buffers it reserves, per job, are what a million users
/// cost. With an arrival slot and a predecessor count per component, an
/// exit count and finish per batch and 16 B calendar links, the same
/// runs reserved 238 B per job; without them, 189 B; and without a
/// per-component attempt count, side or offset, and with 8 B events,
/// 161 B.
#[test]
fn fig11s_population_reserves_a_bounded_count_of_bytes_per_job() {
    use crate::engine::{JobRetention, RunScratch};

    let specs =
        [StreamSpec::poisson(Archetype::LogAnalytics, 2_000.0 * 0.002).with_slack_factor(0.05)];
    let horizon = SimDuration::from_mins(30);
    let mut s = RunScratch::new();
    let mut jobs = 0;
    for policy in [OffloadPolicy::CloudAll, OffloadPolicy::EdgeAll] {
        let r =
            engine().run_retained(42, &policy, &specs, horizon, &mut s, JobRetention::Aggregates);
        jobs = r.job_count() as usize;
    }
    let per_job = s.reserved_bytes() / jobs;
    assert!(per_job <= 161, "{jobs} jobs reserve {per_job} B per job");
}

/// Cycling one scratch through sixteen seeds of a faulty two-slot edge
/// with breakers, admission and hedges on, each run reserves no more than
/// the first cycle did: the tenth cycle leaves every buffer as large as
/// the first left it.
#[test]
fn a_scratch_stops_growing_after_one_cycle_of_inputs() {
    use crate::engine::{JobRetention, RunScratch};

    let specs = [
        StreamSpec::poisson(Archetype::PhotoPipeline, 0.06),
        StreamSpec::poisson(Archetype::LogAnalytics, 0.03),
    ];
    let (env, all_on) = overload_case();
    let horizon = SimDuration::from_hours(1);
    let mut s = RunScratch::new();
    let mut after = Vec::new();
    for _ in 0..10 {
        for seed in 1..=16 {
            let e = Engine::new(env.clone(), seed);
            e.run_retained(seed, &all_on, &specs, horizon, &mut s, JobRetention::Full);
        }
        after.push(s.reserved_bytes());
    }
    assert_eq!(after[9], after[0], "reserved bytes after each cycle: {after:?}");
}

/// Every remote invocation's queue slot is released when its `Done`
/// lands (or, for a failed batch's straggler, when its hedge delay
/// elapses), so once a run of the faulty two-slot edge with every health
/// mechanism on drains, no site holds a slot, over sixteen seeds.
#[test]
fn every_queue_slot_is_released_once_a_run_drains() {
    use crate::engine::{JobRetention, RunScratch};
    use crate::site::Site;

    let specs = [
        StreamSpec::poisson(Archetype::PhotoPipeline, 0.06),
        StreamSpec::poisson(Archetype::LogAnalytics, 0.03),
    ];
    let (env, all_on) = overload_case();
    let horizon = SimDuration::from_hours(1);
    let mut s = RunScratch::new();
    let mut hedges = 0;
    for seed in 1..=16 {
        let e = Engine::new(env.clone(), seed);
        let r = e.run_retained(seed, &all_on, &specs, horizon, &mut s, JobRetention::Full);
        hedges += r.overload.as_ref().expect("health layer on").hedges;
        for site in Site::ALL {
            assert_eq!(s.health.site(site).in_flight(), 0, "seed {seed}: {site} holds a slot");
        }
    }
    assert!(hedges > 0, "no hedge raced");
}

// --- RNG keys. ---

/// Known answers for the streams the loop keys per batch under its first
/// member's own stream, each checked against the formatted label it
/// spells (`c1`, `c1-edge-a2`, `flow-c1-c2-edge`, ...): a respelled key
/// fails here by name, not only through a run digest.
mod keys {
    use ntc_faults::{backoff, FaultConfig};
    use ntc_simcore::rng::RngStream;
    use ntc_taskgraph::ComponentId;
    use ntc_workloads::Archetype;

    use crate::engine::execute::{fault_key, Try};
    use crate::engine::noise;
    use crate::engine::transfer::{flow_key, return_key};
    use crate::site::Site;

    /// The own stream of a job whose key is `key`.
    fn job(key: u64) -> RngStream {
        RngStream::root(key)
    }

    fn c(i: usize) -> ComponentId {
        ComponentId::from_index(i)
    }

    #[test]
    fn noise_draws_from_the_component_stream() {
        let a = Archetype::PhotoPipeline;
        let got = noise::draw(a, &job(7), c(1));
        let want = a.demand_drift() * job(7).derive("c1").lognormal(0.0, a.demand_noise_sigma());
        assert_eq!(got.to_bits(), want.to_bits());
        assert_eq!(got.to_bits(), NOISE_BITS);
    }

    #[test]
    fn invocation_faults_draw_from_the_try_stream() {
        let p = FaultConfig::transient(0.5);
        let hits = |comp, site, try_| {
            (0..64_u64).fold(0_u64, |m, key| {
                let fault = p.invocation_fault(&job(key), fault_key(c(comp), site, try_));
                m | u64::from(fault.is_some()) << key
            })
        };
        let spelled = |label: &str| {
            (0..64_u64).fold(0_u64, |m, key| {
                m | u64::from(p.invocation_fault(&job(key), label).is_some()) << key
            })
        };
        assert_eq!(hits(1, Site::Edge, Try::Attempt(2)), spelled("c1-edge-a2"));
        assert_eq!(hits(2, Site::Cloud, Try::Hedge), spelled("c2-cloud-hedge"));
        assert_eq!(hits(1, Site::Edge, Try::Attempt(2)), FAULT_HITS[0]);
        assert_eq!(hits(2, Site::Cloud, Try::Hedge), FAULT_HITS[1]);
    }

    #[test]
    fn backoffs_draw_from_the_component_stream() {
        let us: Vec<u64> = (0..4).map(|key| backoff(&job(key), c(1), 3).as_micros()).collect();
        let spelled: Vec<u64> = (0..4).map(|key| backoff(&job(key), "c1", 3).as_micros()).collect();
        assert_eq!(us, spelled);
        assert_eq!(us, BACKOFF_US);
    }

    #[test]
    fn transfer_drops_draw_from_the_transfer_streams() {
        let p = FaultConfig { transfer_drop_rate: 0.5, ..FaultConfig::none() };
        let drops = |key: &dyn Fn(u64) -> u32| (0..8).map(key).collect::<Vec<u32>>();
        let flow = drops(&|k| p.transfer_drops(&job(k), flow_key(c(1), c(2), Site::Edge), 8));
        let ret = drops(&|k| p.transfer_drops(&job(k), return_key(c(3), Site::Cloud), 8));
        assert_eq!(flow, drops(&|k| p.transfer_drops(&job(k), "flow-c1-c2-edge", 8)));
        assert_eq!(ret, drops(&|k| p.transfer_drops(&job(k), "ret-c3-cloud", 8)));
        assert_eq!([flow, ret], TRANSFER_DROPS);
    }

    const NOISE_BITS: u64 = 0x3fea_f63c_7af9_16b7;
    const FAULT_HITS: [u64; 2] = [0x2a79_6e14_b026_56bc, 0xf48e_56f0_3431_a75a];
    const BACKOFF_US: [u64; 4] = [32_539_034, 25_699_787, 24_786_019, 23_700_827];
    const TRANSFER_DROPS: [[u32; 8]; 2] = [[2, 0, 1, 0, 2, 1, 2, 0], [2, 0, 0, 2, 0, 0, 1, 3]];
}

// --- The execution-noise memo. ---

mod noise {
    use ntc_simcore::units::SimDuration;
    use ntc_taskgraph::ComponentId;
    use ntc_workloads::{Archetype, Job, StreamSpec};

    use crate::engine::admission::members_of;
    use crate::engine::noise::draw;
    use crate::engine::{Engine, JobRetention, RunScratch};
    use crate::environment::Environment;
    use crate::policy::OffloadPolicy;

    /// Photo pipelines (four components) mixed with video transcodes
    /// (five), so the memo is wider than some of its archetypes.
    fn specs() -> [StreamSpec; 2] {
        [
            StreamSpec::poisson(Archetype::PhotoPipeline, 0.02),
            StreamSpec::poisson(Archetype::VideoTranscode, 0.005),
        ]
    }

    /// The direct draw from the component stream of `comp` of `job`.
    fn direct(job: &Job, comp: ComponentId) -> f64 {
        draw(job.archetype, &job.rng(), comp)
    }

    /// Checks every slot the last run on `scratch` read, each batch
    /// head's components, against a direct draw from its component
    /// stream; returns how many (batch head, component) pairs it read.
    fn check_table(scratch: &RunScratch) -> usize {
        let mut read = 0;
        for (bi, b) in scratch.batches.iter().enumerate() {
            let ji = members_of(&scratch.batches, &scratch.members, bi)[0];
            let first = &scratch.jobs[ji as usize];
            for comp in scratch.deployments[b.di as usize].graph.ids() {
                let slot = scratch.noise.slot(ji, comp);
                let want = direct(first, comp);
                assert_eq!(slot.to_bits(), want.to_bits(), "job {}, {comp}", first.id);
                read += 1;
            }
        }
        read
    }

    /// Checks every drawn slot of every job against a direct draw from its
    /// component stream, and that no slot past a job's own components is
    /// drawn; returns how many slots are drawn.
    fn check_drawn(scratch: &RunScratch) -> usize {
        let mut drawn = 0;
        for (ji, job) in scratch.jobs.iter().enumerate() {
            for comp in job.archetype.graph().ids() {
                let slot = scratch.noise.slot(ji as u32, comp);
                if !slot.is_nan() {
                    assert_eq!(
                        slot.to_bits(),
                        direct(job, comp).to_bits(),
                        "job {}, {comp}",
                        job.id
                    );
                    drawn += 1;
                }
            }
        }
        assert_eq!(scratch.noise.drawn(), drawn, "a slot past a job's components");
        drawn
    }

    #[test]
    fn every_slot_a_run_reads_is_its_component_stream_draw() {
        let e = Engine::new(Environment::metro_reference(), 7);
        let horizon = SimDuration::from_hours(2);
        for (policy, batched) in [(OffloadPolicy::ntc(), true), (OffloadPolicy::CloudAll, false)] {
            let mut scratch = RunScratch::new();
            e.run_retained(7, &policy, &specs(), horizon, &mut scratch, JobRetention::Full);
            assert_eq!(scratch.batches.len() < scratch.jobs.len(), batched, "{policy}");
            let read = check_table(&scratch);
            // A fresh run draws exactly the slots it reads: one stream
            // per (batch head, component).
            assert_eq!(scratch.noise.drawn(), read, "{policy}");
        }
    }

    #[test]
    fn a_partly_filled_table_gives_a_fresh_scratchs_results() {
        let e = Engine::new(Environment::metro_reference(), 7);
        let horizon = SimDuration::from_hours(2);
        let runs = [
            (7, OffloadPolicy::ntc()),
            (7, OffloadPolicy::CloudAll),
            (7, OffloadPolicy::ntc()),
            (8, OffloadPolicy::ntc()),
        ];
        let mut scratch = RunScratch::new();
        let mut drawn = Vec::new();
        for (seed, policy) in runs {
            let run = |scratch: &mut RunScratch| {
                e.run_retained(seed, &policy, &specs(), horizon, scratch, JobRetention::Full)
                    .to_json()
            };
            let reused = run(&mut scratch);
            assert_eq!(reused, run(&mut RunScratch::new()), "{policy} on seed {seed}");
            check_table(&scratch);
            drawn.push(scratch.noise.drawn());
        }
        // The unbatched run adds the heads the batched one left undrawn,
        // the batched rerun adds none, and a new seed starts over.
        assert!(drawn[1] > drawn[0], "{drawn:?}");
        assert_eq!(drawn[2], drawn[1]);
        assert!(drawn[3] < drawn[2], "{drawn:?}");
    }

    /// A hundred times [`specs`]' rates: over an hour `cloud-all` heads
    /// one batch per job, about 9,000 of them and 38,000 slots, and
    /// `ntc` far fewer.
    fn busy_specs() -> [StreamSpec; 2] {
        [
            StreamSpec::poisson(Archetype::PhotoPipeline, 2.0),
            StreamSpec::poisson(Archetype::VideoTranscode, 0.5),
        ]
    }

    #[test]
    fn every_drawn_slot_is_its_component_stream_draw() {
        let e = Engine::new(Environment::metro_reference(), 7);
        let horizon = SimDuration::from_hours(1);
        for policy in [OffloadPolicy::CloudAll, OffloadPolicy::ntc()] {
            let mut scratch = RunScratch::new();
            e.run_retained(7, &policy, &busy_specs(), horizon, &mut scratch, JobRetention::Full);
            let read = check_table(&scratch);
            assert!(read > 4_000, "{policy}: {read} slots");
            assert_eq!(check_drawn(&scratch), read, "{policy}");
        }
    }

    #[test]
    fn a_busy_scratch_across_inputs_gives_a_fresh_scratchs_results() {
        let e = Engine::new(Environment::metro_reference(), 7);
        let horizon = SimDuration::from_hours(1);
        let mut scratch = RunScratch::new();
        for (seed, specs) in [(7, busy_specs()), (8, busy_specs()), (7, busy_specs()), (7, specs())]
        {
            for policy in [OffloadPolicy::CloudAll, OffloadPolicy::ntc()] {
                let run = |scratch: &mut RunScratch| {
                    e.run_retained(seed, &policy, &specs, horizon, scratch, JobRetention::Full)
                        .to_json()
                };
                let reused = run(&mut scratch);
                assert_eq!(reused, run(&mut RunScratch::new()), "{policy} on seed {seed}");
                check_table(&scratch);
            }
        }
    }
}

// --- Fault injection and recovery. ---

fn faulty_env(rate: f64) -> Environment {
    let mut env = Environment::metro_reference();
    env.faults = ntc_faults::FaultConfig::transient(rate);
    env
}

/// A component enters the try ledger only when an attempt fails, so a
/// drained fault-free run leaves the ledger empty under every policy, and
/// every job records one attempt, including a local-only job whose batch
/// invokes no remote site (attempts never fall below 1).
#[test]
fn a_fault_free_run_keeps_no_try_ledger() {
    use crate::engine::{JobRetention, RunScratch};
    let mut s = RunScratch::new();
    let specs = photo_specs(0.02);
    let horizon = SimDuration::from_hours(1);
    for policy in [
        OffloadPolicy::LocalOnly,
        OffloadPolicy::EdgeAll,
        OffloadPolicy::CloudAll,
        OffloadPolicy::ntc(),
    ] {
        let r = engine().run_retained(7, &policy, &specs, horizon, &mut s, JobRetention::Full);
        assert!(s.states.tries.is_empty(), "{policy}: {:?}", s.states.tries);
        assert!(!r.jobs.is_empty(), "{policy}");
        for j in &r.jobs {
            assert_eq!(j.attempts, 1, "{policy}");
            assert_eq!(j.backoff, SimDuration::ZERO);
            assert_eq!(j.fallbacks, 0);
            assert!(j.cause.is_none());
        }
        assert_eq!(r.total_retries(), 0);
    }
}

/// One component's remote attempts are numbered 1, 2, 3 across an
/// outage wait, a retry and a fallback, as its fault keys
/// `{comp}-edge-a{n}` show. Replayed on an edge-primary batch whose
/// first offloaded component faults, at a transient rate of one half,
/// on attempt 2 alone of the first three: attempt 1 finds the edge in a
/// ten-minute outage and waits it out, attempt 2 faults and retries, and
/// attempt 3 finds the edge down for good and falls back to the cloud.
/// An attempt numbered 1 or 3 where 2 is due would not fault, and one
/// numbered 2 where 3 is due would retry instead of falling back.
#[test]
fn tries_are_numbered_across_an_outage_wait_a_retry_and_a_fallback() {
    use ntc_faults::{backoff, FaultConfig};
    use ntc_net::ConnectivityTrace;
    use ntc_simcore::rng::RngStream;
    use ntc_simcore::units::SimTime;

    use crate::engine::admission::{unit_key, Tries};
    use crate::engine::execute::{fault_key, Try};
    use crate::engine::recovery::DETECT;
    use crate::engine::{JobRetention, RunScratch};
    use crate::site::Site;

    let policy = OffloadPolicy::Ntc(crate::NtcConfig {
        use_batching: false,
        primary_backend: Backend::Edge,
        ..Default::default()
    });
    let mut s = RunScratch::new();
    let horizon = SimDuration::from_hours(1);
    engine().run_retained(7, &policy, &photo_specs(0.02), horizon, &mut s, JobRetention::Full);
    assert_eq!(s.deployments[0].site_chain, [Site::Edge, Site::Cloud, Site::Device]);
    let comp = s.deployments[0].plan.offloaded().next().expect("photo offloads");
    let faults = FaultConfig::transient(0.5);
    let faulted = |bi: usize, n: u32| {
        let rng = RngStream::root(s.batches[bi].key);
        faults.invocation_fault(&rng, fault_key(comp, Site::Edge, Try::Attempt(n))).is_some()
    };
    let bi = (0..s.batches.len())
        .find(|&bi| {
            !s.local_override[bi] && [1, 2, 3].map(|n| faulted(bi, n)) == [false, true, false]
        })
        .expect("a batch that faults on attempt 2 alone");
    let hour = SimDuration::from_hours(1);
    let outage = |down: Vec<(SimDuration, bool)>| {
        let mut env = Environment::metro_reference();
        env.faults = faults.clone();
        env.faults.site_availability.insert("edge".into(), ConnectivityTrace::new(hour, down));
        env
    };
    let ten_minutes = outage(vec![(SimDuration::ZERO, false), (SimDuration::from_mins(10), true)]);
    let for_good = outage(vec![(SimDuration::ZERO, false)]);
    let tried = |s: &RunScratch| s.states.tries.get(&unit_key(bi, comp)).copied();
    let t = SimTime::from_secs(60);
    let rng = RngStream::root(s.batches[bi].key);

    let waits = |env: &Environment, s: &mut RunScratch, t| {
        replay(env, s, |run| {
            run.exec(t, bi, comp);
            pending_execs(run.sim)
        })
    };
    assert_eq!(
        waits(&ten_minutes, &mut s, t),
        [(SimDuration::from_mins(9), comp)],
        "no outage wait"
    );
    assert_eq!(tried(&s), Some(Tries { attempts: 1, ..Tries::default() }));
    let wait = backoff(&rng, comp, 2);
    let at = SimTime::from_secs(600);
    assert_eq!(waits(&ten_minutes, &mut s, at), [(DETECT + wait, comp)], "no retry");
    assert_eq!(tried(&s), Some(Tries { attempts: 2, retries: 1, backoff: wait }));
    assert_eq!(waits(&for_good, &mut s, at + DETECT + wait), [(DETECT, comp)], "no fallback");
    assert_eq!(tried(&s), Some(Tries { attempts: 3, retries: 1, backoff: wait }));
    assert_eq!((s.states.chain_pos(bi), s.states.fallbacks[bi]), (1, 1));
    let batch = s.states.batch_tries(bi, s.deployments[0].graph.ids());
    assert_eq!(batch, Tries { attempts: 3, retries: 1, backoff: wait });
}

#[test]
fn a_batch_backs_off_for_its_largest_component_sum() {
    use crate::engine::admission::{members_of, unit_key, Tries};
    use crate::engine::{JobRetention, RunScratch};
    let e = Engine::new(faulty_env(0.3), 7);
    let mut scratch = RunScratch::new();
    let r = e.run_retained(
        7,
        &OffloadPolicy::ntc(),
        &photo_specs(0.02),
        SimDuration::from_hours(2),
        &mut scratch,
        JobRetention::Full,
    );
    let (mut pinned, mut retries) = (0, 0);
    let graph = &scratch.deployments[0].graph;
    for bi in 0..scratch.batches.len() {
        let retried: Vec<Tries> = graph
            .ids()
            .filter_map(|c| scratch.states.tries.get(&unit_key(bi, c)).copied())
            .filter(|t| t.retries > 0)
            .collect();
        let sums: Vec<SimDuration> = retried.iter().map(|t| t.backoff).collect();
        let largest = sums.iter().copied().max().unwrap_or(SimDuration::ZERO);
        let members = members_of(&scratch.batches, &scratch.members, bi);
        let most = retried.iter().map(|t| t.retries).max().unwrap_or(0);
        retries += u64::from(most) * members.len() as u64;
        for &ji in members {
            assert_eq!(r.jobs[ji as usize].backoff, largest, "job {ji}");
        }
        if sums.len() >= 2 {
            // Two components of this batch both retried: the batch waited
            // for the larger sum, not their total.
            assert!(sums.iter().copied().fold(SimDuration::ZERO, |a, b| a + b) > largest);
            pinned += 1;
        }
    }
    assert!(pinned > 0, "no batch retried two components");
    assert_eq!(r.total_retries(), retries, "a job counts its batch's most-retried component");
}

/// Retries are re-executions after a backoff, so policies that never
/// retry report none under an hourly edge outage and transient faults,
/// although they re-execute after each outage wait (more attempts than
/// jobs). NTC with retries on does retry, and every retry is an attempt.
#[test]
fn policies_that_never_retry_report_no_retries() {
    let mut env = faulty_env(0.05);
    env.faults.site_availability.insert(
        "edge".to_string(),
        ntc_net::ConnectivityTrace::new(
            SimDuration::from_hours(1),
            vec![(SimDuration::ZERO, true), (SimDuration::from_mins(48), false)],
        ),
    );
    let e = Engine::new(env, 7);
    let edge = |retry: bool| {
        OffloadPolicy::Ntc(crate::NtcConfig {
            retry,
            fallback: false,
            primary_backend: Backend::Edge,
            ..Default::default()
        })
    };
    let horizon = SimDuration::from_hours(3);
    for policy in [OffloadPolicy::EdgeAll, edge(false)] {
        let r = e.run(&policy, &photo_specs(0.05), horizon);
        assert!(r.total_attempts() > r.job_count(), "{policy}: no outage wait");
        assert_eq!(r.total_retries(), 0, "{policy}");
    }
    let r = e.run(&edge(true), &photo_specs(0.05), horizon);
    assert!(r.total_retries() > 0);
    assert!(r.total_retries() <= r.total_attempts() - r.job_count());
}

#[test]
fn ntc_retries_through_transient_faults() {
    let e = Engine::new(faulty_env(0.10), 7);
    let r = e.run(&OffloadPolicy::ntc(), &photo_specs(0.02), SimDuration::from_hours(2));
    assert!(!r.jobs.is_empty());
    assert_eq!(r.failures(), 0, "NTC must ride out transient faults by retrying");
    assert!(r.total_retries() > 0, "a 10% fault rate must trigger retries");
    assert!(r.total_backoff() > SimDuration::ZERO);
}

#[test]
fn injected_faults_are_retryable() {
    // Only a retryable failure backs off: a fallback hop or a terminal
    // failure waits nothing.
    for (transient_rate, throttle_rate) in [(0.1, 0.0), (0.0, 0.1)] {
        let mut env = Environment::metro_reference();
        env.faults = ntc_faults::FaultConfig {
            transient_rate,
            throttle_rate,
            ..ntc_faults::FaultConfig::none()
        };
        let r = Engine::new(env, 7).run(
            &OffloadPolicy::ntc(),
            &photo_specs(0.02),
            SimDuration::from_hours(2),
        );
        assert_eq!(r.failures(), 0, "throttle rate {throttle_rate}");
        assert_eq!(r.total_fallbacks(), 0, "throttle rate {throttle_rate}");
        assert!(r.total_backoff() > SimDuration::ZERO, "throttle rate {throttle_rate}");
    }
}

#[test]
fn zero_retry_baseline_loses_jobs_under_faults() {
    let e = Engine::new(faulty_env(0.10), 7);
    let r = e.run(&OffloadPolicy::CloudAll, &photo_specs(0.02), SimDuration::from_hours(2));
    assert!(r.failures() > 0, "a zero-retry baseline must lose jobs at 10% faults");
    assert_eq!(r.failure_causes().get("transient"), Some(&r.failures()));
}

#[test]
fn faulty_runs_are_reproducible() {
    let e = Engine::new(faulty_env(0.2), 11);
    let a = e.run(&OffloadPolicy::ntc(), &photo_specs(0.02), SimDuration::from_hours(1));
    let b = e.run(&OffloadPolicy::ntc(), &photo_specs(0.02), SimDuration::from_hours(1));
    assert_eq!(a.jobs, b.jobs);
    assert_eq!(a.cloud_cost, b.cloud_cost);
    assert_eq!(a.device_energy, b.device_energy);
}

#[test]
fn backoff_never_exceeds_job_latency() {
    let e = Engine::new(faulty_env(0.3), 5);
    let r = e.run(&OffloadPolicy::ntc(), &photo_specs(0.02), SimDuration::from_hours(2));
    assert!(r.total_retries() > 0);
    for j in &r.jobs {
        assert!(
            j.backoff <= j.finish.saturating_duration_since(j.dispatched),
            "job {}: backoff {} vs latency {}",
            j.id,
            j.backoff,
            j.finish.saturating_duration_since(j.dispatched)
        );
    }
}

#[test]
fn permanent_edge_outage_falls_back_to_cloud() {
    let mut env = Environment::metro_reference();
    env.faults.site_availability.insert(
        "edge".into(),
        ntc_net::ConnectivityTrace::new(
            SimDuration::from_hours(1),
            vec![(SimDuration::ZERO, false)],
        ),
    );
    let e = Engine::new(env, 7);
    let policy = OffloadPolicy::Ntc(crate::NtcConfig {
        primary_backend: Backend::Edge,
        ..Default::default()
    });
    let r = e.run(&policy, &photo_specs(0.02), SimDuration::from_hours(2));
    assert!(!r.jobs.is_empty());
    assert_eq!(r.failures(), 0, "the cloud fallback must save every job");
    assert!(r.total_fallbacks() > 0, "every batch must have fallen back");
    assert!(
        r.cloud_cost > ntc_simcore::units::Money::ZERO,
        "fallback work is billed on the platform"
    );
}

#[test]
fn edge_outage_without_fallback_fails_jobs() {
    let mut env = Environment::metro_reference();
    env.faults.site_availability.insert(
        "edge".into(),
        ntc_net::ConnectivityTrace::new(
            SimDuration::from_hours(1),
            vec![(SimDuration::ZERO, false)],
        ),
    );
    let e = Engine::new(env, 7);
    let policy = OffloadPolicy::Ntc(crate::NtcConfig {
        primary_backend: Backend::Edge,
        fallback: false,
        ..Default::default()
    });
    let r = e.run(&policy, &photo_specs(0.02), SimDuration::from_hours(2));
    assert!(r.failures() > 0);
    assert!(r.failure_causes().contains_key("edge-outage"));
}

// --- Hedging. ---

/// A hedge delay that elapses after another component failed the batch
/// launches no duplicate: it only releases the primary's queue slot. The
/// decision is replayed over what a finished edge-primary run leaves.
#[test]
fn a_failed_batch_launches_no_hedge_duplicate() {
    use ntc_faults::HealthConfig;
    use ntc_simcore::units::SimTime;

    use crate::engine::admission::unit_key;
    use crate::engine::{HedgePending, JobRetention, RunScratch};
    use crate::site::Site;

    let env = Environment::metro_reference();
    let policy = OffloadPolicy::Ntc(crate::NtcConfig {
        use_batching: false,
        primary_backend: Backend::Edge,
        health: HealthConfig { hedge: true, ..HealthConfig::disabled() },
        ..Default::default()
    });
    let mut s = RunScratch::new();
    let horizon = SimDuration::from_hours(1);
    let e = Engine::new(env.clone(), 7);
    e.run_retained(7, &policy, &photo_specs(0.02), horizon, &mut s, JobRetention::Full);
    let comp = s.deployments[0].plan.offloaded().next().expect("photo offloads");
    let (bi, t) = (0, SimTime::from_secs(1));
    s.states.failed[bi] = true;
    s.health.site_mut(Site::Edge).enter();
    let primary_finish = t + SimDuration::from_mins(1);
    s.hedges.insert(unit_key(bi, comp), HedgePending { start: t, primary_finish, from_pos: 0 });
    replay(&env, &mut s, |run| {
        run.hedge_fire(t, bi, comp);
        assert_eq!(run.acct.overload.hedges, 0, "a duplicate was launched");
        assert_eq!(run.health.site(Site::Edge).in_flight(), 0, "the primary's slot is kept");
        assert!(run.sim.step().is_none(), "something was scheduled");
    });
}

/// Replays one hedge race on batch 0 of `s`, an edge-primary photo run
/// under hedging: its first offloaded component straggles on the edge
/// with its primary due at `primary_finish`, the batch is at chain
/// position `pos`, and the hedge delay elapses at `t`. The duplicate goes
/// to the cloud, provisioned as a run provisions it. Returns the hedges
/// won and lost, the batch's chain position after, how long after `t`
/// the completion is scheduled and the site it carries.
fn hedge_race(
    s: &mut crate::engine::RunScratch,
    t: ntc_simcore::units::SimTime,
    pos: usize,
    primary_finish: ntc_simcore::units::SimTime,
) -> (u64, u64, usize, SimDuration, crate::site::Site) {
    use ntc_faults::HealthConfig;

    use crate::engine::admission::unit_key;
    use crate::engine::execute::provision_deployments;
    use crate::engine::{Ev, HedgePending};
    use crate::site::Site;

    let env = Environment::metro_reference();
    let comp = s.deployments[0].plan.offloaded().next().expect("photo offloads");
    let bi = 0;
    s.health.reset(HealthConfig { hedge: true, ..HealthConfig::disabled() });
    s.acct.overload = Default::default();
    s.states.failed[bi] = false;
    s.states.set_chain_pos(bi, pos);
    s.hedges.insert(unit_key(bi, comp), HedgePending { start: t, primary_finish, from_pos: 0 });
    replay(&env, s, |run| {
        provision_deployments(run.ctx.deployments, &mut run.sites, run.sim, &mut Vec::new());
        while run.sim.step().is_some() {}
        run.health.site_mut(Site::Edge).enter();
        run.hedge_fire(t, bi, comp);
        let now = run.sim.now();
        let (at, ev) = run.sim.step().expect("a completion is scheduled");
        let Ev::Done(_, c, site) = ev else { panic!("{ev:?} scheduled") };
        assert_eq!(usize::from(c), comp.index());
        let o = &run.acct.overload;
        (o.hedges_won, o.hedges_lost, run.states.chain_pos(bi), at - now, site)
    })
}

/// An edge-primary photo run under hedging at seed 7, for
/// [`hedge_race`].
fn hedged_scratch() -> crate::engine::RunScratch {
    use ntc_faults::HealthConfig;

    use crate::engine::{JobRetention, RunScratch};

    let policy = OffloadPolicy::Ntc(crate::NtcConfig {
        use_batching: false,
        primary_backend: Backend::Edge,
        health: HealthConfig { hedge: true, ..HealthConfig::disabled() },
        ..Default::default()
    });
    let mut s = RunScratch::new();
    let horizon = SimDuration::from_hours(1);
    engine().run_retained(7, &policy, &photo_specs(0.02), horizon, &mut s, JobRetention::Full);
    s
}

/// A duplicate wins only by finishing strictly before the primary: a
/// tie to the microsecond goes to the primary, which was submitted first.
#[test]
fn a_hedge_tie_goes_to_the_primary() {
    use ntc_simcore::units::SimTime;

    use crate::site::Site;

    let mut s = hedged_scratch();
    let t = SimTime::from_secs(1);
    let far = t + SimDuration::from_hours(1);
    let (won, lost, _, latency, site) = hedge_race(&mut s, t, 0, far);
    assert_eq!((won, lost, site), (1, 0, Site::Cloud), "the duplicate beats a primary an hour out");
    let (won, lost, _, wait, site) = hedge_race(&mut s, t, 0, t + latency);
    assert_eq!((won, lost, site), (0, 1, Site::Edge), "a tie goes to the primary");
    assert_eq!(wait, latency, "the primary completes when it was due");
    let us = SimDuration::from_micros(1);
    let (won, lost, _, _, site) = hedge_race(&mut s, t, 0, t + latency + us);
    assert_eq!((won, lost, site), (1, 0, Site::Cloud), "a microsecond earlier wins");
}

/// A duplicate that wins routes the batch's later flows over its site,
/// but never moves the batch back up its chain: another component may
/// already have fallen back further (here, to the device).
#[test]
fn a_hedge_win_never_moves_its_batch_back_up_the_chain() {
    use ntc_simcore::units::SimTime;

    use crate::site::Site;

    let mut s = hedged_scratch();
    let t = SimTime::from_secs(1);
    let far = t + SimDuration::from_hours(1);
    let (won, _, pos, _, site) = hedge_race(&mut s, t, 0, far);
    assert_eq!((won, pos, site), (1, 1, Site::Cloud), "a win from the primary moves to the cloud");
    let (won, _, pos, _, site) = hedge_race(&mut s, t, 2, far);
    assert_eq!((won, pos), (1, 2), "a batch already on the device stays there");
    assert_eq!(site, Site::Cloud, "the duplicate finished on the cloud");
}

// --- A batch's last steps. ---

/// Runs the photo pipeline under NTC for an hour at seed 7 and returns
/// the scratch with batch 0's entry component (on the device) and its
/// first successor.
fn finished_photo_run(
) -> (crate::engine::RunScratch, ntc_taskgraph::ComponentId, ntc_taskgraph::ComponentId) {
    use crate::engine::{JobRetention, RunScratch};

    let mut s = RunScratch::new();
    let horizon = SimDuration::from_hours(1);
    let policy = OffloadPolicy::ntc();
    engine().run_retained(7, &policy, &photo_specs(0.02), horizon, &mut s, JobRetention::Full);
    let graph = &s.deployments[0].graph;
    let entry = graph.entries()[0];
    let next = graph.flows_from(entry).next().expect("the entry has a successor").to;
    (s, entry, next)
}

/// The component of the finished run's photo graph named `name`.
fn photo_component(s: &crate::engine::RunScratch, name: &str) -> ntc_taskgraph::ComponentId {
    let g = &s.deployments[0].graph;
    g.ids().find(|&c| g.component(c).name() == name).expect("a photo-pipeline component")
}

/// The wait from the calendar's clock to each `Exec` event still pending,
/// in pop order; drains the calendar.
fn pending_execs(
    sim: &mut ntc_simcore::event::Simulator<crate::engine::Ev>,
) -> Vec<(SimDuration, ntc_taskgraph::ComponentId)> {
    let now = sim.now();
    std::iter::from_fn(|| sim.step())
        .filter_map(|(at, ev)| match ev {
            crate::engine::Ev::Exec(_, c) => Some((at - now, crate::engine::component(c))),
            _ => None,
        })
        .collect()
}

/// Once a batch has failed, nothing more of it runs or moves: a
/// component whose inputs arrive (`exec`) starts nothing, and one that
/// finishes (`done`) delivers no output, so a failed batch schedules no
/// more work.
#[test]
fn a_failed_batch_runs_and_routes_nothing_more() {
    use ntc_simcore::units::SimTime;

    let (mut s, entry, _) = finished_photo_run();
    let (bi, t) = (0, SimTime::from_secs(1));
    s.states.failed[bi] = true;
    replay(&Environment::metro_reference(), &mut s, |run| {
        run.exec(t, bi, entry);
        run.done(t, bi, entry, crate::site::Site::Device);
        assert!(run.sim.step().is_none(), "a failed batch scheduled work");
    });
    assert!(s.states.joins.is_empty(), "an output was delivered");
}

/// A component with one input starts when that input lands, not when
/// its producer finishes: the device's `capture` hands its image to an
/// offloaded `enhance` over each member's radio link, which takes time.
#[test]
fn a_single_input_component_starts_when_its_input_lands() {
    use ntc_partition::Side;
    use ntc_simcore::units::SimTime;

    let (mut s, capture, enhance) = finished_photo_run();
    let bi = (0..s.batches.len()).find(|&bi| !s.local_override[bi]).expect("an offloaded batch");
    assert_eq!(s.deployments[0].plan.side(enhance), Side::Cloud, "NTC offloads enhance");
    s.states.failed[bi] = false;
    let released = replay(&Environment::metro_reference(), &mut s, |run| {
        run.done(SimTime::from_secs(1), bi, capture, crate::site::Site::Device);
        pending_execs(run.sim)
    });
    assert_eq!(released.len(), 1);
    let (wait, c) = released[0];
    assert_eq!(c, enhance);
    assert!(wait > SimDuration::ZERO, "released before its input crossed the radio link");
}

/// A join starts when its latest input lands, whatever order its inputs
/// are routed in: photo-pipeline's `publish` waits for `enhance` and
/// `thumbnail`, and an input routed first but landing last holds it back.
/// Its entry in the join map lives from its first input to its release.
#[test]
fn a_component_waits_for_its_latest_input() {
    use ntc_partition::Side;
    use ntc_simcore::units::SimTime;

    use crate::site::Site;

    let (mut s, _, _) = finished_photo_run();
    let [enhance, thumbnail, publish] =
        ["enhance", "thumbnail", "publish"].map(|name| photo_component(&s, name));
    let (bi, early) = (0, SimTime::from_secs(1));
    let late = early + SimDuration::from_hours(5);
    let ti = crate::engine::admission::unit_key(bi, publish);
    // Each input finishes where the plan runs it.
    let d = &s.deployments[0];
    let ran_on = |c| if d.plan.side(c) == Side::Cloud { d.site_chain[0] } else { Site::Device };
    let [enhance_site, thumbnail_site] = [enhance, thumbnail].map(ran_on);
    let site = |c| if c == enhance { enhance_site } else { thumbnail_site };
    s.states.failed[bi] = false;
    for (first, second) in [(enhance, thumbnail), (thumbnail, enhance)] {
        replay(&Environment::metro_reference(), &mut s, |run| {
            run.done(late, bi, first, site(first));
            let (due, latest) = run.states.joins[&ti];
            assert_eq!(due, 1, "one input still due");
            assert!(latest >= late);
            run.done(early, bi, second, site(second));
            assert!(!run.states.joins.contains_key(&ti), "a released join kept its entry");
            let released: Vec<_> = pending_execs(run.sim);
            let waits: Vec<_> = released.iter().filter(|&&(_, c)| c == publish).collect();
            assert_eq!(waits.len(), 1, "publish released once");
            assert_eq!(waits[0].0, latest - early, "released before its latest input");
        });
    }
}

/// A batch settles once, when its exit's result lands (on the device, as
/// soon as the exit finishes). A later settle, say for a straggler's
/// failure, changes nothing.
#[test]
fn a_batch_settles_once_at_its_latest_exit() {
    use ntc_faults::FailureCause;
    use ntc_simcore::units::SimTime;

    let (mut s, _, _) = finished_photo_run();
    let publish = photo_component(&s, "publish");
    let (bi, t) = (0, SimTime::from_secs(10));
    s.states.finished[bi] = false;
    s.states.failed[bi] = false;
    s.acct.reset(s.jobs.len(), crate::engine::JobRetention::Full);
    let env = Environment::metro_reference();
    let horizon = SimDuration::from_hours(1);
    let r = replay(&env, &mut s, |run| {
        run.done(t, bi, publish, crate::site::Site::Device);
        assert!(run.states.finished[bi], "the exit's result landed unsettled");
        run.settle(bi, SimTime::from_secs(30), Some(FailureCause::Timeout));
        let end = SimTime::ZERO + horizon;
        run.acct.assemble(&OffloadPolicy::ntc(), &env, horizon, end, t, &mut run.sites, run.health)
    });
    assert!(s.states.finished[bi] && !s.states.failed[bi], "settled twice");
    let members = crate::engine::admission::members_of(&s.batches, &s.members, bi);
    assert_eq!(r.jobs.len(), members.len(), "only batch 0 settled");
    assert!(r.jobs.iter().all(|j| j.finish == t && !j.failed), "settled twice or late");
}

/// Every join entry is removed at its release, so a fault-free run, in
/// which every join is released, leaves the map empty.
#[test]
fn a_drained_fault_free_run_leaves_no_join_entry() {
    use crate::engine::{JobRetention, RunScratch};

    let mut s = RunScratch::new();
    let horizon = SimDuration::from_hours(1);
    let r = engine().run_retained(
        7,
        &OffloadPolicy::ntc(),
        &photo_specs(0.02),
        horizon,
        &mut s,
        JobRetention::Full,
    );
    assert!(!r.jobs.is_empty() && r.failures() == 0);
    assert!(s.states.joins.is_empty(), "{} joins left", s.states.joins.len());
}

// --- Breaker probe slots. ---

/// The breakers are asked once per invocation. A batch that falls back
/// onto a HalfOpen site asks when it re-executes there and gets the
/// probe, and its outcome closes the breaker. A second question from
/// the same batch (the old fallback walk asked before `exec` asked
/// again) would take the slot and then be refused it, leaving the site
/// HalfOpen with nobody to resolve the probe.
#[test]
fn a_fallback_onto_a_half_open_site_spends_its_probe() {
    use ntc_faults::health::{COOLDOWN_CAP, FAILURE_THRESHOLD};
    use ntc_faults::{BreakerState, HealthConfig};
    use ntc_simcore::rng::RngStream;
    use ntc_simcore::units::SimTime;

    use crate::engine::accounting::HealthMap;
    use crate::site::Site;

    let chain = [Site::Edge, Site::Cloud, Site::Device];
    let mut health = HealthMap::default();
    health.reset(HealthConfig { breakers: true, ..HealthConfig::disabled() });
    let trip = |health: &mut HealthMap, at: SimTime| {
        for _ in 0..FAILURE_THRESHOLD {
            health.site_mut(Site::Cloud).record_failure(at, &RngStream::root(7));
        }
        at + COOLDOWN_CAP
    };
    let cooled = trip(&mut health, SimTime::from_secs(10));
    assert_eq!(health.first_admitting(&chain, 1, cooled), Some(1), "the re-execution probes");
    assert_eq!(health.first_admitting(&chain, 1, cooled), Some(2), "one slot per HalfOpen site");
    health.site_mut(Site::Cloud).record_success(SimDuration::from_secs(1));
    assert_eq!(health.site(Site::Cloud).state(), BreakerState::Closed);

    let cooled = trip(&mut health, cooled);
    assert_eq!(health.first_admitting(&chain, 1, cooled), Some(1), "a walk that asks");
    let later = [SimDuration::from_millis(500), SimDuration::from_hours(5)];
    for wait in later {
        assert_eq!(health.first_admitting(&chain, 1, cooled + wait), Some(2), "{wait}");
    }
    assert_eq!(health.site(Site::Cloud).state(), BreakerState::HalfOpen, "stranded");
}

/// Under a dead edge and a cloud that is down for the first ten
/// minutes of every hour, batches fall back from the edge onto the
/// cloud while the cloud's breaker cycles through Open and HalfOpen.
/// Every probe slot handed out is resolved by an invocation, so once the
/// run drains no breaker is left HalfOpen, and the cloud, up when the
/// last batches ran, ends Closed.
#[test]
fn every_probe_slot_is_resolved_by_its_invocation() {
    use ntc_faults::{BreakerState, HealthConfig};
    use ntc_net::ConnectivityTrace;

    use crate::engine::{JobRetention, RunScratch};
    use crate::site::Site;

    let mut env = Environment::metro_reference();
    let hour = SimDuration::from_hours(1);
    let down = vec![(SimDuration::ZERO, false)];
    env.faults.site_availability.insert("edge".into(), ConnectivityTrace::new(hour, down));
    let cloud = vec![(SimDuration::ZERO, false), (SimDuration::from_mins(10), true)];
    env.faults.site_availability.insert("cloud".into(), ConnectivityTrace::new(hour, cloud));
    let policy = OffloadPolicy::Ntc(crate::NtcConfig {
        primary_backend: Backend::Edge,
        use_batching: false,
        health: HealthConfig { breakers: true, ..HealthConfig::disabled() },
        ..Default::default()
    });
    let mut scratch = RunScratch::new();
    let horizon = SimDuration::from_hours(6);
    let r = Engine::new(env, 7).run_retained(
        7,
        &policy,
        &photo_specs(0.02),
        horizon,
        &mut scratch,
        JobRetention::Full,
    );
    for site in [Site::Edge, Site::Cloud] {
        assert_ne!(scratch.health.site(site).state(), BreakerState::HalfOpen, "{site}");
    }
    assert_eq!(scratch.health.site(Site::Cloud).state(), BreakerState::Closed);
    let o = r.overload.as_ref().expect("health layer on");
    assert!(o.breaker_transitions["cloud"] >= 6, "{:?}", o.breaker_transitions);
    assert!(r.total_fallbacks() > 0);
}

// --- Coalescing. ---

mod coalescing {
    use std::collections::HashMap;

    use ntc_alloc::{dispatch_time, DispatchPolicy};
    use ntc_check::prelude::*;
    use ntc_simcore::rng::RngStream;
    use ntc_simcore::units::{DataSize, SimDuration, SimTime};
    use ntc_workloads::{Archetype, Job};

    use crate::deploy::{deploy, Deployment};
    use crate::engine::admission::{coalesce_into, members_of, Batch, COMPLETION_MARGIN};
    use crate::engine::hash::FastMap;
    use crate::engine::DeploymentOf;
    use crate::environment::Environment;
    use crate::policy::OffloadPolicy;

    const ARCHETYPES: [Archetype; 3] =
        [Archetype::PhotoPipeline, Archetype::LogAnalytics, Archetype::ReportRendering];

    /// One batch as both algorithms describe it.
    #[derive(Debug, PartialEq)]
    struct Formed {
        di: usize,
        dispatch_at: SimTime,
        sum_input: DataSize,
        key: u64,
        members: Vec<usize>,
    }

    /// Coalescing as it was before batches shared one member array and
    /// the key map was pruned: a member `Vec` per batch, and one key per
    /// batch kept for the whole run.
    fn reference(
        deployments: &[Deployment],
        deployment_of: &DeploymentOf,
        jobs: &[Job],
    ) -> Vec<Formed> {
        let mut batches: Vec<Formed> = Vec::new();
        let mut key: HashMap<(usize, SimTime), usize> = HashMap::new();
        for (ji, job) in jobs.iter().enumerate() {
            let di = deployment_of[job.archetype.index()].expect("deployed");
            let d = &deployments[di];
            let at = dispatch_time(
                d.dispatch,
                job.arrival,
                job.slack,
                d.est_completion,
                COMPLETION_MARGIN,
            );
            let fits = |b: &Formed| {
                b.members.len() < d.max_batch_members as usize
                    && b.sum_input.as_bytes().saturating_add(job.input.as_bytes())
                        <= d.max_batch_bytes.as_bytes()
            };
            let bi = match key.get(&(di, at)) {
                Some(&bi) if fits(&batches[bi]) => bi,
                _ => {
                    batches.push(Formed {
                        di,
                        dispatch_at: at,
                        sum_input: DataSize::ZERO,
                        key: job.key,
                        members: Vec::new(),
                    });
                    key.insert((di, at), batches.len() - 1);
                    batches.len() - 1
                }
            };
            let b = &mut batches[bi];
            b.members.push(ji);
            b.sum_input += job.input;
        }
        batches
    }

    /// Runs the engine's coalescing; returns its batches and how many
    /// keys its map still holds.
    fn coalesce(
        deployments: &[Deployment],
        deployment_of: &DeploymentOf,
        jobs: &[Job],
    ) -> (Vec<Formed>, usize) {
        let (mut batches, mut batch_of, mut key, mut members) =
            (Vec::<Batch>::new(), Vec::new(), FastMap::default(), Vec::new());
        coalesce_into(
            deployments,
            deployment_of,
            jobs,
            &mut batches,
            &mut batch_of,
            &mut key,
            &mut members,
        );
        let formed = batches
            .iter()
            .enumerate()
            .map(|(bi, b)| Formed {
                di: b.di as usize,
                dispatch_at: b.dispatch_at,
                sum_input: b.sum_input,
                key: b.key,
                members: members_of(&batches, &members, bi).iter().map(|&ji| ji as usize).collect(),
            })
            .collect();
        (formed, key.len())
    }

    /// One deployment per archetype in [`ARCHETYPES`], all under
    /// `dispatch` with the given member and byte caps.
    fn deployments(
        env: &Environment,
        dispatch: DispatchPolicy,
        max_members: u32,
        max_bytes: DataSize,
    ) -> (Vec<Deployment>, DeploymentOf) {
        let rng = RngStream::root(7);
        let deployments = ARCHETYPES
            .iter()
            .map(|&a| Deployment {
                dispatch,
                max_batch_members: max_members,
                max_batch_bytes: max_bytes,
                ..deploy(&OffloadPolicy::ntc(), a, env, 0.01, a.typical_slack(), &rng)
            })
            .collect();
        let mut deployment_of = DeploymentOf::default();
        for (i, a) in ARCHETYPES.iter().enumerate() {
            deployment_of[a.index()] = Some(i);
        }
        (deployments, deployment_of)
    }

    /// Jobs from `(gap_s, archetype, input_kib, slack_factor)` tuples,
    /// sorted by arrival as the workload generator emits them.
    fn jobs(spec: &[(u64, usize, u64, f64)]) -> Vec<Job> {
        let mut arrival = SimTime::ZERO;
        spec.iter()
            .enumerate()
            .map(|(i, &(gap_s, a, kib, slack_factor))| {
                arrival += SimDuration::from_secs(gap_s);
                let archetype = ARCHETYPES[a];
                Job {
                    id: i as u64,
                    key: i as u64,
                    archetype,
                    arrival,
                    input: DataSize::from_kib(kib),
                    slack: archetype.typical_slack().mul_f64(slack_factor),
                }
            })
            .collect()
    }

    /// Gaps between arrivals, in seconds: mostly ties, so keys recur
    /// across a prune.
    fn gaps() -> impl Strategy<Value = u64> {
        prop::sample::select(vec![0, 0, 0, 1, 45, 600, 3_600])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The pruned, flat coalescing forms exactly the batches of the
        /// unpruned per-batch-`Vec` reference, under every dispatch
        /// policy, with small caps that split keys across batches and
        /// jittered slack that makes dispatch instants non-monotone.
        #[test]
        fn coalescing_matches_the_unpruned_reference(
            kind in 0u8..3,
            window_mins in 1u64..120,
            caps in (1u32..6, 1u64..64),
            spec in prop::collection::vec((gaps(), 0usize..3, 1u64..16, 0.0f64..2.0), 1..400),
        ) {
            let window = SimDuration::from_mins(window_mins);
            let dispatch = match kind {
                0 => DispatchPolicy::Immediate,
                1 => DispatchPolicy::Windowed { window },
                _ => DispatchPolicy::OffPeak { window },
            };
            let env = Environment::metro_reference();
            let (deployments, deployment_of) =
                deployments(&env, dispatch, caps.0, DataSize::from_kib(caps.1));
            let jobs = jobs(&spec);
            let (formed, _) = coalesce(&deployments, &deployment_of, &jobs);
            prop_assert_eq!(formed, reference(&deployments, &deployment_of, &jobs));
        }
    }

    #[test]
    fn immediate_dispatch_keeps_the_key_map_small() {
        let env = Environment::metro_reference();
        let (deployments, deployment_of) =
            deployments(&env, DispatchPolicy::Immediate, 8, DataSize::from_mib(64));
        let spec: Vec<_> = (0..10_000).map(|i| (1 + i % 3, (i % 3) as usize, 4, 1.0)).collect();
        let jobs = jobs(&spec);
        let (formed, keys) = coalesce(&deployments, &deployment_of, &jobs);
        assert_eq!(formed.len(), jobs.len(), "distinct arrivals never share a batch");
        assert!(keys <= 128, "{keys} keys retained for {} batches", formed.len());
    }
}

mod batch_state {
    use ntc_partition::{PartitionPlan, Side};
    use ntc_simcore::rng::RngStream;
    use ntc_taskgraph::{Component, LinearModel, TaskGraphBuilder};
    use ntc_workloads::Archetype;

    use crate::deploy::{deploy, Deployment};
    use crate::engine::admission::{check_u8_counts, BatchStates};
    use crate::environment::Environment;
    use crate::policy::OffloadPolicy;

    #[test]
    fn every_archetype_fits_the_u8_counters() {
        for a in Archetype::all() {
            let g = a.graph();
            let in_degree = g.ids().map(|c| g.predecessors(c).count()).max().unwrap_or(0);
            assert!(in_degree <= usize::from(u8::MAX), "{}: in-degree {in_degree}", a.name());
            assert_eq!(g.exits().len(), 1, "{}: a batch settles at its one exit", a.name());
        }
    }

    #[test]
    #[should_panic(expected = "batch state counts predecessors as u8: graph `fan-in`")]
    fn a_fan_in_past_u8_is_refused() {
        let mut b = TaskGraphBuilder::new("fan-in");
        let sink = b.add_component(Component::new("sink"));
        for i in 0..256 {
            let source = b.add_component(Component::new(format!("s{i}")));
            b.add_flow(source, sink, LinearModel::constant(1.0));
        }
        check_u8_counts(&b.build().expect("a valid DAG"));
    }

    #[test]
    #[should_panic(expected = "events name a component as u8: graph `long-chain` has 257")]
    fn a_graph_past_256_components_is_refused() {
        let mut b = TaskGraphBuilder::new("long-chain");
        let mut last = b.add_component(Component::new("c0"));
        for i in 1..257 {
            let next = b.add_component(Component::new(format!("c{i}")));
            b.add_flow(last, next, LinearModel::constant(1.0));
            last = next;
        }
        check_u8_counts(&b.build().expect("a valid DAG"));
    }

    #[test]
    #[should_panic(expected = "a batch settles at its one exit: graph `two-exits` has 2")]
    fn a_second_exit_is_refused() {
        let mut b = TaskGraphBuilder::new("two-exits");
        let source = b.add_component(Component::new("source"));
        for name in ["x0", "x1"] {
            let exit = b.add_component(Component::new(name));
            b.add_flow(source, exit, LinearModel::constant(1.0));
        }
        let graph = b.build().expect("a valid DAG");
        let (env, a) = (Environment::metro_reference(), Archetype::PhotoPipeline);
        let d = deploy(
            &OffloadPolicy::LocalOnly,
            a,
            &env,
            0.01,
            a.typical_slack(),
            &RngStream::root(7),
        );
        let plan = PartitionPlan::new(vec![Side::Device; graph.len()]);
        BatchStates::default().reset(&[Deployment { graph, plan, ..d }], &[]);
    }

    #[test]
    #[should_panic(
        expected = "dispatch starts entry components on the device: `photo-pipeline`'s plan"
    )]
    fn an_entry_off_the_device_is_refused() {
        let (env, a) = (Environment::metro_reference(), Archetype::PhotoPipeline);
        let d =
            deploy(&OffloadPolicy::CloudAll, a, &env, 0.01, a.typical_slack(), &RngStream::root(7));
        let plan = PartitionPlan::new(vec![Side::Cloud; d.graph.len()]);
        BatchStates::default().reset(&[Deployment { plan, ..d }], &[]);
    }
}

// --- The local override. ---

/// The pre-dispatch override, case by case, for one job dispatched at
/// once: a remote estimate of 10 min and a device estimate of 2 min, each
/// with [`COMPLETION_MARGIN`](crate::engine::admission::COMPLETION_MARGIN)
/// (1 min) on top, and the outage ahead of the batch added to the remote
/// reserve.
#[test]
fn the_local_override_needs_a_remote_miss_and_a_local_fit() {
    use ntc_net::ConnectivityTrace;
    use ntc_simcore::rng::RngStream;
    use ntc_simcore::units::SimTime;
    use ntc_workloads::Job;

    use crate::deploy::{deploy, Deployment};
    use crate::engine::admission::{local_overrides_into, Batch};

    let mins = |m: f64| SimDuration::from_secs_f64(m * 60.0);
    let mut env = Environment::metro_reference();
    let a = Archetype::LogAnalytics;
    let d = deploy(&OffloadPolicy::ntc(), a, &env, 0.01, a.typical_slack(), &RngStream::root(7));
    let d = Deployment { est_completion: mins(10.0), est_local: mins(2.0), ..d };
    let overridden = |env: &Environment, d: &Deployment, slack: SimDuration| {
        let job = Job {
            id: 0,
            key: 7,
            archetype: a,
            arrival: SimTime::ZERO,
            input: DataSize::from_mib(1),
            slack,
        };
        let batch = Batch {
            di: 0,
            members_start: 0,
            dispatch_at: SimTime::ZERO,
            sum_input: job.input,
            key: job.key,
        };
        let mut out = Vec::new();
        local_overrides_into(env, std::slice::from_ref(d), &[job], &[batch], &[0], &mut out);
        out[0]
    };
    assert!(!overridden(&env, &d, mins(2.5)), "local cannot keep the margin");
    assert!(overridden(&env, &d, mins(3.5)), "local keeps it, remote cannot");
    assert!(overridden(&env, &d, mins(10.5)), "remote cannot keep the margin");
    assert!(!overridden(&env, &d, mins(11.5)), "remote keeps it");
    let no_fallback = Deployment { fallback_local: false, ..d.clone() };
    assert!(!overridden(&env, &no_fallback, mins(3.5)), "the policy has no local fallback");
    let outage = vec![(SimDuration::ZERO, false), (mins(5.0), true)];
    env.connectivity = ConnectivityTrace::new(SimDuration::from_hours(1), outage);
    assert!(overridden(&env, &d, mins(11.5)), "the outage ahead breaks the remote reserve");
}
