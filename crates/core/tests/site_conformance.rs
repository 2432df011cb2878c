//! Behavioral conformance suite for the execution sites.
//!
//! Every site obligation gets one `#[test]`, exercised against all of
//! [`Site::ALL`] — the invocation obligations against every remote site
//! through the same fixture, the device's through
//! [`DeviceModel::execute_members`](ntc_core::DeviceModel::execute_members)
//! — so a new `Site` variant inherits the whole suite (and joins
//! [`fixture`]'s provisioning loop if it needs provisioning).

use ntc_core::{deploy, Deployment, Environment, OffloadPolicy, Site, SiteRegistry};
use ntc_faults::{ErrorClass, FailureCause, FaultConfig};
use ntc_net::ConnectivityTrace;
use ntc_simcore::rng::RngStream;
use ntc_simcore::units::{Cycles, Energy, Money, SimDuration, SimTime};
use ntc_taskgraph::ComponentId;
use ntc_workloads::Archetype;

/// A registry with one provisioned deployment per remote site: index 0 is
/// cloud-backed, index 1 is edge-backed. Deterministic for a given seed.
struct Fixture {
    registry: SiteRegistry,
    deployments: Vec<Deployment>,
}

/// One provisioned (site, deployment, component) case.
struct Case {
    site: Site,
    di: usize,
    comp: ComponentId,
}

fn fixture(seed: u64) -> Fixture {
    let env = Environment::metro_reference();
    let rng = RngStream::root(seed);
    let mut registry = SiteRegistry::standard(&env, &rng);
    let slack = Archetype::PhotoPipeline.typical_slack();
    let deployments = vec![
        deploy(&OffloadPolicy::CloudAll, Archetype::PhotoPipeline, &env, 0.1, slack, &rng),
        deploy(&OffloadPolicy::EdgeAll, Archetype::PhotoPipeline, &env, 0.1, slack, &rng),
    ];
    for (di, d) in deployments.iter().enumerate() {
        let comp = d.plan.offloaded().next().expect("full offload has offloaded components");
        let site = d.site_chain[0];
        registry.attach(site);
        registry.provision(site, di, d, comp);
    }
    Fixture { registry, deployments }
}

impl Fixture {
    /// The provisioned remote cases, one per remote site.
    fn cases(&self) -> Vec<Case> {
        self.deployments
            .iter()
            .enumerate()
            .map(|(di, d)| Case {
                site: d.site_chain[0],
                di,
                comp: d.plan.offloaded().next().expect("offloaded component"),
            })
            .collect()
    }

    /// Runs one batch-sized invocation of `case` at `at` and returns its
    /// latency or failure.
    fn invoke(
        &mut self,
        case: &Case,
        at: SimTime,
        work: Cycles,
    ) -> Result<SimDuration, (ErrorClass, FailureCause)> {
        self.registry.invoke(case.site, at, case.di, case.comp, work)
    }
}

/// A schedule that is offline from its start and never comes back.
fn never_online() -> ConnectivityTrace {
    ConnectivityTrace::new(SimDuration::from_hours(1), vec![(SimDuration::ZERO, false)])
}

/// A fault config in which every site in `down` follows `trace`.
fn sites_down(down: &[Site], trace: &ConnectivityTrace) -> FaultConfig {
    let mut cfg = FaultConfig::none();
    for site in down {
        cfg.site_availability.insert(site.name().to_string(), trace.clone());
    }
    cfg
}

/// A fault config in which every *remote* site is permanently offline.
fn all_remote_sites_dark() -> FaultConfig {
    let remote: Vec<Site> = Site::ALL.into_iter().filter(|s| s.is_remote()).collect();
    sites_down(&remote, &never_online())
}

#[test]
fn identities_and_ranks_are_distinct_and_device_is_last() {
    let mut names: Vec<&str> = Site::ALL.iter().map(|s| s.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), Site::ALL.len(), "site names must be unique");
    let ranks: Vec<usize> = Site::ALL.iter().map(|s| s.index()).collect();
    assert!(ranks.windows(2).all(|w| w[0] < w[1]), "ALL lists sites in strict fallback order");
    let last = Site::ALL[Site::ALL.len() - 1];
    assert_eq!(last, Site::Device, "the device is the fallback of last resort");
    assert!(!last.is_remote());
}

#[test]
fn outages_honor_the_fault_plan_on_every_remote_site() {
    let dark = all_remote_sites_dark();
    let clear = FaultConfig::none();
    let at = SimTime::ZERO + SimDuration::from_mins(30);
    for site in Site::ALL {
        if site.is_remote() {
            assert!(
                matches!(site.outage(&dark, at), Some((ErrorClass::Fallback, _))),
                "{site}: a permanently-dark schedule must send the work down the chain"
            );
        } else {
            // A member's device is reachable from itself even when every
            // remote site is dark.
            assert_eq!(site.outage(&dark, at), None, "{site}");
        }
        assert_eq!(site.outage(&clear, at), None, "{site}");
    }
}

#[test]
fn an_edge_outage_names_the_edge_and_a_cloud_outage_is_generic() {
    // The flaky schedule is down from 100 to 120 minutes.
    let (mid_outage, back) = (SimTime::from_secs(110 * 60), SimTime::from_secs(2 * 3600));
    let cause = |site: Site| match site {
        Site::Edge => FailureCause::EdgeOutage,
        Site::Cloud | Site::Device => FailureCause::SiteOutage,
    };
    for down in Site::ALL.into_iter().filter(|s| s.is_remote()) {
        let faults = sites_down(&[down], &ConnectivityTrace::flaky());
        for site in Site::ALL {
            let want = (site == down).then_some((ErrorClass::WaitUntil(back), cause(site)));
            assert_eq!(site.outage(&faults, mid_outage), want, "{site} with {down} down");
        }
        let dead = sites_down(&[down], &never_online());
        assert_eq!(down.outage(&dead, mid_outage), Some((ErrorClass::Fallback, cause(down))));
    }
    // The device is always online, even when its name is scheduled dark.
    let dark_device = sites_down(&[Site::Device], &never_online());
    assert_eq!(Site::Device.outage(&dark_device, mid_outage), None);
}

#[test]
fn cost_is_monotone_in_work() {
    let at = SimTime::ZERO + SimDuration::from_hours(1);
    let light = Cycles::new(1_000_000);
    let heavy = Cycles::new(50_000_000_000);
    let horizon_end = SimTime::ZERO + SimDuration::from_hours(2);
    let drained = SimTime::ZERO + SimDuration::from_hours(10);
    for case in &fixture(7).cases() {
        let run = |work: Cycles| {
            let mut fx = fixture(7);
            fx.invoke(case, at, work).unwrap_or_else(|e| {
                panic!("{}: clean invocation failed: {e:?}", case.site);
            });
            fx.registry.cost(case.site, drained, horizon_end)
        };
        let cheap = run(light);
        let dear = run(heavy);
        assert!(
            dear >= cheap,
            "{}: cost must not decrease with work ({cheap} vs {dear})",
            case.site
        );
        if case.site.is_serverless() {
            assert!(dear > cheap, "{}: serverless sites bill execution time", case.site);
        }
    }
}

#[test]
fn invocations_are_deterministic_under_a_fixed_seed() {
    let at = SimTime::ZERO + SimDuration::from_hours(1);
    let work = Cycles::new(10_000_000_000);
    for case in &fixture(7).cases() {
        let mut a = fixture(7);
        let mut b = fixture(7);
        let ra = a.invoke(case, at, work).expect("clean invocation succeeds");
        let rb = b.invoke(case, at, work).expect("clean invocation succeeds");
        assert_eq!(ra, rb, "{}: same seed must replay the same outcome", case.site);
        assert!(ra > SimDuration::ZERO, "{}: work takes time", case.site);
    }
}

#[test]
fn device_execution_waits_for_the_slowest_member_and_bills_every_battery() {
    let env = Environment::metro_reference();
    let device = env.device;
    let works = [Cycles::new(500_000_000), Cycles::new(2_000_000_000), Cycles::new(0)];
    let (slowest, energy) = device.execute_members(works);
    assert_eq!(slowest, device.execution_time(works[1]), "the slowest member sets the wall-clock");
    let batteries = works.iter().fold(Energy::ZERO, |e, &w| e + device.compute_energy(w));
    assert_eq!(energy, batteries, "every member's battery pays");
    assert!(energy > Energy::ZERO);
    assert_eq!(device.execute_members(works), (slowest, energy), "device execution is pure");
    let doubled = device.execute_members(works.map(|w| Cycles::new(w.get() * 2)));
    assert!(doubled.0 > slowest && doubled.1 > energy, "more work takes longer and drains more");
    assert_eq!(device.execute_members([]), (SimDuration::ZERO, Energy::ZERO));
    // Its work is paid in battery, never in money.
    let mut registry = SiteRegistry::standard(&env, &RngStream::root(1));
    let end = SimTime::ZERO + SimDuration::from_hours(10);
    assert_eq!(registry.cost(Site::Device, end, end), Money::ZERO);
}

#[test]
#[should_panic(expected = "members' own devices")]
fn the_registry_never_invokes_the_device() {
    let env = Environment::metro_reference();
    let mut registry = SiteRegistry::standard(&env, &RngStream::root(1));
    let _ =
        registry.invoke(Site::Device, SimTime::ZERO, 0, ComponentId::from_index(0), Cycles::new(1));
}

#[test]
fn health_reporting_obligations_hold_for_every_site() {
    let env = Environment::metro_reference();
    for site in Site::ALL {
        let width = site.concurrency(&env);
        assert!(width >= 1, "{site}: concurrency must be at least 1");
        if !site.is_remote() {
            // The device scales per member: it never queues, which it
            // reports as unbounded width.
            assert_eq!(width, u32::MAX, "{site}");
        }
    }
    // The fixed edge fleet is the one genuinely bounded site: its width
    // is exactly its slot count, the divisor the admission controller
    // turns queue occupancy into waiting time with.
    let slots = env.edge.servers * env.edge.slots_per_server;
    assert_eq!(Site::Edge.concurrency(&env), slots, "edge width is its slot count");
    assert!(slots < u32::MAX, "a fixed fleet is bounded");
}

#[test]
fn shares_and_paths_stay_physical() {
    let env = Environment::metro_reference();
    for site in Site::ALL {
        for hour in 0..24 {
            let at = SimTime::ZERO + SimDuration::from_hours(hour);
            let share = site.wan_share(&env, at);
            assert!(share > 0.0 && share <= 1.0, "{site}: wan share {share} at hour {hour}");
        }
        let planning = site.planning_share(&env);
        assert!(planning > 0.0 && planning <= 1.0, "{site}");
        assert!(site.ue_path(&env).base_latency() >= SimDuration::ZERO);
        assert!(
            site.execution_speed(&env, ntc_core::deploy::DEFAULT_MEMORY).as_hz() > 0,
            "{site}: execution speed must be positive"
        );
    }
}
