//! Execution sites: the three tiers the paper compares.
//!
//! A [`Site`] names one tier and answers every stateless question the
//! engine and the planner ask of it — UE and internal network paths,
//! WAN congestion share, outage lookup, execution speed, marginal cost,
//! whether it is serverless, concurrency and fallback order — from the
//! [`Environment`]. The [`SiteRegistry`] holds the two stateful
//! simulators behind the remote tiers and does provisioning,
//! invocation, keep-warm pings and billing in one `match` arm per site:
//!
//! * [`Site::Edge`] — a pre-paid edge fleet ([`ntc_edge`]): slot
//!   admission, installation delay, flat standing cost, LAN paths.
//! * [`Site::Cloud`] — a metered serverless platform
//!   ([`ntc_serverless`]): cold starts, queueing, per-invocation
//!   billing, WAN congestion.
//! * [`Site::Device`] — the members' own devices: no transfers, no
//!   faults, battery energy instead of money. The engine runs device
//!   work per member through
//!   [`DeviceModel::execute_members`](crate::device::DeviceModel::execute_members),
//!   never through the registry.
//!
//! Adding a tier means adding a variant; the compiler lists every
//! `match` that must learn about it.

use core::fmt;

use ntc_alloc::WarmStrategy;
use ntc_edge::{EdgeError, EdgeFleet, ServiceId};
use ntc_faults::{ErrorClass, FailureCause, FaultConfig};
use ntc_net::PathModel;
use ntc_serverless::{FunctionConfig, FunctionId, InvokeError, ServerlessPlatform};
use ntc_simcore::rng::{Key, KeyHasher, RngStream};
use ntc_simcore::units::{ClockSpeed, Cycles, DataSize, Money, SimDuration, SimTime};
use ntc_taskgraph::ComponentId;

use crate::deploy::Deployment;
use crate::environment::Environment;
use crate::policy::Backend;

/// One execution tier, declared in fallback order: a failure walks from
/// a site towards the device, the fallback of last resort.
///
/// The lowercase names (`"edge"`, `"cloud"`, `"device"`) appear verbatim
/// in fault keys, `site_availability` schedules, breaker-cooldown RNG
/// keys and reports, so their spelling is part of the reproducibility
/// contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Site {
    /// The edge fleet on the metro LAN.
    Edge,
    /// Cloud serverless behind the WAN.
    Cloud,
    /// The members' own devices.
    Device,
}

impl Site {
    /// Every site, in fallback order.
    pub const ALL: [Site; 3] = [Site::Edge, Site::Cloud, Site::Device];

    /// The site's stable name.
    pub fn name(self) -> &'static str {
        match self {
            Site::Edge => "edge",
            Site::Cloud => "cloud",
            Site::Device => "device",
        }
    }

    /// The site's position in [`Site::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether work here leaves the device. Remote sites pay transfers
    /// and are subject to the fault machinery; the device executes on
    /// the members' own hardware with neither.
    pub fn is_remote(self) -> bool {
        match self {
            Site::Edge | Site::Cloud => true,
            Site::Device => false,
        }
    }

    /// Whether this site is a metered serverless platform: work is billed
    /// per invocation, so memory sizing trades money against latency;
    /// instances go cold and can be kept warm; and an invocation timeout
    /// caps how much work one coalesced batch may carry. Only the cloud
    /// is: the edge is pre-paid and always resident, and the device pays
    /// in battery.
    pub fn is_serverless(self) -> bool {
        match self {
            Site::Cloud => true,
            Site::Edge | Site::Device => false,
        }
    }

    /// The failure-driven site-preference chain of a deployment whose
    /// primary is `primary`'s site: the primary, then every later site in
    /// fallback order. With fallback disabled the chain is just the
    /// primary. Every backend is remote and the device is the last site
    /// of [`Site::ALL`], so the chain's remote sites come first and the
    /// device, if present, last.
    pub fn fallback_chain(primary: Backend, fallback_enabled: bool) -> Vec<Site> {
        let primary = Site::from(primary);
        if fallback_enabled {
            Site::ALL[primary.index()..].to_vec()
        } else {
            vec![primary]
        }
    }

    /// The UE ↔ site network path. Device execution never crosses the
    /// network; the edge path is the conservative stand-in for planning
    /// queries that insist.
    pub fn ue_path(self, env: &Environment) -> &PathModel {
        match self {
            Site::Cloud => &env.topology.ue_cloud,
            Site::Edge | Site::Device => &env.topology.ue_edge,
        }
    }

    /// The path between two components hosted on this site.
    pub fn internal_path(self, env: &Environment) -> &PathModel {
        match self {
            Site::Cloud => &env.intra_cloud,
            Site::Edge | Site::Device => &env.intra_edge,
        }
    }

    /// Share of nominal UE-path bandwidth available at `at`. Congestion
    /// applies to the WAN only; the edge LAN is assumed provisioned for
    /// local traffic.
    pub fn wan_share(self, env: &Environment, at: SimTime) -> f64 {
        match self {
            Site::Cloud => env.wan_congestion.share_at(at).clamp(0.01, 1.0),
            Site::Edge | Site::Device => 1.0,
        }
    }

    /// The bandwidth share planning should assume. WAN transfers are
    /// planned at the congestion trough, so held jobs stay deadline-safe
    /// even if released into the evening peak.
    pub fn planning_share(self, env: &Environment) -> f64 {
        match self {
            Site::Cloud => env.wan_congestion.min_share().max(0.01),
            Site::Edge | Site::Device => 1.0,
        }
    }

    /// The error an invocation on this site at `at` meets from the
    /// site's availability schedule in `faults`: `None` while it is
    /// online, a free wait when the outage has a known end and a
    /// fallback when it has none (see [`FaultConfig::site_outage`]). The
    /// edge reports [`FailureCause::EdgeOutage`], the cloud the generic
    /// [`FailureCause::SiteOutage`]. A member's device is, by
    /// definition, reachable from itself.
    pub fn outage(self, faults: &FaultConfig, at: SimTime) -> Option<(ErrorClass, FailureCause)> {
        let cause = match self {
            Site::Edge => FailureCause::EdgeOutage,
            Site::Cloud => FailureCause::SiteOutage,
            Site::Device => return None,
        };
        Some((faults.site_outage(self.name(), at)?, cause))
    }

    /// Execution speed of one invocation at `memory` (planning).
    pub fn execution_speed(self, env: &Environment, memory: DataSize) -> ClockSpeed {
        match self {
            Site::Cloud => env.platform.cpu.effective_speed(memory),
            Site::Edge => env.edge.clock,
            Site::Device => env.device.clock,
        }
    }

    /// Marginal money per second of execution and per request at
    /// `memory` (planning). Edge infrastructure is pre-paid and the
    /// device costs battery, not money: both are zero.
    pub fn marginal_cost(self, env: &Environment, memory: DataSize) -> (Money, Money) {
        match self {
            Site::Cloud => {
                let gb = memory.as_bytes() as f64 / (1024.0 * 1024.0 * 1024.0);
                (env.platform.billing.per_gb_second.mul_f64(gb), env.platform.billing.per_request)
            }
            Site::Edge | Site::Device => (Money::ZERO, Money::ZERO),
        }
    }

    /// How many invocations the site can execute concurrently — the
    /// width the health layer divides queue occupancy by when it
    /// estimates queueing delay (see
    /// [`SiteHealth::queue_delay`](ntc_faults::SiteHealth::queue_delay)).
    /// At least 1. Every member executes on its own device, so the
    /// device's width scales with the batch: it reports `u32::MAX` and
    /// never queues.
    pub fn concurrency(self, env: &Environment) -> u32 {
        match self {
            Site::Cloud => env.platform.region_concurrency.max(1),
            Site::Edge => env.edge.servers.saturating_mul(env.edge.slots_per_server).max(1),
            Site::Device => u32::MAX,
        }
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Spelled as its `Display`, the site's name.
impl Key for Site {
    #[inline]
    fn spell(&self, h: &mut KeyHasher) {
        h.write_str(self.name());
    }
}

impl From<Backend> for Site {
    fn from(backend: Backend) -> Self {
        match backend {
            Backend::Cloud => Site::Cloud,
            Backend::Edge => Site::Edge,
        }
    }
}

/// What a remote site registered for each provisioned component, indexed
/// densely by deployment, then component: a lookup on every invocation
/// and every chain walk is two bounds-checked loads, not a hash.
#[derive(Debug)]
struct ByComponent<T>(Vec<Vec<Option<T>>>);

impl<T> Default for ByComponent<T> {
    fn default() -> Self {
        ByComponent(Vec::new())
    }
}

impl<T: Copy> ByComponent<T> {
    fn insert(&mut self, di: usize, comp: ComponentId, value: T) {
        if self.0.len() <= di {
            self.0.resize_with(di + 1, Vec::new);
        }
        let row = &mut self.0[di];
        if row.len() <= comp.index() {
            row.resize(comp.index() + 1, None);
        }
        row[comp.index()] = Some(value);
    }

    fn get(&self, di: usize, comp: ComponentId) -> Option<T> {
        self.0.get(di)?.get(comp.index()).copied().flatten()
    }
}

/// The stateful simulators behind the remote sites of one engine run:
/// the metered serverless platform behind the cloud and the pre-paid
/// edge fleet, each with what it registered per provisioned component.
/// The device needs no state: it is provisioned nowhere and bills
/// nothing.
#[derive(Debug)]
pub struct SiteRegistry {
    platform: ServerlessPlatform,
    fns: ByComponent<FunctionId>,
    fleet: EdgeFleet,
    svcs: ByComponent<ServiceId>,
    /// Whether any deployment targets the edge as its primary; its
    /// standing infrastructure cost is billed from the moment one does,
    /// busy or idle.
    edge_attached: bool,
}

impl SiteRegistry {
    /// The registry backed by live simulators, drawing platform
    /// randomness from `rng`.
    pub fn standard(env: &Environment, rng: &RngStream) -> Self {
        SiteRegistry {
            platform: ServerlessPlatform::new(env.platform.clone(), rng.derive("platform")),
            fns: ByComponent::default(),
            fleet: EdgeFleet::new(env.edge),
            svcs: ByComponent::default(),
            edge_attached: false,
        }
    }

    /// Marks `site` as a deployment's primary, so standing
    /// infrastructure cost is billed even if no work ever arrives.
    /// Only the flat-rate edge has standing cost.
    pub fn attach(&mut self, site: Site) {
        if site == Site::Edge {
            self.edge_attached = true;
        }
    }

    /// Provisions `comp` of deployment `di` on `site`: a function on the
    /// cloud, a service installing from t = 0 on the edge, nothing on the
    /// device. Returns the keep-warm ping period the engine should
    /// schedule, if the deployment's strategy uses a warmer. Only a
    /// serverless primary's deployment is warmed, so a cloud mirror
    /// behind an edge primary never is.
    pub fn provision(
        &mut self,
        site: Site,
        di: usize,
        d: &Deployment,
        comp: ComponentId,
    ) -> Option<SimDuration> {
        let artifact = d.graph.component(comp).artifact_size();
        match site {
            Site::Cloud => {
                // Mirrors register like primaries: registration alone
                // accrues no cost, and nothing is billed unless a mirror
                // is invoked.
                let config = FunctionConfig::new(d.memory[comp.index()]);
                let f = self.platform.register(config.with_artifact_size(artifact));
                self.fns.insert(di, comp, f);
                match d.warm {
                    WarmStrategy::Provisioned { count } => {
                        self.platform.set_provisioned(SimTime::ZERO, f, count);
                    }
                    WarmStrategy::Warmer { period } if !period.is_zero() => return Some(period),
                    _ => {}
                }
            }
            Site::Edge => {
                let s = self.fleet.register();
                self.fleet.install(SimTime::ZERO, s, artifact);
                self.svcs.insert(di, comp, s);
            }
            Site::Device => {}
        }
        None
    }

    /// Executes one attempt of `work` for `comp` of deployment `di` on
    /// remote `site` at `at`: one invocation for a whole coalesced batch.
    /// Returns its latency from `at`, or the failure's recovery class
    /// and cause, classified here from the simulator's error or timeout.
    ///
    /// # Panics
    ///
    /// Panics if `comp` was never provisioned on `site`, and on
    /// [`Site::Device`], which the engine never invokes here: it runs
    /// device work per member through
    /// [`DeviceModel::execute_members`](crate::device::DeviceModel::execute_members).
    pub fn invoke(
        &mut self,
        site: Site,
        at: SimTime,
        di: usize,
        comp: ComponentId,
        work: Cycles,
    ) -> Result<SimDuration, (ErrorClass, FailureCause)> {
        match site {
            Site::Cloud => {
                let f = self.fns.get(di, comp).expect("invoked a function never provisioned");
                match self.platform.invoke(at, f, work) {
                    Ok(out) if !out.timed_out => Ok(out.finish - at),
                    // The engine fixes an invocation's compute noise per
                    // (batch, component), so the same work would time out
                    // on this backend again: only another one can help.
                    Ok(_) => Err((ErrorClass::Fallback, FailureCause::Timeout)),
                    Err(e) => Err(cloud_failure(&e)),
                }
            }
            Site::Edge => {
                let s = self.svcs.get(di, comp).expect("invoked a service never provisioned");
                match self.fleet.invoke(at, s, work) {
                    Ok(out) => Ok(out.finish - at),
                    Err(e) => Err(edge_failure(&e)),
                }
            }
            Site::Device => unreachable!(
                "device work runs on the members' own devices: the engine invokes only \
                 remote chain positions, and hedges only remote sites"
            ),
        }
    }

    /// Fires a keep-warm ping for `comp` of deployment `di` on `site`.
    /// Only serverless functions go cold; edge services stay resident
    /// once installed.
    pub fn keep_warm(&mut self, site: Site, at: SimTime, di: usize, comp: ComponentId) {
        if site == Site::Cloud {
            if let Some(f) = self.fns.get(di, comp) {
                let _ = self.platform.invoke(at, f, Cycles::new(1_000));
            }
        }
    }

    /// Total money `site` charged: the metered cloud bills work drained
    /// through `drained_end`; the flat-rate edge bills standing
    /// infrastructure through `horizon_end` once attached; the device
    /// bills nothing (its work is paid in battery).
    pub fn cost(&mut self, site: Site, drained_end: SimTime, horizon_end: SimTime) -> Money {
        match site {
            Site::Cloud => self.platform.total_cost(drained_end),
            Site::Edge if self.edge_attached => self.fleet.infrastructure_cost(horizon_end),
            Site::Edge | Site::Device => Money::ZERO,
        }
    }
}

/// The recovery class and cause of a serverless-platform error.
fn cloud_failure(err: &InvokeError) -> (ErrorClass, FailureCause) {
    match err {
        InvokeError::UnknownFunction(_) => (ErrorClass::Terminal, FailureCause::Deployment),
        // Capacity never frees up (the platform documents the region as
        // permanently exhausted), so retrying the same backend is futile.
        InvokeError::CapacityExhausted => (ErrorClass::Fallback, FailureCause::Capacity),
        InvokeError::OutOfOrder { .. } => (ErrorClass::Terminal, FailureCause::Ordering),
    }
}

/// The recovery class and cause of an edge-fleet error. A service
/// still installing is ready strictly after the failed invocation
/// ([`EdgeError::NotInstalled`]), so it is waited for.
fn edge_failure(err: &EdgeError) -> (ErrorClass, FailureCause) {
    match err {
        EdgeError::UnknownService(_) => (ErrorClass::Terminal, FailureCause::Deployment),
        EdgeError::NotInstalled { ready_at: Some(ready), .. } => {
            (ErrorClass::WaitUntil(*ready), FailureCause::Deployment)
        }
        EdgeError::NotInstalled { ready_at: None, .. } => {
            (ErrorClass::Fallback, FailureCause::Deployment)
        }
        EdgeError::OutOfOrder { .. } => (ErrorClass::Terminal, FailureCause::Ordering),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_edge::EdgeConfig;
    use ntc_serverless::PlatformConfig;

    fn service_id() -> ServiceId {
        EdgeFleet::new(EdgeConfig::default()).register()
    }

    fn function_id() -> FunctionId {
        ServerlessPlatform::new(PlatformConfig::default(), RngStream::root(0))
            .register(FunctionConfig::new(DataSize::from_mib(128)))
    }

    #[test]
    fn all_lists_sites_in_fallback_order() {
        assert_eq!(Site::ALL, [Site::Edge, Site::Cloud, Site::Device]);
        for (i, site) in Site::ALL.into_iter().enumerate() {
            assert_eq!(site.index(), i);
        }
    }

    #[test]
    fn sites_spell_their_names() {
        for (site, name) in [(Site::Edge, "edge"), (Site::Cloud, "cloud"), (Site::Device, "device")]
        {
            assert_eq!(site.name(), name);
            assert_eq!(site.to_string(), name);
        }
    }

    #[test]
    fn only_the_cloud_is_serverless() {
        let serverless: Vec<Site> = Site::ALL.into_iter().filter(|s| s.is_serverless()).collect();
        assert_eq!(serverless, [Site::Cloud]);
    }

    #[test]
    fn backends_map_to_their_sites() {
        assert_eq!(Site::from(Backend::Cloud), Site::Cloud);
        assert_eq!(Site::from(Backend::Edge), Site::Edge);
    }

    #[test]
    fn fallback_chains_walk_fallback_order() {
        let chain = Site::fallback_chain;
        assert_eq!(chain(Backend::Edge, true), [Site::Edge, Site::Cloud, Site::Device]);
        assert_eq!(chain(Backend::Cloud, true), [Site::Cloud, Site::Device]);
        assert_eq!(chain(Backend::Edge, false), [Site::Edge]);
        assert_eq!(chain(Backend::Cloud, false), [Site::Cloud]);
    }

    #[test]
    fn unknown_service_is_terminal() {
        let (class, cause) = edge_failure(&EdgeError::UnknownService(service_id()));
        assert_eq!(class, ErrorClass::Terminal);
        assert_eq!(cause, FailureCause::Deployment);
    }

    #[test]
    fn installing_service_waits_until_ready() {
        let ready = SimTime::from_secs(30);
        let err = EdgeError::NotInstalled { service: service_id(), ready_at: Some(ready) };
        let (class, cause) = edge_failure(&err);
        assert_eq!(class, ErrorClass::WaitUntil(ready));
        assert_eq!(cause, FailureCause::Deployment);
    }

    #[test]
    fn never_installable_service_falls_back() {
        let err = EdgeError::NotInstalled { service: service_id(), ready_at: None };
        let (class, cause) = edge_failure(&err);
        assert_eq!(class, ErrorClass::Fallback);
        assert_eq!(cause, FailureCause::Deployment);
    }

    #[test]
    fn out_of_order_submissions_are_terminal_bugs() {
        let e = EdgeError::OutOfOrder { submitted: SimTime::ZERO, latest: SimTime::from_secs(1) };
        assert_eq!(edge_failure(&e), (ErrorClass::Terminal, FailureCause::Ordering));
        let i = InvokeError::OutOfOrder { submitted: SimTime::ZERO, latest: SimTime::from_secs(1) };
        assert_eq!(cloud_failure(&i), (ErrorClass::Terminal, FailureCause::Ordering));
    }

    #[test]
    fn exhausted_capacity_falls_back() {
        let (class, cause) = cloud_failure(&InvokeError::CapacityExhausted);
        assert_eq!(class, ErrorClass::Fallback);
        assert_eq!(cause, FailureCause::Capacity);
    }

    #[test]
    fn unknown_function_is_terminal() {
        let (class, cause) = cloud_failure(&InvokeError::UnknownFunction(function_id()));
        assert_eq!(class, ErrorClass::Terminal);
        assert_eq!(cause, FailureCause::Deployment);
    }

    #[test]
    fn timeouts_fall_back_rather_than_retry() {
        let env = Environment::metro_reference();
        let mut sites = SiteRegistry::standard(&env, &RngStream::root(0));
        let comp = ComponentId::from_index(0);
        let config = FunctionConfig::new(DataSize::from_mib(1769));
        let f = sites.platform.register(config.with_timeout(SimDuration::from_secs(1)));
        sites.fns.insert(0, comp, f);
        // 25 Gcyc takes 10 s at the 1769 MiB share of the CPU.
        let work = Cycles::from_giga(25);
        assert_eq!(
            sites.invoke(Site::Cloud, SimTime::ZERO, 0, comp, work),
            Err((ErrorClass::Fallback, FailureCause::Timeout))
        );
    }
}
