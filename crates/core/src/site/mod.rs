//! Execution sites: the three tiers the paper compares.
//!
//! A [`Site`] names one tier and answers every stateless question the
//! engine and the planner ask of it — UE and internal network paths,
//! WAN congestion share, outage lookup, execution speed, marginal cost,
//! capabilities, concurrency and fallback order — from the
//! [`Environment`]. The [`SiteRegistry`] holds the two stateful
//! simulators behind the remote tiers and dispatches provisioning,
//! invocation, keep-warm pings and billing with a `match`:
//!
//! * [`Site::Edge`] — a pre-paid edge fleet ([`ntc_edge`]): slot
//!   admission, installation delay, flat standing cost, LAN paths.
//! * [`Site::Cloud`] — a metered serverless platform
//!   ([`ntc_serverless`]): cold starts, queueing, per-invocation
//!   billing, WAN congestion.
//! * [`Site::Device`] — the members' own devices: no transfers, no
//!   faults, battery energy instead of money.
//!
//! Adding a tier means adding a variant; the compiler lists every
//! `match` that must learn about it.

mod cloud;
mod edge;

use core::fmt;

pub use ntc_alloc::SiteCapabilities;

use ntc_faults::{ErrorClass, FailureCause, FaultPlan, SiteOutage};
use ntc_net::PathModel;
use ntc_simcore::rng::{Key, KeyHasher, RngStream};
use ntc_simcore::units::{ClockSpeed, Cycles, DataSize, Energy, Money, SimDuration, SimTime};
use ntc_taskgraph::ComponentId;

use crate::deploy::Deployment;
use crate::device::DeviceModel;
use crate::environment::Environment;
use crate::policy::Backend;
use cloud::CloudSite;
use edge::EdgeSite;

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

    /// The failure-driven site-preference chain of a deployment whose
    /// primary is `self`: the primary, then every later site in fallback
    /// order. With fallback disabled the chain is just the primary.
    pub fn fallback_chain(self, fallback_enabled: bool) -> Vec<Site> {
        if fallback_enabled {
            Site::ALL[self.index()..].to_vec()
        } else {
            vec![self]
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

    /// The site's availability at `at` under `faults`. A member's device
    /// is, by definition, reachable from itself.
    pub fn outage(self, faults: &FaultPlan, at: SimTime) -> SiteOutage {
        if self.is_remote() {
            faults.site_outage(self.name(), at)
        } else {
            SiteOutage::Online
        }
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

    /// What allocation may assume about this site.
    pub fn capabilities(self) -> SiteCapabilities {
        match self {
            Site::Cloud => SiteCapabilities::metered_faas(SimDuration::from_mins(15)),
            Site::Edge => SiteCapabilities::flat_rate(),
            Site::Device => SiteCapabilities::local(),
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

/// Why a component is being provisioned on a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteRole {
    /// The deployment's first-choice site.
    Primary,
    /// A standby mirror, provisioned so a failure on an earlier chain
    /// entry can re-route mid-run. Mirrors are never kept warm.
    Mirror,
}

/// One invocation request, covering both remote coalesced execution and
/// per-member device execution.
#[derive(Debug)]
pub struct InvokeRequest<'a> {
    /// Submission instant.
    pub at: SimTime,
    /// Deployment index the component belongs to.
    pub di: usize,
    /// The component to execute.
    pub comp: ComponentId,
    /// Coalesced batch work (what remote sites execute once).
    pub work: Cycles,
    /// Per-member work (what each member's own device executes).
    pub member_works: &'a [Cycles],
    /// The UE hardware model, for device-side execution and energy.
    pub device: &'a DeviceModel,
}

impl InvokeRequest<'_> {
    /// Executes on the members' own devices: each member runs its own
    /// share in parallel, so wall-clock is the slowest member and every
    /// member pays battery energy. Device execution cannot fail.
    pub(crate) fn on_device(&self) -> Invoked {
        let mut slowest = SimDuration::ZERO;
        let mut energy = Energy::ZERO;
        for &work in self.member_works {
            slowest = slowest.max(self.device.execution_time(work));
            energy += self.device.compute_energy(work);
        }
        Invoked { finish: self.at + slowest, device_energy: energy }
    }
}

/// A successful invocation: when it finishes and what it cost the
/// members' batteries (zero for remote sites).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Invoked {
    /// Completion instant.
    pub finish: SimTime,
    /// Battery energy drawn on the members' devices.
    pub device_energy: Energy,
}

/// Outcome of one invocation attempt on a site.
pub type SiteOutcome = Result<Invoked, (ErrorClass, FailureCause)>;

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

/// The stateful simulators behind the remote sites of one engine run.
/// The device needs no state: it is provisioned nowhere, bills nothing
/// and executes through [`InvokeRequest`] alone.
#[derive(Debug)]
pub struct SiteRegistry {
    cloud: CloudSite,
    edge: EdgeSite,
}

impl SiteRegistry {
    /// The registry backed by live simulators, drawing platform
    /// randomness from `rng`.
    pub fn standard(env: &Environment, rng: &RngStream) -> Self {
        SiteRegistry {
            cloud: CloudSite::new(env.platform.clone(), rng.derive("platform")),
            edge: EdgeSite::new(env.edge),
        }
    }

    /// Marks `site` as a deployment's primary, so standing
    /// infrastructure cost is billed even if no work ever arrives.
    /// Only the flat-rate edge has standing cost.
    pub fn attach(&mut self, site: Site) {
        match site {
            Site::Edge => self.edge.attach(),
            Site::Cloud | Site::Device => {}
        }
    }

    /// Provisions `comp` of deployment `di` on `site`. Returns the
    /// keep-warm ping period the engine should schedule, if any.
    pub fn provision(
        &mut self,
        site: Site,
        di: usize,
        d: &Deployment,
        comp: ComponentId,
        role: SiteRole,
    ) -> Option<SimDuration> {
        match site {
            Site::Cloud => self.cloud.provision(di, d, comp, role),
            Site::Edge => {
                self.edge.provision(di, d, comp);
                None
            }
            Site::Device => None,
        }
    }

    /// Whether `comp` of deployment `di` can execute on `site` (it was
    /// provisioned there, or the site needs no provisioning).
    pub fn can_serve(&self, site: Site, di: usize, comp: ComponentId) -> bool {
        match site {
            Site::Cloud => self.cloud.can_serve(di, comp),
            Site::Edge => self.edge.can_serve(di, comp),
            Site::Device => true,
        }
    }

    /// Executes one attempt on `site`.
    pub fn invoke(&mut self, site: Site, req: &InvokeRequest<'_>) -> SiteOutcome {
        match site {
            Site::Cloud => self.cloud.invoke(req),
            Site::Edge => self.edge.invoke(req),
            Site::Device => Ok(req.on_device()),
        }
    }

    /// Fires a keep-warm ping for `comp` of deployment `di` on `site`.
    /// Only serverless functions go cold; edge services stay resident
    /// once installed.
    pub fn keep_warm(&mut self, site: Site, at: SimTime, di: usize, comp: ComponentId) {
        match site {
            Site::Cloud => self.cloud.keep_warm(at, di, comp),
            Site::Edge | Site::Device => {}
        }
    }

    /// Total money `site` charged: the metered cloud bills work drained
    /// through `drained_end`; the flat-rate edge bills standing
    /// infrastructure through `horizon_end` once attached; the device
    /// bills nothing (its work is paid in battery).
    pub fn cost(&mut self, site: Site, drained_end: SimTime, horizon_end: SimTime) -> Money {
        match site {
            Site::Cloud => self.cloud.cost(drained_end),
            Site::Edge => self.edge.cost(horizon_end),
            Site::Device => Money::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn backends_map_to_their_sites() {
        assert_eq!(Site::from(Backend::Cloud), Site::Cloud);
        assert_eq!(Site::from(Backend::Edge), Site::Edge);
    }

    #[test]
    fn device_execution_waits_for_the_slowest_member_and_bills_every_battery() {
        let device = Environment::metro_reference().device;
        let works = [Cycles::new(2_000_000_000), Cycles::new(500_000_000)];
        let at = SimTime::ZERO + SimDuration::from_mins(5);
        let req = InvokeRequest {
            at,
            di: 0,
            comp: ComponentId::from_index(0),
            work: Cycles::new(0),
            member_works: &works,
            device: &device,
        };
        let inv = req.on_device();
        assert_eq!(inv.finish, at + device.execution_time(works[0]));
        assert_eq!(
            inv.device_energy,
            device.compute_energy(works[0]) + device.compute_energy(works[1])
        );
        let mut sites =
            SiteRegistry::standard(&Environment::metro_reference(), &RngStream::root(1));
        assert_eq!(sites.invoke(Site::Device, &req), Ok(inv));
        assert_eq!(sites.cost(Site::Device, at, at), Money::ZERO);
    }

    #[test]
    fn fallback_chains_walk_fallback_order() {
        assert_eq!(Site::Edge.fallback_chain(true), [Site::Edge, Site::Cloud, Site::Device]);
        assert_eq!(Site::Cloud.fallback_chain(true), [Site::Cloud, Site::Device]);
        assert_eq!(Site::Edge.fallback_chain(false), [Site::Edge]);
        assert_eq!(Site::Cloud.fallback_chain(false), [Site::Cloud]);
    }
}
