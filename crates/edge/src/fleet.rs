//! A fleet of capacity-limited edge servers — the Edge Computing baseline
//! whose "significant drawback … is the required infrastructure".

use core::fmt;

use ntc_simcore::units::{ClockSpeed, Cycles, DataSize, Money, SimDuration, SimTime};

/// Identifier of a service deployed on an [`EdgeFleet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServiceId(pub(crate) u32);

impl ServiceId {
    /// The dense index of this service.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ServiceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "svc{}", self.0)
    }
}

/// Configuration of the edge fleet.
///
/// Unlike the elastic cloud, the fleet is *pre-provisioned*: a fixed number
/// of servers with a fixed number of execution slots each, paid for by the
/// hour whether used or not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeConfig {
    /// Number of edge servers at the site.
    pub servers: u32,
    /// Concurrent execution slots per server.
    pub slots_per_server: u32,
    /// Clock speed of one slot.
    pub clock: ClockSpeed,
    /// Amortised infrastructure cost per server-hour (capex + opex).
    pub cost_per_server_hour: Money,
    /// Delay to install a new service artifact on the fleet.
    pub install_delay_per_mib: SimDuration,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        EdgeConfig {
            servers: 4,
            slots_per_server: 8,
            clock: ClockSpeed::from_ghz_tenths(28),
            cost_per_server_hour: Money::from_usd_f64(0.35),
            install_delay_per_mib: SimDuration::from_millis(20),
        }
    }
}

/// Errors from using the edge fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeError {
    /// The service id is not registered.
    UnknownService(ServiceId),
    /// The service has not finished installing at the requested time.
    NotInstalled {
        /// The service being invoked.
        service: ServiceId,
        /// When (if ever) the service becomes ready: `None` if it was
        /// never installed, and otherwise strictly after the refused
        /// invocation's time, since an installed service is invoked from
        /// its ready time on.
        ready_at: Option<SimTime>,
    },
    /// Invocations must be submitted in non-decreasing time order.
    OutOfOrder {
        /// The time the caller submitted.
        submitted: SimTime,
        /// The fleet's latest accepted time.
        latest: SimTime,
    },
}

impl fmt::Display for EdgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeError::UnknownService(id) => write!(f, "unknown edge service {id}"),
            EdgeError::NotInstalled { service, ready_at: Some(t) } => {
                write!(f, "service {service} not installed until {t}")
            }
            EdgeError::NotInstalled { service, ready_at: None } => {
                write!(f, "service {service} was never installed")
            }
            EdgeError::OutOfOrder { submitted, latest } => {
                write!(f, "invocation at {submitted} precedes already-processed {latest}")
            }
        }
    }
}

impl std::error::Error for EdgeError {}

/// The resolved result of one edge invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeOutcome {
    /// When the invocation was submitted.
    pub submitted: SimTime,
    /// Time spent waiting for a free slot.
    pub queue_wait: SimDuration,
    /// Execution duration.
    pub exec: SimDuration,
    /// When the result is available.
    pub finish: SimTime,
}

/// A simulated edge site: fixed slots, proximity latency handled by the
/// caller's network path, flat-rate infrastructure cost.
///
/// Driven sequentially like
/// [`ntc_serverless::ServerlessPlatform`](https://docs.rs) — invocations
/// must arrive in non-decreasing time order.
///
/// # Examples
///
/// ```
/// use ntc_edge::{EdgeConfig, EdgeFleet};
/// use ntc_simcore::units::{Cycles, DataSize, SimTime};
///
/// let mut edge = EdgeFleet::new(EdgeConfig::default());
/// let svc = edge.register();
/// edge.install(SimTime::ZERO, svc, DataSize::from_mib(100));
/// let out = edge.invoke(SimTime::from_secs(10), svc, Cycles::from_giga(1))?;
/// assert!(out.queue_wait.is_zero());
/// # Ok::<(), ntc_edge::EdgeError>(())
/// ```
#[derive(Debug)]
pub struct EdgeFleet {
    config: EdgeConfig,
    /// When each service finished installing, `None` until installed.
    ready_at: Vec<Option<SimTime>>,
    slots: Vec<SimTime>, // busy-until per slot, fleet-wide
    latest: SimTime,
}

impl EdgeFleet {
    /// Creates a fleet from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero servers or slots.
    pub fn new(config: EdgeConfig) -> Self {
        assert!(config.servers > 0 && config.slots_per_server > 0, "fleet must have capacity");
        let total = (config.servers * config.slots_per_server) as usize;
        EdgeFleet {
            config,
            ready_at: Vec::new(),
            slots: vec![SimTime::ZERO; total],
            latest: SimTime::ZERO,
        }
    }

    /// The fleet configuration.
    pub fn config(&self) -> &EdgeConfig {
        &self.config
    }

    /// Registers a service (not yet installed).
    pub fn register(&mut self) -> ServiceId {
        let id = ServiceId(u32::try_from(self.ready_at.len()).expect("too many services"));
        self.ready_at.push(None);
        id
    }

    /// Starts installing `service` at `at`; it becomes invocable once the
    /// artifact has been distributed to the site.
    ///
    /// Returns the readiness instant.
    ///
    /// # Panics
    ///
    /// Panics if `service` is unknown.
    pub fn install(&mut self, at: SimTime, service: ServiceId, artifact: DataSize) -> SimTime {
        let delay = self.config.install_delay_per_mib.mul_f64(artifact.as_mib_f64());
        let ready = at + delay;
        self.ready_at[service.index()] = Some(ready);
        ready
    }

    /// The flat infrastructure cost of running the fleet until `until`.
    pub fn infrastructure_cost(&self, until: SimTime) -> Money {
        let hours = until.saturating_duration_since(SimTime::ZERO).as_secs_f64() / 3600.0;
        self.config.cost_per_server_hour.mul_f64(hours * f64::from(self.config.servers))
    }

    /// Submits an invocation of `service` at time `at` needing `work`
    /// cycles. If all slots are busy the invocation queues on the
    /// earliest-free slot.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError`] if the service is unknown or not installed by
    /// `at`, or if `at` precedes an already processed invocation.
    pub fn invoke(
        &mut self,
        at: SimTime,
        service: ServiceId,
        work: Cycles,
    ) -> Result<EdgeOutcome, EdgeError> {
        let ready_at =
            self.ready_at.get(service.index()).ok_or(EdgeError::UnknownService(service))?;
        match *ready_at {
            Some(ready) if ready <= at => {}
            ready_at => return Err(EdgeError::NotInstalled { service, ready_at }),
        }
        if at < self.latest {
            return Err(EdgeError::OutOfOrder { submitted: at, latest: self.latest });
        }
        self.latest = at;

        let exec = self.config.clock.execution_time(work);
        let (slot, &free_at) = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|&(_, t)| *t)
            .expect("fleet has at least one slot");
        let start = at.max(free_at);
        let finish = start + exec;
        self.slots[slot] = finish;
        Ok(EdgeOutcome { submitted: at, queue_wait: start - at, exec, finish })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fleet() -> EdgeFleet {
        EdgeFleet::new(EdgeConfig { servers: 1, slots_per_server: 2, ..Default::default() })
    }

    #[test]
    fn install_then_invoke() {
        let mut f = small_fleet();
        let s = f.register();
        let ready = f.install(SimTime::ZERO, s, DataSize::from_mib(100));
        assert_eq!(ready, SimTime::from_micros(2_000_000)); // 100 MiB × 20 ms
        let out = f.invoke(ready, s, Cycles::from_giga(28)).unwrap(); // 10 s at 2.8 GHz
        assert_eq!(out.exec, SimDuration::from_secs(10));
        assert!(out.queue_wait.is_zero());
    }

    #[test]
    fn uninstalled_service_is_rejected() {
        let mut f = small_fleet();
        let s = f.register();
        let err = f.invoke(SimTime::ZERO, s, Cycles::from_mega(1)).unwrap_err();
        assert_eq!(err, EdgeError::NotInstalled { service: s, ready_at: None });
        let ready = f.install(SimTime::ZERO, s, DataSize::from_mib(100));
        let early = f.invoke(SimTime::from_millis(1), s, Cycles::from_mega(1)).unwrap_err();
        assert_eq!(early, EdgeError::NotInstalled { service: s, ready_at: Some(ready) });
    }

    #[test]
    fn saturated_fleet_queues() {
        let mut f = small_fleet();
        let s = f.register();
        f.install(SimTime::ZERO, s, DataSize::from_mib(1));
        let t0 = SimTime::from_secs(1);
        let work = Cycles::from_giga(28); // 10 s each
        let a = f.invoke(t0, s, work).unwrap();
        let b = f.invoke(t0, s, work).unwrap();
        let c = f.invoke(t0, s, work).unwrap();
        assert!(a.queue_wait.is_zero() && b.queue_wait.is_zero());
        assert_eq!(c.queue_wait, SimDuration::from_secs(10));
        assert_eq!([a, b, c].iter().filter(|o| !o.queue_wait.is_zero()).count(), 1);
    }

    #[test]
    fn infrastructure_cost_accrues_even_when_idle() {
        let f = EdgeFleet::new(EdgeConfig::default());
        let day = SimTime::from_secs(24 * 3600);
        let cost = f.infrastructure_cost(day);
        // 4 servers × $0.35/h × 24 h = $33.60.
        assert!((cost.as_usd_f64() - 33.6).abs() < 1e-6);
    }

    #[test]
    fn out_of_order_is_rejected() {
        let mut f = small_fleet();
        let s = f.register();
        f.install(SimTime::ZERO, s, DataSize::from_mib(1));
        f.invoke(SimTime::from_secs(10), s, Cycles::from_mega(1)).unwrap();
        let err = f.invoke(SimTime::from_secs(5), s, Cycles::from_mega(1)).unwrap_err();
        assert!(matches!(err, EdgeError::OutOfOrder { .. }));
        assert!(err.to_string().contains("precedes"));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_fleet_panics() {
        let _ = EdgeFleet::new(EdgeConfig { servers: 0, ..Default::default() });
    }
}
