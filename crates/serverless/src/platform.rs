//! The serverless (FaaS) platform simulator.
//!
//! The platform is driven *sequentially*: invocations are submitted in
//! non-decreasing time order (the natural order produced by the offloading
//! engine's event loop) and each returns a fully resolved
//! [`InvocationOutcome`] — queueing delay, cold start, execution time,
//! and cost. Instance lifecycle (cold start, warm reuse, keep-alive
//! reaping, provisioned capacity) is tracked per function.
//!
//! Each function's instances live in an instance pool: two min-heaps,
//! on-demand and provisioned, keyed by `(busy_until, creation order)`. An
//! invocation reaps, picks and re-occupies instances in O(log n), so a
//! function holding thousands of warm instances costs the same per call
//! as one holding a few.

use core::cmp::Reverse;
use core::fmt;
use std::collections::BinaryHeap;

use ntc_simcore::rng::RngStream;
use ntc_simcore::units::{Cycles, Money, SimDuration, SimTime};

use crate::billing::BillingModel;
use crate::coldstart::{ColdStartModel, KeepAlive};
use crate::function::{CpuScaling, FunctionConfig, FunctionId};

/// Platform-wide configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformConfig {
    /// Memory → CPU scaling model.
    pub cpu: CpuScaling,
    /// Billing schedule.
    pub billing: BillingModel,
    /// Cold-start model.
    pub cold_start: ColdStartModel,
    /// Idle-instance keep-alive policy.
    pub keep_alive: KeepAlive,
    /// Region-wide cap on concurrently existing instances.
    pub region_concurrency: u32,
    /// Instances the region may create instantly (Lambda-style burst
    /// allowance).
    pub scale_burst: u32,
    /// Additional instance creations granted per minute after the burst
    /// is spent.
    pub scale_per_minute: u32,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            cpu: CpuScaling::lambda_like(),
            billing: BillingModel::aws_like(),
            cold_start: ColdStartModel::lambda_like(),
            keep_alive: KeepAlive::default(),
            region_concurrency: u32::MAX,
            scale_burst: 3_000,
            scale_per_minute: 500,
        }
    }
}

/// Errors from submitting an invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvokeError {
    /// The function id is not registered.
    UnknownFunction(FunctionId),
    /// Invocations must be submitted in non-decreasing time order.
    OutOfOrder {
        /// The time the caller submitted.
        submitted: SimTime,
        /// The platform's latest accepted time.
        latest: SimTime,
    },
    /// The region has no capacity and no instance will ever free up.
    CapacityExhausted,
}

impl fmt::Display for InvokeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvokeError::UnknownFunction(id) => write!(f, "unknown function {id}"),
            InvokeError::OutOfOrder { submitted, latest } => {
                write!(f, "invocation at {submitted} precedes already-processed {latest}")
            }
            InvokeError::CapacityExhausted => {
                write!(f, "region concurrency exhausted with no queue target")
            }
        }
    }
}

impl std::error::Error for InvokeError {}

/// The fully resolved result of one invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvocationOutcome {
    /// When the invocation was submitted.
    pub submitted: SimTime,
    /// Time spent waiting for an instance (concurrency limit reached).
    pub queue_wait: SimDuration,
    /// Cold-start delay, zero when served warm.
    pub cold_start: SimDuration,
    /// Execution duration (possibly truncated by the timeout).
    pub exec: SimDuration,
    /// When the result is available.
    pub finish: SimTime,
    /// What this invocation was billed.
    pub cost: Money,
    /// Whether a new instance had to be started.
    pub was_cold: bool,
    /// Whether execution hit the function timeout (result unusable).
    pub timed_out: bool,
}

impl InvocationOutcome {
    /// Total latency from submission to result.
    pub fn latency(&self) -> SimDuration {
        self.finish - self.submitted
    }
}

/// One live instance, ordered by when it next frees up and then by
/// creation order. The pool's minimum under this order is exactly the
/// instance a creation-ordered scan would pick, taking the first of
/// equally early instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Instance {
    busy_until: SimTime,
    seq: u64,
}

type MinHeap = BinaryHeap<Reverse<Instance>>;

/// A function's live instances. On-demand and provisioned instances sit
/// in separate heaps because only on-demand ones are reaped: keep-alive
/// expiry pops on-demand tops, and the warm or queue pick takes the
/// smaller of the two tops.
#[derive(Debug, Default)]
struct InstancePool {
    on_demand: MinHeap,
    provisioned: MinHeap,
    /// Creation counter; every instance gets the next value.
    next_seq: u64,
}

impl InstancePool {
    fn len(&self) -> usize {
        self.on_demand.len() + self.provisioned.len()
    }

    fn spawn(&mut self, busy_until: SimTime, provisioned: bool) {
        let instance = Reverse(Instance { busy_until, seq: self.next_seq });
        self.next_seq += 1;
        if provisioned {
            self.provisioned.push(instance);
        } else {
            self.on_demand.push(instance);
        }
    }

    /// Drops on-demand instances whose keep-alive lapsed before `at`;
    /// returns how many.
    fn reap(&mut self, at: SimTime, ttl: SimDuration) -> usize {
        let before = self.on_demand.len();
        while self.on_demand.peek().is_some_and(|Reverse(i)| i.busy_until + ttl < at) {
            self.on_demand.pop();
        }
        before - self.on_demand.len()
    }

    /// The heap holding the earliest-free instance, if any.
    fn earliest_heap(&mut self) -> Option<&mut MinHeap> {
        match (self.on_demand.peek(), self.provisioned.peek()) {
            (Some(Reverse(d)), Some(Reverse(p))) if p < d => Some(&mut self.provisioned),
            (Some(_), _) => Some(&mut self.on_demand),
            (None, Some(_)) => Some(&mut self.provisioned),
            (None, None) => None,
        }
    }

    /// When the earliest-free instance frees up, if any instance exists.
    fn earliest_free(&mut self) -> Option<SimTime> {
        self.earliest_heap().and_then(|h| h.peek()).map(|Reverse(i)| i.busy_until)
    }

    /// Marks the earliest-free instance busy until `until`.
    fn occupy_earliest(&mut self, until: SimTime) {
        let heap = self.earliest_heap().expect("occupy_earliest on an empty pool");
        heap.peek_mut().expect("earliest heap is non-empty").0.busy_until = until;
    }

    /// Removes the `count` oldest provisioned instances, busy or not.
    fn retire_provisioned(&mut self, count: usize) {
        if count == 0 {
            return;
        }
        let mut seqs: Vec<u64> = self.provisioned.iter().map(|Reverse(i)| i.seq).collect();
        let (_, &mut cut, _) = seqs.select_nth_unstable(count - 1);
        self.provisioned.retain(|Reverse(i)| i.seq > cut);
    }
}

#[derive(Debug)]
struct FunctionState {
    config: FunctionConfig,
    pool: InstancePool,
    provisioned_target: u32,
    provisioned_accrue_from: SimTime,
    /// On-demand invocation cost so far.
    invocation_cost: Money,
    /// Cost of held provisioned capacity, accrued so far.
    provisioned_cost: Money,
}

/// A simulated serverless platform (one cloud region).
///
/// # Examples
///
/// ```
/// use ntc_serverless::{FunctionConfig, PlatformConfig, ServerlessPlatform};
/// use ntc_simcore::rng::RngStream;
/// use ntc_simcore::units::{Cycles, DataSize, SimTime};
///
/// let mut platform = ServerlessPlatform::new(PlatformConfig::default(), RngStream::root(1));
/// let f = platform.register(FunctionConfig::new(DataSize::from_mib(1024)));
/// let out = platform.invoke(SimTime::ZERO, f, Cycles::from_giga(1)).unwrap();
/// assert!(out.was_cold);
/// let again = platform.invoke(out.finish, f, Cycles::from_giga(1)).unwrap();
/// assert!(!again.was_cold); // warm reuse
/// ```
#[derive(Debug)]
pub struct ServerlessPlatform {
    config: PlatformConfig,
    functions: Vec<FunctionState>,
    rng: RngStream,
    latest: SimTime,
    /// Live instances across all functions. A function's expired
    /// instances are only reaped by its own next invocation, so they stay
    /// counted until then.
    region_live: usize,
    // Scale-out budget: a token bucket refilled at `scale_per_minute`,
    // capped at `scale_burst`.
    scale_tokens: f64,
    scale_refill_from: SimTime,
}

impl ServerlessPlatform {
    /// Creates a platform with the given configuration and randomness.
    pub fn new(config: PlatformConfig, rng: RngStream) -> Self {
        let scale_tokens = f64::from(config.scale_burst);
        ServerlessPlatform {
            config,
            functions: Vec::new(),
            rng: rng.derive("serverless"),
            latest: SimTime::ZERO,
            region_live: 0,
            scale_tokens,
            scale_refill_from: SimTime::ZERO,
        }
    }

    fn refill_scale_tokens(&mut self, now: SimTime) {
        let elapsed = now.saturating_duration_since(self.scale_refill_from);
        self.scale_tokens = (self.scale_tokens
            + f64::from(self.config.scale_per_minute) * elapsed.as_secs_f64() / 60.0)
            .min(f64::from(self.config.scale_burst));
        self.scale_refill_from = now;
    }

    /// The platform configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Registers a function, returning its id.
    pub fn register(&mut self, config: FunctionConfig) -> FunctionId {
        let id = FunctionId(u32::try_from(self.functions.len()).expect("too many functions"));
        self.functions.push(FunctionState {
            config,
            pool: InstancePool::default(),
            provisioned_target: 0,
            provisioned_accrue_from: SimTime::ZERO,
            invocation_cost: Money::ZERO,
            provisioned_cost: Money::ZERO,
        });
        id
    }

    /// Total cost across all functions, with provisioned capacity accrued
    /// up to `until`.
    pub fn total_cost(&mut self, until: SimTime) -> Money {
        for i in 0..self.functions.len() {
            self.accrue_provisioned(FunctionId(i as u32), until);
        }
        self.functions.iter().map(|f| f.invocation_cost + f.provisioned_cost).sum()
    }

    /// Sets the number of always-warm provisioned instances for `id`,
    /// effective at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn set_provisioned(&mut self, at: SimTime, id: FunctionId, count: u32) {
        self.accrue_provisioned(id, at);
        let state = &mut self.functions[id.index()];
        state.provisioned_target = count;
        let pool = &mut state.pool;
        let current = pool.provisioned.len();
        let count = count as usize;
        if count > current {
            for _ in current..count {
                pool.spawn(at, true);
            }
            self.region_live += count - current;
        } else {
            pool.retire_provisioned(current - count);
            self.region_live -= current - count;
        }
    }

    fn accrue_provisioned(&mut self, id: FunctionId, until: SimTime) {
        let state = &mut self.functions[id.index()];
        if state.provisioned_target > 0 && until > state.provisioned_accrue_from {
            let held = until - state.provisioned_accrue_from;
            let per = self.config.billing.provisioned_cost(state.config.memory(), held);
            state.provisioned_cost += per.mul_f64(f64::from(state.provisioned_target));
        }
        state.provisioned_accrue_from = state.provisioned_accrue_from.max(until);
    }

    /// The number of live instances (warm or busy) of `id` as of the last
    /// invocation processed.
    pub fn live_instances(&self, id: FunctionId) -> usize {
        self.functions[id.index()].pool.len()
    }

    /// Submits an invocation of `id` at time `at` needing `work` cycles.
    ///
    /// Invocations must be submitted in non-decreasing `at` order.
    ///
    /// # Errors
    ///
    /// Returns [`InvokeError`] if the function is unknown, `at` precedes an
    /// already processed invocation, or region capacity is exhausted with
    /// nothing to queue on.
    pub fn invoke(
        &mut self,
        at: SimTime,
        id: FunctionId,
        work: Cycles,
    ) -> Result<InvocationOutcome, InvokeError> {
        if id.index() >= self.functions.len() {
            return Err(InvokeError::UnknownFunction(id));
        }
        if at < self.latest {
            return Err(InvokeError::OutOfOrder { submitted: at, latest: self.latest });
        }
        self.latest = at;
        let ttl = self.config.keep_alive.idle_ttl();

        // Reap idle instances whose keep-alive lapsed before `at`.
        self.region_live -= self.functions[id.index()].pool.reap(at, ttl);

        let (memory, timeout, concurrency_limit, artifact) = {
            let c = &self.functions[id.index()].config;
            (c.memory(), c.timeout(), c.concurrency_limit(), c.artifact_size())
        };
        let speed = self.config.cpu.effective_speed(memory);
        let raw_exec = speed.execution_time(work);
        let timed_out = raw_exec > timeout;
        let exec = if timed_out { timeout } else { raw_exec };

        let earliest = self.functions[id.index()].pool.earliest_free();
        let live = self.functions[id.index()].pool.len();

        let (start, cold_start, queue_wait, was_cold) = match earliest {
            // 1. Warm instance available.
            Some(free_at) if free_at <= at => (at, SimDuration::ZERO, SimDuration::ZERO, false),
            _ if (live as u32) < concurrency_limit
                && self.region_live < self.config.region_concurrency as usize
                && {
                    self.refill_scale_tokens(at);
                    self.scale_tokens >= 1.0
                } =>
            {
                // 2. Scale out with a cold start, spending a scale token.
                self.scale_tokens -= 1.0;
                let delay = self.config.cold_start.sample(artifact, &mut self.rng);
                (at + delay, delay, SimDuration::ZERO, true)
            }
            // 3. Queue on the earliest-free instance.
            Some(free_at) => (free_at, SimDuration::ZERO, free_at - at, false),
            None => return Err(InvokeError::CapacityExhausted),
        };

        let state = &mut self.functions[id.index()];
        let finish = start + exec;
        if was_cold {
            state.pool.spawn(finish, false);
            self.region_live += 1;
        } else {
            state.pool.occupy_earliest(finish);
        }

        let cost = self.config.billing.invocation_cost(state.config.memory(), exec);
        state.invocation_cost += cost;
        Ok(InvocationOutcome {
            submitted: at,
            queue_wait,
            cold_start,
            exec,
            finish,
            cost,
            was_cold,
            timed_out,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_simcore::units::DataSize;

    fn platform() -> ServerlessPlatform {
        ServerlessPlatform::new(PlatformConfig::default(), RngStream::root(42))
    }

    fn no_jitter_platform() -> ServerlessPlatform {
        let mut cfg = PlatformConfig::default();
        cfg.cold_start.jitter_sigma = 0.0;
        ServerlessPlatform::new(cfg, RngStream::root(42))
    }

    #[test]
    fn first_call_is_cold_second_is_warm() {
        let mut p = platform();
        let f = p.register(FunctionConfig::new(DataSize::from_mib(1024)));
        let a = p.invoke(SimTime::ZERO, f, Cycles::from_giga(1)).unwrap();
        assert!(a.was_cold && !a.cold_start.is_zero());
        let b = p.invoke(a.finish, f, Cycles::from_giga(1)).unwrap();
        assert!(!b.was_cold && b.cold_start.is_zero());
        assert_eq!(p.live_instances(f), 1);
    }

    #[test]
    fn keep_alive_expiry_forces_cold_start() {
        let mut p = no_jitter_platform();
        let f = p.register(FunctionConfig::new(DataSize::from_mib(1024)));
        let a = p.invoke(SimTime::ZERO, f, Cycles::from_mega(100)).unwrap();
        // Past the 10-minute keep-alive: cold again.
        let later = a.finish + SimDuration::from_mins(11);
        let b = p.invoke(later, f, Cycles::from_mega(100)).unwrap();
        assert!(b.was_cold);
        assert_eq!(p.live_instances(f), 1, "expired instance was reaped");
    }

    #[test]
    fn concurrent_arrivals_scale_out() {
        let mut p = platform();
        let f = p.register(FunctionConfig::new(DataSize::from_mib(1024)));
        let outs: Vec<InvocationOutcome> =
            (0..5).map(|_| p.invoke(SimTime::ZERO, f, Cycles::from_giga(10)).unwrap()).collect();
        assert_eq!(p.live_instances(f), 5);
        assert_eq!(outs.iter().filter(|o| o.was_cold).count(), 5);
    }

    #[test]
    fn concurrency_limit_queues() {
        let mut p = no_jitter_platform();
        let f = p.register(FunctionConfig::new(DataSize::from_mib(1769)).with_concurrency_limit(2));
        let a = p.invoke(SimTime::ZERO, f, Cycles::from_giga(25)).unwrap(); // 10 s at 2.5 GHz
        let b = p.invoke(SimTime::ZERO, f, Cycles::from_giga(25)).unwrap();
        let c = p.invoke(SimTime::from_secs(1), f, Cycles::from_giga(25)).unwrap();
        assert!(!c.queue_wait.is_zero(), "third call should queue");
        assert!(c.finish > a.finish);
        assert_eq!(p.live_instances(f), 2);
        assert_eq!([a, b, c].iter().filter(|o| !o.queue_wait.is_zero()).count(), 1);
    }

    #[test]
    fn timeout_truncates_and_flags() {
        let mut p = platform();
        let f = p.register(
            FunctionConfig::new(DataSize::from_mib(1769)).with_timeout(SimDuration::from_secs(1)),
        );
        // 25 Gcyc at 2.5 GHz = 10 s > 1 s timeout.
        let out = p.invoke(SimTime::ZERO, f, Cycles::from_giga(25)).unwrap();
        assert!(out.timed_out);
        assert_eq!(out.exec, SimDuration::from_secs(1));
    }

    #[test]
    fn out_of_order_submission_is_rejected() {
        let mut p = platform();
        let f = p.register(FunctionConfig::new(DataSize::from_mib(128)));
        p.invoke(SimTime::from_secs(10), f, Cycles::from_mega(1)).unwrap();
        let err = p.invoke(SimTime::from_secs(5), f, Cycles::from_mega(1)).unwrap_err();
        assert!(matches!(err, InvokeError::OutOfOrder { .. }));
    }

    #[test]
    fn unknown_function_is_rejected() {
        let mut p = platform();
        let err = p.invoke(SimTime::ZERO, FunctionId(7), Cycles::from_mega(1)).unwrap_err();
        assert_eq!(err, InvokeError::UnknownFunction(FunctionId(7)));
        assert!(err.to_string().contains("unknown function"));
    }

    #[test]
    fn provisioned_instances_avoid_cold_starts_and_cost_money() {
        let mut p = platform();
        let f = p.register(FunctionConfig::new(DataSize::from_mib(1024)));
        p.set_provisioned(SimTime::ZERO, f, 2);
        let out = p.invoke(SimTime::from_secs(1), f, Cycles::from_giga(1)).unwrap();
        assert!(!out.was_cold, "provisioned instance serves warm");
        let cost = p.total_cost(SimTime::from_secs(3600));
        assert!(cost > out.cost, "idle provisioned capacity accrues cost");
        assert!(p.functions[f.index()].provisioned_cost > Money::ZERO);
    }

    #[test]
    fn set_provisioned_down_removes_instances() {
        let mut p = platform();
        let f = p.register(FunctionConfig::new(DataSize::from_mib(512)));
        p.set_provisioned(SimTime::ZERO, f, 3);
        assert_eq!(p.live_instances(f), 3);
        p.set_provisioned(SimTime::from_secs(60), f, 1);
        assert_eq!(p.live_instances(f), 1);
    }

    #[test]
    fn region_concurrency_caps_scale_out() {
        let mut cfg = PlatformConfig { region_concurrency: 2, ..Default::default() };
        cfg.cold_start.jitter_sigma = 0.0;
        let mut p = ServerlessPlatform::new(cfg, RngStream::root(1));
        let f = p.register(FunctionConfig::new(DataSize::from_mib(1769)));
        p.invoke(SimTime::ZERO, f, Cycles::from_giga(25)).unwrap();
        p.invoke(SimTime::ZERO, f, Cycles::from_giga(25)).unwrap();
        let third = p.invoke(SimTime::ZERO, f, Cycles::from_giga(25)).unwrap();
        assert!(!third.queue_wait.is_zero(), "region cap forces queueing");
        assert_eq!(p.live_instances(f), 2);
    }

    #[test]
    fn bigger_memory_is_faster_but_pricier_per_invocation() {
        let mut p = no_jitter_platform();
        let small = p.register(FunctionConfig::new(DataSize::from_mib(512)));
        let large = p.register(FunctionConfig::new(DataSize::from_mib(1769)));
        let a = p.invoke(SimTime::ZERO, small, Cycles::from_giga(5)).unwrap();
        let b = p.invoke(SimTime::ZERO, large, Cycles::from_giga(5)).unwrap();
        assert!(b.exec < a.exec);
        // Same work, linear CPU scaling region: cost is ~equal (duration
        // halves as memory doubles); check they are within granularity.
        let rel = (a.cost.as_usd_f64() - b.cost.as_usd_f64()).abs() / a.cost.as_usd_f64();
        assert!(rel < 0.05, "rel={rel}");
    }

    #[test]
    fn scale_burst_throttles_beyond_the_allowance() {
        let mut cfg = PlatformConfig { scale_burst: 3, scale_per_minute: 60, ..Default::default() };
        cfg.cold_start.jitter_sigma = 0.0;
        let mut p = ServerlessPlatform::new(cfg, RngStream::root(9));
        let f = p.register(FunctionConfig::new(DataSize::from_mib(1769)));
        // Four simultaneous long jobs (100 s each): only three instances
        // may appear.
        let outs: Vec<InvocationOutcome> =
            (0..4).map(|_| p.invoke(SimTime::ZERO, f, Cycles::from_giga(250)).unwrap()).collect();
        assert_eq!(p.live_instances(f), 3, "burst allowance is 3");
        assert_eq!(
            outs.iter().filter(|o| !o.queue_wait.is_zero()).count(),
            1,
            "fourth call queues"
        );
        // A second later a token has refilled: scale-out works again.
        let out = p.invoke(SimTime::from_secs(2), f, Cycles::from_giga(250)).unwrap();
        assert!(out.was_cold);
        assert_eq!(p.live_instances(f), 4);
    }

    #[test]
    fn scale_tokens_cap_at_burst() {
        let cfg = PlatformConfig { scale_burst: 10, scale_per_minute: 600, ..Default::default() };
        let mut p = ServerlessPlatform::new(cfg, RngStream::root(9));
        let f = p.register(FunctionConfig::new(DataSize::from_mib(128)));
        p.invoke(SimTime::from_secs(3600), f, Cycles::from_mega(1)).unwrap();
        assert!(p.scale_tokens <= 10.0, "refill must cap at the burst size");
    }

    #[test]
    fn total_cost_sums_functions() {
        let mut p = platform();
        let f1 = p.register(FunctionConfig::new(DataSize::from_mib(256)));
        let f2 = p.register(FunctionConfig::new(DataSize::from_mib(256)));
        let o1 = p.invoke(SimTime::ZERO, f1, Cycles::from_giga(1)).unwrap();
        let o2 = p.invoke(SimTime::ZERO, f2, Cycles::from_giga(1)).unwrap();
        assert_eq!(p.total_cost(SimTime::from_secs(100)), o1.cost + o2.cost);
    }
}
