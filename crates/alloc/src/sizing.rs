//! Concurrency sizing and the full allocation decision for an offloaded
//! partition.

use ntc_simcore::units::{Cycles, SimDuration};

use ntc_serverless::{BillingModel, CpuScaling};

use crate::batching::DispatchPolicy;
use crate::keepwarm::WarmStrategy;
use crate::memory::{select_memory, standard_sizes, MemoryPoint};

/// Little's-law concurrency estimate: the number of in-flight invocations
/// at arrival rate `per_sec` and service time `exec`, inflated by
/// `safety` (burst headroom) and rounded up, with a floor of 1.
pub fn required_concurrency(per_sec: f64, exec: SimDuration, safety: f64) -> u32 {
    assert!(per_sec >= 0.0 && per_sec.is_finite(), "rate must be non-negative");
    assert!(safety >= 1.0 && safety.is_finite(), "safety factor must be >= 1");
    let inflight = per_sec * exec.as_secs_f64() * safety;
    (inflight.ceil() as u32).max(1)
}

/// The complete serverless allocation for one offloaded component
/// (contribution C2: "allocate serverless resources").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Allocation {
    /// Chosen memory configuration and its predicted exec/cost.
    pub memory: MemoryPoint,
    /// Per-function concurrency limit to request.
    pub concurrency: u32,
    /// Cold-start mitigation.
    pub warm: WarmStrategy,
    /// Dispatch policy for delay-tolerant jobs.
    pub dispatch: DispatchPolicy,
}

/// Inputs to the allocator for one component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocationRequest {
    /// Predicted per-invocation compute demand.
    pub work: Cycles,
    /// Expected arrival rate, jobs per second.
    pub rate_per_sec: f64,
    /// Deadline slack granted per job (zero = time-critical).
    pub slack: SimDuration,
    /// Share of the slack the component's execution may consume
    /// (the rest covers transfers and other components), in `(0, 1]`.
    pub slack_share: f64,
}

/// Decides memory, concurrency, warming and dispatch for one component.
///
/// The deadline budget for the memory choice is `slack × slack_share`
/// (falling back to the fastest configuration for zero-slack jobs);
/// batching is only enabled when there is slack to exploit.
///
/// # Examples
///
/// ```
/// use ntc_alloc::sizing::{allocate, AllocationRequest};
/// use ntc_serverless::{BillingModel, CpuScaling, KeepAlive};
/// use ntc_simcore::units::{Cycles, SimDuration};
///
/// let req = AllocationRequest {
///     work: Cycles::from_giga(10),
///     rate_per_sec: 0.01,
///     slack: SimDuration::from_hours(1),
///     slack_share: 0.5,
/// };
/// let alloc = allocate(&req, &CpuScaling::lambda_like(), &BillingModel::aws_like(), KeepAlive::default());
/// assert!(alloc.concurrency >= 1);
/// ```
pub fn allocate(
    req: &AllocationRequest,
    cpu: &CpuScaling,
    billing: &BillingModel,
    platform_keep_alive: ntc_serverless::KeepAlive,
) -> Allocation {
    assert!(req.slack_share > 0.0 && req.slack_share <= 1.0, "slack_share must be in (0, 1]");
    let budget = if req.slack.is_zero() {
        SimDuration::from_micros(1) // force the fastest configuration
    } else {
        req.slack.mul_f64(req.slack_share)
    };
    let memory = select_memory(req.work, budget, cpu, billing, &standard_sizes())
        .expect("standard ladder is non-empty");
    let concurrency = required_concurrency(req.rate_per_sec, memory.exec, 2.0);

    let interarrival = if req.rate_per_sec > 0.0 {
        SimDuration::from_secs_f64(1.0 / req.rate_per_sec)
    } else {
        SimDuration::MAX
    };
    let warm = crate::keepwarm::recommend(
        interarrival.min(SimDuration::from_hours(24 * 365)),
        platform_keep_alive.idle_ttl(),
    );

    let dispatch = if req.slack.is_zero() {
        DispatchPolicy::Immediate
    } else {
        // Window at a tenth of the slack: enough aggregation for warm
        // reuse, far from the deadline boundary.
        DispatchPolicy::Windowed { window: req.slack.mul_f64(0.1) }
    };

    Allocation { memory, concurrency, warm, dispatch }
}

/// Convenience: allocation for the default Lambda-like platform models.
pub fn allocate_default(req: &AllocationRequest) -> Allocation {
    allocate(
        req,
        &CpuScaling::lambda_like(),
        &BillingModel::aws_like(),
        ntc_serverless::KeepAlive::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_serverless::KeepAlive;
    use ntc_simcore::units::DataSize;

    #[test]
    fn littles_law_sizing() {
        assert_eq!(required_concurrency(10.0, SimDuration::from_secs(2), 1.0), 20);
        assert_eq!(required_concurrency(10.0, SimDuration::from_secs(2), 1.5), 30);
        assert_eq!(required_concurrency(0.0, SimDuration::from_secs(2), 2.0), 1);
        assert_eq!(required_concurrency(0.001, SimDuration::from_millis(10), 2.0), 1);
    }

    #[test]
    #[should_panic(expected = "safety")]
    fn sub_one_safety_panics() {
        required_concurrency(1.0, SimDuration::from_secs(1), 0.5);
    }

    fn req(slack_secs: u64) -> AllocationRequest {
        AllocationRequest {
            work: Cycles::from_giga(10),
            rate_per_sec: 0.05,
            slack: SimDuration::from_secs(slack_secs),
            slack_share: 0.5,
        }
    }

    #[test]
    fn zero_slack_gets_fastest_memory_and_immediate_dispatch() {
        let a = allocate_default(&req(0));
        assert_eq!(a.dispatch, DispatchPolicy::Immediate);
        // Fastest configuration (8192 MiB ties 10240 MiB at the CPU cap
        // and is cheaper).
        assert_eq!(a.memory.memory, DataSize::from_mib(8192));
    }

    #[test]
    fn generous_slack_gets_cheap_memory_and_batching() {
        let a = allocate_default(&req(8 * 3600));
        assert!(matches!(a.dispatch, DispatchPolicy::Windowed { .. }));
        assert!(a.memory.memory <= DataSize::from_mib(1769), "should pick a cheap size");
        let tight = allocate_default(&req(0));
        assert!(a.memory.cost <= tight.memory.cost);
    }

    #[test]
    fn sparse_traffic_triggers_warming() {
        let mut r = req(3600);
        r.rate_per_sec = 1.0 / 1800.0; // one job per 30 min, TTL 10 min
        let a = allocate(
            &r,
            &CpuScaling::lambda_like(),
            &BillingModel::aws_like(),
            KeepAlive::default(),
        );
        assert!(matches!(a.warm, WarmStrategy::Warmer { .. }), "got {:?}", a.warm);
    }

    #[test]
    fn dense_traffic_relies_on_platform() {
        let mut r = req(3600);
        r.rate_per_sec = 1.0;
        let a = allocate_default(&r);
        assert_eq!(a.warm, WarmStrategy::PlatformOnly);
    }

    #[test]
    fn naive_choices_bracket_the_allocator() {
        let r = req(8 * 3600);
        let a = allocate_default(&r);
        // The reference sizes: smallest, default, largest.
        let (cpu, billing) = (CpuScaling::lambda_like(), BillingModel::aws_like());
        let [small, _default, large] = [128, 1769, 10240].map(|mib| {
            let memory = DataSize::from_mib(mib);
            let exec = cpu.effective_speed(memory).execution_time(r.work);
            MemoryPoint { memory, exec, cost: billing.invocation_cost(memory, exec) }
        });
        assert!(a.memory.exec <= small.exec);
        assert!(a.memory.cost <= large.cost);
    }
}
