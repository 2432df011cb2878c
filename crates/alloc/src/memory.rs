//! Memory-size selection: the cost/latency trade-off of FaaS
//! configurations (Figure 3 of the reconstructed evaluation).
//!
//! On Lambda-style platforms the memory size is the only performance knob:
//! CPU share grows with memory, so execution time falls while the per-second
//! rate rises. Below the full-vCPU point the two cancel almost exactly;
//! above it, extra memory buys little speed at full price. The cheapest
//! configuration that still meets the deadline budget therefore sits near
//! the knee.

use ntc_simcore::units::{Cycles, DataSize, Money, SimDuration};

use ntc_serverless::{BillingModel, CpuScaling};

/// One point of the memory sweep: a configuration and its predicted
/// performance/cost for a given amount of work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryPoint {
    /// The configured memory size.
    pub memory: DataSize,
    /// Predicted execution time of the work at this size.
    pub exec: SimDuration,
    /// Predicted per-invocation cost at this size.
    pub cost: Money,
}

/// The standard candidate ladder (128 MiB … 10 240 MiB, Lambda-style).
pub fn standard_sizes() -> Vec<DataSize> {
    [128u64, 256, 512, 1024, 1769, 2048, 3072, 4096, 6144, 8192, 10240]
        .iter()
        .map(|&m| DataSize::from_mib(m))
        .collect()
}

/// Predicts execution time and cost of `work` across `sizes`.
pub fn sweep(
    work: Cycles,
    cpu: &CpuScaling,
    billing: &BillingModel,
    sizes: &[DataSize],
) -> Vec<MemoryPoint> {
    sizes
        .iter()
        .map(|&memory| {
            let exec = cpu.effective_speed(memory).execution_time(work);
            MemoryPoint { memory, exec, cost: billing.invocation_cost(memory, exec) }
        })
        .collect()
}

/// Filters `points` down to the Pareto frontier (no other point is both
/// faster and cheaper), sorted by execution time descending.
pub fn pareto_frontier(points: &[MemoryPoint]) -> Vec<MemoryPoint> {
    // Walk from the fastest point outwards, keeping each point that is
    // strictly cheaper than everything faster than it.
    let mut sorted: Vec<MemoryPoint> = points.to_vec();
    sorted.sort_by(|a, b| a.exec.cmp(&b.exec).then(a.cost.cmp(&b.cost)));
    let mut out: Vec<MemoryPoint> = Vec::new();
    let mut best: Option<Money> = None;
    for p in sorted {
        if best.is_none_or(|c| p.cost < c) {
            best = Some(p.cost);
            out.push(p);
        }
    }
    out.reverse(); // exec descending
    out
}

/// Picks the cheapest configuration whose execution time fits within
/// `budget`; falls back to the fastest configuration if none does.
///
/// Returns `None` only when `sizes` is empty.
pub fn select_memory(
    work: Cycles,
    budget: SimDuration,
    cpu: &CpuScaling,
    billing: &BillingModel,
    sizes: &[DataSize],
) -> Option<MemoryPoint> {
    let points = sweep(work, cpu, billing, sizes);
    let feasible = points.iter().filter(|p| p.exec <= budget).min_by_key(|p| (p.cost, p.exec));
    match feasible {
        Some(p) => Some(*p),
        None => points.into_iter().min_by_key(|p| (p.exec, p.cost)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn models() -> (CpuScaling, BillingModel) {
        (CpuScaling::lambda_like(), BillingModel::aws_like())
    }

    #[test]
    fn sweep_is_monotone_in_exec_time() {
        let (cpu, billing) = models();
        let pts = sweep(Cycles::from_giga(10), &cpu, &billing, &standard_sizes());
        assert_eq!(pts.len(), standard_sizes().len());
        for w in pts.windows(2) {
            assert!(w[1].exec <= w[0].exec, "more memory must not be slower");
        }
    }

    #[test]
    fn cost_rises_past_the_knee() {
        let (cpu, billing) = models();
        let pts = sweep(Cycles::from_giga(10), &cpu, &billing, &standard_sizes());
        let at =
            |mib: u64| pts.iter().find(|p| p.memory == DataSize::from_mib(mib)).copied().unwrap();
        // Above the full-vCPU point speed saturates but price keeps rising.
        assert!(at(10240).cost > at(1769).cost * 2);
        // Below the knee, cost is roughly flat (time × price cancel).
        let rel = (at(256).cost.as_usd_f64() - at(1024).cost.as_usd_f64()).abs()
            / at(1024).cost.as_usd_f64();
        assert!(rel < 0.15, "rel={rel}");
    }

    #[test]
    fn pareto_frontier_is_consistent() {
        let (cpu, billing) = models();
        let pts = sweep(Cycles::from_giga(10), &cpu, &billing, &standard_sizes());
        let frontier = pareto_frontier(&pts);
        assert!(!frontier.is_empty());
        // No frontier point is dominated by any sweep point.
        for f in &frontier {
            for p in &pts {
                assert!(!(p.exec < f.exec && p.cost < f.cost), "{f:?} dominated by {p:?}");
            }
        }
        // Frontier is exec-descending and cost-ascending.
        for w in frontier.windows(2) {
            assert!(w[1].exec <= w[0].exec);
            assert!(w[1].cost >= w[0].cost);
        }
    }

    #[test]
    fn select_memory_meets_budget_cheaply() {
        let (cpu, billing) = models();
        let work = Cycles::from_giga(10); // 4 s at one 2.5 GHz vCPU
        let generous =
            select_memory(work, SimDuration::from_mins(5), &cpu, &billing, &standard_sizes())
                .unwrap();
        let tight =
            select_memory(work, SimDuration::from_secs(5), &cpu, &billing, &standard_sizes())
                .unwrap();
        assert!(generous.exec <= SimDuration::from_mins(5));
        assert!(tight.exec <= SimDuration::from_secs(5));
        assert!(generous.cost <= tight.cost, "looser budget must not cost more");
        assert!(generous.memory <= tight.memory);
    }

    #[test]
    fn impossible_budget_falls_back_to_fastest() {
        let (cpu, billing) = models();
        let work = Cycles::from_giga(1000);
        let p = select_memory(work, SimDuration::from_millis(1), &cpu, &billing, &standard_sizes())
            .unwrap();
        // The fastest configuration — the CPU cap makes 8192 MiB as fast
        // as 10240 MiB, so the cheaper of the two wins the tie.
        assert_eq!(p.memory, DataSize::from_mib(8192));
    }

    #[test]
    fn zero_slack_budget_gets_the_fastest_size() {
        // A zero-slack job's budget is 1 µs: nothing fits, so the fastest
        // size wins (8192 MiB ties 10240 MiB at the CPU cap and is
        // cheaper).
        let (cpu, billing) = models();
        let work = Cycles::from_giga(10);
        let p = select_memory(work, SimDuration::from_micros(1), &cpu, &billing, &standard_sizes())
            .unwrap();
        assert_eq!(p.memory, DataSize::from_mib(8192));
    }

    #[test]
    fn ample_slack_gets_at_most_the_full_vcpu_size() {
        // Eight hours of slack, half of it for the one offloaded
        // component.
        let (cpu, billing) = models();
        let work = Cycles::from_giga(10);
        let pick = |budget| select_memory(work, budget, &cpu, &billing, &standard_sizes()).unwrap();
        let ample = pick(SimDuration::from_hours(4));
        assert!(ample.memory <= DataSize::from_mib(1769), "{ample:?}");
        assert!(ample.cost <= pick(SimDuration::from_micros(1)).cost);
    }

    #[test]
    fn empty_ladder_returns_none() {
        let (cpu, billing) = models();
        assert!(select_memory(
            Cycles::from_giga(1),
            SimDuration::from_secs(1),
            &cpu,
            &billing,
            &[]
        )
        .is_none());
    }
}
