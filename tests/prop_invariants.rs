//! Cross-crate property-based tests (ntc-check) on the framework's core
//! invariants.

use ntc_check::prelude::*;

use ntc_offload::alloc::{dispatch_time, DispatchPolicy};
use ntc_offload::partition::{
    standard_roster, CostParams, ExhaustivePartitioner, MinCutPartitioner, PartitionContext,
    Partitioner,
};
use ntc_offload::serverless::{FunctionConfig, PlatformConfig, ServerlessPlatform};
use ntc_offload::simcore::rng::RngStream;
use ntc_offload::simcore::units::{Cycles, DataSize, SimDuration, SimTime};
use ntc_offload::taskgraph::{random_layered_dag, RandomDagConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Min-cut is optimal for the additive objective: never beaten by the
    /// exhaustive optimum and never worse than any roster baseline.
    #[test]
    fn min_cut_is_optimal_and_valid(
        seed in 0u64..10_000,
        nodes in 4usize..11,
        layers in 2usize..5,
        edge_probability in 0.2f64..0.9,
        input_kib in 1u64..10_000,
    ) {
        prop_assume!(layers <= nodes);
        let mut rng = RngStream::root(seed).derive("prop-dag");
        let cfg = RandomDagConfig { nodes, layers, edge_probability, ..Default::default() };
        let graph = random_layered_dag(&mut rng, &cfg);
        let ctx = PartitionContext::new(&graph, DataSize::from_kib(input_kib), CostParams::default());

        let mc_plan = MinCutPartitioner.partition(&ctx);
        mc_plan.validate(&graph).expect("min-cut plan validates");
        let mc = ctx.evaluate(&mc_plan).weighted;
        let opt = ctx.evaluate(&ExhaustivePartitioner.partition(&ctx)).weighted;
        prop_assert!((mc - opt).abs() <= opt.max(1.0) * 1e-6, "min-cut {mc} vs optimal {opt}");

        for p in standard_roster() {
            let plan = p.partition(&ctx);
            plan.validate(&graph).expect("roster plan validates");
            let cost = ctx.evaluate(&plan).weighted;
            prop_assert!(cost + 1e-6 >= mc, "{} beat min-cut: {cost} < {mc}", p.name());
        }
    }

    /// Holding a job never violates its deadline when the completion
    /// estimate is honest.
    #[test]
    fn dispatch_never_breaks_feasible_deadlines(
        arrival_s in 0u64..1_000_000,
        slack_s in 0u64..100_000,
        est_s in 0u64..10_000,
        margin_s in 0u64..1_000,
        window_s in 1u64..100_000,
    ) {
        let arrival = SimTime::from_secs(arrival_s);
        let slack = SimDuration::from_secs(slack_s);
        let est = SimDuration::from_secs(est_s);
        let margin = SimDuration::from_secs(margin_s);
        for policy in [
            DispatchPolicy::Immediate,
            DispatchPolicy::Windowed { window: SimDuration::from_secs(window_s) },
            DispatchPolicy::OffPeak { window: SimDuration::from_secs(window_s) },
        ] {
            let d = dispatch_time(policy, arrival, slack, est, margin);
            prop_assert!(d >= arrival, "{policy}: dispatched into the past");
            if est + margin <= slack {
                prop_assert!(
                    d + est + margin <= arrival + slack,
                    "{policy}: holding violated the deadline"
                );
            } else {
                prop_assert_eq!(d, arrival, "{}: infeasible jobs go immediately", policy);
            }
        }
    }

    /// The platform conserves sanity under arbitrary in-order workloads:
    /// outcomes are causal, and each latency decomposes into queue wait,
    /// cold start and execution.
    #[test]
    fn platform_outcomes_are_causal(
        seed in 0u64..10_000,
        memory_mib in 128u64..8192,
        n in 1usize..60,
        mean_gap_ms in 1u64..600_000,
        work_mega in 1u64..50_000,
    ) {
        let mut platform = ServerlessPlatform::new(PlatformConfig::default(), RngStream::root(seed));
        let f = platform.register(FunctionConfig::new(DataSize::from_mib(memory_mib)));
        let mut rng = RngStream::root(seed).derive("gaps");
        let mut t = SimTime::ZERO;
        for _ in 0..n {
            t += SimDuration::from_millis((rng.exponential(mean_gap_ms as f64)) as u64);
            let out = platform.invoke(t, f, Cycles::from_mega(work_mega)).unwrap();
            prop_assert!(out.finish >= t, "finish before submission");
            prop_assert_eq!(
                out.latency(),
                out.queue_wait + out.cold_start + out.exec,
                "latency decomposition"
            );
        }
    }

    /// Billing is monotone: more work never costs less at the same
    /// configuration.
    #[test]
    fn billing_is_monotone_in_work(
        memory_mib in 128u64..10240,
        d1_ms in 0u64..1_000_000,
        d2_ms in 0u64..1_000_000,
    ) {
        let billing = ntc_offload::serverless::BillingModel::aws_like();
        let m = DataSize::from_mib(memory_mib);
        let (lo, hi) = if d1_ms <= d2_ms { (d1_ms, d2_ms) } else { (d2_ms, d1_ms) };
        let c_lo = billing.invocation_cost(m, SimDuration::from_millis(lo));
        let c_hi = billing.invocation_cost(m, SimDuration::from_millis(hi));
        prop_assert!(c_lo <= c_hi);
    }

    /// Random DAG generation always yields valid, connected-enough graphs
    /// whose total work and flow bytes are finite and reproducible.
    #[test]
    fn random_dags_are_well_formed(seed in 0u64..10_000, nodes in 2usize..30) {
        let layers = (nodes / 2).clamp(2, 6).min(nodes);
        let cfg = RandomDagConfig { nodes, layers, ..Default::default() };
        let a = random_layered_dag(&mut RngStream::root(seed).derive("dag"), &cfg);
        let b = random_layered_dag(&mut RngStream::root(seed).derive("dag"), &cfg);
        prop_assert_eq!(&a, &b, "generation must be deterministic");
        prop_assert_eq!(a.topo_order().len(), nodes);
        prop_assert!(!a.entries().is_empty());
        prop_assert!(!a.exits().is_empty());
        for id in a.ids() {
            let lonely = a.predecessors(id).next().is_none() && a.successors(id).next().is_none();
            prop_assert!(!lonely, "node {} is isolated", id);
        }
    }
}
