//! Partitioning algorithms: naive baselines, greedy hill-climbing,
//! optimal min-cut, chain DP, and exhaustive search.

use core::fmt;

use ntc_simcore::units::round_to_u64;
use ntc_taskgraph::{ComponentId, FlowNetwork};

use crate::context::PartitionContext;
use crate::plan::{PartitionPlan, Side};

/// An algorithm that assigns every component of a graph to a side.
///
/// Implementations must return plans that validate against the context's
/// graph (in particular: pinned components stay on the device).
pub trait Partitioner: fmt::Debug {
    /// Computes a partition plan for `ctx`.
    fn partition(&self, ctx: &PartitionContext<'_>) -> PartitionPlan;

    /// A short name for result tables.
    fn name(&self) -> &'static str;
}

/// Baseline: run everything on the device (no offloading).
#[derive(Debug, Clone, Copy, Default)]
pub struct KeepLocal;

impl Partitioner for KeepLocal {
    fn partition(&self, ctx: &PartitionContext<'_>) -> PartitionPlan {
        PartitionPlan::all_device(ctx.graph())
    }

    fn name(&self) -> &'static str {
        "keep-local"
    }
}

/// Baseline: offload every offloadable component.
#[derive(Debug, Clone, Copy, Default)]
pub struct FullOffload;

impl Partitioner for FullOffload {
    fn partition(&self, ctx: &PartitionContext<'_>) -> PartitionPlan {
        PartitionPlan::all_cloud(ctx.graph())
    }

    fn name(&self) -> &'static str {
        "full-offload"
    }
}

/// Optimal partitioner for the additive objective, via s-t minimum cut.
///
/// Builds the standard offloading flow network: source = device, sink =
/// cloud; `cap(s→i)` is the cloud execution cost of `i` (paid when `i`
/// lands on the cloud side), `cap(i→t)` the device cost, and each data
/// flow contributes an undirected edge with the transfer cost. The minimum
/// cut is exactly the cheapest assignment. Costs are rounded to integer
/// weighted units (sub-unit error is negligible at microsecond scale).
#[derive(Debug, Clone, Copy, Default)]
pub struct MinCutPartitioner;

fn to_cap(cost: f64) -> u64 {
    if cost.is_infinite() {
        FlowNetwork::INF
    } else {
        round_to_u64(cost).min(FlowNetwork::INF - 1)
    }
}

impl Partitioner for MinCutPartitioner {
    fn partition(&self, ctx: &PartitionContext<'_>) -> PartitionPlan {
        let graph = ctx.graph();
        let n = graph.len();
        let source = n;
        let sink = n + 1;
        let mut net = FlowNetwork::new(n + 2);
        for id in graph.ids() {
            net.add_edge(source, id.index(), to_cap(ctx.cloud_cost(id)));
            net.add_edge(id.index(), sink, to_cap(ctx.device_cost(id)));
        }
        for flow in graph.flows() {
            let cost = ctx.transfer_cost(flow.payload_bytes(ctx.input()));
            net.add_bidirectional_edge(flow.from.index(), flow.to.index(), to_cap(cost));
        }
        net.max_flow(source, sink);
        let device_side = net.min_cut_source_side(source);
        PartitionPlan::new(
            (0..n).map(|i| if device_side[i] { Side::Device } else { Side::Cloud }).collect(),
        )
    }

    fn name(&self) -> &'static str {
        "min-cut"
    }
}

/// Greedy hill climbing: repeatedly flip the single component whose side
/// change most reduces the evaluated cost, until no flip helps.
///
/// Simple and decent, but can stop in a local optimum when the benefit of
/// moving a cluster of components only materialises once *all* of them
/// move (the case min-cut handles exactly).
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyPartitioner;

impl Partitioner for GreedyPartitioner {
    fn partition(&self, ctx: &PartitionContext<'_>) -> PartitionPlan {
        let graph = ctx.graph();
        let mut sides: Vec<Side> = vec![Side::Device; graph.len()];
        let mut best = ctx.evaluate(&PartitionPlan::new(sides.clone())).weighted;
        loop {
            let mut best_flip: Option<(usize, f64)> = None;
            for (id, c) in graph.components() {
                if !c.is_offloadable() {
                    continue;
                }
                let i = id.index();
                sides[i] = flip(sides[i]);
                let cost = ctx.evaluate(&PartitionPlan::new(sides.clone())).weighted;
                sides[i] = flip(sides[i]);
                if cost < best && best_flip.is_none_or(|(_, c0)| cost < c0) {
                    best_flip = Some((i, cost));
                }
            }
            match best_flip {
                Some((i, cost)) => {
                    sides[i] = flip(sides[i]);
                    best = cost;
                }
                None => break,
            }
        }
        PartitionPlan::new(sides)
    }

    fn name(&self) -> &'static str {
        "greedy"
    }
}

fn flip(s: Side) -> Side {
    match s {
        Side::Device => Side::Cloud,
        Side::Cloud => Side::Device,
    }
}

/// Exhaustive search over all assignments of offloadable components —
/// the ground-truth optimum for small graphs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExhaustivePartitioner;

impl ExhaustivePartitioner {
    /// Largest number of offloadable components accepted (2^24 plans).
    pub const MAX_FREE_COMPONENTS: usize = 24;
}

impl Partitioner for ExhaustivePartitioner {
    /// # Panics
    ///
    /// Panics if the graph has more than
    /// [`ExhaustivePartitioner::MAX_FREE_COMPONENTS`] offloadable
    /// components.
    fn partition(&self, ctx: &PartitionContext<'_>) -> PartitionPlan {
        let graph = ctx.graph();
        let free: Vec<ComponentId> =
            graph.components().filter(|(_, c)| c.is_offloadable()).map(|(id, _)| id).collect();
        assert!(
            free.len() <= Self::MAX_FREE_COMPONENTS,
            "exhaustive search limited to {} offloadable components, got {}",
            Self::MAX_FREE_COMPONENTS,
            free.len()
        );
        let mut best_plan = PartitionPlan::all_device(graph);
        let mut best_cost = ctx.evaluate(&best_plan).weighted;
        for mask in 1u64..(1 << free.len()) {
            let mut sides = vec![Side::Device; graph.len()];
            for (bit, id) in free.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    sides[id.index()] = Side::Cloud;
                }
            }
            let plan = PartitionPlan::new(sides);
            let cost = ctx.evaluate(&plan).weighted;
            if cost < best_cost {
                best_cost = cost;
                best_plan = plan;
            }
        }
        best_plan
    }

    fn name(&self) -> &'static str {
        "optimal"
    }
}

/// Dynamic programming over a *chain* graph (each component has at most
/// one predecessor and one successor) — optimal in O(n) for pipelines.
/// Falls back to [`GreedyPartitioner`] on non-chain graphs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChainDpPartitioner;

impl ChainDpPartitioner {
    /// Whether the DP applies to `ctx`'s graph.
    pub fn is_chain(ctx: &PartitionContext<'_>) -> bool {
        ctx.graph().ids().all(|id| {
            ctx.graph().successors(id).count() <= 1 && ctx.graph().predecessors(id).count() <= 1
        })
    }
}

impl Partitioner for ChainDpPartitioner {
    fn partition(&self, ctx: &PartitionContext<'_>) -> PartitionPlan {
        if !Self::is_chain(ctx) {
            return GreedyPartitioner.partition(ctx);
        }
        let graph = ctx.graph();
        let order = graph.topo_order();
        let n = order.len();
        // dp[side] = best cost of the prefix with the current node on `side`.
        let mut dp = [f64::INFINITY; 2]; // 0 = device, 1 = cloud
        let mut choices: Vec<[u8; 2]> = Vec::with_capacity(n);
        for (pos, &id) in order.iter().enumerate() {
            let exec = [ctx.device_cost(id), ctx.cloud_cost(id)];
            let cross = graph
                .flows_into(id)
                .next()
                .map(|f| ctx.transfer_cost(f.payload_bytes(ctx.input())))
                .unwrap_or(0.0);
            let mut next = [f64::INFINITY; 2];
            let mut choice = [0u8; 2];
            for side in 0..2 {
                if pos == 0 {
                    next[side] = exec[side];
                    continue;
                }
                for (prev, &dp_prev) in dp.iter().enumerate() {
                    let transfer = if prev == side { 0.0 } else { cross };
                    let c = dp_prev + transfer + exec[side];
                    if c < next[side] {
                        next[side] = c;
                        choice[side] = prev as u8;
                    }
                }
            }
            dp = next;
            choices.push(choice);
        }
        // Backtrack.
        let mut side = if dp[0] <= dp[1] { 0usize } else { 1 };
        let mut sides = vec![Side::Device; n];
        for pos in (0..n).rev() {
            sides[order[pos].index()] = if side == 0 { Side::Device } else { Side::Cloud };
            side = choices[pos][side] as usize;
        }
        PartitionPlan::new(sides)
    }

    fn name(&self) -> &'static str {
        "dp-chain"
    }
}

/// The standard roster of partitioners compared in Table 2.
pub fn standard_roster() -> Vec<Box<dyn Partitioner>> {
    vec![
        Box::new(KeepLocal),
        Box::new(FullOffload),
        Box::new(GreedyPartitioner),
        Box::new(ChainDpPartitioner),
        Box::new(MinCutPartitioner),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CostParams;
    use ntc_simcore::rng::RngStream;
    use ntc_simcore::units::DataSize;
    use ntc_taskgraph::{
        random_layered_dag, Component, LinearModel, Pinning, RandomDagConfig, TaskGraph,
        TaskGraphBuilder,
    };

    fn chain(demands_mega: &[u64], payload_kib: u64) -> TaskGraph {
        let mut b = TaskGraphBuilder::new("chain");
        let ids: Vec<_> = demands_mega
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                let mut c = Component::new(format!("c{i}"))
                    .with_demand(LinearModel::constant(d as f64 * 1e6));
                if i == 0 {
                    c = c.with_pinning(Pinning::Device);
                }
                b.add_component(c)
            })
            .collect();
        for w in ids.windows(2) {
            b.add_flow(w[0], w[1], LinearModel::constant(payload_kib as f64 * 1024.0));
        }
        b.build().unwrap()
    }

    fn ctx(graph: &TaskGraph) -> PartitionContext<'_> {
        PartitionContext::new(graph, DataSize::from_kib(100), CostParams::default())
    }

    #[test]
    fn heavy_compute_gets_offloaded() {
        // 20 Gcyc of work, tiny payloads: cloud wins decisively.
        let g = chain(&[10, 20_000, 20_000, 10], 4);
        let c = ctx(&g);
        let plan = MinCutPartitioner.partition(&c);
        plan.validate(&g).unwrap();
        assert!(plan.offloaded().count() >= 2, "heavy middle should be offloaded: {plan:?}");
    }

    #[test]
    fn huge_payloads_stay_local() {
        // Light compute, 500 MiB boundary payloads: offloading never pays.
        let g = chain(&[10, 50, 50, 10], 512 * 1024);
        let c = ctx(&g);
        let plan = MinCutPartitioner.partition(&c);
        assert_eq!(plan.offloaded().count(), 0, "nothing should be offloaded: {plan:?}");
    }

    #[test]
    fn min_cut_matches_exhaustive_on_random_graphs() {
        for seed in 0..20 {
            let mut rng = RngStream::root(seed).derive("t2");
            let cfg = RandomDagConfig { nodes: 9, layers: 3, ..Default::default() };
            let g = random_layered_dag(&mut rng, &cfg);
            let c = ctx(&g);
            let mc = c.evaluate(&MinCutPartitioner.partition(&c)).weighted;
            let opt = c.evaluate(&ExhaustivePartitioner.partition(&c)).weighted;
            let rel = (mc - opt).abs() / opt.max(1.0);
            assert!(rel < 1e-6, "seed {seed}: min-cut {mc} vs optimal {opt}");
        }
    }

    #[test]
    fn greedy_never_beats_optimal_and_all_plans_validate() {
        for seed in 0..20 {
            let mut rng = RngStream::root(seed).derive("roster");
            let cfg = RandomDagConfig { nodes: 10, layers: 4, ..Default::default() };
            let g = random_layered_dag(&mut rng, &cfg);
            let c = ctx(&g);
            let opt = c.evaluate(&ExhaustivePartitioner.partition(&c)).weighted;
            for p in standard_roster() {
                let plan = p.partition(&c);
                plan.validate(&g)
                    .unwrap_or_else(|e| panic!("{} produced invalid plan: {e}", p.name()));
                let cost = c.evaluate(&plan).weighted;
                assert!(cost >= opt - 1e-6, "{} beat the optimum?! {cost} < {opt}", p.name());
            }
        }
    }

    #[test]
    fn chain_dp_is_optimal_on_chains() {
        for seed in 0..10u64 {
            let mut rng = RngStream::root(seed).derive("chain");
            let demands: Vec<u64> = (0..7).map(|_| rng.uniform_range(1, 5000)).collect();
            let payload = rng.uniform_range(1, 2000);
            let g = chain(&demands, payload);
            let c = ctx(&g);
            let dp_plan = ChainDpPartitioner.partition(&c);
            assert!(ChainDpPartitioner::is_chain(&c));
            dp_plan.validate(&g).unwrap();
            let dp = c.evaluate(&dp_plan).weighted;
            let opt = c.evaluate(&ExhaustivePartitioner.partition(&c)).weighted;
            assert!((dp - opt).abs() / opt.max(1.0) < 1e-9, "seed {seed}: dp {dp} vs opt {opt}");
        }
    }

    #[test]
    fn chain_dp_falls_back_on_dags() {
        let mut rng = RngStream::root(5).derive("dag");
        let g = random_layered_dag(&mut rng, &RandomDagConfig::default());
        let c = ctx(&g);
        if !ChainDpPartitioner::is_chain(&c) {
            let plan = ChainDpPartitioner.partition(&c);
            assert_eq!(plan, GreedyPartitioner.partition(&c));
        }
    }

    #[test]
    fn pinned_components_never_move() {
        let mut b = TaskGraphBuilder::new("pins");
        let a = b.add_component(
            Component::new("a")
                .with_pinning(Pinning::Device)
                .with_demand(LinearModel::constant(1e12)),
        );
        let w = b.add_component(Component::new("w").with_demand(LinearModel::constant(1e12)));
        b.add_flow(a, w, LinearModel::ZERO);
        let g = b.build().unwrap();
        let c = ctx(&g);
        for p in standard_roster() {
            let plan = p.partition(&c);
            assert_eq!(plan.side(a), Side::Device, "{} moved a pinned component", p.name());
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<_> = standard_roster().iter().map(|p| p.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
