//! The cost environment a partitioner optimises against, and exact plan
//! evaluation.
//!
//! The objective is the classic additive offloading cost (MAUI /
//! CloneCloud lineage): the sum over components of the execution cost on
//! their assigned side plus the transfer cost of every boundary-crossing
//! flow, with time, money, and UE energy folded into one scalar through
//! fixed exchange rates: 1 second of latency is worth 2 joules of battery
//! or $0.01 of cloud spend. The min-cut partitioner is
//! provably optimal for exactly this objective; the evaluation here uses
//! the very same terms so that claim is testable.

use ntc_simcore::units::{
    Bandwidth, ClockSpeed, Cycles, DataSize, Energy, Money, Power, SimDuration,
};
use ntc_taskgraph::{ComponentId, TaskGraph};

use crate::plan::{PartitionPlan, Side};

// Exchange rates folding time, money and UE energy into one scalar cost.
// They value 1 second of latency like 2 joules of battery or $0.01 of
// cloud spend — a delay-tolerant profile where money and energy matter
// comparably to time: 1 s == 10^6 units; $0.01 == 10^7 nano$ × 0.1 ==
// 10^6 units; 2 J == 2×10^6 µJ × 0.5 == 10^6 units.

/// Cost units per microsecond of (summed) execution/transfer time.
const PER_US: f64 = 1.0;
/// Cost units per nano-dollar of cloud spend.
const PER_NANO_USD: f64 = 0.1;
/// Cost units per microjoule of UE battery drain.
const PER_UJ: f64 = 0.5;

/// Scalar environment parameters for partitioning decisions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// UE CPU speed.
    pub device_speed: ClockSpeed,
    /// Effective cloud function speed (memory-size dependent).
    pub cloud_speed: ClockSpeed,
    /// One-way latency charged per boundary-crossing flow.
    pub link_latency: SimDuration,
    /// Bandwidth of the UE ↔ cloud path.
    pub link_bandwidth: Bandwidth,
    /// UE power draw while computing.
    pub device_active_power: Power,
    /// UE power draw while transmitting/receiving.
    pub device_tx_power: Power,
    /// Cloud money per second of function execution (memory-dependent).
    pub cloud_money_per_sec: Money,
    /// Flat cloud fee per offloaded component per job.
    pub money_per_request: Money,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            device_speed: ClockSpeed::from_ghz_tenths(15), // 1.5 GHz mobile core
            cloud_speed: ClockSpeed::from_ghz_tenths(25),  // 2.5 GHz vCPU
            link_latency: SimDuration::from_millis(40),
            link_bandwidth: Bandwidth::from_megabits_per_sec(50),
            device_active_power: Power::from_watts(2),
            device_tx_power: Power::from_milliwatts(1200),
            cloud_money_per_sec: Money::from_usd_f64(0.0000166667), // 1 GB function
            money_per_request: Money::from_usd_f64(0.0000002),
        }
    }
}

/// The exact cost breakdown of a [`PartitionPlan`] under the additive
/// objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCost {
    /// Summed device execution time.
    pub device_time: SimDuration,
    /// Summed cloud execution time.
    pub cloud_time: SimDuration,
    /// Summed boundary transfer time (latency + serialisation).
    pub transfer_time: SimDuration,
    /// Cloud spend (execution + request fees).
    pub money: Money,
    /// UE battery drain (compute + radio).
    pub energy: Energy,
    /// Bytes moved across the boundary.
    pub bytes_moved: DataSize,
    /// Critical-path completion time: node times on their assigned side,
    /// boundary transfers on crossing edges, parallel branches overlap.
    /// (The additive objective above is what the partitioners optimise;
    /// this is the reader-facing wall-clock view.)
    pub makespan: SimDuration,
    /// The folded scalar objective.
    pub weighted: f64,
}

/// A task graph plus everything needed to price a partition of it.
#[derive(Debug, Clone)]
pub struct PartitionContext<'a> {
    graph: &'a TaskGraph,
    input: DataSize,
    params: CostParams,
    demands: Vec<Cycles>,
}

impl<'a> PartitionContext<'a> {
    /// Creates a context for jobs of the given representative input size,
    /// taking component demands from the graph's static annotations.
    pub fn new(graph: &'a TaskGraph, input: DataSize, params: CostParams) -> Self {
        let demands = graph.components().map(|(_, c)| c.demand_cycles(input)).collect();
        PartitionContext { graph, input, params, demands }
    }

    /// Replaces the per-component demands (e.g. with profiler estimates).
    ///
    /// # Panics
    ///
    /// Panics if `demands` does not cover every component.
    pub fn with_demands(mut self, demands: Vec<Cycles>) -> Self {
        assert_eq!(demands.len(), self.graph.len(), "one demand per component required");
        self.demands = demands;
        self
    }

    /// The graph being partitioned.
    pub fn graph(&self) -> &TaskGraph {
        self.graph
    }

    /// The representative job input size.
    pub fn input(&self) -> DataSize {
        self.input
    }

    /// The environment parameters.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// The resolved demand of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not part of the graph.
    pub fn demand(&self, id: ComponentId) -> Cycles {
        self.demands[id.index()]
    }

    /// Cost of executing `id` on the device, in weighted units.
    pub fn device_cost(&self, id: ComponentId) -> f64 {
        let t = self.params.device_speed.execution_time(self.demand(id));
        let e = self.params.device_active_power.energy_over(t);
        PER_US * t.as_micros() as f64 + PER_UJ * (e.as_nanojoules() as f64 / 1e3)
    }

    /// Cost of executing `id` on the cloud, in weighted units, or
    /// `f64::INFINITY` for device-pinned components.
    pub fn cloud_cost(&self, id: ComponentId) -> f64 {
        if !self.graph.component(id).is_offloadable() {
            return f64::INFINITY;
        }
        let t = self.params.cloud_speed.execution_time(self.demand(id));
        let money = self.params.cloud_money_per_sec.mul_f64(t.as_secs_f64())
            + self.params.money_per_request;
        PER_US * t.as_micros() as f64 + PER_NANO_USD * money.as_nano_usd() as f64
    }

    /// Cost of a boundary crossing moving `bytes`, in weighted units.
    pub fn transfer_cost(&self, bytes: DataSize) -> f64 {
        let t = self.params.link_latency + self.params.link_bandwidth.transfer_time(bytes);
        let e = self.params.device_tx_power.energy_over(t);
        PER_US * t.as_micros() as f64 + PER_UJ * (e.as_nanojoules() as f64 / 1e3)
    }

    /// Evaluates `plan` exactly under the additive objective, returning
    /// the full breakdown.
    ///
    /// # Panics
    ///
    /// Panics if `plan` does not cover the graph.
    pub fn evaluate(&self, plan: &PartitionPlan) -> PlanCost {
        assert_eq!(plan.len(), self.graph.len(), "plan must cover the graph");
        let mut device_time = SimDuration::ZERO;
        let mut cloud_time = SimDuration::ZERO;
        let mut transfer_time = SimDuration::ZERO;
        let mut money = Money::ZERO;
        let mut energy = Energy::ZERO;
        let mut bytes_moved = DataSize::ZERO;

        for id in self.graph.ids() {
            match plan.side(id) {
                Side::Device => {
                    let t = self.params.device_speed.execution_time(self.demand(id));
                    device_time += t;
                    energy += self.params.device_active_power.energy_over(t);
                }
                Side::Cloud => {
                    let t = self.params.cloud_speed.execution_time(self.demand(id));
                    cloud_time += t;
                    money += self.params.cloud_money_per_sec.mul_f64(t.as_secs_f64())
                        + self.params.money_per_request;
                }
            }
        }
        for flow in plan.cut_flows(self.graph) {
            let bytes = flow.payload_bytes(self.input);
            let t = self.params.link_latency + self.params.link_bandwidth.transfer_time(bytes);
            transfer_time += t;
            energy += self.params.device_tx_power.energy_over(t);
            bytes_moved += bytes;
        }

        let makespan = self.makespan(plan);
        let weighted = PER_US * (device_time + cloud_time + transfer_time).as_micros() as f64
            + PER_NANO_USD * money.as_nano_usd() as f64
            + PER_UJ * (energy.as_nanojoules() as f64 / 1e3);
        PlanCost {
            device_time,
            cloud_time,
            transfer_time,
            money,
            energy,
            bytes_moved,
            makespan,
            weighted,
        }
    }

    /// The critical-path completion time of one job under `plan`:
    /// components run on their assigned side, crossing flows pay the
    /// boundary transfer, and parallel branches overlap.
    ///
    /// # Panics
    ///
    /// Panics if `plan` does not cover the graph.
    pub fn makespan(&self, plan: &PartitionPlan) -> SimDuration {
        assert_eq!(plan.len(), self.graph.len(), "plan must cover the graph");
        let (len, _) = self.graph.critical_path(
            |id| match plan.side(id) {
                Side::Device => self.params.device_speed.execution_time(self.demand(id)),
                Side::Cloud => self.params.cloud_speed.execution_time(self.demand(id)),
            },
            |flow| {
                if plan.side(flow.from) == plan.side(flow.to) {
                    SimDuration::ZERO
                } else {
                    let bytes = flow.payload_bytes(self.input);
                    self.params.link_latency + self.params.link_bandwidth.transfer_time(bytes)
                }
            },
        );
        len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_taskgraph::{Component, LinearModel, Pinning, TaskGraphBuilder};

    fn graph() -> TaskGraph {
        let mut b = TaskGraphBuilder::new("g");
        let a = b.add_component(
            Component::new("capture")
                .with_pinning(Pinning::Device)
                .with_demand(LinearModel::constant(1e8)),
        );
        let w = b.add_component(Component::new("work").with_demand(LinearModel::constant(3e9)));
        b.add_flow(a, w, LinearModel::constant(1_000_000.0));
        b.build().unwrap()
    }

    #[test]
    fn evaluate_all_device_has_no_money_or_transfer() {
        let g = graph();
        let ctx = PartitionContext::new(&g, DataSize::ZERO, CostParams::default());
        let cost = ctx.evaluate(&PartitionPlan::all_device(&g));
        assert_eq!(cost.money, Money::ZERO);
        assert_eq!(cost.transfer_time, SimDuration::ZERO);
        assert_eq!(cost.bytes_moved, DataSize::ZERO);
        assert!(cost.device_time > SimDuration::ZERO);
        assert!(cost.energy > Energy::ZERO);
    }

    #[test]
    fn evaluate_offload_pays_transfer_and_money() {
        let g = graph();
        let ctx = PartitionContext::new(&g, DataSize::ZERO, CostParams::default());
        let cost = ctx.evaluate(&PartitionPlan::all_cloud(&g));
        assert!(cost.money > Money::ZERO);
        assert!(cost.transfer_time >= SimDuration::from_millis(40));
        assert_eq!(cost.bytes_moved, DataSize::from_bytes(1_000_000));
        // Cloud runs the heavy component faster than the device would.
        assert!(cost.cloud_time < SimDuration::from_secs(3));
    }

    #[test]
    fn weighted_matches_per_component_costs() {
        // The min-cut network uses device_cost/cloud_cost/transfer_cost; the
        // evaluator must agree with their sum.
        let g = graph();
        let ctx = PartitionContext::new(&g, DataSize::ZERO, CostParams::default());
        let plan = PartitionPlan::all_cloud(&g);
        let manual: f64 = g
            .ids()
            .map(|id| match plan.side(id) {
                Side::Device => ctx.device_cost(id),
                Side::Cloud => ctx.cloud_cost(id),
            })
            .sum::<f64>()
            + plan
                .cut_flows(&g)
                .map(|f| ctx.transfer_cost(f.payload_bytes(ctx.input())))
                .sum::<f64>();
        let evaluated = ctx.evaluate(&plan).weighted;
        let rel = (manual - evaluated).abs() / evaluated;
        assert!(rel < 1e-9, "manual={manual} evaluated={evaluated}");
    }

    #[test]
    fn pinned_component_has_infinite_cloud_cost() {
        let g = graph();
        let ctx = PartitionContext::new(&g, DataSize::ZERO, CostParams::default());
        assert!(ctx.cloud_cost(ComponentId::from_index(0)).is_infinite());
        assert!(ctx.cloud_cost(ComponentId::from_index(1)).is_finite());
    }

    #[test]
    fn with_demands_overrides_annotations() {
        let g = graph();
        let ctx = PartitionContext::new(&g, DataSize::ZERO, CostParams::default())
            .with_demands(vec![Cycles::from_mega(1), Cycles::from_mega(2)]);
        assert_eq!(ctx.demand(ComponentId::from_index(1)), Cycles::from_mega(2));
    }

    #[test]
    fn makespan_overlaps_parallel_branches() {
        // Diamond: a → {left, right} → join; same-side everywhere, so the
        // makespan is the longest branch, not the sum.
        let mut b = TaskGraphBuilder::new("diamond");
        let a = b.add_component(Component::new("a").with_demand(LinearModel::constant(1.5e9)));
        let l = b.add_component(Component::new("l").with_demand(LinearModel::constant(3e9)));
        let r = b.add_component(Component::new("r").with_demand(LinearModel::constant(6e9)));
        let j = b.add_component(Component::new("j").with_demand(LinearModel::constant(1.5e9)));
        b.add_flow(a, l, LinearModel::ZERO);
        b.add_flow(a, r, LinearModel::ZERO);
        b.add_flow(l, j, LinearModel::ZERO);
        b.add_flow(r, j, LinearModel::ZERO);
        let g = b.build().unwrap();
        let ctx = PartitionContext::new(&g, DataSize::ZERO, CostParams::default());
        let plan = PartitionPlan::all_device(&g);
        let cost = ctx.evaluate(&plan);
        // Device at 1.5 GHz: 1s + max(2s, 4s) + 1s = 6s.
        assert_eq!(cost.makespan, SimDuration::from_secs(6));
        // The additive total counts both branches: 8s.
        let total = cost.device_time + cost.cloud_time + cost.transfer_time;
        assert_eq!(total, SimDuration::from_secs(8));
        assert!(cost.makespan <= total);
    }

    #[test]
    fn makespan_counts_crossing_transfers_once_per_edge() {
        let g = graph();
        let ctx = PartitionContext::new(&g, DataSize::ZERO, CostParams::default());
        let offload = PartitionPlan::all_cloud(&g);
        let local = PartitionPlan::all_device(&g);
        // Offloading the 3 Gcyc component: 40 ms latency + 1 MB transfer
        // beats 2 s of device execution even on the critical path.
        assert!(ctx.makespan(&offload) < ctx.makespan(&local));
    }
}
