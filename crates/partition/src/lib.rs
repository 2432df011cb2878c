//! # ntc-partition
//!
//! Code partitioning (contribution **C3** of *Computational Offloading for
//! Non-Time-Critical Applications*, ICDCS 2022): decide which components
//! of an application stay on the user equipment and which are offloaded to
//! cloud serverless functions.
//!
//! * [`plan`] — [`PartitionPlan`]: per-component [`plan::Side`]
//!   assignments with validation against pinning constraints.
//! * [`context`] — the additive cost objective ([`PartitionContext`],
//!   [`CostParams`]) folding time, money and UE energy into one scalar at
//!   fixed exchange rates, and exact plan evaluation.
//! * [`algorithms`] — the [`Partitioner`] roster: keep-local,
//!   full-offload, greedy hill-climbing, chain DP, exhaustive optimum, and
//!   the provably optimal [`algorithms::MinCutPartitioner`].
//!
//! # Examples
//!
//! ```
//! use ntc_partition::{CostParams, MinCutPartitioner, PartitionContext, Partitioner};
//! use ntc_simcore::units::DataSize;
//! use ntc_taskgraph::{TaskGraphBuilder, Component, LinearModel, Pinning};
//!
//! let mut b = TaskGraphBuilder::new("app");
//! let cam = b.add_component(Component::new("camera").with_pinning(Pinning::Device));
//! let heavy = b.add_component(Component::new("enhance").with_demand(LinearModel::constant(2e10)));
//! b.add_flow(cam, heavy, LinearModel::constant(200_000.0));
//! let g = b.build().unwrap();
//!
//! let ctx = PartitionContext::new(&g, DataSize::from_mib(2), CostParams::default());
//! let plan = MinCutPartitioner.partition(&ctx);
//! assert_eq!(plan.offloaded().count(), 1); // the heavy component moves
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod context;
pub mod plan;

pub use algorithms::{
    standard_roster, ChainDpPartitioner, ExhaustivePartitioner, FullOffload, GreedyPartitioner,
    KeepLocal, MinCutPartitioner, Partitioner,
};
pub use context::{CostParams, PartitionContext, PlanCost};
pub use plan::{PartitionPlan, PlanError, Side};
