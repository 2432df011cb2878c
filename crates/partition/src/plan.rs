//! Partition plans: which side of the UE/cloud boundary each component
//! runs on.

use core::fmt;

use ntc_taskgraph::{ComponentId, DataFlow, TaskGraph};

/// The execution side assigned to a component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// Runs on the user equipment.
    Device,
    /// Offloaded to the cloud serverless platform.
    Cloud,
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Side::Device => "device",
            Side::Cloud => "cloud",
        })
    }
}

/// Errors from validating a partition plan against a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The plan's length does not match the graph's component count.
    LengthMismatch {
        /// Number of assignments in the plan.
        plan: usize,
        /// Number of components in the graph.
        graph: usize,
    },
    /// A device-pinned component was assigned to the cloud.
    PinnedOffloaded(ComponentId),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::LengthMismatch { plan, graph } => {
                write!(f, "plan covers {plan} components but graph has {graph}")
            }
            PlanError::PinnedOffloaded(id) => {
                write!(f, "device-pinned component {id} assigned to cloud")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// An assignment of every component to a [`Side`].
///
/// # Examples
///
/// ```
/// use ntc_partition::plan::{PartitionPlan, Side};
/// use ntc_taskgraph::{TaskGraphBuilder, Component, LinearModel, Pinning};
///
/// let mut b = TaskGraphBuilder::new("app");
/// let ui = b.add_component(Component::new("ui").with_pinning(Pinning::Device));
/// let work = b.add_component(Component::new("work"));
/// b.add_flow(ui, work, LinearModel::constant(1024.0));
/// let g = b.build().unwrap();
///
/// let plan = PartitionPlan::new(vec![Side::Device, Side::Cloud]);
/// assert!(plan.validate(&g).is_ok());
/// assert_eq!(plan.offloaded().count(), 1);
/// assert_eq!(plan.cut_flows(&g).count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PartitionPlan {
    assignment: Vec<Side>,
}

impl PartitionPlan {
    /// Creates a plan from a per-component assignment (indexed by
    /// component id).
    pub fn new(assignment: Vec<Side>) -> Self {
        PartitionPlan { assignment }
    }

    /// A plan keeping every component of `graph` on the device.
    pub fn all_device(graph: &TaskGraph) -> Self {
        PartitionPlan { assignment: vec![Side::Device; graph.len()] }
    }

    /// A plan offloading every *offloadable* component of `graph`
    /// (pinned components stay on the device).
    pub fn all_cloud(graph: &TaskGraph) -> Self {
        PartitionPlan {
            assignment: graph
                .components()
                .map(|(_, c)| if c.is_offloadable() { Side::Cloud } else { Side::Device })
                .collect(),
        }
    }

    /// The side of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the plan.
    pub fn side(&self, id: ComponentId) -> Side {
        self.assignment[id.index()]
    }

    /// The number of components covered.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Whether the plan covers no components.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Ids assigned to the cloud, in id order.
    pub fn offloaded(&self) -> impl Iterator<Item = ComponentId> + '_ {
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(_, s)| *s == Side::Cloud)
            .map(|(i, _)| ComponentId::from_index(i))
    }

    /// Flows of `graph` that cross the device/cloud boundary.
    pub fn cut_flows<'a>(
        &'a self,
        graph: &'a TaskGraph,
    ) -> impl Iterator<Item = &'a DataFlow> + 'a {
        graph.flows().iter().filter(move |f| self.side(f.from) != self.side(f.to))
    }

    /// Checks the plan against `graph`: length matches and no pinned
    /// component is offloaded.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] describing the first violation found.
    pub fn validate(&self, graph: &TaskGraph) -> Result<(), PlanError> {
        if self.assignment.len() != graph.len() {
            return Err(PlanError::LengthMismatch {
                plan: self.assignment.len(),
                graph: graph.len(),
            });
        }
        for (id, c) in graph.components() {
            if !c.is_offloadable() && self.side(id) == Side::Cloud {
                return Err(PlanError::PinnedOffloaded(id));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_taskgraph::{Component, LinearModel, Pinning, TaskGraphBuilder};

    fn graph() -> TaskGraph {
        let mut b = TaskGraphBuilder::new("g");
        let a = b.add_component(Component::new("a").with_pinning(Pinning::Device));
        let c = b.add_component(Component::new("b"));
        let d = b.add_component(Component::new("c"));
        b.add_flow(a, c, LinearModel::constant(10.0));
        b.add_flow(c, d, LinearModel::constant(10.0));
        b.build().unwrap()
    }

    #[test]
    fn all_device_and_all_cloud_respect_pinning() {
        let g = graph();
        let dev = PartitionPlan::all_device(&g);
        assert_eq!(dev.offloaded().count(), 0);
        dev.validate(&g).unwrap();

        let cloud = PartitionPlan::all_cloud(&g);
        assert_eq!(cloud.offloaded().count(), 2);
        assert_eq!(cloud.side(ComponentId::from_index(0)), Side::Device);
        cloud.validate(&g).unwrap();
    }

    #[test]
    fn cut_flows_counts_boundary_crossings() {
        let g = graph();
        let plan = PartitionPlan::new(vec![Side::Device, Side::Cloud, Side::Device]);
        assert_eq!(plan.cut_flows(&g).count(), 2);
        let plan2 = PartitionPlan::new(vec![Side::Device, Side::Cloud, Side::Cloud]);
        assert_eq!(plan2.cut_flows(&g).count(), 1);
    }

    #[test]
    fn validation_catches_pinned_offload() {
        let g = graph();
        let bad = PartitionPlan::new(vec![Side::Cloud, Side::Device, Side::Device]);
        assert_eq!(
            bad.validate(&g).unwrap_err(),
            PlanError::PinnedOffloaded(ComponentId::from_index(0))
        );
    }

    #[test]
    fn validation_catches_length_mismatch() {
        let g = graph();
        let bad = PartitionPlan::new(vec![Side::Device]);
        assert!(matches!(bad.validate(&g).unwrap_err(), PlanError::LengthMismatch { .. }));
        assert!(bad.validate(&g).unwrap_err().to_string().contains("covers 1"));
    }

    #[test]
    fn side_display() {
        assert_eq!(Side::Device.to_string(), "device");
        assert_eq!(Side::Cloud.to_string(), "cloud");
    }
}
