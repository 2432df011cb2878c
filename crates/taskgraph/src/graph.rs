//! The application task graph: a DAG of [`Component`]s connected by data
//! flows.

use core::fmt;
use std::collections::HashSet;

use ntc_simcore::units::{Cycles, DataSize, SimDuration};

use crate::component::{Component, ComponentId, LinearModel};

/// A directed data flow between two components.
#[derive(Debug, Clone, PartialEq)]
pub struct DataFlow {
    /// Producing component.
    pub from: ComponentId,
    /// Consuming component.
    pub to: ComponentId,
    /// Payload size as a function of job input size.
    pub payload: LinearModel,
}

impl DataFlow {
    /// The payload in bytes for a job with the given input size.
    pub fn payload_bytes(&self, input: DataSize) -> DataSize {
        self.payload.eval_bytes(input)
    }
}

/// Errors from building or validating a task graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a component id that does not exist.
    UnknownComponent(ComponentId),
    /// An edge connected a component to itself.
    SelfLoop(ComponentId),
    /// The same (from, to) edge was added twice.
    DuplicateEdge(ComponentId, ComponentId),
    /// The graph contains a directed cycle.
    Cycle,
    /// The graph has no components.
    Empty,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownComponent(id) => write!(f, "edge references unknown component {id}"),
            GraphError::SelfLoop(id) => write!(f, "component {id} has a self-loop"),
            GraphError::DuplicateEdge(a, b) => write!(f, "duplicate edge {a} -> {b}"),
            GraphError::Cycle => write!(f, "task graph contains a cycle"),
            GraphError::Empty => write!(f, "task graph has no components"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Incrementally builds a [`TaskGraph`].
///
/// # Examples
///
/// ```
/// use ntc_taskgraph::{TaskGraphBuilder, Component, LinearModel};
///
/// let mut b = TaskGraphBuilder::new("pipeline");
/// let read = b.add_component(Component::new("read"));
/// let work = b.add_component(Component::new("work").with_demand(LinearModel::constant(1e9)));
/// b.add_flow(read, work, LinearModel::scaling(0.0, 1.0));
/// let graph = b.build()?;
/// assert_eq!(graph.len(), 2);
/// # Ok::<(), ntc_taskgraph::GraphError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct TaskGraphBuilder {
    name: String,
    components: Vec<Component>,
    flows: Vec<DataFlow>,
}

impl TaskGraphBuilder {
    /// Creates an empty builder for an application called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        TaskGraphBuilder { name: name.into(), components: Vec::new(), flows: Vec::new() }
    }

    /// Adds a component, returning its id.
    pub fn add_component(&mut self, component: Component) -> ComponentId {
        let id = ComponentId::from_index(self.components.len());
        self.components.push(component);
        id
    }

    /// Adds a data flow from `from` to `to` with the given payload model.
    pub fn add_flow(
        &mut self,
        from: ComponentId,
        to: ComponentId,
        payload: LinearModel,
    ) -> &mut Self {
        self.flows.push(DataFlow { from, to, payload });
        self
    }

    /// Validates and finalises the graph.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if the graph is empty, references unknown
    /// components, has self-loops or duplicate edges, or contains a cycle.
    pub fn build(self) -> Result<TaskGraph, GraphError> {
        if self.components.is_empty() {
            return Err(GraphError::Empty);
        }
        let n = self.components.len();
        let mut seen = HashSet::new();
        for flow in &self.flows {
            if flow.from.index() >= n {
                return Err(GraphError::UnknownComponent(flow.from));
            }
            if flow.to.index() >= n {
                return Err(GraphError::UnknownComponent(flow.to));
            }
            if flow.from == flow.to {
                return Err(GraphError::SelfLoop(flow.from));
            }
            if !seen.insert((flow.from, flow.to)) {
                return Err(GraphError::DuplicateEdge(flow.from, flow.to));
            }
        }
        let graph = TaskGraph::assemble(self.name, self.components, self.flows);
        if graph.topo_order_internal().is_none() {
            return Err(GraphError::Cycle);
        }
        Ok(graph)
    }
}

/// A validated, immutable application task graph.
///
/// Nodes are [`Component`]s; edges are [`DataFlow`]s. The graph is
/// guaranteed acyclic. Job *input* enters at the entry components (no
/// predecessors) and results leave from the exit components.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskGraph {
    name: String,
    components: Vec<Component>,
    flows: Vec<DataFlow>,
    successors: Vec<Vec<usize>>,   // flow indices, by source component
    predecessors: Vec<Vec<usize>>, // flow indices, by target component
    entries: Vec<ComponentId>,     // no predecessors, in id order
    exits: Vec<ComponentId>,       // no successors, in id order
}

impl TaskGraph {
    fn assemble(name: String, components: Vec<Component>, flows: Vec<DataFlow>) -> Self {
        let n = components.len();
        let mut successors = vec![Vec::new(); n];
        let mut predecessors = vec![Vec::new(); n];
        for (i, f) in flows.iter().enumerate() {
            successors[f.from.index()].push(i);
            predecessors[f.to.index()].push(i);
        }
        let ids_without = |edges: &[Vec<usize>]| -> Vec<ComponentId> {
            (0..n).filter(|&i| edges[i].is_empty()).map(ComponentId::from_index).collect()
        };
        let (entries, exits) = (ids_without(&predecessors), ids_without(&successors));
        TaskGraph { name, components, flows, successors, predecessors, entries, exits }
    }

    /// The application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether the graph has no components (never true for built graphs).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// The component with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn component(&self, id: ComponentId) -> &Component {
        &self.components[id.index()]
    }

    /// Iterates over `(id, component)` pairs in id order.
    pub fn components(&self) -> impl Iterator<Item = (ComponentId, &Component)> {
        self.components.iter().enumerate().map(|(i, c)| (ComponentId::from_index(i), c))
    }

    /// All component ids in id order.
    pub fn ids(&self) -> impl Iterator<Item = ComponentId> + '_ {
        (0..self.components.len()).map(ComponentId::from_index)
    }

    /// All data flows.
    pub fn flows(&self) -> &[DataFlow] {
        &self.flows
    }

    /// Outgoing flows of `id`.
    pub fn flows_from(&self, id: ComponentId) -> impl Iterator<Item = &DataFlow> {
        self.successors[id.index()].iter().map(|&i| &self.flows[i])
    }

    /// Incoming flows of `id`.
    pub fn flows_into(&self, id: ComponentId) -> impl Iterator<Item = &DataFlow> {
        self.predecessors[id.index()].iter().map(|&i| &self.flows[i])
    }

    /// Successor component ids of `id`.
    pub fn successors(&self, id: ComponentId) -> impl Iterator<Item = ComponentId> + '_ {
        self.flows_from(id).map(|f| f.to)
    }

    /// Predecessor component ids of `id`.
    pub fn predecessors(&self, id: ComponentId) -> impl Iterator<Item = ComponentId> + '_ {
        self.flows_into(id).map(|f| f.from)
    }

    /// Components with no predecessors (where job input enters).
    pub fn entries(&self) -> &[ComponentId] {
        &self.entries
    }

    /// Components with no successors (where results leave).
    pub fn exits(&self) -> &[ComponentId] {
        &self.exits
    }

    fn topo_order_internal(&self) -> Option<Vec<ComponentId>> {
        let n = self.components.len();
        let mut indegree: Vec<usize> = (0..n).map(|i| self.predecessors[i].len()).collect();
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        // Pop smallest index first for a deterministic order.
        ready.sort_unstable_by(|a, b| b.cmp(a));
        let mut order = Vec::with_capacity(n);
        while let Some(u) = ready.pop() {
            order.push(ComponentId::from_index(u));
            for &fi in &self.successors[u] {
                let v = self.flows[fi].to.index();
                indegree[v] -= 1;
                if indegree[v] == 0 {
                    // Insert keeping `ready` sorted descending.
                    let pos = ready.partition_point(|&x| x > v);
                    ready.insert(pos, v);
                }
            }
        }
        if order.len() == n {
            Some(order)
        } else {
            None
        }
    }

    /// A deterministic topological order of all components.
    pub fn topo_order(&self) -> Vec<ComponentId> {
        self.topo_order_internal().expect("built TaskGraph is acyclic")
    }

    /// Total compute demand of one job with the given input size.
    pub fn total_work(&self, input: DataSize) -> Cycles {
        self.components.iter().map(|c| c.demand_cycles(input)).sum()
    }

    /// The length and node sequence of the critical (longest) path, where
    /// each component's duration is given by `node_time` and each flow's
    /// duration by `edge_time`.
    pub fn critical_path(
        &self,
        mut node_time: impl FnMut(ComponentId) -> SimDuration,
        mut edge_time: impl FnMut(&DataFlow) -> SimDuration,
    ) -> (SimDuration, Vec<ComponentId>) {
        let order = self.topo_order();
        let n = self.len();
        let mut finish = vec![SimDuration::ZERO; n];
        let mut best_pred: Vec<Option<usize>> = vec![None; n];
        for &id in &order {
            let u = id.index();
            let mut start = SimDuration::ZERO;
            for &fi in &self.predecessors[u] {
                let f = &self.flows[fi];
                let candidate = finish[f.from.index()] + edge_time(f);
                if candidate > start {
                    start = candidate;
                    best_pred[u] = Some(f.from.index());
                }
            }
            finish[u] = start + node_time(id);
        }
        let (mut u, &len) = finish
            .iter()
            .enumerate()
            .max_by_key(|&(i, &d)| (d, core::cmp::Reverse(i)))
            .expect("non-empty graph");
        let mut path = vec![ComponentId::from_index(u)];
        while let Some(p) = best_pred[u] {
            path.push(ComponentId::from_index(p));
            u = p;
        }
        path.reverse();
        (len, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Pinning;

    fn diamond() -> TaskGraph {
        let mut b = TaskGraphBuilder::new("diamond");
        let a = b.add_component(Component::new("a").with_pinning(Pinning::Device));
        let l = b.add_component(Component::new("left").with_demand(LinearModel::constant(2e6)));
        let r = b.add_component(Component::new("right").with_demand(LinearModel::constant(3e6)));
        let d = b.add_component(Component::new("join"));
        b.add_flow(a, l, LinearModel::constant(100.0));
        b.add_flow(a, r, LinearModel::constant(100.0));
        b.add_flow(l, d, LinearModel::constant(50.0));
        b.add_flow(r, d, LinearModel::constant(50.0));
        b.build().unwrap()
    }

    #[test]
    fn builds_and_exposes_structure() {
        let g = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.name(), "diamond");
        assert_eq!(g.entries(), [ComponentId::from_index(0)]);
        assert_eq!(g.exits(), [ComponentId::from_index(3)]);
        let a = ComponentId::from_index(0);
        let succ: Vec<_> = g.successors(a).collect();
        assert_eq!(succ.len(), 2);
        let join = ComponentId::from_index(3);
        assert_eq!(g.predecessors(join).count(), 2);
        assert_eq!(g.flows().len(), 4);
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = diamond();
        let order = g.topo_order();
        let pos: Vec<usize> =
            (0..4).map(|i| order.iter().position(|&x| x.index() == i).unwrap()).collect();
        assert!(pos[0] < pos[1] && pos[0] < pos[2]);
        assert!(pos[1] < pos[3] && pos[2] < pos[3]);
    }

    #[test]
    fn topo_order_is_deterministic() {
        let g = diamond();
        assert_eq!(g.topo_order(), g.topo_order());
        // Ties broken by smallest id.
        assert_eq!(g.topo_order()[1], ComponentId::from_index(1));
    }

    #[test]
    fn cycle_is_rejected() {
        let mut b = TaskGraphBuilder::new("cyclic");
        let x = b.add_component(Component::new("x"));
        let y = b.add_component(Component::new("y"));
        b.add_flow(x, y, LinearModel::ZERO);
        b.add_flow(y, x, LinearModel::ZERO);
        assert_eq!(b.build().unwrap_err(), GraphError::Cycle);
    }

    #[test]
    fn self_loop_is_rejected() {
        let mut b = TaskGraphBuilder::new("loopy");
        let x = b.add_component(Component::new("x"));
        b.add_flow(x, x, LinearModel::ZERO);
        assert_eq!(b.build().unwrap_err(), GraphError::SelfLoop(x));
    }

    #[test]
    fn duplicate_edge_is_rejected() {
        let mut b = TaskGraphBuilder::new("dup");
        let x = b.add_component(Component::new("x"));
        let y = b.add_component(Component::new("y"));
        b.add_flow(x, y, LinearModel::ZERO);
        b.add_flow(x, y, LinearModel::ZERO);
        assert_eq!(b.build().unwrap_err(), GraphError::DuplicateEdge(x, y));
    }

    #[test]
    fn unknown_component_is_rejected() {
        let mut b = TaskGraphBuilder::new("bad");
        let x = b.add_component(Component::new("x"));
        b.add_flow(x, ComponentId::from_index(9), LinearModel::ZERO);
        assert!(matches!(b.build().unwrap_err(), GraphError::UnknownComponent(_)));
    }

    #[test]
    fn empty_graph_is_rejected() {
        assert_eq!(TaskGraphBuilder::new("none").build().unwrap_err(), GraphError::Empty);
        assert!(GraphError::Empty.to_string().contains("no components"));
    }

    #[test]
    fn critical_path_picks_longest_branch() {
        let g = diamond();
        let (len, path) = g.critical_path(
            |id| match id.index() {
                1 => SimDuration::from_secs(2),
                2 => SimDuration::from_secs(3),
                _ => SimDuration::from_secs(1),
            },
            |_| SimDuration::from_millis(100),
        );
        // a(1) + 0.1 + right(3) + 0.1 + join(1) = 5.2s
        assert_eq!(len, SimDuration::from_millis(5200));
        assert_eq!(path.iter().map(|c| c.index()).collect::<Vec<_>>(), vec![0, 2, 3]);
    }

    #[test]
    fn total_work_sums_component_demand() {
        let g = diamond();
        assert_eq!(g.total_work(DataSize::ZERO), Cycles::from_mega(5));
    }
}
