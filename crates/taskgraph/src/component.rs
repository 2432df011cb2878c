//! Application components: the partitionable units of an offloadable
//! application.

use core::fmt;

use ntc_simcore::rng::{Key, KeyHasher};
use ntc_simcore::units::{round_to_u64, Cycles, DataSize};

/// Identifier of a component within its [`crate::TaskGraph`].
///
/// Ids are dense indices assigned by the builder in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub(crate) u32);

impl ComponentId {
    /// The dense index of this component.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates an id from a dense index.
    ///
    /// Only meaningful for indices previously handed out by a builder for
    /// the same graph; useful when iterating by position.
    pub fn from_index(index: usize) -> Self {
        ComponentId(u32::try_from(index).expect("component index out of range"))
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Spelled as its `Display`, `c{n}`.
impl Key for ComponentId {
    #[inline]
    fn spell(&self, h: &mut KeyHasher) {
        h.write_str("c");
        h.write_decimal(self.0.into());
    }
}

/// A linear model of a quantity as a function of the job input size:
/// `fixed + per_input_byte * input_bytes`.
///
/// Used for both compute demand (cycles) and edge payloads (bytes), since
/// both typically scale with the size of the data being processed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearModel {
    /// Input-independent part.
    pub fixed: f64,
    /// Slope per byte of job input.
    pub per_input_byte: f64,
}

impl LinearModel {
    /// A model that is always zero.
    pub const ZERO: LinearModel = LinearModel { fixed: 0.0, per_input_byte: 0.0 };

    /// Creates a constant model.
    pub fn constant(fixed: f64) -> Self {
        LinearModel { fixed, per_input_byte: 0.0 }
    }

    /// Creates a model with both a fixed part and an input-proportional part.
    pub fn scaling(fixed: f64, per_input_byte: f64) -> Self {
        LinearModel { fixed, per_input_byte }
    }

    /// Evaluates the model for a job of the given input size, clamped at
    /// zero.
    #[inline]
    pub fn eval(&self, input: DataSize) -> f64 {
        (self.fixed + self.per_input_byte * input.as_bytes() as f64).max(0.0)
    }

    /// Evaluates the model and rounds to a cycle count.
    #[inline]
    pub fn eval_cycles(&self, input: DataSize) -> Cycles {
        Cycles::new(round_to_u64(self.eval(input)))
    }

    /// Evaluates the model and rounds to a data size.
    #[inline]
    pub fn eval_bytes(&self, input: DataSize) -> DataSize {
        DataSize::from_bytes(round_to_u64(self.eval(input)))
    }
}

/// Where a component is allowed to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Pinning {
    /// May run on the device or be offloaded — the default.
    #[default]
    Offloadable,
    /// Must run on the user equipment (UI rendering, sensor access,
    /// local-only data).
    Device,
}

/// One component (function/module) of an application.
///
/// Construct via [`Component::new`] and the `with_*` builder methods:
///
/// ```
/// use ntc_taskgraph::component::{Component, LinearModel, Pinning};
/// use ntc_simcore::units::DataSize;
///
/// let decode = Component::new("decode")
///     .with_demand(LinearModel::scaling(5e6, 120.0))
///     .with_memory(DataSize::from_mib(256))
///     .with_pinning(Pinning::Offloadable);
/// assert_eq!(decode.name(), "decode");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    name: String,
    demand: LinearModel,
    memory: DataSize,
    artifact_size: DataSize,
    pinning: Pinning,
    batchable: bool,
}

impl Component {
    /// Creates a component with zero demand, 64 MiB memory footprint, a
    /// 1 MiB deployment artifact, and offloadable pinning.
    pub fn new(name: impl Into<String>) -> Self {
        Component {
            name: name.into(),
            demand: LinearModel::ZERO,
            memory: DataSize::from_mib(64),
            artifact_size: DataSize::from_mib(1),
            pinning: Pinning::Offloadable,
            batchable: true,
        }
    }

    /// Sets the compute-demand model (cycles as a function of job input).
    pub fn with_demand(mut self, demand: LinearModel) -> Self {
        self.demand = demand;
        self
    }

    /// Sets the peak memory footprint.
    pub fn with_memory(mut self, memory: DataSize) -> Self {
        self.memory = memory;
        self
    }

    /// Sets the size of the deployable artifact (container layer / zip).
    pub fn with_artifact_size(mut self, size: DataSize) -> Self {
        self.artifact_size = size;
        self
    }

    /// Sets the placement constraint.
    pub fn with_pinning(mut self, pinning: Pinning) -> Self {
        self.pinning = pinning;
        self
    }

    /// Sets whether coalesced jobs may share this component's *fixed*
    /// demand (`true`, the default — model loading, template compilation)
    /// or whether the fixed part is irreducible per job (`false` — e.g.
    /// one independent simulation per job).
    pub fn with_batchable(mut self, batchable: bool) -> Self {
        self.batchable = batchable;
        self
    }

    /// The component's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The compute-demand model.
    pub fn demand(&self) -> LinearModel {
        self.demand
    }

    /// The expected cycles for a job with the given input size.
    pub fn demand_cycles(&self, input: DataSize) -> Cycles {
        self.demand.eval_cycles(input)
    }

    /// The peak memory footprint.
    pub fn memory(&self) -> DataSize {
        self.memory
    }

    /// The deployment-artifact size.
    pub fn artifact_size(&self) -> DataSize {
        self.artifact_size
    }

    /// The placement constraint.
    pub fn pinning(&self) -> Pinning {
        self.pinning
    }

    /// Whether the component may be offloaded off the device.
    pub fn is_offloadable(&self) -> bool {
        self.pinning == Pinning::Offloadable
    }

    /// The expected cycles for a coalesced batch of `members` jobs with
    /// `sum_input` total input: batchable components amortise the fixed
    /// part; non-batchable ones pay it per member.
    ///
    /// # Panics
    ///
    /// Panics if `members` is zero.
    pub fn batch_demand_cycles(&self, members: u64, sum_input: DataSize) -> Cycles {
        assert!(members > 0, "a batch has at least one member");
        if self.batchable {
            self.demand.eval_cycles(sum_input)
        } else {
            let per_byte = self.demand.per_input_byte * sum_input.as_bytes() as f64;
            Cycles::new(round_to_u64(
                self.demand.fixed.max(0.0) * members as f64 + per_byte.max(0.0),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_model_evaluates() {
        let m = LinearModel::scaling(100.0, 2.0);
        assert_eq!(m.eval(DataSize::from_bytes(10)), 120.0);
        assert_eq!(m.eval_cycles(DataSize::ZERO), Cycles::new(100));
        assert_eq!(LinearModel::ZERO.eval(DataSize::from_gib(1)), 0.0);
    }

    #[test]
    fn linear_model_clamps_negative() {
        let m = LinearModel::scaling(-100.0, 0.0);
        assert_eq!(m.eval(DataSize::ZERO), 0.0);
    }

    #[test]
    fn component_builder_sets_fields() {
        let c = Component::new("ui")
            .with_demand(LinearModel::constant(1e6))
            .with_memory(DataSize::from_mib(128))
            .with_artifact_size(DataSize::from_mib(5))
            .with_pinning(Pinning::Device);
        assert_eq!(c.name(), "ui");
        assert_eq!(c.memory(), DataSize::from_mib(128));
        assert_eq!(c.artifact_size(), DataSize::from_mib(5));
        assert!(!c.is_offloadable());
        assert_eq!(c.demand_cycles(DataSize::from_mib(1)), Cycles::from_mega(1));
    }

    #[test]
    fn batch_demand_amortises_only_when_batchable() {
        let shared = Component::new("render").with_demand(LinearModel::scaling(1e9, 10.0));
        let solo = Component::new("simulate")
            .with_demand(LinearModel::scaling(1e9, 10.0))
            .with_batchable(false);
        let sum = DataSize::from_mib(10);
        let s = shared.batch_demand_cycles(5, sum).get();
        let n = solo.batch_demand_cycles(5, sum).get();
        assert_eq!(n - s, 4_000_000_000, "four extra fixed parts");
        // A single-member batch is just the job itself.
        assert_eq!(solo.batch_demand_cycles(1, sum), solo.demand_cycles(sum));
    }

    #[test]
    fn component_id_roundtrips() {
        let id = ComponentId::from_index(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "c7");
    }
}
