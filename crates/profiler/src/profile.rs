//! Application-level profiling: one demand estimator per component, plus
//! extraction of fitted demand models for the partitioner.

use core::fmt;

use ntc_simcore::units::{Cycles, DataSize};
use ntc_taskgraph::{ComponentId, LinearModel, TaskGraph};

use crate::estimator::{
    DemandEstimator, EwmaEstimator, HoltEstimator, HybridEstimator, Observation, QuantileEstimator,
    RegressionEstimator,
};

/// Which estimator family to instantiate per component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EstimatorKind {
    /// [`EwmaEstimator`] (smoothing factor 0.2).
    Ewma,
    /// [`QuantileEstimator`] (p90 over a 100-observation window).
    Quantile,
    /// [`HoltEstimator`] — trend-aware double exponential smoothing.
    Holt,
    /// [`RegressionEstimator`] on input size.
    Regression,
    /// [`HybridEstimator`] — the framework default.
    #[default]
    Hybrid,
}

impl EstimatorKind {
    /// Instantiates a fresh estimator of this kind.
    pub fn build(self) -> Box<dyn DemandEstimator> {
        match self {
            EstimatorKind::Ewma => Box::new(EwmaEstimator::default()),
            EstimatorKind::Quantile => Box::new(QuantileEstimator::default()),
            EstimatorKind::Holt => Box::new(HoltEstimator::default()),
            EstimatorKind::Regression => Box::new(RegressionEstimator::new()),
            EstimatorKind::Hybrid => Box::new(HybridEstimator::default()),
        }
    }

    /// All estimator kinds, for comparison experiments.
    pub fn all() -> [EstimatorKind; 5] {
        [
            EstimatorKind::Ewma,
            EstimatorKind::Quantile,
            EstimatorKind::Holt,
            EstimatorKind::Regression,
            EstimatorKind::Hybrid,
        ]
    }
}

impl fmt::Display for EstimatorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EstimatorKind::Ewma => "ewma",
            EstimatorKind::Quantile => "quantile",
            EstimatorKind::Holt => "holt",
            EstimatorKind::Regression => "regression",
            EstimatorKind::Hybrid => "hybrid",
        };
        f.write_str(s)
    }
}

/// Per-component demand profiler for one application.
///
/// Falls back to the component's static demand annotation until enough
/// observations have accumulated, so a freshly deployed application still
/// gets sensible offloading decisions (contribution C1 of the paper:
/// "determine computational demands").
///
/// # Examples
///
/// ```
/// use ntc_profiler::{AppProfiler, EstimatorKind};
/// use ntc_taskgraph::{TaskGraphBuilder, Component, LinearModel};
/// use ntc_simcore::units::{Cycles, DataSize};
///
/// let mut b = TaskGraphBuilder::new("app");
/// let c = b.add_component(Component::new("work").with_demand(LinearModel::constant(1e6)));
/// let graph = b.build().unwrap();
///
/// let mut profiler = AppProfiler::new(&graph, EstimatorKind::Hybrid);
/// // Before observations: the static annotation.
/// assert_eq!(profiler.predict(c, DataSize::ZERO), Cycles::from_mega(1));
/// // Observations override the annotation.
/// for _ in 0..20 {
///     profiler.observe(c, DataSize::ZERO, Cycles::from_mega(5));
/// }
/// assert_eq!(profiler.predict(c, DataSize::ZERO), Cycles::from_mega(5));
/// ```
#[derive(Debug)]
pub struct AppProfiler {
    kind: EstimatorKind,
    estimators: Vec<Box<dyn DemandEstimator>>,
    fallbacks: Vec<LinearModel>,
    min_observations: u64,
}

impl AppProfiler {
    /// Number of observations required before estimates replace static
    /// annotations.
    pub const DEFAULT_MIN_OBSERVATIONS: u64 = 5;

    /// Creates a profiler with one estimator per component of `graph`.
    pub fn new(graph: &TaskGraph, kind: EstimatorKind) -> Self {
        AppProfiler {
            kind,
            estimators: graph.ids().map(|_| kind.build()).collect(),
            fallbacks: graph.components().map(|(_, c)| c.demand()).collect(),
            min_observations: Self::DEFAULT_MIN_OBSERVATIONS,
        }
    }

    /// Overrides the warm-up threshold.
    pub fn with_min_observations(mut self, n: u64) -> Self {
        self.min_observations = n;
        self
    }

    /// The estimator family in use.
    pub fn kind(&self) -> EstimatorKind {
        self.kind
    }

    /// Records a measured execution of `component`.
    ///
    /// # Panics
    ///
    /// Panics if `component` is not part of the profiled graph.
    pub fn observe(&mut self, component: ComponentId, input: DataSize, cycles: Cycles) {
        self.estimators[component.index()].observe(Observation::new(input, cycles));
    }

    /// Observations recorded for `component`.
    ///
    /// # Panics
    ///
    /// Panics if `component` is not part of the profiled graph.
    pub fn observations(&self, component: ComponentId) -> u64 {
        self.estimators[component.index()].observations()
    }

    /// Predicts the demand of `component` for a job with the given input,
    /// using the static annotation until warmed up.
    ///
    /// # Panics
    ///
    /// Panics if `component` is not part of the profiled graph.
    pub fn predict(&self, component: ComponentId, input: DataSize) -> Cycles {
        let est = &self.estimators[component.index()];
        if est.observations() < self.min_observations {
            self.fallbacks[component.index()].eval_cycles(input)
        } else {
            est.predict(input)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_taskgraph::{Component, TaskGraphBuilder};

    fn graph() -> (TaskGraph, ComponentId, ComponentId) {
        let mut b = TaskGraphBuilder::new("g");
        let a = b.add_component(Component::new("a").with_demand(LinearModel::constant(1e6)));
        let c = b.add_component(Component::new("b").with_demand(LinearModel::scaling(0.0, 2.0)));
        b.add_flow(a, c, LinearModel::ZERO);
        (b.build().unwrap(), a, c)
    }

    use ntc_taskgraph::TaskGraph;

    #[test]
    fn fallback_until_warm() {
        let (g, a, _) = graph();
        let mut p = AppProfiler::new(&g, EstimatorKind::Ewma);
        assert_eq!(p.predict(a, DataSize::ZERO), Cycles::from_mega(1));
        for _ in 0..4 {
            p.observe(a, DataSize::ZERO, Cycles::from_mega(9));
        }
        // Still below DEFAULT_MIN_OBSERVATIONS.
        assert_eq!(p.predict(a, DataSize::ZERO), Cycles::from_mega(1));
        p.observe(a, DataSize::ZERO, Cycles::from_mega(9));
        assert_eq!(p.predict(a, DataSize::ZERO), Cycles::from_mega(9));
        assert_eq!(p.observations(a), 5);
    }

    #[test]
    fn warm_predictions_recover_the_slope() {
        let (g, _, c) = graph();
        let mut p = AppProfiler::new(&g, EstimatorKind::Regression);
        for i in 1..=20u64 {
            let input = DataSize::from_kib(i * 10);
            p.observe(c, input, Cycles::new(3 * input.as_bytes() + 500));
        }
        let ref_input = DataSize::from_mib(1);
        let p0 = p.predict(c, DataSize::ZERO).get() as f64;
        let p1 = p.predict(c, ref_input).get() as f64;
        let slope = (p1 - p0) / ref_input.as_bytes() as f64;
        assert!((slope - 3.0).abs() < 0.01, "slope {slope}");
        assert!((p0 - 500.0).abs() < 50.0, "intercept {p0}");
    }

    #[test]
    fn cold_predictions_fall_back_to_the_annotation() {
        let (g, _, c) = graph();
        let p = AppProfiler::new(&g, EstimatorKind::Hybrid);
        let annotation = LinearModel::scaling(0.0, 2.0);
        for input in [DataSize::ZERO, DataSize::from_mib(1)] {
            assert_eq!(p.predict(c, input), annotation.eval_cycles(input));
        }
    }

    #[test]
    fn kinds_build_distinct_estimators() {
        for kind in EstimatorKind::all() {
            let e = kind.build();
            assert_eq!(e.observations(), 0);
            assert_eq!(kind.to_string(), e.name());
        }
        assert_eq!(EstimatorKind::default(), EstimatorKind::Hybrid);
    }

    #[test]
    fn min_observations_is_configurable() {
        let (g, a, _) = graph();
        let mut p = AppProfiler::new(&g, EstimatorKind::Ewma).with_min_observations(1);
        p.observe(a, DataSize::ZERO, Cycles::from_mega(7));
        assert_eq!(p.predict(a, DataSize::ZERO), Cycles::from_mega(7));
    }
}
