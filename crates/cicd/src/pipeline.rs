//! The offloading-aware CI/CD pipeline (contribution **C4**): profiling,
//! partitioning and canary validation as first-class release stages, with
//! versioned partition plans and rollback to the last good release.

use core::fmt;

use ntc_partition::{CostParams, MinCutPartitioner, PartitionContext, PartitionPlan, Partitioner};
use ntc_profiler::{AppProfiler, EstimatorKind};
use ntc_simcore::rng::RngStream;
use ntc_simcore::units::{round_to_u64, Cycles, DataSize, SimDuration};
use ntc_taskgraph::TaskGraph;

use crate::artifact::{Artifact, ArtifactRegistry, ContentHash};

/// Nominal build-stage duration (jittered per release).
const BUILD_TIME: SimDuration = SimDuration::from_mins(3);
/// Nominal test-stage duration (jittered per release).
const TEST_TIME: SimDuration = SimDuration::from_mins(4);
/// Profiling invocations per component.
const PROFILE_INVOCATIONS: u32 = 30;
/// Duration of one profiling invocation batch.
const PROFILE_INVOCATION_TIME: SimDuration = SimDuration::from_millis(400);
/// Representative job input size for profiling and partitioning.
const REFERENCE_INPUT: DataSize = DataSize::from_mib(1);
/// Deployment time per MiB of artifact uploaded.
const DEPLOY_PER_MIB: SimDuration = SimDuration::from_millis(50);
/// Canary invocations routed to the new release.
const CANARY_INVOCATIONS: u64 = 20;
/// Duration of one canary invocation.
const CANARY_INVOCATION_TIME: SimDuration = SimDuration::from_millis(500);
/// The canary fails when measured demand exceeds the last good release
/// by this factor (+50 %).
const SLO_REGRESSION_FACTOR: f64 = 1.5;

/// The stages of an offloading-aware release pipeline, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Compile and package the application.
    Build,
    /// Run the test suite.
    Test,
    /// Execute profiling invocations to determine computational demands.
    Profile,
    /// Compute the partition plan from the fitted demands.
    Partition,
    /// Publish artifacts for each partition.
    Package,
    /// Deploy offloaded partitions to the FaaS platform.
    Deploy,
    /// Route a traffic sample to the new release and compare to the SLO.
    Canary,
    /// Promote the release (full traffic).
    Promote,
    /// Restore the previous release's plan and artifacts.
    Rollback,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Stage::Build => "build",
            Stage::Test => "test",
            Stage::Profile => "profile",
            Stage::Partition => "partition",
            Stage::Package => "package",
            Stage::Deploy => "deploy",
            Stage::Canary => "canary",
            Stage::Promote => "promote",
            Stage::Rollback => "rollback",
        };
        f.write_str(s)
    }
}

/// A release entering the pipeline.
///
/// `demand_factor` models how the *actual* runtime demand of this build
/// compares to the static annotations — a value well above 1.0 is a
/// performance regression the canary should catch.
#[derive(Debug, Clone)]
pub struct ReleaseSpec {
    /// Monotonically increasing release version.
    pub version: u64,
    /// The application being released.
    pub graph: TaskGraph,
    /// True demand relative to annotations (1.0 = as annotated).
    pub demand_factor: f64,
    /// Lognormal noise sigma on measured demand.
    pub noise_sigma: f64,
}

/// How a pipeline run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The release was promoted; the partition plan is live.
    Promoted {
        /// The plan now serving traffic.
        plan: PartitionPlan,
    },
    /// The canary breached the SLO; the previous release was restored.
    RolledBack {
        /// Measured demand relative to the last good release.
        regression: f64,
    },
}

/// Timing and outcome of one pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Release version.
    pub version: u64,
    /// Per-stage wall-clock durations, in execution order.
    pub stages: Vec<(Stage, SimDuration)>,
    /// Final outcome.
    pub outcome: Outcome,
}

impl PipelineReport {
    /// Total pipeline duration.
    pub fn total(&self) -> SimDuration {
        self.stages.iter().map(|&(_, d)| d).sum()
    }

    /// The duration of `stage` if it ran.
    pub fn stage(&self, stage: Stage) -> Option<SimDuration> {
        self.stages.iter().find(|&&(s, _)| s == stage).map(|&(_, d)| d)
    }
}

#[derive(Debug, Clone)]
struct GoodRelease {
    version: u64,
    mean_demand: f64,
}

/// The offloading-aware release pipeline.
///
/// # Examples
///
/// ```
/// use ntc_cicd::pipeline::{Pipeline, ReleaseSpec, Outcome};
/// use ntc_simcore::rng::RngStream;
/// use ntc_taskgraph::{TaskGraphBuilder, Component, LinearModel};
///
/// let mut b = TaskGraphBuilder::new("svc");
/// let c = b.add_component(Component::new("work").with_demand(LinearModel::constant(2e9)));
/// let graph = b.build().unwrap();
///
/// let mut pipeline = Pipeline::new(RngStream::root(1));
/// let report = pipeline.run(&ReleaseSpec { version: 1, graph, demand_factor: 1.0, noise_sigma: 0.05 });
/// assert!(matches!(report.outcome, Outcome::Promoted { .. }));
/// ```
#[derive(Debug)]
pub struct Pipeline {
    offloading: bool,
    rng: RngStream,
    registry: ArtifactRegistry,
    last_good: Option<GoodRelease>,
    plan_history: Vec<(u64, PartitionPlan)>,
}

impl Pipeline {
    /// Creates an offloading-aware pipeline: profiling, partitioning and
    /// the canary run as release stages.
    pub fn new(rng: RngStream) -> Self {
        Self::with_offloading(true, rng)
    }

    /// Creates a conventional pipeline: no profile, partition or canary
    /// stage, every component stays on the device, and every artifact is
    /// deployed.
    pub fn conventional(rng: RngStream) -> Self {
        Self::with_offloading(false, rng)
    }

    fn with_offloading(offloading: bool, rng: RngStream) -> Self {
        Pipeline {
            offloading,
            rng: rng.derive("cicd"),
            registry: ArtifactRegistry::new(),
            last_good: None,
            plan_history: Vec::new(),
        }
    }

    /// The artifact registry the pipeline publishes into.
    pub fn registry(&self) -> &ArtifactRegistry {
        &self.registry
    }

    /// The version of the currently live release, if any.
    pub fn live_version(&self) -> Option<u64> {
        self.last_good.as_ref().map(|g| g.version)
    }

    /// All promoted plans with their versions (audit trail).
    pub fn plan_history(&self) -> &[(u64, PartitionPlan)] {
        &self.plan_history
    }

    /// Starts a production monitor around the live release's profiled
    /// demand, or `None` when nothing is live (or the live baseline is
    /// zero).
    pub fn start_monitor(&self) -> Option<crate::monitor::ProductionMonitor> {
        let good = self.last_good.as_ref()?;
        if good.mean_demand > 0.0 {
            Some(crate::monitor::ProductionMonitor::new(good.mean_demand))
        } else {
            None
        }
    }

    /// Runs the pipeline for one release.
    pub fn run(&mut self, spec: &ReleaseSpec) -> PipelineReport {
        let mut stages: Vec<(Stage, SimDuration)> = Vec::new();
        let mut rng = self.rng.derive(("release-", spec.version));

        stages.push((Stage::Build, BUILD_TIME.mul_f64(rng.lognormal(0.0, 0.1))));
        stages.push((Stage::Test, TEST_TIME.mul_f64(rng.lognormal(0.0, 0.1))));

        // --- Profile: measure demands on the new build. ---
        let mut profiler =
            AppProfiler::new(&spec.graph, EstimatorKind::Hybrid).with_min_observations(1);
        let mut measured_total = 0.0;
        if self.offloading {
            let mut elapsed = SimDuration::ZERO;
            for _ in 0..PROFILE_INVOCATIONS {
                for (id, c) in spec.graph.components() {
                    let annotated = c.demand_cycles(REFERENCE_INPUT).get() as f64;
                    let measured =
                        annotated * spec.demand_factor * rng.lognormal(0.0, spec.noise_sigma);
                    profiler.observe(id, REFERENCE_INPUT, Cycles::new(round_to_u64(measured)));
                }
                elapsed += PROFILE_INVOCATION_TIME;
            }
            for id in spec.graph.ids() {
                measured_total += profiler.predict(id, REFERENCE_INPUT).get() as f64;
            }
            stages.push((Stage::Profile, elapsed));
        }

        // --- Partition: plan from fitted demands. ---
        let plan = if self.offloading {
            let demands: Vec<Cycles> =
                spec.graph.ids().map(|id| profiler.predict(id, REFERENCE_INPUT)).collect();
            let ctx = PartitionContext::new(&spec.graph, REFERENCE_INPUT, CostParams::default())
                .with_demands(demands);
            let plan = MinCutPartitioner.partition(&ctx);
            stages.push((Stage::Partition, SimDuration::from_millis(200)));
            plan
        } else {
            PartitionPlan::all_device(&spec.graph)
        };

        // --- Package: publish one artifact per component. ---
        let mut package_bytes = DataSize::ZERO;
        for (_, c) in spec.graph.components() {
            let descriptor = format!("{}:{}:{}", spec.graph.name(), c.name(), spec.version);
            self.registry.publish(Artifact {
                name: format!("{}/{}", spec.graph.name(), c.name()),
                version: spec.version,
                size: c.artifact_size(),
                hash: ContentHash::of(&descriptor),
            });
            package_bytes += c.artifact_size();
        }
        stages.push((Stage::Package, SimDuration::from_millis(500)));

        // --- Deploy: upload offloaded partitions. ---
        let offloaded_bytes: DataSize =
            plan.offloaded().map(|id| spec.graph.component(id).artifact_size()).sum();
        let deploy_bytes = if self.offloading { offloaded_bytes } else { package_bytes };
        stages.push((Stage::Deploy, DEPLOY_PER_MIB.mul_f64(deploy_bytes.as_mib_f64())));

        // --- Canary: compare measured demand to the last good release. ---
        if self.offloading {
            stages.push((Stage::Canary, CANARY_INVOCATION_TIME * CANARY_INVOCATIONS));
            if let Some(good) = &self.last_good {
                let regression =
                    if good.mean_demand > 0.0 { measured_total / good.mean_demand } else { 1.0 };
                if regression > SLO_REGRESSION_FACTOR {
                    stages.push((Stage::Rollback, SimDuration::from_secs(30)));
                    return PipelineReport {
                        version: spec.version,
                        stages,
                        outcome: Outcome::RolledBack { regression },
                    };
                }
            }
        }

        // --- Promote. ---
        stages.push((Stage::Promote, SimDuration::from_secs(10)));
        self.last_good = Some(GoodRelease {
            version: spec.version,
            mean_demand: if self.offloading {
                measured_total
            } else {
                spec.graph.total_work(REFERENCE_INPUT).get() as f64
            },
        });
        self.plan_history.push((spec.version, plan.clone()));
        PipelineReport { version: spec.version, stages, outcome: Outcome::Promoted { plan } }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_taskgraph::{Component, LinearModel, Pinning, TaskGraphBuilder};

    fn app() -> TaskGraph {
        let mut b = TaskGraphBuilder::new("svc");
        let ui = b.add_component(Component::new("ui").with_pinning(Pinning::Device));
        let work = b.add_component(
            Component::new("work")
                .with_demand(LinearModel::constant(5e9))
                .with_artifact_size(DataSize::from_mib(20)),
        );
        b.add_flow(ui, work, LinearModel::constant(10_000.0));
        b.build().unwrap()
    }

    fn release(version: u64, demand_factor: f64) -> ReleaseSpec {
        ReleaseSpec { version, graph: app(), demand_factor, noise_sigma: 0.05 }
    }

    fn pipeline() -> Pipeline {
        Pipeline::new(RngStream::root(11))
    }

    #[test]
    fn healthy_release_is_promoted() {
        let mut p = pipeline();
        let report = p.run(&release(1, 1.0));
        assert!(matches!(report.outcome, Outcome::Promoted { .. }));
        assert!(report.stage(Stage::Profile).is_some());
        assert!(report.stage(Stage::Canary).is_some());
        assert!(report.stage(Stage::Rollback).is_none());
        assert_eq!(p.live_version(), Some(1));
        assert_eq!(p.plan_history().len(), 1);
    }

    #[test]
    fn demand_regression_is_rolled_back() {
        let mut p = pipeline();
        p.run(&release(1, 1.0));
        let report = p.run(&release(2, 3.0)); // 3× the demand: breach
        match &report.outcome {
            Outcome::RolledBack { regression } => {
                assert!(*regression > 2.0, "regression={regression}")
            }
            other => panic!("expected rollback, got {other:?}"),
        }
        assert!(report.stage(Stage::Rollback).is_some());
        // The live release is still v1.
        assert_eq!(p.live_version(), Some(1));
        assert_eq!(p.plan_history().len(), 1);
    }

    #[test]
    fn mild_drift_within_slo_is_promoted() {
        let mut p = pipeline();
        p.run(&release(1, 1.0));
        let report = p.run(&release(2, 1.2)); // +20 % < 1.5× SLO
        assert!(matches!(report.outcome, Outcome::Promoted { .. }));
        assert_eq!(p.plan_history().len(), 2);
    }

    #[test]
    fn conventional_pipeline_skips_offload_stages() {
        let mut p = Pipeline::conventional(RngStream::root(2));
        let report = p.run(&release(1, 1.0));
        assert!(report.stage(Stage::Profile).is_none());
        assert!(report.stage(Stage::Partition).is_none());
        assert!(report.stage(Stage::Canary).is_none());
        assert!(
            matches!(&report.outcome, Outcome::Promoted { plan } if plan.offloaded().count() == 0)
        );
    }

    #[test]
    fn offload_stages_add_bounded_overhead() {
        let mut with = pipeline();
        let mut without = Pipeline::conventional(RngStream::root(11));
        let a = with.run(&release(1, 1.0)).total();
        let b = without.run(&release(1, 1.0)).total();
        assert!(a > b, "offload stages take time");
        // Bounded: profiling+canary budget dominates; under 2× here.
        assert!(a < b * 2, "overhead should be bounded: {a} vs {b}");
    }

    #[test]
    fn artifacts_are_versioned_and_deduplicated() {
        let mut p = pipeline();
        p.run(&release(1, 1.0));
        p.run(&release(2, 1.0));
        // Content descriptor includes the version, so two versions exist.
        assert_eq!(p.registry().version_count("svc/work"), 2);
    }

    #[test]
    fn report_total_sums_stages() {
        let mut p = pipeline();
        let report = p.run(&release(1, 1.0));
        let sum: SimDuration = report.stages.iter().map(|&(_, d)| d).sum();
        assert_eq!(report.total(), sum);
        assert!(report.total() > SimDuration::from_mins(5));
    }
}
