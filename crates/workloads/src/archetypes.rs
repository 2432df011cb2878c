//! Application archetypes: the non-time-critical workloads the paper's
//! motivation names, as ready-made task graphs with realistic demand,
//! payload, input-size and slack characteristics.

use core::fmt;

use ntc_json::ToJson;
use ntc_simcore::rng::RngStream;
use ntc_simcore::units::{round_to_u64, DataSize, SimDuration};
use ntc_taskgraph::{Component, LinearModel, Pinning, TaskGraph, TaskGraphBuilder};

/// The seven reference applications of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, ToJson)]
pub enum Archetype {
    /// Mobile photo enhancement batch (capture → enhance → thumbnail →
    /// publish). Moderate input, demand scales with pixels.
    PhotoPipeline,
    /// Video transcoding (ingest → demux → transcode → mux → store).
    /// Large inputs, very heavy input-proportional demand.
    VideoTranscode,
    /// Nightly report rendering (trigger → aggregate → render →
    /// distribute). Hours of slack.
    ReportRendering,
    /// Batch ML inference (collect → preprocess → infer → postprocess).
    /// Demand dominated by the fixed model cost, not input size.
    MlInference,
    /// Scientific parameter sweep (setup → simulate → analyse → archive).
    /// Huge fixed demand, tiny payloads.
    SciSweep,
    /// Log analytics (collect → parse → aggregate → index). Demand and
    /// payloads both input-proportional.
    LogAnalytics,
    /// Overnight document indexing (scan → extract → build-index →
    /// publish-index). Large inputs, *light* per-byte compute: the classic
    /// transfer-dominated case where partitioning keeps work local and
    /// ships only the tiny index.
    DocIndexing,
}

impl Archetype {
    /// All archetypes, in table order.
    pub const fn all() -> [Archetype; 7] {
        [
            Archetype::PhotoPipeline,
            Archetype::VideoTranscode,
            Archetype::ReportRendering,
            Archetype::MlInference,
            Archetype::SciSweep,
            Archetype::LogAnalytics,
            Archetype::DocIndexing,
        ]
    }

    /// The archetype's position in [`Archetype::all`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// A short stable name for result tables.
    pub fn name(self) -> &'static str {
        match self {
            Archetype::PhotoPipeline => "photo-pipeline",
            Archetype::VideoTranscode => "video-transcode",
            Archetype::ReportRendering => "report-rendering",
            Archetype::MlInference => "ml-inference",
            Archetype::SciSweep => "sci-sweep",
            Archetype::LogAnalytics => "log-analytics",
            Archetype::DocIndexing => "doc-indexing",
        }
    }

    /// Builds the archetype's task graph.
    pub fn graph(self) -> TaskGraph {
        match self {
            Archetype::PhotoPipeline => photo_pipeline(),
            Archetype::VideoTranscode => video_transcode(),
            Archetype::ReportRendering => report_rendering(),
            Archetype::MlInference => ml_inference(),
            Archetype::SciSweep => sci_sweep(),
            Archetype::LogAnalytics => log_analytics(),
            Archetype::DocIndexing => doc_indexing(),
        }
    }

    /// Samples a job input size (lognormal around the archetype's typical
    /// size).
    pub fn sample_input(self, rng: &mut RngStream) -> DataSize {
        let (median_kib, sigma) = match self {
            Archetype::PhotoPipeline => (4.0 * 1024.0, 0.4),
            Archetype::VideoTranscode => (150.0 * 1024.0, 0.7),
            Archetype::ReportRendering => (20.0 * 1024.0, 0.5),
            Archetype::MlInference => (512.0, 0.3),
            Archetype::SciSweep => (64.0, 0.2),
            Archetype::LogAnalytics => (50.0 * 1024.0, 0.8),
            Archetype::DocIndexing => (30.0 * 1024.0, 0.6),
        };
        let kib = median_kib * rng.lognormal(0.0, sigma);
        DataSize::from_bytes(round_to_u64(kib * 1024.0))
    }

    /// The typical deadline slack of this use case — the quantity that
    /// makes it *non-time-critical*.
    pub fn typical_slack(self) -> SimDuration {
        match self {
            Archetype::PhotoPipeline => SimDuration::from_mins(30),
            Archetype::VideoTranscode => SimDuration::from_hours(4),
            Archetype::ReportRendering => SimDuration::from_hours(8),
            Archetype::MlInference => SimDuration::from_mins(15),
            Archetype::SciSweep => SimDuration::from_hours(24),
            Archetype::LogAnalytics => SimDuration::from_hours(1),
            Archetype::DocIndexing => SimDuration::from_hours(2),
        }
    }

    /// Systematic ratio of *actual* runtime demand to the developer's
    /// static annotation. Annotations are estimates made at development
    /// time; real deployments drift (new library versions, fatter
    /// inputs, colder caches). Profiling (contribution C1) exists to
    /// recover this factor.
    pub fn demand_drift(self) -> f64 {
        match self {
            Archetype::PhotoPipeline => 0.85,
            Archetype::VideoTranscode => 1.45,
            Archetype::ReportRendering => 1.30,
            Archetype::MlInference => 1.00,
            Archetype::SciSweep => 0.90,
            Archetype::LogAnalytics => 1.70,
            Archetype::DocIndexing => 1.20,
        }
    }

    /// Lognormal sigma of actual demand around the annotated model
    /// (execution-to-execution variability).
    pub fn demand_noise_sigma(self) -> f64 {
        match self {
            Archetype::PhotoPipeline => 0.15,
            Archetype::VideoTranscode => 0.25,
            Archetype::ReportRendering => 0.20,
            Archetype::MlInference => 0.05,
            Archetype::SciSweep => 0.10,
            Archetype::LogAnalytics => 0.30,
            Archetype::DocIndexing => 0.20,
        }
    }
}

impl fmt::Display for Archetype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

fn photo_pipeline() -> TaskGraph {
    let mut b = TaskGraphBuilder::new("photo-pipeline");
    let capture = b.add_component(
        Component::new("capture")
            .with_pinning(Pinning::Device)
            .with_demand(LinearModel::constant(5e7))
            .with_artifact_size(DataSize::from_mib(2)),
    );
    let enhance = b.add_component(
        Component::new("enhance")
            .with_demand(LinearModel::scaling(2e9, 800.0))
            .with_memory(DataSize::from_mib(512))
            .with_artifact_size(DataSize::from_mib(35)),
    );
    let thumbnail = b.add_component(
        Component::new("thumbnail")
            .with_demand(LinearModel::scaling(1e8, 60.0))
            .with_artifact_size(DataSize::from_mib(8)),
    );
    let publish = b.add_component(
        Component::new("publish")
            .with_demand(LinearModel::constant(2e7))
            .with_artifact_size(DataSize::from_mib(3)),
    );
    b.add_flow(capture, enhance, LinearModel::scaling(0.0, 1.0)); // full image
    b.add_flow(enhance, thumbnail, LinearModel::scaling(0.0, 1.1)); // enhanced image
    b.add_flow(enhance, publish, LinearModel::scaling(0.0, 1.1));
    b.add_flow(thumbnail, publish, LinearModel::scaling(20_000.0, 0.01));
    b.build().expect("archetype graph is valid")
}

fn video_transcode() -> TaskGraph {
    let mut b = TaskGraphBuilder::new("video-transcode");
    let ingest = b.add_component(
        Component::new("ingest")
            .with_pinning(Pinning::Device)
            .with_demand(LinearModel::scaling(1e8, 2.0)),
    );
    let demux = b.add_component(
        Component::new("demux")
            .with_demand(LinearModel::scaling(2e8, 15.0))
            .with_artifact_size(DataSize::from_mib(12)),
    );
    let transcode = b.add_component(
        Component::new("transcode")
            .with_demand(LinearModel::scaling(5e9, 400.0))
            .with_memory(DataSize::from_mib(2048))
            .with_artifact_size(DataSize::from_mib(60)),
    );
    let mux = b.add_component(Component::new("mux").with_demand(LinearModel::scaling(1e8, 10.0)));
    let store = b.add_component(Component::new("store").with_demand(LinearModel::constant(5e7)));
    b.add_flow(ingest, demux, LinearModel::scaling(0.0, 1.0));
    b.add_flow(demux, transcode, LinearModel::scaling(0.0, 0.98));
    b.add_flow(transcode, mux, LinearModel::scaling(0.0, 0.6)); // compressed
    b.add_flow(mux, store, LinearModel::scaling(0.0, 0.62));
    b.build().expect("archetype graph is valid")
}

fn report_rendering() -> TaskGraph {
    let mut b = TaskGraphBuilder::new("report-rendering");
    let trigger = b.add_component(
        Component::new("trigger")
            .with_pinning(Pinning::Device)
            .with_demand(LinearModel::constant(1e6)),
    );
    let aggregate = b.add_component(
        Component::new("aggregate")
            .with_demand(LinearModel::scaling(5e8, 120.0))
            .with_memory(DataSize::from_mib(1024))
            .with_artifact_size(DataSize::from_mib(25)),
    );
    let render = b.add_component(
        Component::new("render")
            .with_demand(LinearModel::scaling(3e9, 50.0))
            .with_memory(DataSize::from_mib(1536))
            .with_artifact_size(DataSize::from_mib(40)),
    );
    let distribute =
        b.add_component(Component::new("distribute").with_demand(LinearModel::constant(1e8)));
    b.add_flow(trigger, aggregate, LinearModel::constant(4_096.0));
    b.add_flow(aggregate, render, LinearModel::scaling(100_000.0, 0.3));
    b.add_flow(render, distribute, LinearModel::scaling(500_000.0, 0.05));
    b.build().expect("archetype graph is valid")
}

fn ml_inference() -> TaskGraph {
    let mut b = TaskGraphBuilder::new("ml-inference");
    let collect = b.add_component(
        Component::new("collect")
            .with_pinning(Pinning::Device)
            .with_demand(LinearModel::constant(2e7)),
    );
    let preprocess = b.add_component(
        Component::new("preprocess")
            .with_demand(LinearModel::scaling(5e7, 100.0))
            .with_artifact_size(DataSize::from_mib(15)),
    );
    let infer = b.add_component(
        Component::new("infer")
            .with_demand(LinearModel::constant(8e9)) // fixed model cost
            .with_memory(DataSize::from_mib(3072))
            .with_artifact_size(DataSize::from_mib(250)), // model weights
    );
    let postprocess =
        b.add_component(Component::new("postprocess").with_demand(LinearModel::constant(3e7)));
    b.add_flow(collect, preprocess, LinearModel::scaling(0.0, 1.0));
    b.add_flow(preprocess, infer, LinearModel::scaling(0.0, 0.5));
    b.add_flow(infer, postprocess, LinearModel::constant(10_000.0));
    b.build().expect("archetype graph is valid")
}

fn sci_sweep() -> TaskGraph {
    let mut b = TaskGraphBuilder::new("sci-sweep");
    let setup = b.add_component(
        Component::new("setup")
            .with_pinning(Pinning::Device)
            .with_demand(LinearModel::constant(5e7)),
    );
    let simulate = b.add_component(
        Component::new("simulate")
            .with_demand(LinearModel::constant(6e10)) // minutes of compute
            .with_batchable(false) // one independent simulation per job
            .with_memory(DataSize::from_mib(2048))
            .with_artifact_size(DataSize::from_mib(30)),
    );
    let analyse = b.add_component(
        Component::new("analyse").with_demand(LinearModel::constant(2e9)).with_batchable(false),
    );
    let archive =
        b.add_component(Component::new("archive").with_demand(LinearModel::constant(1e7)));
    b.add_flow(setup, simulate, LinearModel::constant(65_536.0));
    b.add_flow(simulate, analyse, LinearModel::constant(10_000_000.0));
    b.add_flow(analyse, archive, LinearModel::constant(1_000_000.0));
    b.build().expect("archetype graph is valid")
}

fn log_analytics() -> TaskGraph {
    let mut b = TaskGraphBuilder::new("log-analytics");
    let collect = b.add_component(
        Component::new("collect")
            .with_pinning(Pinning::Device)
            .with_demand(LinearModel::scaling(1e7, 1.0)),
    );
    let parse = b.add_component(
        Component::new("parse")
            .with_demand(LinearModel::scaling(1e8, 250.0))
            .with_artifact_size(DataSize::from_mib(10)),
    );
    let aggregate = b.add_component(
        Component::new("aggregate")
            .with_demand(LinearModel::scaling(2e8, 80.0))
            .with_memory(DataSize::from_mib(1024)),
    );
    let index =
        b.add_component(Component::new("index").with_demand(LinearModel::scaling(1e8, 40.0)));
    b.add_flow(collect, parse, LinearModel::scaling(0.0, 0.3)); // compressed upload
    b.add_flow(parse, aggregate, LinearModel::scaling(0.0, 0.4));
    b.add_flow(aggregate, index, LinearModel::scaling(0.0, 0.05));
    b.build().expect("archetype graph is valid")
}

fn doc_indexing() -> TaskGraph {
    let mut b = TaskGraphBuilder::new("doc-indexing");
    let scan = b.add_component(
        Component::new("scan")
            .with_pinning(Pinning::Device)
            .with_demand(LinearModel::scaling(1e6, 2.0)),
    );
    // Per-byte demand (~15 + 10 cyc/B) sits well below the WAN transfer
    // breakeven: shipping the corpus costs more than indexing it locally.
    let extract = b.add_component(
        Component::new("extract")
            .with_demand(LinearModel::scaling(5e6, 15.0))
            .with_artifact_size(DataSize::from_mib(6)),
    );
    let build = b.add_component(
        Component::new("build-index")
            .with_demand(LinearModel::scaling(5e6, 10.0))
            .with_memory(DataSize::from_mib(256)),
    );
    let publish =
        b.add_component(Component::new("publish-index").with_demand(LinearModel::constant(5e6)));
    b.add_flow(scan, extract, LinearModel::scaling(0.0, 1.0)); // the corpus
    b.add_flow(extract, build, LinearModel::scaling(0.0, 0.9));
    b.add_flow(build, publish, LinearModel::scaling(10_000.0, 0.01)); // the index
    b.build().expect("archetype graph is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_positions_in_all() {
        for (i, a) in Archetype::all().into_iter().enumerate() {
            assert_eq!(a.index(), i, "{a}");
        }
    }

    #[test]
    fn all_archetypes_build_valid_graphs() {
        for a in Archetype::all() {
            let g = a.graph();
            assert!(g.len() >= 4, "{a} too small");
            assert_eq!(g.name(), a.name());
            assert!(!g.entries().is_empty());
            assert!(!g.exits().is_empty());
            // Exactly one device-pinned entry component.
            let pinned: Vec<_> =
                g.components().filter(|(_, c)| !c.is_offloadable()).map(|(id, _)| id).collect();
            assert_eq!(pinned.len(), 1, "{a} should pin exactly the entry");
            assert!(g.entries().contains(&pinned[0]));
        }
    }

    #[test]
    fn input_distributions_are_positive_and_ordered() {
        let mut rng = RngStream::root(1).derive("inputs");
        let mean = |a: Archetype, rng: &mut RngStream| {
            (0..200).map(|_| a.sample_input(rng).as_bytes()).sum::<u64>() / 200
        };
        let photo = mean(Archetype::PhotoPipeline, &mut rng);
        let video = mean(Archetype::VideoTranscode, &mut rng);
        let ml = mean(Archetype::MlInference, &mut rng);
        assert!(video > photo, "video inputs dwarf photos");
        assert!(photo > ml, "photos dwarf inference payloads");
        assert!(ml > 0);
    }

    #[test]
    fn slacks_mark_non_time_critical_workloads() {
        for a in Archetype::all() {
            assert!(a.typical_slack() >= SimDuration::from_mins(15), "{a} has real slack");
        }
        assert!(Archetype::SciSweep.typical_slack() > Archetype::MlInference.typical_slack());
    }

    #[test]
    fn demand_variability_is_bounded() {
        for a in Archetype::all() {
            let s = a.demand_noise_sigma();
            assert!((0.0..=0.5).contains(&s));
        }
    }

    #[test]
    fn ml_inference_demand_is_input_insensitive() {
        let g = Archetype::MlInference.graph();
        let small = g.total_work(DataSize::from_kib(10));
        let large = g.total_work(DataSize::from_mib(10));
        let ratio = large.get() as f64 / small.get() as f64;
        assert!(ratio < 1.3, "inference demand should barely scale: {ratio}");
    }

    #[test]
    fn video_demand_is_strongly_input_scaled() {
        let g = Archetype::VideoTranscode.graph();
        let small = g.total_work(DataSize::from_mib(10));
        let large = g.total_work(DataSize::from_mib(100));
        assert!(large.get() > small.get() * 5);
    }
}
