//! **Figure 1** — The offloading crossover: local vs edge vs cloud.
//!
//! Panel (a) sweeps the input size of the photo-pipeline archetype: its
//! per-byte compute demand (~800 cyc/B) exceeds the per-byte transfer
//! cost, so offloading wins at every size and the cloud tracks the edge
//! within a modest factor.
//!
//! Panel (b) isolates the crossover by sweeping the *compute intensity*
//! (cycles per input byte) of a synthetic pipeline at a fixed 4 MiB
//! input: below the crossover intensity, shipping the bytes costs more
//! than crunching them locally and the device wins; above it, offloading
//! wins, and the cloud/edge latency ratio decays toward 1 — the gap a
//! non-time-critical job does not care about.

use crate::{f3, Report, Table};
use ntc_core::deploy::{estimated_latency, DEFAULT_MEMORY};
use ntc_core::{deploy, run_sweep, Environment, OffloadPolicy, Site};
use ntc_json::ToJson;
use ntc_simcore::rng::RngStream;
use ntc_simcore::units::DataSize;
use ntc_workloads::Archetype;

#[derive(Debug, ToJson)]
struct SizePoint {
    input_mib: f64,
    local_s: f64,
    edge_s: f64,
    cloud_s: f64,
    cloud_over_edge: f64,
}

#[derive(Debug, ToJson)]
struct IntensityPoint {
    cycles_per_byte: f64,
    local_s: f64,
    edge_s: f64,
    cloud_s: f64,
    winner: String,
    cloud_over_edge: f64,
}

/// A three-stage pipeline whose compute demand is `intensity` cycles per
/// input byte, split across two offloadable stages.
fn synthetic_graph(intensity: f64) -> ntc_taskgraph::TaskGraph {
    use ntc_taskgraph::{Component, LinearModel, Pinning, TaskGraphBuilder};
    let mut b = TaskGraphBuilder::new("synthetic");
    let src = b.add_component(
        Component::new("source")
            .with_pinning(Pinning::Device)
            .with_demand(LinearModel::constant(1e7)),
    );
    let work = b.add_component(
        Component::new("work").with_demand(LinearModel::scaling(1e7, intensity * 0.8)),
    );
    let post = b.add_component(
        Component::new("post").with_demand(LinearModel::scaling(1e7, intensity * 0.2)),
    );
    b.add_flow(src, work, LinearModel::scaling(0.0, 1.0));
    b.add_flow(work, post, LinearModel::scaling(0.0, 0.5));
    b.build().expect("synthetic graph is valid")
}

/// Runs the experiment at `seed` on `threads` sweep workers.
pub fn run(seed: u64, threads: usize) -> Report {
    let env = Environment::metro_reference();
    let rng = RngStream::root(seed);
    let rate = 0.05;

    // --- Panel (a): input-size sweep, photo-pipeline. ---
    let slack = Archetype::PhotoPipeline.typical_slack();
    let [local, edge, cloud] =
        [OffloadPolicy::LocalOnly, OffloadPolicy::EdgeAll, OffloadPolicy::CloudAll]
            .map(|policy| deploy(&policy, Archetype::PhotoPipeline, &env, rate, slack, &rng));

    let inputs_kib: [u64; 10] = [102, 512, 1024, 2048, 4096, 8192, 16384, 65536, 131072, 262144];
    let size_series: Vec<SizePoint> = run_sweep(&inputs_kib, threads, |&kib, _| {
        let input = DataSize::from_kib(kib);
        let l = local.estimated_latency(&env, input).as_secs_f64();
        let e = edge.estimated_latency(&env, input).as_secs_f64();
        let c = cloud.estimated_latency(&env, input).as_secs_f64();
        SizePoint {
            input_mib: input.as_mib_f64(),
            local_s: l,
            edge_s: e,
            cloud_s: c,
            cloud_over_edge: c / e,
        }
    });
    let mut ta = Table::new(["input", "local", "edge", "cloud", "cloud/edge"]);
    for (&kib, p) in inputs_kib.iter().zip(&size_series) {
        ta.row([
            format!("{}", DataSize::from_kib(kib)),
            format!("{}s", f3(p.local_s)),
            format!("{}s", f3(p.edge_s)),
            format!("{}s", f3(p.cloud_s)),
            f3(p.cloud_over_edge),
        ]);
    }

    let mut out =
        format!("Figure 1a — photo-pipeline completion time vs input size (seed {seed})\n\n");
    out.push_str(&ta.render());
    outln!(
        out,
        "\nshape (a): offloading wins at every size (compute-heavy archetype): {} | cloud within 1.5x of edge everywhere: {}\n",
        size_series.iter().all(|p| p.edge_s < p.local_s && p.cloud_s < p.local_s),
        size_series.iter().all(|p| p.cloud_over_edge < 1.5),
    );

    // --- Panel (b): compute-intensity sweep at fixed 4 MiB input. ---
    let input = DataSize::from_mib(4);
    let intensities = [5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 3000.0, 10_000.0];
    let intensity_series: Vec<IntensityPoint> = run_sweep(&intensities, threads, |&k, _| {
        let graph = synthetic_graph(k);
        // Deterministic per-plan latency from the deployments' estimator,
        // on plans built by hand for the synthetic graph.
        use ntc_partition::CostParams;
        use ntc_partition::{FullOffload, KeepLocal, PartitionContext, Partitioner};
        let ctx = PartitionContext::new(&graph, input, CostParams::default());
        let local_plan = KeepLocal.partition(&ctx);
        let remote_plan = FullOffload.partition(&ctx);
        let memory: Vec<DataSize> = graph.ids().map(|_| DEFAULT_MEMORY).collect();
        let lat = |plan: &ntc_partition::PartitionPlan, site: Site| {
            estimated_latency(&env, site, &graph, plan, &memory, input).as_secs_f64()
        };
        let l = lat(&local_plan, Site::Cloud);
        let e = lat(&remote_plan, Site::Edge);
        let c = lat(&remote_plan, Site::Cloud);
        let winner = if l <= e && l <= c {
            "local"
        } else if e <= c {
            "edge"
        } else {
            "cloud"
        };
        IntensityPoint {
            cycles_per_byte: k,
            local_s: l,
            edge_s: e,
            cloud_s: c,
            winner: winner.into(),
            cloud_over_edge: c / e,
        }
    });
    let mut tb = Table::new(["cyc/B", "local", "edge", "cloud", "winner", "cloud/edge"]);
    for p in &intensity_series {
        tb.row([
            format!("{}", p.cycles_per_byte),
            format!("{}s", f3(p.local_s)),
            format!("{}s", f3(p.edge_s)),
            format!("{}s", f3(p.cloud_s)),
            p.winner.clone(),
            f3(p.cloud_over_edge),
        ]);
    }

    outln!(
        out,
        "Figure 1b — completion time vs compute intensity at {input} input (seed {seed})\n"
    );
    out.push_str(&tb.render());
    outln!(out);
    let first = &intensity_series[0];
    let last = intensity_series.last().expect("non-empty");
    outln!(
        out,
        "shape (b): local wins at {} cyc/B: {} | remote wins at {} cyc/B: {} | cloud/edge ratio decays to {} at high intensity",
        first.cycles_per_byte,
        first.winner == "local",
        last.cycles_per_byte,
        last.winner != "local",
        f3(last.cloud_over_edge),
    );

    #[derive(ToJson)]
    struct Series {
        input_size_sweep: Vec<SizePoint>,
        intensity_sweep: Vec<IntensityPoint>,
    }
    Report::new(out, &Series { input_size_sweep: size_series, intensity_sweep: intensity_series })
}
