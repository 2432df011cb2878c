//! Deployment construction: applying a policy to an application yields a
//! [`Deployment`] — the partition plan, per-component memory sizes,
//! dispatch policy and warming strategy the execution engine runs with.
//!
//! This is the framework's "release" step: under the NTC policy it chains
//! contribution C1 (profile), C3 (partition), C2 (allocate) and C5
//! (batching), exactly as the CI/CD pipeline stages do.

use ntc_alloc::{recommend, select_memory, standard_sizes, DispatchPolicy, WarmStrategy};
use ntc_partition::{
    CostParams, FullOffload, KeepLocal, MinCutPartitioner, PartitionContext, PartitionPlan,
    Partitioner, Side,
};
use ntc_profiler::{AppProfiler, EstimatorKind};
use ntc_simcore::rng::RngStream;
use ntc_simcore::units::{round_to_u64, ClockSpeed, Cycles, DataSize, SimDuration};
use ntc_taskgraph::{ComponentId, TaskGraph};
use ntc_workloads::Archetype;

use crate::environment::Environment;
use crate::policy::OffloadPolicy;
use crate::site::Site;

/// The memory size granting one full vCPU — the baseline policies'
/// deployment size.
pub const DEFAULT_MEMORY: DataSize = DataSize::from_bytes(1769 * 1024 * 1024);

/// The platform's out-of-the-box memory size (Lambda defaults to
/// 128 MiB) — what a team gets when nobody tunes the allocation
/// (the `use_allocator: false` ablation).
pub const UNTUNED_MEMORY: DataSize = DataSize::from_mib(128);

/// The profiler's estimator family under the NTC policy.
const PROFILE_ESTIMATOR: EstimatorKind = EstimatorKind::Hybrid;

/// Profiling invocations per archetype at deployment time.
const PROFILE_SAMPLES: u32 = 40;

/// A deployed application: everything the engine needs to execute jobs of
/// one archetype under one policy.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The application.
    pub archetype: Archetype,
    /// Its task graph.
    pub graph: TaskGraph,
    /// Component → side assignment (Cloud side = the chain's primary).
    pub plan: PartitionPlan,
    /// Per-component function memory size (meaningful for offloaded
    /// components on the cloud backend).
    pub memory: Vec<DataSize>,
    /// When to release arriving jobs.
    pub dispatch: DispatchPolicy,
    /// Cold-start mitigation for offloaded functions.
    pub warm: WarmStrategy,
    /// Estimated end-to-end completion time of one job (for safe holding).
    pub est_completion: SimDuration,
    /// The per-component demand estimates the decisions were based on.
    pub demands: Vec<Cycles>,
    /// Largest number of jobs one coalesced invocation may carry before
    /// the window is split into chunks (keeps batch executions far from
    /// the function timeout even under demand-noise and input tails).
    pub max_batch_members: u32,
    /// Largest total input one coalesced invocation may carry; windows
    /// accumulating more input are split into chunks. Derived from the
    /// slowest offloaded component's demand model, its memory size, and a
    /// 2x demand-noise margin against the function timeout.
    pub max_batch_bytes: DataSize,
    /// Estimated completion of one job run entirely on the device.
    pub est_local: SimDuration,
    /// Whether batches that provably cannot make their deadline offloaded
    /// (e.g. behind a connectivity outage longer than the remaining
    /// slack) but can locally should execute on the device instead: true
    /// under every NTC policy.
    pub fallback_local: bool,
    /// Failure-driven site-preference chain, primary first: where the
    /// engine provisions this deployment and, on unrecoverable errors,
    /// the order it degrades along. Built by [`Site::fallback_chain`]:
    /// the remote sites lead, the primary first, and the device, when
    /// fallback reaches it, comes last.
    pub site_chain: Vec<Site>,
}

impl Deployment {
    /// Whether `id` runs away from the device.
    pub fn is_offloaded(&self, id: ComponentId) -> bool {
        self.plan.side(id) == Side::Cloud
    }

    /// The remote head of [`site_chain`](Self::site_chain): every site
    /// before the device, the primary first. Never empty, since a chain
    /// starts at its remote primary; a chain position past it is the
    /// device's.
    #[inline]
    pub fn remote_sites(&self) -> &[Site] {
        let n = self.site_chain.iter().take_while(|s| s.is_remote()).count();
        &self.site_chain[..n]
    }

    /// Deterministic end-to-end latency estimate of one job with the
    /// given input under this deployment: [`estimated_latency`] on its
    /// primary site.
    pub fn estimated_latency(&self, env: &Environment, input: DataSize) -> SimDuration {
        estimated_latency(env, self.site_chain[0], &self.graph, &self.plan, &self.memory, input)
    }
}

/// Deterministic end-to-end latency estimate of one job with the given
/// input when `plan` runs `graph`'s offloaded components on `site` at
/// `memory` (annotation demands, base network latencies, no queueing or
/// cold starts).
pub fn estimated_latency(
    env: &Environment,
    site: Site,
    graph: &TaskGraph,
    plan: &PartitionPlan,
    memory: &[DataSize],
    input: DataSize,
) -> SimDuration {
    let demands: Vec<Cycles> =
        graph.ids().map(|id| graph.component(id).demand_cycles(input)).collect();
    // Nominal (uncongested) conditions: this is a descriptive figure,
    // not the conservative planning estimate used to hold jobs.
    estimate_completion(env, site, graph, plan, memory, &demands, input, Some(1.0))
}

fn cost_params(env: &Environment, site: Site) -> CostParams {
    let path = site.ue_path(env);
    let (money_per_sec, per_request) = site.marginal_cost(env, DEFAULT_MEMORY);
    CostParams {
        device_speed: env.device.clock,
        cloud_speed: site.execution_speed(env, DEFAULT_MEMORY),
        link_latency: path.base_latency(),
        link_bandwidth: path.bottleneck_bandwidth(),
        device_active_power: env.device.active_power,
        device_tx_power: env.device.tx_power,
        cloud_money_per_sec: money_per_sec,
        money_per_request: per_request,
    }
}

/// Representative inputs: the mean and the empirical tail (sample
/// maximum) of a deterministic sample of the archetype's input
/// distribution.
fn reference_inputs(archetype: Archetype, rng: &RngStream) -> (DataSize, DataSize) {
    let mut r = rng.derive("reference-input");
    let n = 64u64;
    let samples: Vec<u64> = (0..n).map(|_| archetype.sample_input(&mut r).as_bytes()).collect();
    let mean = samples.iter().sum::<u64>() / n;
    let tail = *samples.iter().max().expect("non-empty sample");
    (DataSize::from_bytes(mean), DataSize::from_bytes(tail))
}

/// Synthetic profiling run: observe [`PROFILE_SAMPLES`] executions of every
/// component with the archetype's runtime noise, exactly as the engine
/// will generate them.
fn train_profiler(graph: &TaskGraph, archetype: Archetype, rng: &RngStream) -> AppProfiler {
    let mut profiler = AppProfiler::new(graph, PROFILE_ESTIMATOR).with_min_observations(3);
    let mut r = rng.derive("profiling");
    let sigma = archetype.demand_noise_sigma();
    let drift = archetype.demand_drift();
    for _ in 0..PROFILE_SAMPLES {
        let input = archetype.sample_input(&mut r);
        for (id, c) in graph.components() {
            let actual = c.demand_cycles(input).get() as f64 * drift * r.lognormal(0.0, sigma);
            profiler.observe(id, input, Cycles::new(round_to_u64(actual)));
        }
    }
    profiler
}

/// Whether `work` runs within `budget` at `speed`, the limit included:
/// the planner's one test of a memory size or a chunk against a time
/// limit.
fn runs_within(speed: ClockSpeed, work: Cycles, budget: SimDuration) -> bool {
    speed.execution_time(work) <= budget
}

/// Estimates the sequential completion time of one job under a plan:
/// device execution + remote execution at the chosen memory + boundary
/// transfers + the result return. Transfers run at `share_override` of
/// nominal bandwidth, or at the site's planning share when `None`.
#[allow(clippy::too_many_arguments)]
fn estimate_completion(
    env: &Environment,
    site: Site,
    graph: &TaskGraph,
    plan: &PartitionPlan,
    memory: &[DataSize],
    demands: &[Cycles],
    input: DataSize,
    share_override: Option<f64>,
) -> SimDuration {
    let mut total = SimDuration::ZERO;
    for id in graph.ids() {
        let work = demands[id.index()];
        total += match plan.side(id) {
            Side::Device => env.device.execution_time(work),
            Side::Cloud => site.execution_speed(env, memory[id.index()]).execution_time(work),
        };
    }
    let path = site.ue_path(env);
    let worst_share = share_override.unwrap_or_else(|| site.planning_share(env));
    let bw = path.bottleneck_bandwidth().mul_f64(worst_share);
    for flow in plan.cut_flows(graph) {
        let bytes = flow.payload_bytes(input);
        total += path.base_latency() + bw.transfer_time(bytes);
    }
    total += path.base_latency() + bw.transfer_time(env.result_return);
    total
}

/// Builds the deployment of `archetype` under `policy` in `env`, for
/// traffic at `rate_per_sec` whose jobs carry roughly `expected_slack` of
/// deadline slack.
///
/// Deterministic given the same `rng` stream.
pub fn deploy(
    policy: &OffloadPolicy,
    archetype: Archetype,
    env: &Environment,
    rate_per_sec: f64,
    expected_slack: SimDuration,
    rng: &RngStream,
) -> Deployment {
    let graph = archetype.graph();
    let rng = rng.derive(("deploy-", archetype.name()));
    // Whether the primary is serverless (metered, warmable,
    // timeout-bound) gates the sizing, warming and batch caps below.
    let site = Site::from(policy.backend());
    let (input, tail_input) = reference_inputs(archetype, &rng);

    // --- C1: demands. ---
    let demands: Vec<Cycles> = match policy {
        OffloadPolicy::Ntc(cfg) if cfg.use_profiler => {
            let profiler = train_profiler(&graph, archetype, &rng);
            graph.ids().map(|id| profiler.predict(id, input)).collect()
        }
        _ => graph.ids().map(|id| graph.component(id).demand_cycles(input)).collect(),
    };

    // --- C3: the plan. ---
    let plan = match policy {
        OffloadPolicy::LocalOnly => {
            KeepLocal.partition(&PartitionContext::new(&graph, input, cost_params(env, site)))
        }
        OffloadPolicy::EdgeAll | OffloadPolicy::CloudAll => {
            FullOffload.partition(&PartitionContext::new(&graph, input, cost_params(env, site)))
        }
        OffloadPolicy::Ntc(cfg) => {
            let ctx = PartitionContext::new(&graph, input, cost_params(env, site))
                .with_demands(demands.clone());
            if cfg.use_partitioner {
                MinCutPartitioner.partition(&ctx)
            } else {
                FullOffload.partition(&ctx)
            }
        }
    };

    // --- C5: dispatch + warming (decided first: batching determines how
    // much work one invocation will carry). ---
    let slack = expected_slack;
    let (dispatch, warm) = match policy {
        OffloadPolicy::Ntc(cfg) => {
            let dispatch = if cfg.use_batching && !slack.is_zero() && plan.offloaded().count() > 0 {
                let window = slack.mul_f64(0.1);
                if cfg.off_peak {
                    DispatchPolicy::OffPeak { window }
                } else {
                    DispatchPolicy::Windowed { window }
                }
            } else {
                DispatchPolicy::Immediate
            };
            // About a year at most, which a zero rate's infinite gap meets.
            let interarrival = SimDuration::from_secs_f64((1.0 / rate_per_sec).min(3.15e7));
            let warm = if site.is_serverless() {
                recommend(interarrival, env.platform.keep_alive.idle_ttl())
            } else {
                WarmStrategy::PlatformOnly
            };
            (dispatch, warm)
        }
        _ => (DispatchPolicy::Immediate, WarmStrategy::PlatformOnly),
    };

    // Expected coalesced batch size (with 2x burst headroom) — one
    // invocation carries this many jobs' worth of input.
    // Dimensioned per *chunk*: an off-peak release drains a large pile,
    // but the engine splits it into byte-capped chunks that execute on
    // separate instances, so each invocation still carries roughly one
    // window's worth of traffic.
    let window = match dispatch {
        DispatchPolicy::Windowed { window } | DispatchPolicy::OffPeak { window } => Some(window),
        DispatchPolicy::Immediate => None,
    };
    let expected_members =
        window.map_or(1, |w| (rate_per_sec * w.as_secs_f64() * 2.0).ceil().max(1.0) as u64);
    let batch_input = input * expected_members;

    // What the profiler learned about each component, relative to its
    // annotation (drift recovery).
    let learned_ratio: Vec<f64> = graph
        .ids()
        .map(|id| {
            let ann_single = graph.component(id).demand_cycles(input).get().max(1);
            demands[id.index()].get() as f64 / ann_single as f64
        })
        .collect();

    // --- C2: memory sizes, dimensioned for the expected batch: the
    // cheapest size that runs it within the component's share of half
    // the slack, or the fastest one for zero-slack jobs (no size meets a
    // zero budget). ---
    let budget = slack.mul_f64(0.5 / plan.offloaded().count().max(1) as f64);
    let memory: Vec<DataSize> = match policy {
        // C2 disabled: the platform's untuned default size.
        OffloadPolicy::Ntc(cfg) if !cfg.use_allocator && site.is_serverless() => {
            graph.ids().map(|id| UNTUNED_MEMORY.max(graph.component(id).memory())).collect()
        }
        OffloadPolicy::Ntc(cfg) if cfg.use_allocator && site.is_serverless() => graph
            .ids()
            .map(|id| {
                if plan.side(id) == Side::Cloud {
                    // Scale the profiled single-job demand to batch size
                    // using the annotation's input dependence.
                    let ann_single = graph.component(id).demand_cycles(input).get().max(1);
                    let ann_batch = graph
                        .component(id)
                        .batch_demand_cycles(expected_members, batch_input)
                        .get();
                    // At least 1: a batch carries at least one job.
                    let factor = ann_batch as f64 / ann_single as f64;
                    let work = demands[id.index()].mul_f64(factor);
                    // Timeout safety must also survive a lone tail-input
                    // job with worst-case demand noise (~2x).
                    let tail_work = graph
                        .component(id)
                        .demand_cycles(tail_input)
                        .mul_f64(2.0 * learned_ratio[id.index()]);
                    let guard_work = work.max(tail_work);
                    let cheapest = select_memory(
                        work,
                        budget,
                        &env.platform.cpu,
                        &env.platform.billing,
                        &standard_sizes(),
                    )
                    .expect("standard ladder is non-empty");
                    // Respect the component's own footprint floor, and never
                    // pick a size whose batch execution could hit the
                    // function timeout.
                    let mut pick = cheapest.memory.max(graph.component(id).memory());
                    let timeout_guard = |m: DataSize| {
                        runs_within(
                            site.execution_speed(env, m),
                            guard_work,
                            SimDuration::from_mins(10),
                        )
                    };
                    if !timeout_guard(pick) {
                        // Speed does not fall with memory, so only a
                        // larger size can pass where `pick` fails.
                        let bumped = standard_sizes()
                            .into_iter()
                            .find(|&candidate| timeout_guard(candidate));
                        // No ladder size is safe: take the largest.
                        pick = bumped.unwrap_or(DataSize::from_mib(10240)).max(pick);
                    }
                    pick
                } else {
                    DEFAULT_MEMORY
                }
            })
            .collect(),
        _ => graph.ids().map(|id| DEFAULT_MEMORY.max(graph.component(id).memory())).collect(),
    };

    // Completion estimate used to hold jobs safely: when batching, a
    // window's worth of jobs coalesce into one invocation, so the estimate
    // covers the *expected batch* (conservatively, annotation demands at
    // the batch-sized input).
    let mut est_completion = if let Some(window) = window {
        let expected = (rate_per_sec * window.as_secs_f64()).ceil().max(1.0) as u64;
        let est_batch_input = input * expected;
        let batch_demands: Vec<Cycles> = graph
            .ids()
            .map(|id| {
                graph
                    .component(id)
                    .batch_demand_cycles(expected, est_batch_input)
                    .mul_f64(learned_ratio[id.index()])
            })
            .collect();
        estimate_completion(
            env,
            site,
            &graph,
            &plan,
            &memory,
            &batch_demands,
            est_batch_input,
            None,
        )
    } else {
        estimate_completion(env, site, &graph, &plan, &memory, &demands, input, None)
    };
    if matches!(dispatch, DispatchPolicy::OffPeak { .. }) {
        // A nightly release may hand this job a *full* byte-capped chunk:
        // by construction such a chunk runs up to 150 s at estimated
        // demand, 5 min with the 2x noise margin. The reserve covers two
        // such noise-inflated chunks.
        est_completion += SimDuration::from_mins(10);
    }

    // Device-only completion estimate, for the connectivity-outage local
    // fallback: no transfers, just serial device execution.
    let local_plan = PartitionPlan::all_device(&graph);
    let est_local =
        estimate_completion(env, site, &graph, &local_plan, &memory, &demands, input, None);
    let fallback_local = matches!(policy, OffloadPolicy::Ntc(_));

    // Cap coalesced batch size: a chunk's estimated execution at its
    // component's memory, inflated by demand noise, must stay within a
    // third of the 15-minute function timeout, leaving room for input
    // tails.
    let (max_batch_members, max_batch_bytes) = if window.is_some() && site.is_serverless() {
        // A chunk must finish within 150 s at estimated demand: 300 s
        // over the 2x noise margin, so 5 minutes with noise, a third of
        // the 15-minute timeout.
        let budget_secs = 300.0;
        let noise_margin = 2.0;
        let budget = SimDuration::from_secs_f64(budget_secs / noise_margin);
        let mut byte_cap = u64::MAX;
        let mut member_cap = 64u64;
        for id in plan.offloaded() {
            let speed = site.execution_speed(env, memory[id.index()]);
            let model = graph.component(id).demand();
            // Input-proportional demand bounds the chunk's total bytes.
            if model.per_input_byte > 0.0 {
                let cycles_budget = speed.as_hz() as f64 * budget_secs / noise_margin - model.fixed;
                // `as` saturates: a negative budget caps at 0 bytes.
                let cap = (cycles_budget / model.per_input_byte) as u64;
                byte_cap = byte_cap.min(cap);
            }
            // Non-batchable fixed demand bounds the member count directly.
            let mut k = 1u64;
            while k < 64 {
                let w = graph.component(id).batch_demand_cycles(k + 1, input * (k + 1));
                if !runs_within(speed, w, budget) {
                    break;
                }
                k += 1;
            }
            member_cap = member_cap.min(k);
        }
        (member_cap as u32, DataSize::from_bytes(byte_cap))
    } else {
        (u32::MAX, DataSize::from_bytes(u64::MAX))
    };

    let site_chain = Site::fallback_chain(policy.backend(), policy.fallback_enabled());

    Deployment {
        archetype,
        graph,
        plan,
        memory,
        dispatch,
        warm,
        est_completion,
        demands,
        max_batch_members,
        max_batch_bytes,
        est_local,
        fallback_local,
        site_chain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Backend, NtcConfig};

    fn env() -> Environment {
        Environment::metro_reference()
    }

    fn rng() -> RngStream {
        RngStream::root(42)
    }

    #[test]
    fn local_only_offloads_nothing() {
        let d = deploy(
            &OffloadPolicy::LocalOnly,
            Archetype::PhotoPipeline,
            &env(),
            0.1,
            Archetype::PhotoPipeline.typical_slack(),
            &rng(),
        );
        assert_eq!(d.plan.offloaded().count(), 0);
        assert_eq!(d.dispatch, DispatchPolicy::Immediate);
    }

    #[test]
    fn cloud_all_offloads_everything_offloadable() {
        let d = deploy(
            &OffloadPolicy::CloudAll,
            Archetype::PhotoPipeline,
            &env(),
            0.1,
            Archetype::PhotoPipeline.typical_slack(),
            &rng(),
        );
        assert_eq!(d.plan.offloaded().count(), d.graph.len() - 1); // entry pinned
        assert_eq!(d.site_chain[0], Site::Cloud);
    }

    #[test]
    fn edge_all_targets_edge() {
        let d = deploy(
            &OffloadPolicy::EdgeAll,
            Archetype::MlInference,
            &env(),
            0.1,
            Archetype::MlInference.typical_slack(),
            &rng(),
        );
        assert_eq!(d.site_chain[0], Site::Edge);
        assert!(d.plan.offloaded().count() > 0);
    }

    #[test]
    fn ntc_batches_and_offloads_heavy_components() {
        let d = deploy(
            &OffloadPolicy::ntc(),
            Archetype::SciSweep,
            &env(),
            0.01,
            Archetype::SciSweep.typical_slack(),
            &rng(),
        );
        assert!(d.plan.offloaded().count() >= 1, "the 60 Gcyc simulate step must offload");
        assert!(matches!(d.dispatch, DispatchPolicy::Windowed { .. }));
        assert!(d.est_completion > SimDuration::ZERO);
        // Components kept on the device are not sized by the allocator.
        for id in d.graph.ids().filter(|&id| d.plan.side(id) == Side::Device) {
            assert_eq!(d.memory[id.index()], DEFAULT_MEMORY);
        }
        // Zero-slack jobs are never held, so never windowed.
        let a = Archetype::SciSweep;
        let d = deploy(&OffloadPolicy::ntc(), a, &env(), 0.01, SimDuration::ZERO, &rng());
        assert_eq!(d.dispatch, DispatchPolicy::Immediate);
        // A stream at rate 0 (`ntc plan --rate 0`) is windowed, and its
        // batches are sized and estimated as one job.
        let d = deploy(&OffloadPolicy::ntc(), a, &env(), 0.0, a.typical_slack(), &rng());
        assert!(matches!(d.dispatch, DispatchPolicy::Windowed { .. }));
        assert!(d.est_completion > SimDuration::ZERO);
    }

    #[test]
    fn ablation_flags_change_the_deployment() {
        let base = deploy(
            &OffloadPolicy::ntc(),
            Archetype::ReportRendering,
            &env(),
            0.05,
            Archetype::ReportRendering.typical_slack(),
            &rng(),
        );
        let no_batch = deploy(
            &OffloadPolicy::Ntc(NtcConfig { use_batching: false, ..Default::default() }),
            Archetype::ReportRendering,
            &env(),
            0.05,
            Archetype::ReportRendering.typical_slack(),
            &rng(),
        );
        assert!(matches!(base.dispatch, DispatchPolicy::Windowed { .. }));
        assert_eq!(no_batch.dispatch, DispatchPolicy::Immediate);

        let no_alloc = deploy(
            &OffloadPolicy::Ntc(NtcConfig { use_allocator: false, ..Default::default() }),
            Archetype::ReportRendering,
            &env(),
            0.05,
            Archetype::ReportRendering.typical_slack(),
            &rng(),
        );
        for id in no_alloc.graph.ids() {
            let floor = no_alloc.graph.component(id).memory();
            assert_eq!(no_alloc.memory[id.index()], UNTUNED_MEMORY.max(floor));
        }
        // The untuned size is the serverless platform's: an edge service
        // keeps the default size either way.
        let edge_no_alloc = deploy(
            &OffloadPolicy::Ntc(NtcConfig {
                use_allocator: false,
                primary_backend: Backend::Edge,
                ..Default::default()
            }),
            Archetype::ReportRendering,
            &env(),
            0.05,
            Archetype::ReportRendering.typical_slack(),
            &rng(),
        );
        for id in edge_no_alloc.graph.ids() {
            let floor = edge_no_alloc.graph.component(id).memory();
            assert_eq!(edge_no_alloc.memory[id.index()], DEFAULT_MEMORY.max(floor));
        }
    }

    #[test]
    fn site_chains_start_at_the_backend_and_fall_back_only_when_enabled() {
        let chain = |policy: &OffloadPolicy| {
            let a = Archetype::PhotoPipeline;
            deploy(policy, a, &env(), 0.1, a.typical_slack(), &rng()).site_chain
        };
        assert_eq!(chain(&OffloadPolicy::CloudAll), [Site::Cloud]);
        assert_eq!(chain(&OffloadPolicy::EdgeAll), [Site::Edge]);
        assert_eq!(chain(&OffloadPolicy::ntc()), [Site::Cloud, Site::Device]);
        let edge_first =
            OffloadPolicy::Ntc(NtcConfig { primary_backend: Backend::Edge, ..Default::default() });
        assert_eq!(chain(&edge_first), [Site::Edge, Site::Cloud, Site::Device]);
    }

    /// An NTC deployment of report rendering at `rate_per_sec` whose
    /// primary is `backend`.
    fn ntc_on(backend: Backend, rate_per_sec: f64) -> Deployment {
        let policy =
            OffloadPolicy::Ntc(NtcConfig { primary_backend: backend, ..Default::default() });
        let a = Archetype::ReportRendering;
        deploy(&policy, a, &env(), rate_per_sec, a.typical_slack(), &rng())
    }

    /// One job an hour: sparser than the keep-alive TTL, dense enough
    /// that a warmer ping pays.
    const SPARSE: f64 = 1.0 / 3600.0;

    #[test]
    fn non_serverless_primaries_are_never_kept_warm() {
        let a = Archetype::ReportRendering;
        let edge_all =
            deploy(&OffloadPolicy::EdgeAll, a, &env(), SPARSE, a.typical_slack(), &rng());
        assert_eq!(edge_all.warm, WarmStrategy::PlatformOnly);
        assert_eq!(ntc_on(Backend::Edge, SPARSE).warm, WarmStrategy::PlatformOnly);
    }

    #[test]
    fn serverless_primaries_defer_to_recommend() {
        let cloud = ntc_on(Backend::Cloud, SPARSE);
        let ttl = env().platform.keep_alive.idle_ttl();
        assert_eq!(cloud.warm, recommend(SimDuration::from_hours(1), ttl));
        assert!(matches!(cloud.warm, WarmStrategy::Warmer { .. }), "{}", cloud.warm);
    }

    #[test]
    fn only_serverless_primaries_cap_their_batches() {
        let edge = ntc_on(Backend::Edge, 0.05);
        assert!(matches!(edge.dispatch, DispatchPolicy::Windowed { .. }));
        assert_eq!(edge.max_batch_members, u32::MAX);
        assert_eq!(edge.max_batch_bytes, DataSize::from_bytes(u64::MAX));

        let cloud = ntc_on(Backend::Cloud, 0.05);
        assert!(matches!(cloud.dispatch, DispatchPolicy::Windowed { .. }));
        assert!((1..=64).contains(&cloud.max_batch_members), "{}", cloud.max_batch_members);
    }

    /// A size or a chunk that takes exactly its time limit passes it.
    #[test]
    fn a_budget_is_met_at_its_limit() {
        let speed = ClockSpeed::from_ghz_tenths(10);
        let budget = SimDuration::from_secs(150);
        assert!(runs_within(speed, Cycles::from_giga(150), budget));
        assert!(!runs_within(speed, Cycles::from_giga(150) + Cycles::new(1), budget));
    }

    #[test]
    fn deployment_is_deterministic() {
        let a = deploy(
            &OffloadPolicy::ntc(),
            Archetype::LogAnalytics,
            &env(),
            0.1,
            Archetype::LogAnalytics.typical_slack(),
            &rng(),
        );
        let b = deploy(
            &OffloadPolicy::ntc(),
            Archetype::LogAnalytics,
            &env(),
            0.1,
            Archetype::LogAnalytics.typical_slack(),
            &rng(),
        );
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.memory, b.memory);
        assert_eq!(a.demands, b.demands);
    }

    #[test]
    fn profiler_estimates_are_near_annotations() {
        let a = Archetype::PhotoPipeline;
        let d = deploy(&OffloadPolicy::ntc(), a, &env(), 0.1, a.typical_slack(), &rng());
        // The reference input the estimates refer to, as `deploy` draws it.
        let (input, _) = reference_inputs(a, &rng().derive(("deploy-", a.name())));
        for (id, c) in d.graph.components() {
            let annotated = c.demand_cycles(input).get() as f64;
            let estimated = d.demands[id.index()].get() as f64;
            if annotated > 0.0 {
                let rel = (estimated - annotated).abs() / annotated;
                assert!(rel < 0.5, "{}: {rel}", c.name());
            }
        }
    }

    #[test]
    fn memory_respects_component_footprint() {
        let d = deploy(
            &OffloadPolicy::ntc(),
            Archetype::MlInference,
            &env(),
            0.1,
            Archetype::MlInference.typical_slack(),
            &rng(),
        );
        for (id, c) in d.graph.components() {
            if d.is_offloaded(id) {
                assert!(d.memory[id.index()] >= c.memory());
            }
        }
    }
}
