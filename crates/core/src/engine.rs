//! The end-to-end execution engine: replays a job stream over the
//! execution sites under a chosen policy, producing a [`RunResult`].
//!
//! The engine is a single discrete-event loop. Because events are
//! processed in global time order, the sequential backend simulators
//! (which require non-decreasing submission times) compose correctly with
//! arbitrarily interleaved jobs. Each deployment carries a
//! site-preference chain of [`Site`]s (e.g. edge → cloud → device) that
//! recovery walks on unrecoverable failures; the stateful remote
//! simulators sit behind the run's [`SiteRegistry`].
//!
//! # The run
//!
//! One run of the loop is one `Run` value: the run's [`SiteRegistry`],
//! its event calendar and its mutable state (batch state, accounting,
//! the noise memo, the health ledger, pending hedges), reading what no
//! handler mutates (environment, deployments, jobs, batches) through one
//! `&RunCtx`. Its methods are the handlers, one per event — `dispatch`,
//! `exec`, `done`, `ping` and `hedge_fire` — and the steps they share:
//! `recover` and its fallback walk, and `settle`. Each
//! lives in the submodule of its concern:
//!
//! * [`admission`](self) — job coalescing into batches, latest-safe
//!   dispatch, the pre-dispatch local override, `dispatch` and its
//!   overload-aware admission control (defer delay-tolerant batches,
//!   shed tight-deadline ones down the chain);
//! * `transfer` — `done`: congestion- and outage-aware flow and
//!   result-return timing plus faulty-transfer injection, releasing each
//!   successor when its inputs have landed and settling the batch when
//!   its exit's result has;
//! * `execute` — provisioning, `ping`, and `exec`'s per-site invocation
//!   through the registry with breaker-aware site selection, and
//!   `hedge_fire`'s deadline-budgeted hedged requests for stragglers;
//! * `recovery` — `recover`: retry backoff and fallback down the site
//!   chain (the breakers are asked where a site is invoked, in `exec`
//!   and `hedge_fire`, not by the walk);
//! * `accounting` — energy, cost, per-site health ledgers, `settle` and
//!   report assembly.
//!
//! Where work runs is decided once per question. A batch runs every
//! component on its members' devices under the local override or once
//! its chain position is the device (`RunCtx::on_device`); otherwise a
//! component runs where the plan puts it (`RunCtx::side`). Every chain
//! is [`Site::fallback_chain`](crate::site::Site::fallback_chain) of a
//! remote backend: remote sites first, the device, if present, last. So
//! [`Deployment::remote_sites`] is never empty, and it alone answers
//! where offloaded traffic routes, which sites host mirrors and where a
//! hedge may go. Every archetype pins its entry components to the
//! device, where the members' inputs are (`BatchStates::reset` refuses a
//! plan that does not): a dispatch makes its entries ready at once, and
//! an input leaves the device only as an entry's flow.
//!
//! The overload layer (see `DESIGN.md` §6) is entirely opt-in via
//! [`NtcConfig::health`](crate::policy::NtcConfig): with every mechanism
//! off the engine draws no extra randomness, schedules no extra events
//! and reproduces pre-layer runs bit for bit.
//!
//! # Batch coalescing
//!
//! Jobs of the same application released at the same batching-window
//! boundary are *coalesced*: their device-side components still run on
//! each user's own device (in parallel), but each offloaded component
//! executes **once** for the whole batch, on the concatenated input. This
//! is the economic heart of the non-time-critical argument: the linear
//! demand model `fixed + per_byte × input` means the fixed part (model
//! loading, template compilation, runtime warm-up) and the per-request
//! fee are paid once per batch instead of once per job.
//!
//! # Allocation discipline
//!
//! Every run-sized buffer lives in a [`RunScratch`]: the jobs and their
//! execution-noise memo (one slot per job and component, drawn on first
//! read, at most once per input), the batches, one flat `members` array
//! of job indices that every batch slices (with the `batch_of` buffer
//! that fills it), the coalescing key map, the keep-warm ping table,
//! per-batch state (with sparse maps for partly delivered joins and for
//! the components that failed an attempt), result slots and the event
//! calendar. A fresh run allocates them once; reusing the scratch across
//! runs (as [`run_retained`](Engine::run_retained) encourages and the
//! sweep runner does per worker thread) re-fills the same allocations, so
//! steady-state replication throughput is bounded by simulation work, not
//! the allocator.
//!
//! # Random draws
//!
//! Every draw the loop makes for a batch derives from the own stream of
//! its first member ([`Job::rng`]), keyed by what the draw is for: the
//! execution noise by component, an injected fault by component, site
//! and try, a backoff by component and attempt, and a transfer's timing
//! and drops by its kind, components and site. A job's stream depends on
//! its spec's archetype and rank among that archetype's specs and on its
//! index within the spec's jobs alone, and a counter-based child costs a
//! hash, so no draw depends on the order of any other: retries and
//! hedges re-read their batch's noise, and permuting the specs (one
//! archetype's among themselves aside) or adding one that makes no jobs
//! changes nothing. Deployments are made in archetype order for the same
//! reason: same-instant keep-warm pings of two deployments share the
//! platform's scale-out budget and its sequential cold-start stream, so
//! their order must not follow the specs'.
//! Only the breaker cooldowns draw from a run-level stream, keyed by site
//! and open count.
//!
//! On a large run nearly every batch is in flight at once, so the bytes
//! per batch, per component and per pending event bound run memory.
//! Indices into run-sized arrays are therefore stored as `u32`:
//! coalescing checks once that the job count (and with it the batch count
//! and every member offset) fits. Counts that a graph's shape or a
//! constant bounds are `u8`: a partly delivered join's inputs still due
//! (`BatchStates::reset` checks every in-degree), a batch's fallbacks
//! (fewer than its chain is long) and its deferrals (capped). One `u8`
//! bound, a graph of at most 256 components (`reset` checks it too),
//! serves both the events, which name a component by its `u8` index, and
//! the sparse maps' `(batch, component)` keys.
//!
//! No run state is kept per component but the noise memo's slot. What
//! only some components need lives in sparse maps: a join's arrivals
//! while it is partly delivered, and the tries (attempts, retries,
//! backoff) of a component from its first failed attempt on, so a
//! fault-free run leaves both empty. A component with one input holds no
//! arrival slot, and a batch no exit count, since every graph has one
//! exit. The site a component ran on travels in its `Done` event, which
//! routes its outputs and releases its queue slot. The calendar is sized
//! once for the up-front dispatches.

mod accounting;
mod admission;
mod execute;
mod hash;
mod noise;
mod recovery;
#[cfg(test)]
mod tests;
mod transfer;

use ntc_partition::Side;
use ntc_simcore::event::Simulator;
use ntc_simcore::rng::RngStream;
use ntc_simcore::units::{SimDuration, SimTime};
use ntc_taskgraph::ComponentId;
use ntc_workloads::{generate_jobs_into, Archetype, Job, StreamSpec};

use crate::deploy::{deploy, Deployment};
use crate::environment::Environment;
use crate::policy::OffloadPolicy;
use crate::report::RunResult;
use crate::site::{Site, SiteRegistry};

use accounting::{Accounting, HealthMap};
use admission::{Batch, BatchStates};
use hash::FastMap;
use noise::NoiseMemo;

/// What a run keeps per job.
///
/// `Full`, the default, retains one [`JobResult`](crate::report::JobResult)
/// per job in [`RunResult::jobs`], so every report metric is exact.
/// `Aggregates` retains none: outcomes stream into a
/// [`RunAggregates`](crate::report::RunAggregates) (Welford moments plus a
/// log-bucketed latency histogram), so run memory is O(1) in the job count
/// — the mode fig11's million-user runs use. Both modes count with the same
/// `RunAggregates`, and retention touches no RNG stream and schedules no
/// events, so counts, rates and totals agree exactly; only latency
/// percentiles carry the histogram's documented error bound.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum JobRetention {
    /// Keep every per-job outcome (exact metrics, O(jobs) memory).
    #[default]
    Full,
    /// Stream outcomes into constant-memory aggregates.
    Aggregates,
}

/// Events of the execution loop.
///
/// Batch indices are stored as `u32`, which
/// [`coalesce_into`](admission::coalesce_into)'s job-count check makes
/// lossless, and components as their `u8` index, which
/// [`check_u8_counts`](admission::check_u8_counts) makes lossless; the
/// constructors below are the one place a handler's batch index and
/// component narrow. A keep-warm ping carries an index into the run's
/// ping table instead of its deployment, component and period, so every
/// event fits in 8 bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// A batch is released to execution.
    Dispatch(u32),
    /// A component becomes ready to execute (all inputs arrived).
    Exec(u32, u8),
    /// A component finished executing on the given site, `Site::Device`
    /// for the members' own devices.
    Done(u32, u8, Site),
    /// A keep-warm ping: an index into [`RunCtx::pings`].
    Ping(u32),
    /// A slow invocation's hedge delay elapsed: launch (or cancel) its
    /// speculative duplicate on the next healthy chain site.
    HedgeFire(u32, u8),
}

const _: () = assert!(size_of::<Ev>() <= 8);
const _: () = assert!(ntc_simcore::event::EventQueue::<Ev>::BYTES_PER_EVENT <= 20);

impl Ev {
    pub(crate) fn dispatch(bi: usize) -> Ev {
        Ev::Dispatch(bi as u32)
    }

    pub(crate) fn exec(bi: usize, comp: ComponentId) -> Ev {
        Ev::Exec(bi as u32, comp.index() as u8)
    }

    pub(crate) fn done(bi: usize, comp: ComponentId, site: Site) -> Ev {
        Ev::Done(bi as u32, comp.index() as u8, site)
    }

    pub(crate) fn hedge_fire(bi: usize, comp: ComponentId) -> Ev {
        Ev::HedgeFire(bi as u32, comp.index() as u8)
    }
}

/// The component an event names by its `u8` index.
#[inline]
fn component(c: u8) -> ComponentId {
    ComponentId::from_index(c.into())
}

/// Each archetype's deployment index, indexed by
/// [`Archetype::index`]; `None` for archetypes absent from the run.
pub(crate) type DeploymentOf = [Option<usize>; Archetype::all().len()];

/// A keep-warm schedule: the deployment, its offloaded component and
/// the ping period.
pub(crate) type Ping = (usize, ComponentId, SimDuration);

/// A primary invocation whose completion is deferred pending a hedge
/// decision: when its [`Ev::HedgeFire`] fires, a duplicate may race it
/// and the earlier finisher wins.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HedgePending {
    /// When the primary invocation was submitted.
    pub start: SimTime,
    /// When the primary invocation will finish if it wins.
    pub primary_finish: SimTime,
    /// The chain position the primary ran at (the duplicate searches
    /// strictly past it).
    pub from_pos: usize,
}

/// Everything the event handlers read but never mutate.
pub(crate) struct RunCtx<'a> {
    env: &'a Environment,
    deployments: &'a [Deployment],
    jobs: &'a [Job],
    batches: &'a [Batch],
    /// Every batch's member job indices, concatenated; batch `bi` owns the
    /// slice from its `members_start` to the next batch's.
    members: &'a [u32],
    local_override: &'a [bool],
    pings: &'a [Ping],
    /// Whether retryable failures are retried ([`OffloadPolicy::retry_enabled`]).
    retry: bool,
    horizon_end: SimTime,
}

impl<'a> RunCtx<'a> {
    /// The job indices of batch `bi`, in ascending order.
    fn members(&self, bi: usize) -> &'a [u32] {
        admission::members_of(self.batches, self.members, bi)
    }

    /// The deployment batch `bi` runs under.
    fn deployment(&self, bi: usize) -> &'a Deployment {
        &self.deployments[self.batches[bi].di as usize]
    }

    /// The own stream of batch `bi`'s lowest-indexed member
    /// ([`Job::rng`]), from which every draw for the batch derives.
    fn batch_rng(&self, bi: usize) -> RngStream {
        RngStream::root(self.batches[bi].key)
    }

    /// The tightest member deadline of batch `bi`.
    fn min_deadline(&self, bi: usize) -> SimTime {
        admission::min_deadline(self.jobs, self.members(bi))
    }

    /// Whether batch `bi` at position `pos` of its site chain runs every
    /// component on its members' own devices: under the local override,
    /// or once its chain has reached the device.
    #[inline]
    fn on_device(&self, bi: usize, pos: usize) -> bool {
        self.local_override[bi] || !self.deployment(bi).site_chain[pos].is_remote()
    }

    /// Where component `comp` of batch `bi` runs at position `pos` of its
    /// site chain: on the device when the whole batch does
    /// ([`on_device`](Self::on_device)), and otherwise on the side the
    /// plan gives it, `Cloud` meaning the chain's site at `pos`.
    #[inline]
    fn side(&self, bi: usize, pos: usize, comp: ComponentId) -> Side {
        if self.on_device(bi, pos) {
            Side::Device
        } else {
            self.deployment(bi).plan.side(comp)
        }
    }
}

/// One run of the event loop: the run's remote sites, its calendar and
/// its mutable state, with [`RunCtx`] read through one reference. Its
/// methods are the handlers, one per [`Ev`] variant (see the module
/// docs' *The run*).
pub(crate) struct Run<'r> {
    ctx: &'r RunCtx<'r>,
    /// The stateful simulators behind the remote sites.
    sites: SiteRegistry,
    /// The event calendar.
    sim: &'r mut Simulator<Ev>,
    states: &'r mut BatchStates,
    acct: &'r mut Accounting,
    /// The input's execution noise, drawn on first read.
    noise: &'r mut NoiseMemo,
    /// The per-site health ledger: breakers, latency EWMAs, bounded
    /// queues. Empty (and never consulted) when the policy's health
    /// layer is disabled.
    health: &'r mut HealthMap,
    /// Cooldown-jitter stream for breaker trips; every draw derives its
    /// own child keyed by site and open-count.
    health_rng: RngStream,
    /// Invocations whose completion is deferred pending a hedge
    /// decision, keyed by [`unit_key`](admission::unit_key).
    hedges: &'r mut FastMap<u64, HedgePending>,
}

impl Run<'_> {
    /// Handles every event in time order until the calendar is empty.
    fn drain(&mut self) {
        while let Some((t, ev)) = self.sim.step() {
            match ev {
                Ev::Ping(pi) => self.ping(t, pi),
                Ev::Dispatch(bi) => self.dispatch(t, bi as usize),
                Ev::Exec(bi, c) => self.exec(t, bi as usize, component(c)),
                Ev::Done(bi, c, site) => self.done(t, bi as usize, component(c), site),
                Ev::HedgeFire(bi, c) => self.hedge_fire(t, bi as usize, component(c)),
            }
        }
    }
}

/// Reusable run buffers: all the run-sized allocations `Engine::run`
/// needs — the event calendar, the jobs and their execution-noise memo,
/// the batches with their flat member array, its per-job `batch_of` fill
/// buffer and the coalescing key map, the keep-warm ping table, batch
/// state and accounting slots. Create once, pass to
/// [`run_retained`](Engine::run_retained) repeatedly; each run clears and
/// refills the buffers in place. A fresh scratch behaves identically to a
/// reused one — reuse changes performance, never results.
///
/// The job stream is a function of `(seed, specs, horizon)` alone, so the
/// scratch records the input its `jobs` were generated from and a run on
/// the same input (another policy on the same seed, say) reuses them
/// instead of generating them again. Execution noise is a function of the
/// job and the component alone, so its memo belongs to the job stream
/// too: each slot is drawn at most once per input, by the first run that
/// reads it.
#[derive(Debug, Default)]
pub struct RunScratch {
    sim: Simulator<Ev>,
    jobs: Vec<Job>,
    /// The `(seed, specs, horizon)` that generated `jobs`; `None` before
    /// the first run and while a generation is under way.
    jobs_input: Option<(u64, Vec<StreamSpec>, SimDuration)>,
    /// The execution noise of `jobs`, valid exactly as long as they are.
    noise: NoiseMemo,
    deployments: Vec<Deployment>,
    deployment_of: DeploymentOf,
    batches: Vec<Batch>,
    members: Vec<u32>,
    batch_of: Vec<u32>,
    batch_key: FastMap<(usize, SimTime), usize>,
    local_override: Vec<bool>,
    pings: Vec<Ping>,
    states: BatchStates,
    acct: Accounting,
    health: HealthMap,
    hedges: FastMap<u64, HedgePending>,
}

impl RunScratch {
    /// Creates an empty scratch; buffers grow to steady-state capacity
    /// over the first run and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes `jobs` the stream of `(seed, specs, horizon)`, whose engine
    /// stream is `rng`: kept if it already is, generated otherwise, with
    /// every noise slot marked not drawn. Specs compare with `==`, under
    /// which equal specs generate equal streams (a `NaN` never matches,
    /// so it only costs a regeneration).
    fn fill_jobs(
        &mut self,
        seed: u64,
        specs: &[StreamSpec],
        horizon: SimDuration,
        rng: &RngStream,
    ) {
        if let Some((s, sp, h)) = &self.jobs_input {
            if *s == seed && *h == horizon && sp[..] == *specs {
                return;
            }
        }
        let mut input_specs = self.jobs_input.take().map(|(_, sp, _)| sp).unwrap_or_default();
        generate_jobs_into(specs, horizon, &rng.derive("jobs"), &mut self.jobs);
        self.noise.reset(self.jobs.len(), specs);
        input_specs.clear();
        input_specs.extend_from_slice(specs);
        self.jobs_input = Some((seed, input_specs, horizon));
    }
}

#[cfg(test)]
impl RunScratch {
    /// Bytes the run-sized buffers reserve: each one's capacity times its
    /// element size, summed over the calendar's arena and ring, the jobs
    /// and their noise memo, the batches with their members, `batch_of`
    /// and key map, the overrides, pings, batch state, result slots,
    /// health ledger and pending hedges. Unlike a resident-set reading it
    /// depends on the runs alone, not on the allocator or the host.
    pub(crate) fn reserved_bytes(&self) -> usize {
        self.sim.reserved_bytes()
            + vec_bytes(&self.jobs)
            + self.noise.reserved_bytes()
            + vec_bytes(&self.batches)
            + vec_bytes(&self.members)
            + vec_bytes(&self.batch_of)
            + map_bytes(&self.batch_key)
            + vec_bytes(&self.local_override)
            + vec_bytes(&self.pings)
            + self.states.reserved_bytes()
            + self.acct.reserved_bytes(&self.health)
            + map_bytes(&self.hedges)
    }
}

/// Bytes `v` reserves: its capacity times its element size.
#[cfg(test)]
fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * size_of::<T>()
}

/// Bytes `m` reserves: its capacity times its entry size.
#[cfg(test)]
fn map_bytes<K, V>(m: &FastMap<K, V>) -> usize {
    m.capacity() * size_of::<(K, V)>()
}

/// The simulation engine: one environment, reusable across policies.
///
/// # Examples
///
/// ```
/// use ntc_core::{Engine, Environment, OffloadPolicy};
/// use ntc_simcore::units::SimDuration;
/// use ntc_workloads::{Archetype, StreamSpec};
///
/// let engine = Engine::new(Environment::metro_reference(), 42);
/// let specs = [StreamSpec::poisson(Archetype::PhotoPipeline, 0.01)];
/// let result = engine.run(
///     &OffloadPolicy::ntc(),
///     &specs,
///     SimDuration::from_hours(1),
/// );
/// assert!(result.miss_rate() <= 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    env: Environment,
    seed: u64,
}

impl Engine {
    /// Creates an engine over `env` with a master seed.
    pub fn new(env: Environment, seed: u64) -> Self {
        Engine { env, seed }
    }

    /// The environment this engine simulates.
    pub fn env(&self) -> &Environment {
        &self.env
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Runs `policy` over the job stream defined by `specs` for
    /// `horizon`, letting in-flight jobs drain afterwards.
    pub fn run(
        &self,
        policy: &OffloadPolicy,
        specs: &[StreamSpec],
        horizon: SimDuration,
    ) -> RunResult {
        let mut scratch = RunScratch::new();
        self.run_retained(self.seed, policy, specs, horizon, &mut scratch, JobRetention::Full)
    }

    /// [`run`](Self::run) with an explicit master seed, a reusable
    /// [`RunScratch`] and a [`JobRetention`] mode: the allocation-free
    /// replication path. The result for a given `(seed, policy, specs,
    /// horizon)` is bit-identical to `Engine::new(env, seed).run(policy,
    /// specs, horizon)` under `Full`, regardless of what the scratch was
    /// previously used for; `Aggregates` runs the same simulation.
    pub fn run_retained(
        &self,
        seed: u64,
        policy: &OffloadPolicy,
        specs: &[StreamSpec],
        horizon: SimDuration,
        scratch: &mut RunScratch,
        retention: JobRetention,
    ) -> RunResult {
        let rng = RngStream::root(seed).derive("engine");
        scratch.fill_jobs(seed, specs, horizon, &rng);

        // --- Recovery. Every fault and retry draw derives from its
        // batch's own stream, so a fault-free configuration replays the
        // exact event sequence of an engine without fault modelling. ---
        let retry = policy.retry_enabled();

        // --- Deployments, one per archetype present in the stream, in
        // archetype order whatever the order of the specs; an archetype's
        // first spec sets its rate and slack. ---
        scratch.deployments.clear();
        scratch.deployment_of = Default::default();
        for archetype in Archetype::all() {
            let Some(spec) = specs.iter().find(|s| s.archetype == archetype) else { continue };
            scratch.deployment_of[archetype.index()] = Some(scratch.deployments.len());
            let slack = spec.archetype.typical_slack().mul_f64(spec.slack_factor);
            let d =
                deploy(policy, spec.archetype, &self.env, spec.arrivals.mean_rate(), slack, &rng);
            scratch.deployments.push(d);
        }

        // --- Sites: provision every deployment along its chain. ---
        let mut sites = SiteRegistry::standard(&self.env, &rng);
        scratch.health.reset(policy.health());
        scratch.hedges.clear();
        scratch.sim.reset();
        execute::provision_deployments(
            &scratch.deployments,
            &mut sites,
            &mut scratch.sim,
            &mut scratch.pings,
        );

        // --- Admission: coalesce jobs into batches and schedule them. ---
        admission::coalesce_into(
            &scratch.deployments,
            &scratch.deployment_of,
            &scratch.jobs,
            &mut scratch.batches,
            &mut scratch.batch_of,
            &mut scratch.batch_key,
            &mut scratch.members,
        );
        admission::local_overrides_into(
            &self.env,
            &scratch.deployments,
            &scratch.jobs,
            &scratch.batches,
            &scratch.members,
            &mut scratch.local_override,
        );
        scratch.sim.reserve(scratch.batches.len());
        for (bi, b) in scratch.batches.iter().enumerate() {
            scratch.sim.schedule_after(b.dispatch_at - SimTime::ZERO, Ev::dispatch(bi));
        }
        scratch.states.reset(&scratch.deployments, &scratch.batches);
        scratch.acct.reset(scratch.jobs.len(), retention);

        // --- The loop. ---
        let horizon_end = SimTime::ZERO + horizon;
        let ctx = RunCtx {
            env: &self.env,
            deployments: &scratch.deployments,
            jobs: &scratch.jobs,
            batches: &scratch.batches,
            members: &scratch.members,
            local_override: &scratch.local_override,
            pings: &scratch.pings,
            retry,
            horizon_end,
        };
        let mut run = Run {
            ctx: &ctx,
            sites,
            sim: &mut scratch.sim,
            states: &mut scratch.states,
            acct: &mut scratch.acct,
            noise: &mut scratch.noise,
            health: &mut scratch.health,
            health_rng: rng.derive("health"),
            hedges: &mut scratch.hedges,
        };
        run.drain();

        let now = run.sim.now();
        run.acct.assemble(policy, &self.env, horizon, horizon_end, now, &mut run.sites, run.health)
    }
}
