//! Admission: coalescing jobs into batches, latest-safe dispatch timing,
//! the pre-dispatch local override, per-batch state initialisation, and
//! the dispatch handler with its overload-aware admission controller
//! (bounded per-site queues: defer delay-tolerant batches, shed
//! tight-deadline ones down the chain).
//!
//! Everything before the loop fills caller-owned buffers (see
//! [`RunScratch`](crate::engine::RunScratch)): a reused scratch re-walks
//! the same allocations run after run instead of re-growing them.

use std::ops::Range;

use ntc_alloc::dispatch_time;
use ntc_partition::Side;
use ntc_simcore::units::{DataSize, SimDuration, SimTime};
use ntc_taskgraph::{ComponentId, TaskGraph};
use ntc_workloads::Job;

use super::hash::FastMap;
use super::{DeploymentOf, Ev, Run};
use crate::deploy::Deployment;
use crate::environment::Environment;
use crate::site::Site;

/// The safety margin a batch keeps before its tightest member deadline:
/// latest-safe dispatch holds, admission and the local override all
/// reserve it on top of the batch's completion estimate.
pub(crate) const COMPLETION_MARGIN: SimDuration = SimDuration::from_secs(60);

/// One execution unit: one or more coalesced jobs of the same deployment
/// released together.
#[derive(Debug)]
pub(crate) struct Batch {
    /// The batch's deployment: an index into the run's deployments, of
    /// which there is one per archetype.
    pub di: u32,
    /// Where this batch's slice of the run's flat member array starts: its
    /// job indices, in ascending order, run up to the next batch's start
    /// (see [`members_of`]).
    pub members_start: u32,
    pub dispatch_at: SimTime,
    pub sum_input: DataSize,
    /// The key of the batch's first member, which roots every draw made
    /// for the batch; kept here so an event reads no job.
    pub key: u64,
}

const _: () = assert!(size_of::<Batch>() <= 32);

/// Batch `bi`'s job indices within the run's flat member array `members`,
/// which the batches slice back to back.
pub(crate) fn members_of<'m>(batches: &[Batch], members: &'m [u32], bi: usize) -> &'m [u32] {
    let end = batches.get(bi + 1).map_or(members.len(), |next| next.members_start as usize);
    &members[batches[bi].members_start as usize..end]
}

/// Execution state of every batch, flattened struct-of-arrays style: the
/// per-component arrays are one contiguous allocation each, with batch
/// `bi` owning the slice `off[bi]..off[bi + 1]`. Compared to the old
/// `Vec<BatchState>` (six heap allocations per batch), this keeps the
/// event loop's state accesses contiguous and lets a reused scratch
/// re-initialise with zero allocation.
///
/// Only what the graphs need is stored per unit. A component with one
/// predecessor needs no arrival slot: it is released when its input
/// lands. Only a join (two or more predecessors) waits for its latest
/// input, and only while it is partly delivered does it hold an entry in
/// the sparse [`joins`](Self::joins) map. Every graph has one exit
/// (`reset` refuses a second), so a batch settles when that exit's
/// result lands, and needs no exit counter.
///
/// Offsets and attempts are `u32`: [`reset`](Self::reset) checks once that
/// the component total fits, which bounds every offset. The other counts
/// are `u8`. `reset` checks that every graph's in-degrees fit
/// ([`check_u8_counts`]). A chain position is a `u8`, since a site
/// chain never repeats a [`Site`]; a batch falls back only by advancing
/// it, so its fallback count is less than its chain's length; and its
/// deferrals stop at [`MAX_DEFERRALS`].
#[derive(Debug, Default)]
pub(crate) struct BatchStates {
    /// Prefix offsets into the per-component arrays; `batches + 1` long.
    off: Vec<u32>,
    /// The inputs still due and the latest input arrival of each join
    /// that has received some but not all of its inputs, keyed by its
    /// per-component index. An entry is made at a join's first input and
    /// removed when the join is released.
    pub joins: FastMap<u32, (u8, SimTime)>,
    /// Per component: execution attempts (0 = never attempted).
    pub attempts: Vec<u32>,
    /// Summed retry backoff and retry count of each component that
    /// retried, keyed by its per-component index. Sparse: most components
    /// never retry, and a fault-free run leaves the map empty.
    pub retried: FastMap<u32, (SimDuration, u32)>,
    /// Per component: the side it actually last executed on (for routing
    /// its outputs after a mid-graph fallback).
    pub exec_side: Vec<Side>,
    /// Per batch: terminally failed.
    pub failed: Vec<bool>,
    /// Per batch: settled, at its exit's result or its failure.
    pub finished: Vec<bool>,
    /// Per batch: position in the deployment's site-preference chain.
    /// 0 is the primary site; failure-driven fallback advances it.
    chain_pos: Vec<u8>,
    /// Per batch: site fallback switches performed.
    pub fallbacks: Vec<u8>,
    /// Per batch: dispatch deferrals granted by admission control.
    pub deferrals: Vec<u8>,
    /// Per component: the site whose bounded queue this component's
    /// in-flight invocation occupies, if any. Sized and maintained only
    /// when the health layer is enabled, and empty otherwise.
    pub inflight_site: Vec<Option<Site>>,
}

const _: () = assert!(Site::ALL.len() <= u8::MAX as usize);
// Bytes of state per component (`attempts`, `exec_side`, and
// `inflight_site` with the health layer on) and per batch (`off`,
// `failed`, `finished`, `chain_pos`, `fallbacks`, `deferrals`).
const _: () = assert!(size_of::<u32>() + size_of::<Side>() + size_of::<Option<Site>>() <= 6);
const _: () = assert!(size_of::<u32>() + 5 * size_of::<u8>() <= 9);

/// Panics unless every in-degree of `g` fits the `u8` count of inputs
/// still due that [`BatchStates::joins`] keeps.
pub(crate) fn check_u8_counts(g: &TaskGraph) {
    let in_degree = g.ids().map(|c| g.predecessors(c).count()).max().unwrap_or(0);
    assert!(
        u8::try_from(in_degree).is_ok(),
        "batch state counts predecessors as u8: graph `{}` needs {in_degree}",
        g.name()
    );
}

/// Clears `v` and refills it with `n` copies of `value` in an allocation
/// of exactly `n` when it must grow.
fn refill<T: Clone>(v: &mut Vec<T>, n: usize, value: T) {
    v.clear();
    v.reserve_exact(n);
    v.resize(n, value);
}

impl BatchStates {
    /// Index of `(bi, comp)` in the per-component arrays.
    #[inline]
    pub fn ix(&self, bi: usize, comp: ComponentId) -> usize {
        self.off[bi] as usize + comp.index()
    }

    /// The per-component index range owned by batch `bi`.
    #[inline]
    pub fn range(&self, bi: usize) -> Range<usize> {
        self.off[bi] as usize..self.off[bi + 1] as usize
    }

    /// Batch `bi`'s position in its deployment's site chain.
    #[inline]
    pub fn chain_pos(&self, bi: usize) -> usize {
        usize::from(self.chain_pos[bi])
    }

    /// Moves batch `bi` to position `pos` of its site chain.
    #[inline]
    pub fn set_chain_pos(&mut self, bi: usize, pos: usize) {
        self.chain_pos[bi] = pos as u8;
    }

    /// Bytes the state's arrays and maps reserve.
    #[cfg(test)]
    pub fn reserved_bytes(&self) -> usize {
        use super::{map_bytes, vec_bytes};
        vec_bytes(&self.off)
            + map_bytes(&self.joins)
            + vec_bytes(&self.attempts)
            + map_bytes(&self.retried)
            + vec_bytes(&self.exec_side)
            + vec_bytes(&self.failed)
            + vec_bytes(&self.finished)
            + vec_bytes(&self.chain_pos)
            + vec_bytes(&self.fallbacks)
            + vec_bytes(&self.deferrals)
            + vec_bytes(&self.inflight_site)
    }

    /// Delivers one of the `preds` inputs of join `ti` (its per-component
    /// index), arriving at `arrival`. Returns when the join is released,
    /// the latest of its inputs' arrivals, once this was the last input
    /// due, and `None` while another is still due.
    pub fn join(&mut self, ti: usize, preds: usize, arrival: SimTime) -> Option<SimTime> {
        let key = ti as u32;
        let (due, latest) = self.joins.entry(key).or_insert((preds as u8, SimTime::ZERO));
        *due -= 1;
        *latest = (*latest).max(arrival);
        if *due > 0 {
            return None;
        }
        let latest = *latest;
        self.joins.remove(&key);
        Some(latest)
    }

    /// Records one retry of component `cix` after `backoff`.
    pub fn add_retry(&mut self, cix: usize, backoff: SimDuration) {
        let (sum, count) = self.retried.entry(cix as u32).or_default();
        *sum += backoff;
        *count += 1;
    }

    /// Batch `bi`'s retry backoff and retry count: the largest of its
    /// components' sums and counts, not their totals, so the backoff never
    /// exceeds the batch's latency and the count is per job, as
    /// `attempts` is. Probes the map once per component of the batch,
    /// and not at all while no component has retried.
    pub fn batch_retries(&self, bi: usize) -> (SimDuration, u32) {
        if self.retried.is_empty() {
            return (SimDuration::ZERO, 0);
        }
        let retried = self.range(bi).filter_map(|cix| self.retried.get(&(cix as u32)));
        retried.fold((SimDuration::ZERO, 0), |(b, n), &(sum, count)| (b.max(sum), n.max(count)))
    }

    /// Re-initialises for a fresh run over `batches`, reusing every
    /// array's capacity; `inflight_site` is sized only if `health` is on.
    /// The totals come first, so each array is sized once, exactly, rather
    /// than grown batch by batch.
    ///
    /// # Panics
    ///
    /// Panics if a deployment's graph overflows a `u8` count
    /// ([`check_u8_counts`]) or has more than one exit, or if its plan
    /// runs an entry component off the device: every archetype has one
    /// exit and pins its entry to the device, where the members' inputs
    /// are.
    pub fn reset(&mut self, deployments: &[Deployment], batches: &[Batch], health: bool) {
        let n = batches.len();
        let comps: usize = batches.iter().map(|b| deployments[b.di as usize].graph.len()).sum();
        assert!(
            u32::try_from(comps).is_ok(),
            "batch state indexes components as u32: {comps} components exceed u32::MAX"
        );
        for d in deployments {
            check_u8_counts(&d.graph);
            assert!(
                d.graph.exits().len() == 1,
                "a batch settles at its one exit: graph `{}` has {}",
                d.graph.name(),
                d.graph.exits().len()
            );
            assert!(
                d.graph.entries().iter().all(|&c| d.plan.side(c) == Side::Device),
                "dispatch starts entry components on the device: `{}`'s plan offloads one",
                d.graph.name()
            );
        }

        self.off.clear();
        self.off.reserve_exact(n + 1);
        let mut total = 0;
        self.off.push(0);
        for b in batches {
            total += deployments[b.di as usize].graph.len() as u32;
            self.off.push(total);
        }

        self.joins.clear();
        refill(&mut self.attempts, comps, 0);
        refill(&mut self.exec_side, comps, Side::Device);
        refill(&mut self.inflight_site, if health { comps } else { 0 }, None);
        refill(&mut self.failed, n, false);
        refill(&mut self.finished, n, false);
        refill(&mut self.chain_pos, n, 0);
        refill(&mut self.fallbacks, n, 0);
        refill(&mut self.deferrals, n, 0);
        self.retried.clear();
    }
}

/// Deferrals one batch may accumulate before it must shed instead.
const MAX_DEFERRALS: u8 = 24;

/// The admission controller's answer for one batch at dispatch time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Dispatch now, at the current chain position.
    Admit,
    /// The target site is overloaded but the batch has slack: hold it
    /// and re-dispatch after the given delay. NTC work is delay-tolerant
    /// — deferring is the graceful response to overload.
    Defer(SimDuration),
    /// The target site is overloaded and the batch cannot afford to
    /// wait: shed it to the given chain position and dispatch there.
    Shed(usize),
}

impl Run<'_> {
    /// Releases a batch: consults the admission controller (which may
    /// defer the release or shed the batch down its chain), then makes
    /// every entry component ready at once. Entries run on the device
    /// ([`BatchStates::reset`] checks every plan for it), so each member
    /// uploads nothing here: its input leaves the device as the payload
    /// of an entry's flow.
    pub(super) fn dispatch(&mut self, t: SimTime, bi: usize) {
        match self.admission_verdict(t, bi) {
            Verdict::Admit => {}
            Verdict::Defer(step) => {
                self.states.deferrals[bi] += 1;
                self.acct.overload.deferrals += 1;
                self.sim.schedule_after(step, Ev::dispatch(bi));
                return;
            }
            Verdict::Shed(next) => {
                self.states.set_chain_pos(bi, next);
                self.acct.overload.sheds += 1;
            }
        }
        for &c in self.ctx.deployment(bi).graph.entries() {
            self.sim.schedule_after(SimDuration::ZERO, Ev::exec(bi, c));
        }
    }

    /// Decides whether a batch may dispatch to its current chain site,
    /// must wait out the overload, or must shed down the chain. Always
    /// admits unless [`HealthConfig::admission`](ntc_faults::HealthConfig)
    /// is on; the decision is a pure function of the health ledger and
    /// the batch's deadline slack, so replays are bit-identical.
    #[inline]
    pub(super) fn admission_verdict(&self, t: SimTime, bi: usize) -> Verdict {
        if !self.health.cfg().admission {
            return Verdict::Admit;
        }
        let ctx = self.ctx;
        let d = ctx.deployment(bi);
        let pos = self.states.chain_pos(bi);
        // The device is never overloaded: it scales per member.
        if ctx.on_device(bi, pos) || d.plan.offloaded().count() == 0 {
            return Verdict::Admit;
        }
        let site = d.site_chain[pos];
        let h = self.health.site(site);
        let wait = h.queue_delay(site.concurrency(ctx.env));
        let min_deadline = ctx.min_deadline(bi);
        if !h.saturated() && t + wait + d.est_completion + COMPLETION_MARGIN <= min_deadline {
            return Verdict::Admit;
        }
        // Overloaded. Delay-tolerant batches wait the overload out…
        let step = self.health.cfg().defer_step;
        if self.states.deferrals[bi] < MAX_DEFERRALS
            && t + step + d.est_completion + COMPLETION_MARGIN <= min_deadline
        {
            return Verdict::Defer(step);
        }
        // …and tight-deadline batches shed to the next chain site (every
        // later chain site mirrors the deployment, and the device serves
        // anything), rather than queueing into a miss.
        if pos + 1 < d.site_chain.len() {
            return Verdict::Shed(pos + 1);
        }
        Verdict::Admit
    }
}

/// The tightest deadline among the jobs `members` indexes.
pub(crate) fn min_deadline(jobs: &[Job], members: &[u32]) -> SimTime {
    members.iter().map(|&ji| jobs[ji as usize].deadline()).min().expect("batch is non-empty")
}

/// Coalesces jobs into batches by (deployment, dispatch instant), capped
/// by the deployment's member and byte limits. Refills `batches` and the
/// flat `members` array they slice, using `batch_of` (each job's batch)
/// and the keying map `batch_key` as scratch.
///
/// A job's dispatch instant is never before its arrival, and jobs come
/// sorted by arrival, so a key whose instant precedes the current
/// arrival can never match again: whenever the map has doubled since the
/// last prune, it keeps only the keys at or after that arrival. Under
/// `Immediate` dispatch the map then holds about 64 entries at most
/// instead of one per batch; the batches formed are exactly those of
/// the unpruned map.
pub(crate) fn coalesce_into(
    deployments: &[Deployment],
    deployment_of: &DeploymentOf,
    jobs: &[Job],
    batches: &mut Vec<Batch>,
    batch_of: &mut Vec<u32>,
    batch_key: &mut FastMap<(usize, SimTime), usize>,
    members: &mut Vec<u32>,
) {
    // Every job, batch and member index below fits in u32 once this holds.
    assert!(
        u32::try_from(jobs.len()).is_ok(),
        "coalescing indexes jobs as u32: {} jobs exceed u32::MAX",
        jobs.len()
    );
    /// The smallest map worth a pruning pass.
    const MIN_PRUNE: usize = 64;
    batches.clear();
    batch_key.clear();
    // Room for the most keys `Immediate` dispatch holds between prunes,
    // twice over so that deleted slots rehash in place: the map then
    // allocates nothing between the reallocations of the run-sized
    // vectors, where a resize could keep the heap from growing them in
    // place (2.5 MiB of peak RSS on `scale_100k`).
    batch_key.reserve(2 * MIN_PRUNE);
    batch_of.clear();
    batch_of.reserve_exact(jobs.len());
    let mut prune_at = MIN_PRUNE;
    // First pass: assign each job its batch. A batch's `members_start`
    // holds its member count until the second pass places it in the flat
    // array.
    for job in jobs {
        if batch_key.len() >= prune_at {
            batch_key.retain(|&(_, at), _| at >= job.arrival);
            prune_at = (2 * batch_key.len()).max(MIN_PRUNE);
        }
        let di =
            deployment_of[job.archetype.index()].expect("every job's archetype has a deployment");
        let d = &deployments[di];
        let at =
            dispatch_time(d.dispatch, job.arrival, job.slack, d.est_completion, COMPLETION_MARGIN);
        let fits = |b: &Batch| {
            b.members_start < d.max_batch_members
                && b.sum_input.as_bytes().saturating_add(job.input.as_bytes())
                    <= d.max_batch_bytes.as_bytes()
        };
        let bi = match batch_key.get(&(di, at)) {
            Some(&bi) if fits(&batches[bi]) => bi,
            _ => {
                batches.push(Batch {
                    di: di as u32,
                    members_start: 0,
                    dispatch_at: at,
                    sum_input: DataSize::ZERO,
                    key: job.key,
                });
                let bi = batches.len() - 1;
                batch_key.insert((di, at), bi);
                bi
            }
        };
        batch_of.push(bi as u32);
        let b = &mut batches[bi];
        b.members_start += 1;
        b.sum_input += job.input;
    }
    // Second pass: lay the batches out back to back, each start parked
    // at its slice's end, then scatter the jobs in descending order, each
    // moving its batch's start down one, so each slice fills sorted and
    // every start ends where its slice begins.
    let mut end = 0;
    for b in batches.iter_mut() {
        end += b.members_start;
        b.members_start = end;
    }
    refill(members, jobs.len(), 0);
    for (ji, &bi) in batch_of.iter().enumerate().rev() {
        let start = &mut batches[bi as usize].members_start;
        *start -= 1;
        members[*start as usize] = ji as u32;
    }
}

/// Local fallback: a batch whose offloaded completion estimate (which
/// reserves for outages, chunking and noise) cannot meet its tightest
/// member deadline — but whose device execution can — runs entirely on
/// the members' own devices. Refills `out` with one flag per batch. A
/// plan that offloads nothing may be overridden too: its components run
/// on the device either way.
pub(crate) fn local_overrides_into(
    env: &Environment,
    deployments: &[Deployment],
    jobs: &[Job],
    batches: &[Batch],
    members: &[u32],
    out: &mut Vec<bool>,
) {
    out.clear();
    out.extend(batches.iter().enumerate().map(|(bi, b)| {
        let d = &deployments[b.di as usize];
        if !d.fallback_local {
            return false;
        }
        let min_deadline = min_deadline(jobs, members_of(batches, members, bi));
        // Only outages that can actually intersect this batch's
        // execution window count against offloading.
        let outage = env.connectivity.worst_wait_within(b.dispatch_at, min_deadline);
        let reserve = d.est_completion + outage + COMPLETION_MARGIN;
        let local_reserve = d.est_local + COMPLETION_MARGIN;
        b.dispatch_at + reserve > min_deadline && b.dispatch_at + local_reserve <= min_deadline
    }));
}
