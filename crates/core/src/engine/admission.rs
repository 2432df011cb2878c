//! Admission: coalescing jobs into batches, latest-safe dispatch timing,
//! the pre-dispatch local override, per-batch state initialisation, and
//! the dispatch handler with its overload-aware admission controller
//! (bounded per-site queues: defer delay-tolerant batches, shed
//! tight-deadline ones down the chain).
//!
//! Everything before the loop fills caller-owned buffers (see
//! [`RunScratch`](crate::engine::RunScratch)): a reused scratch re-walks
//! the same allocations run after run instead of re-growing them.

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

/// Execution state of every batch, flattened struct-of-arrays style:
/// one array per field, indexed by batch, so the event loop's state
/// accesses stay contiguous and a reused scratch re-initialises with no
/// allocation.
///
/// No array is kept per component. What only some components need lives
/// in sparse maps keyed by `(batch, component)` ([`unit_key`]): a join
/// (two or more predecessors) that has received some but not all of its
/// inputs holds an entry in [`joins`](Self::joins), and a component that
/// failed an attempt holds one in the try ledger
/// [`tries`](Self::tries). A component with one predecessor is released
/// when its input lands, and every graph has one exit (`reset` refuses a
/// second), so a batch settles when that exit's result lands and needs
/// no exit counter. The site a component ran on travels in its
/// [`Ev::Done`](super::Ev::Done).
///
/// Counts are `u8`. [`reset`](Self::reset) checks that every graph's
/// components and in-degrees fit ([`check_u8_counts`]). A chain position
/// is a `u8`, since a site chain never repeats a [`Site`]; a batch falls
/// back only by advancing it, so its fallback count is less than its
/// chain's length; and its deferrals stop at [`MAX_DEFERRALS`].
#[derive(Debug, Default)]
pub(crate) struct BatchStates {
    /// The inputs still due and the latest input arrival of each join
    /// that has received some but not all of its inputs. An entry is made
    /// at a join's first input and removed when the join is released.
    pub joins: FastMap<u64, (u8, SimTime)>,
    /// The try ledger: the tries of each component that failed an
    /// attempt, from that first failure on. Sparse: a fault-free run
    /// leaves it empty.
    pub tries: FastMap<u64, Tries>,
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
}

/// The tries of one component of a batch: its remote attempts so far,
/// its retries after a backoff and their summed backoff.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tries {
    pub attempts: u32,
    pub retries: u32,
    pub backoff: SimDuration,
}

/// Components a graph may have: events and the sparse maps' keys name a
/// component by a `u8` index.
pub(crate) const MAX_COMPONENTS: usize = u8::MAX as usize + 1;

const _: () = assert!(Site::ALL.len() <= u8::MAX as usize);
// Bytes of state per batch (`failed`, `finished`, `chain_pos`,
// `fallbacks`, `deferrals`).
const _: () = assert!(2 * size_of::<bool>() + 3 * size_of::<u8>() <= 5);

/// The key of component `comp` of batch `bi` in the sparse maps: the
/// batch index above the component's `u8` index.
#[inline]
pub(crate) fn unit_key(bi: usize, comp: ComponentId) -> u64 {
    (bi as u64) << 8 | comp.index() as u64
}

/// Panics unless `g` fits the `u8` counts of batch state: its component
/// count (at most [`MAX_COMPONENTS`]) and every in-degree, the count of
/// inputs still due that [`BatchStates::joins`] keeps.
pub(crate) fn check_u8_counts(g: &TaskGraph) {
    let in_degree = g.ids().map(|c| g.predecessors(c).count()).max().unwrap_or(0);
    assert!(
        u8::try_from(in_degree).is_ok(),
        "batch state counts predecessors as u8: graph `{}` needs {in_degree}",
        g.name()
    );
    assert!(
        g.len() <= MAX_COMPONENTS,
        "events name a component as u8: graph `{}` has {} components",
        g.name(),
        g.len()
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
        map_bytes(&self.joins)
            + map_bytes(&self.tries)
            + vec_bytes(&self.failed)
            + vec_bytes(&self.finished)
            + vec_bytes(&self.chain_pos)
            + vec_bytes(&self.fallbacks)
            + vec_bytes(&self.deferrals)
    }

    /// Delivers one of the `preds` inputs of join `to` of batch `bi`,
    /// arriving at `arrival`. Returns when the join is released, the
    /// latest of its inputs' arrivals, once this was the last input due,
    /// and `None` while another is still due.
    pub fn join(
        &mut self,
        bi: usize,
        to: ComponentId,
        preds: usize,
        arrival: SimTime,
    ) -> Option<SimTime> {
        let key = unit_key(bi, to);
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

    /// The number of the remote attempt component `comp` of batch `bi`
    /// is about to make: `1 +` its ledger entry's attempts, counted in
    /// the entry, or 1 without an entry. An empty ledger is not probed.
    pub fn next_attempt(&mut self, bi: usize, comp: ComponentId) -> u32 {
        if self.tries.is_empty() {
            return 1;
        }
        let Some(tries) = self.tries.get_mut(&unit_key(bi, comp)) else { return 1 };
        tries.attempts += 1;
        tries.attempts
    }

    /// Records that the attempt component `comp` of batch `bi` just made
    /// failed, and returns its ledger entry. The entry is made at the
    /// first failure, which was attempt 1; a later attempt was counted in
    /// it when [`next_attempt`](Self::next_attempt) numbered it.
    pub fn fail_attempt(&mut self, bi: usize, comp: ComponentId) -> &mut Tries {
        self.tries.entry(unit_key(bi, comp)).or_insert(Tries { attempts: 1, ..Tries::default() })
    }

    /// Batch `bi`'s tries over its components `comps`: the most attempts
    /// of any component, at least 1 (a batch that invoked nothing ran
    /// once), and the largest retry count and backoff sum, not their
    /// totals, so the backoff never exceeds the batch's latency and the
    /// counts are per job. Probes the ledger once per component, and not
    /// at all while it is empty.
    pub fn batch_tries(&self, bi: usize, comps: impl Iterator<Item = ComponentId>) -> Tries {
        let least = Tries { attempts: 1, ..Tries::default() };
        if self.tries.is_empty() {
            return least;
        }
        let tried = comps.filter_map(|c| self.tries.get(&unit_key(bi, c)));
        tried.fold(least, |most, t| Tries {
            attempts: most.attempts.max(t.attempts),
            retries: most.retries.max(t.retries),
            backoff: most.backoff.max(t.backoff),
        })
    }

    /// Re-initialises for a fresh run over `batches`, reusing every
    /// array's capacity: each is sized once, exactly, rather than grown
    /// batch by batch.
    ///
    /// # Panics
    ///
    /// Panics if a deployment's graph overflows a `u8` count
    /// ([`check_u8_counts`]) or has more than one exit, or if its plan
    /// runs an entry component off the device: every archetype has one
    /// exit and pins its entry to the device, where the members' inputs
    /// are.
    pub fn reset(&mut self, deployments: &[Deployment], batches: &[Batch]) {
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
        let n = batches.len();
        self.joins.clear();
        self.tries.clear();
        refill(&mut self.failed, n, false);
        refill(&mut self.finished, n, false);
        refill(&mut self.chain_pos, n, 0);
        refill(&mut self.fallbacks, n, 0);
        refill(&mut self.deferrals, n, 0);
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
