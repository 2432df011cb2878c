//! The execution-noise table: one slot per job and component, drawn once
//! per input and shared by every policy, retry and hedge, and the
//! hand-off that has the scratch's helper core draw a run's new slots
//! while the loop's thread sets the run up.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use ntc_simcore::rng::{NormalPump, RngStream};
use ntc_taskgraph::ComponentId;
use ntc_workloads::{Archetype, Job};

use super::admission::{refill, Batch};
use super::execute::component_key;
use crate::deploy::Deployment;

/// The bits of a slot not drawn yet: a `NaN`, where every drawn factor is
/// positive.
const UNDRAWN: u64 = f64::NAN.to_bits();

/// A run with fewer undrawn slots than this draws them on its own thread:
/// at 0.2–0.3 µs a slot they take about as long as the median wake-up
/// (203 µs) of an idle virtual core measured for the `net` feed, so
/// handing them off would gain nothing.
const HANDOFF_SLOTS: usize = 1024;

/// Execution-to-execution noise of every (job, component) slot, drawn
/// once per input and shared by every policy, retry and hedge.
///
/// A batch's noise is keyed by its first member's id and the component
/// alone (the child stream [`component_key`] of `work`), so it is the
/// same value under every policy run on the input, whichever thread draws
/// it. The table therefore lives as long as the job stream it belongs
/// to: [`reset`](Self::reset) marks every slot not drawn whenever the
/// stream is regenerated. [`start`](Self::start) marks the batch heads
/// whose slots earlier runs left undrawn, and has the pump's helper draw
/// them unless there are few; [`get`](Self::get) draws a slot the helper
/// has not reached yet on the spot, and [`finish`](Self::finish) draws
/// whatever the helper left when the run ended. Two draws of one slot
/// store the same bits, so it does not matter which thread gets there
/// first.
///
/// The helper's job shares the slots, the run's heads and the jobs by
/// `Arc`, and the scratch writes to any of them only through
/// [`unshared`]: while the helper still holds an ended run's job, a new
/// input or a new run's heads go into a fresh allocation, so no write
/// from an earlier input can land in the current one.
#[derive(Debug, Default)]
pub(crate) struct NoiseTable {
    /// Slots per job: the largest component count among the input's
    /// archetypes.
    stride: usize,
    /// Job `ji`'s component `c` at `ji * stride + c`; [`UNDRAWN`] until
    /// drawn, the factor's bits after. Read and written `Relaxed`: a slot
    /// publishes nothing but its own bits, and a reader that still sees
    /// [`UNDRAWN`] draws the same bits itself.
    slots: Arc<Vec<AtomicU64>>,
    /// The batch heads the current run found undrawn.
    pending: Arc<Pending>,
}

/// A run's batch heads with a slot not drawn yet, one bit per job, and
/// how far the drawing has got through them.
#[derive(Debug, Default)]
struct Pending {
    /// Bit `ji % 64` of word `ji / 64` is set when job `ji` heads a batch
    /// and has a slot not drawn yet.
    heads: Vec<u64>,
    /// Each archetype's component count in the run, by
    /// [`Archetype::index`].
    comps: [u8; Archetype::all().len()],
    /// `heads[..drawn]` are drawn. Stored `Release` after a step's slots
    /// and loaded `Acquire` by [`NoiseTable::finish`], which so sees
    /// those slots drawn and skips them.
    drawn: AtomicUsize,
}

impl Pending {
    /// Draws every slot not drawn yet of the heads in word `w`.
    fn draw_word(
        &self,
        w: usize,
        slots: &[AtomicU64],
        stride: usize,
        jobs: &[Job],
        work: &RngStream,
    ) {
        let mut bits = self.heads[w];
        while bits != 0 {
            let ji = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let job = &jobs[ji];
            let own = &slots[ji * stride..][..usize::from(self.comps[job.archetype.index()])];
            for (c, slot) in own.iter().enumerate() {
                if slot.load(Ordering::Relaxed) == UNDRAWN {
                    let noise = draw_noise(work, job, ComponentId::from_index(c));
                    slot.store(noise.to_bits(), Ordering::Relaxed);
                }
            }
        }
    }
}

/// `arc`'s value, to change in place; a fresh default value if another
/// thread still holds it.
pub(super) fn unshared<T: Default>(arc: &mut Arc<T>) -> &mut T {
    if Arc::get_mut(arc).is_none() {
        *arc = Arc::default();
    }
    Arc::get_mut(arc).expect("a new value is not shared")
}

impl NoiseTable {
    /// Marks every slot of a new input of `jobs` jobs, with at most
    /// `stride` components each, not drawn.
    pub(crate) fn reset(&mut self, jobs: usize, stride: usize) {
        self.stride = stride;
        let slots = unshared(&mut self.slots);
        slots.clear();
        slots.reserve_exact(jobs * stride);
        slots.extend((0..jobs * stride).map(|_| AtomicU64::new(UNDRAWN)));
    }

    /// Starts drawing every component slot of each batch's first member
    /// that is not drawn yet, from `work`: one derivation per (batch
    /// head, component) per input. Below [`HANDOFF_SLOTS`] slots, or
    /// without a helper, it draws them here; otherwise `pump`'s helper
    /// draws them, in job order, until the run ends.
    pub(crate) fn start(
        &mut self,
        work: RngStream,
        jobs: &Arc<Vec<Job>>,
        deployments: &[Deployment],
        batches: &[Batch],
        members: &[u32],
        pump: &mut NormalPump,
    ) {
        let heads =
            batches.iter().map(|b| (b.members_in(members)[0], deployments[b.di].graph.len()));
        let undrawn = self.mark(jobs, heads);
        self.draw(undrawn, work, jobs, pump);
    }

    /// Marks the `(job index, component count)` heads with a slot not
    /// drawn yet as the run's; returns how many slots that is.
    fn mark(&mut self, jobs: &[Job], heads: impl Iterator<Item = (u32, usize)>) -> usize {
        let pending = unshared(&mut self.pending);
        refill(&mut pending.heads, jobs.len().div_ceil(64), 0);
        *pending.drawn.get_mut() = 0;
        let mut undrawn = 0;
        for (ji, comps) in heads {
            let ji = ji as usize;
            let own = &self.slots[ji * self.stride..][..comps];
            let n = own.iter().filter(|slot| slot.load(Ordering::Relaxed) == UNDRAWN).count();
            if n > 0 {
                pending.heads[ji / 64] |= 1 << (ji % 64);
                pending.comps[jobs[ji].archetype.index()] =
                    u8::try_from(comps).expect("at most 255 components");
                undrawn += n;
            }
        }
        undrawn
    }

    /// Draws the marked heads' `undrawn` slots here, or has `pump`'s
    /// helper draw them if there are enough and it has one.
    fn draw(&self, undrawn: usize, work: RngStream, jobs: &Arc<Vec<Job>>, pump: &mut NormalPump) {
        if undrawn == 0 {
            return;
        }
        let (slots, pending, jobs) =
            (Arc::clone(&self.slots), Arc::clone(&self.pending), Arc::clone(jobs));
        let stride = self.stride;
        // One word of heads per step: at most 64 heads' slots (45–80 µs
        // on `mixed_day`), so a `net` chunk the loop asks for waits at
        // most that long.
        let step = move || {
            let w = pending.drawn.load(Ordering::Relaxed);
            pending.draw_word(w, &slots, stride, &jobs, &work);
            pending.drawn.store(w + 1, Ordering::Release);
            w + 1 < pending.heads.len()
        };
        if undrawn < HANDOFF_SLOTS {
            while step() {}
        } else if let Err(mut step) = pump.background(Box::new(step)) {
            while step() {}
        }
    }

    /// The noise of component `comp` of the batch whose first member is
    /// job `ji`, drawn now from `work` if no thread has drawn it yet.
    #[inline]
    pub(crate) fn get(&self, work: &RngStream, jobs: &[Job], ji: u32, comp: ComponentId) -> f64 {
        let slot = &self.slots[ji as usize * self.stride + comp.index()];
        match slot.load(Ordering::Relaxed) {
            UNDRAWN => draw_slot(slot, work, &jobs[ji as usize], comp),
            bits => f64::from_bits(bits),
        }
    }

    /// Draws every slot of the run's heads that the helper has not: call
    /// once the run has ended on the pump, so the table is as complete as
    /// a pass before the loop would have left it.
    pub(crate) fn finish(&self, work: &RngStream, jobs: &[Job]) {
        let from = self.pending.drawn.load(Ordering::Acquire);
        for w in from..self.pending.heads.len() {
            self.pending.draw_word(w, &self.slots, self.stride, jobs, work);
        }
    }

    /// The raw slot of component `comp` of job `ji`: `NaN` if not drawn.
    #[cfg(test)]
    pub(crate) fn slot(&self, ji: u32, comp: ComponentId) -> f64 {
        f64::from_bits(self.slots[ji as usize * self.stride + comp.index()].load(Ordering::Acquire))
    }

    /// How many slots are drawn.
    #[cfg(test)]
    pub(crate) fn drawn(&self) -> usize {
        self.slots.iter().filter(|slot| slot.load(Ordering::Acquire) != UNDRAWN).count()
    }
}

/// Draws `slot`, component `comp` of the batch headed by `first`, on the
/// loop's thread: the helper has not reached it yet.
#[cold]
#[inline(never)]
fn draw_slot(slot: &AtomicU64, work: &RngStream, first: &Job, comp: ComponentId) -> f64 {
    let noise = draw_noise(work, first, comp);
    slot.store(noise.to_bits(), Ordering::Relaxed);
    noise
}

/// The execution noise of component `comp` of the batch whose first
/// member is `first`: the archetype's drift times a lognormal draw from
/// the child stream [`component_key`] of `work`.
fn draw_noise(work: &RngStream, first: &Job, comp: ComponentId) -> f64 {
    let archetype = first.archetype;
    let mut r = work.derive(component_key(first.id, comp));
    archetype.demand_drift() * r.lognormal(0.0, archetype.demand_noise_sigma())
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use ntc_simcore::rng::NormalFeed;
    use ntc_simcore::units::{DataSize, SimDuration, SimTime};

    use super::*;

    fn work(seed: u64) -> RngStream {
        RngStream::root(seed).derive("engine").derive("work")
    }

    /// `n` photo-pipeline jobs.
    fn jobs(n: u32) -> Arc<Vec<Job>> {
        let job = |i| Job {
            id: u64::from(i),
            archetype: Archetype::PhotoPipeline,
            arrival: SimTime::ZERO,
            input: DataSize::from_mib(1),
            slack: SimDuration::from_mins(1),
        };
        Arc::new((0..n).map(job).collect())
    }

    /// Every job heading its own four-slot batch.
    fn heads(jobs: &[Job]) -> impl Iterator<Item = (u32, usize)> {
        (0..jobs.len() as u32).map(|ji| (ji, 4))
    }

    /// Requires every slot of `jobs` to hold its component stream's draw.
    fn assert_drawn(table: &NoiseTable, jobs: &[Job], seed: u64) {
        for (ji, job) in jobs.iter().enumerate() {
            for c in 0..4 {
                let comp = ComponentId::from_index(c);
                let want = draw_noise(&work(seed), job, comp);
                let got = table.slot(ji as u32, comp);
                assert_eq!(got.to_bits(), want.to_bits(), "job {ji}, {comp}");
            }
        }
    }

    #[test]
    fn a_small_fill_is_drawn_before_start_returns() {
        let jobs = jobs(HANDOFF_SLOTS as u32 / 4 - 1);
        let mut table = NoiseTable::default();
        table.reset(jobs.len(), 4);
        let undrawn = table.mark(&jobs, heads(&jobs));
        assert_eq!(undrawn, HANDOFF_SLOTS - 4);
        table.draw(undrawn, work(3), &jobs, &mut NormalPump::with_helper());
        assert_eq!(table.drawn(), undrawn);
        assert_drawn(&table, &jobs, 3);
    }

    #[test]
    fn a_run_that_ends_before_the_helper_does_finishes_its_table() {
        let jobs = jobs(20_000);
        let mut pump = NormalPump::with_helper();
        let mut table = NoiseTable::default();
        table.reset(jobs.len(), 4);
        let undrawn = table.mark(&jobs, heads(&jobs));
        table.draw(undrawn, work(5), &jobs, &mut pump);
        // The run ends at once: its feed drops, and the helper stops
        // after at most the step it is in, far short of 80,000 slots.
        drop(NormalFeed::new(work(6), &mut pump));
        table.finish(&work(5), &jobs);
        assert_drawn(&table, &jobs, 5);
    }

    #[test]
    fn a_new_input_never_sees_an_old_jobs_writes() {
        let jobs = jobs(20_000);
        let mut pump = NormalPump::with_helper();
        let mut table = NoiseTable::default();
        table.reset(jobs.len(), 4);
        let undrawn = table.mark(&jobs, heads(&jobs));
        table.draw(undrawn, work(3), &jobs, &mut pump);
        // A weak reference, like the helper's job, makes the old slots
        // shared, so the reset below takes a fresh allocation whatever the
        // helper has done by then.
        let old = Arc::downgrade(&table.slots);
        table.reset(jobs.len(), 4);
        assert!(!std::ptr::eq(old.as_ptr(), Arc::as_ptr(&table.slots)), "reset in place");
        let start = Instant::now();
        while old.strong_count() > 0 {
            assert!(start.elapsed() < Duration::from_secs(60), "the helper kept the old table");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(table.drawn(), 0, "an old write landed in the new table");
        let undrawn = table.mark(&jobs, heads(&jobs));
        assert_eq!(undrawn, 4 * jobs.len());
        table.draw(undrawn, work(4), &jobs, &mut pump);
        table.finish(&work(4), &jobs);
        assert_drawn(&table, &jobs, 4);
    }
}
