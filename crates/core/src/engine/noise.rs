//! The execution-noise table: one slot per job and component, drawn once
//! per input and shared by every policy, retry and hedge, and the fill
//! that has the scratch's helper core draw it, in job order, from a
//! cursor that each run on the input resumes.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use ntc_simcore::rng::{NormalPump, RngStream};
use ntc_taskgraph::ComponentId;
use ntc_workloads::{Archetype, Job, StreamSpec};

use super::execute::component_key;

/// The bits of a slot not drawn yet: a `NaN`, where every drawn factor is
/// positive.
const UNDRAWN: u64 = f64::NAN.to_bits();

/// A remainder of fewer slots than this is left to the loop: at 0.2–0.3
/// µs a slot they take about as long as the median wake-up (203 µs) of an
/// idle virtual core measured for the `net` feed, so handing them off
/// would gain nothing.
const HANDOFF_SLOTS: usize = 1024;

/// Jobs per step of the helper's fill: at most 64 jobs' slots (45–80 µs
/// on `mixed_day`), so a `net` chunk the loop asks for waits at most that
/// long.
const STEP_JOBS: usize = 64;

/// Execution-to-execution noise of every (job, component) slot, drawn
/// once per input and shared by every policy, retry and hedge.
///
/// A batch's noise is keyed by its first member's id and the component
/// alone (the child stream [`component_key`] of `work`), so it is the
/// same value under every policy run on the input, whichever thread draws
/// it. The table therefore lives as long as the job stream it belongs
/// to: [`reset`](Self::reset) marks every slot not drawn whenever the
/// stream is regenerated. [`start`](Self::start) has the pump's helper
/// draw every job's slots from the table's cursor on, in job order,
/// until the run ends; the next run on the input resumes where it
/// stopped. [`get`](Self::get) draws a slot no thread has reached yet on
/// the spot. Two draws of one slot store the same bits, so it does not
/// matter which thread gets there first.
///
/// The helper's job shares the table and the jobs by `Arc`, and the
/// scratch writes to either only through [`unshared`]: while the helper
/// still holds an ended run's job, a new input goes into a fresh
/// allocation, so no write from an earlier input can land in the current
/// one.
#[derive(Debug, Default)]
pub(crate) struct NoiseTable {
    /// Shared with the helper's fill while one runs.
    shared: Arc<Slots>,
}

/// The slots of one input and how far the helper has drawn them.
#[derive(Debug, Default)]
struct Slots {
    /// Slots per job: the largest component count among the input's
    /// archetypes.
    stride: usize,
    /// Each archetype's component count in the input, by
    /// [`Archetype::index`].
    comps: [usize; Archetype::all().len()],
    /// Job `ji`'s component `c` at `ji * stride + c`; [`UNDRAWN`] until
    /// drawn, the factor's bits after. Read and written `Relaxed`: a slot
    /// publishes nothing but its own bits, and a reader that still sees
    /// [`UNDRAWN`] draws the same bits itself.
    slots: Vec<AtomicU64>,
    /// Every slot of the jobs before it is drawn. Only the helper moves
    /// it, storing it `Release` after a step's slots, so a thread that
    /// loads it `Acquire` sees those slots drawn.
    cursor: AtomicUsize,
}

impl Slots {
    /// Draws every slot not drawn yet of the next [`STEP_JOBS`] jobs from
    /// the cursor on and moves the cursor past them; returns whether jobs
    /// remain.
    fn step(&self, jobs: &[Job], work: &RngStream) -> bool {
        let from = self.cursor.load(Ordering::Relaxed);
        let to = jobs.len().min(from + STEP_JOBS);
        for (ji, job) in (from..to).zip(&jobs[from..to]) {
            let own = &self.slots[ji * self.stride..][..self.comps[job.archetype.index()]];
            for (c, slot) in own.iter().enumerate() {
                if slot.load(Ordering::Relaxed) == UNDRAWN {
                    draw_slot(slot, work, job, ComponentId::from_index(c));
                }
            }
        }
        self.cursor.store(to, Ordering::Release);
        to < jobs.len()
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
    /// Marks every slot of a new input of `jobs` jobs, generated from
    /// `specs`, not drawn.
    pub(crate) fn reset(&mut self, jobs: usize, specs: &[StreamSpec]) {
        let table = unshared(&mut self.shared);
        table.comps = Default::default();
        for spec in specs {
            table.comps[spec.archetype.index()] = spec.archetype.graph().len();
        }
        table.stride = table.comps.iter().copied().max().unwrap_or(0);
        table.slots.clear();
        table.slots.reserve_exact(jobs * table.stride);
        table.slots.extend((0..jobs * table.stride).map(|_| AtomicU64::new(UNDRAWN)));
        *table.cursor.get_mut() = 0;
    }

    /// Has `pump`'s helper draw every slot of `jobs` from `work`, from
    /// the cursor on, until the run ends. Sends nothing when fewer than
    /// [`HANDOFF_SLOTS`] slots remain past the cursor: those are left to
    /// [`get`](Self::get), as is every slot when the pump has no helper.
    pub(crate) fn start(&self, work: RngStream, jobs: &Arc<Vec<Job>>, pump: &mut NormalPump) {
        let table = &self.shared;
        let from = table.cursor.load(Ordering::Acquire);
        // Every job has a slot, so the first HANDOFF_SLOTS jobs decide.
        let remaining: usize = jobs[from..]
            .iter()
            .take(HANDOFF_SLOTS)
            .map(|job| table.comps[job.archetype.index()])
            .sum();
        if remaining < HANDOFF_SLOTS {
            return;
        }
        let (table, jobs) = (Arc::clone(table), Arc::clone(jobs));
        pump.background(Box::new(move || table.step(&jobs, &work)));
    }

    /// The noise of component `comp` of the batch whose first member is
    /// job `ji`, drawn now from `work` if no thread has drawn it yet.
    #[inline]
    pub(crate) fn get(&self, work: &RngStream, jobs: &[Job], ji: u32, comp: ComponentId) -> f64 {
        let slot = &self.shared.slots[ji as usize * self.shared.stride + comp.index()];
        match slot.load(Ordering::Relaxed) {
            UNDRAWN => draw_slot(slot, work, &jobs[ji as usize], comp),
            bits => f64::from_bits(bits),
        }
    }

    /// The raw slot of component `comp` of job `ji`: `NaN` if not drawn.
    #[cfg(test)]
    pub(crate) fn slot(&self, ji: u32, comp: ComponentId) -> f64 {
        let slot = &self.shared.slots[ji as usize * self.shared.stride + comp.index()];
        f64::from_bits(slot.load(Ordering::Acquire))
    }

    /// How many slots are drawn.
    #[cfg(test)]
    pub(crate) fn drawn(&self) -> usize {
        self.shared.slots.iter().filter(|slot| slot.load(Ordering::Acquire) != UNDRAWN).count()
    }
}

/// Draws `slot`, component `comp` of the batch headed by `first`. Out of
/// line, since the loop's thread calls it only for a slot the helper has
/// not reached yet.
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
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    use ntc_simcore::rng::NormalFeed;
    use ntc_simcore::units::{DataSize, SimDuration, SimTime};

    use super::*;

    fn work(seed: u64) -> RngStream {
        RngStream::root(seed).derive("engine").derive("work")
    }

    /// Photo pipelines, four components each.
    fn specs() -> [StreamSpec; 1] {
        [StreamSpec::poisson(Archetype::PhotoPipeline, 1.0)]
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

    /// A table reset for `jobs`.
    fn table(jobs: &[Job]) -> NoiseTable {
        let mut table = NoiseTable::default();
        table.reset(jobs.len(), &specs());
        assert_eq!(table.shared.stride, 4);
        table
    }

    fn cursor(table: &NoiseTable) -> usize {
        table.shared.cursor.load(Ordering::Acquire)
    }

    /// Waits, for at most a minute, until `done` holds.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let start = Instant::now();
        while !done() {
            assert!(start.elapsed() < Duration::from_secs(60), "{what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Parks `pump`'s helper inside a background step until the returned
    /// sender drops, so whatever is sent to it meanwhile stays queued.
    fn park(pump: &mut NormalPump) -> mpsc::Sender<()> {
        let (release, gate) = mpsc::channel::<()>();
        let (parked, inside) = mpsc::channel();
        pump.background(Box::new(move || {
            let _ = parked.send(());
            let _ = gate.recv();
            false
        }));
        inside.recv().expect("the pump has a helper");
        release
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
    fn a_remainder_below_the_handoff_is_left_to_the_loop() {
        let mut pump = NormalPump::with_helper();
        let parked = park(&mut pump);
        for (n, handed) in [(HANDOFF_SLOTS / 4 - 1, false), (HANDOFF_SLOTS / 4, true)] {
            let jobs = jobs(n as u32);
            let table = table(&jobs);
            table.start(work(3), &jobs, &mut pump);
            // A job sent to the parked helper holds its own references.
            assert_eq!(Arc::strong_count(&jobs) > 1, handed, "{n} jobs");
            assert_eq!(Arc::strong_count(&table.shared) > 1, handed, "{n} jobs");
            if !handed {
                for ji in 0..n as u32 {
                    for c in 0..4 {
                        table.get(&work(3), &jobs, ji, ComponentId::from_index(c));
                    }
                }
                assert_drawn(&table, &jobs, 3);
                assert_eq!(cursor(&table), 0, "only the helper moves the cursor");
            }
        }
        drop(parked);
    }

    #[test]
    fn a_complete_table_is_neither_handed_off_nor_scanned() {
        let jobs = jobs(20_000);
        let mut pump = NormalPump::with_helper();
        let mut table = table(&jobs);
        table.start(work(5), &jobs, &mut pump);
        wait_until("the helper never finished", || cursor(&table) == jobs.len());
        assert_drawn(&table, &jobs, 5);
        wait_until("the helper kept the job", || Arc::strong_count(&table.shared) == 1);
        // With its slots gone, any slot `start` loaded would panic here.
        Arc::get_mut(&mut table.shared).expect("unshared").slots.clear();
        let parked = park(&mut pump);
        table.start(work(5), &jobs, &mut pump);
        assert_eq!(Arc::strong_count(&jobs), 1, "a complete table was handed off");
        drop(parked);
        // Reset in place, with nothing shared: the fill starts over.
        table.reset(jobs.len(), &specs());
        assert_eq!((cursor(&table), table.drawn()), (0, 0));
    }

    #[test]
    fn a_run_cut_short_leaves_the_cursor_for_the_next_to_resume() {
        let jobs = jobs(20_000);
        let mut pump = NormalPump::with_helper();
        let table = table(&jobs);
        table.start(work(5), &jobs, &mut pump);
        wait_until("the helper never started", || cursor(&table) > 0);
        // The run ends: its feed drops, and the helper stops after the
        // step it is in, far short of 20,000 jobs.
        drop(NormalFeed::new(work(6), &mut pump));
        wait_until("the helper kept the job", || Arc::strong_count(&jobs) == 1);
        let cut = cursor(&table);
        assert!(0 < cut && cut < jobs.len(), "cut at {cut}");
        assert_eq!(table.drawn(), 4 * cut, "every slot before the cursor, none after");
        table.start(work(5), &jobs, &mut pump);
        wait_until("the helper never finished", || cursor(&table) == jobs.len());
        assert_drawn(&table, &jobs, 5);
    }

    #[test]
    fn a_new_input_never_sees_an_old_jobs_writes() {
        let jobs = jobs(20_000);
        let mut pump = NormalPump::with_helper();
        let mut table = table(&jobs);
        table.start(work(3), &jobs, &mut pump);
        // A weak reference, like the helper's job, makes the old slots
        // shared, so the reset below takes a fresh allocation whatever the
        // helper has done by then.
        let old = Arc::downgrade(&table.shared);
        table.reset(jobs.len(), &specs());
        assert!(!std::ptr::eq(old.as_ptr(), Arc::as_ptr(&table.shared)), "reset in place");
        wait_until("the helper kept the old table", || old.strong_count() == 0);
        assert_eq!(table.drawn(), 0, "an old write landed in the new table");
        assert_eq!(cursor(&table), 0);
        table.start(work(4), &jobs, &mut pump);
        wait_until("the helper never finished", || cursor(&table) == jobs.len());
        assert_drawn(&table, &jobs, 4);
    }
}
