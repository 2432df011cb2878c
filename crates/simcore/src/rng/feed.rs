//! One stream's standard normals, served in order from chunks that a
//! helper thread draws ahead of the reader, and a slot for one
//! background job that the same helper runs between those chunks.
//!
//! A [`NormalFeed`] owns a stream for one run and draws its first chunk
//! on the caller's thread. When the run asks for a second chunk, the
//! feed draws that one inline too, then hands the stream, at its current
//! position, to the [`NormalPump`] it borrows. The pump's helper thread
//! fills the following chunks from it while the run reads the second,
//! which hides the helper's wake-up: on a virtual machine's idle core
//! that takes hundreds of microseconds. The helper is the only thread
//! that draws from the stream after the hand-off, and chunks come back in
//! the order it filled them, so the feed serves exactly the values
//! [`RngStream::standard_normal`] would have, in order: moving the draws
//! to another core changes no bit of any result.
//!
//! The helper serves a second kind of work: a [`Background`] job that a
//! run hands over with [`NormalPump::background`] (the engine's
//! execution-noise fill, say). The helper runs it one short step at a
//! time and looks for commands before each step, so a chunk the feed
//! asks for waits for at most one step, never for the whole job. A job
//! may stop after any step, or never run: the pump does not say how far
//! it got, and drops it unrun when there is no helper or the helper has
//! not yet taken the job sent before it. So it suits work the reader can
//! do itself whenever it finds the job has not.
//!
//! A pump numbers its runs, and dropping a feed ends the current one:
//! the helper returns that run's outstanding buffers unfilled and drops
//! its background job before the next step, so a finished run costs the
//! helper at most the chunk or step it is in.
//!
//! A pump spawns its helper once, on the first hand-off, and only when
//! [`std::thread::available_parallelism`] reports more than one core.
//! Between runs the helper blocks on its command channel; dropping the
//! pump closes that channel and joins the thread. Without a helper (one
//! core, or a failed spawn) a feed draws every chunk inline.
//!
//! The pump owns every chunk buffer, allocates them on the reader's
//! thread and recycles them run after run, so the helper never
//! allocates for the feed. It hands out at most [`BUFFERS`] of them,
//! which bounds how far ahead the helper runs.

use std::mem;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use super::{Normals, RngStream};

/// Normals per chunk.
const CHUNK: usize = 1024;

/// Chunk buffers per pump: the feed reads one while the helper fills or
/// holds the others. Fifteen chunks ahead ride out the milliseconds an
/// idle virtual core can take to run the helper again; four often left
/// the reader waiting.
const BUFFERS: usize = 16;

/// Work a pump's helper runs between chunk fills: each call does one
/// short step and returns whether work remains.
pub type Background = Box<dyn FnMut() -> bool + Send>;

/// A message from the reader to the helper thread. `Start` and
/// `Background` carry the number of the run they belong to.
enum Command {
    /// Draw from this stream from now on.
    Start(RngStream, u64),
    /// Fill this buffer with the stream's next chunk and send it back.
    Fill(Vec<f64>),
    /// Run this job's steps while no other command waits.
    Background(Background, u64),
}

/// Draws the next chunk of `rng`'s normals into `buf`.
fn fill(buf: &mut Vec<f64>, rng: &mut RngStream) {
    buf.clear();
    buf.extend((0..CHUNK).map(|_| rng.standard_normal()));
}

/// The reader's ends of its two channels to the helper thread.
type Channels = (SyncSender<Command>, Receiver<Vec<f64>>);

/// The helper thread and the reader's channels to it.
#[derive(Debug)]
struct Helper {
    /// `None` only while the helper is being dropped: closing both
    /// channels ends the thread, whichever of them it waits on.
    channels: Option<Channels>,
    thread: Option<JoinHandle<()>>,
    /// Buffers sent with a `Fill` and not received back yet.
    outstanding: usize,
    /// The current run's number; only the reader changes it.
    run: Arc<AtomicU64>,
    /// Whether a `Background` command waits in the channel: set by the
    /// reader as it sends one, cleared by the helper as it takes it.
    job_queued: Arc<AtomicBool>,
    /// Chunks the helper has filled, so a test can see it stop.
    #[cfg(test)]
    filled: Arc<std::sync::atomic::AtomicUsize>,
    /// Dies with the thread's closure, so a test can see the thread end.
    #[cfg(test)]
    alive: std::sync::Weak<()>,
}

/// The helper thread's side: serves `commands` until the pump closes
/// the channel, sending filled buffers back on `chunks`.
struct Server {
    commands: Receiver<Command>,
    chunks: SyncSender<Vec<f64>>,
    run: Arc<AtomicU64>,
    job_queued: Arc<AtomicBool>,
    #[cfg(test)]
    filled: Arc<std::sync::atomic::AtomicUsize>,
}

impl Server {
    fn serve(self) {
        let mut stream = None;
        let mut job: Option<(Background, u64)> = None;
        loop {
            // Commands first; a job's next step only when none waits.
            let command = match &mut job {
                None => match self.commands.recv() {
                    Ok(command) => command,
                    // The pump dropped its sender.
                    Err(_) => return,
                },
                Some((step, run)) => match self.commands.try_recv() {
                    Ok(command) => command,
                    Err(TryRecvError::Empty) => {
                        if !self.current(*run) || !step() {
                            job = None;
                        }
                        continue;
                    }
                    Err(TryRecvError::Disconnected) => return,
                },
            };
            match command {
                Command::Start(rng, run) => stream = Some((rng, run)),
                Command::Fill(mut buf) => {
                    let (rng, run) = stream.as_mut().expect("the pump starts a stream first");
                    if self.current(*run) {
                        fill(&mut buf, rng);
                        #[cfg(test)]
                        self.filled.fetch_add(1, Ordering::SeqCst);
                    } else {
                        // The run that asked for it has ended.
                        buf.clear();
                    }
                    match self.chunks.try_send(buf) {
                        Ok(()) => {}
                        Err(TrySendError::Disconnected(_)) => return,
                        Err(TrySendError::Full(_)) => unreachable!("more than BUFFERS buffers"),
                    }
                }
                Command::Background(step, run) => {
                    self.job_queued.store(false, Ordering::SeqCst);
                    job = Some((step, run));
                }
            }
        }
    }

    /// Whether run `run` has not ended yet.
    fn current(&self, run: u64) -> bool {
        self.run.load(Ordering::SeqCst) == run
    }
}

impl Helper {
    /// Spawns the helper thread. The command channel holds every buffer
    /// the pump hands out plus one `Start` and one `Background`, and the
    /// chunk channel every buffer, so neither side ever waits to send: a
    /// full channel would mean lost count of the buffers, and panics
    /// rather than deadlocking the two threads.
    fn spawn() -> std::io::Result<Helper> {
        let (commands, command_rx) = mpsc::sync_channel::<Command>(BUFFERS + 2);
        let (chunk_tx, chunks) = mpsc::sync_channel(BUFFERS);
        let run = Arc::new(AtomicU64::new(0));
        let job_queued = Arc::new(AtomicBool::new(false));
        #[cfg(test)]
        let filled = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        #[cfg(test)]
        let marker = Arc::new(());
        #[cfg(test)]
        let alive = Arc::downgrade(&marker);
        let server = Server {
            commands: command_rx,
            chunks: chunk_tx,
            run: Arc::clone(&run),
            job_queued: Arc::clone(&job_queued),
            #[cfg(test)]
            filled: Arc::clone(&filled),
        };
        let thread = thread::Builder::new().name("ntc-normals".into()).spawn(move || {
            #[cfg(test)]
            let _marker = marker;
            server.serve();
        })?;
        Ok(Helper {
            channels: Some((commands, chunks)),
            thread: Some(thread),
            outstanding: 0,
            run,
            job_queued,
            #[cfg(test)]
            filled,
            #[cfg(test)]
            alive,
        })
    }

    fn channels(&self) -> &Channels {
        self.channels.as_ref().expect("the channels live as long as the helper")
    }

    /// The current run's number.
    fn run(&self) -> u64 {
        self.run.load(Ordering::SeqCst)
    }

    fn send(&mut self, command: Command) {
        if matches!(command, Command::Fill(_)) {
            self.outstanding += 1;
        }
        if self.channels().0.try_send(command).is_err() {
            panic!("the helper thread runs, with at most BUFFERS buffers out");
        }
    }

    /// The next chunk the helper filled, waiting for it if need be.
    fn recv(&mut self) -> Vec<f64> {
        let chunk = self.channels().1.recv().expect("the normal pump's helper thread stopped");
        self.outstanding -= 1;
        chunk
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        drop(self.channels.take());
        if let Some(thread) = self.thread.take() {
            // A helper that panicked has already failed the run that read
            // from it; a second panic here would abort.
            let _ = thread.join();
        }
    }
}

/// Whether a pump has a helper thread.
#[derive(Debug, Default)]
enum State {
    /// No run has handed the pump any work yet.
    #[default]
    Untried,
    /// One core, or the spawn failed: feeds draw inline.
    Inline,
    Running(Helper),
}

impl State {
    /// The helper, spawned now if this is the pump's first hand-off and
    /// there is a second core; `None` when work stays inline.
    fn helper(&mut self) -> Option<&mut Helper> {
        if let State::Untried = self {
            *self = if thread::available_parallelism().is_ok_and(|n| n.get() > 1) {
                Helper::spawn().map_or(State::Inline, State::Running)
            } else {
                State::Inline
            };
        }
        match self {
            State::Running(helper) => Some(helper),
            _ => None,
        }
    }
}

/// The helper thread that draws [`NormalFeed`] chunks and runs
/// [`Background`] jobs, and the chunk buffers it fills, kept across
/// runs.
///
/// Create one per long-lived owner (a run scratch, say) and lend it to
/// each run's feed. The thread is spawned on the first hand-off, idles
/// between runs and is joined when the pump drops.
#[derive(Debug, Default)]
pub struct NormalPump {
    state: State,
    /// Buffers on the reader's side.
    spare: Vec<Vec<f64>>,
}

impl NormalPump {
    /// Creates a pump with no thread and no buffers yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a pump that spawns its helper now, whatever
    /// [`available_parallelism`](std::thread::available_parallelism)
    /// reports (it draws inline only if the spawn fails), so that a test
    /// reaches the helper on a one-core host too.
    pub fn with_helper() -> Self {
        let state = Helper::spawn().map_or(State::Inline, State::Running);
        NormalPump { state, spare: Vec::new() }
    }

    /// Has the helper run `job`'s steps between chunk fills until it
    /// reports no work left or the current run ends (the run's feed
    /// drops), whichever comes first. Drops `job` unrun when there is no
    /// helper, or when the helper has not yet taken the last job sent
    /// (it has not run since), since the channel holds only one.
    pub fn background(&mut self, job: Background) {
        if let Some(helper) = self.state.helper() {
            if !helper.job_queued.swap(true, Ordering::SeqCst) {
                let run = helper.run();
                helper.send(Command::Background(job, run));
            }
        }
    }

    /// Ends the current run's work on the helper: its stream's
    /// outstanding buffers come back unfilled, and its background job
    /// stops before its next step. Never waits for the helper.
    fn cancel(&mut self) {
        if let State::Running(helper) = &self.state {
            helper.run.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Moves `rng` to the helper and has it fill every spare buffer, the
    /// reader keeping one. Hands `rng` back when there is no helper.
    fn start(&mut self, rng: RngStream) -> Result<(), RngStream> {
        let Some(helper) = self.state.helper() else {
            return Err(rng);
        };
        // Buffers still out from an earlier run belong to its stream;
        // that run's end had the helper return them unfilled.
        while helper.outstanding > 0 {
            self.spare.push(helper.recv());
        }
        let run = helper.run();
        helper.send(Command::Start(rng, run));
        while self.spare.len() < BUFFERS - 1 {
            self.spare.push(Vec::with_capacity(CHUNK));
        }
        for buf in self.spare.drain(..) {
            helper.send(Command::Fill(buf));
        }
        Ok(())
    }

    /// Recycles the spent `chunk` and replaces it with the helper's next.
    fn swap_chunk(&mut self, chunk: &mut Vec<f64>) {
        let State::Running(helper) = &mut self.state else {
            unreachable!("only a started feed swaps chunks");
        };
        helper.send(Command::Fill(mem::take(chunk)));
        *chunk = helper.recv();
    }
}

/// One stream's standard normals, in order, drawn inline for the first
/// two chunks and by a [`NormalPump`]'s helper after that.
///
/// # Examples
///
/// ```
/// use ntc_simcore::rng::{NormalFeed, NormalPump, Normals, RngStream};
///
/// let mut pump = NormalPump::new();
/// let mut feed = NormalFeed::new(RngStream::root(1).derive("net"), &mut pump);
/// let mut direct = RngStream::root(1).derive("net");
/// for _ in 0..5000 {
///     assert_eq!(feed.standard_normal().to_bits(), direct.standard_normal().to_bits());
/// }
/// ```
#[derive(Debug)]
pub struct NormalFeed<'p> {
    chunk: Vec<f64>,
    /// The next unread value of `chunk`.
    next: usize,
    /// The stream, while the feed draws inline; `None` once the helper
    /// has it.
    rng: Option<RngStream>,
    pump: &'p mut NormalPump,
}

impl<'p> NormalFeed<'p> {
    /// A feed of `rng`'s standard normals that hands its stream to
    /// `pump`'s helper once the run has asked for a second chunk.
    pub fn new(rng: RngStream, pump: &'p mut NormalPump) -> Self {
        let mut chunk = pump.spare.pop().unwrap_or_default();
        chunk.clear();
        NormalFeed { chunk, next: 0, rng: Some(rng), pump }
    }

    /// Makes `chunk` the stream's next chunk. The first two are drawn
    /// inline; after drawing the second, the feed hands the stream on, so
    /// the helper wakes and fills the third while the run reads the
    /// second.
    #[cold]
    #[inline(never)]
    fn refill(&mut self) {
        self.next = 0;
        let Some(mut rng) = self.rng.take() else {
            self.pump.swap_chunk(&mut self.chunk);
            return;
        };
        let second = !self.chunk.is_empty();
        fill(&mut self.chunk, &mut rng);
        self.rng = if second { self.pump.start(rng).err() } else { Some(rng) };
    }
}

impl Normals for NormalFeed<'_> {
    #[inline]
    fn standard_normal(&mut self) -> f64 {
        if self.next == self.chunk.len() {
            self.refill();
        }
        let z = self.chunk[self.next];
        self.next += 1;
        z
    }
}

impl Drop for NormalFeed<'_> {
    /// Keeps the feed's buffer for the pump's next run and ends the run
    /// on the helper, background job and all. Buffers the helper still
    /// holds come back unfilled at the next hand-off, so a drop never
    /// waits for the helper.
    fn drop(&mut self) {
        let chunk = mem::take(&mut self.chunk);
        if chunk.capacity() > 0 {
            self.pump.spare.push(chunk);
        }
        self.pump.cancel();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pump whose helper runs whatever the core count.
    fn pump_with_helper() -> NormalPump {
        let pump = NormalPump::with_helper();
        assert!(matches!(pump.state, State::Running(_)), "spawn the helper");
        pump
    }

    fn stream(name: &str) -> RngStream {
        RngStream::root(17).derive(name)
    }

    /// Draws `n` values from `feed` and the same stream directly and
    /// requires equal bits, in order.
    fn assert_serves(feed: &mut NormalFeed<'_>, direct: &mut RngStream, n: usize) {
        for i in 0..n {
            let (got, want) = (feed.standard_normal(), direct.standard_normal());
            assert_eq!(got.to_bits(), want.to_bits(), "draw {i}: {got} != {want}");
        }
    }

    fn helper(pump: &NormalPump) -> &Helper {
        match &pump.state {
            State::Running(helper) => helper,
            state => panic!("no helper: {state:?}"),
        }
    }

    #[test]
    fn a_feed_serves_its_stream_across_every_kind_of_chunk() {
        let mut pump = pump_with_helper();
        let mut direct = stream("a");
        {
            let mut feed = NormalFeed::new(stream("a"), &mut pump);
            // The inline chunks, the hand-off, every buffer filled once
            // and three recycled ones, then part of a chunk.
            assert_serves(&mut feed, &mut direct, CHUNK);
            assert!(feed.rng.is_some(), "the first chunk is drawn inline");
            assert_serves(&mut feed, &mut direct, 1);
            assert!(feed.rng.is_none(), "the second chunk hands the stream on");
            assert_serves(&mut feed, &mut direct, (BUFFERS + 3) * CHUNK + CHUNK / 3);
        }
        let held = helper(&pump).outstanding + pump.spare.len();
        assert_eq!(held, BUFFERS, "buffers are recycled, never added");
    }

    #[test]
    fn a_second_run_sees_no_chunk_of_the_first() {
        let mut pump = pump_with_helper();
        let mut feed = NormalFeed::new(stream("first"), &mut pump);
        assert_serves(&mut feed, &mut stream("first"), 2 * CHUNK + 5);
        drop(feed);
        assert!(helper(&pump).outstanding > 0, "the first stream's chunks are still out");
        let mut feed = NormalFeed::new(stream("second"), &mut pump);
        assert_serves(&mut feed, &mut stream("second"), (BUFFERS + 2) * CHUNK + 9);
    }

    #[test]
    fn without_a_helper_a_feed_draws_every_chunk_inline() {
        let mut pump = NormalPump { state: State::Inline, spare: Vec::new() };
        let mut feed = NormalFeed::new(stream("inline"), &mut pump);
        assert_serves(&mut feed, &mut stream("inline"), 3 * CHUNK + 1);
        assert!(feed.rng.is_some());
    }

    #[test]
    fn a_feeds_lognormal_is_the_streams_bit_for_bit() {
        let mut pump = pump_with_helper();
        let mut feed = NormalFeed::new(stream("logn"), &mut pump);
        let mut direct = stream("logn");
        let params = [(0.0, 0.0), (0.0, 0.1), (-1.5, 0.3), (2.0, 1.0), (0.5, 0.0)];
        for i in 0..100_000 {
            let (mu, sigma) = params[i % params.len()];
            let (got, want) = (feed.lognormal(mu, sigma), direct.lognormal(mu, sigma));
            assert_eq!(got.to_bits(), want.to_bits(), "draw {i}, lognormal({mu}, {sigma})");
        }
        // A negative sigma panics with the same message on either, before
        // drawing anything.
        let message = |r: std::thread::Result<f64>| match r {
            Ok(v) => panic!("lognormal(0, -1) returned {v}"),
            Err(e) => e.downcast_ref::<&str>().map(|s| s.to_string()).expect("a text payload"),
        };
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let from_feed = message(catch_unwind(AssertUnwindSafe(|| feed.lognormal(0.0, -1.0))));
        let from_stream = message(catch_unwind(AssertUnwindSafe(|| direct.lognormal(0.0, -1.0))));
        assert_eq!(from_feed, from_stream);
        assert_serves(&mut feed, &mut direct, 3);
    }

    #[test]
    fn dropping_a_feed_never_waits_for_the_helper() {
        let mut pump = pump_with_helper();
        drop(NormalFeed::new(stream("unread"), &mut pump));
        let mut feed = NormalFeed::new(stream("mid"), &mut pump);
        assert_serves(&mut feed, &mut stream("mid"), 3 * CHUNK + CHUNK / 2);
        drop(feed);
        let mut feed = NormalFeed::new(stream("after"), &mut pump);
        assert_serves(&mut feed, &mut stream("after"), 2 * CHUNK);
    }

    #[test]
    fn a_dropped_feed_stops_its_fills() {
        let mut pump = pump_with_helper();
        let mut feed = NormalFeed::new(stream("dropped"), &mut pump);
        // Past the second chunk: the stream and fifteen buffers are with
        // the helper.
        assert_serves(&mut feed, &mut stream("dropped"), CHUNK + 1);
        drop(feed);
        let helper = match &mut pump.state {
            State::Running(helper) => helper,
            state => panic!("no helper: {state:?}"),
        };
        let at_drop = helper.filled.load(Ordering::SeqCst);
        let mut back = Vec::new();
        while helper.outstanding > 0 {
            back.push(helper.recv());
        }
        let filled = helper.filled.load(Ordering::SeqCst);
        assert!(filled <= at_drop + 1, "{filled} chunks filled, {at_drop} at the drop");
        assert_eq!(back.iter().filter(|buf| !buf.is_empty()).count(), filled);
        pump.spare.append(&mut back);
        let mut feed = NormalFeed::new(stream("next"), &mut pump);
        assert_serves(&mut feed, &mut stream("next"), (BUFFERS + 2) * CHUNK + 7);
    }

    /// A background job that never ends and counts its steps; the weak
    /// marker dies when the helper drops the job.
    fn endless_job() -> (Background, Arc<std::sync::atomic::AtomicUsize>, std::sync::Weak<()>) {
        let steps = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let marker = Arc::new(());
        let alive = Arc::downgrade(&marker);
        let counter = Arc::clone(&steps);
        let job: Background = Box::new(move || {
            let _marker = &marker;
            counter.fetch_add(1, Ordering::SeqCst);
            true
        });
        (job, steps, alive)
    }

    #[test]
    fn chunks_are_served_between_a_jobs_steps_until_the_run_ends() {
        let mut pump = pump_with_helper();
        let (job, steps, alive) = endless_job();
        pump.background(job);
        let start = std::time::Instant::now();
        while steps.load(Ordering::SeqCst) == 0 {
            assert!(start.elapsed().as_secs() < 30, "the helper never ran the job");
            thread::yield_now();
        }
        let mut feed = NormalFeed::new(stream("busy"), &mut pump);
        // A chunk that queued behind the whole job would never come.
        assert_serves(&mut feed, &mut stream("busy"), (BUFFERS + 4) * CHUNK);
        drop(feed);
        // The helper drops the job, which never ends by itself, before
        // its next step.
        while alive.upgrade().is_some() {
            assert!(start.elapsed().as_secs() < 30, "the job outlived its run");
            thread::yield_now();
        }
    }

    #[test]
    fn without_a_helper_a_job_is_dropped_unrun() {
        let mut pump = NormalPump { state: State::Inline, spare: Vec::new() };
        let (job, steps, alive) = endless_job();
        pump.background(job);
        assert!(alive.upgrade().is_none(), "the pump kept the job");
        assert_eq!(steps.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_job_sent_before_the_helper_takes_the_last_is_dropped_unrun() {
        let mut pump = pump_with_helper();
        // Park the helper inside a job's step.
        let (release, gate) = mpsc::channel::<()>();
        let (parked, inside) = mpsc::channel();
        pump.background(Box::new(move || {
            let _ = parked.send(());
            let _ = gate.recv();
            false
        }));
        inside.recv().expect("the helper runs the job");
        let (queued, steps, _) = endless_job();
        pump.background(queued);
        // More jobs than the command channel holds: none waits for the
        // helper or overflows the channel.
        for _ in 0..2 * BUFFERS {
            let (job, _, alive) = endless_job();
            pump.background(job);
            assert!(alive.upgrade().is_none(), "a second job was queued");
        }
        drop(release);
        let start = std::time::Instant::now();
        while steps.load(Ordering::SeqCst) == 0 {
            assert!(start.elapsed().as_secs() < 30, "the helper never ran the queued job");
            thread::yield_now();
        }
        let mut feed = NormalFeed::new(stream("after"), &mut pump);
        assert_serves(&mut feed, &mut stream("after"), (BUFFERS + 2) * CHUNK);
    }

    #[test]
    fn dropping_the_pump_joins_its_thread() {
        let mut pump = pump_with_helper();
        let mut feed = NormalFeed::new(stream("join"), &mut pump);
        assert_serves(&mut feed, &mut stream("join"), 3 * CHUNK);
        drop(feed);
        let alive = helper(&pump).alive.clone();
        assert!(alive.upgrade().is_some());
        drop(pump);
        assert!(alive.upgrade().is_none(), "the helper thread outlived its pump");
    }
}
