//! One stream's standard normals, served in order from chunks that a
//! helper thread draws ahead of the reader.
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
//! A pump spawns its helper once, on the first hand-off, and only when
//! [`std::thread::available_parallelism`] reports more than one core.
//! Between runs the helper blocks on its command channel; dropping the
//! pump closes that channel and joins the thread. Without a helper (one
//! core, or a failed spawn) a feed draws every chunk inline.
//!
//! The pump owns every chunk buffer, allocates them on the reader's
//! thread and recycles them run after run, so the helper never
//! allocates. It hands out at most [`BUFFERS`] of them, which bounds how
//! far ahead the helper runs.

use std::mem;
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::thread::{self, JoinHandle};

use super::{Normals, RngStream};

/// Normals per chunk.
const CHUNK: usize = 1024;

/// Chunk buffers per pump: the feed reads one while the helper fills or
/// holds the others. Fifteen chunks ahead ride out the milliseconds an
/// idle virtual core can take to run the helper again; four often left
/// the reader waiting.
const BUFFERS: usize = 16;

/// A message from the reader to the helper thread.
#[derive(Debug)]
enum Command {
    /// Draw from this stream from now on.
    Start(RngStream),
    /// Fill this buffer with the stream's next chunk and send it back.
    Fill(Vec<f64>),
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
    /// Dies with the thread's closure, so a test can see the thread end.
    #[cfg(test)]
    alive: std::sync::Weak<()>,
}

impl Helper {
    /// Spawns the helper thread. Both channels hold every buffer the pump
    /// hands out (plus one `Start`), so neither side ever waits to send:
    /// a full channel would mean lost count of the buffers, and panics
    /// rather than deadlocking the two threads.
    fn spawn() -> std::io::Result<Helper> {
        let (commands, command_rx) = mpsc::sync_channel::<Command>(BUFFERS + 1);
        let (chunk_tx, chunks) = mpsc::sync_channel(BUFFERS);
        #[cfg(test)]
        let marker = std::sync::Arc::new(());
        #[cfg(test)]
        let alive = std::sync::Arc::downgrade(&marker);
        let thread = thread::Builder::new().name("ntc-normals".into()).spawn(move || {
            #[cfg(test)]
            let _marker = marker;
            let mut rng = None;
            // Ends when the pump drops its sender.
            for command in command_rx {
                match command {
                    Command::Start(stream) => rng = Some(stream),
                    Command::Fill(mut buf) => {
                        fill(&mut buf, rng.as_mut().expect("the pump starts a stream first"));
                        match chunk_tx.try_send(buf) {
                            Ok(()) => {}
                            Err(TrySendError::Disconnected(_)) => return,
                            Err(TrySendError::Full(_)) => unreachable!("more than BUFFERS buffers"),
                        }
                    }
                }
            }
        })?;
        Ok(Helper {
            channels: Some((commands, chunks)),
            thread: Some(thread),
            outstanding: 0,
            #[cfg(test)]
            alive,
        })
    }

    fn channels(&self) -> &Channels {
        self.channels.as_ref().expect("the channels live as long as the helper")
    }

    fn send(&mut self, command: Command) {
        if matches!(command, Command::Fill(_)) {
            self.outstanding += 1;
        }
        self.channels()
            .0
            .try_send(command)
            .expect("the helper thread runs, with at most BUFFERS buffers out");
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
    /// No feed has asked for a second chunk yet.
    #[default]
    Untried,
    /// One core, or the spawn failed: feeds draw inline.
    Inline,
    Running(Helper),
}

/// The helper thread that draws [`NormalFeed`] chunks, and the chunk
/// buffers it fills, kept across runs.
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

    /// Moves `rng` to the helper and has it fill every spare buffer, the
    /// reader keeping one. Hands `rng` back when there is no helper.
    fn start(&mut self, rng: RngStream) -> Result<(), RngStream> {
        if let State::Untried = self.state {
            self.state = if thread::available_parallelism().is_ok_and(|n| n.get() > 1) {
                Helper::spawn().map_or(State::Inline, State::Running)
            } else {
                State::Inline
            };
        }
        let State::Running(helper) = &mut self.state else {
            return Err(rng);
        };
        // Chunks still out from an earlier run belong to its stream.
        while helper.outstanding > 0 {
            self.spare.push(helper.recv());
        }
        helper.send(Command::Start(rng));
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
    /// Keeps the feed's buffer for the pump's next run. Buffers the
    /// helper still holds are taken back at the next hand-off, so a drop
    /// never waits for the helper.
    fn drop(&mut self) {
        let chunk = mem::take(&mut self.chunk);
        if chunk.capacity() > 0 {
            self.pump.spare.push(chunk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pump whose helper runs whatever the core count.
    fn pump_with_helper() -> NormalPump {
        let helper = Helper::spawn().expect("spawn the helper");
        NormalPump { state: State::Running(helper), spare: Vec::new() }
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
