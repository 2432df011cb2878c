//! Deterministic discrete-event scheduling.
//!
//! [`EventQueue`] is a time-ordered priority queue with a stable FIFO
//! tie-break: two events scheduled for the same instant pop in the order
//! they were pushed. [`Simulator`] wraps a queue with a virtual clock and
//! schedules every event a non-negative delay after its current instant,
//! so no event lands in the past.
//!
//! Internally the queue is a calendar queue — a ring of buckets indexed
//! by `time >> width_shift` — rather than a binary heap. Each bucket is a
//! list sorted by time and linked through one slot arena, so the queue
//! holds the peak number of pending events plus a head and a tail index
//! per bucket, and re-bucketing relinks slots in place. A slot stores no
//! push counter: a push links its entry after every entry whose time is
//! at or before its own, so each list keeps equal times in push order.
//! Two entries with equal times always share a day and so a bucket, and a
//! re-bucketing relinks each list in list order by the same rule, so it
//! keeps them in that order too. Pop therefore returns the entry a
//! `(time, push order)` heap would: the earliest, and among equal times
//! the first pushed. The heap survives in `tests/prop_event_queue.rs`, as
//! the oracle the differential tests check the calendar against.
//!
//! A push walks its bucket's list to its place, which is O(1) when it is
//! at or after everything already there. A pop reads one list head per day
//! from the cursor until it reaches the earliest day. Both are O(1)
//! amortised only while the bucket width fits the spacing of the entries
//! near the clock: too narrow and pops step through empty days, too wide
//! and pushes walk crowded lists. The width is re-derived
//!
//! * when the ring doubles, which it does once the queue holds more than
//!   two entries per bucket: from the whole population's time span; and
//! * when the queue says it is wrong: if the days plus entries examined
//!   by pops and pushes average more than 8 per pop over a window of 256
//!   pops, the width is refit to the spacing of the nearest quarter of
//!   the pending entries. A refit waits until the scanning since the last
//!   one has cost as much as a refit does, and one that gives the current
//!   width moves nothing.
//!
//! The engine's schedules — a dense near-monotone head, plus completions
//! that an overloaded site pushes up to a day ahead — examine about four
//! days plus entries per pop once fitted.
//!
//! # Examples
//!
//! ```
//! use ntc_simcore::event::Simulator;
//! use ntc_simcore::units::SimDuration;
//!
//! let mut sim = Simulator::new();
//! sim.schedule_after(SimDuration::from_secs(2), "second");
//! sim.schedule_after(SimDuration::from_secs(1), "first");
//! assert_eq!(sim.step().unwrap().1, "first");
//! assert_eq!(sim.step().unwrap().1, "second");
//! assert_eq!(sim.now().as_secs_f64(), 2.0);
//! ```

use core::fmt;

use crate::units::{SimDuration, SimTime};

/// Marks the end of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

/// The part of an arena slot that list walks read: the event time and the
/// next slot in the same bucket list, or in the free list once spent.
/// Packed to 4-byte alignment, it is 12 bytes rather than 16; its fields
/// are read and written by value, never borrowed.
#[repr(C, packed(4))]
#[derive(Clone, Copy)]
struct Link {
    time: SimTime,
    next: u32,
}

const _: () = assert!(size_of::<Link>() == 12);

/// Buckets the queue starts with; grows by doubling as the population does.
const INITIAL_BUCKETS: usize = 16;
/// Hard ceiling on the ring size (2^20 buckets, 8 MiB of list heads and
/// tails).
const MAX_BUCKETS: usize = 1 << 20;
/// Starting bucket width of 2^17 µs ≈ 131 ms; rebuilds re-derive it.
const INITIAL_WIDTH_SHIFT: u32 = 17;
/// Widest bucket the queue uses: 2^40 µs ≈ 12.7 days.
const MAX_WIDTH_SHIFT: u32 = 40;
/// Pops per scan-cost window.
const COST_WINDOW: u64 = 256;
/// Mean days plus entries examined per pop above which a window says the
/// bucket width is wrong. A well-fitted ring examines one or two of each.
const MAX_MEAN_COST: u64 = 8;
/// A refit spaces the nearest `len / HEAD_DIVISOR` entries about one per
/// day.
const HEAD_DIVISOR: usize = 4;

/// The scan cost of recent pops, which decides when to refit the width.
#[derive(Debug, Clone, Copy, Default)]
struct ScanMeter {
    /// Pops in the current window.
    pops: u64,
    /// Days and entries examined by pops and pushes in the current window.
    cost: u64,
    /// Days and entries examined since the last rebuild or refit. A refit
    /// waits until this has paid for one, so refits cost at most as much
    /// as the scanning that prompted them.
    since_rebuild: u64,
    /// Days and entries examined since the queue was created or cleared.
    total: u64,
}

impl ScanMeter {
    /// Charges one pop or push. Its share of the window is capped at
    /// [`COST_WINDOW`], so one outlier (a lap across a long idle gap)
    /// cannot condemn a window, while a run of them still does.
    fn charge(&mut self, cost: u64) {
        self.cost += cost.min(COST_WINDOW);
        self.since_rebuild += cost;
        self.total += cost;
    }
}

/// A time-ordered event queue with stable FIFO ordering among equal-time
/// events.
///
/// The queue itself has no clock; see [`Simulator`] for a clocked wrapper.
pub struct EventQueue<E> {
    /// Ring of bucket lists; an entry with day `d = time >> width_shift`
    /// is linked into the list headed at `heads[d & mask]`. Each list is
    /// sorted by time, equal times in push order, so its head is its
    /// earliest entry.
    heads: Vec<u32>,
    /// The last slot of each bucket list, or [`NIL`], so a push at or
    /// after everything in its bucket appends without walking the list.
    tails: Vec<u32>,
    /// Arena every list links into, split into `links` and `payloads`
    /// with one entry per slot each; a payload is `None` once spent. Spent
    /// slots are reused before it grows, so it holds at most the peak
    /// number of pending events, and re-bucketing relinks slots without
    /// moving them.
    links: Vec<Link>,
    payloads: Vec<Option<E>>,
    /// Head of the free list of spent slots.
    free: u32,
    /// `heads.len() - 1`; the ring size is always a power of two.
    mask: usize,
    /// Bucket width is `1 << width_shift` microseconds, so the day of an
    /// entry is a single shift — exact, no float rounding.
    width_shift: u32,
    /// The day the next pop starts scanning from. Only ever behind (or at)
    /// the true minimum day: pushes below it pull it back, pops advance it
    /// one verified-empty day at a time.
    cursor_day: u64,
    len: usize,
    meter: ScanMeter,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Arena bytes per pending event: a slot's time and link plus its
    /// payload. The ring's head and tail indices come on top, 8 bytes per
    /// bucket.
    pub const BYTES_PER_EVENT: usize = size_of::<Link>() + size_of::<Option<E>>();

    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heads: vec![NIL; INITIAL_BUCKETS],
            tails: vec![NIL; INITIAL_BUCKETS],
            links: Vec::new(),
            payloads: Vec::new(),
            free: NIL,
            mask: INITIAL_BUCKETS - 1,
            width_shift: INITIAL_WIDTH_SHIFT,
            cursor_day: 0,
            len: 0,
            meter: ScanMeter::default(),
        }
    }

    #[inline]
    fn day_of(&self, time: SimTime) -> u64 {
        time.as_micros() >> self.width_shift
    }

    /// The times of every pending entry, in arena order.
    fn pending(&self) -> impl Iterator<Item = SimTime> + '_ {
        self.links.iter().zip(&self.payloads).filter(|(_, p)| p.is_some()).map(|(l, _)| l.time)
    }

    /// Whether slot `a` goes after slot `b` in a list: at the same time or
    /// later. Linking a slot after every entry it goes after keeps equal
    /// times in the order they were linked.
    fn after(&self, a: u32, b: u32) -> bool {
        let (a, b) = (self.links[a as usize].time, self.links[b as usize].time);
        a >= b
    }

    /// Links `slot` into its bucket's list after every entry at or before
    /// its time; returns how many entries it examined.
    fn link(&mut self, slot: u32) -> u64 {
        let bucket = (self.day_of(self.links[slot as usize].time) as usize) & self.mask;
        let tail = self.tails[bucket];
        let (prev, at, examined) = if tail == NIL {
            (NIL, NIL, 0)
        } else if self.after(slot, tail) {
            (tail, NIL, 1)
        } else {
            let (mut prev, mut at) = (NIL, self.heads[bucket]);
            let mut examined = 1;
            while self.after(slot, at) {
                (prev, at) = (at, self.links[at as usize].next);
                examined += 1;
            }
            (prev, at, examined)
        };
        self.links[slot as usize].next = at;
        if prev == NIL {
            self.heads[bucket] = slot;
        } else {
            self.links[prev as usize].next = slot;
        }
        if at == NIL {
            self.tails[bucket] = slot;
        }
        examined
    }

    /// Makes room for at least `additional` more pending events than the
    /// queue holds now, so that many pushes allocate nothing. The arena is
    /// sized exactly, rather than doubled up to a power of two as pushes
    /// grow it.
    pub fn reserve(&mut self, additional: usize) {
        let more = (self.len + additional).saturating_sub(self.links.len());
        self.links.reserve_exact(more);
        self.payloads.reserve_exact(more);
    }

    /// Bytes the queue has reserved: its arena's capacity in slots, each
    /// a time, a link and a payload, plus its ring's head and tail indices.
    pub fn reserved_bytes(&self) -> usize {
        self.links.capacity() * size_of::<Link>()
            + self.payloads.capacity() * size_of::<Option<E>>()
            + (self.heads.capacity() + self.tails.capacity()) * size_of::<u32>()
    }

    /// Schedules `payload` to fire at `time`.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let day = self.day_of(time);
        if self.len == 0 || day < self.cursor_day {
            self.cursor_day = day;
        }
        let link = Link { time, next: NIL };
        let slot = if self.free == NIL {
            let slot = u32::try_from(self.links.len())
                .ok()
                .filter(|&slot| slot != NIL)
                .expect("fewer than 2^32 - 1 pending events");
            self.links.push(link);
            self.payloads.push(Some(payload));
            slot
        } else {
            let slot = self.free;
            self.free = self.links[slot as usize].next;
            self.links[slot as usize] = link;
            self.payloads[slot as usize] = Some(payload);
            slot
        };
        let examined = self.link(slot);
        self.meter.charge(examined);
        self.len += 1;
        if self.len > self.heads.len() * 2 && self.heads.len() < MAX_BUCKETS {
            self.grow();
        }
    }

    /// Doubles the ring and re-derives the bucket width so the current
    /// population averages about one entry per day.
    fn grow(&mut self) {
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for time in self.pending() {
            lo = lo.min(time.as_micros());
            hi = hi.max(time.as_micros());
        }
        let target = ((hi - lo) / self.len as u64).max(1);
        // Round the per-event spacing down to a power of two.
        let shift = target.ilog2().min(MAX_WIDTH_SHIFT);
        self.relayout(self.heads.len() * 2, shift, lo >> shift);
    }

    /// Re-lays the ring out as `size` buckets of width `1 << shift` by
    /// relinking every slot into its new bucket's list, in list order.
    /// Slots stay where they are and nothing is allocated beyond the larger
    /// ring. Layout-only: equal times share one list before and after, and
    /// relinking in list order keeps them in push order, so pop order is
    /// unchanged. `cursor_day` must not exceed the minimum
    /// entry's new day.
    fn relayout(&mut self, size: usize, shift: u32, cursor_day: u64) {
        debug_assert!(size.is_power_of_two() && size >= self.heads.len());
        self.heads.resize(size, NIL);
        self.tails.resize(size, NIL);
        self.mask = size - 1;
        self.width_shift = shift;
        self.cursor_day = cursor_day;
        for bucket in 0..size {
            // A slot relinked into a later bucket is relinked again, into
            // the same bucket, when that bucket's turn comes.
            let mut at = core::mem::replace(&mut self.heads[bucket], NIL);
            self.tails[bucket] = NIL;
            while at != NIL {
                let next = self.links[at as usize].next;
                self.link(at);
                at = next;
            }
        }
        self.meter.since_rebuild = 0;
    }

    /// Locates the earliest entry, the first pushed among equal times,
    /// without mutating anything:
    /// returns `(bucket, day, cost)`, where the entry heads `bucket` and
    /// `cost` counts the days and entries examined. Scans forward from the
    /// cursor one day at a time, reading only each day's list head; after
    /// a whole lap of verified-empty days it jumps straight to the true
    /// minimum day.
    fn find_min(&self) -> Option<(usize, u64, u64)> {
        if self.len == 0 {
            return None;
        }
        let mut day = self.cursor_day;
        let mut laps = 0usize;
        let mut cost = 0u64;
        loop {
            let bucket = (day as usize) & self.mask;
            let head = self.heads[bucket];
            cost += 1 + u64::from(head != NIL);
            // No entry precedes the cursor, so the list holds `day`'s
            // entries iff its earliest entry is on `day`.
            if head != NIL && self.day_of(self.links[head as usize].time) == day {
                return Some((bucket, day, cost));
            }
            day += 1;
            laps += 1;
            if laps == self.heads.len() {
                // A full lap saw nothing: the next event is more than a
                // ring-revolution ahead. Find its day directly.
                day = self
                    .heads
                    .iter()
                    .filter(|&&head| head != NIL)
                    .map(|&head| self.day_of(self.links[head as usize].time))
                    .min()
                    .expect("len > 0");
                cost += self.heads.len() as u64;
                laps = 0;
            }
        }
    }

    /// The instant of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.find_min().map(|(bucket, _, _)| self.links[self.heads[bucket] as usize].time)
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (bucket, day, cost) = self.find_min()?;
        // Parking the cursor on the popped entry's day keeps the next scan
        // O(1) for the monotone common case.
        self.cursor_day = day;
        let slot = self.heads[bucket];
        let Link { time, next } = self.links[slot as usize];
        self.links[slot as usize].next = self.free;
        self.heads[bucket] = next;
        if next == NIL {
            self.tails[bucket] = NIL;
        }
        self.free = slot;
        let payload = self.payloads[slot as usize].take().expect("a linked slot holds a payload");
        self.len -= 1;
        self.meter_pop(time, cost);
        Some((time, payload))
    }

    /// Charges one pop's scan cost to the meter. A window closes after
    /// [`COST_WINDOW`] pops, or as soon as its cost alone proves its mean
    /// too high. If the mean exceeded [`MAX_MEAN_COST`], the width is refit
    /// to the live population, once the scanning since the last refit or
    /// rebuild has cost as much as a rebuild does. A refit that gives the
    /// current width moves nothing.
    fn meter_pop(&mut self, now: SimTime, cost: u64) {
        let m = &mut self.meter;
        m.pops += 1;
        m.charge(cost);
        if m.pops < COST_WINDOW && m.cost <= COST_WINDOW * MAX_MEAN_COST {
            return;
        }
        let too_costly = m.cost > m.pops * MAX_MEAN_COST;
        let paid = m.since_rebuild >= (self.len + self.heads.len()) as u64;
        m.pops = 0;
        m.cost = 0;
        if too_costly && paid && self.len > 0 {
            // The estimate is itself a pass over the ring: charge it too.
            m.since_rebuild = 0;
            let shift = self.head_width_shift(now);
            if shift != self.width_shift {
                self.relayout(self.heads.len(), shift, now.as_micros() >> shift);
            }
        }
    }

    /// The width shift that spaces the nearest quarter of the entries
    /// ([`HEAD_DIVISOR`]) about one per day, given that none precedes
    /// `now`. Fitting the near entries rather than the whole span keeps a
    /// far-future tail from widening the days the clock is about to scan;
    /// the tail only shares buckets, behind the near entries in each list.
    fn head_width_shift(&self, now: SimTime) -> u32 {
        // octaves[k]: entries whose offset from `now` has bit length k, so
        // the first k+1 octaves hold every entry less than 2^k µs out.
        let mut octaves = [0usize; 65];
        for time in self.pending() {
            let offset = time.as_micros() - now.as_micros();
            octaves[(u64::BITS - offset.leading_zeros()) as usize] += 1;
        }
        let want = (self.len / HEAD_DIVISOR).max(1);
        let mut seen = 0;
        for (k, &n) in octaves.iter().enumerate() {
            seen += n;
            if seen >= want {
                let spacing = (1u64 << k.min(63)) / seen as u64;
                return spacing.max(1).ilog2().min(MAX_WIDTH_SHIFT);
            }
        }
        unreachable!("the octaves hold all {} entries", self.len)
    }

    /// The number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all pending events, keeping the ring, the arena's capacity
    /// and the bucket width for reuse. The width is refit once pops show it
    /// is wrong for the new population.
    pub fn clear(&mut self) {
        self.heads.fill(NIL);
        self.tails.fill(NIL);
        self.links.clear();
        self.payloads.clear();
        self.free = NIL;
        self.len = 0;
        self.cursor_day = 0;
        self.meter = ScanMeter::default();
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len)
            .field("buckets", &self.heads.len())
            .field("next_time", &self.peek_time())
            .finish()
    }
}

/// A virtual clock driving an [`EventQueue`].
///
/// Popping an event advances the clock to the event's instant; an event is
/// scheduled a delay after the current instant, so none can rewrite
/// history.
#[derive(Debug)]
pub struct Simulator<E> {
    queue: EventQueue<E>,
    now: SimTime,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// Creates a simulator with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Simulator { queue: EventQueue::new(), now: SimTime::ZERO }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Rewinds the clock to [`SimTime::ZERO`] and drops all pending
    /// events, keeping the queue's allocated capacity — the reuse hook that
    /// lets a run scratch avoid re-growing the calendar every replication.
    ///
    /// A reset simulator pops events in exactly the order a fresh one
    /// would. Its bucket layout differs: it keeps the ring size and bucket
    /// width of the previous run, so its first pops can scan more or less
    /// than a fresh simulator's until the width is refit to the new
    /// schedule (see the module docs).
    pub fn reset(&mut self) {
        self.queue.clear();
        self.now = SimTime::ZERO;
    }

    /// Makes room for at least `additional` more pending events; see
    /// [`EventQueue::reserve`].
    pub fn reserve(&mut self, additional: usize) {
        self.queue.reserve(additional);
    }

    /// Bytes the calendar has reserved; see [`EventQueue::reserved_bytes`].
    pub fn reserved_bytes(&self) -> usize {
        self.queue.reserved_bytes()
    }

    /// Schedules `payload` to fire `delay` after the current instant.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) {
        let at = self.now + delay;
        self.queue.push(at, payload);
    }

    /// Pops the next event, advancing the clock to its instant.
    ///
    /// Returns `None` when no events remain.
    pub fn step(&mut self) -> Option<(SimTime, E)> {
        let (time, payload) = self.queue.pop()?;
        debug_assert!(time >= self.now, "event queue yielded an event from the past");
        self.now = time;
        Some((time, payload))
    }

    /// The instant of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// The number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn growth_keeps_ordering_under_wide_time_spans() {
        // Enough entries to force several rebuilds, spanning microseconds
        // to days so the width re-derivation is exercised.
        let mut q = EventQueue::new();
        let n = 5000u64;
        for i in 0..n {
            let t = (i * 2_654_435_761) % 86_400_000_000; // scattered over 24h
            q.push(SimTime::from_micros(t), i);
        }
        let mut last = (SimTime::ZERO, 0u64);
        let mut popped = 0;
        while let Some((t, i)) = q.pop() {
            assert!((t, i) >= last || popped == 0, "out of order at {popped}");
            last = (t, i);
            popped += 1;
        }
        assert_eq!(popped, n);
    }

    #[test]
    fn far_future_gap_is_bridged() {
        // One event a year ahead of everything else: the lap fallback must
        // find it rather than spin through empty days.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), "near");
        q.push(SimTime::from_hours(24 * 365), "far");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "far");
        assert_eq!(q.pop(), None);
    }

    /// Asserts that `popped` is in time order and, among equal times, in
    /// push order, where each payload is its push's position.
    fn assert_fifo(popped: &[(SimTime, u64)]) {
        for (i, w) in popped.windows(2).enumerate() {
            let ((ta, a), (tb, b)) = (w[0], w[1]);
            assert!(ta < tb || ta == tb && a < b, "pop {i}: ({ta:?}, {a}) then ({tb:?}, {b})");
        }
    }

    #[test]
    fn equal_time_bursts_pop_in_push_order_across_relayouts() {
        let mut q = EventQueue::new();
        let mut order = 0u64;
        let mut push = |q: &mut EventQueue<u64>, t: SimTime| {
            q.push(t, order);
            order += 1;
        };

        // Across ring growth: 64 instants, 8 pushes each, every burst
        // interleaved with the others', grow the ring from 16 to 256
        // buckets while the bursts are half pushed.
        for round in 0..8 {
            for k in 0..64u64 {
                push(&mut q, SimTime::from_millis((k * 37 + round) % 64 * 250));
            }
        }
        assert_eq!(q.heads.len(), 256);
        let popped: Vec<_> = core::iter::from_fn(|| q.pop()).collect();
        assert_eq!(popped.len(), 512);
        assert_fifo(&popped);

        // Across a width refit: a dense head 1 ms apart, each pop of which
        // pushes a finish onto one of 256 instants 2.5 s apart, so every
        // instant collects a burst of 16 while the ring is refit away from
        // the head's width.
        for i in 0..4096 {
            push(&mut q, SimTime::from_millis(i));
        }
        let (buckets, head_shift) = (q.heads.len(), q.width_shift);
        let mut popped = Vec::new();
        let mut tail = 0u64;
        while let Some(e) = q.pop() {
            popped.push(e);
            if tail < 4096 {
                push(
                    &mut q,
                    SimTime::from_secs(40) + SimDuration::from_millis(tail * 97 % 256 * 2500),
                );
                tail += 1;
            }
        }
        assert_eq!(q.heads.len(), buckets, "no ring growth here");
        assert_ne!(q.width_shift, head_shift, "the tail was refit");
        assert_eq!(popped.len(), 8192);
        assert_fifo(&popped);

        // After `clear`: the reused ring and arena keep bursts in order.
        for i in 0..100 {
            push(&mut q, SimTime::from_secs(i));
        }
        q.clear();
        for round in 0..4 {
            for k in 0..50u64 {
                push(&mut q, SimTime::from_secs((k * 7 + round) % 50));
            }
        }
        let popped: Vec<_> = core::iter::from_fn(|| q.pop()).collect();
        assert_eq!(popped.len(), 200);
        assert_fifo(&popped);
    }

    /// Pops every event, pushing an event at `follow(popped time)` after
    /// each pop that returns one, and returns the days plus entries each
    /// pop and the push that follows it examined.
    fn scan_costs(
        q: &mut EventQueue<()>,
        mut follow: impl FnMut(SimTime) -> Option<SimTime>,
    ) -> Vec<u64> {
        let mut costs = Vec::new();
        let mut before = q.meter.total;
        while let Some((t, ())) = q.pop() {
            if let Some(at) = follow(t) {
                q.push(at, ());
            }
            costs.push(q.meter.total - before);
            before = q.meter.total;
        }
        costs
    }

    fn mean(costs: &[u64]) -> f64 {
        costs.iter().sum::<u64>() as f64 / costs.len() as f64
    }

    #[test]
    fn scan_cost_stays_bounded_when_the_schedule_shifts() {
        // Bimodal: a dense head, 1 ms apart, each of whose events schedules
        // a finish on a 2.5 s grid reaching 1e5 s out, as an overloaded
        // site's backlog does. Once the head drains, the width fitted to it
        // is 5000 times too narrow for the tail.
        let n = 40_000u64;
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(SimTime::from_millis(i), ());
        }
        let mut pushed = 0u64;
        let bimodal = scan_costs(&mut q, |_| {
            (pushed < n).then(|| {
                pushed += 1;
                let slot = (pushed * 7_919) % n;
                SimTime::from_secs(40) + SimDuration::from_millis(2_500 * slot)
            })
        });

        // Reuse: a queue fitted to 1 ms spacing, cleared, then given a
        // schedule 100 times sparser. After a refit it must scan as little
        // as a fresh queue does on that schedule.
        let sparse = |q: &mut EventQueue<()>| {
            for i in 0..20_000 {
                q.push(SimTime::from_millis(100 * i), ());
            }
            scan_costs(q, |_| None)
        };
        let mut q = EventQueue::new();
        for i in 0..20_000 {
            q.push(SimTime::from_millis(i), ());
        }
        scan_costs(&mut q, |_| None);
        q.clear();
        let reused = sparse(&mut q);
        let fresh = sparse(&mut EventQueue::new());
        let (reused_late, fresh_late) = (mean(&reused[10_000..]), mean(&fresh[10_000..]));

        // Refits wait until the scanning has paid for one, so the waste
        // before a refit lifts the whole-run means a little above what a
        // fitted ring scans (about 3.5), but not past the refit threshold.
        let bound = MAX_MEAN_COST as f64;
        assert!(mean(&bimodal) <= bound, "bimodal: {:.1} per pop", mean(&bimodal));
        assert!(mean(&reused) <= bound, "reused: {:.1} per pop", mean(&reused));
        assert!(reused_late <= fresh_late + 0.5, "reused {reused_late:.2}, fresh {fresh_late:.2}");
    }

    #[test]
    fn clear_resets_for_reuse() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_secs(i), i);
        }
        q.clear();
        assert!(q.is_empty());
        q.push(SimTime::from_secs(2), 0u64);
        q.push(SimTime::from_secs(2), 1u64);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), 0)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), 1)));
    }

    #[test]
    fn simulator_advances_clock() {
        let mut sim = Simulator::new();
        sim.schedule_after(SimDuration::from_secs(10), ());
        assert_eq!(sim.now(), SimTime::ZERO);
        sim.step();
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    fn reset_behaves_like_fresh() {
        let mut sim = Simulator::new();
        sim.schedule_after(SimDuration::from_secs(5), 1u8);
        sim.schedule_after(SimDuration::from_secs(9), 2u8);
        sim.step();
        sim.reset();
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.pending(), 0);
        sim.schedule_after(SimDuration::from_secs(1), 3u8);
        assert_eq!(sim.step(), Some((SimTime::from_secs(1), 3u8)));
    }

    #[test]
    fn debug_is_nonempty() {
        let q: EventQueue<u8> = EventQueue::new();
        assert!(!format!("{q:?}").is_empty());
    }
}
