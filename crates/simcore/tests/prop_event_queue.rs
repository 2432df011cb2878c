//! Differential tests: the calendar [`EventQueue`] must agree with a
//! binary-heap oracle ([`HeapQueue`], the queue it replaced) on every
//! interleaving of pushes, pops and peeks — same pop order, including the
//! FIFO tie-break among same-time events.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use ntc_check::prelude::*;
use ntc_check::TestCaseError;

use ntc_simcore::event::EventQueue;
use ntc_simcore::units::SimTime;

struct HeapEntry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    // Reversed so the BinaryHeap (a max-heap) pops the earliest entry.
    fn cmp(&self, other: &Self) -> Ordering {
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A binary-heap event queue with [`EventQueue`]'s ordering contract:
/// pop returns the minimum `(time, push order)` entry.
struct HeapQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
}

impl<E> HeapQueue<E> {
    fn new() -> Self {
        HeapQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { time, seq, payload });
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[test]
fn matches_heap_reference_on_interleaved_ops() {
    // A quick deterministic differential check; the random versions
    // follow.
    let mut cal = EventQueue::new();
    let mut heap = HeapQueue::new();
    let mut x = 0x243f6a8885a308d3u64; // xorshift
    for round in 0..2000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let t = SimTime::from_micros(x % 50_000_000);
        cal.push(t, round);
        heap.push(t, round);
        if x.is_multiple_of(3) {
            assert_eq!(cal.pop(), heap.pop());
        }
        assert_eq!(cal.peek_time(), heap.peek_time());
        assert_eq!(cal.len(), heap.len());
    }
    while let Some(expect) = heap.pop() {
        assert_eq!(cal.pop(), Some(expect));
    }
    assert!(cal.is_empty());
}

/// Interprets `(sel, t)` pairs as a workload — `sel % 5 < 3` pushes an
/// event at `t`, anything else pops — and runs it against `cal` and a
/// fresh heap, asserting identical observable behaviour after every step.
fn check_on(cal: &mut EventQueue<usize>, ops: &[(u64, u64)]) -> Result<(), TestCaseError> {
    let mut heap = HeapQueue::new();
    for (i, &(sel, t)) in ops.iter().enumerate() {
        if sel % 5 < 3 {
            cal.push(SimTime::from_micros(t), i);
            heap.push(SimTime::from_micros(t), i);
        } else {
            prop_assert_eq!(cal.pop(), heap.pop(), "pop diverged at op {}", i);
        }
        prop_assert_eq!(cal.peek_time(), heap.peek_time(), "peek diverged at op {}", i);
        prop_assert_eq!(cal.len(), heap.len());
        prop_assert_eq!(cal.is_empty(), heap.is_empty());
    }
    // Drain both: the full residual order must match, not just prefixes.
    loop {
        let (a, b) = (cal.pop(), heap.pop());
        prop_assert_eq!(a, b, "drain diverged");
        if b.is_none() {
            break;
        }
    }
    Ok(())
}

fn check(ops: &[(u64, u64)]) -> Result<(), TestCaseError> {
    check_on(&mut EventQueue::new(), ops)
}

proptest! {
    /// Narrow time range: heavy same-time collisions stress the FIFO
    /// tie-break within a single calendar day.
    #[test]
    fn agrees_with_heap_under_dense_ties(
        ops in prop::collection::vec((0u64..100, 0u64..50), 1..400),
    ) {
        check(&ops)?;
    }

    /// A day-scale range with enough pushes to force several ring
    /// rebuilds and width re-derivations mid-workload.
    #[test]
    fn agrees_with_heap_across_rebuilds(
        ops in prop::collection::vec((0u64..100, 0u64..86_400_000_000), 1..600),
    ) {
        check(&ops)?;
    }

    /// Mixed magnitudes: mostly near-term events with occasional
    /// far-future outliers, the engine's actual schedule shape (dispatch
    /// horizon plus end-of-run pings), exercising the lap-fallback jump.
    #[test]
    fn agrees_with_heap_with_far_outliers(
        near in prop::collection::vec((0u64..100, 0u64..10_000_000), 1..300),
        far in prop::collection::vec(1_000_000_000_000u64..2_000_000_000_000, 0..5),
    ) {
        let mut all = near;
        for t in far {
            all.push((0, t)); // sel 0 => push
        }
        check(&all)?;
    }

    /// One queue reused after `clear()`, as `Simulator::reset` reuses it,
    /// on a second workload whose times are `scale` times wider (or
    /// narrower) than the first's. The width the first run left behind
    /// and any refit it prompts must not change the pop order.
    #[test]
    fn agrees_with_heap_when_reused_at_another_spacing(
        first in prop::collection::vec((0u64..100, 0u64..1_000_000), 1..600),
        second in prop::collection::vec((0u64..100, 0u64..1_000_000), 1..600),
        scale in 1u64..1_000,
        wider in any::<bool>(),
    ) {
        let mut cal = EventQueue::new();
        check_on(&mut cal, &first)?;
        cal.clear();
        let rescaled: Vec<(u64, u64)> = second
            .iter()
            .map(|&(sel, t)| (sel, if wider { t * scale } else { t / scale }))
            .collect();
        check_on(&mut cal, &rescaled)?;
    }
}
