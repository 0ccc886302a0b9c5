//! Deterministic event queue: the scheduler under the scalable media.
//!
//! A co-simulation that polls every node every slot does O(nodes) work
//! per slot whether anything happens or not, which caps it at toy
//! populations. The [`EventQueue`] inverts that: pending events (TX
//! end, frame arrival, backoff expiry, node wakeup) wait in time order,
//! and the simulation only ever touches the nodes named by the events
//! it pops. It is the standard library's binary heap keyed by
//! `(time, insertion order)`: O(log n) per schedule/pop, and n stays
//! small — a 64-node tile plus its in-flight frames.
//!
//! # Determinism contract
//!
//! [`pop`](EventQueue::pop) returns events in strictly non-decreasing
//! `(time, insertion order)` — two events at the same microsecond come
//! back in the order they were scheduled (FIFO), however far apart
//! their producers live in the grid. Every driver in this workspace
//! relies on that total order for byte-identical replays; the property
//! suite cross-checks it against a sorted reference model on random
//! schedules.
//!
//! Scheduling *in the past* (earlier than the last popped event) is
//! permitted and simply makes that event the next one out; time in the
//! queue never goes backwards on its own.
//!
//! # Example
//!
//! ```
//! use ulp_net::EventQueue;
//!
//! let mut queue: EventQueue<&str> = EventQueue::new();
//! queue.schedule(30, "arrival");
//! queue.schedule(10, "tx-end");
//! queue.schedule(10, "backoff");
//! assert_eq!(queue.pop(), Some((10, "tx-end")));   // earliest first
//! assert_eq!(queue.pop(), Some((10, "backoff")));  // FIFO within a tick
//! assert_eq!(queue.peek_time(), Some(30));
//! assert_eq!(queue.pop(), Some((30, "arrival")));
//! assert_eq!(queue.pop(), None);
//! ```

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled entry: time, FIFO tie-break sequence, payload.
#[derive(Debug, Clone)]
struct Entry<T> {
    at: u64,
    seq: u64,
    payload: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

/// Entries compare by `(at, seq)` alone, reversed: [`BinaryHeap`] is a
/// max-heap, so its top is then the earliest entry. `seq` is unique, so
/// the order is total and the payload never takes part.
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Entry<T> {}

/// Deterministic priority-queue scheduler. See the module docs above
/// for the ordering contract.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    /// Monotone insertion counter: the FIFO tie-break.
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.at)
    }

    /// Schedule `payload` at absolute time `at` (µs). Events share a
    /// total `(time, insertion order)` order; scheduling earlier than
    /// the last pop is allowed.
    pub fn schedule(&mut self, at: u64, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Remove and return the earliest `(time, payload)`; ties come back
    /// in scheduling order.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        self.heap.pop().map(|e| (e.at, e.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_testkit::{from_fn, prop_assert_eq, props, Rng};

    #[test]
    fn pops_in_time_order() {
        let mut w = EventQueue::new();
        for &t in &[50u64, 10, 30, 20, 40] {
            w.schedule(t, t);
        }
        let order: Vec<u64> = std::iter::from_fn(|| w.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut w = EventQueue::new();
        for i in 0..100u64 {
            w.schedule(7, i);
        }
        let order: Vec<u64> = std::iter::from_fn(|| w.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut w = EventQueue::new();
        w.schedule(500, 'a');
        w.schedule(100, 'b');
        assert_eq!(w.peek_time(), Some(100));
        assert_eq!(w.pop(), Some((100, 'b')));
        assert_eq!(w.peek_time(), Some(500));
        assert_eq!(w.pop(), Some((500, 'a')));
        assert_eq!(w.peek_time(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn scheduling_in_the_past_is_served_next() {
        let mut w = EventQueue::new();
        w.schedule(1_000, "late");
        w.schedule(2_000, "later");
        assert_eq!(w.pop(), Some((1_000, "late")));
        w.schedule(50, "past"); // earlier than the last pop
        assert_eq!(w.pop(), Some((50, "past")));
        assert_eq!(w.pop(), Some((2_000, "later")));
    }

    #[test]
    fn far_future_events_pop_in_order() {
        let mut w = EventQueue::new();
        w.schedule(0, 0u64);
        w.schedule(u64::MAX - 1, 1);
        w.schedule(u64::MAX, 2);
        assert_eq!(w.pop(), Some((0, 0)));
        assert_eq!(w.pop(), Some((u64::MAX - 1, 1)));
        assert_eq!(w.pop(), Some((u64::MAX, 2)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn grows_and_shrinks_without_losing_order() {
        let mut w = EventQueue::new();
        // Thousands of entries scheduled in reverse, then drained.
        for i in (0..10_000u64).rev() {
            w.schedule(i * 3, i);
        }
        for i in 0..10_000 {
            assert_eq!(w.pop(), Some((i * 3, i)));
        }
        assert!(w.is_empty());
    }

    props! {
        /// The load-bearing property: arbitrary interleavings of
        /// schedules and pops replay exactly like a sorted reference
        /// model — including duplicate times and past scheduling.
        #[test]
        fn random_interleavings_match_reference_model(
            seed in from_fn(|rng: &mut Rng| rng.next_u64())
        ) {
            let mut rng = Rng::from_seed(seed);
            let mut queue: EventQueue<u64> = EventQueue::new();
            let mut reference: Vec<(u64, u64)> = Vec::new(); // (time, seq)
            let mut seq = 0u64;
            let ops = rng.gen_range(1usize..200);
            for _ in 0..ops {
                if rng.gen_bool(0.6) || reference.is_empty() {
                    // Cluster times so duplicates are common.
                    let at = rng.gen_range(0u64..64) * rng.gen_range(1u64..1_000);
                    queue.schedule(at, seq);
                    reference.push((at, seq));
                    seq += 1;
                } else {
                    reference.sort_unstable(); // (time, seq) — the contract
                    let (at, id) = reference.remove(0);
                    prop_assert_eq!(queue.peek_time(), Some(at));
                    prop_assert_eq!(queue.pop(), Some((at, id)));
                }
                prop_assert_eq!(queue.len(), reference.len());
            }
            // Drain: the tail must come out in contract order too.
            reference.sort_unstable();
            for (at, id) in reference {
                prop_assert_eq!(queue.pop(), Some((at, id)));
            }
            prop_assert_eq!(queue.pop(), None);
        }
    }
}
