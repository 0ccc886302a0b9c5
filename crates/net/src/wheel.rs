//! Calendar-queue event wheel: the scheduler under the scalable media.
//!
//! A co-simulation that polls every node every slot does O(nodes) work
//! per slot whether anything happens or not, which caps it at toy
//! populations. The [`EventWheel`] inverts that: pending events (TX
//! end, frame arrival, backoff expiry, node wakeup) are bucketed by
//! time, and the simulation only ever touches the nodes named by the
//! events it pops — O(1) amortized per schedule/pop, independent of the
//! population size (R. Brown's *calendar queue*, CACM 1988).
//!
//! # Determinism contract
//!
//! [`pop`](EventWheel::pop) returns events in strictly non-decreasing
//! `(time, insertion order)` — two events at the same microsecond come
//! back in the order they were scheduled (FIFO), regardless of bucket
//! layout, resize history, or how far apart their producers live in the
//! grid. Every driver in this workspace relies on that total order for
//! byte-identical replays; the property suite cross-checks it against a
//! sorted reference model on random schedules.
//!
//! Scheduling *in the past* (earlier than the last popped event) is
//! permitted and simply makes that event the next one out; time in the
//! wheel never goes backwards on its own.
//!
//! # Example
//!
//! ```
//! use ulp_net::EventWheel;
//!
//! let mut wheel: EventWheel<&str> = EventWheel::new();
//! wheel.schedule(30, "arrival");
//! wheel.schedule(10, "tx-end");
//! wheel.schedule(10, "backoff");
//! assert_eq!(wheel.pop(), Some((10, "tx-end")));   // earliest first
//! assert_eq!(wheel.pop(), Some((10, "backoff")));  // FIFO within a tick
//! assert_eq!(wheel.peek_time(), Some(30));
//! assert_eq!(wheel.pop(), Some((30, "arrival")));
//! assert_eq!(wheel.pop(), None);
//! ```

/// One scheduled entry: time, FIFO tie-break sequence, payload.
#[derive(Debug, Clone)]
struct Entry<T> {
    at: u64,
    seq: u64,
    payload: T,
}

/// Deterministic calendar-queue scheduler. See the module docs above
/// for the ordering contract.
#[derive(Debug, Clone)]
pub struct EventWheel<T> {
    /// `buckets[q % n]` holds every entry of day `q` (`q = at / width`);
    /// one rotation of the wheel covers `n × width` microseconds.
    buckets: Vec<Vec<Entry<T>>>,
    /// Bucket width in µs (a "day" on the calendar).
    width: u64,
    /// Total scheduled entries.
    len: usize,
    /// Monotone insertion counter: the FIFO tie-break.
    seq: u64,
    /// Cached key of the global minimum entry, `None` when empty. Kept
    /// exact by `schedule` (compare) and `pop` (re-scan), so `peek_time`
    /// is O(1).
    next: Option<(u64, u64)>,
}

impl<T> Default for EventWheel<T> {
    fn default() -> Self {
        EventWheel::new()
    }
}

/// Smallest / largest bucket counts the resize policy will use.
const MIN_BUCKETS: usize = 8;
const MAX_BUCKETS: usize = 1 << 16;

impl<T> EventWheel<T> {
    /// An empty wheel (8 buckets of 1 µs until the first resize adapts
    /// the geometry to the observed event spacing).
    pub fn new() -> EventWheel<T> {
        EventWheel {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            width: 1,
            len: 0,
            seq: 0,
            next: None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<u64> {
        self.next.map(|(at, _)| at)
    }

    /// The bucket index an entry at `at` lives in under the current
    /// geometry.
    fn bucket_of(&self, at: u64) -> usize {
        ((at / self.width) % self.buckets.len() as u64) as usize
    }

    /// Schedule `payload` at absolute time `at` (µs). Events share a
    /// total `(time, insertion order)` order; scheduling earlier than
    /// the last pop is allowed.
    pub fn schedule(&mut self, at: u64, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        if self.len + 1 > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.resize(self.len + 1);
        }
        let b = self.bucket_of(at);
        self.buckets[b].push(Entry { at, seq, payload });
        self.len += 1;
        if self.next.is_none_or(|key| (at, seq) < key) {
            self.next = Some((at, seq));
        }
    }

    /// Remove and return the earliest `(time, payload)`; ties come back
    /// in scheduling order.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        let (at, seq) = self.next?;
        let b = self.bucket_of(at);
        let idx = self.buckets[b]
            .iter()
            .position(|e| e.at == at && e.seq == seq)
            .expect("cached minimum must be present in its bucket");
        let entry = self.buckets[b].swap_remove(idx);
        self.len -= 1;
        if self.len < self.buckets.len() / 4 && self.buckets.len() > MIN_BUCKETS {
            self.resize(self.len.max(1));
        }
        self.next = self.find_min_from(at);
        Some((entry.at, entry.payload))
    }

    /// Recompute the minimum key, knowing every remaining entry is at
    /// `floor` µs or later (the invariant after popping the minimum —
    /// anything earlier would itself have been the cached minimum).
    /// Walks the calendar day by day from `floor`'s day; if one full
    /// rotation finds nothing (entries more than a rotation ahead),
    /// falls back to a global scan.
    fn find_min_from(&self, floor: u64) -> Option<(u64, u64)> {
        if self.len == 0 {
            return None;
        }
        let n = self.buckets.len() as u64;
        let start_day = floor / self.width;
        for step in 0..n {
            let Some(day) = start_day.checked_add(step) else {
                break; // day counter saturated: the global scan has it
            };
            let bucket = &self.buckets[(day % n) as usize];
            let min = bucket
                .iter()
                .filter(|e| e.at / self.width == day)
                .map(|e| (e.at, e.seq))
                .min();
            if min.is_some() {
                return min;
            }
        }
        // Sparse tail: nothing within one rotation — scan everything.
        self.buckets.iter().flatten().map(|e| (e.at, e.seq)).min()
    }

    /// Rebuild the calendar for roughly `target` entries: bucket count
    /// ~2× the population (clamped to a power of two in
    /// [`MIN_BUCKETS`, `MAX_BUCKETS`]), bucket width = the average
    /// spacing of the live entries, so a day holds O(1) of them. Purely
    /// internal: ordering is unaffected (and property-tested to be).
    fn resize(&mut self, target: usize) {
        let entries: Vec<Entry<T>> = self.buckets.iter_mut().flat_map(std::mem::take).collect();
        let n = (2 * target.max(1))
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        let (lo, hi) = entries
            .iter()
            .fold((u64::MAX, 0u64), |(lo, hi), e| (lo.min(e.at), hi.max(e.at)));
        self.width = if entries.is_empty() {
            1
        } else {
            ((hi - lo) / entries.len() as u64).max(1)
        };
        self.buckets = (0..n).map(|_| Vec::new()).collect();
        for e in entries {
            let b = self.bucket_of(e.at);
            self.buckets[b].push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_testkit::{from_fn, prop_assert_eq, props, Rng};

    #[test]
    fn pops_in_time_order() {
        let mut w = EventWheel::new();
        for &t in &[50u64, 10, 30, 20, 40] {
            w.schedule(t, t);
        }
        let order: Vec<u64> = std::iter::from_fn(|| w.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut w = EventWheel::new();
        for i in 0..100u64 {
            w.schedule(7, i);
        }
        let order: Vec<u64> = std::iter::from_fn(|| w.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut w = EventWheel::new();
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
        let mut w = EventWheel::new();
        w.schedule(1_000, "late");
        w.schedule(2_000, "later");
        assert_eq!(w.pop(), Some((1_000, "late")));
        w.schedule(50, "past"); // earlier than the last pop
        assert_eq!(w.pop(), Some((50, "past")));
        assert_eq!(w.pop(), Some((2_000, "later")));
    }

    #[test]
    fn sparse_far_future_events_survive_rotation_fallback() {
        let mut w = EventWheel::new();
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
        let mut w = EventWheel::new();
        // Far more entries than the initial 8 buckets, then drain most.
        for i in (0..10_000u64).rev() {
            w.schedule(i * 3, i);
        }
        assert!(w.buckets.len() > MIN_BUCKETS, "growth never triggered");
        for i in 0..9_990 {
            assert_eq!(w.pop(), Some((i * 3, i)));
        }
        assert!(w.buckets.len() < 10_000, "shrink never triggered");
        for i in 9_990..10_000 {
            assert_eq!(w.pop(), Some((i * 3, i)));
        }
        assert!(w.is_empty());
    }

    props! {
        /// The load-bearing property: arbitrary interleavings of
        /// schedules and pops replay exactly like a sorted reference
        /// model — including duplicate times, past scheduling, and
        /// whatever resizes the interleaving provokes.
        #[test]
        fn random_interleavings_match_reference_model(
            seed in from_fn(|rng: &mut Rng| rng.next_u64())
        ) {
            let mut rng = Rng::from_seed(seed);
            let mut wheel: EventWheel<u64> = EventWheel::new();
            let mut reference: Vec<(u64, u64)> = Vec::new(); // (time, seq)
            let mut seq = 0u64;
            let ops = rng.gen_range(1usize..200);
            for _ in 0..ops {
                if rng.gen_bool(0.6) || reference.is_empty() {
                    // Cluster times so duplicates are common.
                    let at = rng.gen_range(0u64..64) * rng.gen_range(1u64..1_000);
                    wheel.schedule(at, seq);
                    reference.push((at, seq));
                    seq += 1;
                } else {
                    reference.sort_unstable(); // (time, seq) — the contract
                    let (at, id) = reference.remove(0);
                    prop_assert_eq!(wheel.peek_time(), Some(at));
                    prop_assert_eq!(wheel.pop(), Some((at, id)));
                }
                prop_assert_eq!(wheel.len(), reference.len());
            }
            // Drain: the tail must come out in contract order too.
            reference.sort_unstable();
            for (at, id) in reference {
                prop_assert_eq!(wheel.pop(), Some((at, id)));
            }
            prop_assert_eq!(wheel.pop(), None);
        }
    }
}
