//! The interrupt bus and its centralized arbiter.
//!
//! Slaves compete for the 6-bit interrupt bus; the arbiter picks the
//! lowest-numbered pending interrupt when the event processor is ready
//! for one. Each slave line is one-deep: the paper's system supports
//! "only one outstanding interrupt ... if the system begins to be
//! overloaded, events will simply be dropped" (§4.2.4). A slave raising
//! an event while its previous one is still pending loses the new event,
//! and the drop is counted — overload is observable, not silent.

use crate::map::NUM_IRQS;
use ulp_sim::repeat::Totals;
use ulp_sim::telemetry::Log2Histogram;
use ulp_sim::Cycles;

/// The interrupt arbiter: one pending bit per interrupt id.
///
/// For observability the arbiter also timestamps each raise and records
/// the raise→take wait into an event-service latency histogram — the
/// headline metric of PELS-style peripheral event systems. The
/// current cycle must be fed in through
/// [`set_now`](InterruptArbiter::set_now) (the system does this once per
/// stepped cycle).
#[derive(Debug, Clone)]
pub struct InterruptArbiter {
    /// Bit `i` set ⇔ id `i` is pending (NUM_IRQS = 64 fits a u64 exactly).
    pending: u64,
    pending_since: [Cycles; NUM_IRQS],
    raised_by_irq: [u64; NUM_IRQS],
    now: Cycles,
    /// Bitmask of ids raised since the last `take_newly_raised` drain.
    newly: u64,
    service: Log2Histogram,
    raised: u64,
    dropped: u64,
    taken: u64,
    cleared: u64,
}

impl Default for InterruptArbiter {
    fn default() -> Self {
        InterruptArbiter::new()
    }
}

impl InterruptArbiter {
    /// An arbiter with nothing pending.
    pub fn new() -> InterruptArbiter {
        InterruptArbiter {
            pending: 0,
            pending_since: [Cycles::ZERO; NUM_IRQS],
            raised_by_irq: [0; NUM_IRQS],
            now: Cycles::ZERO,
            newly: 0,
            service: Log2Histogram::new(),
            raised: 0,
            dropped: 0,
            taken: 0,
            cleared: 0,
        }
    }

    /// Feed the arbiter the current cycle, used to timestamp raises.
    pub fn set_now(&mut self, now: Cycles) {
        self.now = now;
    }

    /// IRQ→service latency distribution (raise→take, in cycles).
    pub fn service_latency(&self) -> &Log2Histogram {
        &self.service
    }

    /// Events raised (successfully) per interrupt id.
    pub fn raised_by_irq(&self) -> &[u64; NUM_IRQS] {
        &self.raised_by_irq
    }

    /// Drain the bitmask of interrupt ids raised since the last drain
    /// (bit `i` set ⇔ id `i` was raised at least once). Used by the
    /// system to emit `IrqAssert` trace events without threading the
    /// trace buffer through every slave.
    pub fn take_newly_raised(&mut self) -> u64 {
        std::mem::take(&mut self.newly)
    }

    /// Raise interrupt `id`. If it is already pending the new event is
    /// dropped (counted), per §4.2.4.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a valid 6-bit interrupt id.
    pub fn raise(&mut self, id: u8) {
        let bit = line(id);
        if self.pending & bit != 0 {
            self.dropped += 1;
        } else {
            self.pending |= bit;
            self.raised += 1;
            self.raised_by_irq[id as usize] += 1;
            self.pending_since[id as usize] = self.now;
            self.newly |= bit;
        }
    }

    /// Whether any interrupt is pending.
    pub fn any_pending(&self) -> bool {
        self.pending != 0
    }

    /// Number of currently pending (raised, not yet taken) interrupts.
    /// Together with the counters this pins event conservation:
    /// `raised == taken + cleared + pending_count`.
    pub fn pending_count(&self) -> u64 {
        self.pending.count_ones() as u64
    }

    /// Whether a specific interrupt is pending.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a valid 6-bit interrupt id.
    pub fn is_pending(&self, id: u8) -> bool {
        self.pending & line(id) != 0
    }

    /// Arbitrate: take the lowest-numbered pending interrupt, clearing
    /// its flag.
    pub fn take(&mut self) -> Option<u8> {
        self.take_with_latency().map(|(id, _)| id)
    }

    /// Like [`take`](InterruptArbiter::take), but also returns how many
    /// cycles the interrupt waited between raise and service (per the
    /// clock fed through [`set_now`](InterruptArbiter::set_now)). The
    /// wait is recorded into the service-latency histogram.
    pub fn take_with_latency(&mut self) -> Option<(u8, u64)> {
        if self.pending == 0 {
            return None;
        }
        let id = self.pending.trailing_zeros() as usize;
        self.pending &= self.pending - 1;
        self.taken += 1;
        let waited = self.now.0.saturating_sub(self.pending_since[id].0);
        self.service.record(waited);
        Some((id as u8, waited))
    }

    /// Fault-injection hook: lose the pending edge on line `id` before
    /// the arbiter grants it, as a glitch on the interrupt bus would.
    /// Returns `true` if an edge was actually pending (and is now lost —
    /// counted in [`cleared`](InterruptArbiter::cleared), separate from
    /// the overload [`dropped`](InterruptArbiter::dropped) counter).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a valid 6-bit interrupt id.
    pub fn clear_pending(&mut self, id: u8) -> bool {
        let bit = line(id);
        if self.pending & bit != 0 {
            self.pending &= !bit;
            self.cleared += 1;
            true
        } else {
            false
        }
    }

    /// Fault-injection hook: lose *every* pending edge (a brownout
    /// resets the latch array). Returns how many edges were lost; each
    /// is counted in [`cleared`](InterruptArbiter::cleared).
    pub fn clear_all_pending(&mut self) -> u64 {
        let n = self.pending_count();
        self.pending = 0;
        self.cleared += n;
        n
    }

    /// Append the arbiter's state to a state key at cycle `now`: the
    /// pending lines with how long each has waited, and the lines raised
    /// since the last drain. The counters, the service histogram and the
    /// cycle stamps are [`totals`](InterruptArbiter::totals).
    pub(crate) fn key(&self, key: &mut Vec<u64>, now: Cycles) {
        key.extend([self.pending, self.newly]);
        let mut pending = self.pending;
        while pending != 0 {
            let id = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            key.push(now.0.wrapping_sub(self.pending_since[id].0));
        }
    }

    pub(crate) fn totals(&mut self, t: &mut dyn Totals) {
        t.count(&mut self.raised);
        t.count(&mut self.dropped);
        t.count(&mut self.taken);
        t.count(&mut self.cleared);
        t.count(&mut self.now.0);
        for (raised, since) in self.raised_by_irq.iter_mut().zip(&mut self.pending_since) {
            t.count(raised);
            t.count(&mut since.0);
        }
        self.service.totals(t);
    }

    /// Events raised successfully.
    pub fn raised(&self) -> u64 {
        self.raised
    }

    /// Events dropped due to overload.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Pending edges lost to injected faults (glitches, brownouts) —
    /// never incremented outside the fault-injection hooks.
    pub fn cleared(&self) -> u64 {
        self.cleared
    }

    /// Events taken by the event processor.
    pub fn taken(&self) -> u64 {
        self.taken
    }
}

/// The pending-mask bit of interrupt `id`.
///
/// # Panics
///
/// Panics if `id` is not a valid 6-bit interrupt id.
fn line(id: u8) -> u64 {
    assert!((id as usize) < NUM_IRQS, "interrupt id {id} out of range");
    1 << id
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_and_take() {
        let mut a = InterruptArbiter::new();
        assert!(!a.any_pending());
        assert_eq!(a.take(), None);
        a.raise(5);
        assert!(a.any_pending());
        assert!(a.is_pending(5));
        assert_eq!(a.take(), Some(5));
        assert!(!a.any_pending());
        assert_eq!(a.raised(), 1);
        assert_eq!(a.taken(), 1);
    }

    #[test]
    fn arbitration_is_lowest_id_first() {
        let mut a = InterruptArbiter::new();
        a.raise(25);
        a.raise(0);
        a.raise(16);
        assert_eq!(a.take(), Some(0));
        assert_eq!(a.take(), Some(16));
        assert_eq!(a.take(), Some(25));
    }

    #[test]
    fn overload_drops_and_counts() {
        let mut a = InterruptArbiter::new();
        a.raise(3);
        a.raise(3); // dropped: previous still outstanding
        assert_eq!(a.dropped(), 1);
        assert_eq!(a.take(), Some(3));
        assert_eq!(a.take(), None, "dropped event is really gone");
        a.raise(3); // fine again after the take
        assert_eq!(a.dropped(), 1);
    }

    #[test]
    #[should_panic]
    fn out_of_range_id_panics() {
        let mut a = InterruptArbiter::new();
        a.raise(64);
    }

    #[test]
    fn service_latency_measured_from_raise_to_take() {
        let mut a = InterruptArbiter::new();
        a.set_now(Cycles(100));
        a.raise(5);
        a.set_now(Cycles(117));
        assert_eq!(a.take_with_latency(), Some((5, 17)));
        let h = a.service_latency();
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), Some(17));
    }

    #[test]
    fn fault_clear_hooks_count_separately_from_overload() {
        let mut a = InterruptArbiter::new();
        a.raise(1);
        a.raise(1); // overload drop
        assert!(a.clear_pending(1), "pending edge lost");
        assert!(!a.clear_pending(1), "nothing left to lose");
        assert_eq!(a.take(), None, "the edge really is gone");
        a.raise(2);
        a.raise(7);
        assert_eq!(a.clear_all_pending(), 2);
        assert!(!a.any_pending());
        assert_eq!(a.cleared(), 3);
        assert_eq!(a.dropped(), 1, "overload accounting untouched");
        assert_eq!(a.raised(), 3);
        assert_eq!(a.taken(), 0);
    }

    #[test]
    fn newly_raised_bitmask_drains() {
        let mut a = InterruptArbiter::new();
        a.raise(0);
        a.raise(63);
        a.raise(0); // dropped: does not re-set the bit semantics matter
        assert_eq!(a.take_newly_raised(), (1 << 0) | (1 << 63));
        assert_eq!(a.take_newly_raised(), 0, "drained");
        assert_eq!(a.raised_by_irq()[0], 1);
        assert_eq!(a.raised_by_irq()[63], 1);
    }
}
