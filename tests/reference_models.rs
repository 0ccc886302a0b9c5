//! Reference-model property tests for the simulator's O(1) bookkeeping.
//!
//! The timer block simulates its counters lazily (a cached distance to
//! the next underflow plus a lag of unapplied cycles); here it is driven
//! side by side with a straightforward eager model that decrements every
//! counter on every cycle, and every observable must agree. The interrupt
//! arbiter keeps its pending lines as a bitmask; it is checked against a
//! flag-per-line model.

use ulp_node::core_arch::map;
use ulp_node::core_arch::slaves::{timer_ctrl as ctrl, TimerBlock};
use ulp_node::core_arch::InterruptArbiter;
use ulp_testkit::{any_bool, any_u8, prop_assert, prop_assert_eq, props, vec_of};

// ---------------------------------------------------------------------
// Timer block vs an eager reference
// ---------------------------------------------------------------------

/// The timer block as a literal reading of its specification: every
/// cycle walks all four timers, and every prediction is recomputed from
/// the counters. `CHAIN` on timer 0 is ignored (it has no parent).
#[derive(Debug, Clone, Default)]
struct EagerTimers {
    reload: [u16; 4],
    count: [u16; 4],
    ctrl: [u8; 4],
    off: bool,
    alarms: u64,
}

impl EagerTimers {
    fn counting(&self, i: usize) -> bool {
        self.ctrl[i] & ctrl::ENABLE != 0 && self.reload[i] != 0
    }

    fn chained(&self, i: usize) -> bool {
        i > 0 && self.ctrl[i] & ctrl::CHAIN != 0
    }

    fn set_powered(&mut self, on: bool) {
        if !self.off && !on {
            *self = EagerTimers {
                alarms: self.alarms,
                ..EagerTimers::default()
            };
        }
        self.off = !on;
    }

    fn active_count(&self) -> usize {
        if self.off {
            return 0;
        }
        (0..4).filter(|&i| self.counting(i)).count()
    }

    fn tick(&mut self, mut fire: impl FnMut(usize)) {
        if self.off {
            return;
        }
        let mut parent_underflow = false;
        for i in 0..4 {
            let should_count = !self.chained(i) || parent_underflow;
            parent_underflow = false;
            if !self.counting(i) || !should_count {
                continue;
            }
            self.count[i] = self.count[i].saturating_sub(1);
            if self.count[i] == 0 {
                parent_underflow = true;
                self.alarms += 1;
                if self.ctrl[i] & ctrl::REPEAT != 0 {
                    self.count[i] = self.reload[i];
                } else {
                    self.ctrl[i] &= !ctrl::ENABLE;
                }
                if self.ctrl[i] & ctrl::IRQ_EN != 0 {
                    fire(i);
                }
            }
        }
    }

    fn skip(&mut self, cycles: u64) {
        if self.off {
            return;
        }
        for i in 0..4 {
            if self.counting(i) && !self.chained(i) {
                self.count[i] -= cycles as u16;
            }
        }
    }

    fn cycles_to_next_alarm(&self) -> Option<u64> {
        if self.off {
            return None;
        }
        (0..4).filter_map(|i| self.cycles_to_fire(i)).min()
    }

    fn cycles_to_fire(&self, i: usize) -> Option<u64> {
        if !self.counting(i) {
            return None;
        }
        if !self.chained(i) {
            return Some(self.count[i] as u64);
        }
        let first = self.cycles_to_fire(i - 1)?;
        if self.count[i] <= 1 {
            return Some(first);
        }
        if self.ctrl[i - 1] & ctrl::REPEAT == 0 {
            return None;
        }
        Some(first + (self.count[i] as u64 - 1) * self.reload[i - 1] as u64)
    }

    fn read(&self, offset: u16) -> u8 {
        let (i, reg) = (
            (offset / map::TIMER_STRIDE) as usize,
            offset % map::TIMER_STRIDE,
        );
        match reg {
            map::TIMER_RELOAD_LO => self.reload[i] as u8,
            map::TIMER_RELOAD_HI => (self.reload[i] >> 8) as u8,
            map::TIMER_CTRL => self.ctrl[i],
            map::TIMER_COUNT_LO => self.count[i] as u8,
            map::TIMER_COUNT_HI => (self.count[i] >> 8) as u8,
            _ => 0,
        }
    }

    fn write(&mut self, offset: u16, value: u8) {
        let (i, reg) = (
            (offset / map::TIMER_STRIDE) as usize,
            offset % map::TIMER_STRIDE,
        );
        match reg {
            map::TIMER_RELOAD_LO => self.reload[i] = (self.reload[i] & 0xFF00) | value as u16,
            map::TIMER_RELOAD_HI => {
                self.reload[i] = (self.reload[i] & 0x00FF) | ((value as u16) << 8)
            }
            map::TIMER_CTRL => {
                let was_enabled = self.ctrl[i] & ctrl::ENABLE != 0;
                self.ctrl[i] = value;
                if value & ctrl::ENABLE != 0 && !was_enabled {
                    self.count[i] = self.reload[i];
                }
            }
            _ => {}
        }
    }
}

/// One step of a timer scenario. Reload high bytes stay small so periods
/// (and chained products) stay within a few hundred cycles.
#[derive(Debug, Clone, Copy)]
enum TimerOp {
    Write { offset: u16, value: u8 },
    Tick(u64),
    Skip(u64),
    Power(bool),
}

/// `slot` picks the timer (`slot / 4`) and register (`slot % 4`).
fn timer_op((kind, slot, value, n): (u8, u8, u8, u16)) -> TimerOp {
    let base = (slot / 4) as u16 * map::TIMER_STRIDE;
    match kind {
        0..=3 => {
            let (reg, value) = match slot % 4 {
                0 => (map::TIMER_RELOAD_LO, value % 40),
                1 => (map::TIMER_RELOAD_HI, value % 2),
                2 => (map::TIMER_COUNT_LO, value), // read-only: ignored
                _ => (map::TIMER_CTRL, value & 0x0F),
            };
            TimerOp::Write {
                offset: base + reg,
                value,
            }
        }
        4..=5 => TimerOp::Tick(n as u64 + 1),
        6 => TimerOp::Skip(n as u64 + 1),
        _ => TimerOp::Power(value & 1 == 1),
    }
}

/// Every observable of both models must agree.
fn assert_same_state(lazy: &TimerBlock, eager: &EagerTimers) {
    prop_assert_eq!(lazy.alarms(), eager.alarms);
    prop_assert_eq!(lazy.powered(), !eager.off);
    prop_assert_eq!(lazy.cycles_to_next_alarm(), eager.cycles_to_next_alarm());
    prop_assert_eq!(lazy.active_count(), eager.active_count());
    for offset in 0..4 * map::TIMER_STRIDE {
        prop_assert_eq!(
            lazy.read(offset),
            eager.read(offset),
            "register 0x{:02X}",
            offset
        );
    }
}

props! {
    #![cases(256)]

    /// Random register writes, ticks, legal skips and power toggles
    /// (chained timers included) leave the lazy block and the eager
    /// reference indistinguishable: the same alarms fire on the same
    /// cycles, and every register and prediction reads the same.
    #[test]
    fn lazy_timers_match_eager_reference(
        ops in vec_of((0u8..8, 0u8..16, any_u8(), 0u16..300), 1..80),
    ) {
        let mut lazy = TimerBlock::new();
        let mut eager = EagerTimers::default();
        let mut now = 0u64;
        for op in ops.into_iter().map(timer_op) {
            match op {
                TimerOp::Write { offset, value } => {
                    lazy.write(offset, value);
                    eager.write(offset, value);
                }
                TimerOp::Tick(n) => {
                    for _ in 0..n {
                        now += 1;
                        let (mut a, mut b) = (Vec::new(), Vec::new());
                        lazy.tick(|i| a.push(i));
                        eager.tick(|i| b.push(i));
                        prop_assert_eq!(a, b, "fires at cycle {}", now);
                    }
                }
                TimerOp::Skip(n) => {
                    // Legal skips stop short of the next underflow.
                    let n = match eager.cycles_to_next_alarm() {
                        Some(c) => n.min(c.saturating_sub(1)),
                        None => n,
                    };
                    lazy.skip(n);
                    eager.skip(n);
                    now += n;
                }
                TimerOp::Power(on) => {
                    lazy.set_powered(on);
                    eager.set_powered(on);
                }
            }
            assert_same_state(&lazy, &eager);
        }
    }

    /// The prediction is exact for any mix of chained timers: ticking one
    /// cycle short of it fires nothing, and the next cycle underflows (a
    /// prediction of 0 means a timer found at zero underflows at once).
    #[test]
    fn timer_prediction_is_exact_when_chained(
        setup in vec_of((0u8..4, 0u8..16, any_u8(), 0u16..300), 1..24),
        chain_bits in vec_of(any_bool(), 4),
    ) {
        let mut t = TimerBlock::new();
        for op in setup.into_iter().map(timer_op) {
            if let TimerOp::Write { offset, value } = op {
                t.write(offset, value);
            }
        }
        for (i, chain) in chain_bits.into_iter().enumerate() {
            let at = i as u16 * map::TIMER_STRIDE + map::TIMER_CTRL;
            let c = t.read(at);
            // Toggle CHAIN without a fresh ENABLE edge (no reload).
            t.write(at, if chain { c | ctrl::CHAIN } else { c & !ctrl::CHAIN });
        }
        if let Some(c) = t.cycles_to_next_alarm() {
            let before = t.alarms();
            for _ in 1..c {
                t.tick(|_| {});
            }
            prop_assert_eq!(t.alarms(), before, "an underflow before the prediction");
            t.tick(|_| {});
            prop_assert!(t.alarms() > before, "no underflow at the prediction");
        }
    }
}

// ---------------------------------------------------------------------
// Interrupt arbiter vs a flag-per-line reference
// ---------------------------------------------------------------------

props! {
    #![cases(256)]

    /// Under random raise/take/clear/clear-all traffic the bitmask
    /// arbiter grants the lowest pending id first, counts an overload
    /// drop exactly when the line is already pending, and conserves
    /// events: `raised == taken + cleared + pending_count`.
    #[test]
    fn arbiter_matches_flag_reference(
        ops in vec_of((0u8..10, 0u8..64), 1..200),
    ) {
        let mut arb = InterruptArbiter::new();
        let mut flags = [false; map::NUM_IRQS];
        let mut dropped = 0u64;
        for (kind, id) in ops {
            match kind {
                0..=4 => {
                    if flags[id as usize] {
                        dropped += 1;
                    }
                    flags[id as usize] = true;
                    arb.raise(id);
                }
                5..=7 => {
                    let want = flags.iter().position(|&p| p);
                    if let Some(i) = want {
                        flags[i] = false;
                    }
                    prop_assert_eq!(arb.take().map(usize::from), want);
                }
                8 => {
                    let was = std::mem::replace(&mut flags[id as usize], false);
                    prop_assert_eq!(arb.clear_pending(id), was);
                }
                _ => {
                    let n = flags.iter().filter(|&&p| p).count() as u64;
                    flags = [false; map::NUM_IRQS];
                    prop_assert_eq!(arb.clear_all_pending(), n);
                }
            }
            let pending = flags.iter().filter(|&&p| p).count() as u64;
            prop_assert_eq!(arb.dropped(), dropped);
            prop_assert_eq!(arb.pending_count(), pending);
            prop_assert_eq!(arb.any_pending(), pending > 0);
            prop_assert!(
                (0..64u8).all(|i| arb.is_pending(i) == flags[i as usize]),
                "pending lines differ"
            );
            prop_assert_eq!(arb.raised(), arb.taken() + arb.cleared() + arb.pending_count());
        }
    }
}
