//! Timer subsystem: four chainable 16-bit countdown timers (§4.3.4).
//!
//! Each timer counts down from its reload value and raises an alarm
//! interrupt at zero. Timers can be *chained*: a chained timer counts
//! parent underflows instead of clock cycles, so intervals up to
//! 2³²⁺ cycles are reachable (the Great Duck Island period of 70 s is
//! 7 M cycles at 100 kHz — beyond one 16-bit timer). Timer 0 has no
//! parent, so `CHAIN` on it is ignored: it always counts cycles.
//!
//! The block is simulated lazily. Between underflows nothing observable
//! happens except that the cycle-counting timers count down, so the block
//! keeps the cycles to its next underflow and a lag of cycles not yet
//! applied to the counters. A cycle is then one increment and compare;
//! the counters are brought up to date at an underflow, on a register
//! write, and on a power change, and a register read subtracts the lag
//! from a counter it reads. The timers are integers, so this is exact.

use crate::map;
use ulp_sim::repeat::Totals;

/// Switching-activity factor of a merely-counting timer relative to the
/// block's full active power: a down-counter toggles on average about two
/// of its sixteen bits per cycle, so a counting timer draws roughly 1/8 of
/// its worst-case (all sub-structures switching) power. Register accesses
/// drive the whole block and are charged at full active power.
pub const COUNTING_ACTIVITY: f64 = 0.125;

/// Control-register bits.
pub mod ctrl {
    /// Timer counts while set.
    pub const ENABLE: u8 = 1 << 0;
    /// Reload and continue after firing (periodic mode).
    pub const REPEAT: u8 = 1 << 1;
    /// Count underflows of the previous timer instead of cycles (ignored
    /// on timer 0, which has no previous timer).
    pub const CHAIN: u8 = 1 << 2;
    /// Raise the alarm interrupt on underflow.
    pub const IRQ_EN: u8 = 1 << 3;
}

#[derive(Debug, Clone, Default)]
struct SubTimer {
    reload: u16,
    count: u16,
    ctrl: u8,
}

impl SubTimer {
    fn counting(&self) -> bool {
        self.ctrl & ctrl::ENABLE != 0 && self.reload != 0
    }
}

/// The four-timer subsystem.
#[derive(Debug, Clone)]
pub struct TimerBlock {
    timers: [SubTimer; 4],
    powered: bool,
    alarms: u64,
    /// Cycles elapsed since the counters were last brought up to date;
    /// always below `next` (no underflow hides in the lag).
    lag: u64,
    /// Cycles from the last update to the next underflow (`u64::MAX`
    /// when none is coming). The update that finds a counting timer at
    /// zero leaves 0 here: that timer underflows on the very next tick.
    next: u64,
    /// Timers counting as of the last update.
    active: u8,
}

impl Default for TimerBlock {
    fn default() -> Self {
        TimerBlock::new()
    }
}

impl TimerBlock {
    /// A powered-on block with all timers disabled.
    pub fn new() -> TimerBlock {
        TimerBlock {
            timers: Default::default(),
            powered: true,
            alarms: 0,
            lag: 0,
            next: u64::MAX,
            active: 0,
        }
    }

    /// Whether the block is powered.
    pub fn powered(&self) -> bool {
        self.powered
    }

    /// Power the block on or off. Powering off clears all counters.
    pub fn set_powered(&mut self, on: bool) {
        self.catch_up();
        if self.powered && !on {
            self.timers = Default::default();
        }
        self.powered = on;
        self.refresh();
    }

    /// Number of timers currently counting (for power accounting: a
    /// counting decrementer switches every cycle).
    pub fn active_count(&self) -> usize {
        self.active as usize
    }

    /// Fraction of the block's active power drawn by background counting
    /// (no register traffic): `counting/4 × COUNTING_ACTIVITY`.
    pub fn counting_fraction(&self) -> f64 {
        self.active_count() as f64 / 4.0 * COUNTING_ACTIVITY
    }

    /// Total alarms fired since reset.
    pub fn alarms(&self) -> u64 {
        self.alarms
    }

    /// Append the block's state to a state key: every field but
    /// `alarms`, which [`totals`](TimerBlock::totals) visits.
    pub(crate) fn key(&self, key: &mut Vec<u64>) {
        for t in &self.timers {
            key.extend([t.reload as u64, t.count as u64, t.ctrl as u64]);
        }
        key.extend([self.powered as u64, self.lag, self.next, self.active as u64]);
    }

    pub(crate) fn totals(&mut self, t: &mut dyn Totals) {
        t.count(&mut self.alarms);
    }

    /// Advance one cycle; calls `fire(i)` for each timer whose alarm goes
    /// off this cycle and has interrupts enabled.
    pub fn tick(&mut self, fire: impl FnMut(usize)) {
        if !self.powered {
            return;
        }
        self.lag += 1;
        if self.lag >= self.next {
            // An underflow is due this cycle: catch up on the cycles
            // before it, then step this one timer by timer.
            self.lag -= 1;
            self.catch_up();
            self.underflow_cycle(fire);
            self.refresh();
        }
    }

    /// Step the one cycle in which an underflow is due. A timer counts
    /// a clock cycle, or with `CHAIN` (timers 1–3) an underflow of the
    /// timer below it in this same cycle.
    fn underflow_cycle(&mut self, mut fire: impl FnMut(usize)) {
        let mut parent_underflow = false;
        for (i, t) in self.timers.iter_mut().enumerate() {
            let should_count = !chained(t, i) || parent_underflow;
            parent_underflow = false;
            if !t.counting() || !should_count {
                continue;
            }
            t.count = t.count.saturating_sub(1);
            if t.count == 0 {
                parent_underflow = true;
                self.alarms += 1;
                if t.ctrl & ctrl::REPEAT != 0 {
                    t.count = t.reload;
                } else {
                    t.ctrl &= !ctrl::ENABLE;
                }
                if t.ctrl & ctrl::IRQ_EN != 0 {
                    fire(i);
                }
            }
        }
    }

    /// Apply the lag to the cycle-counting timers. Chained timers move
    /// only on an underflow, and none falls inside the lag.
    fn catch_up(&mut self) {
        let lag = std::mem::take(&mut self.lag);
        if lag == 0 {
            return;
        }
        for (i, t) in self.timers.iter_mut().enumerate() {
            if t.counting() && !chained(t, i) {
                t.count -= lag as u16;
            }
        }
    }

    /// Recompute `next` and `active` from up-to-date counters.
    fn refresh(&mut self) {
        debug_assert_eq!(self.lag, 0, "refresh on stale counters");
        self.next = u64::MAX;
        self.active = 0;
        if !self.powered {
            return;
        }
        for (i, t) in self.timers.iter().enumerate() {
            if t.counting() {
                self.active += 1;
                // Chained timers move only on an underflow of the timer
                // below, so the earliest underflow is always one of the
                // cycle-counting timers'.
                if !chained(t, i) {
                    self.next = self.next.min(t.count as u64);
                }
            }
        }
    }

    /// Advance `cycles` cycles, asserting that no underflow falls within
    /// the span — the idle-skip fast path. The check is one compare, and
    /// it holds in release builds too: an over-skip would wrap the
    /// counters and silently put the timers out of step.
    ///
    /// # Panics
    ///
    /// Panics if the span reaches the next underflow.
    pub fn skip(&mut self, cycles: u64) {
        if !self.powered || cycles == 0 {
            return;
        }
        assert!(
            cycles < self.next - self.lag,
            "skip({cycles}) would cross an underflow"
        );
        self.lag += cycles;
    }

    /// Whether the next tick raises no interrupt: the block is gated, no
    /// underflow is due, or no timer that underflows in it — a
    /// cycle-counting timer reaching zero, or a chained timer whose
    /// parent underflows with it — has `IRQ_EN` set. Such a tick changes
    /// nothing outside the block but its counters (and `alarms`, and
    /// the active count when a timer without `REPEAT` stops).
    pub fn next_tick_is_silent(&self) -> bool {
        if !self.powered || self.next - self.lag > 1 {
            return true;
        }
        // The counters as the tick's catch-up leaves them, then the
        // tick's own underflow cycle, as `underflow_cycle` walks it.
        let lag = self.lag as u16;
        let mut parent_underflow = false;
        for (i, t) in self.timers.iter().enumerate() {
            let is_chained = chained(t, i);
            let should_count = !is_chained || parent_underflow;
            parent_underflow = false;
            if !t.counting() || !should_count {
                continue;
            }
            let count = if is_chained { t.count } else { t.count - lag };
            if count <= 1 {
                if t.ctrl & ctrl::IRQ_EN != 0 {
                    return false;
                }
                parent_underflow = true;
            }
        }
        true
    }

    /// The block right after an underflow of a silent chain: one timer
    /// counts cycles, with `REPEAT` and without `IRQ_EN`, and has just
    /// reloaded. Returns its period and how many of its next underflows
    /// stay silent, so [`repeat_silent_underflows`] can take them
    /// arithmetically: each decrements the timer chained above it (if
    /// one counts) and must leave it at 1 or more, so the chain does not
    /// ripple on. `None` for any other state.
    ///
    /// [`repeat_silent_underflows`]: TimerBlock::repeat_silent_underflows
    pub fn silent_chain(&self) -> Option<(u64, u64)> {
        self.chain_base()
            .map(|(b, silent)| (self.timers[b].reload as u64, silent))
    }

    /// Take `n` underflows of the silent chain [`silent_chain`] finds, and
    /// the cycles before each: the chained timer above drops by `n` and
    /// `alarms` rises by `n`; everything else ends as it started.
    ///
    /// # Panics
    ///
    /// Panics if the block is not at such a chain, or `n` exceeds the
    /// silent underflows it has left.
    ///
    /// [`silent_chain`]: TimerBlock::silent_chain
    pub fn repeat_silent_underflows(&mut self, n: u64) {
        let chain = self.chain_base();
        let Some((b, silent)) = chain.filter(|&(_, silent)| n <= silent) else {
            panic!("{n} silent underflows from a block at {chain:?}");
        };
        if silent != u64::MAX {
            self.timers[b + 1].count -= n as u16;
        }
        self.alarms += n;
    }

    /// The silent chain's cycle-counting timer and its silent underflows
    /// left (`u64::MAX` with no timer chained above it).
    fn chain_base(&self) -> Option<(usize, u64)> {
        if !self.powered || self.lag != 0 {
            return None;
        }
        let mut cycle_counting = (0..4).filter(|&i| {
            let t = &self.timers[i];
            t.counting() && !chained(t, i)
        });
        let (Some(b), None) = (cycle_counting.next(), cycle_counting.next()) else {
            return None;
        };
        let base = &self.timers[b];
        if base.ctrl & (ctrl::REPEAT | ctrl::IRQ_EN) != ctrl::REPEAT || base.count != base.reload {
            return None;
        }
        let above = self
            .timers
            .get(b + 1)
            .filter(|t| t.counting() && chained(t, b + 1));
        let silent = above.map_or(u64::MAX, |t| t.count.saturating_sub(1) as u64);
        Some((b, silent))
    }

    /// Cycles until the next *underflow* of any timer — including silent
    /// underflows of chain parents and of timers without interrupts
    /// enabled — or `None` if no timer will ever underflow. Idle-skip
    /// must not cross silent underflows either, since they drive chained
    /// counters; the engine simply wakes, ticks once, and skips on.
    pub fn cycles_to_next_alarm(&self) -> Option<u64> {
        (self.next != u64::MAX).then(|| self.next - self.lag)
    }

    /// Register read within the timer window.
    pub fn read(&self, offset: u16) -> u8 {
        let (i, reg) = split(offset);
        let t = &self.timers[i];
        let count = if t.counting() && !chained(t, i) {
            t.count - self.lag as u16
        } else {
            t.count
        };
        match reg {
            map::TIMER_RELOAD_LO => t.reload as u8,
            map::TIMER_RELOAD_HI => (t.reload >> 8) as u8,
            map::TIMER_CTRL => t.ctrl,
            map::TIMER_COUNT_LO => count as u8,
            map::TIMER_COUNT_HI => (count >> 8) as u8,
            _ => 0,
        }
    }

    /// Register write within the timer window. Writing the control
    /// register with `ENABLE` (re)loads the counter.
    pub fn write(&mut self, offset: u16, value: u8) {
        let (i, reg) = split(offset);
        self.catch_up();
        let t = &mut self.timers[i];
        match reg {
            map::TIMER_RELOAD_LO => t.reload = (t.reload & 0xFF00) | value as u16,
            map::TIMER_RELOAD_HI => t.reload = (t.reload & 0x00FF) | ((value as u16) << 8),
            map::TIMER_CTRL => {
                let was_enabled = t.ctrl & ctrl::ENABLE != 0;
                t.ctrl = value;
                if value & ctrl::ENABLE != 0 && !was_enabled {
                    t.count = t.reload;
                }
            }
            _ => {}
        }
        self.refresh();
    }

    /// Convenience: configure timer `i` as a periodic alarm every
    /// `period` cycles with interrupts enabled.
    ///
    /// # Panics
    ///
    /// Panics if `i` ≥ 4 or `period` is zero.
    pub fn configure_periodic(&mut self, i: usize, period: u16) {
        assert!(period > 0, "period must be positive");
        let base = i as u16 * map::TIMER_STRIDE;
        self.write(base + map::TIMER_RELOAD_LO, period as u8);
        self.write(base + map::TIMER_RELOAD_HI, (period >> 8) as u8);
        self.write(
            base + map::TIMER_CTRL,
            ctrl::ENABLE | ctrl::REPEAT | ctrl::IRQ_EN,
        );
    }

    /// Convenience: configure timers `i-1` (base, silent) and `i`
    /// (chained) so timer `i` fires every `base_period × chain_count`
    /// cycles.
    ///
    /// # Panics
    ///
    /// Panics if `i` is 0 or ≥ 4, or either period component is zero.
    pub fn configure_chained(&mut self, i: usize, base_period: u16, chain_count: u16) {
        assert!((1..4).contains(&i), "chained timer must be 1..=3");
        assert!(base_period > 0 && chain_count > 0);
        let pb = (i - 1) as u16 * map::TIMER_STRIDE;
        self.write(pb + map::TIMER_RELOAD_LO, base_period as u8);
        self.write(pb + map::TIMER_RELOAD_HI, (base_period >> 8) as u8);
        self.write(pb + map::TIMER_CTRL, ctrl::ENABLE | ctrl::REPEAT);
        let cb = i as u16 * map::TIMER_STRIDE;
        self.write(cb + map::TIMER_RELOAD_LO, chain_count as u8);
        self.write(cb + map::TIMER_RELOAD_HI, (chain_count >> 8) as u8);
        self.write(
            cb + map::TIMER_CTRL,
            ctrl::ENABLE | ctrl::REPEAT | ctrl::CHAIN | ctrl::IRQ_EN,
        );
    }
}

/// Whether timer `i` counts underflows of timer `i - 1` rather than
/// cycles. Timer 0 has nothing below it, so its `CHAIN` bit is ignored.
fn chained(t: &SubTimer, i: usize) -> bool {
    i > 0 && t.ctrl & ctrl::CHAIN != 0
}

fn split(offset: u16) -> (usize, u16) {
    let i = (offset / map::TIMER_STRIDE) as usize;
    assert!(i < 4, "timer offset 0x{offset:X} out of range");
    (i, offset % map::TIMER_STRIDE)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fires_in(t: &mut TimerBlock, cycles: u64) -> Vec<(u64, usize)> {
        let mut out = Vec::new();
        for c in 1..=cycles {
            t.tick(|i| out.push((c, i)));
        }
        out
    }

    #[test]
    fn periodic_alarm_cadence() {
        let mut t = TimerBlock::new();
        t.configure_periodic(0, 10);
        let fires = fires_in(&mut t, 35);
        assert_eq!(fires, vec![(10, 0), (20, 0), (30, 0)]);
        assert_eq!(t.alarms(), 3);
    }

    #[test]
    fn one_shot_fires_once() {
        let mut t = TimerBlock::new();
        t.write(map::TIMER_RELOAD_LO, 5);
        t.write(map::TIMER_CTRL, ctrl::ENABLE | ctrl::IRQ_EN);
        let fires = fires_in(&mut t, 50);
        assert_eq!(fires, vec![(5, 0)]);
    }

    #[test]
    fn silent_without_irq_enable() {
        let mut t = TimerBlock::new();
        t.write(map::TIMER_RELOAD_LO, 5);
        t.write(map::TIMER_CTRL, ctrl::ENABLE | ctrl::REPEAT);
        assert!(fires_in(&mut t, 20).is_empty());
        assert_eq!(t.alarms(), 4, "alarms still counted internally");
    }

    #[test]
    fn chained_timer_multiplies_period() {
        let mut t = TimerBlock::new();
        t.configure_chained(1, 100, 7);
        let fires = fires_in(&mut t, 1500);
        assert_eq!(fires, vec![(700, 1), (1400, 1)]);
    }

    #[test]
    fn chain_bit_on_timer_zero_is_ignored() {
        // Timer 0 has no parent: with CHAIN set it still counts cycles,
        // so it fires where it is predicted to, and a chained timer 1
        // above it counts its underflows.
        let mut t = TimerBlock::new();
        t.write(map::TIMER_RELOAD_LO, 10);
        t.write(
            map::TIMER_CTRL,
            ctrl::ENABLE | ctrl::REPEAT | ctrl::CHAIN | ctrl::IRQ_EN,
        );
        let t1 = map::TIMER_STRIDE;
        t.write(t1 + map::TIMER_RELOAD_LO, 3);
        t.write(
            t1 + map::TIMER_CTRL,
            ctrl::ENABLE | ctrl::REPEAT | ctrl::CHAIN | ctrl::IRQ_EN,
        );
        assert_eq!(t.cycles_to_next_alarm(), Some(10));
        let fires = fires_in(&mut t, 35);
        assert_eq!(fires, vec![(10, 0), (20, 0), (30, 0), (30, 1)]);
        let mut skipped = TimerBlock::new();
        skipped.write(map::TIMER_RELOAD_LO, 10);
        skipped.write(map::TIMER_CTRL, ctrl::ENABLE | ctrl::CHAIN);
        skipped.skip(4);
        assert_eq!(skipped.read(map::TIMER_COUNT_LO), 6, "skip counts it too");
        assert_eq!(skipped.cycles_to_next_alarm(), Some(6));
    }

    #[test]
    fn next_alarm_prediction_simple() {
        let mut t = TimerBlock::new();
        t.configure_periodic(2, 1000);
        assert_eq!(t.cycles_to_next_alarm(), Some(1000));
        t.tick(|_| {});
        assert_eq!(t.cycles_to_next_alarm(), Some(999));
    }

    #[test]
    fn next_alarm_prediction_chained() {
        let mut t = TimerBlock::new();
        t.configure_chained(1, 100, 7);
        // The prediction covers *underflows*: the silent base timer
        // underflows every 100 cycles (driving the chained counter), so
        // the engine must wake then even though the alarm is at 700.
        assert_eq!(t.cycles_to_next_alarm(), Some(100));
        for _ in 0..650 {
            t.tick(|_| {});
        }
        assert_eq!(t.cycles_to_next_alarm(), Some(50));
        // The chained timer itself is predicted via its parent.
        let fires = fires_in(&mut t, 100);
        assert_eq!(fires, vec![(50, 1)], "chained alarm at 700 overall");
    }

    #[test]
    fn skip_matches_ticking() {
        let mut a = TimerBlock::new();
        a.configure_periodic(0, 5000);
        let mut b = a.clone();
        for _ in 0..4321 {
            a.tick(|_| {});
        }
        b.skip(4321);
        assert_eq!(a.cycles_to_next_alarm(), b.cycles_to_next_alarm());
        assert_eq!(a.read(map::TIMER_COUNT_LO), b.read(map::TIMER_COUNT_LO));
    }

    #[test]
    fn prediction_never_overshoots_an_event() {
        let mut t = TimerBlock::new();
        t.configure_chained(1, 30, 4); // silent underflows at 30, 60, ...
        t.configure_periodic(2, 95);
        // Earliest underflow is the silent base timer at 30; the first
        // *interrupt* is timer 2 at 95. Prediction must be the former so
        // idle-skip cannot jump past the chain-driving underflow.
        assert_eq!(t.cycles_to_next_alarm(), Some(30));
        let fires = fires_in(&mut t, 200);
        assert_eq!(fires[0], (95, 2));
        assert_eq!(fires[1], (120, 1), "chained timer after 4 underflows");
    }

    #[test]
    #[should_panic(expected = "would cross an underflow")]
    fn over_skip_panics() {
        let mut t = TimerBlock::new();
        t.configure_periodic(0, 100);
        t.skip(99);
        t.skip(1);
    }

    #[test]
    fn silent_tick_test_matches_the_tick() {
        // GDI: silent base timer 0, chained timer 1 with IRQ_EN every 3.
        let mut t = TimerBlock::new();
        t.configure_chained(1, 10, 3);
        let mut silent_underflows = Vec::new();
        for c in 1..=40u64 {
            let predicted = t.next_tick_is_silent();
            let due = t.cycles_to_next_alarm() == Some(1);
            let mut fired = false;
            t.tick(|_| fired = true);
            assert_eq!(predicted, !fired, "cycle {c}");
            if predicted && due {
                silent_underflows.push(c);
            }
        }
        assert_eq!(
            silent_underflows,
            vec![10, 20, 40],
            "30 raises timer 1's alarm"
        );
        // A timer without REPEAT stops silently; with IRQ_EN it is loud.
        let mut t = TimerBlock::new();
        t.write(map::TIMER_RELOAD_LO, 2);
        t.write(map::TIMER_CTRL, ctrl::ENABLE);
        t.tick(|_| {});
        assert!(t.next_tick_is_silent());
        t.write(map::TIMER_CTRL, 0);
        t.write(map::TIMER_CTRL, ctrl::ENABLE | ctrl::IRQ_EN);
        t.tick(|_| {});
        assert!(!t.next_tick_is_silent());
        // Not due, or gated: the tick cannot raise anything.
        t.write(map::TIMER_CTRL, 0);
        t.write(map::TIMER_CTRL, ctrl::ENABLE | ctrl::IRQ_EN);
        assert!(t.next_tick_is_silent());
        t.set_powered(false);
        assert!(t.next_tick_is_silent());
    }

    /// Repeating silent underflows arithmetically leaves the block the
    /// ticks would: the chained count, alarms, prediction and registers.
    #[test]
    fn repeated_silent_underflows_match_ticking() {
        for (base, count, chain) in [(10, 5, 1), (1, 9, 1), (7, 40, 3), (25, 3, 2)] {
            let mut ticked = TimerBlock::new();
            ticked.configure_chained(chain, base, count);
            // Freshly loaded is as good as freshly reloaded.
            let fresh = Some((base as u64, count as u64 - 1));
            assert_eq!(ticked.silent_chain(), fresh);
            assert!(fires_in(&mut ticked, base as u64).is_empty());
            let (period, silent) = ticked.silent_chain().expect("after a silent underflow");
            assert_eq!((period, silent), (base as u64, count as u64 - 2));
            let mut repeated = ticked.clone();
            repeated.repeat_silent_underflows(silent);
            assert!(fires_in(&mut ticked, silent * period).is_empty());
            assert_eq!(repeated.alarms(), ticked.alarms());
            assert_eq!(
                repeated.cycles_to_next_alarm(),
                ticked.cycles_to_next_alarm()
            );
            assert_eq!(repeated.silent_chain(), Some((period, 0)));
            for offset in 0..4 * map::TIMER_STRIDE {
                assert_eq!(repeated.read(offset), ticked.read(offset));
            }
            // The next underflow raises the chained timer's alarm.
            let fires = fires_in(&mut repeated, period);
            assert_eq!(fires, vec![(period, chain)]);
        }
        // Mid-period, a loud base timer, or two cycle-counting timers:
        // no silent chain.
        let mut t = TimerBlock::new();
        t.configure_chained(1, 10, 5);
        fires_in(&mut t, 11);
        assert_eq!(t.silent_chain(), None, "mid-period");
        let mut t = TimerBlock::new();
        t.configure_periodic(0, 10);
        fires_in(&mut t, 10);
        assert_eq!(t.silent_chain(), None, "IRQ_EN");
        let mut t = TimerBlock::new();
        t.configure_chained(1, 10, 5);
        t.configure_periodic(2, 1000);
        fires_in(&mut t, 10);
        assert_eq!(t.silent_chain(), None, "a second cycle-counting timer");
        let mut t = TimerBlock::new();
        t.write(map::TIMER_RELOAD_LO, 10);
        t.write(map::TIMER_CTRL, ctrl::ENABLE | ctrl::REPEAT);
        fires_in(&mut t, 10);
        assert_eq!(
            t.silent_chain(),
            Some((10, u64::MAX)),
            "nothing chained above"
        );
    }

    #[test]
    #[should_panic(expected = "silent underflows from a block at")]
    fn repeating_past_the_silent_underflows_panics() {
        let mut t = TimerBlock::new();
        t.configure_chained(1, 10, 5);
        fires_in(&mut t, 10);
        t.repeat_silent_underflows(4);
    }

    #[test]
    fn power_off_clears_state() {
        let mut t = TimerBlock::new();
        t.configure_periodic(0, 10);
        assert_eq!(t.active_count(), 1);
        t.set_powered(false);
        assert_eq!(t.active_count(), 0);
        assert_eq!(t.cycles_to_next_alarm(), None);
        t.set_powered(true);
        assert_eq!(t.cycles_to_next_alarm(), None, "config lost across gating");
    }

    #[test]
    fn pause_and_resume_via_ctrl() {
        let mut t = TimerBlock::new();
        t.configure_periodic(0, 10);
        for _ in 0..4 {
            t.tick(|_| {});
        }
        // Pause: clear ENABLE without touching count.
        let c = t.read(map::TIMER_CTRL);
        t.write(map::TIMER_CTRL, c & !ctrl::ENABLE);
        for _ in 0..100 {
            t.tick(|_| {});
        }
        assert_eq!(t.read(map::TIMER_COUNT_LO), 6, "count frozen while paused");
        // A paused timer reports no upcoming alarm.
        assert_eq!(t.cycles_to_next_alarm(), None);
    }

    #[test]
    fn count_readback() {
        let mut t = TimerBlock::new();
        t.configure_periodic(0, 0x0204);
        t.tick(|_| {});
        assert_eq!(t.read(map::TIMER_COUNT_LO), 0x03);
        assert_eq!(t.read(map::TIMER_COUNT_HI), 0x02);
        assert_eq!(t.read(map::TIMER_RELOAD_LO), 0x04);
        assert_eq!(t.read(map::TIMER_RELOAD_HI), 0x02);
    }

    #[test]
    fn reconfigure_changes_period() {
        let mut t = TimerBlock::new();
        t.configure_periodic(0, 10);
        let f = fires_in(&mut t, 10);
        assert_eq!(f.len(), 1);
        // Reconfigure (the paper's application 4 does this on command).
        t.write(map::TIMER_CTRL, 0);
        t.configure_periodic(0, 25);
        let f = fires_in(&mut t, 50);
        assert_eq!(f, vec![(25, 0), (50, 0)]);
    }
}
