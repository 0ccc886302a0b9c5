//! Reference-model property tests for the simulator's O(1) bookkeeping.
//!
//! The timer block simulates its counters lazily (a cached distance to
//! the next underflow plus a lag of unapplied cycles); here it is driven
//! side by side with a straightforward eager model that decrements every
//! counter on every cycle, and every observable must agree. The interrupt
//! arbiter keeps its pending lines as a bitmask; it is checked against a
//! flag-per-line model. The system chains quiet cycles (silent timer
//! wakes and radio airtime) inside its idle advance; a whole node run
//! through the engine is checked against the engine's loop taken one
//! wake at a time.

use ulp_node::apps::ulp::{monitoring, stages, AppStage, MonitoringConfig, SamplePeriod};
use ulp_node::core_arch::map::{self, Irq};
use ulp_node::core_arch::slaves::{timer_ctrl as ctrl, ConstSensor, RandomWalkSensor, TimerBlock};
use ulp_node::core_arch::{InterruptArbiter, System, SystemConfig};
use ulp_node::isa::ep::{encode_program, Instruction};
use ulp_node::net::Frame;
use ulp_node::sim::{
    Cycles, Engine, FaultKind, FaultPlan, Profiler, RunStats, Simulatable, StepOutcome, TraceBuffer,
};
use ulp_testkit::{
    any_bool, any_u16, any_u32, any_u64, any_u8, prop_assert, prop_assert_eq, props, vec_of,
};

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

// ---------------------------------------------------------------------
// Chained idle advance vs the engine loop one wake at a time
// ---------------------------------------------------------------------

/// The engine's loop as a literal reading of its contract: step; after
/// an idle step, skip once to the next wakeup clamped to the deadline
/// (nothing when a wakeup is due now); fire every epoch boundary reached
/// after each iteration; check the predicate before each step.
struct WakeByWake {
    sys: System,
    epoch: Option<u64>,
    epoch_next: u64,
    epoch_index: u64,
}

impl WakeByWake {
    fn new(sys: System, epoch: Option<u64>) -> WakeByWake {
        let epoch_next = sys.now().0 + epoch.unwrap_or(0);
        WakeByWake {
            sys,
            epoch,
            epoch_next,
            epoch_index: 0,
        }
    }

    fn run_until(
        &mut self,
        max: Cycles,
        mut pred: impl FnMut(&System) -> bool,
    ) -> (RunStats, bool) {
        let deadline = self.sys.now() + max;
        let mut stats = RunStats::default();
        let mut satisfied = false;
        while self.sys.now() < deadline {
            if pred(&self.sys) {
                satisfied = true;
                break;
            }
            let outcome = self.sys.step();
            stats.stepped += Cycles(1);
            match outcome {
                StepOutcome::Busy => {}
                StepOutcome::Halted => {
                    stats.halted = true;
                    self.fire_epochs();
                    break;
                }
                StepOutcome::Idle => {
                    let now = self.sys.now();
                    let target = match self.sys.next_wakeup() {
                        Some(w) if w > now => Some(w.min(deadline)),
                        Some(_) => None,
                        None => Some(deadline),
                    };
                    if let Some(t) = target.filter(|&t| t > now) {
                        self.sys.skip_to(t);
                        stats.skipped += t - now;
                    }
                }
            }
            self.fire_epochs();
        }
        if !satisfied && pred(&self.sys) {
            satisfied = true;
        }
        (stats, satisfied)
    }

    fn fire_epochs(&mut self) {
        let Some(len) = self.epoch else { return };
        while self.epoch_next <= self.sys.now().0 {
            self.sys.on_epoch(self.epoch_index);
            self.epoch_index += 1;
            self.epoch_next += len;
        }
    }
}

/// A randomised GDI-style node: the stage-3 program (it listens, so rx
/// frames are delivered) on a chained period, then each timer optionally
/// reprogrammed from `(enable?, reload, ctrl)` — chained or counting
/// cycles, with or without `IRQ_EN` and `REPEAT`, `CHAIN` on timer 0
/// included. Every timer interrupt has an ISR (the sampling chain for
/// timer 1, a bare `TERMINATE` for the others).
#[allow(clippy::type_complexity)]
fn random_node(
    base: u16,
    count: u16,
    timers: &[(bool, u16, u8)],
    rx: &[(u32, u8)],
    faults: (u64, u8),
    horizon: u64,
) -> System {
    let program = stages::app3(SamplePeriod::Chained { base, count }, 0);
    let mut sys = program.build_system(
        SystemConfig::default(),
        Box::new(RandomWalkSensor::new(100, base as u64)),
    );
    let terminate = encode_program(&[Instruction::Terminate]).unwrap();
    sys.load(0x07F0, &terminate);
    for i in [0, 2, 3] {
        sys.install_ep_isr(Irq::timer(i), 0x07F0);
    }
    for (i, &(reprogram, reload, bits)) in timers.iter().enumerate() {
        if !reprogram {
            continue;
        }
        let t = &mut sys.slaves_mut().timer;
        let b = i as u16 * map::TIMER_STRIDE;
        t.write(b + map::TIMER_CTRL, 0);
        t.write(b + map::TIMER_RELOAD_LO, reload as u8);
        t.write(b + map::TIMER_RELOAD_HI, (reload >> 8) as u8);
        t.write(b + map::TIMER_CTRL, bits & 0x0F);
    }
    // Half the frames and faults land on a base-timer underflow (while
    // timer 0 keeps the program's period), right where a chain steps;
    // with a horizon under one base period, on the first.
    let underflows = (horizon / base as u64).max(1);
    let on_underflow = |at: u64| (1 + at % underflows) * base as u64;
    for (seq, &(at, byte)) in rx.iter().enumerate() {
        let frame = Frame::data(0x22, 0x0009, 0x0001, seq as u8, &[byte]).unwrap();
        let at = if byte & 1 == 1 {
            on_underflow(at as u64)
        } else {
            1 + at as u64 % horizon
        };
        sys.schedule_rx(Cycles(at), frame.encode());
    }
    let (fault_seed, fault_count) = faults;
    let mut plan = FaultPlan::new();
    let generated = FaultPlan::generate(fault_seed, horizon, fault_count as usize);
    for (k, e) in generated.events().iter().enumerate() {
        let at = if k % 2 == 0 {
            on_underflow(e.at.0)
        } else {
            e.at.0
        };
        plan.push(Cycles(at), e.kind);
    }
    sys.set_fault_plan(plan);
    sys.trace_mut().set_enabled(true);
    sys
}

/// Every guest observable the two runs could differ in.
fn assert_same_node(a: &System, b: &System) {
    prop_assert_eq!(a.now(), b.now());
    prop_assert_eq!(a.busy_cycles(), b.busy_cycles());
    for (x, y) in a.meter().all().iter().zip(b.meter().all()) {
        prop_assert_eq!(
            x.energy.joules().to_bits(),
            y.energy.joules().to_bits(),
            "{} energy",
            x.name
        );
        prop_assert_eq!(x.mode_cycles, y.mode_cycles, "{} mode cycles", &x.name);
    }
    prop_assert_eq!(
        a.slaves().mem.energy().joules().to_bits(),
        b.slaves().mem.energy().joules().to_bits()
    );
    prop_assert_eq!(a.slaves().timer.alarms(), b.slaves().timer.alarms());
    prop_assert_eq!(
        a.slaves().timer.cycles_to_next_alarm(),
        b.slaves().timer.cycles_to_next_alarm()
    );
    prop_assert_eq!(a.idle_skip_spans(), b.idle_skip_spans());
    prop_assert_eq!(a.bus_occupancy(), b.bus_occupancy());
    prop_assert_eq!(a.mcu_wake_latency(), b.mcu_wake_latency());
    prop_assert_eq!(a.fault_stats(), b.fault_stats());
    prop_assert_eq!(a.fault(), b.fault());
    prop_assert_eq!(a.slaves().radio.stats(), b.slaves().radio.stats());
    let trace = |s: &System| s.trace().events().cloned().collect::<Vec<_>>();
    prop_assert_eq!(trace(a), trace(b));
    prop_assert_eq!(a.trace().dropped(), b.trace().dropped(), "trace drops");
    prop_assert_eq!(a.trace().peak(), b.trace().peak(), "trace peak");
    prop_assert_eq!(
        a.telemetry_snapshot().summary(),
        b.telemetry_snapshot().summary()
    );
    prop_assert_eq!(a.outbox(), b.outbox());
    let (mem_a, mem_b) = (&a.slaves().mem, &b.slaves().mem);
    prop_assert!(mem_a.contents() == mem_b.contents(), "SRAM bytes differ");
    for bank in 0..mem_a.config().banks() {
        prop_assert_eq!(
            mem_a.bank_stats(bank),
            mem_b.bank_stats(bank),
            "bank {}",
            bank
        );
    }
    prop_assert_eq!(a.slaves().msgproc.seq(), b.slaves().msgproc.seq());
    prop_assert_eq!(a.slaves().msgproc.stats(), b.slaves().msgproc.stats());
}

props! {
    #![cases(24)]

    /// One node driven through `Engine` (whose idle advance chains
    /// silent underflows) and through the engine's loop one wake at a
    /// time agree bit for bit: every component's energy and mode cycles,
    /// the run statistics of each segment, alarms, both telemetry
    /// histograms, and the trace. Segments end at random deadlines, the
    /// last one at a predicate on `now()`, so chains are cut by
    /// deadlines, epoch boundaries, the predicate, rx frames, faults,
    /// and interrupting underflows.
    #[test]
    fn chained_idle_advance_matches_wake_by_wake(
        period in (1u16..3_000, 1u16..12),
        timers in vec_of((any_bool(), 1u16..4_000, any_u8()), 4..5),
        rx in vec_of((ulp_testkit::any_u32(), any_u8()), 0..4),
        faults in (ulp_testkit::any_u64(), 0u8..4),
        epoch in (any_bool(), 1u64..40_000),
        segments in vec_of(1u32..60_000, 1..4),
    ) {
        let horizon: u64 = segments.iter().map(|&n| n as u64).sum::<u64>() + 60_000;
        let node = || random_node(period.0, period.1, &timers, &rx, faults, horizon);
        let epoch = epoch.0.then_some(epoch.1);
        let mut engine = Engine::new(node());
        if let Some(len) = epoch {
            engine.set_epoch(Cycles(len));
        }
        let mut reference = WakeByWake::new(node(), epoch);
        for &n in &segments {
            let a = engine.run_for(Cycles(n as u64));
            let (b, _) = reference.run_until(Cycles(n as u64), |_| false);
            prop_assert_eq!(a, b);
            assert_same_node(engine.machine(), &reference.sys);
        }
        // A predicate on `now()` that turns true partway through.
        let at = engine.machine().now() + Cycles(segments[0] as u64);
        let (mut calls_a, mut calls_b) = (0u64, 0u64);
        let a = engine.run_until(Cycles(60_000), |s| {
            calls_a += 1;
            s.now() >= at
        });
        let b = reference.run_until(Cycles(60_000), |s| {
            calls_b += 1;
            s.now() >= at
        });
        prop_assert_eq!(a, b);
        prop_assert_eq!(calls_a, calls_b, "predicate calls");
        assert_same_node(engine.machine(), &reference.sys);
    }
}

props! {
    #![cases(24)]

    /// Traced nodes with a fault plan of up to three faults over segments
    /// of millions of cycles, where the idle advance repeats runs of
    /// identical quiet iterations in one jump (no predicate): GDI-style
    /// nodes on a chained period (`base` × `count` cycles, hundreds of
    /// silent underflows per sample) and deaf airtime nodes on a
    /// cycle-counted period (long chains of airtime), with epochs on or
    /// off, agree bit for bit with the engine's loop one wake at a time.
    /// Jumps are cut by binade crossings, epoch boundaries, deadlines,
    /// faults, the chained timer's last silent underflow, timer
    /// underflows on air and the frame's end.
    #[test]
    fn long_quiet_chains_match_wake_by_wake(
        gdi in any_bool(),
        chained in (50u16..12_000, 2u16..800),
        airtime in (2_000u16..60_000, 1u8..22),
        faults in (ulp_testkit::any_u64(), 0u8..4),
        epoch in (any_bool(), 1u64..3_000_000),
        segments in vec_of(1u32..4_000_000, 1..3),
    ) {
        let horizon: u64 = segments.iter().map(|&n| n as u64).sum();
        let node = || {
            if gdi {
                random_node(chained.0, chained.1, &[], &[], faults, horizon)
            } else {
                airtime_node(airtime.0, airtime.1, false, &[], faults, horizon)
            }
        };
        let epoch = epoch.0.then_some(epoch.1);
        let mut engine = Engine::new(node());
        if let Some(len) = epoch {
            engine.set_epoch(Cycles(len));
        }
        let mut reference = WakeByWake::new(node(), epoch);
        for &n in &segments {
            let a = engine.run_for(Cycles(n as u64));
            let (b, _) = reference.run_until(Cycles(n as u64), |_| false);
            prop_assert_eq!(a, b);
            assert_same_node(engine.machine(), &reference.sys);
        }
    }
}

/// A constant-sensor node: the stage-1 (sample and send), stage-2
/// (filtered) or stage-3 (forwarding, listening) program on a
/// cycle-counted or a chained period (`base` × `count` cycles),
/// `samples` samples per packet. Its state repeats every 256 frames (the
/// message processor's 8-bit sequence number), so a long run repeats
/// whole periods in one jump.
fn const_node(stage: AppStage, chained: bool, base: u16, count: u16, samples: u8) -> System {
    let program = monitoring(&MonitoringConfig {
        stage,
        period: if chained {
            SamplePeriod::Chained { base, count }
        } else {
            SamplePeriod::Cycles(base * count)
        },
        samples_per_packet: samples,
        threshold: 0,
    });
    program.build_system(SystemConfig::default(), Box::new(ConstSensor(128)))
}

props! {
    #![cases(4)]

    /// Constant-sensor nodes over segments of millions of cycles, where
    /// the idle advance repeats whole 256-frame iterations of periods in
    /// one jump, agree with the engine's loop one wake at a time in
    /// every energy bit, count, frame, SRAM byte, telemetry histogram
    /// and trace event, drop and peak. Jumps are cut by deadlines, epoch
    /// boundaries, up to three faults and rx frames (forwarded by a
    /// listening node, missed by a deaf one). The trace is off, on at
    /// its default capacity, or on at a capacity the run may fill
    /// partway through a jump.
    #[test]
    fn repeated_periods_match_wake_by_wake(
        program in (0u8..3, any_bool()),
        period in (100u16..250, 3u16..5),
        samples in 1u8..5,
        rx in vec_of((ulp_testkit::any_u32(), any_u8()), 0..3),
        faults in (ulp_testkit::any_u64(), 0u8..4),
        trace in (0u8..3, 1usize..40_000),
        epoch in (any_bool(), 1u64..8_000_000),
        segments in vec_of(1_000_000u32..3_000_000, 1..3),
    ) {
        let ((stage, chained), (base, count)) = (program, period);
        let stage = [AppStage::SampleSend, AppStage::Filtered, AppStage::Forwarding][stage as usize];
        let horizon: u64 = segments.iter().map(|&n| n as u64).sum();
        let node = || {
            let mut sys = const_node(stage, chained, base, count, samples);
            for (seq, &(at, byte)) in rx.iter().enumerate() {
                let frame = Frame::data(0x22, 0x0009, 0x0000, seq as u8, &[byte]).unwrap();
                sys.schedule_rx(Cycles(1 + at as u64 % horizon), frame.encode());
            }
            sys.set_fault_plan(FaultPlan::generate(faults.0, horizon, faults.1 as usize));
            match trace.0 {
                0 => {}
                1 => sys.trace_mut().set_enabled(true),
                _ => {
                    *sys.trace_mut() = TraceBuffer::new(trace.1);
                    sys.trace_mut().set_enabled(true);
                }
            }
            sys
        };
        let epoch = epoch.0.then_some(epoch.1);
        let mut engine = Engine::new(node());
        if let Some(len) = epoch {
            engine.set_epoch(Cycles(len));
        }
        let mut reference = WakeByWake::new(node(), epoch);
        for &n in &segments {
            let a = engine.run_for(Cycles(n as u64));
            let (b, _) = reference.run_until(Cycles(n as u64), |_| false);
            prop_assert_eq!(a, b);
            assert_same_node(engine.machine(), &reference.sys);
        }
    }
}

/// Faults a constant-sensor node absorbs between samples: a dropped
/// interrupt on a line it does not use, radio noise while its radio is
/// off, and a short brownout while nothing is in flight.
const ABSORBED: [FaultKind; 3] = [
    FaultKind::DroppedIrq { line: 40 },
    FaultKind::RadioByteError { burst: 1 },
    FaultKind::Brownout { duration: 8 },
];

/// A fault every `spacing` cycles, 77 cycles past each multiple, `n` of
/// them, of `kinds` in turn.
fn spaced_faults(spacing: u64, n: u64, kinds: &[FaultKind]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for i in 1..=n {
        plan.push(Cycles(i * spacing + 77), kinds[i as usize % kinds.len()]);
    }
    plan
}

/// [`ABSORBED`], then a bit flip in a byte of SRAM a constant-sensor
/// node leaves alone, which changes its state for good.
fn with_flip() -> Vec<FaultKind> {
    let flip = FaultKind::SramBitFlip {
        bank: 7,
        addr: 0x07F8,
        bit: 3,
    };
    [&ABSORBED[..], &[flip]].concat()
}

/// A jump counts every step it covers: a node run with `run_for` (which
/// repeats whole periods) and with `run_until(.., |_| false)` (whose
/// loop steps them one wake at a time) leaves the same profiler
/// call counts, `sys.fault_apply`'s on a node with a fault plan included,
/// and the same node.
#[test]
fn jumps_count_every_step_they_cover() {
    for chained in [false, true] {
        for faulted in [false, true] {
            jumps_count_every_step_on(chained, faulted);
        }
    }
}

fn jumps_count_every_step_on(chained: bool, faulted: bool) {
    let run = |jump: bool| {
        let prof = Profiler::new();
        let mut sys = const_node(AppStage::SampleSend, chained, 150, 4, 1);
        if faulted {
            sys.set_fault_plan(spaced_faults(400_000, 2, &with_flip()));
        }
        sys.set_profiler(&prof);
        let mut engine = Engine::new(sys);
        engine.set_profiler(&prof);
        let stats = if jump {
            engine.run_for(Cycles(600 * 1_500))
        } else {
            engine.run_until(Cycles(600 * 1_500), |_| false).0
        };
        (stats, engine.into_machine(), prof.snapshot())
    };
    let (stats_a, a, prof_a) = run(true);
    let (stats_b, b, prof_b) = run(false);
    assert_eq!(stats_a, stats_b);
    assert_same_node(&a, &b);
    assert_eq!(a.fault_stats().injected, 2 * faulted as u64);
    assert!(prof_a.counter("sys.periods_repeated").unwrap() >= 512);
    assert_eq!(prof_b.counter("sys.periods_repeated"), None);
    let calls = |p: &ulp_node::sim::PerfSnapshot| {
        p.phases
            .iter()
            .map(|ph| (ph.name.clone(), ph.calls))
            .collect::<Vec<_>>()
    };
    assert_eq!(calls(&prof_a), calls(&prof_b));
}

/// An epoch boundary inside the iteration the period watch records
/// drops the recording. The boundary samples the bus occupancy, and the
/// iterations a jump repeats take no sample (a jump stops at the next
/// boundary), so an iteration recorded across one would add a sample per
/// repeat. A constant-sensor node (600-cycle periods, 153,600-cycle
/// iterations) with 200,000-cycle epochs, fewer than two iterations
/// apart, records across a boundary more often than not, still repeats
/// 768 periods in jumps, and must agree with the engine's loop one wake
/// at a time.
#[test]
fn an_epoch_inside_the_recorded_iteration_is_not_repeated() {
    const EPOCH: u64 = 200_000;
    const RUN: u64 = 3_000_000;
    for chained in [false, true] {
        let node = || const_node(AppStage::SampleSend, chained, 150, 4, 1);
        let prof = Profiler::new();
        let mut sys = node();
        sys.set_profiler(&prof);
        let mut engine = Engine::new(sys);
        engine.set_epoch(Cycles(EPOCH));
        let a = engine.run_for(Cycles(RUN));
        let mut reference = WakeByWake::new(node(), Some(EPOCH));
        let (b, _) = reference.run_until(Cycles(RUN), |_| false);
        assert_eq!(a, b);
        assert_same_node(engine.machine(), &reference.sys);
        let repeated = prof.snapshot().counter("sys.periods_repeated");
        assert_eq!(repeated, Some(768), "chained {chained}");
    }
}

/// Tracing and a fault plan turn no jump off. A traced constant-sensor
/// node (600-cycle periods, 153,600-cycle iterations) with a fault every
/// 400,000 cycles, more than two iterations apart, repeats as many
/// periods in jumps as the same node untraced, and agrees with the
/// engine's loop one wake at a time, in its trace ring, drops and peak
/// too. The node traces 11,520 events an iteration, so its
/// 50,000-event ring, about 34,600 full when the first jump (of two
/// iterations) starts, fills partway through it.
#[test]
fn a_traced_faulted_node_jumps() {
    const RUN: u64 = 3_000_000;
    for chained in [false, true] {
        let node = |traced: bool| {
            let mut sys = const_node(AppStage::SampleSend, chained, 150, 4, 1);
            sys.set_fault_plan(spaced_faults(400_000, 7, &with_flip()));
            *sys.trace_mut() = TraceBuffer::new(50_000);
            sys.trace_mut().set_enabled(traced);
            sys
        };
        let run = |traced: bool| {
            let prof = Profiler::new();
            let mut sys = node(traced);
            sys.set_profiler(&prof);
            let mut engine = Engine::new(sys);
            let stats = engine.run_for(Cycles(RUN));
            let repeated = prof.snapshot().counter("sys.periods_repeated");
            (stats, engine.into_machine(), repeated)
        };
        let (a, traced, repeated) = run(true);
        let mut reference = WakeByWake::new(node(true), None);
        let (b, _) = reference.run_until(Cycles(RUN), |_| false);
        assert_eq!(a, b);
        assert_same_node(&traced, &reference.sys);
        assert_eq!(traced.fault_stats().injected, 7);
        assert_eq!(traced.trace().len(), 50_000);
        assert_eq!(repeated, Some(2_048), "chained {chained}");
        assert_eq!(run(false).2, repeated, "chained {chained}: untraced");
    }
}

/// A fault inside the iteration the period watch records drops the
/// recording, as an epoch boundary does: a fault is input from outside,
/// and the iterations a jump repeats land none (a jump stops before the
/// next one), so an iteration recorded across one would repeat its
/// injection, trace events and all. A traced constant-sensor node
/// (600-cycle periods, 153,600-cycle iterations) with a fault every
/// 200,000 cycles, fewer than two iterations apart, records across a
/// fault more often than not, still repeats 768 periods in jumps, and must
/// agree with the engine's loop one wake at a time.
#[test]
fn a_fault_inside_the_recorded_iteration_is_not_repeated() {
    const RUN: u64 = 3_000_000;
    for chained in [false, true] {
        let node = || {
            let mut sys = const_node(AppStage::SampleSend, chained, 150, 4, 1);
            sys.set_fault_plan(spaced_faults(200_000, 14, &ABSORBED));
            sys.trace_mut().set_enabled(true);
            sys
        };
        let prof = Profiler::new();
        let mut sys = node();
        sys.set_profiler(&prof);
        let mut engine = Engine::new(sys);
        let a = engine.run_for(Cycles(RUN));
        let mut reference = WakeByWake::new(node(), None);
        let (b, _) = reference.run_until(Cycles(RUN), |_| false);
        assert_eq!(a, b);
        assert_same_node(engine.machine(), &reference.sys);
        let repeated = prof.snapshot().counter("sys.periods_repeated");
        assert_eq!(repeated, Some(768), "chained {chained}");
    }
}

/// An airtime-heavy node: the stage-1 program (deaf) or the stage-3
/// program (listening: rx frames for the base station are forwarded, or
/// missed when they end mid-frame) on a short cycle-counted period,
/// `samples` samples per packet. At a period of a few hundred cycles a
/// frame is on air for about a third of the stepped cycles. Rx frames
/// and generated faults land at random cycles, many of them mid-frame.
fn airtime_node(
    period: u16,
    samples: u8,
    listen: bool,
    rx: &[(u32, u8)],
    faults: (u64, u8),
    horizon: u64,
) -> System {
    let program = monitoring(&MonitoringConfig {
        stage: if listen {
            AppStage::Forwarding
        } else {
            AppStage::SampleSend
        },
        period: SamplePeriod::Cycles(period),
        samples_per_packet: samples,
        threshold: 0,
    });
    let mut sys = program.build_system(
        SystemConfig::default(),
        Box::new(RandomWalkSensor::new(100, period as u64)),
    );
    for (seq, &(at, byte)) in rx.iter().enumerate() {
        let frame = Frame::data(0x22, 0x0009, 0x0000, seq as u8, &[byte]).unwrap();
        sys.schedule_rx(Cycles(1 + at as u64 % horizon), frame.encode());
    }
    sys.set_fault_plan(FaultPlan::generate(faults.0, horizon, faults.1 as usize));
    sys.trace_mut().set_enabled(true);
    sys
}

props! {
    #![cases(24)]

    /// The agreement of `chained_idle_advance_matches_wake_by_wake` on
    /// airtime-heavy nodes, where most chains run through a frame on air
    /// and are cut by its completion, by timer interrupts, rx frames,
    /// faults, epoch boundaries, deadlines and the predicate.
    #[test]
    fn airtime_heavy_idle_advance_matches_wake_by_wake(
        period in 150u16..800,
        samples in 1u8..22,
        listen in any_bool(),
        rx in vec_of((ulp_testkit::any_u32(), any_u8()), 0..6),
        faults in (ulp_testkit::any_u64(), 0u8..4),
        epoch in (any_bool(), 1u64..5_000),
        segments in vec_of(1u32..20_000, 1..4),
    ) {
        let horizon: u64 = segments.iter().map(|&n| n as u64).sum::<u64>() + 20_000;
        let node = || airtime_node(period, samples, listen, &rx, faults, horizon);
        let epoch = epoch.0.then_some(epoch.1);
        let mut engine = Engine::new(node());
        if let Some(len) = epoch {
            engine.set_epoch(Cycles(len));
        }
        let mut reference = WakeByWake::new(node(), epoch);
        for &n in &segments {
            let a = engine.run_for(Cycles(n as u64));
            let (b, _) = reference.run_until(Cycles(n as u64), |_| false);
            prop_assert_eq!(a, b);
            assert_same_node(engine.machine(), &reference.sys);
        }
        let at = engine.machine().now() + Cycles(segments[0] as u64);
        let (mut calls_a, mut calls_b) = (0u64, 0u64);
        let a = engine.run_until(Cycles(20_000), |s| {
            calls_a += 1;
            s.now() >= at
        });
        let b = reference.run_until(Cycles(20_000), |s| {
            calls_b += 1;
            s.now() >= at
        });
        prop_assert_eq!(a, b);
        prop_assert_eq!(calls_a, calls_b, "predicate calls");
        assert_same_node(engine.machine(), &reference.sys);
    }
}

/// A `run_until` predicate of kind 3–7 from the state `start` a
/// segment of at most `max` cycles starts in: `now` reaching a cycle in
/// the segment, one to 2,000 more busy cycles, one to three more frames
/// sent, the node waking, or the node waking and falling quiescent again.
fn predicate(kind: u8, param: u32, max: u64, start: &System) -> impl FnMut(&System) -> bool {
    let param = param as u64;
    let at = start.now() + Cycles(param % max);
    let busy = start.busy_cycles() + Cycles(1 + param % 2_000);
    let sent = start.slaves().radio.stats().transmitted + 1 + param % 3;
    let mut woke = false;
    move |s: &System| match kind {
        3 => s.now() >= at,
        4 => s.busy_cycles() >= busy,
        5 => s.slaves().radio.stats().transmitted >= sent,
        6 => !s.is_quiescent(),
        _ => {
            woke |= !s.is_quiescent();
            woke && s.is_quiescent()
        }
    }
}

/// Drive `engine` and `reference` through one segment of at most `max`
/// cycles, a `run_for` (kinds 0–2) or a `run_until` on a [`predicate`], and
/// require the same statistics, predicate calls and node.
fn same_segment(
    engine: &mut Engine<System>,
    reference: &mut WakeByWake,
    (kind, max, param): (u8, u64, u32),
) {
    if kind < 3 {
        let a = engine.run_for(Cycles(max));
        let (b, _) = reference.run_until(Cycles(max), |_| false);
        prop_assert_eq!(a, b);
    } else {
        let (mut calls_a, mut calls_b) = (0u64, 0u64);
        let mut pred_a = predicate(kind, param, max, engine.machine());
        let mut pred_b = predicate(kind, param, max, &reference.sys);
        let a = engine.run_until(Cycles(max), |s| {
            calls_a += 1;
            pred_a(s)
        });
        let b = reference.run_until(Cycles(max), |s| {
            calls_b += 1;
            pred_b(s)
        });
        prop_assert_eq!(a, b);
        prop_assert_eq!(calls_a, calls_b, "predicate calls");
    }
    assert_same_node(engine.machine(), &reference.sys);
}

props! {
    #![cases(6)]

    /// `run_for` and `run_until` segments interleaved at random on one
    /// node agree with the engine's loop one wake at a time in every
    /// energy bit, count, frame, trace event, drop and peak, the run
    /// statistics and the predicate's calls. Nodes: constant-sensor
    /// stage 1–3 nodes on cycle-counted or chained periods, whose long
    /// segments repeat whole periods (and whose recordings may span a
    /// predicate segment); GDI-style random-walk nodes; and
    /// airtime-heavy nodes. Epochs on or off, up to three faults and
    /// rx frames, the trace off or on. Predicates read `now`,
    /// `busy_cycles`, the radio's transmit count and `is_quiescent`.
    #[test]
    fn predicate_and_plain_segments_match_wake_by_wake(
        node in (0u8..5, any_bool(), any_u16(), any_u16()),
        samples in 1u8..22,
        rx in vec_of((any_u32(), any_u8()), 0..4),
        faults in (any_u64(), 0u8..4),
        traced in any_bool(),
        epoch in (any_bool(), any_u64()),
        segments in vec_of((0u8..8, 1u32..3_000_000, any_u32()), 1..6),
    ) {
        let (kind, flag, a, b) = node;
        // Cycles per segment, at most: millions where whole periods
        // repeat, fewer where every sample is stepped.
        let scale = [1, 1, 1, 10, 100][kind as usize];
        let segments: Vec<_> = segments
            .iter()
            .map(|&(pred, n, param)| (pred, n as u64 / scale + 1, param))
            .collect();
        let horizon: u64 = segments.iter().map(|s| s.1).sum();
        let build = || {
            let mut sys = match kind {
                0..=2 => {
                    let stage = [AppStage::SampleSend, AppStage::Filtered, AppStage::Forwarding];
                    let (base, count) = (100 + a % 150, 3 + b % 2);
                    let mut sys = const_node(stage[kind as usize], flag, base, count, 1 + samples % 4);
                    for (seq, &(at, byte)) in rx.iter().enumerate() {
                        let frame = Frame::data(0x22, 0x0009, 0x0000, seq as u8, &[byte]);
                        sys.schedule_rx(Cycles(1 + at as u64 % horizon), frame.unwrap().encode());
                    }
                    let plan = FaultPlan::generate(faults.0, horizon, faults.1 as usize);
                    sys.set_fault_plan(plan);
                    sys
                }
                3 => random_node(50 + a % 3_000, 2 + b % 100, &[], &rx, faults, horizon),
                _ => airtime_node(150 + a % 650, samples, flag, &rx, faults, horizon),
            };
            sys.trace_mut().set_enabled(traced);
            sys
        };
        let epoch = epoch.0.then_some(1 + epoch.1 % (8_000_000 / scale));
        let mut engine = Engine::new(build());
        if let Some(len) = epoch {
            engine.set_epoch(Cycles(len));
        }
        let mut reference = WakeByWake::new(build(), epoch);
        for &segment in &segments {
            same_segment(&mut engine, &mut reference, segment);
        }
    }
}

/// A predicate segment leaves the period watch whole. A constant-sensor
/// node (600-cycle periods, 153,600-cycle iterations) anchors at its
/// first boundary, finds its repeat one iteration on and records the
/// next iteration. A `run_until` until three more frames are sent,
/// starting and ending on busy cycles (so no segment end cuts a skip),
/// runs either between the anchor and the find, where the boundaries
/// the engine's loop steps past still count towards the iteration's
/// periods, or inside the recorded iteration, whose tape records what
/// the loop charges. Either way the node repeats as many periods as one
/// `run_for` over the same span, and matches the engine's loop one wake
/// at a time.
#[test]
fn a_predicate_segment_leaves_the_period_watch_whole() {
    const RUN: u64 = 1_500_000;
    for chained in [false, true] {
        let node = || const_node(AppStage::SampleSend, chained, 150, 4, 1);
        for start in [None, Some(600 * 100 + 3), Some(600 * 380 + 3)] {
            let prof = Profiler::new();
            let mut sys = node();
            sys.set_profiler(&prof);
            let mut engine = Engine::new(sys);
            let mut reference = WakeByWake::new(node(), None);
            if let Some(start) = start {
                same_segment(&mut engine, &mut reference, (0, start, 0));
                same_segment(&mut engine, &mut reference, (5, 10_000, 2));
            }
            let rest = RUN - engine.machine().now().0;
            same_segment(&mut engine, &mut reference, (0, rest, 0));
            let repeated = prof.snapshot().counter("sys.periods_repeated");
            assert_eq!(repeated, Some(1_792), "chained {chained}, {start:?}");
        }
    }
}

/// What lands in the middle of a frame on air.
#[derive(Debug, Clone, Copy, PartialEq)]
enum MidFrame {
    TimerIrq,
    RxFrame,
    Fault,
    EpochBoundary,
}

/// A timer interrupt, an rx frame, a fault and an epoch boundary each
/// landing mid-frame cut the airtime chain on exactly that cycle. The
/// node is the stage-3 program with one frame on air and nothing else
/// busy; 10 cycles on, the event lands. `idle_advance` makes no skip
/// (`next_wakeup` is `now` on air, so no `idle_skip_spans` entry covers
/// airtime and `Radio::skip`, which asserts, is never reached), steps
/// the 9 quiet cycles before the event and stops; at an epoch boundary
/// it stops once `now` reaches it. The cycle itself steps as usual, and
/// the whole run matches the engine's loop one wake at a time.
#[test]
fn events_mid_frame_cut_the_airtime_chain() {
    const AHEAD: u64 = 10;
    let setup = |event: MidFrame| -> (System, Cycles) {
        let program = stages::app3(SamplePeriod::Cycles(1_000), 0);
        let mut sys = program.build_system(
            SystemConfig::default(),
            Box::new(RandomWalkSensor::new(100, 3)),
        );
        sys.trace_mut().set_enabled(true);
        let terminate = encode_program(&[Instruction::Terminate]).unwrap();
        sys.load(0x07F0, &terminate);
        sys.install_ep_isr(Irq::timer(2), 0x07F0);
        let mut engine = Engine::new(sys);
        let (_, on_air) = engine.run_until(Cycles(5_000), |s| {
            s.slaves().radio.transmitting()
                && s.ep().is_ready()
                && !s.slaves().irqs.any_pending()
                && !s.slaves().msgproc.busy()
        });
        assert!(on_air, "a frame goes on air with nothing else busy");
        let mut sys = engine.into_machine();
        let at = sys.now() + Cycles(AHEAD);
        assert!(sys.slaves().radio.cycles_to_tx_done().unwrap() > AHEAD + 1);
        match event {
            MidFrame::TimerIrq => {
                let t = &mut sys.slaves_mut().timer;
                let b = 2 * map::TIMER_STRIDE;
                t.write(b + map::TIMER_RELOAD_LO, AHEAD as u8);
                t.write(b + map::TIMER_CTRL, ctrl::ENABLE | ctrl::IRQ_EN);
            }
            MidFrame::RxFrame => {
                let frame = Frame::data(0x22, 0x0009, 0x0001, 0, &[7]).unwrap();
                sys.schedule_rx(at, frame.encode());
            }
            MidFrame::Fault => {
                let mut plan = FaultPlan::new();
                plan.push(at, FaultKind::RadioByteError { burst: 1 });
                sys.set_fault_plan(plan);
            }
            MidFrame::EpochBoundary => {}
        }
        (sys, at)
    };
    for event in [
        MidFrame::TimerIrq,
        MidFrame::RxFrame,
        MidFrame::Fault,
        MidFrame::EpochBoundary,
    ] {
        let (mut sys, at) = setup(event);
        let start = sys.now();
        let spans = sys.idle_skip_spans().count();
        assert_eq!(sys.next_wakeup(), Some(start), "{event:?}: no skip on air");
        let horizon = if event == MidFrame::EpochBoundary {
            at
        } else {
            start + Cycles(100_000)
        };
        let run = sys.idle_advance(start + Cycles(100_000), horizon);
        let stop = if event == MidFrame::EpochBoundary {
            at
        } else {
            at - Cycles(1)
        };
        assert_eq!(sys.now(), stop, "{event:?}: chain stops before the event");
        assert_eq!(run.stepped, stop - start, "{event:?}");
        assert_eq!(run.skipped, Cycles::ZERO, "{event:?}");
        assert_eq!(
            sys.idle_skip_spans().count(),
            spans,
            "{event:?}: no span on air"
        );
        assert!(sys.slaves().radio.transmitting(), "{event:?}: still on air");
        if event != MidFrame::EpochBoundary {
            let outcome = sys.step();
            match event {
                MidFrame::TimerIrq => assert_eq!(outcome, StepOutcome::Busy),
                MidFrame::RxFrame => assert_eq!(sys.slaves().radio.stats().missed, 1),
                MidFrame::Fault => assert_eq!(sys.fault_stats().degraded, 1),
                MidFrame::EpochBoundary => unreachable!(),
            }
        }

        // The same start driven both ways, through the frame's end and
        // a few periods on, with an epoch boundary on the event cycle.
        let (sys_a, _) = setup(event);
        let (sys_b, _) = setup(event);
        let epoch = at.0 - sys_a.now().0;
        let mut engine = Engine::new(sys_a);
        engine.set_epoch(Cycles(epoch));
        let mut reference = WakeByWake::new(sys_b, Some(epoch));
        let a = engine.run_for(Cycles(4_000));
        let (b, _) = reference.run_until(Cycles(4_000), |_| false);
        assert_eq!(a, b, "{event:?}");
        assert_same_node(engine.machine(), &reference.sys);
    }
}

/// `run_until` checks its predicate after every stepped cycle and every
/// skip, on the engine's own loop: a predicate on `now()` that turns
/// true where a plain run would chain silent GDI wakes stops the run at
/// the first skip that reaches it, with the same calls, statistics and
/// energy as the engine's loop one wake at a time.
#[test]
fn run_until_stops_partway_through_a_chain() {
    let node = || {
        let program = stages::app1(SamplePeriod::Chained {
            base: 10_000,
            count: 700,
        });
        program.build_system(
            SystemConfig::default(),
            Box::new(RandomWalkSensor::new(120, 7)),
        )
    };
    let mut engine = Engine::new(node());
    let mut reference = WakeByWake::new(node(), None);
    // The first alarm is at 7,000,000; 123,456 falls in the 13th of its
    // silent base-timer wakes, whose skip lands on 129,999.
    let at = Cycles(123_456);
    let (mut calls_a, mut calls_b) = (0u64, 0u64);
    let a = engine.run_until(Cycles(1_000_000), |s| {
        calls_a += 1;
        s.now() >= at
    });
    let b = reference.run_until(Cycles(1_000_000), |s| {
        calls_b += 1;
        s.now() >= at
    });
    assert!(a.1, "predicate satisfied");
    assert_eq!(engine.machine().now(), Cycles(129_999));
    assert_eq!(a, b);
    assert_eq!(calls_a, calls_b);
    assert_eq!(calls_a, 14, "once before each of 13 steps, then true");
    assert_same_node(engine.machine(), &reference.sys);
}

/// A silent one-shot timer that stops inside a chain of silent GDI
/// wakes, on a base-timer underflow, changes the timer block's draw in
/// the middle of an iteration of the chain's own shape: its skip was
/// charged at the old draw, its quiet cycle at the new one. The quiet
/// jumps must count from that cycle on, not repeat the mixed iteration,
/// and the run matches the engine's loop one wake at a time.
#[test]
fn a_one_shot_stopping_mid_chain_restarts_the_repeats() {
    const BASE: u16 = 100;
    let node = || {
        // Timer 2 counts 650 base periods, without `REPEAT` or `IRQ_EN`:
        // by then the chain's sums have room for jumps.
        let one_shot = (true, 650 * BASE, ctrl::ENABLE);
        let timers = [(false, 0, 0), (false, 0, 0), one_shot];
        random_node(BASE, 700, &timers, &[], (0, 0), 0)
    };
    let prof = Profiler::new();
    let mut sys = node();
    sys.set_profiler(&prof);
    assert_eq!(sys.slaves().timer.active_count(), 3);
    let mut engine = Engine::new(sys);
    engine.set_profiler(&prof);
    let mut reference = WakeByWake::new(node(), None);
    let a = engine.run_for(Cycles(2_000_000));
    let (b, _) = reference.run_until(Cycles(2_000_000), |_| false);
    assert_eq!(a, b);
    assert_same_node(engine.machine(), &reference.sys);
    assert_eq!(engine.machine().slaves().timer.active_count(), 2);
    assert_eq!(prof.snapshot().counter("sys.quiet_repeated"), Some(20_406));
}
