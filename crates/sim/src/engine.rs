//! The simulation engine: cycle stepping with idle-skip fast-forward.
//!
//! Sensor-network workloads are overwhelmingly idle — the Great Duck Island
//! deployment sampled once every 70 seconds (7 million cycles at the
//! system's 100 kHz clock) and its duty cycle was ~10⁻⁴. Stepping every
//! cycle would make lifetime studies (months to years of simulated time)
//! impractical, so the engine asks the machine when it will next do
//! anything and, when the machine reports itself idle, jumps straight
//! there. Machines must account idle energy for skipped spans inside
//! [`Simulatable::skip_to`]; the `fast_forward_equivalence` integration
//! test verifies that skipping changes neither cycle counts nor energy.

use crate::perf::{PhaseId, Profiler};
use crate::units::Cycles;

/// What a machine did during one stepped cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Work happened (or is imminent); keep stepping cycle by cycle.
    Busy,
    /// No compute is in flight. A peripheral may still run on its own
    /// (a radio frame on air); [`Simulatable::next_wakeup`] says when a
    /// skip may start, and the engine fast-forwards only up to it.
    Idle,
    /// The machine has halted permanently (e.g. a test program finished).
    Halted,
}

/// A machine the engine can drive.
///
/// Implementations advance exactly one clock cycle per [`step`] call and
/// must keep their own cycle counter, exposed through [`now`].
///
/// [`step`]: Simulatable::step
/// [`now`]: Simulatable::now
pub trait Simulatable {
    /// Current simulated time in cycles.
    fn now(&self) -> Cycles;

    /// Advance one cycle.
    fn step(&mut self) -> StepOutcome;

    /// The earliest future cycle at which the machine could become busy
    /// (e.g. the next timer expiry or scheduled packet arrival), or `None`
    /// if no future activity is scheduled. A machine that must not be
    /// skipped at all (something runs that a skip cannot cover) reports
    /// `now`.
    fn next_wakeup(&self) -> Option<Cycles>;

    /// Jump to `target` (strictly after [`now`](Simulatable::now)),
    /// accounting idle time/energy for the skipped span. Only called when
    /// the last [`step`](Simulatable::step) returned [`StepOutcome::Idle`].
    fn skip_to(&mut self, target: Cycles);

    /// Advance after a [`step`](Simulatable::step) returned
    /// [`StepOutcome::Idle`] (with fast-forwarding on). The default makes
    /// the engine's one idle skip: to the next wakeup clamped to
    /// `deadline` (see [`skip_target`]).
    ///
    /// A machine may go on from there, one wake after another, for as
    /// long as each further cycle it steps is one whose step would
    /// return `Idle` and each skip is the one the engine would make. It
    /// must stop, before stepping again, once [`now`](Simulatable::now)
    /// reaches `horizon` (at most `deadline`: the engine's next epoch
    /// boundary or the deadline, or, under a [`Engine::run_until`]
    /// predicate, `now` itself, which leaves the one skip). The result
    /// counts the further steps (each one an `Idle` step and one idle
    /// skip to the engine) and every skipped cycle. A run of identical
    /// further iterations (a skip, then a step) may be repeated in one
    /// go, provided it ends in the state the iterations one by one would
    /// reach and counts each as a step and its skip. So may whole
    /// stretches of the engine's loop, busy steps included, from a state
    /// the machine has been in before: the result then also counts, in
    /// `busy`, the steps the engine would have stepped as
    /// [`StepOutcome::Busy`]. A machine may also step the engine's loop
    /// itself, busy steps included, each step and skip as the engine
    /// would take it, counting the busy steps in `busy`; it stops
    /// before a step that could return [`StepOutcome::Halted`], which is
    /// the engine's own step to report.
    fn idle_advance(&mut self, deadline: Cycles, horizon: Cycles) -> IdleAdvance {
        let _ = horizon;
        let now = self.now();
        let mut run = IdleAdvance::default();
        if let Some(target) = skip_target(now, self.next_wakeup(), deadline) {
            self.skip_to(target);
            run.skipped = target - now;
        }
        run
    }

    /// Periodic telemetry hook. When an epoch length is configured via
    /// [`Engine::set_epoch`], the engine calls this once per elapsed epoch
    /// (in order, with a monotonically increasing `index`), including
    /// epochs crossed in a single idle-skip. Machines may use it to sample
    /// windowed metrics such as bus occupancy. The default is a no-op, so
    /// existing machines are unaffected.
    fn on_epoch(&mut self, index: u64) {
        let _ = index;
    }
}

/// Where the engine's idle skip from `now` lands: the next wakeup clamped
/// to `deadline`, or `deadline` with no wakeup scheduled. `None` when
/// there is nothing to skip — a wakeup due now (keep stepping) or the
/// deadline reached.
pub fn skip_target(now: Cycles, wakeup: Option<Cycles>, deadline: Cycles) -> Option<Cycles> {
    let target = match wakeup {
        Some(w) if w > now => w.min(deadline),
        Some(_) => return None,
        None => deadline,
    };
    (target > now).then_some(target)
}

/// What one [`Simulatable::idle_advance`] covered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdleAdvance {
    /// Cycles stepped after the first skip: one per quiet iteration
    /// (a silent `Idle` step), stepped or repeated, and every cycle a
    /// repeat of whole stretches covered, or the machine stepped, that
    /// the engine would have stepped, busy ones included.
    pub stepped: Cycles,
    /// Cycles covered by skips.
    pub skipped: Cycles,
    /// Of `stepped`, the cycles the engine would have stepped as
    /// [`StepOutcome::Busy`] (each a step, but no idle skip).
    pub busy: Cycles,
}

/// Statistics from one engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Cycles covered by a step or a quiet iteration, stepped or
    /// repeated (see [`Simulatable::idle_advance`]).
    pub stepped: Cycles,
    /// Cycles covered by idle-skip fast-forwarding.
    pub skipped: Cycles,
    /// Whether the machine reported [`StepOutcome::Halted`].
    pub halted: bool,
}

impl RunStats {
    /// Total simulated cycles covered by the run.
    pub fn total(&self) -> Cycles {
        self.stepped + self.skipped
    }

    fn merge(&mut self, other: RunStats) {
        self.stepped += other.stepped;
        self.skipped += other.skipped;
        self.halted |= other.halted;
    }
}

/// Pre-resolved profiler handles for the engine's probe sites, so the
/// hot loop indexes a vector instead of looking up phase names.
#[derive(Debug)]
struct EngineProf {
    profiler: Profiler,
    step: PhaseId,
    idle_skip: PhaseId,
    epoch_fire: PhaseId,
}

/// Drives a [`Simulatable`] machine.
#[derive(Debug)]
pub struct Engine<M> {
    machine: M,
    fast_forward: bool,
    lifetime: RunStats,
    /// Epoch length in cycles for [`Simulatable::on_epoch`] callbacks
    /// (`None` disables them — the default, costing one branch per step).
    epoch_len: Option<u64>,
    /// Absolute cycle at which the next epoch boundary fires.
    epoch_next: u64,
    /// Index passed to the next `on_epoch` call.
    epoch_index: u64,
    /// Host-side profiler (`None` — the default — costs one untaken
    /// branch per probe site, the same contract as the trace buffer).
    prof: Option<EngineProf>,
}

impl<M: Simulatable> Engine<M> {
    /// An engine with idle-skip enabled (the default).
    pub fn new(machine: M) -> Engine<M> {
        Engine {
            machine,
            fast_forward: true,
            lifetime: RunStats::default(),
            epoch_len: None,
            epoch_next: 0,
            epoch_index: 0,
            prof: None,
        }
    }

    /// Attach a host-side [`Profiler`]. The engine then attributes
    /// wall-clock to `engine.step`, `engine.idle_skip`, and
    /// `engine.epoch_fire` spans, bumps the `sim.cycles_stepped` /
    /// `sim.cycles_skipped` counters at the end of every run, and — when
    /// epochs are configured — records deterministic counter samples at
    /// each epoch boundary (the Perfetto counter-track material). The
    /// profiler observes only; it never influences the simulation.
    pub fn set_profiler(&mut self, profiler: &Profiler) {
        self.prof = Some(EngineProf {
            profiler: profiler.clone(),
            step: profiler.phase("engine.step"),
            idle_skip: profiler.phase("engine.idle_skip"),
            epoch_fire: profiler.phase("engine.epoch_fire"),
        });
    }

    /// One machine step, attributed to the `engine.step` span when a
    /// profiler is attached.
    #[inline]
    fn step_machine(&mut self) -> StepOutcome {
        let _span = self.prof.as_ref().map(|p| p.profiler.enter(p.step));
        self.machine.step()
    }

    /// Flush a finished run's cycle totals into the host perf counters.
    #[inline]
    fn count_run(&self, stats: &RunStats) {
        if let Some(p) = &self.prof {
            p.profiler
                .counter_add("sim.cycles_stepped", stats.stepped.0);
            p.profiler
                .counter_add("sim.cycles_skipped", stats.skipped.0);
        }
    }

    /// Enable or disable idle-skip fast-forwarding. Disabling it forces a
    /// step for every cycle — useful for validating skip correctness.
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.fast_forward = enabled;
    }

    /// Enable periodic [`Simulatable::on_epoch`] callbacks every `len`
    /// cycles, starting `len` cycles from the machine's current time.
    /// Epoch boundaries crossed by an idle-skip all fire (in order) right
    /// after the skip, so epoch counts are identical with and without
    /// fast-forwarding.
    ///
    /// # Panics
    /// Panics if `len` is zero.
    pub fn set_epoch(&mut self, len: Cycles) {
        assert!(len.0 > 0, "epoch length must be non-zero");
        self.epoch_len = Some(len.0);
        self.epoch_next = self.machine.now().0 + len.0;
        self.epoch_index = 0;
    }

    /// Borrow the machine.
    pub fn machine(&self) -> &M {
        &self.machine
    }

    /// Mutably borrow the machine.
    pub fn machine_mut(&mut self) -> &mut M {
        &mut self.machine
    }

    /// Consume the engine and return the machine.
    pub fn into_machine(self) -> M {
        self.machine
    }

    /// Cumulative statistics across all runs of this engine.
    pub fn lifetime_stats(&self) -> RunStats {
        self.lifetime
    }

    /// Run for `duration` cycles from the current time.
    pub fn run_for(&mut self, duration: Cycles) -> RunStats {
        let deadline = self.machine.now() + duration;
        self.run_until_cycle(deadline)
    }

    /// Run until the machine clock reaches `deadline` (absolute cycles).
    /// Stops early if the machine halts.
    pub fn run_until_cycle(&mut self, deadline: Cycles) -> RunStats {
        self.run_loop(deadline, None::<fn(&M) -> bool>).0
    }

    /// Run until `pred` holds (checked after every stepped cycle and every
    /// skip), or until `max` cycles elapse. Returns the stats and whether
    /// the predicate was satisfied.
    pub fn run_until(&mut self, max: Cycles, pred: impl FnMut(&M) -> bool) -> (RunStats, bool) {
        let deadline = self.machine.now() + max;
        self.run_loop(deadline, Some(pred))
    }

    /// The one run loop behind [`run_until_cycle`] and [`run_until`]:
    /// step until `deadline`, a halt, or `pred` holding. `pred` sees the
    /// machine before every step, so under it the idle advance makes the
    /// engine's one skip; without it a [`Simulatable::idle_advance`] may
    /// go on from there and repeat what it can in one jump.
    ///
    /// [`run_until_cycle`]: Engine::run_until_cycle
    /// [`run_until`]: Engine::run_until
    #[inline]
    fn run_loop<S: FnMut(&M) -> bool>(
        &mut self,
        deadline: Cycles,
        mut pred: Option<S>,
    ) -> (RunStats, bool) {
        let mut stats = RunStats::default();
        let mut satisfied = false;
        while self.machine.now() < deadline {
            if let Some(p) = pred.as_mut() {
                if p(&self.machine) {
                    satisfied = true;
                    break;
                }
            }
            match self.step_machine() {
                StepOutcome::Busy => stats.stepped += Cycles(1),
                StepOutcome::Halted => {
                    stats.stepped += Cycles(1);
                    stats.halted = true;
                    self.fire_epochs(&stats);
                    break;
                }
                StepOutcome::Idle => {
                    stats.stepped += Cycles(1);
                    self.idle_skip(deadline, pred.is_none(), &mut stats);
                }
            }
            self.fire_epochs(&stats);
        }
        if let Some(mut p) = pred {
            satisfied = satisfied || p(&self.machine);
        }
        self.count_run(&stats);
        self.lifetime.merge(stats);
        (stats, satisfied)
    }

    /// The idle-skip fast-forward step of [`run_loop`](Engine::run_loop):
    /// the machine's [`Simulatable::idle_advance`], bounded by the
    /// deadline and, when it may `chain`, by the next epoch boundary;
    /// otherwise by the machine's `now`, which leaves the one skip. Its
    /// further steps count as stepped cycles and, to the profiler, as
    /// that many `engine.step` calls and, busy ones aside,
    /// `engine.idle_skip` calls.
    fn idle_skip(&mut self, deadline: Cycles, chain: bool, stats: &mut RunStats) {
        if !self.fast_forward {
            return;
        }
        let _span = self.prof.as_ref().map(|p| p.profiler.enter(p.idle_skip));
        let horizon = match self.epoch_len {
            _ if !chain => self.machine.now(),
            Some(_) => deadline.min(Cycles(self.epoch_next)),
            None => deadline,
        };
        let run = self.machine.idle_advance(deadline, horizon);
        stats.stepped += run.stepped;
        stats.skipped += run.skipped;
        if let Some(p) = &self.prof {
            p.profiler.add_calls(p.step, run.stepped.0);
            p.profiler
                .add_calls(p.idle_skip, (run.stepped - run.busy).0);
        }
    }

    /// Fire every epoch boundary at or before the machine's current time.
    /// One branch when epochs are disabled (the default). With a profiler
    /// attached, each fired epoch is an `engine.epoch_fire` span and
    /// records the run's cumulative stepped/skipped cycle counts as
    /// deterministic counter samples on the guest cycle axis.
    fn fire_epochs(&mut self, stats: &RunStats) {
        let Some(len) = self.epoch_len else { return };
        let now = self.machine.now().0;
        while self.epoch_next <= now {
            if let Some(p) = &self.prof {
                let _span = p.profiler.enter(p.epoch_fire);
                let at = Cycles(self.epoch_next);
                p.profiler
                    .sample(at, "sim.stepped", (self.lifetime.stepped + stats.stepped).0);
                p.profiler
                    .sample(at, "sim.skipped", (self.lifetime.skipped + stats.skipped).0);
                self.machine.on_epoch(self.epoch_index);
            } else {
                self.machine.on_epoch(self.epoch_index);
            }
            self.epoch_index += 1;
            self.epoch_next += len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Busy for `burst` cycles at every multiple of `period`.
    struct Periodic {
        now: Cycles,
        period: u64,
        burst: u64,
        busy_cycles_seen: u64,
        halt_at: Option<u64>,
        epochs_seen: Vec<u64>,
    }

    impl Periodic {
        fn new(period: u64, burst: u64) -> Periodic {
            Periodic {
                now: Cycles(0),
                period,
                burst,
                busy_cycles_seen: 0,
                halt_at: None,
                epochs_seen: Vec::new(),
            }
        }
        fn busy_at(&self, t: u64) -> bool {
            t % self.period < self.burst
        }
    }

    impl Simulatable for Periodic {
        fn now(&self) -> Cycles {
            self.now
        }
        fn step(&mut self) -> StepOutcome {
            let t = self.now.0;
            self.now += Cycles(1);
            if self.halt_at == Some(t) {
                return StepOutcome::Halted;
            }
            if self.busy_at(t) {
                self.busy_cycles_seen += 1;
                StepOutcome::Busy
            } else {
                StepOutcome::Idle
            }
        }
        fn next_wakeup(&self) -> Option<Cycles> {
            let next_burst = (self.now.0 / self.period + 1) * self.period;
            let next = match self.halt_at {
                Some(h) if h >= self.now.0 => next_burst.min(h),
                _ => next_burst,
            };
            Some(Cycles(next))
        }
        fn skip_to(&mut self, target: Cycles) {
            assert!(target > self.now);
            self.now = target;
        }
        fn on_epoch(&mut self, index: u64) {
            self.epochs_seen.push(index);
        }
    }

    #[test]
    fn run_for_reaches_deadline_exactly() {
        let mut e = Engine::new(Periodic::new(100, 3));
        let stats = e.run_for(Cycles(1_000));
        assert_eq!(e.machine().now(), Cycles(1_000));
        assert_eq!(stats.total(), Cycles(1_000));
    }

    #[test]
    fn fast_forward_sees_same_busy_cycles_as_full_stepping() {
        let mut fast = Engine::new(Periodic::new(100, 3));
        fast.run_for(Cycles(10_000));

        let mut slow = Engine::new(Periodic::new(100, 3));
        slow.set_fast_forward(false);
        slow.run_for(Cycles(10_000));

        assert_eq!(
            fast.machine().busy_cycles_seen,
            slow.machine().busy_cycles_seen
        );
        assert_eq!(fast.machine().now(), slow.machine().now());
    }

    #[test]
    fn fast_forward_actually_skips() {
        let mut e = Engine::new(Periodic::new(1_000, 2));
        let stats = e.run_for(Cycles(100_000));
        assert!(stats.skipped.0 > 90_000, "skipped {:?}", stats.skipped);
    }

    #[test]
    fn halting_stops_the_run() {
        let mut m = Periodic::new(100, 3);
        m.halt_at = Some(250);
        let mut e = Engine::new(m);
        let stats = e.run_for(Cycles(10_000));
        assert!(stats.halted);
        assert_eq!(e.machine().now(), Cycles(251));
    }

    #[test]
    fn run_until_predicate() {
        let mut e = Engine::new(Periodic::new(100, 3));
        let (_, ok) = e.run_until(Cycles(10_000), |m| m.busy_cycles_seen >= 9);
        assert!(ok);
        // 3 busy cycles per 100-cycle period; the 9th busy cycle happens
        // in the third period.
        assert!(e.machine().now().0 >= 203 && e.machine().now().0 <= 300);
    }

    #[test]
    fn run_until_gives_up_at_max() {
        let mut e = Engine::new(Periodic::new(100, 3));
        let (stats, ok) = e.run_until(Cycles(500), |_| false);
        assert!(!ok);
        assert_eq!(stats.total(), Cycles(500));
    }

    #[test]
    fn lifetime_stats_accumulate() {
        let mut e = Engine::new(Periodic::new(100, 3));
        e.run_for(Cycles(1_000));
        e.run_for(Cycles(1_000));
        assert_eq!(e.lifetime_stats().total(), Cycles(2_000));
    }

    #[test]
    fn epochs_fire_in_order_and_survive_idle_skip() {
        // 4096 idle cycles per 5-busy burst: idle-skip crosses many epoch
        // boundaries per skip, and all of them must fire.
        let mut fast = Engine::new(Periodic::new(1_000, 5));
        fast.set_epoch(Cycles(64));
        fast.run_for(Cycles(10_000));

        let mut slow = Engine::new(Periodic::new(1_000, 5));
        slow.set_fast_forward(false);
        slow.set_epoch(Cycles(64));
        slow.run_for(Cycles(10_000));

        let expected: Vec<u64> = (0..10_000 / 64).collect();
        assert_eq!(fast.machine().epochs_seen, expected);
        assert_eq!(fast.machine().epochs_seen, slow.machine().epochs_seen);
    }

    #[test]
    fn epochs_disabled_by_default() {
        let mut e = Engine::new(Periodic::new(100, 3));
        e.run_for(Cycles(10_000));
        assert!(e.machine().epochs_seen.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_epoch_length_rejected() {
        let mut e = Engine::new(Periodic::new(100, 3));
        e.set_epoch(Cycles(0));
    }

    #[test]
    fn profiler_observes_without_perturbing() {
        let run = |profile: bool| {
            let mut e = Engine::new(Periodic::new(1_000, 5));
            e.set_epoch(Cycles(512));
            let prof = Profiler::new();
            if profile {
                e.set_profiler(&prof);
            }
            let stats = e.run_for(Cycles(10_000));
            (
                stats,
                e.machine().busy_cycles_seen,
                e.machine().epochs_seen.clone(),
                prof.snapshot(),
            )
        };
        let (stats_on, busy_on, epochs_on, snap) = run(true);
        let (stats_off, busy_off, epochs_off, _) = run(false);
        // No observer effect: guest-visible results are identical.
        assert_eq!(stats_on, stats_off);
        assert_eq!(busy_on, busy_off);
        assert_eq!(epochs_on, epochs_off);
        // The deterministic side matches the run stats exactly.
        assert_eq!(snap.counter("sim.cycles_stepped"), Some(stats_on.stepped.0));
        assert_eq!(snap.counter("sim.cycles_skipped"), Some(stats_on.skipped.0));
        assert_eq!(snap.phase("engine.step").unwrap().calls, stats_on.stepped.0);
        assert_eq!(
            snap.phase("engine.epoch_fire").unwrap().calls,
            epochs_on.len() as u64
        );
        // Epoch-boundary samples ride the guest cycle axis: two per epoch
        // (stepped + skipped), final sample equals the final total.
        assert_eq!(snap.samples.len(), 2 * epochs_on.len());
        let last = snap.samples.last().unwrap();
        assert_eq!(last.name, "sim.skipped");
        assert_eq!(last.value, stats_on.skipped.0);
        // Double run with profiling on: deterministic side is identical.
        let (_, _, _, snap2) = run(true);
        assert_eq!(snap.counts_table(), snap2.counts_table());
        assert_eq!(snap.samples, snap2.samples);
    }

    /// Wakes every `tick` cycles, the GDI base timer's shape: every
    /// `every`-th wake starts `burst` busy cycles, the others are silent
    /// (one `Idle` step). With `chain` on, its idle advance steps silent
    /// wakes and skips on up to `horizon`, as `System`'s does; off, it
    /// makes the engine's one skip.
    struct Ticker {
        now: Cycles,
        tick: u64,
        every: u64,
        burst: u64,
        chain: bool,
        busy_cycles_seen: u64,
        silent_wakes: u64,
        advances: u64,
    }

    impl Ticker {
        fn new(chain: bool) -> Ticker {
            Ticker {
                now: Cycles(0),
                tick: 70,
                every: 9,
                burst: 4,
                chain,
                busy_cycles_seen: 0,
                silent_wakes: 0,
                advances: 0,
            }
        }
        fn busy_at(&self, t: u64) -> bool {
            t % (self.tick * self.every) < self.burst
        }
    }

    impl Simulatable for Ticker {
        fn now(&self) -> Cycles {
            self.now
        }
        fn step(&mut self) -> StepOutcome {
            let t = self.now.0;
            self.now += Cycles(1);
            if self.busy_at(t) {
                self.busy_cycles_seen += 1;
                return StepOutcome::Busy;
            }
            self.silent_wakes += t.is_multiple_of(self.tick) as u64;
            StepOutcome::Idle
        }
        fn next_wakeup(&self) -> Option<Cycles> {
            Some(Cycles(self.now.0.div_ceil(self.tick) * self.tick))
        }
        fn skip_to(&mut self, target: Cycles) {
            assert!(target > self.now);
            self.now = target;
        }
        fn idle_advance(&mut self, deadline: Cycles, horizon: Cycles) -> IdleAdvance {
            self.advances += 1;
            let horizon = if self.chain { horizon } else { self.now };
            let mut run = IdleAdvance::default();
            loop {
                let now = self.now;
                if let Some(target) = skip_target(now, self.next_wakeup(), deadline) {
                    self.skip_to(target);
                    run.skipped += target - now;
                }
                if self.now >= horizon || self.busy_at(self.now.0) {
                    return run;
                }
                assert_eq!(self.step(), StepOutcome::Idle);
                run.stepped += Cycles(1);
            }
        }
    }

    /// A `run_until` predicate sees the machine before every step, so
    /// the engine hands a chaining idle advance no room to chain: the
    /// predicate is called as often as on the one-skip machine, and the
    /// run stops on the first state that satisfies it. A plain run of
    /// the same machine chains.
    #[test]
    fn a_predicate_sees_every_step() {
        let run = |chain: bool, wakes: u64| {
            let mut e = Engine::new(Ticker::new(chain));
            let mut calls = 0u64;
            let (stats, ok) = e.run_until(Cycles(100_000), |m| {
                calls += 1;
                m.silent_wakes >= wakes
            });
            let m = e.machine();
            (stats, ok, calls, m.now, m.busy_cycles_seen, m.silent_wakes)
        };
        for wakes in [1, 7, 8, 9, 300] {
            let chained = run(true, wakes);
            let (_, ok, _, _, _, seen) = chained;
            assert!(ok);
            assert_eq!(seen, wakes, "stopped past the first satisfying state");
            assert_eq!(chained, run(false, wakes));
        }
        let plain = |chain: bool| {
            let mut e = Engine::new(Ticker::new(chain));
            e.set_epoch(Cycles(5_000));
            let stats = e.run_for(Cycles(100_000));
            let m = e.into_machine();
            (stats, m.now, m.busy_cycles_seen, m.silent_wakes, m.advances)
        };
        let (chained, single) = (plain(true), plain(false));
        assert_eq!(chained.0, single.0);
        assert_eq!(
            (chained.1, chained.2, chained.3),
            (single.1, single.2, single.3)
        );
        assert!(chained.4 * 4 < single.4, "{} advances", chained.4);
    }

    #[test]
    fn no_wakeup_skips_to_deadline() {
        struct Dead {
            now: Cycles,
        }
        impl Simulatable for Dead {
            fn now(&self) -> Cycles {
                self.now
            }
            fn step(&mut self) -> StepOutcome {
                self.now += Cycles(1);
                StepOutcome::Idle
            }
            fn next_wakeup(&self) -> Option<Cycles> {
                None
            }
            fn skip_to(&mut self, target: Cycles) {
                self.now = target;
            }
        }
        let mut e = Engine::new(Dead { now: Cycles(0) });
        let stats = e.run_for(Cycles(1_000_000));
        assert_eq!(stats.stepped, Cycles(1));
        assert_eq!(stats.skipped, Cycles(999_999));
    }
}
