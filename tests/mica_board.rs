//! The Mica2 board steps a wake's instructions inside its idle advance,
//! skip after skip. Driven through the engine, a board must match the
//! engine's loop taken one step at a time: the same clock, mode cycles,
//! ADC conversions, sent frames, probe results, trace and exec trace,
//! latency histograms, CPU and RAM, run statistics, predicate calls and
//! profiler counts and samples.

use ulp_node::apps::mica as mapps;
use ulp_node::mcu8::assemble;
use ulp_node::mica::board::{Mica2Board, ProbeId};
use ulp_node::net::Frame;
use ulp_node::sim::perf::CounterSample;
use ulp_node::sim::{Cycles, Engine, Profiler, RunStats, Simulatable, StepOutcome, TraceBuffer};
use ulp_testkit::{
    any_bool, any_u16, any_u32, any_u64, any_u8, prop_assert_eq, props, vec_of, Rng,
};

/// The engine's loop as a literal reading of its contract, one step at
/// a time: step; after an idle step, skip once to the next wakeup
/// clamped to the deadline (nothing when a wakeup is due now); fire
/// every epoch boundary reached after each iteration, sampling the
/// cumulative counts as the engine's profiler does; check the predicate
/// before each step.
struct OneStep {
    board: Mica2Board,
    epoch: Option<u64>,
    epoch_next: u64,
    lifetime: RunStats,
    /// Steps taken, and the idle ones among them (each followed by one
    /// idle skip): the engine's `engine.step` and `engine.idle_skip`
    /// calls.
    steps: u64,
    idle_steps: u64,
    samples: Vec<CounterSample>,
}

impl OneStep {
    fn new(board: Mica2Board, epoch: Option<u64>) -> OneStep {
        OneStep {
            epoch_next: board.now().0 + epoch.unwrap_or(0),
            board,
            epoch,
            lifetime: RunStats::default(),
            steps: 0,
            idle_steps: 0,
            samples: Vec::new(),
        }
    }

    fn run_until(
        &mut self,
        max: Cycles,
        mut pred: impl FnMut(&Mica2Board) -> bool,
    ) -> (RunStats, bool) {
        let deadline = self.board.now() + max;
        let mut stats = RunStats::default();
        let mut satisfied = false;
        while self.board.now() < deadline {
            if pred(&self.board) {
                satisfied = true;
                break;
            }
            let outcome = self.board.step();
            stats.stepped += Cycles(1);
            self.steps += 1;
            match outcome {
                StepOutcome::Busy => {}
                StepOutcome::Halted => {
                    stats.halted = true;
                    self.fire_epochs(&stats);
                    break;
                }
                StepOutcome::Idle => {
                    self.idle_steps += 1;
                    let now = self.board.now();
                    let target = match self.board.next_wakeup() {
                        Some(w) if w > now => Some(w.min(deadline)),
                        Some(_) => None,
                        None => Some(deadline),
                    };
                    if let Some(t) = target.filter(|&t| t > now) {
                        self.board.skip_to(t);
                        stats.skipped += t - now;
                    }
                }
            }
            self.fire_epochs(&stats);
        }
        if !satisfied && pred(&self.board) {
            satisfied = true;
        }
        self.lifetime.stepped += stats.stepped;
        self.lifetime.skipped += stats.skipped;
        self.lifetime.halted |= stats.halted;
        (stats, satisfied)
    }

    fn run_for(&mut self, max: Cycles) -> RunStats {
        self.run_until(max, |_| false).0
    }

    fn fire_epochs(&mut self, stats: &RunStats) {
        let Some(len) = self.epoch else { return };
        while self.epoch_next <= self.board.now().0 {
            let at = Cycles(self.epoch_next);
            for (name, value) in [
                ("sim.stepped", self.lifetime.stepped + stats.stepped),
                ("sim.skipped", self.lifetime.skipped + stats.skipped),
            ] {
                self.samples.push(CounterSample {
                    at,
                    name: name.to_string(),
                    value: value.0,
                });
            }
            self.epoch_next += len;
        }
    }

    /// The engine's profiler, as this loop counts: steps, idle skips,
    /// cycle counters and epoch samples.
    fn same_profile(&self, profiler: &Profiler) {
        let snap = profiler.snapshot();
        let calls = |n| snap.phase(n).map_or(0, |p| p.calls);
        prop_assert_eq!(calls("engine.step"), self.steps, "engine.step calls");
        prop_assert_eq!(
            calls("engine.idle_skip"),
            self.idle_steps,
            "engine.idle_skip calls"
        );
        let counter = |n| snap.counter(n).unwrap_or(0);
        prop_assert_eq!(counter("sim.cycles_stepped"), self.lifetime.stepped.0);
        prop_assert_eq!(counter("sim.cycles_skipped"), self.lifetime.skipped.0);
        prop_assert_eq!(&snap.samples, &self.samples, "epoch samples");
    }
}

/// Every observable of two boards, the frames sent since the last call
/// included (drained from both).
fn assert_same_board(a: &mut Mica2Board, b: &mut Mica2Board, probes: &[ProbeId]) {
    prop_assert_eq!(a.now(), b.now(), "now");
    prop_assert_eq!(a.mode_cycles(), b.mode_cycles(), "mode cycles");
    prop_assert_eq!(a.adc_conversions(), b.adc_conversions(), "ADC conversions");
    prop_assert_eq!(a.take_sent(), b.take_sent(), "sent frames");
    for &p in probes {
        prop_assert_eq!(
            a.probe(p).results(),
            b.probe(p).results(),
            "probe {}",
            a.probe(p).name
        );
    }
    let events = |m: &Mica2Board| m.trace().events().cloned().collect::<Vec<_>>();
    prop_assert_eq!(events(a), events(b), "trace");
    prop_assert_eq!(a.trace().dropped(), b.trace().dropped(), "trace drops");
    prop_assert_eq!(
        a.exec_trace().collect::<Vec<_>>(),
        b.exec_trace().collect::<Vec<_>>(),
        "exec trace"
    );
    prop_assert_eq!(a.irq_service_latency(), b.irq_service_latency());
    prop_assert_eq!(a.wake_latency(), b.wake_latency());
    prop_assert_eq!(a.metrics_snapshot(), b.metrics_snapshot());
    let cpu = |m: &Mica2Board| {
        let c = m.cpu();
        (
            c.pc,
            c.sp,
            c.sreg(),
            c.regs,
            c.sleeping(),
            c.halted(),
            c.total_cycles(),
        )
    };
    prop_assert_eq!(cpu(a), cpu(b), "CPU");
    let ram = |m: &Mica2Board| (0x0100u16..0x1100).map(|x| m.ram(x)).collect::<Vec<_>>();
    prop_assert_eq!(ram(a), ram(b), "RAM");
    prop_assert_eq!(a.led(), b.led(), "LED");
}

/// A Mica2 application with its probes: application 1 to 4 (`kind`),
/// sampling every `period` ticks, the ADC fed from `adc_seed`. The
/// trace is off, on at a small capacity the run may fill, or on at its
/// default capacity (`trace`); the exec trace off, tiny or `cap` long.
fn board(
    (kind, period, threshold): (u8, u16, u8),
    adc_seed: u64,
    (trace, exec, cap): (u8, u8, u16),
) -> (Mica2Board, Vec<ProbeId>) {
    let app = match kind {
        0 => mapps::app1(period),
        1 => mapps::app2(period, threshold),
        2 => mapps::app3(period, threshold),
        _ => mapps::app4(period, threshold),
    };
    let mut rng = Rng::from_seed(adc_seed);
    let (mut board, probes) = app.board(Box::new(move |_| rng.next_u64() as u8));
    if trace == 1 {
        *board.trace_mut() = TraceBuffer::new(cap as usize % 200);
    }
    board.trace_mut().set_enabled(trace > 0);
    match exec {
        0 => {}
        1 => board.set_exec_trace(1 + cap as usize % 8),
        _ => board.set_exec_trace(cap as usize),
    }
    (board, probes.into_values().collect())
}

/// A received frame: a data frame (application 3 forwards it), a
/// command (application 4 reconfigures on it) or raw bytes.
fn rx_frame(kind: u8, seq: u8) -> Vec<u8> {
    match kind % 3 {
        0 => Frame::data(0x22, 0x0009, 0x0000, seq, &[seq])
            .unwrap()
            .encode(),
        1 => Frame::command(0x22, 0x0009, 0x0001, seq, &[1 + seq % 2, seq | 1, 0])
            .unwrap()
            .encode(),
        _ => (0..seq % 41).map(|i| i ^ seq).collect(),
    }
}

/// A `run_until` predicate of kind 3–7 from the board `start` a segment
/// of at most `max` cycles starts on: `now` reaching a cycle in the
/// segment, one to 5,000 more active cycles, one to three more ADC
/// conversions, the CPU awake, or the CPU waking and sleeping again.
fn predicate(
    kind: u8,
    param: u32,
    max: u64,
    start: &Mica2Board,
) -> impl FnMut(&Mica2Board) -> bool {
    let param = param as u64;
    let at = start.now() + Cycles(param % max);
    let active = start.mode_cycles().0 + 1 + param % 5_000;
    let adc = start.adc_conversions() + 1 + param % 3;
    let mut woke = false;
    move |b: &Mica2Board| match kind {
        3 => b.now() >= at,
        4 => b.mode_cycles().0 >= active,
        5 => b.adc_conversions() >= adc,
        6 => !b.cpu().sleeping(),
        _ => {
            woke |= !b.cpu().sleeping();
            woke && b.cpu().sleeping()
        }
    }
}

/// One segment of at most `max` cycles on both sides: a `run_for`
/// (kinds 0, 1 and 8, which first toggles the trace), a
/// `run_until_cycle` whose deadline may already have passed (kind 2) or
/// a `run_until` on a [`predicate`]. `param`'s low bits may first
/// schedule a frame a few hundred cycles on, which lands mid-burst when
/// the previous segment stopped on a wake.
fn same_segment(
    engine: &mut Engine<Mica2Board>,
    reference: &mut OneStep,
    probes: &[ProbeId],
    (kind, max, param): (u8, u64, u32),
) {
    if param % 4 == 0 {
        let at = engine.machine().now() + Cycles(1 + (param as u64 >> 2) % 400);
        let frame = rx_frame((param >> 12) as u8, (param >> 16) as u8);
        engine.machine_mut().schedule_rx(at, frame.clone());
        reference.board.schedule_rx(at, frame);
    }
    match kind {
        0 | 1 | 8 => {
            if kind == 8 {
                for b in [engine.machine_mut(), &mut reference.board] {
                    let on = b.trace().is_enabled();
                    b.trace_mut().set_enabled(!on);
                }
            }
            prop_assert_eq!(engine.run_for(Cycles(max)), reference.run_for(Cycles(max)));
        }
        2 => {
            let deadline = Cycles((engine.machine().now().0 + max).saturating_sub(3_000));
            let max = Cycles(deadline.0.saturating_sub(reference.board.now().0));
            prop_assert_eq!(engine.run_until_cycle(deadline), reference.run_for(max));
        }
        _ => {
            let (mut calls_a, mut calls_b) = (0u64, 0u64);
            let mut pred_a = predicate(kind, param, max, engine.machine());
            let mut pred_b = predicate(kind, param, max, &reference.board);
            let a = engine.run_until(Cycles(max), |m| {
                calls_a += 1;
                pred_a(m)
            });
            let b = reference.run_until(Cycles(max), |m| {
                calls_b += 1;
                pred_b(m)
            });
            prop_assert_eq!(a, b);
            prop_assert_eq!(calls_a, calls_b, "predicate calls");
        }
    }
    assert_same_board(engine.machine_mut(), &mut reference.board, probes);
}

props! {
    #![cases(32)]

    /// Random segments on a random Mica2 application agree with the
    /// engine's loop one step at a time in every observable. Inputs:
    /// applications 1–4 on 1–4 tick periods, ADC seeds, rx frames at
    /// random cycles and a few hundred cycles into a segment (so some
    /// land mid-burst), the trace off, on at a small capacity or on,
    /// toggled between segments, the exec trace off or on, epochs on
    /// or off; `run_for`, `run_until_cycle` and `run_until` segments.
    #[test]
    fn burst_matches_one_step_at_a_time(
        app in (0u8..4, 1u16..5, any_u8()),
        adc_seed in any_u64(),
        watch in (0u8..3, 0u8..3, any_u16()),
        rx in vec_of((any_u32(), any_u8(), any_u8()), 0..4),
        epoch in (any_bool(), any_u32()),
        segments in vec_of((0u8..9, 1u32..400_000, any_u32()), 1..6),
    ) {
        let horizon: u64 = segments.iter().map(|s| s.1 as u64).sum();
        let build = || {
            let (mut b, probes) = board(app, adc_seed, watch);
            for &(at, kind, seq) in &rx {
                b.schedule_rx(Cycles(1 + at as u64 % horizon), rx_frame(kind, seq));
            }
            (b, probes)
        };
        let epoch = epoch.0.then_some(1 + epoch.1 as u64 % 50_000);
        let (board_a, probes) = build();
        let mut engine = Engine::new(board_a);
        let profiler = Profiler::new();
        engine.set_profiler(&profiler);
        if let Some(len) = epoch {
            engine.set_epoch(Cycles(len));
        }
        let mut reference = OneStep::new(build().0, epoch);
        for &(kind, max, param) in &segments {
            same_segment(&mut engine, &mut reference, &probes, (kind, max as u64, param));
        }
        prop_assert_eq!(engine.lifetime_stats(), reference.lifetime);
        reference.same_profile(&profiler);
    }
}

/// A tick handler that counts wakes in RAM, and a main loop that
/// halts on the third: the `break` comes a few instructions into a
/// wake, mid-burst.
const BREAK_ON_THIRD_TICK: &str = r#"
    .org 0
    jmp main
    jmp tick
main:
    ldi r16, 0xFF
    out 0x3D, r16
    ldi r16, 0x10
    out 0x3E, r16
    ldi r16, 9
    out 0x12, r16
    ldi r16, 3
    out 0x11, r16
    sei
loop:
    sleep
    lds r16, 0x0310
    cpi r16, 3
    brne loop
    nop
    break
tick:
    push r16
    lds r16, 0x0310
    inc r16
    sts 0x0310, r16
    pop r16
    reti
"#;

#[test]
fn a_break_mid_burst_is_the_engines_halt() {
    let img = assemble(BREAK_ON_THIRD_TICK).unwrap();
    let build = || Mica2Board::new(&img, Box::new(|_| 0));
    let profiler = Profiler::new();
    let mut engine = Engine::new(build());
    engine.set_profiler(&profiler);
    let mut reference = OneStep::new(build(), None);
    let stats = engine.run_for(Cycles(100_000));
    assert!(stats.halted, "the engine's run reports the halt");
    assert_eq!(stats, reference.run_for(Cycles(100_000)));
    assert_same_board(engine.machine_mut(), &mut reference.board, &[]);
    assert_eq!(engine.machine().ram(0x0310), 3);
    reference.same_profile(&profiler);

    // The burst itself stops on the `break` and leaves it to the
    // engine's step.
    let mut board = build();
    let mut woken = 0;
    while woken < 3 {
        if board.step() == StepOutcome::Idle {
            let run = board.idle_advance(Cycles(100_000), Cycles(100_000));
            woken = board.ram(0x0310);
            if woken == 3 {
                assert!(run.busy.0 > 0, "the third wake ran in the burst");
            }
        }
    }
    assert!(!board.halted());
    assert_eq!(board.step(), StepOutcome::Halted);
}

#[test]
fn a_deadline_mid_burst_ends_where_the_engines_loop_does() {
    let app = mapps::app1(1);
    let build = || app.board(Box::new(|at: Cycles| at.0 as u8));
    // A deadline one cycle into the second instruction of the tenth wake.
    let (mut probe, _) = build();
    let mut woke = 0;
    let mut sleeping = false;
    let deadline = loop {
        let was = sleeping;
        probe.step();
        sleeping = probe.cpu().sleeping();
        if was && !sleeping {
            woke += 1;
            if woke == 10 {
                probe.step();
                break probe.now() + Cycles(1);
            }
        }
    };
    let (board_a, probes) = build();
    let probes: Vec<ProbeId> = probes.into_values().collect();
    let profiler = Profiler::new();
    let mut engine = Engine::new(board_a);
    engine.set_profiler(&profiler);
    let mut reference = OneStep::new(build().0, None);
    let max = deadline - reference.board.now();
    assert_eq!(engine.run_until_cycle(deadline), reference.run_for(max));
    let now = engine.machine().now();
    assert!(
        now >= deadline && now < deadline + Cycles(8),
        "ended mid-burst at {now:?}"
    );
    assert!(!engine.machine().cpu().sleeping(), "the CPU is still awake");
    assert_same_board(engine.machine_mut(), &mut reference.board, &probes);
    // And the burst goes on from there as the loop does.
    assert_eq!(
        engine.run_for(Cycles(50_000)),
        reference.run_for(Cycles(50_000))
    );
    assert_same_board(engine.machine_mut(), &mut reference.board, &probes);
    reference.same_profile(&profiler);
}
