//! Edge-case tests for the simulation kernel: metering at saturation,
//! the zero-frequency contract, trace-buffer wraparound, and the
//! idle-skip engine against adversarial `next_wakeup` implementations
//! (stale/past wakeups, no wakeups, wakeups due immediately). These are
//! the corners a week-long lifetime study quietly relies on.

use ulp_sim::{
    Cycles, Draw, Energy, EnergyMeter, Engine, Frequency, Power, PowerMode, PowerSpec, Seconds,
    Simulatable, StepOutcome, TraceBuffer,
};

// ---------------------------------------------------------------------
// EnergyMeter at saturation
// ---------------------------------------------------------------------

#[test]
fn meter_survives_u64_max_cycle_charge() {
    // A charge spanning the entire representable cycle range (5.8 billion
    // simulated years at 100 kHz) must stay finite and sane — f64 energy
    // has headroom to spare and must not overflow, NaN, or go negative.
    let mut m = EnergyMeter::new(Frequency::from_khz(100.0));
    let id = m.register(
        "ep",
        PowerSpec::new(Power::from_uw(14.25), Power::from_nw(18.0), Power::ZERO),
    );
    m.charge(id, PowerMode::Active, Cycles(u64::MAX));
    let s = m.stats(id);
    assert!(s.energy.joules().is_finite());
    assert!(s.energy.joules() > 0.0);
    assert_eq!(s.total_cycles(), Cycles(u64::MAX));
    assert_eq!(s.utilization(), 1.0);
    let avg = s.average_power(m.clock());
    assert!(avg.watts().is_finite());
    // Average power of a constant-power span is that power.
    assert!((avg.uw() - 14.25).abs() < 1e-6);
    assert!(m.total_average_power(Cycles(u64::MAX)).watts().is_finite());
}

#[test]
fn meter_week_long_accumulation_is_monotone_and_precise() {
    // A simulated week charged in one span equals the same week charged
    // in 7 daily spans: the f64 accumulator must not lose the idle nano-
    // watts next to the active microwatts.
    let clock = Frequency::from_khz(100.0);
    let week = 7 * 24 * 3600 * 100_000u64; // 60.48e9 cycles
    let spec = PowerSpec::new(Power::from_uw(25.0), Power::from_nw(70.0), Power::ZERO);

    let mut whole = EnergyMeter::new(clock);
    let a = whole.register("sys", spec);
    whole.charge(a, PowerMode::Idle, Cycles(week));

    let mut daily = EnergyMeter::new(clock);
    let b = daily.register("sys", spec);
    let mut last = Energy::ZERO;
    for _ in 0..7 {
        daily.charge(b, PowerMode::Idle, Cycles(week / 7));
        let e = daily.stats(b).energy;
        assert!(e.joules() > last.joules(), "energy must strictly grow");
        last = e;
    }
    let ew = whole.stats(a).energy.joules();
    let ed = daily.stats(b).energy.joules();
    assert!(
        (ew - ed).abs() <= ew * 1e-12,
        "split charging drifted: {ew} vs {ed}"
    );
}

#[test]
#[should_panic(expected = "frequency must be positive")]
fn meter_rejects_zero_frequency_clock() {
    // Zero frequency would make every cycle→time conversion divide by
    // zero; the kernel forbids constructing such a clock at all, so a
    // meter can never exist in that state.
    let _ = EnergyMeter::new(Frequency::from_khz(0.0));
}

#[test]
#[should_panic(expected = "duration must be positive")]
fn average_over_zero_duration_is_rejected() {
    let _ = Energy(1e-6).average_over(Seconds(0.0));
}

#[test]
fn charge_fraction_accepts_closed_unit_interval() {
    let mut m = EnergyMeter::new(Frequency::from_khz(100.0));
    let id = m.register(
        "timer",
        PowerSpec::new(Power::from_uw(5.68), Power::from_nw(24.0), Power::ZERO),
    );
    m.charge(id, Draw::Fraction(0.0), Cycles(1000)); // pure idle
    m.charge(id, Draw::Fraction(1.0), Cycles(1000)); // pure active
    m.charge(id, Draw::Fraction(0.25), Cycles(1000)); // one of four timers
    let s = m.stats(id);
    assert_eq!(s.total_cycles(), Cycles(3000));
    assert!(s.energy.joules().is_finite() && s.energy.joules() > 0.0);
}

#[test]
#[should_panic(expected = "out of [0, 1]")]
fn charge_fraction_rejects_out_of_range() {
    let mut m = EnergyMeter::new(Frequency::from_khz(100.0));
    let id = m.register("x", PowerSpec::zero());
    m.charge(id, Draw::Fraction(1.0 + 1e-9), Cycles(1));
}

// ---------------------------------------------------------------------
// TraceBuffer wraparound
// ---------------------------------------------------------------------

#[test]
fn trace_buffer_saturates_and_counts_overflow() {
    let mut t = TraceBuffer::new(8);
    t.set_enabled(true);
    for i in 0..1000u64 {
        t.record(Cycles(i), "ep", format!("event {i}"));
    }
    // The first `capacity` events are retained in order; the rest are
    // counted, not silently lost and not wrapping over the prefix.
    assert_eq!(t.len(), 8);
    assert_eq!(t.dropped(), 992);
    assert_eq!(t.get(0).unwrap().at, Cycles(0));
    assert_eq!(t.get(7).unwrap().at, Cycles(7));
    // Clearing arms it again.
    t.clear();
    assert_eq!(t.dropped(), 0);
    t.record(Cycles(5000), "bus", "read");
    assert_eq!(t.len(), 1);
    assert_eq!(t.get(0).unwrap().at, Cycles(5000));
}

#[test]
fn zero_capacity_trace_buffer_drops_everything() {
    let mut t = TraceBuffer::new(0);
    t.set_enabled(true);
    for i in 0..10u64 {
        t.record(Cycles(i), "ep", "x");
    }
    assert!(t.is_empty());
    assert_eq!(t.dropped(), 10);
    assert_eq!(t.from_component("ep").count(), 0);
}

#[test]
fn disabled_trace_buffer_counts_nothing_at_capacity() {
    // Disabled recording must not count drops either — the hot path is
    // a single branch with no side effects.
    let mut t = TraceBuffer::new(1);
    t.set_enabled(true);
    t.record(Cycles(0), "a", "fill");
    t.set_enabled(false);
    for i in 0..100u64 {
        t.record(Cycles(i), "a", "ignored");
    }
    assert_eq!(t.len(), 1);
    assert_eq!(t.dropped(), 0);
}

// ---------------------------------------------------------------------
// Engine idle-skip vs adversarial next_wakeup
// ---------------------------------------------------------------------

/// A machine whose `next_wakeup` misbehaves on purpose.
struct Liar {
    now: Cycles,
    /// What `next_wakeup` reports, relative to `now`:
    /// negative = a past cycle (stale timer), 0 = due now, None = nothing.
    offset: Option<i64>,
    steps: u64,
}

impl Simulatable for Liar {
    fn now(&self) -> Cycles {
        self.now
    }
    fn step(&mut self) -> StepOutcome {
        self.now += Cycles(1);
        self.steps += 1;
        StepOutcome::Idle
    }
    fn next_wakeup(&self) -> Option<Cycles> {
        self.offset
            .map(|d| Cycles(self.now.0.saturating_add_signed(d)))
    }
    fn skip_to(&mut self, target: Cycles) {
        assert!(
            target > self.now,
            "engine must never skip backwards ({} -> {})",
            self.now.0,
            target.0
        );
        self.now = target;
    }
}

#[test]
fn stale_past_wakeup_degrades_to_stepping() {
    // `next_wakeup` persistently claims a cycle that has already passed
    // (a stale timer snapshot). The engine must not skip backwards, must
    // not loop forever, and must still reach the deadline — by stepping.
    let mut e = Engine::new(Liar {
        now: Cycles(0),
        offset: Some(-100),
        steps: 0,
    });
    let stats = e.run_for(Cycles(5_000));
    assert_eq!(e.machine().now(), Cycles(5_000));
    assert_eq!(stats.skipped, Cycles::ZERO, "past wakeups must not skip");
    assert_eq!(stats.stepped, Cycles(5_000));
}

#[test]
fn wakeup_due_now_degrades_to_stepping() {
    // `next_wakeup == now` (imminent work): same contract — step, don't
    // skip a zero-length span or spin.
    let mut e = Engine::new(Liar {
        now: Cycles(0),
        offset: Some(0),
        steps: 0,
    });
    let stats = e.run_for(Cycles(1_000));
    assert_eq!(e.machine().now(), Cycles(1_000));
    assert_eq!(stats.skipped, Cycles::ZERO);
}

#[test]
fn no_wakeup_skips_whole_horizon_in_one_jump() {
    // `next_wakeup == None` with an idle machine: the engine takes one
    // probe step then covers the rest of the horizon in a single skip —
    // this is what makes dead-node co-simulation free.
    let mut e = Engine::new(Liar {
        now: Cycles(0),
        offset: None,
        steps: 0,
    });
    let stats = e.run_for(Cycles(1_000_000_000));
    assert_eq!(e.machine().now(), Cycles(1_000_000_000));
    assert_eq!(stats.stepped, Cycles(1));
    assert_eq!(stats.skipped, Cycles(999_999_999));
    assert_eq!(e.machine().steps, 1);
}

#[test]
fn wakeup_beyond_deadline_clamps_to_deadline() {
    // A wakeup far past the run horizon must clamp: the machine's clock
    // stops exactly at the deadline, never beyond it.
    let mut e = Engine::new(Liar {
        now: Cycles(0),
        offset: Some(1_000_000),
        steps: 0,
    });
    let stats = e.run_for(Cycles(500));
    assert_eq!(e.machine().now(), Cycles(500));
    assert_eq!(stats.total(), Cycles(500));
}

#[test]
fn run_until_with_stale_wakeup_still_honours_predicate() {
    let mut e = Engine::new(Liar {
        now: Cycles(0),
        offset: Some(-1),
        steps: 0,
    });
    let (_, ok) = e.run_until(Cycles(10_000), |m| m.now() >= Cycles(123));
    assert!(ok);
    assert_eq!(e.machine().now(), Cycles(123));
}
