//! Workload analysis: the Figure 6 duty-cycle power sweep.
//!
//! The paper correlates per-component power (Table 5) with per-component
//! *utilization measured in the simulator* for the sample-filter-transmit
//! application, assuming every sample passes the filter (the conservative
//! case), then sweeps the node duty cycle from 1 (≈800 samples/s at
//! 100 kHz) down to 10⁻⁴ (the Great Duck Island operating point). That
//! is an analytic correlation — the paper does not simulate 800
//! back-to-back events per second — so we reproduce it the same way:
//!
//! 1. [`profile_event`] simulates real events and extracts per-event
//!    active cycles for every component (the paper's "the threshold
//!    filter is used for 3 cycles out of the total system 127 cycles per
//!    sample, and the message processor for 70");
//! 2. [`figure6_sweep`] scales those utilizations across the duty grid
//!    against the Table 5 active/idle powers, with the timer's
//!    one-of-four-always-on floor;
//! 3. [`simulate_duty`] cross-validates individual points with a full
//!    simulation at duty cycles the real system can sustain.

use crate::ulp::{self, MonitoringConfig, SamplePeriod};
use ulp_core::slaves::ConstSensor;
use ulp_core::{System, SystemConfig, SystemPower};
use ulp_mica::io::CPU_HZ as MICA_HZ;
use ulp_mica::msp430::Msp430Model;
use ulp_mica::power::{Mica2Power, SleepMode};
use ulp_sim::{Cycles, Energy, Engine, Power, RunStats, Simulatable};

/// Per-event activity profile of the sample-filter-transmit application,
/// measured in simulation.
#[derive(Debug, Clone, Copy)]
pub struct EventProfile {
    /// Busy cycles per event (the paper's 127).
    pub event_cycles: u64,
    /// Event-processor active cycles per event.
    pub ep_active: f64,
    /// Filter active cycles per event (the paper's 3).
    pub filter_active: f64,
    /// Message-processor active cycles per event (the paper's 70; ours
    /// is smaller because the EP transfers only the 12-byte single-sample
    /// frame instead of the full 32-byte buffer).
    pub msg_active: f64,
    /// Timer-block register-access cycles per event.
    pub timer_active: f64,
    /// Memory energy per event beyond idle leakage.
    pub mem_energy: Energy,
}

/// Build the measurement instance of the stage-2 application.
fn app2_system(period: SamplePeriod) -> System {
    let prog = ulp::monitoring(&MonitoringConfig {
        stage: ulp::AppStage::Filtered,
        period,
        samples_per_packet: 1,
        threshold: 0, // every sample passes: the paper's conservative case
    });
    prog.build_system(SystemConfig::default(), Box::new(ConstSensor(128)))
}

/// Measure the per-event activity profile from a handful of real events.
pub fn profile_event() -> EventProfile {
    const EVENTS: u64 = 4;
    let sys = app2_system(SamplePeriod::Cycles(50_000));
    let mut engine = Engine::new(sys);
    let (_, ok) = engine.run_until(Cycles(500_000), |s| {
        s.slaves().radio.stats().transmitted >= EVENTS && s.is_quiescent()
    });
    assert!(ok, "events did not complete");
    let sys = engine.machine();
    assert!(sys.fault().is_none(), "fault: {:?}", sys.fault());
    let ids = sys.meter_ids();
    let m = sys.meter();
    let active = |id| m.stats(id).mode_cycles[0].0 as f64 / EVENTS as f64;
    // Memory energy per event: total minus the idle-leakage share.
    let elapsed = sys.now();
    let idle_leak = Power::from_pw(8.0 * 409.0) * elapsed.at(m.clock());
    let mem_total = m.stats(ids.memory).energy;
    let mem_energy =
        Energy::from_joules(((mem_total - idle_leak).joules() / EVENTS as f64).max(0.0));
    EventProfile {
        event_cycles: sys.busy_cycles().0 / EVENTS,
        ep_active: active(ids.ep),
        filter_active: active(ids.filter),
        msg_active: active(ids.msgproc),
        timer_active: active(ids.timer),
        mem_energy,
    }
}

/// One row of the Figure 6 data.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Node duty cycle (event-processor utilization; 1.0 ≈ 800 samples/s).
    pub duty: f64,
    /// Events (samples) per second this duty cycle realises.
    pub events_per_second: f64,
    /// Event-processor average power.
    pub ep: Power,
    /// Timer subsystem average power (one of four timers always on).
    pub timer: Power,
    /// Message processor average power.
    pub msgproc: Power,
    /// Threshold filter average power.
    pub filter: Power,
    /// Main-memory average power.
    pub memory: Power,
    /// System total.
    pub total: Power,
    /// Atmel ATmega128 at normalised utilization (power-save sleep).
    pub atmel: Power,
    /// MSP430 range at normalised utilization.
    pub msp430: (Power, Power),
}

/// The analytic duty-cycle sweep, the construction of Figure 6.
/// `atmel_cycles_per_event` is the Mica2 cycle count for the same event
/// (Table 4's filtered send path, 1532 in the paper).
///
/// # Panics
///
/// Panics on duty cycles outside `(0, 1]`.
pub fn figure6_sweep(duties: &[f64], atmel_cycles_per_event: u64) -> Vec<Fig6Row> {
    figure6_sweep_with_profile(duties, atmel_cycles_per_event, &profile_event())
}

/// [`figure6_sweep`] against an already-measured [`EventProfile`]: the
/// single sweep definition both the analytic Figure 6 table and the
/// full-simulation cross-validation read from (one profiling pass, no
/// drift between the two).
///
/// # Panics
///
/// Panics on duty cycles outside `(0, 1]`.
pub fn figure6_sweep_with_profile(
    duties: &[f64],
    atmel_cycles_per_event: u64,
    profile: &EventProfile,
) -> Vec<Fig6Row> {
    let profile = *profile;
    let power = SystemPower::paper();
    let clock_hz = 100_000.0;
    let mica = Mica2Power::table1();
    let msp = Msp430Model::datasheet();
    let mix = |spec: ulp_sim::PowerSpec, util: f64| {
        Power::from_watts(spec.active.watts() * util + spec.idle.watts() * (1.0 - util))
    };
    duties
        .iter()
        .map(|&duty| {
            assert!(duty > 0.0 && duty <= 1.0, "duty {duty} out of (0, 1]");
            let rate = clock_hz * duty / profile.event_cycles as f64; // events/s
            let per_cycle = duty / profile.event_cycles as f64; // events/cycle
            let ep = mix(power.event_processor, per_cycle * profile.ep_active);
            let filter = mix(power.filter, per_cycle * profile.filter_active);
            let msgproc = mix(power.msgproc, per_cycle * profile.msg_active);
            // Timer: full active power only during register traffic; a
            // single counting timer draws the 1/32 background fraction
            // (one of four × the 1/8 counting-activity factor).
            let counting = ulp_core::slaves::timer_counting_background(&power.timer);
            let u_t = per_cycle * profile.timer_active;
            let timer = Power::from_watts(
                power.timer.active.watts() * u_t + counting.watts() * (1.0 - u_t),
            );
            let memory = Power::from_watts(profile.mem_energy.joules() * rate + 8.0 * 409e-12);
            let total = ep + timer + msgproc + filter + memory;

            let atmel_util = (rate * atmel_cycles_per_event as f64 / MICA_HZ).min(1.0);
            let atmel = mica.cpu_average(atmel_util, SleepMode::PowerSave);
            let msp430 = msp.average_range(atmel_util);

            Fig6Row {
                duty,
                events_per_second: rate,
                ep,
                timer,
                msgproc,
                filter,
                memory,
                total,
                atmel,
                msp430,
            }
        })
        .collect()
}

/// Full-simulation cross-validation of one duty-cycle point. Valid for
/// duty cycles the real system sustains (sample period longer than the
/// event plus radio airtime); returns the measured average power.
///
/// Measures a fresh [`EventProfile`]; when sweeping many points, profile
/// once and use [`simulate_duty_with_profile`].
///
/// # Panics
///
/// Panics if `duty` is outside the sustainable range.
pub fn simulate_duty(duty: f64) -> Power {
    simulate_duty_with_profile(duty, &profile_event())
}

/// [`simulate_duty`] against an already-measured [`EventProfile`], so a
/// sweep over many duty points pays for exactly one profiling pass and
/// each point is an independent (parallelizable) simulation.
///
/// # Panics
///
/// Panics if `duty` is outside the sustainable range.
pub fn simulate_duty_with_profile(duty: f64, profile: &EventProfile) -> Power {
    run_duty(duty, profile).0.average_power()
}

/// The full simulation behind [`simulate_duty_with_profile`]: the node
/// as the run leaves it, and the engine's statistics for the run.
///
/// # Panics
///
/// Panics if `duty` is outside the sustainable range, or if the node
/// faults.
pub fn run_duty(duty: f64, profile: &EventProfile) -> (System, RunStats) {
    let period_cycles = (profile.event_cycles as f64 / duty).round() as u64;
    assert!(
        period_cycles >= profile.event_cycles + 130,
        "duty {duty} is beyond the sustainable event rate (radio airtime)"
    );
    let period = if period_cycles <= u16::MAX as u64 {
        SamplePeriod::Cycles(period_cycles as u16)
    } else {
        let base = 10_000u64;
        SamplePeriod::Chained {
            base: base as u16,
            count: period_cycles.div_ceil(base).min(u16::MAX as u64) as u16,
        }
    };
    let realised = period.cycles();
    let sys = app2_system(period);
    let mut engine = Engine::new(sys);
    let stats = engine.run_for(Cycles((realised * 20).max(2_000_000)));
    let sys = engine.into_machine();
    assert!(sys.fault().is_none(), "fault: {:?}", sys.fault());
    (sys, stats)
}

/// The paper's reference duty-cycle grid (Figure 6's x-axis, decades
/// from 1 down to 10⁻⁴).
pub fn paper_duty_grid() -> Vec<f64> {
    vec![1.0, 0.5, 0.2, 0.12, 0.1, 0.05, 0.02, 0.01, 1e-3, 1e-4]
}

/// Whether `duty` is within the range the real system sustains — the
/// sample period must cover the event itself plus the radio airtime
/// ([`simulate_duty`] asserts exactly this bound).
pub fn sustainable_duty(profile: &EventProfile, duty: f64) -> bool {
    let period_cycles = (profile.event_cycles as f64 / duty).round() as u64;
    period_cycles >= profile.event_cycles + 130
}

/// The subset of [`paper_duty_grid`] that full simulation can
/// cross-validate ([`sustainable_duty`] points). Both the `fig6`
/// binary's cross-validation table and the fleet sweep read this one
/// definition, so the analytic table and the simulated points can
/// never drift apart.
pub fn sim_crosscheck_duties(profile: &EventProfile) -> Vec<f64> {
    paper_duty_grid()
        .into_iter()
        .filter(|&d| sustainable_duty(profile, d))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_profile_matches_paper_shape() {
        let p = profile_event();
        assert!(
            (80..200).contains(&p.event_cycles),
            "event costs {} cycles; paper reports 127",
            p.event_cycles
        );
        assert!(
            p.filter_active >= 2.0 && p.filter_active <= 8.0,
            "filter {} cycles/event; paper reports 3",
            p.filter_active
        );
        assert!(
            p.msg_active >= 10.0 && p.msg_active <= 110.0,
            "msgproc {} cycles/event; paper reports 70 (with full 32-byte \
             transfers; our single-sample frames are 12 bytes)",
            p.msg_active
        );
        assert!(p.ep_active > 50.0);
        assert!(p.mem_energy.joules() > 0.0);
    }

    #[test]
    fn max_sample_rate_about_800_per_second() {
        // §6.1.3: "the cycle count at 100 kHz gives us a maximum sample
        // rate of roughly 800 samples/second".
        let p = profile_event();
        let rate = 100_000.0 / p.event_cycles as f64;
        assert!(
            (500.0..1300.0).contains(&rate),
            "max rate {rate}/s; paper says ~800/s"
        );
    }

    #[test]
    fn figure6_shape() {
        let rows = figure6_sweep(&paper_duty_grid(), 1500);
        // Monotonically decreasing total power with duty cycle.
        for pair in rows.windows(2) {
            assert!(
                pair[1].total.watts() <= pair[0].total.watts() + 1e-12,
                "total must fall with duty: {} then {}",
                pair[0].total,
                pair[1].total
            );
        }
        // Duty 1 approaches the Table 5 active total (paper: 24.99 µW
        // with every block fully switching; our operating point has the
        // timer mostly counting rather than being accessed).
        let top = &rows[0];
        assert!(
            (10.0..26.0).contains(&top.total.uw()),
            "duty-1 total {}; paper's ceiling is 24.99 µW",
            top.total
        );
        // Below duty 0.1 the system is under 2 µW (§7).
        for r in rows.iter().filter(|r| r.duty <= 0.1) {
            assert!(
                r.total.uw() < 2.5,
                "duty {} total {} should be ≲2 µW",
                r.duty,
                r.total
            );
        }
        // The floor is timer-dominated (one counting timer's background).
        let floor = rows.last().unwrap();
        assert!(
            floor.timer.uw() > 0.1 && floor.timer.uw() < 0.5,
            "timer floor {}",
            floor.timer
        );
        // Atmel sits roughly two orders of magnitude above at low duty.
        let ratio = floor.atmel.watts() / floor.total.watts();
        assert!(
            ratio > 50.0,
            "Atmel/system ratio {ratio}; paper says a little over 100×"
        );
    }

    #[test]
    fn simulation_validates_analytic_point() {
        let rows = figure6_sweep(&[0.02], 1500);
        let simulated = simulate_duty(0.02);
        let analytic = rows[0].total;
        let err = (simulated.watts() - analytic.watts()).abs() / analytic.watts();
        assert!(
            err < 0.25,
            "simulated {simulated} vs analytic {analytic}: {:.0}% apart",
            err * 100.0
        );
    }

    #[test]
    #[should_panic(expected = "sustainable")]
    fn oversubscribed_duty_rejected_in_simulation() {
        let _ = simulate_duty(0.9);
    }

    #[test]
    fn msp430_range_within_envelope() {
        let rows = figure6_sweep(&[0.1], 1500);
        let (lo, hi) = rows[0].msp430;
        assert!(lo.uw() >= 44.0 && hi.uw() <= 693.0);
        assert!(lo < hi);
    }
}
