//! Ablation studies for the design choices the paper argues for:
//!
//! 1. **Event processor vs microcontroller-only** (§4.2.1 goals 1–2):
//!    run the monitoring application with every event handled by the
//!    woken microcontroller instead of the event processor.
//! 2. **Vdd gating vs clock gating** (§4.2.6, the SNAP critique): a
//!    system whose microcontroller can only clock-gate keeps leaking.
//! 3. **Banked vs monolithic SRAM** (§5.2): gating unused banks.
//! 4. **Intelligent precharge** (§5.2 future work): −35% active power.
//! 5. **Hardware vs software timers** (§4.2.2): a software timer forces
//!    the microcontroller to stay awake.
//!
//! The three simulation-bound ablations (baseline, µC-only, clock-gated
//! µC) are independent scenario points and run on the parallel fleet
//! engine (`ULP_FLEET_THREADS` workers, grid-order deterministic
//! output); the SRAM/precharge/timer comparisons are closed-form model
//! reads and stay serial.

use std::fmt::Write as _;

use crate::fleet::{self, Cell, Coords, Sweep};
use crate::TableWriter;
use ulp_apps::ulp::{stages, SamplePeriod};
use ulp_core::map::{self, Component, Irq};
use ulp_core::slaves::ConstSensor;
use ulp_core::{System, SystemConfig, SystemPower};
use ulp_isa::ep::{encode_program, Instruction as I};
use ulp_sim::{Cycles, Engine, Power, PowerSpec};
use ulp_sram::{BankedSram, SramConfig};

const PERIOD: u16 = 2_000;
const HORIZON: u64 = 400_000; // 4 s at 100 kHz

fn run_avg_power(mut sys: System) -> (Power, u64) {
    let mut engine = Engine::new(sys);
    engine.run_for(Cycles(HORIZON));
    sys = engine.into_machine();
    assert!(sys.fault().is_none(), "fault: {:?}", sys.fault());
    let sent = sys.slaves().radio.stats().transmitted;
    (sys.average_power(), sent)
}

/// Baseline: the event-driven stage-1 application.
fn baseline() -> (Power, u64) {
    let prog = stages::app1(SamplePeriod::Cycles(PERIOD));
    let sys = prog.build_system(SystemConfig::default(), Box::new(ConstSensor(99)));
    run_avg_power(sys)
}

/// Ablation 1: every timer event wakes the microcontroller, which does
/// the sampling, message preparation, and radio handoff itself over the
/// 8-bit bus. The event processor degenerates to a wakeup dispatcher.
fn mcu_only() -> (Power, u64) {
    let mut sys = System::new(SystemConfig::default(), Box::new(ConstSensor(99)));
    // EP: timer → wake µC at vector 0; tx-done → power radio down.
    let isr_timer = encode_program(&[I::Wakeup(0)]).unwrap();
    let isr_txdone = encode_program(&[
        I::SwitchOff(ulp_isa::ep::ComponentId::new(Component::Radio as u8).unwrap()),
        I::Terminate,
    ])
    .unwrap();
    sys.load(0x0100, &isr_timer);
    sys.load(0x0110, &isr_txdone);
    sys.install_ep_isr(Irq::Timer0.id(), 0x0100);
    sys.install_ep_isr(Irq::RadioTxDone.id(), 0x0110);
    // The µC polls the busy bit itself, so the message processor's
    // ready interrupt just needs discarding.
    let isr_noop = encode_program(&[I::Terminate]).unwrap();
    sys.load(0x0120, &isr_noop);
    sys.install_ep_isr(Irq::MsgReady.id(), 0x0120);

    // µC handler: do everything the three EP ISRs would have done.
    let handler = ulp_mcu8::assemble(&format!(
        r#"
.equ SENSOR_DATA, {sensor_data}
.equ MSG_CTRL, {msg_ctrl}
.equ MSG_STATUS, {msg_status}
.equ MSG_SAMPLE, {msg_sample}
.equ MSG_TX_LEN, {msg_tx_len}
.equ MSG_TX_BUF, {msg_tx_buf}
.equ RADIO_CTRL, {radio_ctrl}
.equ RADIO_TX_LEN, {radio_tx_len}
.equ RADIO_TX_BUF, {radio_tx_buf}
.equ POWER_ON, {power_on}
.equ POWER_OFF, {power_off}
.equ MCU_SLEEP, {mcu_sleep}

handler:
    ldi r16, {sensor_id}        ; sensor on (sample latches on power-up)
    sts POWER_ON, r16
    lds r20, SENSOR_DATA
    ldi r16, {sensor_id}
    sts POWER_OFF, r16
    ldi r16, {msg_id}           ; message processor on
    sts POWER_ON, r16
    sts MSG_SAMPLE, r20
    ldi r16, 1                  ; Prepare
    sts MSG_CTRL, r16
wait_prep:
    lds r16, MSG_STATUS
    sbrc r16, 0                 ; busy bit
    rjmp wait_prep
    ldi r16, {radio_id}         ; radio on
    sts POWER_ON, r16
    lds r20, MSG_TX_LEN
    sts RADIO_TX_LEN, r20
    ; copy the frame byte by byte over the bus
    ldi r26, lo8(MSG_TX_BUF)
    ldi r27, hi8(MSG_TX_BUF)
    ldi r28, lo8(RADIO_TX_BUF)
    ldi r29, hi8(RADIO_TX_BUF)
copy:
    ld r16, X+
    st Y+, r16
    dec r20
    brne copy
    ldi r16, {msg_id}
    sts POWER_OFF, r16
    ldi r16, 1                  ; transmit
    sts RADIO_CTRL, r16
    ldi r16, 1
    sts MCU_SLEEP, r16
spin:
    rjmp spin
"#,
        sensor_data = map::SENSOR_BASE + map::SENSOR_DATA,
        msg_ctrl = map::MSG_BASE + map::MSG_CTRL,
        msg_status = map::MSG_BASE + map::MSG_STATUS,
        msg_sample = map::MSG_BASE + map::MSG_SAMPLE_IN,
        msg_tx_len = map::MSG_BASE + map::MSG_TX_LEN,
        msg_tx_buf = map::MSG_TX_BUF,
        radio_ctrl = map::RADIO_BASE + map::RADIO_CTRL,
        radio_tx_len = map::RADIO_BASE + map::RADIO_TX_LEN,
        radio_tx_buf = map::RADIO_TX_BUF,
        power_on = map::SYS_BASE + map::SYS_POWER_ON,
        power_off = map::SYS_BASE + map::SYS_POWER_OFF,
        mcu_sleep = map::SYS_BASE + map::SYS_MCU_SLEEP,
        sensor_id = Component::Sensor as u8,
        msg_id = Component::MsgProc as u8,
        radio_id = Component::Radio as u8,
    ))
    .expect("handler assembles");
    for seg in handler.segments() {
        sys.load(0x0400 + seg.origin as u16, &seg.data);
    }
    sys.install_mcu_handler(0, 0x0400);
    sys.slaves_mut().timer.configure_periodic(0, PERIOD);
    run_avg_power(sys)
}

/// Ablation 2: the microcontroller can only clock-gate (SNAP-style
/// always-powered core): its "gated" power equals its idle power.
fn no_vdd_gating() -> (Power, u64) {
    let mut config = SystemConfig::default();
    let idle = config.power.mcu.idle;
    config.power.mcu = PowerSpec::new(config.power.mcu.active, idle, idle);
    let prog = stages::app1(SamplePeriod::Cycles(PERIOD));
    let sys = prog.build_system(config, Box::new(ConstSensor(99)));
    run_avg_power(sys)
}

/// Which simulation-bound ablation a grid point runs.
#[derive(Clone, Copy)]
enum Config {
    Baseline,
    McuOnly,
    NoVddGating,
}

/// The ablation report. The fleet's wall-clock line goes to stderr.
///
/// # Panics
///
/// Panics if a simulation point panics.
pub fn ablations_report() -> String {
    let mut out = String::from("Ablation studies\n\n");

    // The three full simulations are one fleet sweep: independent
    // points, parallel workers, grid-order (deterministic) results.
    let mut sweep = Sweep::new("ablations", &["avg_power_w", "packets"]);
    for (name, config) in [
        ("baseline", Config::Baseline),
        ("mcu-only", Config::McuOnly),
        ("clock-gated-mcu", Config::NoVddGating),
    ] {
        sweep.push(Coords::new().with("config", name), config);
    }
    let results = sweep
        .run(fleet::fleet_threads(), |_, config| {
            let (power, sent) = match config {
                Config::Baseline => baseline(),
                Config::McuOnly => mcu_only(),
                Config::NoVddGating => no_vdd_gating(),
            };
            vec![Cell::F64(power.watts()), Cell::U64(sent)]
        })
        .unwrap_or_else(|e| panic!("{e}"));
    let point = |row: usize| match (&results.rows()[row][1], &results.rows()[row][2]) {
        (Cell::F64(w), Cell::U64(sent)) => (Power::from_watts(*w), *sent),
        other => unreachable!("unexpected cells {other:?}"),
    };
    let (base, base_sent) = point(0);
    let (mcu, mcu_sent) = point(1);
    let (leaky, _) = point(2);

    // 1 & 5: who handles regular events, and what it costs.
    let mut t = TableWriter::new(&["Configuration", "Avg power", "Packets (4 s)"]);
    t.row(&[
        "Event processor handles events (paper)".into(),
        base.to_string(),
        base_sent.to_string(),
    ]);
    t.row(&[
        "Microcontroller woken per event".into(),
        mcu.to_string(),
        mcu_sent.to_string(),
    ]);
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "Offloading regular events to the event processor cuts average \
         power {:.1}x at this duty cycle.\n",
        mcu.watts() / base.watts()
    );

    // 2: Vdd gating vs clock gating of the µC.
    let _ = writeln!(
        out,
        "Vdd gating the microcontroller (vs clock-gating only, the SNAP \
         critique):\n  gated {} vs clock-gated {}  (+{})\n",
        base,
        leaky,
        Power::from_watts((leaky.watts() - base.watts()).max(0.0))
    );

    // 3: banked vs monolithic SRAM.
    let banked = BankedSram::new(SramConfig::paper());
    let mut gated = BankedSram::new(SramConfig::paper());
    for b in 2..8 {
        gated.gate_bank(b); // application uses only banks 0-1
    }
    let mut mono_cfg = SramConfig::paper();
    mono_cfg.bank_bytes = 2048; // one ungateable bank
    mono_cfg.bank_active = Power::from_uw(1.93 * 2.2); // bigger bitlines
    mono_cfg.bank_idle = Power::from_pw(409.0 * 8.0);
    mono_cfg.bank_gated = Power::from_pw(342.0 * 8.0);
    let mono = BankedSram::new(mono_cfg);
    let mut t = TableWriter::new(&["SRAM organisation", "Idle leakage", "Active power"]);
    t.row(&[
        "8 x 256 B banks, all powered".into(),
        banked.idle_power().to_string(),
        banked.full_activity_power().to_string(),
    ]);
    t.row(&[
        "8 x 256 B banks, 6 unused banks gated".into(),
        gated.idle_power().to_string(),
        gated.full_activity_power().to_string(),
    ]);
    t.row(&[
        "Monolithic 2 KB (no gating possible)".into(),
        mono.idle_power().to_string(),
        mono.full_activity_power().to_string(),
    ]);
    out.push_str(&t.render());
    out.push('\n');

    // 4: intelligent precharge.
    let mut pre_cfg = SramConfig::paper();
    pre_cfg.intelligent_precharge = true;
    let pre = BankedSram::new(pre_cfg);
    let _ = writeln!(
        out,
        "Intelligent precharge (§5.2): active power {} -> {} (-35% on the \
         accessed bank).\n",
        banked.full_activity_power(),
        pre.full_activity_power()
    );

    // 5: hardware vs software timers.
    let power = SystemPower::paper();
    let sw_timer = power.mcu.active; // the µC must stay awake to count
    let hw_timer = ulp_core::slaves::timer_counting_background(&power.timer);
    let _ = writeln!(
        out,
        "Hardware timer subsystem (§4.2.2): a software timer keeps the \
         microcontroller\nawake at {} where the hardware timer's counting \
         background is {} — {:.0}x.",
        sw_timer,
        hw_timer,
        sw_timer.watts() / hw_timer.watts()
    );

    eprintln!("\nfleet: {}", results.wall_clock());
    out
}
