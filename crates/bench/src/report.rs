//! Deterministic report builders for every table/figure of the paper.
//!
//! [`ARTIFACTS`] names every printed artifact. The `repro` binary prints
//! them by name, and `tests/golden.rs` in the workspace root pins each one
//! against its checked-in golden file — so the published reproduction
//! output cannot drift silently.
//!
//! Everything printed here is a pure function of the models: no
//! randomness, no wall-clock, no environment. That is what makes
//! golden-testing the output meaningful. The two artifacts that run
//! fleet sweeps report their wall-clock on stderr, never in the text.

use std::cell::OnceCell;
use std::fmt::Write as _;

use crate::fleet::{self, Cell, Coords, FleetError, Sweep, SweepResults};
use crate::measure::{code_sizes, measure_snap, measure_table4, Table4Row};
use crate::table::TableWriter;
use crate::{epcheck, mcu8check};
use ulp_apps::ulp::{stages, SamplePeriod};
use ulp_apps::workload::{
    figure6_sweep, figure6_sweep_with_profile, paper_duty_grid, profile_event,
    sim_crosscheck_duties, simulate_duty_with_profile, EventProfile,
};
use ulp_core::slaves::ConstSensor;
use ulp_core::{map, System, SystemConfig};
use ulp_isa::ep::{decode_isr, encode_program, Instruction as I, Opcode};
use ulp_mica::power::{Mica2Power, SleepMode};
use ulp_sim::{Cycles, Engine, Power, Seconds};
use ulp_sram::{BankedSram, SramConfig};
use ulp_tech::{Equation1, RingOscillator, TechNode, TTARGET_S};

/// Table 1: the Mica2 current-draw constants and derived powers.
pub fn table1_report() -> String {
    let p = Mica2Power::table1();
    let mut out = String::from("Table 1: Mica2 platform current draw (3 V supply)\n\n");
    let mut t = TableWriter::new(&["Device/Mode", "Current (mA)", "Power"]);
    let rows: &[(&str, f64)] = &[
        ("CPU Active", p.cpu_active_ma),
        ("CPU Idle", p.cpu_idle_ma),
        ("ADC Acquire", p.adc_acquire_ma),
        ("Extended Standby", p.extended_standby_ma),
        ("Standby", p.standby_ma),
        ("Power-save", p.power_save_ma),
        ("Power-down", p.power_down_ma),
        ("Radio Rx", p.radio_rx_ma),
        ("Radio Tx (-20 dBm)", p.radio_tx_m20dbm_ma),
        ("Radio Tx (-8 dBm)", p.radio_tx_m8dbm_ma),
        ("Radio Tx (0 dBm)", p.radio_tx_0dbm_ma),
        ("Radio Tx (10 dBm)", p.radio_tx_10dbm_ma),
        ("Sensors (typical board)", p.sensors_ma),
    ];
    for (name, ma) in rows {
        let w = Power::from_current(*ma, p.supply);
        t.row(&[name.to_string(), format!("{ma:.3}"), w.to_string()]);
    }
    out.push_str(&t.render());
    let _ = write!(
        out,
        "\nDerived: CPU active {}, power-save floor {} — the commodity \
         baseline the paper's ~2 µW system is compared against.\n",
        p.cpu_active(),
        p.cpu_sleep(SleepMode::PowerSave)
    );
    out
}

/// Table 2: the event-processor instruction set, sized from the live
/// encoder.
pub fn table2_report() -> String {
    let mut out = String::from("Table 2: Event Processor Instruction Set\n\n");
    let mut t = TableWriter::new(&["Instruction", "Size", "Description"]);
    let rows: &[(Opcode, &str)] = &[
        (
            Opcode::SwitchOn,
            "Turn on a component and wait for its ready handshake",
        ),
        (Opcode::SwitchOff, "Turn off a component"),
        (
            Opcode::Read,
            "Read a location in the address space into the register",
        ),
        (
            Opcode::Write,
            "Write the register to a location in the address space",
        ),
        (
            Opcode::WriteI,
            "Write an immediate value to a location in the address space",
        ),
        (
            Opcode::Transfer,
            "Transfer a block of data within the address space",
        ),
        (
            Opcode::Terminate,
            "Terminate the ISR without waking the microcontroller",
        ),
        (
            Opcode::Wakeup,
            "Terminate the ISR and wake the microcontroller at a vector",
        ),
    ];
    for (op, desc) in rows {
        let words = op.words();
        let size = if words == 1 {
            "One word".to_string()
        } else {
            format!("{} words", ["", "", "Two", "Three", "Four", "Five"][words])
        };
        t.row(&[op.mnemonic().to_uppercase(), size, desc.to_string()]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nDeviation: the paper lists WRITEI at three words; a 16-bit \
         address plus an 8-bit immediate needs four (see DESIGN.md). \
         TRANSFER carries its 1-32 byte block length in the first word.\n",
    );
    out
}

/// Table 3: SRAM bank power plus the §5.2 whole-array and gating
/// figures, measured from the live model.
pub fn table3_report() -> String {
    let cfg = SramConfig::paper();
    let mut out = format!(
        "Table 3: power for a single 256 B bank and control circuitry \
         ({} supply)\n\n",
        cfg.supply
    );
    let mut t = TableWriter::new(&["Active Power", "Idle Power", "Gated Power"]);
    t.row(&[
        cfg.bank_active.to_string(),
        cfg.bank_idle.to_string(),
        cfg.bank_gated.to_string(),
    ]);
    out.push_str(&t.render());

    let mem = BankedSram::new(cfg.clone());
    out.push_str("\nWhole-array figures (measured from the model):\n");
    let _ = writeln!(
        out,
        "  2 KB array, one access per cycle at 100 kHz: {}   (paper: 2.07 µW)",
        mem.full_activity_power()
    );
    let _ = writeln!(
        out,
        "  2 KB array idle (all banks powered):        {}",
        mem.idle_power()
    );
    let mut gated = BankedSram::new(cfg.clone());
    for b in 1..8 {
        gated.gate_bank(b);
    }
    let _ = writeln!(
        out,
        "  2 KB array with 7 of 8 banks Vdd-gated:     {}",
        gated.idle_power()
    );
    let _ = writeln!(
        out,
        "  Bank wake-up latency: {} = {} cycle(s) at 100 kHz   (paper: 950 ns, <1 cycle)",
        cfg.wake_latency,
        cfg.wake_cycles().0
    );

    // Intelligent precharge (§5.2 future work): −35% active power.
    let mut pre = SramConfig::paper();
    pre.intelligent_precharge = true;
    let pre_mem = BankedSram::new(pre);
    let _ = writeln!(
        out,
        "  With intelligent precharge (−35% active):   {}",
        pre_mem.full_activity_power()
    );

    // Energy accounting over one simulated second of continuous access.
    let mut m = BankedSram::new(cfg);
    for i in 0..100_000u32 {
        let _ = m.read((i % 2048) as u16);
        m.tick(Cycles(1));
    }
    let _ = writeln!(
        out,
        "  Measured: 1 s of continuous access consumed {} (avg {})",
        m.energy(),
        m.energy().average_over(Seconds(1.0))
    );
    out
}

/// Table 4: the cycle-count comparison, formatted from measured rows
/// (pass the result of [`crate::measure_table4`]), plus the §6.1.3
/// code-size and maximum-rate figures.
pub fn table4_report(rows: &[Table4Row]) -> String {
    let mut out = String::from("Table 4: cycle counts, Mica2 (TinyOS-style) vs this system\n\n");
    let mut t = TableWriter::new(&[
        "Measurement",
        "Mica2",
        "Our System",
        "Speedup",
        "Paper (Mica2 / ours / speedup)",
    ]);
    for r in rows {
        t.row(&[
            r.name.to_string(),
            r.mica.to_string(),
            r.ulp.to_string(),
            format!("{:.2}x", r.speedup()),
            format!(
                "{} / {} / {:.2}x",
                r.paper_mica,
                r.paper_ulp,
                r.paper_speedup()
            ),
        ]);
    }
    out.push_str(&t.render());

    let (mica_size, ulp_size) = code_sizes();
    let _ = write!(
        out,
        "\nCode size (stage-4 application): Mica2 {mica_size} B vs ours {ulp_size} B \
         (paper: 11558 B vs 180 B; our mini-TinyOS runtime is leaner than \
         the full TinyOS component stack, hence the smaller Mica2 numbers \
         throughout — the ordering and crossover reproduce).\n"
    );
    let filtered = rows.iter().find(|r| r.name.contains("w/ filter")).unwrap();
    let _ = writeln!(
        out,
        "Maximum sample rate at 100 kHz: {:.0} samples/s (paper: ~800/s from 127 cycles)",
        100_000.0 / filtered.ulp as f64
    );
    out
}

/// Figure 2 behaviour: the event processor's state walk for one send
/// event of the stage-1 application, from its trace. It opens with a
/// blank line so that it reads as a section of `repro table4 fig2`.
pub fn fig2_report() -> String {
    let mut out = String::from("\nEvent-processor state walk for one send event (Figure 2):\n");
    let prog = stages::app1(SamplePeriod::Cycles(2_000));
    let mut sys = prog.build_system(SystemConfig::default(), Box::new(ConstSensor(99)));
    sys.trace_mut().set_enabled(true);
    let mut engine = Engine::new(sys);
    engine.run_until(Cycles(10_000), |s| {
        s.slaves().radio.stats().transmitted >= 1 && s.is_quiescent()
    });
    for ev in engine.machine().trace().events() {
        let _ = writeln!(out, "  {ev}");
    }
    out
}

/// Table 5: per-component power at 1.2 V / 100 kHz plus the system
/// totals. (The live idle/saturated simulations are
/// [`table5_live_report`].)
pub fn table5_report() -> String {
    let p = ulp_core::SystemPower::paper();
    let mut out =
        String::from("Table 5: power estimates for regular-event processing (1.2 V, 100 kHz)\n\n");
    let mut t = TableWriter::new(&["Component", "Active", "Idle"]);
    let rows = [
        ("Event Processor", p.event_processor),
        ("Timer", p.timer),
        ("Message Processor", p.msgproc),
        ("Threshold Filter", p.filter),
    ];
    for (name, spec) in rows {
        t.row(&[
            name.to_string(),
            spec.active.to_string(),
            spec.idle.to_string(),
        ]);
    }
    let mem = BankedSram::new(SramConfig::paper());
    t.row(&[
        "Memory".to_string(),
        mem.full_activity_power().to_string(),
        mem.idle_power().to_string(),
    ]);
    let total_active = p.table5_total_active(mem.full_activity_power());
    let total_idle = p.table5_total_idle(mem.idle_power());
    t.row(&[
        "System".to_string(),
        total_active.to_string(),
        total_idle.to_string(),
    ]);
    out.push_str(&t.render());
    let _ = write!(
        out,
        "\nPaper totals: 24.99 µW active / ~70 nW idle.  Ours: {total_active} / {total_idle}.\n"
    );
    out
}

/// Table 5's two extremes simulated live for one second each: an idle
/// system and a saturated event processor.
pub fn table5_live_report() -> String {
    // The idle extreme: nothing scheduled.
    let mut sys = System::new(SystemConfig::default(), Box::new(ConstSensor(0)));
    sys.set_component_power(map::Component::MsgProc as u8, true);
    let mut engine = Engine::new(sys);
    engine.run_for(Cycles(100_000));
    let idle_measured = engine.machine().average_power();
    let mut out = format!("Simulated idle system (1 s, everything quiescent): {idle_measured}\n");

    // The active extreme: the event processor always has an outstanding
    // interrupt (a tight self-retriggering blink timer).
    let isr = encode_program(&[
        I::WriteI {
            addr: map::SYS_BASE + map::SYS_GPIO_TOGGLE,
            value: 1,
        },
        I::Terminate,
    ])
    .unwrap();
    let mut sys = System::new(SystemConfig::default(), Box::new(ConstSensor(0)));
    sys.load(0x0100, &isr);
    sys.install_ep_isr(map::Irq::Timer0.id(), 0x0100);
    sys.slaves_mut().timer.configure_periodic(0, 1);
    let mut engine = Engine::new(sys);
    engine.run_for(Cycles(100_000));
    let busy_measured = engine.machine().average_power();
    let _ = writeln!(
        out,
        "Simulated saturated event processor (1 s, back-to-back events): {busy_measured}"
    );
    out
}

fn fmt_power(w: f64) -> String {
    if w >= 1e-6 {
        format!("{:8.3} uW", w * 1e6)
    } else if w >= 1e-9 {
        format!("{:8.3} nW", w * 1e9)
    } else {
        format!("{:8.3} pW", w * 1e12)
    }
}

/// Figure 3: the Equation 1 sweep table, crossover summary, and the
/// leakage temperature-sensitivity table.
pub fn fig3_report() -> String {
    let temp = 25.0;
    let eq = Equation1::new(TTARGET_S);
    let activities = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0];

    let mut out = format!(
        "Figure 3: Equation 1 total power vs activity factor per process \
         node\n(Ttarget = 30 us, T = {temp} C, Vdd scaled to the lowest \
         value meeting Ttarget)\n\n"
    );
    let mut headers: Vec<String> = vec!["Node".into(), "Vdd".into(), "T_osc".into()];
    headers.extend(activities.iter().map(|a| format!("a={a:.0e}")));
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = TableWriter::new(&headers_ref);

    for node in TechNode::all() {
        let ring = RingOscillator::new(node);
        let vdd = ring
            .lowest_vdd(TTARGET_S, temp)
            .expect("all nodes meet 30 us");
        let period = ring.period(vdd, temp);
        let mut cells = vec![
            ring.node().name.to_string(),
            format!("{vdd:.2} V"),
            format!("{:.2} us", period * 1e6),
        ];
        for &a in &activities {
            let p = eq
                .total_power(&ring, vdd, a, temp)
                .expect("timing met at chosen vdd");
            cells.push(fmt_power(p));
        }
        t.row(&cells);
    }
    out.push_str(&t.render());

    out.push('\n');
    for &a in &[1.0, 1e-5] {
        let mut best: Option<(&'static str, f64)> = None;
        for node in TechNode::all() {
            let ring = RingOscillator::new(node);
            let vdd = ring.lowest_vdd(TTARGET_S, temp).unwrap();
            let p = eq.total_power(&ring, vdd, a, temp).unwrap();
            if best.is_none_or(|(_, bp)| p < bp) {
                best = Some((ring.node().name, p));
            }
        }
        let (name, p) = best.unwrap();
        let _ = writeln!(
            out,
            "Best node at activity {a:>7.0e}: {name:8} ({})",
            fmt_power(p).trim()
        );
    }
    out.push_str(
        "\nPaper's conclusion reproduced: advanced deep-submicron nodes win \
         at high activity,\nolder high-Vth nodes win at the low activity \
         factors of sensor-network workloads.\n",
    );

    out.push_str("\nLeakage temperature sensitivity (90 nm node, scaled Vdd):\n");
    let ring = RingOscillator::new(TechNode::n90());
    let vdd = ring.lowest_vdd(TTARGET_S, 25.0).unwrap();
    let mut tt = TableWriter::new(&["Temp (C)", "Leakage power"]);
    for temp in [0.0, 25.0, 55.0, 85.0] {
        tt.row(&[
            format!("{temp}"),
            fmt_power(ring.leakage_power(vdd, temp)).trim().to_string(),
        ]);
    }
    out.push_str(&tt.render());
    out
}

/// Figure 3 as a machine-readable CSV (`repro fig3.csv`).
pub fn fig3_csv() -> String {
    let mut out = String::from("node,vdd,activity,total_power_w\n");
    for p in ulp_tech::figure3_sweep(25.0) {
        if let Some(w) = p.total_power {
            let _ = writeln!(out, "{},{:.2},{:e},{:e}", p.node, p.vdd, p.activity, w);
        }
    }
    out
}

/// Figure 5: the monitoring application's ISR chains disassembled from
/// installed memory, plus the stage-4 irregular handler on the µC side.
pub fn fig5_report() -> String {
    let mut out =
        String::from("Figure 5: monitoring-application ISRs (disassembled from memory)\n\n");
    let prog = stages::app1(SamplePeriod::Cycles(1000));
    let sys = prog.build_system(SystemConfig::default(), Box::new(ConstSensor(0)));

    let chains = [
        (
            ulp_core::map::Irq::Timer0.id(),
            "Timer interrupt  -> collect sensor data, hand to message processor",
        ),
        (
            ulp_core::map::Irq::MsgReady.id(),
            "Message prepared -> move frame to the radio, transmit",
        ),
        (
            ulp_core::map::Irq::RadioTxDone.id(),
            "Send complete    -> power the radio down",
        ),
    ];
    for (irq, title) in chains {
        let mem = &sys.slaves().mem;
        let lo = mem
            .peek(ulp_core::map::EP_VECTORS + irq as u16 * 2)
            .unwrap();
        let hi = mem
            .peek(ulp_core::map::EP_VECTORS + irq as u16 * 2 + 1)
            .unwrap();
        let isr_addr = u16::from_le_bytes([lo, hi]);
        let mut bytes = Vec::new();
        for i in 0..64u16 {
            bytes.push(mem.peek(isr_addr + i).unwrap_or(0));
        }
        let isr = decode_isr(&bytes).expect("installed ISR decodes");
        let _ = writeln!(out, "; {title}");
        let _ = writeln!(out, "; irq {irq} -> ISR at 0x{isr_addr:04X}");
        for insn in &isr {
            let _ = writeln!(out, "    {insn}");
        }
        out.push('\n');
    }
    out.push_str(
        "(Figure 5 of the paper shows the same SWITCHON/READ/SWITCHOFF/\n\
         SWITCHON/WRITE/WRITEI/TERMINATE chain with addresses omitted.)\n",
    );

    let prog4 = stages::app4(SamplePeriod::Cycles(1000), 0);
    let sys4 = prog4.build_system(SystemConfig::default(), Box::new(ConstSensor(0)));
    let mem = &sys4.slaves().mem;
    let lo = mem.peek(ulp_core::map::MCU_VECTORS).unwrap();
    let hi = mem.peek(ulp_core::map::MCU_VECTORS + 1).unwrap();
    let handler = u16::from_le_bytes([lo, hi]);
    let mut words = Vec::new();
    for i in 0..48u16 {
        let a = handler + i * 2;
        words.push(u16::from_le_bytes([
            mem.peek(a).unwrap_or(0),
            mem.peek(a + 1).unwrap_or(0),
        ]));
    }
    out.push_str("\n; Stage-4 irregular-event handler (microcontroller, AVR)\n");
    let _ = writeln!(out, "; µC vector 0 -> handler at 0x{handler:04X}");
    for line in ulp_mcu8::disassemble(&words, handler as u32) {
        let _ = writeln!(out, "    {line}");
        if matches!(line.insn, ulp_mcu8::Insn::Rjmp { k: -1 }) {
            break;
        }
    }
    out
}

fn uw(p: Power) -> String {
    format!("{:9.3}", p.uw())
}

/// Figure 6: the analytic power-vs-duty-cycle sweep with the Atmel and
/// MSP430 comparison columns, calibrated by the given Mica2 filtered-send
/// cycle count, from a measured event profile ([`profile_event`]).
/// [`fig6_crosscheck_report`] cross-validates the same rows against full
/// simulations (one sweep definition, no drift).
pub fn fig6_report_with_profile(atmel_cycles: u64, profile: &EventProfile) -> String {
    let mut out =
        String::from("Figure 6: estimated power vs node duty cycle (sample-filter-transmit)\n\n");
    let _ = write!(
        out,
        "Measured event profile: {} busy cycles/sample (paper: 127); \
         filter {:.0} cycles (paper: 3); message processor {:.0} cycles \
         (paper: 70, with 32-byte transfers); max rate {:.0} samples/s \
         (paper: ~800).\n\n",
        profile.event_cycles,
        profile.filter_active,
        profile.msg_active,
        100_000.0 / profile.event_cycles as f64
    );

    let rows = figure6_sweep_with_profile(&paper_duty_grid(), atmel_cycles, profile);
    let mut t = TableWriter::new(&[
        "Duty",
        "Samples/s",
        "EP (uW)",
        "Timer (uW)",
        "Msg (uW)",
        "Filter (uW)",
        "Mem (uW)",
        "Total (uW)",
        "Atmel (uW)",
        "MSP430 (uW)",
    ]);
    for r in &rows {
        t.row(&[
            format!("{:.4}", r.duty),
            format!("{:8.2}", r.events_per_second),
            uw(r.ep),
            uw(r.timer),
            uw(r.msgproc),
            uw(r.filter),
            uw(r.memory),
            uw(r.total),
            uw(r.atmel),
            format!("{:.1}-{:.1}", r.msp430.0.uw(), r.msp430.1.uw()),
        ]);
    }
    out.push_str(&t.render());

    out.push('\n');
    let low = rows.iter().find(|r| r.duty <= 0.1).unwrap();
    let _ = writeln!(
        out,
        "At duty {} the system draws {} — the paper's '<2 uW below duty \
         0.1' claim (§7).",
        low.duty, low.total
    );
    let floor = rows.last().unwrap();
    let _ = writeln!(
        out,
        "At duty {} (GDI-class) the Atmel draws {:.0}x more than this \
         system (paper: 'a little over two orders of magnitude').",
        floor.duty,
        floor.atmel.watts() / floor.total.watts()
    );
    out
}

/// The sweep behind [`fig6_crosscheck_report`], run on `threads`
/// workers: one point per sustainable duty cycle of the paper grid, its
/// analytic total next to a full simulation, both in µW. The results
/// are byte-identical whatever the worker count (`tests/fleet.rs`).
///
/// # Errors
///
/// A simulation point that panics, with its duty coordinate.
pub fn fig6_crosscheck_sweep(
    atmel_cycles: u64,
    profile: &EventProfile,
    threads: usize,
) -> Result<SweepResults, FleetError> {
    let analytic_rows = figure6_sweep_with_profile(&paper_duty_grid(), atmel_cycles, profile);
    let mut sweep = Sweep::new("fig6-crosscheck", &["analytic_uw", "simulated_uw"]);
    for d in sim_crosscheck_duties(profile) {
        sweep.push(Coords::new().with("duty", d), d);
    }
    sweep.run(threads, |_, &d| {
        let analytic = analytic_rows
            .iter()
            .find(|r| r.duty == d)
            .expect("crosscheck duties are a subset of the paper grid")
            .total;
        let simulated = simulate_duty_with_profile(d, profile);
        vec![Cell::F64(analytic.uw()), Cell::F64(simulated.uw())]
    })
}

/// Figure 6 cross-validated: full simulations at the sustainable duty
/// cycles of the same sweep, next to the analytic totals
/// [`fig6_report_with_profile`] prints for the same calibration and
/// profile. The points are independent and run once on the fleet engine
/// ([`fig6_crosscheck_sweep`] on `ULP_FLEET_THREADS` workers); its
/// wall-clock goes to stderr. It opens with a blank line so that it
/// reads as a section of `repro fig6 fig6_crosscheck`.
///
/// # Panics
///
/// Panics if a simulation point panics.
pub fn fig6_crosscheck_report(atmel_cycles: u64, profile: &EventProfile) -> String {
    let mut out =
        String::from("\nFull-simulation cross-validation (cycle-accurate, fast-forwarded):\n");
    let results = fig6_crosscheck_sweep(atmel_cycles, profile, fleet::fleet_threads())
        .unwrap_or_else(|e| panic!("{e}"));
    eprintln!("\nfleet: {}", results.wall_clock());

    let mut v = TableWriter::new(&["Duty", "Analytic total", "Simulated total"]);
    for row in results.rows() {
        let cell = |c: &Cell| match c {
            Cell::F64(x) => Power::from_uw(*x).to_string(),
            other => other.to_string(),
        };
        v.row(&[row[0].to_string(), cell(&row[1]), cell(&row[2])]);
    }
    out.push_str(&v.render());
    out.push_str(
        "\nReference deployments: volcano duty ≈ 0.12 (100 samples/s), \
         Great Duck Island ≈ 1e-4 (one sample per 70 s).\n",
    );
    out
}

/// Figure 6 as a machine-readable CSV (`repro fig6.csv`).
pub fn fig6_csv(atmel_cycles: u64) -> String {
    let mut out = String::from(
        "duty,events_per_s,ep_uw,timer_uw,msgproc_uw,filter_uw,mem_uw,total_uw,atmel_uw,msp430_lo_uw,msp430_hi_uw\n",
    );
    for r in figure6_sweep(&paper_duty_grid(), atmel_cycles) {
        let _ = writeln!(
            out,
            "{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.2},{:.2},{:.2}",
            r.duty,
            r.events_per_second,
            r.ep.uw(),
            r.timer.uw(),
            r.msgproc.uw(),
            r.filter.uw(),
            r.memory.uw(),
            r.total.uw(),
            r.atmel.uw(),
            r.msp430.0.uw(),
            r.msp430.1.uw()
        );
    }
    out
}

/// The §6.1.3 SNAP comparison: `blink` and `sense` cycle counts on this
/// system and the Mica2 baseline against the published SNAP numbers
/// (whose simulator the paper's authors also did not have).
pub fn snap_report() -> String {
    let mut out = String::from("SNAP comparison (§6.1.3): cycles per event\n\n");
    let mut t = TableWriter::new(&[
        "App",
        "Our System",
        "SNAP (published)",
        "Mica2",
        "Paper (ours / Mica2)",
    ]);
    for r in &measure_snap() {
        t.row(&[
            r.name.to_string(),
            r.ulp.to_string(),
            r.snap.to_string(),
            r.mica.to_string(),
            format!("{} / {}", r.paper_ulp, r.paper_mica),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nOrdering reproduced: this system < SNAP < Mica2 on both \
         micro-apps.\nSNAP avoids TinyOS overhead but its general-purpose \
         core still executes\ninstruction streams for work our slave \
         accelerators do in hardware.\n",
    );
    out
}

/// Measurements several artifacts read, each taken at most once.
#[derive(Default)]
pub struct Inputs {
    table4: OnceCell<Vec<Table4Row>>,
    profile: OnceCell<EventProfile>,
}

impl Inputs {
    /// The Table 4 rows ([`measure_table4`]).
    pub fn table4(&self) -> &[Table4Row] {
        self.table4.get_or_init(measure_table4)
    }

    /// The Mica2 filtered-send cycle count of Table 4, which calibrates
    /// Figure 6's Atmel curve.
    pub fn atmel_cycles(&self) -> u64 {
        self.table4()
            .iter()
            .find(|r| r.name.contains("w/ filter"))
            .map(|r| r.mica)
            .expect("table 4 has the filtered row")
    }

    /// The measured event profile behind Figure 6 ([`profile_event`]).
    pub fn profile(&self) -> &EventProfile {
        self.profile.get_or_init(profile_event)
    }
}

/// One printed artifact of the reproduction.
pub struct Artifact {
    /// The name `repro` takes. Its golden file in `tests/golden/` is the
    /// name, with `.txt` added when the name has no extension of its own.
    pub name: &'static str,
    /// Build its text.
    pub render: fn(&Inputs) -> String,
    /// Its error-severity lint findings, which make `repro` exit 1: the
    /// count for the two lint reports over the shipped programs, 0 for
    /// every other artifact (the fixture suites are broken on purpose).
    pub errors: fn() -> usize,
}

/// An artifact with no lint findings.
const fn artifact(name: &'static str, render: fn(&Inputs) -> String) -> Artifact {
    Artifact {
        name,
        render,
        errors: || 0,
    }
}

/// Every artifact, in the order `repro all` prints them.
pub const ARTIFACTS: &[Artifact] = &[
    artifact("table1", |_| table1_report()),
    artifact("table2", |_| table2_report()),
    artifact("table3", |_| table3_report()),
    artifact("table4", |m| table4_report(m.table4())),
    artifact("fig2", |_| fig2_report()),
    artifact("table5", |_| table5_report()),
    artifact("table5_live", |_| table5_live_report()),
    artifact("fig3", |_| fig3_report()),
    artifact("fig3.csv", |_| fig3_csv()),
    artifact("fig5", |_| fig5_report()),
    artifact("fig6", |m| {
        fig6_report_with_profile(m.atmel_cycles(), m.profile())
    }),
    // The paper's own 1532-cycle filtered send calibrates the CSV, so
    // the series reproduces without a measurement pass.
    artifact("fig6.csv", |_| fig6_csv(1532)),
    artifact("fig6_crosscheck", |m| {
        fig6_crosscheck_report(m.atmel_cycles(), m.profile())
    }),
    artifact("snap", |_| snap_report()),
    artifact("ablations", |_| crate::ablations::ablations_report()),
    Artifact {
        name: "epcheck_shipped",
        render: |_| epcheck::shipped().text.clone(),
        errors: || epcheck::shipped().errors,
    },
    artifact("epcheck_fixture", |_| epcheck::fixture().text),
    Artifact {
        name: "mcu8check_shipped",
        render: |_| mcu8check::shipped().text.clone(),
        errors: || mcu8check::shipped().errors,
    },
    artifact("mcu8check_fixture", |_| mcu8check::fixture().text),
];
