//! Cross-validation of the static checker against the simulator.
//!
//! The simulator is the ground truth: every *fault-class* diagnostic
//! must reproduce as a dynamic [`BusError`] when the ISR actually runs,
//! every warning-class diagnostic with a dynamic mirror must reproduce
//! as a [`BusLint`] observation, and clean programs must simulate
//! fault-free with the WCET bound *exactly equal* to the measured cycle
//! count (straight-line code, known power states: the abstract
//! interpretation is exact, not conservative).
//!
//! Two property suites push beyond the hand-written fixtures: a
//! constructive generator emits programs that should be clean, and a
//! chaotic generator emits arbitrary programs whose static fault
//! verdict must match the dynamic outcome.

use ulp_core::event_processor::{EpAction, EventProcessor};
use ulp_core::map;
use ulp_core::power::WakeLatency;
use ulp_core::slaves::{BusError, BusLint, ConstSensor, SensorBlock, Slaves};
use ulp_isa::ep::{encode_program, ComponentId, Instruction as I};
use ulp_sim::{Cycles, TraceBuffer};
use ulp_sram::{BankedSram, SramConfig};
use ulp_testkit::{from_fn, prop_assert, prop_assert_eq, props, Rng};
use ulp_verify::{check_isr, CheckContext, DiagClass, PowerState, Report};

/// Where the cross-validation harness loads ISR images (bank 2).
const ISR_ADDR: u16 = 0x0200;
/// The interrupt the harness raises (Timer0: its source is on at reset,
/// matching the checker's entry assumption).
const IRQ: u8 = 0;

/// Outcome of running one ISR image to completion on the real bus.
struct Sim {
    /// The first bus fault, if any (faults halt the system).
    fault: Option<BusError>,
    /// Non-idle cycles from dispatch to `READY`.
    cycles: u64,
    /// Bus-lint observations (lint mode enabled).
    lints: Vec<BusLint>,
    /// The machine afterwards, for power-state inspection.
    slaves: Slaves,
}

/// Run `bytes` as the ISR for [`IRQ`], stopping after the first event
/// completes (or the first fault).
fn simulate(bytes: &[u8], setup: impl FnOnce(&mut Slaves)) -> Sim {
    let mut slaves = Slaves::new(
        BankedSram::new(SramConfig::paper()),
        SensorBlock::new(Box::new(ConstSensor(77))),
        100_000.0,
    );
    slaves.set_lint(true);
    slaves.mem.load(ISR_ADDR, bytes);
    slaves
        .mem
        .load(map::EP_VECTORS + IRQ as u16 * 2, &ISR_ADDR.to_le_bytes());
    setup(&mut slaves);
    slaves.irqs.raise(IRQ);
    let mut ep = EventProcessor::new();
    let wake = WakeLatency::paper();
    let mut trace = TraceBuffer::new(64);
    let mut cycles = 0u64;
    let mut fault = None;
    for c in 0..200_000u64 {
        match ep.step(&mut slaves, true, &wake, &mut trace, Cycles(c)) {
            Ok(EpAction::Idle) => break,
            Ok(_) => {
                cycles += 1;
                // Stop at the first completed event: side-effecting
                // writes may have raised follow-on interrupts whose
                // (unprogrammed) ISRs are not under test.
                if ep.stats().events >= 1 {
                    break;
                }
            }
            Err(e) => {
                fault = Some(e);
                break;
            }
        }
    }
    let lints = slaves.take_lints();
    Sim {
        fault,
        cycles,
        lints,
        slaves,
    }
}

fn cid(id: u8) -> ComponentId {
    ComponentId::new(id).expect("5-bit id")
}

fn ctx() -> CheckContext {
    CheckContext::system_reset("xval")
        .with_irq(IRQ)
        .with_isr_addr(ISR_ADDR)
}

fn check(prog: &[I], ctx: &CheckContext) -> (Report, Vec<u8>) {
    let bytes = encode_program(prog).expect("encodes");
    (check_isr(&bytes, ctx), bytes)
}

fn classes(report: &Report) -> Vec<DiagClass> {
    report.diags.iter().map(|d| d.class).collect()
}

const MSGPROC: u8 = map::Component::MsgProc as u8;
const RADIO: u8 = map::Component::Radio as u8;
const SENSOR: u8 = map::Component::Sensor as u8;

// ---------------------------------------------------------------------
// Fixture cross-validation: one test per diagnostic class, static
// verdict first, then the dynamic reproduction.
// ---------------------------------------------------------------------

#[test]
fn powered_off_access_faults_dynamically() {
    let prog = [I::Read(map::MSG_BASE + map::MSG_STATUS), I::Terminate];
    let (report, bytes) = check(&prog, &ctx());
    assert_eq!(classes(&report), vec![DiagClass::PoweredOffAccess]);
    let sim = simulate(&bytes, |_| {});
    assert!(
        matches!(
            sim.fault,
            Some(BusError::Gated {
                slave: "msgproc",
                ..
            })
        ),
        "{:?}",
        sim.fault
    );
}

#[test]
fn unmapped_access_faults_dynamically() {
    let prog = [I::Read(0x0900), I::Terminate];
    let (report, bytes) = check(&prog, &ctx());
    assert_eq!(classes(&report), vec![DiagClass::UnmappedAccess]);
    let sim = simulate(&bytes, |_| {});
    assert_eq!(sim.fault, Some(BusError::Unmapped { addr: 0x0900 }));
}

#[test]
fn transfer_overrun_faults_dynamically() {
    // 32 bytes into RADIO_TX_BUF+8 runs past the 32-byte buffer into
    // the hole before RADIO_RX_BUF.
    let prog = [
        I::Transfer {
            src: map::MSG_TX_BUF,
            dst: map::RADIO_TX_BUF + 8,
            len: 32,
        },
        I::Terminate,
    ];
    let ctx = ctx()
        .assume(MSGPROC, PowerState::On)
        .assume(RADIO, PowerState::On);
    let (report, bytes) = check(&prog, &ctx);
    assert_eq!(classes(&report), vec![DiagClass::TransferBounds]);
    let wake = WakeLatency::paper();
    let sim = simulate(&bytes, |s| {
        s.set_power(MSGPROC, true, &wake).unwrap();
        s.set_power(RADIO, true, &wake).unwrap();
    });
    assert_eq!(
        sim.fault,
        Some(BusError::Unmapped {
            addr: map::RADIO_TX_BUF + 32
        }),
        "first byte past the buffer faults"
    );
}

#[test]
fn bad_power_target_faults_dynamically() {
    for prog in [
        [I::SwitchOn(cid(7)), I::Terminate],
        [I::SwitchOff(cid(20)), I::Terminate],
        [I::SwitchOn(cid(map::Component::Mcu as u8)), I::Terminate],
    ] {
        let (report, bytes) = check(&prog, &ctx());
        assert_eq!(classes(&report), vec![DiagClass::BadPowerTarget]);
        let sim = simulate(&bytes, |_| {});
        assert!(
            matches!(sim.fault, Some(BusError::BadPowerTarget { .. })),
            "{prog:?}: {:?}",
            sim.fault
        );
    }
}

#[test]
fn isr_bank_gating_faults_dynamically() {
    // The ISR gates memory bank 2 — the bank its own code (and next
    // fetch) lives in.
    let prog = [I::SwitchOff(cid(map::Component::mem_bank(2))), I::Terminate];
    let (report, bytes) = check(&prog, &ctx());
    assert_eq!(classes(&report), vec![DiagClass::IsrBankGated]);
    let sim = simulate(&bytes, |_| {});
    assert!(
        matches!(sim.fault, Some(BusError::Sram(_))),
        "{:?}",
        sim.fault
    );
}

#[test]
fn missing_terminator_faults_dynamically() {
    // No terminator: execution runs into the zero-filled remainder of
    // main memory (0x00 decodes as `switchon timer`) and off the end.
    let bytes = encode_program(&[I::Read(map::TIMER_BASE + map::TIMER_COUNT_LO)]).unwrap();
    let report = check_isr(&bytes, &ctx());
    assert_eq!(classes(&report), vec![DiagClass::MissingTerminator]);
    let sim = simulate(&bytes, |_| {});
    assert!(sim.fault.is_some(), "runs off the end of memory");
}

#[test]
fn read_only_write_lints_dynamically() {
    let addr = map::TIMER_BASE + map::TIMER_COUNT_LO;
    let prog = [I::WriteI { addr, value: 9 }, I::Terminate];
    let (report, bytes) = check(&prog, &ctx());
    assert_eq!(classes(&report), vec![DiagClass::ReadOnlyWrite]);
    let sim = simulate(&bytes, |_| {});
    assert_eq!(sim.fault, None, "a lint, not a fault");
    assert_eq!(sim.lints, vec![BusLint::ReadOnlyWrite { addr }]);
}

#[test]
fn redundant_switch_lints_dynamically() {
    let prog = [
        I::SwitchOn(cid(SENSOR)),
        I::SwitchOn(cid(SENSOR)),
        I::SwitchOff(cid(SENSOR)),
        I::SwitchOff(cid(SENSOR)),
        I::Terminate,
    ];
    let (report, bytes) = check(&prog, &ctx());
    assert_eq!(
        classes(&report),
        vec![DiagClass::RedundantSwitch, DiagClass::RedundantSwitch]
    );
    let sim = simulate(&bytes, |_| {});
    assert_eq!(sim.fault, None);
    assert_eq!(
        sim.lints,
        vec![
            BusLint::RedundantSwitch {
                id: SENSOR,
                on: true
            },
            BusLint::RedundantSwitch {
                id: SENSOR,
                on: false
            },
        ]
    );
}

#[test]
fn left_on_at_exit_matches_dynamic_power_state() {
    let prog = [
        I::SwitchOn(cid(SENSOR)),
        I::Read(map::SENSOR_BASE + map::SENSOR_DATA),
        I::Terminate,
    ];
    let (report, bytes) = check(&prog, &ctx());
    assert_eq!(classes(&report), vec![DiagClass::LeftOnAtExit]);
    let sim = simulate(&bytes, |_| {});
    assert_eq!(sim.fault, None);
    assert!(
        sim.slaves.sensor.powered(),
        "the sensor really is still burning power"
    );
    // Declaring the hand-off silences the finding — and nothing else.
    let allowed = ctx().allow_left_on(SENSOR);
    let (report, _) = check(&prog, &allowed);
    assert!(report.is_clean(), "{:?}", report.diags);
}

#[test]
fn unknown_power_access_covers_both_dynamic_outcomes() {
    // The same program is a fault or clean depending on the sensor's
    // actual state — exactly why the checker can only warn.
    let prog = [I::Read(map::SENSOR_BASE + map::SENSOR_DATA), I::Terminate];
    let unknown = ctx().assume(SENSOR, PowerState::Unknown);
    let (report, bytes) = check(&prog, &unknown);
    assert_eq!(classes(&report), vec![DiagClass::UnknownPowerAccess]);
    let off = simulate(&bytes, |_| {});
    assert!(matches!(off.fault, Some(BusError::Gated { .. })));
    let wake = WakeLatency::paper();
    let on = simulate(&bytes, |s| {
        s.set_power(SENSOR, true, &wake).unwrap();
    });
    assert_eq!(on.fault, None);
}

#[test]
fn trailing_bytes_never_execute() {
    let mut bytes = encode_program(&[I::Terminate]).unwrap();
    bytes.extend([0x00, 0x00, 0x00]);
    let report = check_isr(&bytes, &ctx());
    assert_eq!(classes(&report), vec![DiagClass::TrailingBytes]);
    let sim = simulate(&bytes, |_| {});
    assert_eq!(sim.fault, None);
    assert_eq!(sim.cycles, report.wcet, "the tail costs nothing");
}

#[test]
fn wcet_overrun_is_real_measured_time() {
    // The WCET that overruns the budget is the *measured* cycle count.
    let prog = [
        I::Transfer {
            src: map::MSG_TX_BUF,
            dst: map::RADIO_TX_BUF,
            len: 8,
        },
        I::Terminate,
    ];
    let ctx = ctx()
        .assume(MSGPROC, PowerState::On)
        .assume(RADIO, PowerState::On)
        .with_budget(10);
    let (report, bytes) = check(&prog, &ctx);
    assert_eq!(classes(&report), vec![DiagClass::WcetOverrun]);
    let wake = WakeLatency::paper();
    let sim = simulate(&bytes, |s| {
        s.set_power(MSGPROC, true, &wake).unwrap();
        s.set_power(RADIO, true, &wake).unwrap();
    });
    assert_eq!(sim.fault, None);
    assert_eq!(sim.cycles, report.wcet);
    assert!(sim.cycles > 10, "really over budget");
}

#[test]
fn clean_figure5_isr_wcet_is_exact() {
    let prog = [
        I::SwitchOn(cid(SENSOR)),
        I::Read(map::SENSOR_BASE + map::SENSOR_DATA),
        I::SwitchOff(cid(SENSOR)),
        I::SwitchOn(cid(MSGPROC)),
        I::Write(map::MSG_BASE + map::MSG_SAMPLE_IN),
        I::WriteI {
            addr: map::MSG_BASE + map::MSG_CTRL,
            value: 1,
        },
        I::Terminate,
    ];
    let ctx = ctx().allow_left_on(MSGPROC);
    let (report, bytes) = check(&prog, &ctx);
    assert!(report.is_clean(), "{:?}", report.diags);
    let sim = simulate(&bytes, |_| {});
    assert_eq!(sim.fault, None);
    assert_eq!(sim.cycles, report.wcet, "exact, not an upper bound");
    assert!(sim.lints.is_empty());
}

// ---------------------------------------------------------------------
// Property: constructively clean programs are clean, fault-free, and
// their WCET equals the measured cycle count.
// ---------------------------------------------------------------------

/// Pick one element of a non-empty slice.
fn pick<T: Copy>(rng: &mut Rng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())]
}

/// A program built to be clean: switches target components in the
/// correct state, accesses only powered components through safe
/// (side-effect-light) registers, keeps transfers inside their regions
/// and away from the ISR's own code, and gates everything it woke.
fn arb_clean_program() -> impl ulp_testkit::Gen<Value = Vec<I>> {
    from_fn(|rng: &mut Rng| {
        // Model of the switchable trio (msgproc, radio, sensor).
        let mut on = [false; 3];
        let idx = |id: u8| (id - MSGPROC) as usize;
        let mut prog = Vec::new();
        for _ in 0..rng.gen_range(0usize..10) {
            match rng.gen_range(0u8..6) {
                0 => {
                    let off: Vec<u8> = [MSGPROC, RADIO, SENSOR]
                        .into_iter()
                        .filter(|&c| !on[idx(c)])
                        .collect();
                    if !off.is_empty() {
                        let c = pick(rng, &off);
                        on[idx(c)] = true;
                        prog.push(I::SwitchOn(cid(c)));
                    }
                }
                1 => {
                    let lit: Vec<u8> = [MSGPROC, RADIO, SENSOR]
                        .into_iter()
                        .filter(|&c| on[idx(c)])
                        .collect();
                    if !lit.is_empty() {
                        let c = pick(rng, &lit);
                        on[idx(c)] = false;
                        prog.push(I::SwitchOff(cid(c)));
                    }
                }
                2 => {
                    // Reads of always-on or currently-on components.
                    let mut pool = vec![
                        map::TIMER_BASE + map::TIMER_COUNT_LO,
                        map::TIMER_BASE + map::TIMER_COUNT_HI,
                        map::FILTER_BASE + map::FILTER_RESULT,
                        map::FILTER_BASE + map::FILTER_THRESHOLD,
                        map::SYS_BASE + map::SYS_GPIO,
                        0x0400 + (rng.next_u64() as u16 % 0x0400),
                    ];
                    if on[idx(MSGPROC)] {
                        pool.push(map::MSG_BASE + map::MSG_STATUS);
                    }
                    if on[idx(RADIO)] {
                        pool.push(map::RADIO_BASE + map::RADIO_STATUS);
                    }
                    if on[idx(SENSOR)] {
                        pool.push(map::SENSOR_BASE + map::SENSOR_DATA);
                    }
                    prog.push(I::Read(pick(rng, &pool)));
                }
                3 => {
                    // Writes to read-write registers with no interrupt
                    // side effects.
                    let mut pool = vec![
                        map::TIMER_BASE + map::TIMER_RELOAD_LO,
                        map::TIMER_BASE + map::TIMER_RELOAD_HI,
                        map::FILTER_BASE + map::FILTER_THRESHOLD,
                    ];
                    if on[idx(RADIO)] {
                        pool.push(map::RADIO_BASE + map::RADIO_TX_LEN);
                    }
                    if on[idx(SENSOR)] {
                        pool.push(map::SENSOR_BASE + map::SENSOR_CHANNEL);
                    }
                    prog.push(I::WriteI {
                        addr: pick(rng, &pool),
                        value: rng.next_u64() as u8,
                    });
                }
                4 => {
                    // Memory-to-memory transfer clear of the ISR image.
                    let len = rng.gen_range(1u8..=32);
                    let src = 0x0400 + (rng.next_u64() as u16 % 0x0100);
                    let dst = 0x0600 + (rng.next_u64() as u16 % (0x0200 - len as u16));
                    prog.push(I::Transfer { src, dst, len });
                }
                _ => {
                    // Buffer-to-buffer transfer when both ends are lit.
                    if on[idx(MSGPROC)] && on[idx(RADIO)] {
                        let len = rng.gen_range(1u8..=32);
                        prog.push(I::Transfer {
                            src: map::MSG_TX_BUF,
                            dst: map::RADIO_TX_BUF,
                            len,
                        });
                    }
                }
            }
        }
        for c in [MSGPROC, RADIO, SENSOR] {
            if on[idx(c)] {
                prog.push(I::SwitchOff(cid(c)));
            }
        }
        prog.push(I::Terminate);
        prog
    })
}

props! {
    /// Constructively clean programs: zero diagnostics, no dynamic
    /// fault, no lints, and WCET exactly equal to measured cycles.
    #[test]
    fn clean_programs_simulate_clean_with_exact_wcet(prog in arb_clean_program()) {
        let (report, bytes) = check(&prog, &ctx());
        prop_assert!(report.is_clean(), "static: {:?}", report.diags);
        let sim = simulate(&bytes, |_| {});
        prop_assert_eq!(sim.fault.clone(), None);
        prop_assert!(sim.lints.is_empty(), "lints: {:?}", sim.lints);
        prop_assert_eq!(sim.cycles, report.wcet);
        prop_assert_eq!(report.insns as u64, prog.len() as u64);
    }
}

// ---------------------------------------------------------------------
// Property: arbitrary (chaotic) programs — the static fault verdict
// matches the dynamic outcome, and on clean runs the warning lints
// match the bus observations.
// ---------------------------------------------------------------------

/// An address pool biased towards interesting map features: registers,
/// buffers, region edges, holes, and plain memory.
fn arb_addr(rng: &mut Rng) -> u16 {
    match rng.gen_range(0u8..8) {
        0 => rng.next_u64() as u16 % 0x0900, // memory and the first hole
        1 => map::TIMER_BASE + (rng.next_u64() as u16 % 40),
        2 => map::FILTER_BASE + (rng.next_u64() as u16 % 12),
        3 => map::MSG_BASE + (rng.next_u64() as u16 % 20),
        4 => map::MSG_TX_BUF + (rng.next_u64() as u16 % 96), // spans RX buf + hole
        5 => map::RADIO_BASE + (rng.next_u64() as u16 % 12),
        6 => map::RADIO_TX_BUF + (rng.next_u64() as u16 % 96),
        _ => map::SENSOR_BASE + (rng.next_u64() as u16 % 8),
    }
}

/// Like [`arb_addr`] but excluding targets whose dynamic side effects
/// the static model deliberately does not track: the sys power/sleep
/// registers (they change power state behind the lattice's back) and
/// the ISR's own code page (self-modification).
fn arb_write_addr(rng: &mut Rng) -> u16 {
    loop {
        let a = arb_addr(rng);
        let in_sys = (map::SYS_BASE..map::SYS_BASE + 8).contains(&a);
        let in_code = (0x0100..0x0300).contains(&a);
        if !in_sys && !in_code {
            return a;
        }
    }
}

fn arb_chaotic_image() -> impl ulp_testkit::Gen<Value = Vec<u8>> {
    from_fn(|rng: &mut Rng| {
        let mut prog = Vec::new();
        for _ in 0..rng.gen_range(1usize..8) {
            prog.push(match rng.gen_range(0u8..6) {
                0 => I::SwitchOn(cid(pick(
                    rng,
                    &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 20, 31],
                ))),
                1 => I::SwitchOff(cid(pick(rng, &[0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 16]))),
                2 => I::Read(arb_addr(rng)),
                3 => I::WriteI {
                    addr: arb_write_addr(rng),
                    value: rng.next_u64() as u8,
                },
                4 => I::Write(arb_write_addr(rng)),
                _ => {
                    let len = rng.gen_range(1u8..=32);
                    let src_pool = [
                        0x0400 + (rng.next_u64() as u16 % 0x0400),
                        map::MSG_TX_BUF + (rng.next_u64() as u16 % 40),
                        map::RADIO_RX_BUF + (rng.next_u64() as u16 % 40),
                    ];
                    let dst_pool = [
                        0x0300 + (rng.next_u64() as u16 % 0x0500),
                        map::MSG_RX_BUF + (rng.next_u64() as u16 % 40),
                        map::RADIO_TX_BUF + (rng.next_u64() as u16 % 40),
                    ];
                    I::Transfer {
                        src: pick(rng, &src_pool),
                        dst: pick(rng, &dst_pool),
                        len,
                    }
                }
            });
        }
        let mut bytes = Vec::new();
        // One program in eight runs off the end; one in eight carries a
        // dead tail after the terminator.
        match rng.gen_range(0u8..8) {
            0 => {
                // Run-off programs must not write into main memory: the
                // checker models the tail as zero-filled, and a planted
                // byte that happens to decode as `terminate` would make
                // the run-off dynamically survivable (self-extending
                // code is out of the analysis' scope by design).
                prog.retain(|insn| match insn {
                    I::Write(a) | I::WriteI { addr: a, .. } => *a >= map::MEM_SIZE,
                    I::Transfer { dst, .. } => *dst >= map::MEM_SIZE,
                    _ => true,
                });
            }
            1 => {
                prog.push(I::Terminate);
                for insn in &prog {
                    bytes.extend(insn.encode().unwrap());
                }
                bytes.extend([0u8; 3]);
                return bytes;
            }
            _ => prog.push(I::Terminate),
        }
        for insn in &prog {
            bytes.extend(insn.encode().unwrap());
        }
        bytes
    })
}

props! {
    /// Fault equivalence: the checker claims a fault class if and only
    /// if the simulator faults; on non-faulting runs the warning
    /// diagnostics with dynamic mirrors match the bus lints one-to-one.
    #[test]
    fn chaotic_programs_fault_verdicts_agree(image in arb_chaotic_image()) {
        let report = check_isr(&image, &ctx());
        let sim = simulate(&image, |_| {});
        prop_assert_eq!(
            report.has_fault_class(),
            sim.fault.is_some(),
            "static {:?} vs dynamic {:?}",
            classes(&report),
            sim.fault
        );
        if sim.fault.is_none() {
            let static_ro = report
                .diags
                .iter()
                .filter(|d| d.class == DiagClass::ReadOnlyWrite)
                .count();
            let static_redundant = report
                .diags
                .iter()
                .filter(|d| d.class == DiagClass::RedundantSwitch)
                .count();
            let dyn_ro = sim
                .lints
                .iter()
                .filter(|l| matches!(l, BusLint::ReadOnlyWrite { .. }))
                .count();
            let dyn_redundant = sim
                .lints
                .iter()
                .filter(|l| matches!(l, BusLint::RedundantSwitch { .. }))
                .count();
            prop_assert_eq!(static_ro, dyn_ro, "read-only-write lint mismatch");
            prop_assert_eq!(static_redundant, dyn_redundant, "redundant-switch lint mismatch");
            prop_assert_eq!(sim.cycles, report.wcet, "WCET must be exact on clean runs");
        }
    }
}
