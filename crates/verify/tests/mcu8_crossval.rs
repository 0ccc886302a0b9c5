//! Cross-validation of the mcu8 whole-firmware analyzer against the
//! cycle-accurate simulator.
//!
//! The simulator is the ground truth. For every program here the
//! harness raises a real interrupt, measures the handler from the
//! 4-cycle dispatch through `reti`, and tracks the lowest stack pointer
//! it ever observes. The static contract under test:
//!
//! * an [`Exact`](WcetBound::Exact) WCET **equals** the measured cycle
//!   count (the abstract interpretation is exact on loop-free and
//!   immediate-counted code, not merely conservative);
//! * an [`UpperBound`](WcetBound::UpperBound) WCET covers every
//!   measured run, whichever way the data steers the branches;
//! * the per-vector stack figure plus the 2-byte interrupt frame is
//!   never less than the observed stack excursion, and the
//!   whole-firmware bound covers it too.
//!
//! Three property suites push past the hand-written programs: random
//! straight-line handlers (exact WCET, exact stack), random
//! immediate-counted loops (exact WCET), and random branchy handlers
//! (upper bound covers runs over several data seeds).

use ulp_isa::asm::Image;
use ulp_mcu8::{assemble, Bus, Cpu, FlatBus, SREG_I};
use ulp_testkit::{from_fn, prop_assert, prop_assert_eq, props, Rng};
use ulp_verify::{check_firmware, FirmwareConfig, FirmwareReport, WcetBound};

/// [`FlatBus`] plus a one-shot pending interrupt the harness arms.
struct IrqBus {
    bus: FlatBus,
    pending: Option<u8>,
}

impl Bus for IrqBus {
    fn fetch(&mut self, pc: u16) -> u16 {
        self.bus.fetch(pc)
    }
    fn read(&mut self, addr: u16) -> u8 {
        self.bus.read(addr)
    }
    fn write(&mut self, addr: u16, value: u8) {
        self.bus.write(addr, value)
    }
    fn io_read(&mut self, addr: u8) -> u8 {
        self.bus.io_read(addr)
    }
    fn io_write(&mut self, addr: u8, value: u8) {
        self.bus.io_write(addr, value)
    }
    fn pending_irq(&mut self) -> Option<u8> {
        self.pending.take()
    }
}

const STACK_TOP: u16 = 0x10FF;

/// Assemble to an image plus the analyzer's word view of it.
fn build(src: &str) -> (Image, Vec<u16>) {
    let image = assemble(src).expect("program assembles");
    let end = image.segments().iter().map(|s| s.end()).max().unwrap_or(0);
    let bytes = image
        .flatten(end.next_multiple_of(2) as usize, 0)
        .expect("image flattens from origin 0");
    let words = bytes
        .chunks(2)
        .map(|c| u16::from_le_bytes([c[0], c[1]]))
        .collect();
    (image, words)
}

fn analyze(words: &[u16]) -> FirmwareReport {
    check_firmware(words, &FirmwareConfig::bare("xval", 2, STACK_TOP, 0x1000))
}

/// One measured interrupt service: dispatch through `reti`.
struct Measured {
    /// Cycles from (and including) the 4-cycle dispatch to `reti`.
    cycles: u64,
    /// Bytes below the pre-interrupt SP ever touched (includes the
    /// 2-byte return-address frame the dispatch pushes).
    stack: u32,
}

/// Boot `image`, wait for `main` to execute `sei`, then raise vector 1
/// and measure the handler. `seed_ram` lets data-driven tests steer the
/// branches the handler will take.
fn run_isr(image: &Image, seed_ram: &[(u16, u8)]) -> Measured {
    let mut bus = IrqBus {
        bus: FlatBus::new(0x1100),
        pending: None,
    };
    bus.bus.load_image(image);
    for &(addr, value) in seed_ram {
        bus.bus.ram_mut()[addr as usize] = value;
    }
    let mut cpu = Cpu::new();
    cpu.sp = STACK_TOP;
    for _ in 0..100 {
        if cpu.flag(SREG_I) {
            break;
        }
        cpu.step(&mut bus);
    }
    assert!(cpu.flag(SREG_I), "main never enabled interrupts");
    bus.pending = Some(1);
    let sp0 = cpu.sp;
    let mut min_sp = sp0;
    let dispatch = cpu.step(&mut bus);
    assert_eq!(dispatch, 4, "interrupt dispatch costs 4 cycles");
    assert!(!cpu.flag(SREG_I), "dispatch clears I");
    min_sp = min_sp.min(cpu.sp);
    let mut cycles = dispatch as u64;
    for _ in 0..1_000_000 {
        if cpu.flag(SREG_I) && cpu.sp == sp0 {
            break;
        }
        assert!(!cpu.halted(), "handler halted the CPU");
        cycles += cpu.step(&mut bus) as u64;
        min_sp = min_sp.min(cpu.sp);
    }
    assert!(
        cpu.flag(SREG_I) && cpu.sp == sp0,
        "handler never returned (pc={:#06x} sp={:#06x})",
        cpu.pc,
        cpu.sp
    );
    Measured {
        cycles,
        stack: (sp0 - min_sp) as u32,
    }
}

/// Assert the vector-1 static figures cover (or, for `Exact` WCET,
/// equal) one measured run.
fn assert_covers(report: &FirmwareReport, measured: &Measured) {
    assert!(report.is_clean(), "{:?}", report.diags);
    let entry = &report.entries[1];
    match entry.wcet.expect("vector 1 is installed") {
        WcetBound::Exact(c) => assert_eq!(measured.cycles, c, "exact WCET must match"),
        WcetBound::UpperBound(c) => {
            assert!(
                measured.cycles <= c,
                "measured {} cycles above static bound {c}",
                measured.cycles
            );
        }
        WcetBound::Unbounded => panic!("handler should have a WCET bound"),
    }
    let stack = entry.stack.expect("stack height is known") + 2;
    assert!(
        measured.stack <= stack,
        "observed {}-byte excursion above static {stack}",
        measured.stack
    );
    let bound = report.stack_bound.expect("whole-firmware bound exists");
    assert!(
        measured.stack <= bound,
        "whole-firmware stack bound violated"
    );
}

/// Wrap a handler body in the two-vector firmware skeleton: saves for
/// r16–r19 and SREG, an idle main loop, and the leaf/chain subroutines
/// the body generators may call into.
fn firmware(body: &str) -> String {
    format!(
        "
            jmp main
            jmp isr
        main:
            sei
        idle:
            rjmp idle
        isr:
            push r16
            in r16, 0x3F
            push r16
            push r17
            push r18
            push r19
{body}
            pop r19
            pop r18
            pop r17
            pop r16
            out 0x3F, r16
            pop r16
            reti
        leaf:
            push r20
            ldi r20, 7
            sts 0x0202, r20
            pop r20
            ret
        chain:
            push r20
            push r21
            rcall leaf
            pop r21
            pop r20
            ret
        "
    )
}

fn check_body(body: &str, seed_ram: &[(u16, u8)]) -> (FirmwareReport, Measured) {
    let (image, words) = build(&firmware(body));
    let report = analyze(&words);
    let measured = run_isr(&image, seed_ram);
    assert_covers(&report, &measured);
    (report, measured)
}

// ---------------------------------------------------------------------
// Hand-written programs: one per analysis regime.
// ---------------------------------------------------------------------

#[test]
fn straight_line_wcet_and_stack_are_exact() {
    let (report, measured) = check_body(
        "
            ldi r17, 21
            lsl r17
            sts 0x0200, r17
            lds r18, 0x0201
            rcall chain
        ",
        &[],
    );
    let entry = &report.entries[1];
    assert!(
        matches!(entry.wcet, Some(WcetBound::Exact(_))),
        "loop-free code gets an exact WCET, got {:?}",
        entry.wcet
    );
    // Single path: the static stack figure is attained, not just safe.
    assert_eq!(measured.stack, entry.stack.unwrap() + 2);
}

#[test]
fn counted_loop_wcet_is_exact() {
    for (k, label) in [(4u32, "ldi r17, 4"), (256, "ldi r17, 0")] {
        let (report, measured) = check_body(
            &format!(
                "
            {label}
        lp:
            sts 0x0200, r18
            dec r17
            brne lp
        "
            ),
            &[],
        );
        let entry = &report.entries[1];
        let WcetBound::Exact(c) = entry.wcet.unwrap() else {
            panic!(
                "{k}-iteration counted loop should be exact: {:?}",
                entry.wcet
            );
        };
        assert_eq!(measured.cycles, c, "K={k}");
    }
}

#[test]
fn branchy_handler_bound_covers_both_arms() {
    let body = "
            lds r18, 0x0201
            sbrc r18, 0
            sts 0x0200, r19
            cpi r18, 3
            brne skip1
            ldi r19, 9
            inc r19
        skip1:
    ";
    let mut worst = 0;
    for seed in [0u8, 1, 3, 0xFF] {
        let (report, measured) = check_body(body, &[(0x0201, seed)]);
        assert!(
            matches!(report.entries[1].wcet, Some(WcetBound::UpperBound(_))),
            "conditional code yields an upper bound"
        );
        worst = worst.max(measured.cycles);
    }
    // The bound is not vacuous: some seed gets within the skip-cost
    // slack of it (the longest arm really is reachable).
    let (report, _) = check_body(body, &[(0x0201, 3)]);
    let bound = report.entries[1].wcet.unwrap().cycles().unwrap();
    assert!(
        worst + 4 >= bound,
        "worst run {worst} far below bound {bound}"
    );
}

#[test]
fn early_exit_loop_bound_covers_every_seed() {
    // An immediate-counted loop with a data-dependent break: still
    // bounded (the counter dominates), but only as an upper bound.
    let body = "
            lds r18, 0x0201
            ldi r17, 8
        lp:
            sbrc r18, 0
            rjmp lp_done
            sts 0x0200, r17
            dec r17
            brne lp
        lp_done:
    ";
    for seed in [0u8, 1] {
        let (report, measured) = check_body(body, &[(0x0201, seed)]);
        let bound = report.entries[1].wcet.unwrap();
        assert!(
            matches!(bound, WcetBound::UpperBound(_)),
            "conditional loop body forces an upper bound, got {bound:?}"
        );
        if seed == 1 {
            // Break on the first iteration: far under the 8-trip bound.
            assert!(measured.cycles * 2 < bound.cycles().unwrap());
        }
    }
}

#[test]
fn call_chain_stack_bound_is_attained() {
    let (report, measured) = check_body("            rcall chain\n", &[]);
    // 2 (frame) + 5 saves + rcall(2) + chain pushes(2) + rcall(2) +
    // leaf push(1) = 14 bytes, every one of them really touched.
    assert_eq!(measured.stack, 14);
    assert_eq!(report.entries[1].stack, Some(12));
}

// ---------------------------------------------------------------------
// Properties: generated handlers, one suite per analysis regime.
// ---------------------------------------------------------------------

/// Straight-line instructions safe in the saved-register handler: only
/// r17–r19 written, no control flow, deterministic timing.
fn straight_insn(rng: &mut Rng) -> String {
    match rng.gen_range(0u8..10) {
        0 => "nop".to_string(),
        1 => format!("ldi r17, {}", rng.next_u64() as u8),
        2 => "mov r19, r17".to_string(),
        3 => "add r17, r18".to_string(),
        4 => "eor r18, r19".to_string(),
        5 => "lsl r17".to_string(),
        6 => "sts 0x0200, r17".to_string(),
        7 => "lds r18, 0x0201".to_string(),
        8 => "out 0x10, r17".to_string(),
        _ => "in r18, 0x10".to_string(),
    }
}

fn arb_straight_body() -> impl ulp_testkit::Gen<Value = String> {
    from_fn(|rng: &mut Rng| {
        let mut body = String::new();
        for _ in 0..rng.gen_range(0usize..12) {
            let line = match rng.gen_range(0u8..8) {
                0 => "rcall leaf".to_string(),
                1 => "rcall chain".to_string(),
                _ => straight_insn(rng),
            };
            body.push_str(&format!("            {line}\n"));
        }
        body
    })
}

props! {
    /// Loop-free handlers: clean report, exact WCET equal to the
    /// measured cycles, and the stack figure attained exactly (every
    /// instruction on the single path executes).
    #[test]
    fn straight_line_handlers_measure_exactly(body in arb_straight_body()) {
        let (report, measured) = check_body(&body, &[]);
        let entry = &report.entries[1];
        let wcet = entry.wcet.unwrap();
        prop_assert!(
            matches!(wcet, WcetBound::Exact(_)),
            "expected exact, got {:?}", wcet
        );
        prop_assert_eq!(measured.cycles, wcet.cycles().unwrap());
        prop_assert_eq!(measured.stack, entry.stack.unwrap() + 2);
    }
}

fn arb_counted_loop_body() -> impl ulp_testkit::Gen<Value = String> {
    from_fn(|rng: &mut Rng| {
        // K = 0 encodes 256 trips; keep most loops short.
        let k = if rng.gen_range(0u8..8) == 0 {
            0
        } else {
            rng.gen_range(1u64..=9) as u8
        };
        let mut body = format!("            ldi r17, {k}\n        lp:\n");
        for _ in 0..rng.gen_range(0usize..4) {
            // The loop body must not write the counter: r18/r19 only.
            let line = match rng.gen_range(0u8..6) {
                0 => "nop".to_string(),
                1 => "mov r19, r18".to_string(),
                2 => "inc r19".to_string(),
                3 => "sts 0x0200, r18".to_string(),
                4 => "lds r18, 0x0201".to_string(),
                _ => "rcall leaf".to_string(),
            };
            body.push_str(&format!("            {line}\n"));
        }
        body.push_str("            dec r17\n            brne lp\n");
        body
    })
}

props! {
    /// Immediate-counted loops: the trip count is recovered and the
    /// WCET is exact — equal to the measured cycles, every time.
    #[test]
    fn counted_loop_handlers_measure_exactly(body in arb_counted_loop_body()) {
        let (report, measured) = check_body(&body, &[]);
        let wcet = report.entries[1].wcet.unwrap();
        prop_assert!(
            matches!(wcet, WcetBound::Exact(_)),
            "expected exact, got {:?}", wcet
        );
        prop_assert_eq!(measured.cycles, wcet.cycles().unwrap());
    }
}

fn arb_branchy_body() -> impl ulp_testkit::Gen<Value = String> {
    from_fn(|rng: &mut Rng| {
        let mut body = String::from("            lds r18, 0x0201\n");
        for i in 0..rng.gen_range(1usize..4) {
            match rng.gen_range(0u8..3) {
                0 => {
                    // Bit-skip over a 1- or 2-word instruction.
                    let op = if rng.gen_range(0u8..2) == 0 {
                        "inc r19"
                    } else {
                        "sts 0x0200, r19"
                    };
                    let skip = if rng.gen_range(0u8..2) == 0 {
                        "sbrc"
                    } else {
                        "sbrs"
                    };
                    let bit = rng.gen_range(0u64..8);
                    body.push_str(&format!(
                        "            {skip} r18, {bit}\n            {op}\n"
                    ));
                }
                1 => {
                    // Compare/branch diamond with an asymmetric arm.
                    let k = rng.next_u64() as u8;
                    body.push_str(&format!(
                        "            cpi r18, {k}\n            brne skip{i}\n"
                    ));
                    for _ in 0..rng.gen_range(1usize..3) {
                        body.push_str(&format!("            {}\n", straight_insn(rng)));
                    }
                    body.push_str(&format!("        skip{i}:\n"));
                }
                _ => body.push_str(&format!("            {}\n", straight_insn(rng))),
            }
        }
        body
    })
}

props! {
    /// Branchy handlers: whichever way the seed byte steers the
    /// branches, the static bound covers the measured run.
    #[test]
    fn branchy_handlers_stay_under_the_bound(body in arb_branchy_body()) {
        for seed in [0u8, 1, 0x55, 0xFF] {
            check_body(&body, &[(0x0201, seed)]);
        }
    }
}
