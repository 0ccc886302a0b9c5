//! Unit tests: one clean firmware plus at least one program per
//! diagnostic class. Broken-firmware *fixtures* (rendered end to end)
//! live in the bench crate's `mcu8check` module; these tests pin the
//! analysis results structurally.

use super::*;
use crate::DiagClass;
use ulp_mcu8::{assemble, decode, Insn};

/// Assemble AVR source into a word image starting at word address 0.
fn asm(src: &str) -> Vec<u16> {
    let img = assemble(src).unwrap();
    let end = img.segments().iter().map(|s| s.end()).max().unwrap_or(0);
    let bytes = img.flatten(end.next_multiple_of(2) as usize, 0).unwrap();
    bytes
        .chunks(2)
        .map(|c| u16::from_le_bytes([c[0], c[1]]))
        .collect()
}

/// Word address of a label.
fn sym(src: &str, name: &str) -> u16 {
    (assemble(src).unwrap().symbol(name).unwrap() / 2) as u16
}

fn classes(report: &FirmwareReport) -> Vec<DiagClass> {
    report.diags.iter().map(|d| d.class).collect()
}

const SAVE_ALL_ISR: &str = "
    jmp main
    jmp tick
main:
    rjmp main
tick:
    push r16
    in r16, 0x3F
    push r16
    ldi r16, 42
    pop r16
    out 0x3F, r16
    pop r16
    reti
";

#[test]
fn clean_firmware_has_exact_wcet_and_stack_bound() {
    let cfg = FirmwareConfig::bare("clean", 2, 0x10FF, 0x1000);
    let report = check_firmware(&asm(SAVE_ALL_ISR), &cfg);
    assert!(report.is_clean(), "unexpected diags: {:?}", report.diags);
    assert_eq!(report.functions, 2);
    // 4 dispatch + 3 jmp + (2+1+2+1+2+1+2) body + 4 reti.
    assert_eq!(report.entries[1].wcet, Some(WcetBound::Exact(22)));
    assert_eq!(report.entries[1].stack, Some(2));
    // Main pushes nothing; one interrupt frame plus the ISR's saves.
    assert_eq!(report.stack_bound, Some(4));
    assert_eq!(report.stack_capacity, 0x100);
    // Reset never returns: wcet is n/a by design.
    assert_eq!(report.entries[0].wcet, None);
}

#[test]
fn report_renders_vector_lines() {
    let cfg = FirmwareConfig::bare("clean", 2, 0x10FF, 0x1000);
    let report = check_firmware(&asm(SAVE_ALL_ISR), &cfg);
    let rendered = report.render();
    assert!(rendered.contains("vector 1 irq1 ->"));
    assert!(rendered.contains("wcet 22 cycles (exact)"));
    assert!(rendered.contains("stack worst case 4 of 256 bytes"));
    assert!(rendered.ends_with("no diagnostics\n"));
}

#[test]
fn uninstalled_vector_slot_warns() {
    let src = "
        jmp main
        nop
        nop
    main:
        rjmp main
    ";
    let cfg = FirmwareConfig::bare("fw", 2, 0x10FF, 0x1000);
    let report = check_firmware(&asm(src), &cfg);
    assert_eq!(classes(&report), vec![DiagClass::UnreachableVector]);
    assert_eq!(report.errors(), 0);
    assert_eq!(report.warnings(), 1);
    assert_eq!(report.entries[1].dispatch, VectorDispatch::NotInstalled);
}

#[test]
fn bare_reti_slot_is_installed() {
    let src = "
        jmp main
        reti
        nop
    main:
        rjmp main
    ";
    let cfg = FirmwareConfig::bare("fw", 2, 0x10FF, 0x1000);
    let report = check_firmware(&asm(src), &cfg);
    assert!(report.is_clean(), "unexpected diags: {:?}", report.diags);
    assert_eq!(report.entries[1].target, "reti");
    // 4 dispatch + 4 reti.
    assert_eq!(report.entries[1].wcet, Some(WcetBound::Exact(8)));
}

#[test]
fn invalid_opcode_in_reachable_code() {
    let mut words = asm("jmp main\nmain: nop");
    // Patch the reachable nop into a word that decodes as nothing.
    assert!(matches!(decode(0x0001, 0).insn, Insn::Invalid(_)));
    words[2] = 0x0001;
    let cfg = FirmwareConfig::bare("fw", 1, 0x10FF, 0x1000);
    let report = check_firmware(&words, &cfg);
    assert!(classes(&report).contains(&DiagClass::InvalidOpcode));
}

#[test]
fn execution_running_off_the_image_is_flagged() {
    let cfg = FirmwareConfig::bare("fw", 1, 0x10FF, 0x1000);
    let report = check_firmware(&asm("jmp main\nmain: ldi r16, 1"), &cfg);
    assert!(classes(&report).contains(&DiagClass::RunsOffImage));
}

#[test]
fn ijmp_is_always_rejected() {
    let cfg = FirmwareConfig::bare("fw", 1, 0x10FF, 0x1000);
    let report = check_firmware(&asm("jmp main\nmain: ijmp"), &cfg);
    assert_eq!(classes(&report), vec![DiagClass::UnresolvedIndirect]);
}

#[test]
fn icall_without_declared_targets_is_rejected() {
    let cfg = FirmwareConfig::bare("fw", 1, 0x10FF, 0x1000);
    let report = check_firmware(&asm("jmp main\nmain: icall\nrjmp main"), &cfg);
    assert!(classes(&report).contains(&DiagClass::UnresolvedIndirect));
    // An unresolved call poisons the stack bound.
    assert_eq!(report.stack_bound, None);
}

#[test]
fn icall_through_declared_targets_is_analyzed() {
    let src = "
        jmp main
    main:
        icall
        rjmp main
    task:
        push r16
        pop r16
        ret
    ";
    let mut cfg = FirmwareConfig::bare("fw", 1, 0x10FF, 0x1000);
    cfg.indirect_targets = vec![(sym(src, "task"), "task".to_string())];
    let report = check_firmware(&asm(src), &cfg);
    assert!(report.is_clean(), "unexpected diags: {:?}", report.diags);
    // icall frame (2) + task's own push (1).
    assert_eq!(report.stack_bound, Some(3));
}

#[test]
fn recursion_is_rejected() {
    let cfg = FirmwareConfig::bare("fw", 1, 0x10FF, 0x1000);
    let report = check_firmware(&asm("jmp main\nmain: rcall main\nret"), &cfg);
    assert!(classes(&report).contains(&DiagClass::Recursion));
    assert_eq!(report.stack_bound, None);
}

#[test]
fn mutual_recursion_is_rejected() {
    let src = "
        jmp main
    main:
        rcall pong
        ret
    pong:
        rcall main
        ret
    ";
    let cfg = FirmwareConfig::bare("fw", 1, 0x10FF, 0x1000);
    let report = check_firmware(&asm(src), &cfg);
    assert!(classes(&report).contains(&DiagClass::Recursion));
}

#[test]
fn unbalanced_push_at_return_is_flagged() {
    let cfg = FirmwareConfig::bare("fw", 1, 0x10FF, 0x1000);
    let report = check_firmware(&asm("jmp main\nmain: push r16\nret"), &cfg);
    assert!(classes(&report).contains(&DiagClass::StackImbalance));
}

#[test]
fn conditionally_skipped_push_is_flagged_at_the_join() {
    let src = "
        jmp main
    main:
        sbrc r16, 0
        push r17
        nop
        rjmp main
    ";
    let cfg = FirmwareConfig::bare("fw", 1, 0x10FF, 0x1000);
    let report = check_firmware(&asm(src), &cfg);
    assert!(classes(&report).contains(&DiagClass::StackImbalance));
}

#[test]
fn isr_clobbering_a_register_is_flagged() {
    let src = "
        jmp main
        jmp tick
    main:
        rjmp main
    tick:
        ldi r18, 1
        reti
    ";
    let cfg = FirmwareConfig::bare("fw", 2, 0x10FF, 0x1000);
    let report = check_firmware(&asm(src), &cfg);
    assert_eq!(classes(&report), vec![DiagClass::IsrClobbersRegister]);
    assert!(report.diags[0].message.contains("r18"));
}

#[test]
fn isr_clobbering_flags_is_flagged() {
    let src = "
        jmp main
        jmp tick
    main:
        rjmp main
    tick:
        push r18
        ldi r18, 1
        inc r18
        pop r18
        reti
    ";
    let cfg = FirmwareConfig::bare("fw", 2, 0x10FF, 0x1000);
    let report = check_firmware(&asm(src), &cfg);
    assert_eq!(classes(&report), vec![DiagClass::IsrClobbersSreg]);
}

#[test]
fn sleep_with_interrupts_provably_off_is_flagged() {
    // Reset enters with I clear and nothing ever sets it.
    let cfg = FirmwareConfig::bare("fw", 1, 0x10FF, 0x1000);
    let report = check_firmware(&asm("jmp main\nmain: sleep\nrjmp main"), &cfg);
    assert!(classes(&report).contains(&DiagClass::SleepWhileIrqOff));
}

#[test]
fn sleep_after_sei_is_clean() {
    let cfg = FirmwareConfig::bare("fw", 1, 0x10FF, 0x1000);
    let report = check_firmware(&asm("jmp main\nmain: sei\nsleep\nrjmp main"), &cfg);
    assert!(
        !classes(&report).contains(&DiagClass::SleepWhileIrqOff),
        "false positive: {:?}",
        report.diags
    );
}

#[test]
fn sei_inside_an_isr_warns_about_nesting() {
    let src = "
        jmp main
        jmp tick
    main:
        rjmp main
    tick:
        sei
        reti
    ";
    let cfg = FirmwareConfig::bare("fw", 2, 0x10FF, 0x1000);
    let report = check_firmware(&asm(src), &cfg);
    assert!(classes(&report).contains(&DiagClass::IsrReenablesIrq));
}

#[test]
fn reachable_code_overlapping_the_table_is_flagged() {
    // Two vectors are configured but `main` sits in slot 1's words.
    let src = "
        jmp main
    main:
        ldi r16, 0
        rjmp main
    ";
    let cfg = FirmwareConfig::bare("fw", 2, 0x10FF, 0x1000);
    let report = check_firmware(&asm(src), &cfg);
    let classes = classes(&report);
    assert!(classes.contains(&DiagClass::VectorOverlap));
    assert!(classes.contains(&DiagClass::UnreachableVector));
}

#[test]
fn isr_over_cycle_budget_is_flagged() {
    let src = "
        jmp main
        jmp tick
    main:
        rjmp main
    tick:
        reti
    ";
    let mut cfg = FirmwareConfig::bare("fw", 2, 0x10FF, 0x1000);
    cfg.isr_budget = Some(10); // dispatch 4 + jmp 3 + reti 4 = 11
    let report = check_firmware(&asm(src), &cfg);
    assert_eq!(classes(&report), vec![DiagClass::WcetOverrun]);
    cfg.isr_budget = Some(11);
    assert!(check_firmware(&asm(src), &cfg).is_clean());
}

#[test]
fn immediate_counted_loop_is_bounded_exactly() {
    let src = "
        jmp main
        jmp tick
    main:
        rjmp main
    tick:
        push r17
        in r17, 0x3F
        push r17
        ldi r17, 4
    lp:
        dec r17
        brne lp
        pop r17
        out 0x3F, r17
        pop r17
        reti
    ";
    let cfg = FirmwareConfig::bare("fw", 2, 0x10FF, 0x1000);
    let report = check_firmware(&asm(src), &cfg);
    assert!(report.is_clean(), "unexpected diags: {:?}", report.diags);
    // 4 dispatch + 3 jmp + 5 prologue + 1 ldi + 3 iterations of
    // (dec + brne-taken) + final (dec + brne-untaken) + 5 epilogue
    // + 4 reti = 4+3+5+1+9+2+5+4.
    assert_eq!(report.entries[1].wcet, Some(WcetBound::Exact(33)));
}

#[test]
fn ldi_zero_counts_256_iterations() {
    let src = "
        jmp main
        jmp tick
    main:
        rjmp main
    tick:
        push r17
        in r17, 0x3F
        push r17
        ldi r17, 0
    lp:
        dec r17
        brne lp
        pop r17
        out 0x3F, r17
        pop r17
        reti
    ";
    let cfg = FirmwareConfig::bare("fw", 2, 0x10FF, 0x1000);
    let report = check_firmware(&asm(src), &cfg);
    assert!(report.is_clean(), "unexpected diags: {:?}", report.diags);
    // 4 + 3 + 5 + 1 + 255*3 + 2 + 5 + 4 = 789.
    assert_eq!(report.entries[1].wcet, Some(WcetBound::Exact(789)));
}

#[test]
fn data_dependent_loop_in_isr_is_unbounded() {
    let src = "
        jmp main
        jmp tick
    main:
        rjmp main
    tick:
        push r17
        in r17, 0x3F
        push r17
        lds r17, 0x0200
    lp:
        dec r17
        brne lp
        pop r17
        out 0x3F, r17
        pop r17
        reti
    ";
    let cfg = FirmwareConfig::bare("fw", 2, 0x10FF, 0x1000);
    let report = check_firmware(&asm(src), &cfg);
    assert_eq!(classes(&report), vec![DiagClass::UnboundedLoop]);
    assert_eq!(report.entries[1].wcet, Some(WcetBound::Unbounded));
}

#[test]
fn counter_clobbered_inside_the_loop_defeats_the_bound() {
    let src = "
        jmp main
        jmp tick
    main:
        rjmp main
    tick:
        ldi r17, 4
    lp:
        inc r17
        dec r17
        brne lp
        reti
    ";
    let cfg = FirmwareConfig::bare("fw", 2, 0x10FF, 0x1000);
    let report = check_firmware(&asm(src), &cfg);
    assert!(classes(&report).contains(&DiagClass::UnboundedLoop));
}

#[test]
fn unbounded_loop_only_in_main_context_is_not_warned() {
    // The event-driven main loop never terminates by design; only
    // ISR-reachable loops must be bounded.
    let src = "
        jmp main
        jmp tick
    main:
        lds r17, 0x0200
    lp:
        dec r17
        brne lp
        rjmp main
    tick:
        reti
    ";
    let cfg = FirmwareConfig::bare("fw", 2, 0x10FF, 0x1000);
    let report = check_firmware(&asm(src), &cfg);
    assert!(report.is_clean(), "unexpected diags: {:?}", report.diags);
}

#[test]
fn whole_firmware_stack_overflow_is_flagged() {
    let src = "
        jmp main
        jmp tick
    main:
        rjmp main
    tick:
        push r16
        push r17
        pop r17
        pop r16
        reti
    ";
    // Interrupt frame (2) + two saves = 4 bytes > 3-byte region.
    let mut cfg = FirmwareConfig::bare("fw", 2, 0x10FF, 0x10FD);
    let report = check_firmware(&asm(src), &cfg);
    assert_eq!(classes(&report), vec![DiagClass::StackOverflow]);
    assert_eq!(report.stack_bound, Some(4));
    cfg.stack_low = 0x10FC;
    assert!(check_firmware(&asm(src), &cfg).is_clean());
}

#[test]
fn call_frames_count_toward_the_stack_bound() {
    let src = "
        jmp main
        jmp tick
    main:
        rjmp main
    tick:
        push r16
        rcall helper
        pop r16
        reti
    helper:
        push r17
        pop r17
        ret
    ";
    let cfg = FirmwareConfig::bare("fw", 2, 0x10FF, 0x1000);
    let report = check_firmware(&asm(src), &cfg);
    assert!(report.is_clean(), "unexpected diags: {:?}", report.diags);
    // save (1) + call frame (2) + helper save (1).
    assert_eq!(report.entries[1].stack, Some(4));
    assert_eq!(report.stack_bound, Some(6));
}

#[test]
fn callee_clobbers_propagate_to_isr_lints() {
    let src = "
        jmp main
        jmp tick
    main:
        rjmp main
    tick:
        rcall helper
        reti
    helper:
        ldi r20, 7
        ret
    ";
    let cfg = FirmwareConfig::bare("fw", 2, 0x10FF, 0x1000);
    let report = check_firmware(&asm(src), &cfg);
    assert_eq!(classes(&report), vec![DiagClass::IsrClobbersRegister]);
    assert!(report.diags[0].message.contains("r20"));
}

#[test]
fn sreg_roundtrip_through_a_callee_is_clean() {
    // The post_task critical-section idiom: save SREG, cli, work,
    // restore — the caller sees no net clobber of I or the flags.
    let src = "
        jmp main
        jmp tick
    main:
        rjmp main
    tick:
        push r16
        push r17
        in r16, 0x3F
        cli
        ldi r17, 1
        out 0x3F, r16
        pop r17
        pop r16
        reti
    ";
    let cfg = FirmwareConfig::bare("fw", 2, 0x10FF, 0x1000);
    let report = check_firmware(&asm(src), &cfg);
    assert!(report.is_clean(), "unexpected diags: {:?}", report.diags);
}

#[test]
fn diagnostics_are_ordered_by_address() {
    let src = "
        jmp main
        jmp tick
    main:
        ijmp
    tick:
        ldi r18, 1
        reti
    ";
    let cfg = FirmwareConfig::bare("fw", 2, 0x10FF, 0x1000);
    let report = check_firmware(&asm(src), &cfg);
    let addrs: Vec<Option<u32>> = report.diags.iter().map(|d| d.offset).collect();
    let mut sorted = addrs.clone();
    sorted.sort_by_key(|a| a.unwrap_or(u32::MAX));
    assert_eq!(addrs, sorted);
}

#[test]
fn locations_render_relative_to_symbols() {
    let src = "
        jmp main
        jmp tick
    main:
        rjmp main
    tick:
        nop
        ijmp
        reti
    ";
    let mut cfg = FirmwareConfig::bare("fw", 2, 0x10FF, 0x1000);
    cfg.symbols = vec![(sym(src, "tick"), "tick".to_string())];
    let report = check_firmware(&asm(src), &cfg);
    let diag = report
        .diags
        .iter()
        .find(|d| d.class == DiagClass::UnresolvedIndirect)
        .unwrap();
    assert_eq!(diag.loc.as_deref(), Some("tick+0x0002"));
    assert!(diag.render("fw").contains("fw:tick+0x0002"));
}
