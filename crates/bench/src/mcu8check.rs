//! Deterministic `mcu8check` report text: every shipped Mica2 firmware
//! image run through the `ulp-verify` whole-firmware analyzer, plus a
//! deliberately broken fixture suite with one image per mcu8
//! diagnostic class.
//!
//! `repro mcu8check_shipped` and `repro mcu8check_fixture` print these
//! reports (the first exits 1 on an error-severity finding), laid out by
//! [`lint::render`]; `tests/golden.rs` pins them byte-for-byte, and the
//! cross-validation suite in `crates/verify/tests/` checks the WCET and
//! stack bounds against cycle-accurate simulation.

use std::sync::OnceLock;

use crate::lint::{self, Lint};
use ulp_apps::mica::{self, MicaApp};
use ulp_isa::asm::Image;
use ulp_mica::io;
use ulp_verify::{check_firmware, FirmwareConfig, FirmwareReport};

/// Tick period in CPU cycles: prescaler × (compare + 1). Every ISR
/// must finish well inside one tick or the soft-timer wheel slips.
pub const MICA2_ISR_BUDGET: u64 = io::PRESCALER as u64 * 230;

/// Task entry points the TinyOS-style scheduler may `icall` into.
/// Declared per image by whichever of these labels it defines.
const TASK_SYMBOLS: &[&str] = &[
    "sample_task",
    "send_task",
    "avg_task",
    "blink_task",
    "queued_send_task",
    "rx_task",
];

/// The program image as 16-bit words starting at word address 0.
pub fn image_words(image: &Image) -> Vec<u16> {
    let end = image.segments().iter().map(|s| s.end()).max().unwrap_or(0);
    let bytes = image
        .flatten(end.next_multiple_of(2) as usize, 0)
        .expect("image flattens from origin 0");
    bytes
        .chunks(2)
        .map(|c| u16::from_le_bytes([c[0], c[1]]))
        .collect()
}

/// The Mica2 analysis contract for one assembled application: the five
/// board vectors, the runtime's stack region (top of SRAM, kept clear
/// of the data structures below 0x1000), the one-tick ISR cycle
/// budget, and the scheduler's declared `icall` targets.
pub fn mica2_config(name: &str, image: &Image) -> FirmwareConfig {
    let words = image_words(image);
    let code_words = words.len() as i64;
    // Label symbols only: the generated runtime names its `.equ`
    // constants in ALL_CAPS and its code labels in lower_snake_case,
    // so constants (which would alias code addresses) are dropped.
    let is_label = |n: &str| {
        n.chars()
            .all(|c| c.is_ascii_lowercase() || c == '_' || c.is_ascii_digit())
    };
    let symbols: Vec<(u16, String)> = image
        .symbols()
        .iter()
        .filter(|(n, v)| is_label(n) && **v >= 0 && **v % 2 == 0 && **v / 2 < code_words)
        .map(|(n, v)| ((*v / 2) as u16, n.clone()))
        .collect();
    let indirect_targets: Vec<(u16, String)> = TASK_SYMBOLS
        .iter()
        .filter_map(|t| image.symbol(t).map(|v| ((v / 2) as u16, t.to_string())))
        .collect();
    FirmwareConfig {
        name: name.to_string(),
        vectors: vec![
            "reset".to_string(),
            "timer".to_string(),
            "adc".to_string(),
            "radio_rx".to_string(),
            "radio_senddone".to_string(),
        ],
        stack_top: 0x10FF,
        stack_low: 0x1000,
        isr_budget: Some(MICA2_ISR_BUDGET),
        fetch_penalty: 0,
        indirect_targets,
        symbols,
    }
}

/// The shipped firmware images `repro mcu8check_shipped` checks, in report
/// order (the same applications Table 4 measures).
pub fn shipped_apps() -> Vec<MicaApp> {
    vec![
        mica::app1(100),
        mica::app2(100, 50),
        mica::app3(100, 50),
        mica::app4(100, 50),
        mica::blink(500),
        mica::sense(100),
    ]
}

/// Check every shipped firmware image.
pub fn shipped_reports() -> Vec<FirmwareReport> {
    shipped_apps()
        .iter()
        .map(|app| {
            let cfg = mica2_config(app.name, app.image());
            check_firmware(&image_words(app.image()), &cfg)
        })
        .collect()
}

/// The deliberately broken firmware fixtures, one per diagnostic class
/// (plus a clean control). Each is assembled from source here so the
/// golden report shows exactly what the analyzer was given.
pub fn fixtures() -> Vec<(FirmwareConfig, Vec<u16>)> {
    let asm = |src: &str| -> Vec<u16> {
        let img = ulp_mcu8::assemble(src).expect("fixture assembles");
        image_words(&img)
    };
    let bare = |name: &str, vectors: u8| FirmwareConfig::bare(name, vectors, 0x10FF, 0x1000);
    let mut out: Vec<(FirmwareConfig, Vec<u16>)> = Vec::new();

    // Control: a well-behaved two-vector firmware — everything saved,
    // counted loop, exact WCET.
    out.push((
        bare("clean-control", 2),
        asm("
            jmp main
            jmp tick
        main:
            sei
            sleep
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
        "),
    ));

    // unresolved-indirect: `ijmp` can never be followed statically.
    out.push((bare("computed-goto", 1), asm("jmp main\nmain: ijmp")));

    // recursion: no stack bound exists.
    out.push((bare("self-call", 1), asm("jmp main\nmain: rcall main\nret")));

    // stack-overflow: a 3-byte stack region cannot hold the interrupt
    // frame plus the ISR's saves.
    out.push((
        FirmwareConfig::bare("deep-stack", 2, 0x10FF, 0x10FD),
        asm("
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
        "),
    ));

    // stack-imbalance: returns with a byte still pushed.
    out.push((bare("leaky-push", 1), asm("jmp main\nmain: push r16\nret")));

    // isr-clobbers-register: r18 is trashed behind the interrupted
    // code's back.
    out.push((
        bare("clobber-reg", 2),
        asm("
            jmp main
            jmp tick
        main:
            rjmp main
        tick:
            ldi r18, 1
            reti
        "),
    ));

    // isr-clobbers-sreg: registers saved, flags not.
    out.push((
        bare("clobber-flags", 2),
        asm("
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
        "),
    ));

    // unreachable-vector + vector-overlap: two vectors configured but
    // `main` assembled straight over slot 1.
    out.push((
        bare("table-squatter", 2),
        asm("
            jmp main
        main:
            ldi r16, 0
            rjmp main
        "),
    ));

    // sleep-while-irq-off: reset enters with I clear and sleeps
    // without ever executing `sei`.
    out.push((
        bare("sleep-of-death", 1),
        asm("jmp main\nmain: sleep\nrjmp main"),
    ));

    // isr-reenables-irq: `sei` in interrupt context invites nesting.
    out.push((
        bare("nested-irq", 2),
        asm("
            jmp main
            jmp tick
        main:
            rjmp main
        tick:
            push r17
            in r17, 0x3F
            push r17
            sei
            pop r17
            out 0x3F, r17
            pop r17
            reti
        "),
    ));

    // unbounded-loop: the trip count comes from RAM.
    out.push((
        bare("data-loop", 2),
        asm("
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
        "),
    ));

    // wcet-overrun: a counted 256-iteration busy loop against a
    // 100-cycle budget.
    out.push((
        {
            let mut cfg = bare("budget-buster", 2);
            cfg.isr_budget = Some(100);
            cfg
        },
        asm("
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
        "),
    ));

    // invalid-opcode: a reachable word that decodes as nothing.
    out.push((bare("bad-word", 1), {
        let mut words = asm("jmp main\nmain: nop");
        words[2] = 0x0001;
        words
    }));

    // runs-off-image: no terminator; execution falls into the
    // zero-filled nop sled past the image.
    out.push((bare("no-terminator", 1), asm("jmp main\nmain: ldi r16, 1")));

    out
}

/// Check every fixture; returns one report per fixture, in order.
pub fn fixture_reports() -> Vec<FirmwareReport> {
    fixtures()
        .iter()
        .map(|(cfg, words)| check_firmware(words, cfg))
        .collect()
}

/// The shipped-firmware report (`repro mcu8check_shipped`), analyzed
/// and rendered once per process: `repro` prints its text and gates on
/// its errors.
pub fn shipped() -> &'static Lint {
    static SHIPPED: OnceLock<Lint> = OnceLock::new();
    SHIPPED.get_or_init(|| {
        let groups = shipped_reports()
            .into_iter()
            .map(|r| (None, vec![checked(&r)]));
        lint::render("mcu8check: shipped Mica2 firmware images", groups, true)
    })
}

/// The fixture report (`repro mcu8check_fixture`).
pub fn fixture() -> Lint {
    let groups = fixture_reports()
        .into_iter()
        .map(|r| (None, vec![checked(&r)]));
    lint::render("mcu8check: diagnostic fixture suite", groups, false)
}

/// One checked program as [`lint::render`] takes it.
fn checked(r: &FirmwareReport) -> (String, usize, usize) {
    (r.render(), r.errors(), r.warnings())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_firmware_is_clean() {
        for report in shipped_reports() {
            assert!(report.is_clean(), "{}: {:?}", report.name, report.diags);
        }
        assert_eq!(shipped().errors, 0);
    }

    #[test]
    fn shipped_firmware_has_bounded_isrs() {
        for report in shipped_reports() {
            assert!(report.stack_bound.is_some(), "{}", report.name);
            for entry in report.entries.iter().skip(1) {
                let wcet = entry.wcet.expect("ISR vectors are installed");
                assert!(
                    wcet.cycles().is_some(),
                    "{} vector {} ({}) is unbounded",
                    report.name,
                    entry.vector,
                    entry.name
                );
            }
        }
    }

    #[test]
    fn clean_control_fixture_is_clean() {
        let report = &fixture_reports()[0];
        assert!(report.is_clean(), "{:?}", report.diags);
    }

    #[test]
    fn reports_render_deterministically() {
        assert_eq!(shipped().text, shipped().text);
        assert_eq!(fixture().text, fixture().text);
    }
}
