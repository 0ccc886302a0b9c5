//! Typed diagnostics of both checkers, the per-ISR report, and the
//! findings tail the ISR and firmware reports share.

use std::fmt;

use crate::FirmwareReport;

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but survivable: the ISR runs, wasting energy or
    /// doing nothing where it meant to do something.
    Warning,
    /// The ISR is wrong: it faults the bus, violates the address map,
    /// or breaks its timing contract.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The closed set of diagnostic classes both checkers emit: the EP ISR
/// checker ([`check_isr`](crate::check_isr)) and the mcu8 firmware
/// analyzer ([`check_firmware`](crate::check_firmware)).
///
/// Classes marked *fault* are reproducible as a dynamic
/// [`BusError`](ulp_core::slaves::BusError) in the simulator; the
/// cross-validation suite holds that equivalence. Only EP classes are
/// fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagClass {
    /// Read/write/transfer touching a component that is powered off at
    /// that point of the ISR. *Fault* (`BusError::Gated`/`Sram`).
    PoweredOffAccess,
    /// Access to a component whose power state the analysis cannot
    /// prove (caller marked it [`PowerState::Unknown`](crate::PowerState::Unknown)).
    UnknownPowerAccess,
    /// `SWITCHON` of a component already on, or `SWITCHOFF` of one
    /// already off (a no-op burning fetch/execute cycles).
    RedundantSwitch,
    /// A component this ISR powered on is still on at exit and is not
    /// declared as an intentional hand-off — an energy leak.
    LeftOnAtExit,
    /// Write to a register the device hardware latches (writes are
    /// silently ignored).
    ReadOnlyWrite,
    /// Access to an address no bus slave decodes. *Fault*
    /// (`BusError::Unmapped`).
    UnmappedAccess,
    /// `TRANSFER` whose source or destination block leaves its decoded
    /// region — buffer overrun or region-boundary cross. *Fault*.
    TransferBounds,
    /// `SWITCHON`/`SWITCHOFF` of an unassigned component id or of the
    /// microcontroller. *Fault* (`BusError::BadPowerTarget`).
    BadPowerTarget,
    /// The ISR gates (or requires gated) an SRAM bank holding its own
    /// remaining code or vector table. *Fault* (`BusError::Sram`).
    IsrBankGated,
    /// An EP ISR image overlaps the EP/µC vector tables below 0x0100,
    /// or reachable mcu8 code overlaps the firmware's vector table.
    VectorOverlap,
    /// Decoding ran off the end of the image (or into a truncated
    /// instruction) without `TERMINATE`/`WAKEUP`: execution continues
    /// into whatever follows in memory. *Fault* in zero-filled memory.
    MissingTerminator,
    /// Unreachable bytes after the terminator (dead footprint).
    TrailingBytes,
    /// An EP ISR's WCET bound exceeds the caller's event-period budget,
    /// or an mcu8 interrupt vector's exceeds the configured ISR budget.
    WcetOverrun,
    /// mcu8: `ijmp`, or `icall` without declared targets: the CFG
    /// cannot be recovered past this instruction.
    UnresolvedIndirect,
    /// mcu8: a cycle in the call graph: no stack or WCET bound exists.
    Recursion,
    /// mcu8: the worst-case stack bound exceeds the configured stack
    /// region.
    StackOverflow,
    /// mcu8: push/pop imbalance: a join point is reached with two
    /// different stack heights, or a `ret`/`reti` executes with bytes
    /// still pushed.
    StackImbalance,
    /// mcu8: an ISR returns with a register no longer holding its
    /// interrupted-context value.
    IsrClobbersRegister,
    /// mcu8: an ISR returns with `SREG` flags clobbered (no
    /// save/restore).
    IsrClobbersSreg,
    /// mcu8: a vector slot inside the configured table holds no
    /// dispatch (`jmp`/`rjmp`/`reti`): an interrupt here falls through
    /// into the next slot.
    UnreachableVector,
    /// mcu8: `sleep` executed while the I flag is provably clear: no
    /// interrupt can ever wake the CPU again.
    SleepWhileIrqOff,
    /// mcu8: `sei` executed in interrupt context: re-enables nesting,
    /// which invalidates the single-interrupt-frame stack bound.
    IsrReenablesIrq,
    /// mcu8: a loop reachable from an interrupt vector whose trip count
    /// the bounder cannot prove (non-immediate counter, clobbered
    /// counter, or multiple back edges).
    UnboundedLoop,
    /// mcu8: a reachable instruction decodes as invalid (halts the
    /// CPU).
    InvalidOpcode,
    /// mcu8: execution can run past the end of the loaded image into
    /// zero-filled memory.
    RunsOffImage,
}

impl DiagClass {
    /// Stable kebab-case code used in rendered diagnostics.
    pub fn code(self) -> &'static str {
        match self {
            DiagClass::PoweredOffAccess => "powered-off-access",
            DiagClass::UnknownPowerAccess => "unknown-power-access",
            DiagClass::RedundantSwitch => "redundant-switch",
            DiagClass::LeftOnAtExit => "left-on-at-exit",
            DiagClass::ReadOnlyWrite => "read-only-write",
            DiagClass::UnmappedAccess => "unmapped-access",
            DiagClass::TransferBounds => "transfer-bounds",
            DiagClass::BadPowerTarget => "bad-power-target",
            DiagClass::IsrBankGated => "isr-bank-gated",
            DiagClass::VectorOverlap => "vector-overlap",
            DiagClass::MissingTerminator => "missing-terminator",
            DiagClass::TrailingBytes => "trailing-bytes",
            DiagClass::WcetOverrun => "wcet-overrun",
            DiagClass::UnresolvedIndirect => "unresolved-indirect",
            DiagClass::Recursion => "recursion",
            DiagClass::StackOverflow => "stack-overflow",
            DiagClass::StackImbalance => "stack-imbalance",
            DiagClass::IsrClobbersRegister => "isr-clobbers-register",
            DiagClass::IsrClobbersSreg => "isr-clobbers-sreg",
            DiagClass::UnreachableVector => "unreachable-vector",
            DiagClass::SleepWhileIrqOff => "sleep-while-irq-off",
            DiagClass::IsrReenablesIrq => "isr-reenables-irq",
            DiagClass::UnboundedLoop => "unbounded-loop",
            DiagClass::InvalidOpcode => "invalid-opcode",
            DiagClass::RunsOffImage => "runs-off-image",
        }
    }

    /// Severity of this class.
    pub fn severity(self) -> Severity {
        match self {
            DiagClass::UnknownPowerAccess
            | DiagClass::RedundantSwitch
            | DiagClass::LeftOnAtExit
            | DiagClass::TrailingBytes
            | DiagClass::UnreachableVector
            | DiagClass::IsrReenablesIrq
            | DiagClass::UnboundedLoop => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// Whether this class reproduces as a dynamic bus fault in the
    /// simulator (the cross-validation contract).
    pub fn is_fault(self) -> bool {
        matches!(
            self,
            DiagClass::PoweredOffAccess
                | DiagClass::UnmappedAccess
                | DiagClass::TransferBounds
                | DiagClass::BadPowerTarget
                | DiagClass::IsrBankGated
                | DiagClass::MissingTerminator
        )
    }
}

/// One finding, tied to an instruction when it concerns a specific
/// one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The finding's class.
    pub class: DiagClass,
    /// Byte offset of the offending instruction: from the ISR start in
    /// an EP ISR, from address 0 in mcu8 firmware (`None` for
    /// whole-program findings such as a WCET overrun or the stack
    /// bound).
    pub offset: Option<u32>,
    /// The firmware location of `offset`, spelled `sym+0xOFF` under the
    /// symbol that covers it or `0xADDR` (`None` in an EP ISR, whose
    /// locations are spelled from the offset).
    pub loc: Option<String>,
    /// Assembler rendering of the offending instruction, if any.
    pub insn: Option<String>,
    /// Human-readable description.
    pub message: String,
    /// Optional follow-up note.
    pub note: Option<String>,
}

impl Diagnostic {
    /// Render as rustc-style lines: the severity header, the `-->`
    /// pointer and the optional note. The pointer spells an EP ISR
    /// location `isr+0xOFF` and a firmware one `fw:sym+0xOFF` or
    /// `fw:0xADDR`, where `program` is the ISR's or firmware's name.
    pub fn render(&self, program: &str) -> String {
        let mut out = format!(
            "{}[{}]: {}\n  --> ",
            self.class.severity(),
            self.class.code(),
            self.message
        );
        match (&self.loc, self.offset) {
            (Some(loc), _) => out.push_str(&format!("{program}:{loc}")),
            (None, Some(off)) => out.push_str(&format!("{program}+0x{off:04X}")),
            (None, None) => out.push_str(program),
        }
        if let Some(insn) = &self.insn {
            out.push_str(&format!(": {insn}"));
        }
        if let Some(note) = &self.note {
            out.push_str(&format!("\n  = note: {note}"));
        }
        out
    }
}

/// The closing tally: `2 errors, 1 warning` with singular/plural forms,
/// or `no diagnostics` when both counts are zero.
fn summary(errors: usize, warnings: usize) -> String {
    fn count(n: usize, what: &str) -> String {
        format!("{n} {what}{}", if n == 1 { "" } else { "s" })
    }
    match (errors, warnings) {
        (0, 0) => "no diagnostics".to_string(),
        (e, 0) => count(e, "error"),
        (0, w) => count(w, "warning"),
        (e, w) => format!("{}, {}", count(e, "error"), count(w, "warning")),
    }
}

/// The findings tail [`Report`] and [`FirmwareReport`] share over their
/// `name` and `diags`: the error and warning counts, `is_clean`, and the
/// diagnostic lines plus the summary line.
macro_rules! findings_tail {
    ($report:ty) => {
        impl $report {
            /// Number of error-severity findings.
            pub fn errors(&self) -> usize {
                self.diags
                    .iter()
                    .filter(|d| d.class.severity() == Severity::Error)
                    .count()
            }

            /// Number of warning-severity findings.
            pub fn warnings(&self) -> usize {
                self.diags.len() - self.errors()
            }

            /// Whether the report is free of errors *and* warnings.
            pub fn is_clean(&self) -> bool {
                self.diags.is_empty()
            }

            /// Append each diagnostic, then the summary line, to `out`.
            pub(crate) fn render_findings(&self, out: &mut String) {
                for diag in &self.diags {
                    out.push_str(&diag.render(&self.name));
                    out.push('\n');
                }
                out.push_str(&summary(self.errors(), self.warnings()));
                out.push('\n');
            }
        }
    };
}

findings_tail!(Report);
findings_tail!(FirmwareReport);

/// The result of checking one ISR image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Name the ISR was checked under (used in rendered locations).
    pub name: String,
    /// Interrupt id the ISR is installed on, if known.
    pub irq: Option<u8>,
    /// Instructions on the execution path (up to the terminator).
    pub insns: usize,
    /// Bytes in the image.
    pub bytes: usize,
    /// Worst-case execution time in cycles, from dispatch to `READY`
    /// (includes the configured worst-case bus wait).
    pub wcet: u64,
    /// The budget the WCET was checked against, if any.
    pub budget: Option<u64>,
    /// Findings in program order (whole-ISR findings last).
    pub diags: Vec<Diagnostic>,
}

impl Report {
    /// Whether any finding belongs to a fault class (reproducible as a
    /// dynamic `BusError`).
    pub fn has_fault_class(&self) -> bool {
        self.diags.iter().any(|d| d.class.is_fault())
    }

    /// Render the full report deterministically.
    pub fn render(&self) -> String {
        let mut out = format!("check `{}`", self.name);
        if let Some(irq) = self.irq {
            match ulp_core::map::irq_name(irq) {
                Some(name) => out.push_str(&format!(" (irq {irq} {name})")),
                None => out.push_str(&format!(" (irq {irq})")),
            }
        }
        out.push_str(&format!(
            ": {} instruction{}, {} byte{}, WCET {} cycles",
            self.insns,
            if self.insns == 1 { "" } else { "s" },
            self.bytes,
            if self.bytes == 1 { "" } else { "s" },
            self.wcet,
        ));
        if let Some(budget) = self.budget {
            out.push_str(&format!(" (budget {budget})"));
        }
        out.push('\n');
        self.render_findings(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_and_fault_partition() {
        use DiagClass::*;
        let all = [
            PoweredOffAccess,
            UnknownPowerAccess,
            RedundantSwitch,
            LeftOnAtExit,
            ReadOnlyWrite,
            UnmappedAccess,
            TransferBounds,
            BadPowerTarget,
            IsrBankGated,
            VectorOverlap,
            MissingTerminator,
            TrailingBytes,
            WcetOverrun,
            UnresolvedIndirect,
            Recursion,
            StackOverflow,
            StackImbalance,
            IsrClobbersRegister,
            IsrClobbersSreg,
            UnreachableVector,
            SleepWhileIrqOff,
            IsrReenablesIrq,
            UnboundedLoop,
            InvalidOpcode,
            RunsOffImage,
        ];
        // Every fault class is an error (faults halt the system).
        for class in all {
            if class.is_fault() {
                assert_eq!(class.severity(), Severity::Error, "{class:?}");
            }
        }
        // Codes are unique and kebab-case.
        let mut codes: Vec<_> = all.iter().map(|c| c.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len());
        for code in codes {
            assert!(code.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
        }
    }

    #[test]
    fn diagnostics_render_like_rustc() {
        let mut diag = Diagnostic {
            class: DiagClass::UnmappedAccess,
            offset: Some(4),
            loc: None,
            insn: Some("read 0x0900".into()),
            message: "read of unmapped address 0x0900".into(),
            note: Some("no bus slave decodes this address".into()),
        };
        assert_eq!(
            diag.render("isr"),
            "error[unmapped-access]: read of unmapped address 0x0900\n  \
             --> isr+0x0004: read 0x0900\n  = note: no bus slave decodes this address"
        );
        diag.loc = Some("tick+0x0002".into());
        assert!(diag
            .render("fw")
            .contains("  --> fw:tick+0x0002: read 0x0900\n"));
        diag.offset = None;
        diag.loc = None;
        diag.insn = None;
        diag.note = None;
        assert_eq!(
            diag.render("isr"),
            "error[unmapped-access]: read of unmapped address 0x0900\n  --> isr"
        );
    }

    #[test]
    fn summary_pluralizes() {
        assert_eq!(summary(0, 0), "no diagnostics");
        assert_eq!(summary(1, 0), "1 error");
        assert_eq!(summary(2, 0), "2 errors");
        assert_eq!(summary(0, 1), "1 warning");
        assert_eq!(summary(3, 2), "3 errors, 2 warnings");
    }

    #[test]
    fn report_renders_deterministically() {
        let report = Report {
            name: "demo".into(),
            irq: Some(16),
            insns: 2,
            bytes: 4,
            wcet: 6,
            budget: Some(1000),
            diags: vec![Diagnostic {
                class: DiagClass::TrailingBytes,
                offset: None,
                loc: None,
                insn: None,
                message: "1 unreachable byte after terminator".into(),
                note: None,
            }],
        };
        let a = report.render();
        let b = report.render();
        assert_eq!(a, b);
        assert!(a.starts_with("check `demo` (irq 16 MsgReady): 2 instructions, 4 bytes, WCET 6 cycles (budget 1000)\n"));
        assert!(a.ends_with("1 warning\n"));
    }
}
