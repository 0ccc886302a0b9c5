//! Typed diagnostics and the per-ISR report.

use std::fmt;
use ulp_sim::diag as render;

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

/// The closed set of diagnostic classes the checker emits.
///
/// Classes marked *fault* are reproducible as a dynamic
/// [`BusError`](ulp_core::slaves::BusError) in the simulator; the
/// cross-validation suite holds that equivalence.
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
    /// The ISR image overlaps the EP/µC vector tables below 0x0100.
    VectorOverlap,
    /// Decoding ran off the end of the image (or into a truncated
    /// instruction) without `TERMINATE`/`WAKEUP`: execution continues
    /// into whatever follows in memory. *Fault* in zero-filled memory.
    MissingTerminator,
    /// Unreachable bytes after the terminator (dead footprint).
    TrailingBytes,
    /// The WCET bound exceeds the caller's event-period budget.
    WcetOverrun,
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
        }
    }

    /// Severity of this class.
    pub fn severity(self) -> Severity {
        match self {
            DiagClass::UnknownPowerAccess
            | DiagClass::RedundantSwitch
            | DiagClass::LeftOnAtExit
            | DiagClass::TrailingBytes => Severity::Warning,
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

/// One finding, tied to an instruction offset when it concerns a
/// specific instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The finding's class.
    pub class: DiagClass,
    /// Byte offset of the offending instruction from the ISR start
    /// (`None` for whole-ISR findings such as WCET overruns).
    pub offset: Option<u16>,
    /// Assembler rendering of the offending instruction, if any.
    pub insn: Option<String>,
    /// Human-readable description.
    pub message: String,
    /// Optional follow-up note.
    pub note: Option<String>,
}

impl Diagnostic {
    /// Render as rustc-style lines.
    pub fn render(&self, isr_name: &str) -> String {
        let loc = match self.offset {
            Some(off) => format!("{isr_name}+0x{off:04X}"),
            None => isr_name.to_string(),
        };
        render_finding(
            self.class.severity(),
            self.class.code(),
            &self.message,
            &loc,
            self.insn.as_deref(),
            self.note.as_deref(),
        )
    }
}

/// One finding of either checker as rustc-style lines: the severity
/// header, the `-->` pointer at `loc` and the optional note. The EP and
/// mcu8 diagnostics differ only in how they spell the location.
pub(crate) fn render_finding(
    severity: Severity,
    code: &str,
    message: &str,
    loc: &str,
    insn: Option<&str>,
    note: Option<&str>,
) -> String {
    let mut lines = vec![
        render::header(&severity.to_string(), code, message),
        render::pointer(loc, insn.unwrap_or("")),
    ];
    lines.extend(note.map(render::note));
    lines.join("\n")
}

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

    /// Whether any finding belongs to a fault class (reproducible as a
    /// dynamic `BusError`).
    pub fn has_fault_class(&self) -> bool {
        self.diags.iter().any(|d| d.class.is_fault())
    }

    /// Whether the report is free of errors *and* warnings.
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
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
        for diag in &self.diags {
            out.push_str(&diag.render(&self.name));
            out.push('\n');
        }
        out.push_str(&render::summary(self.errors(), self.warnings()));
        out.push('\n');
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
            assert!(code
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '-'));
        }
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
