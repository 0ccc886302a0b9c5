//! The one renderer behind the four lint reports `repro` prints.
//!
//! [`epcheck`](crate::epcheck) runs the EP ISR checker and
//! [`mcu8check`](crate::mcu8check) the mcu8 firmware analyzer, each over
//! its shipped programs and its fixture suite. Both checkers report in
//! `ulp-verify`'s one diagnostic vocabulary, so [`render`] lays out all
//! four reports: a title, then per group of programs an optional
//! `== label ==` line, the programs' reports and a blank line, and, for
//! the shipped programs, a closing total line.

/// A rendered lint report.
pub struct Lint {
    /// The text `repro` prints.
    pub text: String,
    /// Error-severity findings across every program. `repro` exits 1
    /// when a shipped report has any; fixture reports never set the exit
    /// status.
    pub errors: usize,
}

/// Lay out a lint report: `title` and a blank line, then each group of
/// checked programs (its `== label ==` line when it has a label, its
/// reports, a blank line), then, when the programs are the `shipped`
/// ones, the `total:` line. Each program comes as its rendered report
/// and its error and warning counts.
pub fn render<'a>(
    title: &str,
    groups: impl IntoIterator<Item = (Option<&'a str>, Vec<(String, usize, usize)>)>,
    shipped: bool,
) -> Lint {
    let mut text = format!("{title}\n\n");
    let (mut errors, mut warnings) = (0, 0);
    for (label, programs) in groups {
        if let Some(label) = label {
            text.push_str(&format!("== {label} ==\n"));
        }
        for (report, e, w) in programs {
            text.push_str(&report);
            errors += e;
            warnings += w;
        }
        text.push('\n');
    }
    if shipped {
        text.push_str(&format!(
            "total: {errors} error{}, {warnings} warning{}\n",
            if errors == 1 { "" } else { "s" },
            if warnings == 1 { "" } else { "s" },
        ));
    }
    Lint { text, errors }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use crate::{epcheck, mcu8check};
    use ulp_verify::DiagClass::{self, *};

    /// The class after `class` in declaration order; `None` starts the
    /// list and ends it. The match is exhaustive, so a new class does
    /// not compile until it is listed here, and then the coverage test
    /// fails until a fixture raises it.
    fn next_class(class: Option<DiagClass>) -> Option<DiagClass> {
        match class {
            None => Some(PoweredOffAccess),
            Some(PoweredOffAccess) => Some(UnknownPowerAccess),
            Some(UnknownPowerAccess) => Some(RedundantSwitch),
            Some(RedundantSwitch) => Some(LeftOnAtExit),
            Some(LeftOnAtExit) => Some(ReadOnlyWrite),
            Some(ReadOnlyWrite) => Some(UnmappedAccess),
            Some(UnmappedAccess) => Some(TransferBounds),
            Some(TransferBounds) => Some(BadPowerTarget),
            Some(BadPowerTarget) => Some(IsrBankGated),
            Some(IsrBankGated) => Some(VectorOverlap),
            Some(VectorOverlap) => Some(MissingTerminator),
            Some(MissingTerminator) => Some(TrailingBytes),
            Some(TrailingBytes) => Some(WcetOverrun),
            Some(WcetOverrun) => Some(UnresolvedIndirect),
            Some(UnresolvedIndirect) => Some(Recursion),
            Some(Recursion) => Some(StackOverflow),
            Some(StackOverflow) => Some(StackImbalance),
            Some(StackImbalance) => Some(IsrClobbersRegister),
            Some(IsrClobbersRegister) => Some(IsrClobbersSreg),
            Some(IsrClobbersSreg) => Some(UnreachableVector),
            Some(UnreachableVector) => Some(SleepWhileIrqOff),
            Some(SleepWhileIrqOff) => Some(IsrReenablesIrq),
            Some(IsrReenablesIrq) => Some(UnboundedLoop),
            Some(UnboundedLoop) => Some(InvalidOpcode),
            Some(InvalidOpcode) => Some(RunsOffImage),
            Some(RunsOffImage) => None,
        }
    }

    #[test]
    fn fixtures_cover_every_diagnostic_class() {
        let ep = epcheck::fixture_reports();
        let mcu8 = mcu8check::fixture_reports();
        let seen: BTreeSet<&str> = ep
            .iter()
            .flat_map(|r| &r.diags)
            .chain(mcu8.iter().flat_map(|r| &r.diags))
            .map(|d| d.class.code())
            .collect();
        let mut class = next_class(None);
        while let Some(c) = class {
            assert!(
                seen.contains(c.code()),
                "no fixture exercises `{}`",
                c.code()
            );
            class = next_class(class);
        }
    }
}
