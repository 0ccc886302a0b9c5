//! Rustc-style diagnostic rendering helpers.
//!
//! Shared by tools that report findings about simulated programs (the
//! `ulp-verify` static checker, the `repro` lint reports): a severity header,
//! a `-->` source pointer, indented notes, and a summary line. Keeping
//! the formatting here means every tool renders diagnostics the same
//! way and golden tests pin a single vocabulary.
//!
//! ```
//! use ulp_sim::diag;
//! let text = [
//!     diag::header("error", "unmapped-access", "read of unmapped address 0x0900"),
//!     diag::pointer("isr+0x0003", "read 0x0900"),
//!     diag::note("no bus slave decodes this address"),
//! ]
//! .join("\n");
//! assert!(text.starts_with("error[unmapped-access]:"));
//! ```

/// The severity/code/message header line: `error[code]: message`.
pub fn header(severity: &str, code: &str, message: &str) -> String {
    format!("{severity}[{code}]: {message}")
}

/// The source-pointer line: `  --> loc: snippet` (omit the snippet by
/// passing an empty string).
pub fn pointer(loc: &str, snippet: &str) -> String {
    if snippet.is_empty() {
        format!("  --> {loc}")
    } else {
        format!("  --> {loc}: {snippet}")
    }
}

/// An indented note line: `  = note: text`.
pub fn note(text: &str) -> String {
    format!("  = note: {text}")
}

/// The closing tally: `2 errors, 1 warning` with singular/plural forms,
/// or `no diagnostics` when both counts are zero.
pub fn summary(errors: usize, warnings: usize) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_formats_like_rustc() {
        assert_eq!(
            header("warning", "trailing-bytes", "3 unreachable bytes"),
            "warning[trailing-bytes]: 3 unreachable bytes"
        );
    }

    #[test]
    fn pointer_with_and_without_snippet() {
        assert_eq!(
            pointer("isr+0x0004", "write 0x1201"),
            "  --> isr+0x0004: write 0x1201"
        );
        assert_eq!(pointer("isr end", ""), "  --> isr end");
    }

    #[test]
    fn note_indents() {
        assert_eq!(note("see DESIGN.md"), "  = note: see DESIGN.md");
    }

    #[test]
    fn summary_pluralizes() {
        assert_eq!(summary(0, 0), "no diagnostics");
        assert_eq!(summary(1, 0), "1 error");
        assert_eq!(summary(2, 0), "2 errors");
        assert_eq!(summary(0, 1), "1 warning");
        assert_eq!(summary(3, 2), "3 errors, 2 warnings");
    }
}
