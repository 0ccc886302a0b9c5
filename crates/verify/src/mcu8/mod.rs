//! Whole-firmware static analysis for mcu8 (AVR-subset) images.
//!
//! Where the EP checker ([`check_isr`](crate::check_isr)) exploits
//! straight-line ISR structure, general-purpose mcu8 firmware has
//! loops, calls, and a vector table — so this module first recovers a
//! control-flow graph from the shared [`Predecoded`] instruction table
//! (the same table the simulator steps from), then runs three analyses
//! over it:
//!
//! * **Stack-depth verification** — an abstract interpretation tracks
//!   the exact push/pop balance of every function (join points must
//!   agree), call frames add `2 + callee_depth` transiently, and the
//!   whole-firmware bound `main + interrupt frame + deepest ISR` is
//!   checked against the configured stack region. Recursion is
//!   rejected (the bound would not exist).
//! * **Interrupt-safety lints** — the same abstract domain tracks which
//!   registers still hold their entry values (including values saved on
//!   the stack and restored, and `SREG` round-tripped through
//!   `in`/`out 0x3F`), so ISRs that clobber non-saved registers or
//!   flags are flagged; plus vector-table conformance (uninstalled
//!   slots, code overlapping the table — sharing
//!   [`ulp_core::map::ranges_overlap`] with the EP checker) and
//!   `sleep` executed while interrupts are provably disabled (the CPU
//!   would never wake).
//! * **Loop-bounded WCET** — cycle bounds per interrupt vector, exact
//!   on straight-line paths, with immediate-counted loops
//!   (`ldi rN, K` … `dec rN; brne`) collapsed to `K` iterations and an
//!   explicit `unbounded` diagnostic for anything the bounder cannot
//!   prove. The reset vector is exempt (an event-driven main loop
//!   never terminates by design).
//!
//! Soundness caveats are documented in DESIGN.md: stores are assumed
//! not to overwrite the stack or program, and ISR nesting is assumed
//! absent (which the `isr-reenables-interrupts` lint itself guards).
//!
//! [`Predecoded`]: ulp_mcu8::Predecoded

mod analyze;
mod cfg;

use std::fmt;

use crate::diag::Diagnostic;

/// Worst-case cycle bound of one interrupt entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WcetBound {
    /// Every execution takes exactly this many cycles (straight-line
    /// code, or counted loops with straight-line bodies).
    Exact(u64),
    /// No execution takes more than this many cycles.
    UpperBound(u64),
    /// The bounder cannot prove termination.
    Unbounded,
}

impl WcetBound {
    /// The numeric bound, if one exists.
    pub fn cycles(self) -> Option<u64> {
        match self {
            WcetBound::Exact(c) | WcetBound::UpperBound(c) => Some(c),
            WcetBound::Unbounded => None,
        }
    }

    pub(crate) fn add(self, other: WcetBound) -> WcetBound {
        match (self, other) {
            (WcetBound::Unbounded, _) | (_, WcetBound::Unbounded) => WcetBound::Unbounded,
            (WcetBound::Exact(a), WcetBound::Exact(b)) => WcetBound::Exact(a + b),
            (a, b) => WcetBound::UpperBound(a.cycles().unwrap_or(0) + b.cycles().unwrap_or(0)),
        }
    }

    pub(crate) fn add_cycles(self, c: u64) -> WcetBound {
        self.add(WcetBound::Exact(c))
    }

    /// Join of alternative paths: the worst of the two, exact only if
    /// both alternatives cost the same.
    pub(crate) fn join_max(self, other: WcetBound) -> WcetBound {
        match (self, other) {
            (WcetBound::Unbounded, _) | (_, WcetBound::Unbounded) => WcetBound::Unbounded,
            (WcetBound::Exact(a), WcetBound::Exact(b)) if a == b => WcetBound::Exact(a),
            (a, b) => WcetBound::UpperBound(a.cycles().unwrap().max(b.cycles().unwrap())),
        }
    }
}

impl fmt::Display for WcetBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WcetBound::Exact(c) => write!(f, "{c} cycles (exact)"),
            WcetBound::UpperBound(c) => write!(f, "<={c} cycles"),
            WcetBound::Unbounded => f.write_str("unbounded"),
        }
    }
}

/// How a vector slot dispatches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VectorDispatch {
    /// The slot holds a `jmp`/`rjmp` (or a bare `reti`) and the target
    /// was analyzed.
    Installed,
    /// The slot holds no dispatch instruction.
    NotInstalled,
}

/// Per-interrupt-vector analysis results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryReport {
    /// Vector number (0 = reset).
    pub vector: u8,
    /// The vector's configured name.
    pub name: String,
    /// Name of the handler the slot dispatches to.
    pub target: String,
    /// Whether the slot holds a dispatch at all.
    pub dispatch: VectorDispatch,
    /// WCET from hardware dispatch (4 cycles) through `reti`. `None`
    /// for the reset vector (main never returns by design) and for
    /// uninstalled slots.
    pub wcet: Option<WcetBound>,
    /// Worst-case stack bytes this entry pushes beyond the interrupt
    /// frame (`None` if recursion or an unresolved indirect call makes
    /// the bound unknowable).
    pub stack: Option<u32>,
}

/// What to analyze and against which contracts. Presets for the boards
/// in the workspace live beside the firmware they describe (the bench
/// crate's `mcu8check` module builds the Mica2 one).
#[derive(Debug, Clone)]
pub struct FirmwareConfig {
    /// Name used in rendered reports.
    pub name: String,
    /// Interrupt vector names; index = vector number, index 0 = reset.
    /// Slots are two words apart (ATmega style), so the table occupies
    /// words `0 .. 2 * vectors.len()`.
    pub vectors: Vec<String>,
    /// Initial stack pointer (byte address, grows down).
    pub stack_top: u16,
    /// Lowest byte address the stack may touch.
    pub stack_low: u16,
    /// Optional per-ISR cycle budget (dispatch to `reti`).
    pub isr_budget: Option<u64>,
    /// Extra cycles per fetched word (0 = Harvard flash).
    pub fetch_penalty: u8,
    /// Declared `icall` targets (word addresses + names). An `icall`
    /// is analyzed as a call to *any* of these; firmware with no
    /// declared targets gets `unresolved-indirect` on every `icall`.
    pub indirect_targets: Vec<(u16, String)>,
    /// Code symbols (word address → label) used for locations in
    /// rendered diagnostics.
    pub symbols: Vec<(u16, String)>,
}

impl FirmwareConfig {
    /// A minimal config: `n_vectors` unnamed vectors, stack in
    /// `[stack_low, stack_top]`, no budget, Harvard fetch.
    pub fn bare(name: &str, n_vectors: u8, stack_top: u16, stack_low: u16) -> FirmwareConfig {
        FirmwareConfig {
            name: name.to_string(),
            vectors: (0..n_vectors)
                .map(|v| {
                    if v == 0 {
                        "reset".into()
                    } else {
                        format!("irq{v}")
                    }
                })
                .collect(),
            stack_top,
            stack_low,
            isr_budget: None,
            fetch_penalty: 0,
            indirect_targets: Vec::new(),
            symbols: Vec::new(),
        }
    }

    /// The name of the code symbol at exactly `word_addr`, if any
    /// (lexicographically smallest on aliasing).
    fn symbol_at(&self, word_addr: u16) -> Option<&str> {
        self.symbols
            .iter()
            .filter(|(a, _)| *a == word_addr)
            .map(|(_, n)| n.as_str())
            .min()
    }

    /// Stack capacity in bytes.
    fn stack_capacity(&self) -> u32 {
        u32::from(self.stack_top).saturating_sub(u32::from(self.stack_low)) + 1
    }
}

/// The result of analyzing one firmware image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FirmwareReport {
    /// Name the firmware was checked under.
    pub name: String,
    /// Discovered functions (call-graph nodes).
    pub functions: usize,
    /// Recovered basic blocks.
    pub blocks: usize,
    /// Reachable instructions.
    pub insns: usize,
    /// Image length in program words.
    pub image_words: usize,
    /// Per-vector results, in vector order.
    pub entries: Vec<EntryReport>,
    /// Whole-firmware worst-case stack bytes (main + one interrupt
    /// frame + deepest ISR), when computable.
    pub stack_bound: Option<u32>,
    /// Bytes available in the configured stack region.
    pub stack_capacity: u32,
    /// Findings, ordered by address then class.
    pub diags: Vec<Diagnostic>,
}

impl FirmwareReport {
    /// Render the full report deterministically.
    pub fn render(&self) -> String {
        let mut out = format!(
            "mcu8check `{}`: {} function{}, {} block{}, {} insn{}, {} image word{}\n",
            self.name,
            self.functions,
            if self.functions == 1 { "" } else { "s" },
            self.blocks,
            if self.blocks == 1 { "" } else { "s" },
            self.insns,
            if self.insns == 1 { "" } else { "s" },
            self.image_words,
            if self.image_words == 1 { "" } else { "s" },
        );
        for e in &self.entries {
            out.push_str(&format!(
                "  vector {} {} -> {}: ",
                e.vector, e.name, e.target
            ));
            match e.stack {
                Some(s) => out.push_str(&format!("stack {s} bytes, ")),
                None => out.push_str("stack n/a, "),
            }
            match (&e.wcet, e.dispatch) {
                (_, VectorDispatch::NotInstalled) => out.push_str("wcet n/a"),
                (None, _) => out.push_str("wcet n/a"),
                (Some(WcetBound::Exact(c)), _) => out.push_str(&format!("wcet {c} cycles (exact)")),
                (Some(WcetBound::UpperBound(c)), _) => out.push_str(&format!("wcet <={c} cycles")),
                (Some(WcetBound::Unbounded), _) => out.push_str("wcet unbounded"),
            }
            out.push('\n');
        }
        match self.stack_bound {
            Some(b) => out.push_str(&format!(
                "  stack worst case {b} of {} bytes\n",
                self.stack_capacity
            )),
            None => out.push_str(&format!(
                "  stack worst case n/a of {} bytes\n",
                self.stack_capacity
            )),
        }
        self.render_findings(&mut out);
        out
    }
}

/// Statically analyze a whole mcu8 firmware image.
///
/// `words` is the program image as 16-bit words starting at word
/// address 0 (the vector table). The image is predecoded once into the
/// same [`Predecoded`](ulp_mcu8::Predecoded) table the simulator steps
/// from, the CFG is recovered from the configured entry points, and
/// the stack, interrupt-safety, and WCET analyses run over it.
pub fn check_firmware(words: &[u16], cfg: &FirmwareConfig) -> FirmwareReport {
    analyze::run(words, cfg)
}

#[cfg(test)]
mod tests;
