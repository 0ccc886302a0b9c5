#![warn(missing_docs)]
//! `ulp-verify`: static checkers for event-processor ISR programs and
//! mcu8 firmware.
//!
//! The paper's core claim is that EP ISRs run autonomously against
//! power-gated peripherals while the microcontroller sleeps — which
//! means an ISR that `READ`s a component it never `SWITCHON`ed, or
//! whose worst-case cycle count overruns the inter-event deadline,
//! fails silently in exactly the scenario the architecture exists to
//! handle. This crate lints encoded ISR images *before* they are
//! installed:
//!
//! * **Structure** — ISRs are straight-line programs terminated by
//!   `TERMINATE`/`WAKEUP`, so decoding yields a linear CFG and the
//!   analysis below is a *precise* abstract interpretation, not an
//!   approximation.
//! * **Power-state dataflow** — a three-point lattice
//!   ([`PowerState`]: Off/On/Unknown) per 5-bit component id, seeded
//!   from the system reset state plus caller assumptions, flags
//!   accesses to powered-off components, redundant
//!   `SWITCHON`/`SWITCHOFF`, and components left on at exit.
//! * **Address-map conformance** — every access is checked against the
//!   machine-readable map tables in `ulp_core::map`: unmapped holes,
//!   writes to read-only registers, `TRANSFER` blocks that leave their
//!   region or overrun the 32-byte buffers.
//! * **WCET** — a worst-case cycle bound from the event processor's
//!   documented costs (2-cycle LOOKUP, 1 cycle per fetched word,
//!   per-opcode execute cycles, state-aware `SWITCHON` handshake
//!   stalls), checked against an optional event-period budget.
//!
//! Every rule is *cross-validated against the simulator*: the test
//! suite reproduces each error class as a dynamic `BusError` fault or
//! `BusLint` observation in `ulp-core`, and proves that clean programs
//! simulate without faults with the WCET bound exactly equal to the
//! measured cycle count. The simulator is the ground truth that keeps
//! this analyzer honest.
//!
//! # Whole-firmware analysis for mcu8
//!
//! The Mica2 baseline's firmware is the opposite problem — branches,
//! loops, subroutines, a software stack, preemptive interrupts — and
//! gets its own analyzer, [`check_firmware`]: CFG recovery from the
//! same `ulp_mcu8::Predecoded` table the simulator steps, a
//! register/stack abstract interpretation composed bottom-up through
//! the call graph, interrupt-safety lints, WCET bounds that recover
//! immediate-counted loop trip counts, and a whole-firmware stack
//! bound. Cross-validated the same way: exact WCETs equal measured
//! dispatch-to-`reti` cycles, upper bounds cover every run, stack
//! figures match the observed SP excursion (`tests/mcu8_crossval.rs`).
//!
//! # One diagnostic vocabulary
//!
//! Both checkers report in one vocabulary: one [`DiagClass`] enum (the
//! two classes both raise, `vector-overlap` and `wcet-overrun`, are one
//! variant each), one [`Diagnostic`] type, and one findings tail on
//! [`Report`] and [`FirmwareReport`] — error and warning counts,
//! `is_clean`, and the rustc-style diagnostic lines plus the summary
//! line. A location renders as `isr+0xOFF` in an ISR and as
//! `fw:sym+0xOFF` or `fw:0xADDR` in firmware.
//!
//! # Example
//!
//! ```
//! use ulp_isa::ep::{encode_program, Instruction as I};
//! use ulp_verify::{check_isr, CheckContext, DiagClass};
//!
//! // READ of the message processor's status register without a
//! // preceding SWITCHON: powered off at reset, so this faults in the
//! // field — and the checker catches it on the desk.
//! let isr = encode_program(&[I::Read(0x1201), I::Terminate]).unwrap();
//! let report = check_isr(&isr, &CheckContext::system_reset("demo"));
//! assert_eq!(report.diags[0].class, DiagClass::PoweredOffAccess);
//! assert!(report.has_fault_class());
//! ```

mod check;
mod diag;
mod mcu8;

pub use check::{check_isr, CheckContext, PowerState};
pub use diag::{DiagClass, Diagnostic, Report, Severity};
pub use mcu8::{
    check_firmware, EntryReport, FirmwareConfig, FirmwareReport, VectorDispatch, WcetBound,
};
