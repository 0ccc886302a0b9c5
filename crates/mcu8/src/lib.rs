#![warn(missing_docs)]
//! 8-bit AVR-subset microcontroller core and assembler.
//!
//! This crate provides the general-purpose computing element used twice in
//! the workspace:
//!
//! 1. as the ATmega128-style CPU of the **Mica2 baseline** (`ulp-mica`),
//!    executing a miniature TinyOS-style runtime — the role the Atemu
//!    emulator played for the paper's cycle comparisons (Table 4); and
//! 2. as the **master microcontroller** of the paper's own architecture
//!    (`ulp-core`), handling *irregular* events while Vdd-gated the rest
//!    of the time.
//!
//! The core implements a substantial subset of the AVR instruction set
//! with authentic binary encodings and datasheet cycle timings, 32
//! registers, `SREG`, a stack pointer, and vectored interrupts. Memory is
//! abstracted behind the [`Bus`] trait so the same core can run from a
//! Harvard-style flash (Mica2) or from the unified bus-attached memory of
//! the paper's architecture.
//!
//! # Example
//!
//! ```
//! use ulp_mcu8::{AvrIsa, Cpu, FlatBus, assemble};
//!
//! let image = assemble(r#"
//!     ldi r16, 21
//!     lsl r16          ; r16 = 42
//!     sts 0x0100, r16
//!     break            ; halt the simulation
//! "#)?;
//! let mut bus = FlatBus::new(64 * 1024);
//! bus.load_image(&image);
//! let mut cpu = Cpu::new();
//! while !cpu.halted() {
//!     cpu.step(&mut bus);
//! }
//! assert_eq!(bus.ram()[0x0100], 42);
//! # Ok::<(), ulp_isa::asm::AsmError>(())
//! ```

mod bus;
mod cpu;
mod disasm;
mod insn;
mod isa;
mod predecode;

pub use bus::{load_words, Bus, FlatBus};
pub use cpu::{Cpu, SREG_C, SREG_H, SREG_I, SREG_N, SREG_S, SREG_T, SREG_V, SREG_Z};
pub use disasm::{disassemble, DisasmLine};
pub use insn::{decode, DecodedInsn, Insn, Ptr, PtrMode};
pub use isa::{assemble, AvrIsa};
pub use predecode::Predecoded;
