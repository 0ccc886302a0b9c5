//! Memory-system abstraction for the AVR-subset core.
//!
//! The same CPU core runs against two very different memory systems:
//!
//! * the Mica2 baseline's Harvard arrangement (program flash + on-chip
//!   SRAM + peripheral I/O), where fetches are free of bus contention; and
//! * the paper architecture's unified, memory-mapped 8-bit system bus,
//!   where every 16-bit program-word fetch costs two extra bus cycles.
//!
//! [`FlatBus`] is a simple Harvard implementation used by tests and as the
//! base of the Mica2 platform model.

use crate::insn::{decode, DecodedInsn};

/// The CPU's window onto program memory, data memory, I/O, and interrupts.
pub trait Bus {
    /// Fetch the program word at word address `pc`.
    fn fetch(&mut self, pc: u16) -> u16;

    /// The instruction whose first word sits at word address `pc`. The
    /// default fetches both candidate words and decodes them. A bus whose
    /// fetch is side-effect free may answer from a
    /// [`Predecoded`](crate::Predecoded) table instead; it must return
    /// exactly what the default would.
    fn decode(&mut self, pc: u16) -> DecodedInsn {
        let w0 = self.fetch(pc);
        let w1 = self.fetch(pc.wrapping_add(1));
        decode(w0, w1)
    }

    /// Read a data-space byte (addresses ≥ 0x60; registers and I/O below
    /// that are handled inside the CPU).
    fn read(&mut self, addr: u16) -> u8;

    /// Write a data-space byte.
    fn write(&mut self, addr: u16, value: u8);

    /// Read an I/O register (I/O address 0–63, excluding SPL/SPH/SREG
    /// which the CPU handles itself).
    fn io_read(&mut self, addr: u8) -> u8;

    /// Write an I/O register.
    fn io_write(&mut self, addr: u8, value: u8);

    /// Extra cycles charged per fetched program word (0 for Harvard
    /// flash; 2 on the paper's 8-bit unified bus).
    fn fetch_penalty(&self) -> u8 {
        0
    }

    /// Take the highest-priority pending interrupt vector, if any. The
    /// implementation must clear the returned pending flag ("take"
    /// semantics). Called by the CPU when `SREG.I` is set, between
    /// instructions.
    fn pending_irq(&mut self) -> Option<u8> {
        None
    }
}

/// A plain Harvard memory: word-addressed program store plus a flat byte
/// RAM and 64 I/O latches. No interrupts.
#[derive(Debug, Clone)]
pub struct FlatBus {
    program: Vec<u16>,
    ram: Vec<u8>,
    io: [u8; 64],
}

impl FlatBus {
    /// A bus with `ram_bytes` of RAM and 64 K words of (zeroed) program
    /// store.
    pub fn new(ram_bytes: usize) -> FlatBus {
        FlatBus {
            program: vec![0; 65_536],
            ram: vec![0; ram_bytes],
            io: [0; 64],
        }
    }

    /// Load an assembled image (byte-addressed, little-endian words) into
    /// program memory.
    ///
    /// # Panics
    ///
    /// Panics on odd-sized/odd-origin segments or images past 128 KB.
    pub fn load_image(&mut self, image: &ulp_isa::asm::Image) {
        load_words(&mut self.program, image);
    }

    /// The RAM contents.
    pub fn ram(&self) -> &[u8] {
        &self.ram
    }

    /// Mutable RAM contents.
    pub fn ram_mut(&mut self) -> &mut [u8] {
        &mut self.ram
    }

    /// The I/O latch values.
    pub fn io(&self) -> &[u8; 64] {
        &self.io
    }
}

/// Copy an assembled image (byte-addressed, little-endian words) into a
/// word-addressed program store.
///
/// # Panics
///
/// Panics on odd-sized/odd-origin segments or words past the end of
/// `program`.
pub fn load_words(program: &mut [u16], image: &ulp_isa::asm::Image) {
    for seg in image.segments() {
        assert!(
            seg.origin % 2 == 0 && seg.data.len() % 2 == 0,
            "program segments must be word-aligned"
        );
        for (i, pair) in seg.data.chunks(2).enumerate() {
            let wa = seg.origin as usize / 2 + i;
            let slot = program.get_mut(wa).expect("program image too large");
            *slot = u16::from_le_bytes([pair[0], pair[1]]);
        }
    }
}

impl Bus for FlatBus {
    fn fetch(&mut self, pc: u16) -> u16 {
        self.program[pc as usize]
    }
    fn read(&mut self, addr: u16) -> u8 {
        self.ram.get(addr as usize).copied().unwrap_or(0)
    }
    fn write(&mut self, addr: u16, value: u8) {
        if let Some(slot) = self.ram.get_mut(addr as usize) {
            *slot = value;
        }
    }
    fn io_read(&mut self, addr: u8) -> u8 {
        self.io[addr as usize & 63]
    }
    fn io_write(&mut self, addr: u8, value: u8) {
        self.io[addr as usize & 63] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatbus_ram_roundtrip() {
        let mut b = FlatBus::new(1024);
        b.write(0x100, 0xAB);
        assert_eq!(b.read(0x100), 0xAB);
        assert_eq!(b.read(0x2000), 0, "out-of-range reads as 0");
        b.write(0x2000, 1); // silently ignored
        assert_eq!(b.ram().len(), 1024);
    }

    #[test]
    fn flatbus_io_roundtrip() {
        let mut b = FlatBus::new(64);
        b.io_write(5, 0x42);
        assert_eq!(b.io_read(5), 0x42);
        assert_eq!(b.io()[5], 0x42);
    }

    #[test]
    fn default_bus_has_no_penalty_or_irqs() {
        let mut b = FlatBus::new(64);
        assert_eq!(b.fetch_penalty(), 0);
        assert_eq!(b.pending_irq(), None);
    }
}
