//! The AVR-subset CPU core: architectural state and instruction execution.

use crate::bus::Bus;
use crate::insn::{Insn, Ptr, PtrMode};

/// SREG carry flag bit.
pub const SREG_C: u8 = 0;
/// SREG zero flag bit.
pub const SREG_Z: u8 = 1;
/// SREG negative flag bit.
pub const SREG_N: u8 = 2;
/// SREG two's-complement-overflow flag bit.
pub const SREG_V: u8 = 3;
/// SREG sign flag bit (N ⊕ V).
pub const SREG_S: u8 = 4;
/// SREG half-carry flag bit.
pub const SREG_H: u8 = 5;
/// SREG bit-transfer flag bit.
pub const SREG_T: u8 = 6;
/// SREG global interrupt-enable bit.
pub const SREG_I: u8 = 7;

const IO_SPL: u8 = 0x3D;
const IO_SPH: u8 = 0x3E;
const IO_SREG: u8 = 0x3F;

/// The CPU core: 32 registers, `SREG`, `SP`, and a word-addressed `PC`.
///
/// Memory, I/O, and interrupts are provided by a [`Bus`]. One call to
/// [`step`](Cpu::step) executes one instruction (or services one
/// interrupt) and returns the cycles it consumed.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// The register file r0–r31.
    pub regs: [u8; 32],
    /// Program counter, in words.
    pub pc: u16,
    /// Stack pointer, in data-space bytes.
    pub sp: u16,
    sreg: u8,
    sleeping: bool,
    halted: bool,
    invalid: Option<u16>,
    total_cycles: u64,
}

impl Default for Cpu {
    fn default() -> Self {
        Cpu::new()
    }
}

impl Cpu {
    /// A CPU reset to PC 0, SP 0, flags clear.
    pub fn new() -> Cpu {
        Cpu {
            regs: [0; 32],
            pc: 0,
            sp: 0,
            sreg: 0,
            sleeping: false,
            halted: false,
            invalid: None,
            total_cycles: 0,
        }
    }

    /// The status register.
    pub fn sreg(&self) -> u8 {
        self.sreg
    }

    /// Read one SREG flag.
    pub fn flag(&self, bit: u8) -> bool {
        self.sreg & (1 << bit) != 0
    }

    /// Set one SREG flag.
    pub fn set_flag(&mut self, bit: u8, value: bool) {
        if value {
            self.sreg |= 1 << bit;
        } else {
            self.sreg &= !(1 << bit);
        }
    }

    /// Whether the CPU executed `BREAK` or an invalid encoding.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Whether the CPU is in `SLEEP`, waiting for an interrupt.
    pub fn sleeping(&self) -> bool {
        self.sleeping
    }

    /// The offending word if an invalid encoding halted the CPU.
    pub fn invalid_opcode(&self) -> Option<u16> {
        self.invalid
    }

    /// Total cycles consumed since reset.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// A 16-bit register pair (`lo` = low register index).
    pub fn reg_pair(&self, lo: usize) -> u16 {
        u16::from_le_bytes([self.regs[lo], self.regs[lo + 1]])
    }

    /// Set a 16-bit register pair.
    pub fn set_reg_pair(&mut self, lo: usize, value: u16) {
        let [l, h] = value.to_le_bytes();
        self.regs[lo] = l;
        self.regs[lo + 1] = h;
    }

    /// Execute one instruction (or take one interrupt), returning the
    /// cycles consumed. A halted CPU consumes nothing; a sleeping CPU
    /// with no pending interrupt consumes one idle cycle.
    pub fn step<B: Bus>(&mut self, bus: &mut B) -> u8 {
        if self.halted {
            return 0;
        }
        // Interrupts are sampled between instructions.
        if self.flag(SREG_I) {
            if let Some(vector) = bus.pending_irq() {
                self.sleeping = false;
                self.push16(bus, self.pc);
                self.set_flag(SREG_I, false);
                // Vectors are spaced two words apart (ATmega128 style),
                // each slot holding one JMP/RJMP.
                self.pc = vector as u16 * 2;
                self.total_cycles += 4;
                return 4;
            }
        }
        if self.sleeping {
            self.total_cycles += 1;
            return 1;
        }
        let penalty = bus.fetch_penalty();
        let d = bus.decode(self.pc);
        let mut cycles = d.cycles + d.words * penalty;
        self.pc = self.pc.wrapping_add(d.words as u16);
        cycles += self.execute(bus, d.insn, penalty);
        self.total_cycles += cycles as u64;
        cycles
    }

    fn execute<B: Bus>(&mut self, bus: &mut B, insn: Insn, penalty: u8) -> u8 {
        let mut extra = 0u8;
        match insn {
            Insn::Nop | Insn::Wdr => {}
            Insn::Add { d, r } => {
                let v = self.add8(self.regs[d as usize], self.regs[r as usize], false);
                self.regs[d as usize] = v;
            }
            Insn::Adc { d, r } => {
                let c = self.flag(SREG_C);
                let v = self.add8(self.regs[d as usize], self.regs[r as usize], c);
                self.regs[d as usize] = v;
            }
            Insn::Sub { d, r } => {
                let v = self.sub8(self.regs[d as usize], self.regs[r as usize], false, true);
                self.regs[d as usize] = v;
            }
            Insn::Sbc { d, r } => {
                let c = self.flag(SREG_C);
                let v = self.sub8_carry_z(self.regs[d as usize], self.regs[r as usize], c);
                self.regs[d as usize] = v;
            }
            Insn::And { d, r } => {
                let v = self.regs[d as usize] & self.regs[r as usize];
                self.logic_flags(v);
                self.regs[d as usize] = v;
            }
            Insn::Or { d, r } => {
                let v = self.regs[d as usize] | self.regs[r as usize];
                self.logic_flags(v);
                self.regs[d as usize] = v;
            }
            Insn::Eor { d, r } => {
                let v = self.regs[d as usize] ^ self.regs[r as usize];
                self.logic_flags(v);
                self.regs[d as usize] = v;
            }
            Insn::Mov { d, r } => self.regs[d as usize] = self.regs[r as usize],
            Insn::Movw { d, r } => {
                self.regs[d as usize] = self.regs[r as usize];
                self.regs[d as usize + 1] = self.regs[r as usize + 1];
            }
            Insn::Cp { d, r } => {
                let _ = self.sub8(self.regs[d as usize], self.regs[r as usize], false, true);
            }
            Insn::Cpc { d, r } => {
                let c = self.flag(SREG_C);
                let _ = self.sub8_carry_z(self.regs[d as usize], self.regs[r as usize], c);
            }
            Insn::Cpse { d, r } => {
                if self.regs[d as usize] == self.regs[r as usize] {
                    extra += self.skip_next(bus, penalty);
                }
            }
            Insn::Mul { d, r } => {
                let p = self.regs[d as usize] as u16 * self.regs[r as usize] as u16;
                self.set_reg_pair(0, p);
                self.set_flag(SREG_C, p & 0x8000 != 0);
                self.set_flag(SREG_Z, p == 0);
            }
            Insn::Subi { d, k } => {
                let v = self.sub8(self.regs[d as usize], k, false, true);
                self.regs[d as usize] = v;
            }
            Insn::Sbci { d, k } => {
                let c = self.flag(SREG_C);
                let v = self.sub8_carry_z(self.regs[d as usize], k, c);
                self.regs[d as usize] = v;
            }
            Insn::Andi { d, k } => {
                let v = self.regs[d as usize] & k;
                self.logic_flags(v);
                self.regs[d as usize] = v;
            }
            Insn::Ori { d, k } => {
                let v = self.regs[d as usize] | k;
                self.logic_flags(v);
                self.regs[d as usize] = v;
            }
            Insn::Cpi { d, k } => {
                let _ = self.sub8(self.regs[d as usize], k, false, true);
            }
            Insn::Ldi { d, k } => self.regs[d as usize] = k,
            Insn::Com { d } => {
                let v = !self.regs[d as usize];
                self.logic_flags(v);
                self.set_flag(SREG_C, true);
                self.regs[d as usize] = v;
            }
            Insn::Neg { d } => {
                let rd = self.regs[d as usize];
                let v = 0u8.wrapping_sub(rd);
                self.set_flag(SREG_H, ((v | rd) >> 3) & 1 != 0);
                self.set_flag(SREG_V, v == 0x80);
                self.set_flag(SREG_C, v != 0);
                self.nz_s(v);
                self.regs[d as usize] = v;
            }
            Insn::Swap { d } => {
                let v = self.regs[d as usize];
                self.regs[d as usize] = v.rotate_right(4);
            }
            Insn::Inc { d } => {
                let v = self.regs[d as usize].wrapping_add(1);
                self.set_flag(SREG_V, v == 0x80);
                self.nz_s(v);
                self.regs[d as usize] = v;
            }
            Insn::Dec { d } => {
                let v = self.regs[d as usize].wrapping_sub(1);
                self.set_flag(SREG_V, v == 0x7F);
                self.nz_s(v);
                self.regs[d as usize] = v;
            }
            Insn::Asr { d } => {
                let rd = self.regs[d as usize];
                let v = ((rd as i8) >> 1) as u8;
                self.shift_flags(v, rd & 1 != 0);
                self.regs[d as usize] = v;
            }
            Insn::Lsr { d } => {
                let rd = self.regs[d as usize];
                let v = rd >> 1;
                self.shift_flags(v, rd & 1 != 0);
                self.regs[d as usize] = v;
            }
            Insn::Ror { d } => {
                let rd = self.regs[d as usize];
                let v = (rd >> 1) | if self.flag(SREG_C) { 0x80 } else { 0 };
                self.shift_flags(v, rd & 1 != 0);
                self.regs[d as usize] = v;
            }
            Insn::Adiw { d, k } => {
                let old = self.reg_pair(d as usize);
                let v = old.wrapping_add(k as u16);
                self.set_flag(SREG_V, (old & 0x8000 == 0) && (v & 0x8000 != 0));
                self.set_flag(SREG_C, (v & 0x8000 == 0) && (old & 0x8000 != 0));
                self.set_flag(SREG_N, v & 0x8000 != 0);
                self.set_flag(SREG_Z, v == 0);
                self.update_s();
                self.set_reg_pair(d as usize, v);
            }
            Insn::Sbiw { d, k } => {
                let old = self.reg_pair(d as usize);
                let v = old.wrapping_sub(k as u16);
                self.set_flag(SREG_V, (old & 0x8000 != 0) && (v & 0x8000 == 0));
                self.set_flag(SREG_C, (v & 0x8000 != 0) && (old & 0x8000 == 0));
                self.set_flag(SREG_N, v & 0x8000 != 0);
                self.set_flag(SREG_Z, v == 0);
                self.update_s();
                self.set_reg_pair(d as usize, v);
            }
            Insn::Lds { d, addr } => self.regs[d as usize] = self.data_read(bus, addr),
            Insn::Sts { addr, r } => {
                let v = self.regs[r as usize];
                self.data_write(bus, addr, v);
            }
            Insn::Ld { d, ptr, mode } => {
                let addr = self.ptr_access(ptr, mode);
                self.regs[d as usize] = self.data_read(bus, addr);
            }
            Insn::St { ptr, mode, r } => {
                let v = self.regs[r as usize];
                let addr = self.ptr_access(ptr, mode);
                self.data_write(bus, addr, v);
            }
            Insn::Ldd { d, ptr, q } => {
                let addr = self.reg_pair(ptr.lo()).wrapping_add(q as u16);
                self.regs[d as usize] = self.data_read(bus, addr);
            }
            Insn::Std { ptr, q, r } => {
                let v = self.regs[r as usize];
                let addr = self.reg_pair(ptr.lo()).wrapping_add(q as u16);
                self.data_write(bus, addr, v);
            }
            Insn::Push { r } => {
                let v = self.regs[r as usize];
                self.push8(bus, v);
            }
            Insn::Pop { d } => self.regs[d as usize] = self.pop8(bus),
            Insn::In { d, a } => self.regs[d as usize] = self.io_read(bus, a),
            Insn::Out { a, r } => {
                let v = self.regs[r as usize];
                self.io_write(bus, a, v);
            }
            Insn::Rjmp { k } => self.pc = self.pc.wrapping_add(k as u16),
            Insn::Rcall { k } => {
                self.push16(bus, self.pc);
                self.pc = self.pc.wrapping_add(k as u16);
            }
            Insn::Jmp { addr } => self.pc = addr,
            Insn::Call { addr } => {
                self.push16(bus, self.pc);
                self.pc = addr;
            }
            Insn::Ijmp => self.pc = self.reg_pair(30),
            Insn::Icall => {
                self.push16(bus, self.pc);
                self.pc = self.reg_pair(30);
            }
            Insn::Ret => self.pc = self.pop16(bus),
            Insn::Reti => {
                self.pc = self.pop16(bus);
                self.set_flag(SREG_I, true);
            }
            Insn::Brbs { s, k } => {
                if self.flag(s) {
                    self.pc = self.pc.wrapping_add(k as u16);
                    extra += 1;
                }
            }
            Insn::Brbc { s, k } => {
                if !self.flag(s) {
                    self.pc = self.pc.wrapping_add(k as u16);
                    extra += 1;
                }
            }
            Insn::Sbrc { r, b } => {
                if self.regs[r as usize] & (1 << b) == 0 {
                    extra += self.skip_next(bus, penalty);
                }
            }
            Insn::Sbrs { r, b } => {
                if self.regs[r as usize] & (1 << b) != 0 {
                    extra += self.skip_next(bus, penalty);
                }
            }
            Insn::Sbic { a, b } => {
                if self.io_read(bus, a) & (1 << b) == 0 {
                    extra += self.skip_next(bus, penalty);
                }
            }
            Insn::Sbis { a, b } => {
                if self.io_read(bus, a) & (1 << b) != 0 {
                    extra += self.skip_next(bus, penalty);
                }
            }
            Insn::Sbi { a, b } => {
                let v = self.io_read(bus, a) | (1 << b);
                self.io_write(bus, a, v);
            }
            Insn::Cbi { a, b } => {
                let v = self.io_read(bus, a) & !(1 << b);
                self.io_write(bus, a, v);
            }
            Insn::Bset { s } => self.set_flag(s, true),
            Insn::Bclr { s } => self.set_flag(s, false),
            Insn::Bst { d, b } => {
                let t = self.regs[d as usize] & (1 << b) != 0;
                self.set_flag(SREG_T, t);
            }
            Insn::Bld { d, b } => {
                if self.flag(SREG_T) {
                    self.regs[d as usize] |= 1 << b;
                } else {
                    self.regs[d as usize] &= !(1 << b);
                }
            }
            Insn::Sleep => self.sleeping = true,
            Insn::Break => self.halted = true,
            Insn::Invalid(w) => {
                self.halted = true;
                self.invalid = Some(w);
            }
        }
        extra
    }

    /// Read the full data space: registers, I/O, then external memory.
    pub fn data_read<B: Bus>(&mut self, bus: &mut B, addr: u16) -> u8 {
        match addr {
            0x00..=0x1F => self.regs[addr as usize],
            0x20..=0x5F => self.io_read(bus, (addr - 0x20) as u8),
            _ => bus.read(addr),
        }
    }

    /// Write the full data space.
    pub fn data_write<B: Bus>(&mut self, bus: &mut B, addr: u16, value: u8) {
        match addr {
            0x00..=0x1F => self.regs[addr as usize] = value,
            0x20..=0x5F => self.io_write(bus, (addr - 0x20) as u8, value),
            _ => bus.write(addr, value),
        }
    }

    fn io_read<B: Bus>(&mut self, bus: &mut B, a: u8) -> u8 {
        match a {
            IO_SPL => self.sp as u8,
            IO_SPH => (self.sp >> 8) as u8,
            IO_SREG => self.sreg,
            _ => bus.io_read(a),
        }
    }

    fn io_write<B: Bus>(&mut self, bus: &mut B, a: u8, v: u8) {
        match a {
            IO_SPL => self.sp = (self.sp & 0xFF00) | v as u16,
            IO_SPH => self.sp = (self.sp & 0x00FF) | ((v as u16) << 8),
            IO_SREG => self.sreg = v,
            _ => bus.io_write(a, v),
        }
    }

    fn ptr_access(&mut self, ptr: Ptr, mode: PtrMode) -> u16 {
        let lo = ptr.lo();
        match mode {
            PtrMode::Plain => self.reg_pair(lo),
            PtrMode::PostInc => {
                let a = self.reg_pair(lo);
                self.set_reg_pair(lo, a.wrapping_add(1));
                a
            }
            PtrMode::PreDec => {
                let a = self.reg_pair(lo).wrapping_sub(1);
                self.set_reg_pair(lo, a);
                a
            }
        }
    }

    fn push8<B: Bus>(&mut self, bus: &mut B, v: u8) {
        let sp = self.sp;
        self.data_write(bus, sp, v);
        self.sp = self.sp.wrapping_sub(1);
    }

    fn pop8<B: Bus>(&mut self, bus: &mut B) -> u8 {
        self.sp = self.sp.wrapping_add(1);
        let sp = self.sp;
        self.data_read(bus, sp)
    }

    fn push16<B: Bus>(&mut self, bus: &mut B, v: u16) {
        self.push8(bus, v as u8);
        self.push8(bus, (v >> 8) as u8);
    }

    fn pop16<B: Bus>(&mut self, bus: &mut B) -> u16 {
        let hi = self.pop8(bus);
        let lo = self.pop8(bus);
        u16::from_le_bytes([lo, hi])
    }

    /// Skip the next instruction; returns the extra cycles (its length,
    /// plus the fetch penalty it would have incurred).
    fn skip_next<B: Bus>(&mut self, bus: &mut B, penalty: u8) -> u8 {
        let d = bus.decode(self.pc);
        self.pc = self.pc.wrapping_add(d.words as u16);
        d.words * (1 + penalty)
    }

    fn add8(&mut self, a: u8, b: u8, carry: bool) -> u8 {
        let c = carry as u16;
        let wide = a as u16 + b as u16 + c;
        let v = wide as u8;
        self.set_flag(SREG_C, wide > 0xFF);
        self.set_flag(SREG_H, (a & 0xF) + (b & 0xF) + c as u8 > 0xF);
        self.set_flag(SREG_V, ((a ^ v) & (b ^ v) & 0x80) != 0);
        self.set_flag(SREG_Z, v == 0);
        self.set_flag(SREG_N, v & 0x80 != 0);
        self.update_s();
        v
    }

    /// SUB/CP semantics: Z is set purely from the result.
    fn sub8(&mut self, a: u8, b: u8, carry: bool, set_z: bool) -> u8 {
        let c = carry as i16;
        let wide = a as i16 - b as i16 - c;
        let v = wide as u8;
        self.set_flag(SREG_C, wide < 0);
        self.set_flag(SREG_H, (a & 0xF) as i16 - (b & 0xF) as i16 - c < 0);
        self.set_flag(SREG_V, ((a ^ b) & (a ^ v) & 0x80) != 0);
        if set_z {
            self.set_flag(SREG_Z, v == 0);
        } else {
            // SBC/CPC: Z is only ever cleared, enabling 16-bit compares.
            if v != 0 {
                self.set_flag(SREG_Z, false);
            }
        }
        self.set_flag(SREG_N, v & 0x80 != 0);
        self.update_s();
        v
    }

    fn sub8_carry_z(&mut self, a: u8, b: u8, carry: bool) -> u8 {
        self.sub8(a, b, carry, false)
    }

    fn logic_flags(&mut self, v: u8) {
        self.set_flag(SREG_V, false);
        self.nz_s(v);
    }

    fn shift_flags(&mut self, v: u8, carry: bool) {
        self.set_flag(SREG_C, carry);
        self.set_flag(SREG_Z, v == 0);
        self.set_flag(SREG_N, v & 0x80 != 0);
        self.set_flag(SREG_V, (v & 0x80 != 0) ^ carry);
        self.update_s();
    }

    fn nz_s(&mut self, v: u8) {
        self.set_flag(SREG_Z, v == 0);
        self.set_flag(SREG_N, v & 0x80 != 0);
        self.update_s();
    }

    fn update_s(&mut self) {
        let s = self.flag(SREG_N) ^ self.flag(SREG_V);
        self.set_flag(SREG_S, s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::FlatBus;

    /// Run raw words until BREAK; return the CPU.
    fn run(words: &[u16]) -> (Cpu, FlatBus) {
        let mut bus = FlatBus::new(4096);
        for (i, w) in words.iter().enumerate() {
            let wa = i;
            bus_set_word(&mut bus, wa, *w);
        }
        let mut cpu = Cpu::new();
        cpu.sp = 0x0FFF;
        for _ in 0..10_000 {
            if cpu.halted() {
                break;
            }
            cpu.step(&mut bus);
        }
        assert!(cpu.halted(), "program did not halt");
        assert_eq!(cpu.invalid_opcode(), None, "hit invalid opcode");
        (cpu, bus)
    }

    fn bus_set_word(bus: &mut FlatBus, wa: usize, w: u16) {
        // FlatBus has no public program poke; go through load_image.
        let img = {
            use ulp_isa::asm::{Assembler, EncodeCtx, Isa, Tok};
            struct Raw;
            impl Isa for Raw {
                fn size(&self, _m: &str, _o: &[Vec<Tok>]) -> Result<usize, String> {
                    Ok(2)
                }
                fn encode(
                    &self,
                    _m: &str,
                    o: &[Vec<Tok>],
                    c: &EncodeCtx<'_>,
                ) -> Result<Vec<u8>, String> {
                    let v = c.eval(&o[0])? as u16;
                    Ok(v.to_le_bytes().to_vec())
                }
            }
            Assembler::new(Raw)
                .assemble(&format!(".org {}\nw {}", wa * 2, w))
                .unwrap()
        };
        bus.load_image(&img);
    }

    const BREAK: u16 = 0x9598;

    #[test]
    fn ldi_add_flags() {
        // ldi r16, 200; ldi r17, 100; add r16, r17 → 300 & 0xFF = 44, C=1
        let (cpu, _) = run(&[0xEC08, 0xE614, 0x0F01, BREAK]);
        assert_eq!(cpu.regs[16], 44);
        assert!(cpu.flag(SREG_C));
        assert!(!cpu.flag(SREG_Z));
    }

    #[test]
    fn add_overflow_flag() {
        // ldi r16,0x7F; ldi r17,1; add r16,r17 → 0x80: V=1, N=1, S=0
        let (cpu, _) = run(&[0xE70F, 0xE011, 0x0F01, BREAK]);
        assert_eq!(cpu.regs[16], 0x80);
        assert!(cpu.flag(SREG_V));
        assert!(cpu.flag(SREG_N));
        assert!(!cpu.flag(SREG_S));
        assert!(cpu.flag(SREG_H), "half carry from 0xF+1");
    }

    #[test]
    fn sixteen_bit_add_with_adc() {
        // r24:25 = 0x00FF, r26:27 = 0x0001; add r24,r26; adc r25,r27 → 0x0100
        let (cpu, _) = run(&[
            0xEF8F, // ldi r24, 0xFF
            0xE090, // ldi r25, 0
            0xE0A1, // ldi r26, 1
            0xE0B0, // ldi r27, 0
            0x0F8A, // add r24, r26
            0x1F9B, // adc r25, r27
            BREAK,
        ]);
        assert_eq!(cpu.reg_pair(24), 0x0100);
    }

    #[test]
    fn sub_and_compare_flags() {
        // ldi r16,5; subi r16,10 → -5 = 0xFB, C=1 (borrow), N=1
        let (cpu, _) = run(&[0xE005, 0x500A, BREAK]);
        assert_eq!(cpu.regs[16], 0xFB);
        assert!(cpu.flag(SREG_C));
        assert!(cpu.flag(SREG_N));
        assert!(cpu.flag(SREG_S), "negative result, no overflow → S=1");
    }

    #[test]
    fn cpc_preserves_z_for_16bit_compare() {
        // Compare 0x0100 vs 0x0100 via cp/cpc: Z stays set.
        let (cpu, _) = run(&[
            0xE080, // ldi r24,0
            0xE091, // ldi r25,1
            0xE0A0, // ldi r26,0
            0xE0B1, // ldi r27,1
            0x178A, // cp r24, r26
            0x079B, // cpc r25, r27
            BREAK,
        ]);
        assert!(cpu.flag(SREG_Z));
        assert!(!cpu.flag(SREG_C));
    }

    #[test]
    fn branch_taken_and_not_taken() {
        // ldi r16,1; cpi r16,1; breq +1 (skip inc); inc r16; break
        let (cpu, _) = run(&[
            0xE001, // ldi r16,1
            0x3001, // cpi r16,1
            0xF009, // breq .+2 (k=1)
            0x9503, // inc r16
            BREAK,
        ]);
        assert_eq!(cpu.regs[16], 1, "inc must be skipped");
    }

    #[test]
    fn loop_with_dec_brne() {
        // ldi r16,5; loop: dec r16; brne loop → r16 == 0
        let (cpu, _) = run(&[0xE005, 0x950A, 0xF7F1, BREAK]);
        assert_eq!(cpu.regs[16], 0);
        assert!(cpu.flag(SREG_Z));
    }

    #[test]
    fn sts_lds_roundtrip() {
        // ldi r16,0x42; sts 0x0200,r16; lds r17,0x0200
        let (cpu, bus) = run(&[0xE402, 0x9300, 0x0200, 0x9110, 0x0200, BREAK]);
        assert_eq!(bus.ram()[0x0200], 0x42);
        assert_eq!(cpu.regs[17], 0x42);
    }

    #[test]
    fn pointer_modes() {
        // X = 0x0200; st X+, r16 (=1); st X+, r17 (=2); ld r18, -X → 2
        let (cpu, bus) = run(&[
            0xE001, // ldi r16,1
            0xE012, // ldi r17,2
            0xE0A0, // ldi r26,0x00
            0xE0B2, // ldi r27,0x02
            0x930D, // st X+, r16
            0x931D, // st X+, r17
            0x912E, // ld r18, -X
            BREAK,
        ]);
        assert_eq!(bus.ram()[0x0200], 1);
        assert_eq!(bus.ram()[0x0201], 2);
        assert_eq!(cpu.regs[18], 2);
        assert_eq!(cpu.reg_pair(26), 0x0201);
    }

    #[test]
    fn ldd_std_displacement() {
        // Y = 0x0300; std Y+5, r16; ldd r17, Y+5
        let (cpu, bus) = run(&[
            0xE707,       // ldi r16, 0x77
            0xE0C0,       // ldi r28, 0
            0xE0D3,       // ldi r29, 3
            0x8308 | 0x5, // std Y+5, r16
            0x8118 | 0x5, // ldd r17, Y+5
            BREAK,
        ]);
        assert_eq!(bus.ram()[0x0305], 0x77);
        assert_eq!(cpu.regs[17], 0x77);
    }

    #[test]
    fn push_pop_and_call_ret() {
        // rcall over a break; subroutine increments r16 and returns.
        let (cpu, _) = run(&[
            0xE000, // 0: ldi r16, 0
            0xD001, // 1: rcall +1 → 3
            BREAK,  // 2: break
            0x9503, // 3: inc r16
            0x9508, // 4: ret
        ]);
        assert_eq!(cpu.regs[16], 1);
        assert_eq!(cpu.sp, 0x0FFF, "stack balanced");
    }

    #[test]
    fn ijmp_icall_through_z() {
        // Z = 4 (word address); icall; target increments r16, ret.
        let (cpu, _) = run(&[
            0xE0E4, // ldi r30, 4
            0xE0F0, // ldi r31, 0
            0x9509, // icall
            BREAK,  // 3
            0x9503, // 4: inc r16
            0x9508, // 5: ret
        ]);
        assert_eq!(cpu.regs[16], 1);
    }

    #[test]
    fn skip_instructions() {
        // sbrs r16,0 skips next when bit set; with r16=1 the rjmp is
        // skipped and we reach break.
        let (cpu, _) = run(&[
            0xE001, // ldi r16,1
            0xFF00, // sbrs r16,0
            0xCFFE, // rjmp .-4 (infinite loop if executed)
            BREAK,
        ]);
        assert!(cpu.halted());
        // cpse equal → skip a 2-word sts.
        let (cpu2, bus2) = run(&[
            0xE001, // ldi r16,1
            0xE011, // ldi r17,1
            0x1301, // cpse r16,r17
            0x9300, 0x0220, // sts 0x0220, r16 (skipped)
            BREAK,
        ]);
        assert!(cpu2.halted());
        assert_eq!(bus2.ram()[0x0220], 0, "2-word instruction skipped");
    }

    #[test]
    fn shifts_and_rotates() {
        // r16 = 0b1000_0001; lsr → 0b0100_0000 C=1; ror → 0b1010_0000 C=0
        let (cpu, _) = run(&[0xE801, 0x9506, 0x9507, BREAK]);
        assert_eq!(cpu.regs[16], 0xA0);
        assert!(!cpu.flag(SREG_C));
    }

    #[test]
    fn asr_preserves_sign() {
        // r16 = 0x82 (-126); asr → 0xC1 (-63), C=0
        let (cpu, _) = run(&[0xE802, 0x9505, BREAK]);
        assert_eq!(cpu.regs[16], 0xC1);
        assert!(!cpu.flag(SREG_C));
        assert!(cpu.flag(SREG_N));
    }

    #[test]
    fn adiw_sbiw_pairs() {
        // r26:27 = 0x00FF; adiw r26, 1 → 0x0100; sbiw r26, 32 → 0x00E0
        let (cpu, _) = run(&[
            0xEFAF, // ldi r26, 0xFF
            0xE0B0, // ldi r27, 0
            0x9611, // adiw r26(dd=01), 1
            0x9790, // sbiw r26, 0x20 (KK=10,KKKK=0000 → 0x20)
            BREAK,
        ]);
        assert_eq!(cpu.reg_pair(26), 0x00E0);
    }

    #[test]
    fn mul_result_in_r1_r0() {
        // 200 * 3 = 600 = 0x0258
        let (cpu, _) = run(&[0xEC08, 0xE013, 0x9F01, BREAK]);
        assert_eq!(cpu.reg_pair(0), 600);
        assert!(!cpu.flag(SREG_C));
        assert!(!cpu.flag(SREG_Z));
    }

    #[test]
    fn in_out_sp_and_sreg() {
        // out SPL, r16 sets stack pointer low byte.
        let (mut cpu, mut bus) = (Cpu::new(), FlatBus::new(64));
        cpu.io_write(&mut bus, 0x3D, 0x34);
        cpu.io_write(&mut bus, 0x3E, 0x12);
        assert_eq!(cpu.sp, 0x1234);
        assert_eq!(cpu.io_read(&mut bus, 0x3D), 0x34);
        cpu.io_write(&mut bus, 0x3F, 0x80);
        assert!(cpu.flag(SREG_I));
    }

    #[test]
    fn sei_sleep_and_interrupt_wakeup() {
        struct IrqBus {
            inner: FlatBus,
            fire: bool,
        }
        impl Bus for IrqBus {
            fn fetch(&mut self, pc: u16) -> u16 {
                self.inner.fetch(pc)
            }
            fn read(&mut self, a: u16) -> u8 {
                self.inner.read(a)
            }
            fn write(&mut self, a: u16, v: u8) {
                self.inner.write(a, v)
            }
            fn io_read(&mut self, a: u8) -> u8 {
                self.inner.io_read(a)
            }
            fn io_write(&mut self, a: u8, v: u8) {
                self.inner.io_write(a, v)
            }
            fn pending_irq(&mut self) -> Option<u8> {
                if self.fire {
                    self.fire = false;
                    Some(3)
                } else {
                    None
                }
            }
        }
        let mut bus = IrqBus {
            inner: FlatBus::new(4096),
            fire: false,
        };
        // 0: sei; 1: sleep; 2: break (after wake & reti)
        // vector 3 → word 6: inc r16; reti
        for (i, w) in [0x9478u16, 0x9588, BREAK, 0, 0, 0, 0x9503, 0x9518]
            .iter()
            .enumerate()
        {
            bus_set_word(&mut bus.inner, i, *w);
        }
        let mut cpu = Cpu::new();
        cpu.sp = 0x0FFF;
        cpu.step(&mut bus); // sei
        cpu.step(&mut bus); // sleep
        assert!(cpu.sleeping());
        let idle = cpu.step(&mut bus); // idle cycle
        assert_eq!(idle, 1);
        bus.fire = true;
        let c = cpu.step(&mut bus); // interrupt entry
        assert_eq!(c, 4);
        assert!(!cpu.sleeping());
        assert!(!cpu.flag(SREG_I));
        cpu.step(&mut bus); // inc r16
        cpu.step(&mut bus); // reti
        assert!(cpu.flag(SREG_I));
        assert_eq!(cpu.regs[16], 1);
        cpu.step(&mut bus); // break
        assert!(cpu.halted());
    }

    #[test]
    fn invalid_opcode_halts_with_detail() {
        let mut bus = FlatBus::new(64);
        bus_set_word(&mut bus, 0, 0x0300);
        let mut cpu = Cpu::new();
        cpu.step(&mut bus);
        assert!(cpu.halted());
        assert_eq!(cpu.invalid_opcode(), Some(0x0300));
    }

    #[test]
    fn fetch_penalty_charged_per_word() {
        struct SlowBus(FlatBus);
        impl Bus for SlowBus {
            fn fetch(&mut self, pc: u16) -> u16 {
                self.0.fetch(pc)
            }
            fn read(&mut self, a: u16) -> u8 {
                self.0.read(a)
            }
            fn write(&mut self, a: u16, v: u8) {
                self.0.write(a, v)
            }
            fn io_read(&mut self, a: u8) -> u8 {
                self.0.io_read(a)
            }
            fn io_write(&mut self, a: u8, v: u8) {
                self.0.io_write(a, v)
            }
            fn fetch_penalty(&self) -> u8 {
                2
            }
        }
        let mut inner = FlatBus::new(256);
        bus_set_word(&mut inner, 0, 0xE001); // ldi: 1 word → 1 + 2 = 3
        bus_set_word(&mut inner, 1, 0x9300); // sts: 2 words → 2 + 4 = 6
        bus_set_word(&mut inner, 2, 0x0080);
        let mut bus = SlowBus(inner);
        let mut cpu = Cpu::new();
        assert_eq!(cpu.step(&mut bus), 3);
        assert_eq!(cpu.step(&mut bus), 6);
        assert_eq!(cpu.total_cycles(), 9);
    }

    #[test]
    fn bst_bld_transfer_bits() {
        // bst r16,0; bld r17,7 → copies bit
        let (cpu, _) = run(&[0xE001, 0xFB00, 0xF917, BREAK]);
        assert_eq!(cpu.regs[17], 0x80);
    }

    #[test]
    fn com_neg_swap() {
        let (cpu, _) = run(&[
            0xE50A, // ldi r16, 0x5A
            0x9502, // swap r16 → 0xA5
            0x9500, // com r16 → 0x5A, C=1
            0x9501, // neg r16 → 0xA6
            BREAK,
        ]);
        assert_eq!(cpu.regs[16], 0xA6);
        assert!(cpu.flag(SREG_C), "neg of nonzero sets C");
    }
}
