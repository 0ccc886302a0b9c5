//! A bus that answers `Bus::decode` from a [`Predecoded`] table must step
//! exactly like one that fetches and decodes every instruction: the table
//! is a cache, never a reinterpretation. Random programs run side by side
//! on a plain [`FlatBus`] (the default fetching `decode`) and on a bus
//! that looks every instruction up in a table built from the same words;
//! after every step the whole architectural state must agree.

use ulp_isa::asm::Assembler;
use ulp_mcu8::{decode, AvrIsa, Bus, Cpu, DecodedInsn, FlatBus, Insn, Predecoded};
use ulp_testkit::{any_u16, any_u8, prop_assert_eq, props, vec_of};

/// [`FlatBus`] with `decode` answered from a table.
struct TableBus {
    inner: FlatBus,
    table: Predecoded,
}

impl Bus for TableBus {
    fn fetch(&mut self, pc: u16) -> u16 {
        self.inner.fetch(pc)
    }
    fn decode(&mut self, pc: u16) -> DecodedInsn {
        self.table.get(pc)
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
}

fn flat_bus(words: &[u16]) -> FlatBus {
    let listing = words
        .iter()
        .map(u16::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    let img = Assembler::new(AvrIsa)
        .assemble(&format!(".org 0\n.dw {listing}"))
        .unwrap();
    let mut bus = FlatBus::new(4096);
    bus.load_image(&img);
    bus
}

/// A program from random `(kind, word, operand)` triples, ending in
/// `break`. Three slots in eight become a two-word instruction whose
/// operand word matters (`lds`/`sts` inside RAM, `jmp`/`call` inside the
/// program), the case a table built with the wrong second word would get
/// wrong; the rest are random words that decode to a real instruction.
fn program(slots: &[(u8, u16, u16)]) -> Vec<u16> {
    let len = slots.len() as u16 * 2 + 1;
    let mut words = Vec::new();
    for &(kind, w, k) in slots {
        let d = (w & 31) << 4;
        match kind % 8 {
            0 => words.extend([0x9000 | d, 0x0060 + k % 0x0F00]), // lds rd, k
            1 => words.extend([0x9200 | d, 0x0060 + k % 0x0F00]), // sts k, rd
            2 => words.extend([0x940C | ((kind as u16 >> 2) & 2), k % len]), // jmp/call k
            _ if !matches!(decode(w, 0).insn, Insn::Invalid(_)) => words.push(w),
            _ => {}
        }
    }
    words.push(0x9598); // break
    words
}

props! {
    #[test]
    fn table_decode_steps_like_fetch_decode(
        slots in vec_of((any_u8(), any_u16(), any_u16()), 1..64),
    ) {
        let words = program(&slots);
        let mut fetching = flat_bus(&words);
        let mut table = TableBus {
            inner: flat_bus(&words),
            table: Predecoded::from_words(&words),
        };
        let (mut a, mut b) = (Cpu::new(), Cpu::new());
        a.sp = 0x0FFF;
        b.sp = 0x0FFF;
        for step in 0..400 {
            if a.halted() {
                break;
            }
            let (ca, cb) = (a.step(&mut fetching), b.step(&mut table));
            prop_assert_eq!(ca, cb, "cycles of step {}", step);
            prop_assert_eq!(a.regs, b.regs, "registers after step {}", step);
            prop_assert_eq!(a.sreg(), b.sreg(), "SREG after step {}", step);
            prop_assert_eq!(a.sp, b.sp, "SP after step {}", step);
            prop_assert_eq!(a.pc, b.pc, "PC after step {}", step);
            prop_assert_eq!(a.total_cycles(), b.total_cycles());
            prop_assert_eq!(a.halted(), b.halted());
            prop_assert_eq!(fetching.ram(), table.inner.ram(), "RAM after step {}", step);
        }
    }
}
