//! Property-based tests on the core data structures and invariants,
//! running on the in-tree `ulp-testkit` harness (deterministic seeds,
//! greedy shrinking, `ULP_PROPTEST_CASES`/`ULP_PROPTEST_SEED` knobs).

use ulp_node::isa::ep::{ComponentId, Instruction};
use ulp_node::net::{crc16, Frame, FrameType};
use ulp_node::sim::{Cycles, Energy, Frequency, Power, PowerMode, PowerSpec, Seconds};
use ulp_node::sram::{BankedSram, SramConfig};
use ulp_testkit::{
    any_bool, any_u16, any_u64, any_u8, from_fn, prop_assert, prop_assert_eq, prop_assert_ne,
    props, vec_of, Rng,
};

// ---------------------------------------------------------------------
// Event-processor ISA
// ---------------------------------------------------------------------

fn arb_ep_instruction() -> impl ulp_testkit::Gen<Value = Instruction> {
    from_fn(|rng: &mut Rng| match rng.gen_range(0u8..8) {
        0 => Instruction::SwitchOn(ComponentId::new(rng.gen_range(0u8..32)).unwrap()),
        1 => Instruction::SwitchOff(ComponentId::new(rng.gen_range(0u8..32)).unwrap()),
        2 => Instruction::Read(rng.next_u64() as u16),
        3 => Instruction::Write(rng.next_u64() as u16),
        4 => Instruction::WriteI {
            addr: rng.next_u64() as u16,
            value: rng.next_u64() as u8,
        },
        5 => Instruction::Transfer {
            src: rng.next_u64() as u16,
            dst: rng.next_u64() as u16,
            len: rng.gen_range(1u8..=32),
        },
        6 => Instruction::Terminate,
        _ => Instruction::Wakeup(rng.next_u64() as u8),
    })
}

props! {
    /// Encode→decode is the identity for every EP instruction, and the
    /// decoded length equals the encoded length.
    #[test]
    fn ep_instruction_roundtrip(insn in arb_ep_instruction()) {
        let bytes = insn.encode().unwrap();
        prop_assert_eq!(bytes.len(), insn.words());
        let (decoded, n) = Instruction::decode(&bytes).unwrap();
        prop_assert_eq!(decoded, insn);
        prop_assert_eq!(n, bytes.len());
    }

    /// The textual form reassembles to the same instruction.
    #[test]
    fn ep_display_reassembles(insn in arb_ep_instruction()) {
        use ulp_node::isa::asm::Assembler;
        use ulp_node::isa::ep::EpIsa;
        let src = insn.to_string();
        let img = Assembler::new(EpIsa).assemble(&src).unwrap();
        let (decoded, _) = Instruction::decode(&img.segments()[0].data).unwrap();
        prop_assert_eq!(decoded, insn);
    }
}

// ---------------------------------------------------------------------
// 802.15.4 frames
// ---------------------------------------------------------------------

props! {
    /// Frame encode→decode is the identity for any addressing and
    /// payload.
    #[test]
    fn frame_roundtrip(
        pan in any_u16(),
        src in any_u16(),
        dest in any_u16(),
        seq in any_u8(),
        ack in any_bool(),
        command in any_bool(),
        payload in vec_of(any_u8(), 0..=116),
    ) {
        let mut f = Frame::data(pan, src, dest, seq, &payload).unwrap();
        if command {
            f.frame_type = FrameType::Command;
        }
        f.ack_request = ack;
        let decoded = Frame::decode(&f.encode()).unwrap();
        prop_assert_eq!(decoded, f);
    }

    /// Any single-bit corruption anywhere in a frame is caught by the
    /// FCS (CRC-16 detects all single-bit errors).
    #[test]
    fn single_bit_corruption_detected(
        payload in vec_of(any_u8(), 0..=32),
        bit in any_u16(),
    ) {
        let f = Frame::data(0x22, 1, 2, 3, &payload).unwrap();
        let mut bytes = f.encode();
        let nbits = bytes.len() * 8;
        let b = bit as usize % nbits;
        bytes[b / 8] ^= 1 << (b % 8);
        prop_assert!(Frame::decode(&bytes).is_err());
    }

    /// CRC16 is linear: crc(a ^ b-pattern) differs from crc(a) for any
    /// nonzero flip in a fixed-length message.
    #[test]
    fn crc_sensitive_to_any_change(
        data in vec_of(any_u8(), 1..64),
        idx in any_u16(),
        flip in 1u8..=255,
    ) {
        let mut mutated = data.clone();
        let i = idx as usize % mutated.len();
        mutated[i] ^= flip;
        prop_assert_ne!(crc16(&data), crc16(&mutated));
    }
}

// ---------------------------------------------------------------------
// AVR assembler / decoder agreement
// ---------------------------------------------------------------------

props! {
    /// Register-register ALU operations encode and decode consistently
    /// through the assembler for every register pair.
    #[test]
    fn avr_alu_roundtrip(d in 0u8..32, r in 0u8..32, op in 0usize..8) {
        use ulp_node::mcu8::{assemble, Insn};
        let names = ["add", "adc", "sub", "sbc", "and", "or", "eor", "mov"];
        let src = format!("{} r{d}, r{r}", names[op]);
        let img = assemble(&src).unwrap();
        let data = &img.segments()[0].data;
        let w = u16::from_le_bytes([data[0], data[1]]);
        let decoded = ulp_node::mcu8::decode(w, 0).insn;
        let (dd, rr) = match decoded {
            Insn::Add { d, r } => (d, r),
            Insn::Adc { d, r } => (d, r),
            Insn::Sub { d, r } => (d, r),
            Insn::Sbc { d, r } => (d, r),
            Insn::And { d, r } => (d, r),
            Insn::Or { d, r } => (d, r),
            Insn::Eor { d, r } => (d, r),
            Insn::Mov { d, r } => (d, r),
            other => panic!("decoded {other:?}"),
        };
        prop_assert_eq!((dd, rr), (d, r));
    }

    /// 8-bit add executed on the CPU matches wide-integer reference
    /// semantics including carry and zero flags.
    #[test]
    fn avr_add_matches_reference(a in any_u8(), b in any_u8()) {
        use ulp_node::mcu8::{assemble, Cpu, FlatBus, SREG_C, SREG_Z};
        let src = format!("ldi r16, {a}\nldi r17, {b}\nadd r16, r17\nbreak");
        let img = assemble(&src).unwrap();
        let mut bus = FlatBus::new(1024);
        bus.load_image(&img);
        let mut cpu = Cpu::new();
        while !cpu.halted() {
            cpu.step(&mut bus);
        }
        let wide = a as u16 + b as u16;
        prop_assert_eq!(cpu.regs[16], wide as u8);
        prop_assert_eq!(cpu.flag(SREG_C), wide > 0xFF);
        prop_assert_eq!(cpu.flag(SREG_Z), wide as u8 == 0);
    }

    /// 16-bit subtract-with-borrow chains (sub/sbc) match reference
    /// semantics.
    #[test]
    fn avr_sub16_matches_reference(x in any_u16(), y in any_u16()) {
        use ulp_node::mcu8::{assemble, Cpu, FlatBus, SREG_C};
        let src = format!(
            "ldi r24, {}\nldi r25, {}\nldi r26, {}\nldi r27, {}\n\
             sub r24, r26\nsbc r25, r27\nbreak",
            x & 0xFF, x >> 8, y & 0xFF, y >> 8
        );
        let img = assemble(&src).unwrap();
        let mut bus = FlatBus::new(1024);
        bus.load_image(&img);
        let mut cpu = Cpu::new();
        while !cpu.halted() {
            cpu.step(&mut bus);
        }
        prop_assert_eq!(cpu.reg_pair(24), x.wrapping_sub(y));
        prop_assert_eq!(cpu.flag(SREG_C), x < y);
    }
}

// ---------------------------------------------------------------------
// SRAM invariants
// ---------------------------------------------------------------------

props! {
    /// Reads return the last write to the same powered address,
    /// regardless of interleaved traffic elsewhere.
    #[test]
    fn sram_read_your_writes(
        writes in vec_of((0u16..2048, any_u8()), 1..100),
    ) {
        let mut mem = BankedSram::new(SramConfig::paper());
        let mut model = std::collections::HashMap::new();
        for (addr, v) in &writes {
            mem.write(*addr, *v).unwrap();
            model.insert(*addr, *v);
        }
        for (addr, v) in model {
            prop_assert_eq!(mem.read(addr).unwrap(), v);
        }
    }

    /// Energy is non-negative, monotonically non-decreasing under any
    /// access/tick/gate sequence, and gating strictly reduces the power
    /// of subsequent idle time.
    #[test]
    fn sram_energy_monotone(
        ops in vec_of((0u8..4, 0u16..2048, 1u64..1000), 1..60),
    ) {
        let mut mem = BankedSram::new(SramConfig::paper());
        let mut last = Energy::ZERO;
        for (op, addr, n) in ops {
            match op {
                0 => {
                    let _ = mem.read(addr);
                }
                1 => {
                    let _ = mem.write(addr, addr as u8);
                }
                2 => mem.gate_bank((addr / 256) as usize),
                _ => {
                    let _ = mem.ungate_bank((addr / 256) as usize);
                }
            }
            mem.tick(Cycles(n));
            let e = mem.energy();
            prop_assert!(e.joules() >= last.joules());
            last = e;
        }
    }
}

// ---------------------------------------------------------------------
// Kernel units and metering
// ---------------------------------------------------------------------

props! {
    /// Energy integration: charging a component for split spans equals
    /// charging it once for the total.
    #[test]
    fn meter_span_splitting(total in 1u64..1_000_000, cut in any_u64()) {
        use ulp_node::sim::EnergyMeter;
        let spec = PowerSpec::new(
            Power::from_uw(10.0),
            Power::from_nw(20.0),
            Power::ZERO,
        );
        let cut = cut % total;
        let mut a = EnergyMeter::new(Frequency::from_khz(100.0));
        let ia = a.register("x", spec);
        a.charge(ia, PowerMode::Active, Cycles(total));
        let mut b = EnergyMeter::new(Frequency::from_khz(100.0));
        let ib = b.register("x", spec);
        b.charge(ib, PowerMode::Active, Cycles(cut));
        b.charge(ib, PowerMode::Active, Cycles(total - cut));
        let ea = a.stats(ia).energy.joules();
        let eb = b.stats(ib).energy.joules();
        prop_assert!((ea - eb).abs() <= ea.abs() * 1e-12 + 1e-30);
    }

    /// Cycles↔time conversions are consistent at any frequency.
    #[test]
    fn cycles_time_consistency(cycles in 0u64..10_000_000, khz in 1u32..100_000) {
        let clk = Frequency::from_khz(khz as f64);
        let t = Cycles(cycles).at(clk);
        let back = clk.cycles_in(t);
        prop_assert_eq!(back, Cycles(cycles));
        prop_assert!(t.0 >= 0.0);
        let _ = Seconds(t.0);
    }
}

// ---------------------------------------------------------------------
// Timer prediction soundness (the idle-skip safety property)
// ---------------------------------------------------------------------

props! {
    /// `cycles_to_next_alarm` never overshoots: ticking exactly that many
    /// cycles produces at least one underflow, and ticking one fewer
    /// produces none.
    #[test]
    fn timer_prediction_is_exact(
        periods in vec_of(1u16..500, 1..4),
        chain in any_bool(),
    ) {
        use ulp_node::core_arch::slaves::TimerBlock;
        let mut t = TimerBlock::new();
        for (i, p) in periods.iter().enumerate() {
            t.configure_periodic(i, *p);
        }
        if chain && periods.len() >= 2 {
            t.configure_chained(1, periods[0], periods[1].min(10));
        }
        let predicted = t.cycles_to_next_alarm().unwrap();
        let mut clone = t.clone();
        let mut fired_early = 0u64;
        for _ in 0..predicted.saturating_sub(1) {
            clone.tick(|_| {});
        }
        fired_early += clone.alarms();
        prop_assert_eq!(fired_early, 0, "no underflow before the prediction");
        clone.tick(|_| {});
        prop_assert!(clone.alarms() >= 1, "underflow at the predicted cycle");
    }
}
