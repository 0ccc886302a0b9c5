//! The abstract interpretation over a decoded ISR.
//!
//! ISRs are straight-line: decoding yields the exact execution order,
//! so the power lattice is walked once, precisely. With every initial
//! power state known ([`PowerState::On`]/[`PowerState::Off`]) the
//! analysis is *exact* — the WCET bound equals the simulator's measured
//! cycle count, and the cross-validation suite asserts that equality.

use crate::diag::{DiagClass, Diagnostic, Report};
use ulp_core::map;
use ulp_core::power::WakeLatency;
use ulp_isa::ep::{decode_isr_meta, Instruction, MAX_COMPONENTS};

/// Abstract power state of one component in the dataflow lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerState {
    /// Proven off.
    Off,
    /// Proven on.
    On,
    /// Not provable from the caller's assumptions (accesses warn, and
    /// `SWITCHON` costs its worst-case handshake).
    Unknown,
}

/// Everything the checker needs to know about the environment an ISR
/// runs in.
#[derive(Debug, Clone)]
pub struct CheckContext {
    /// Name used in the report and rendered locations.
    pub name: String,
    /// Interrupt id the ISR is installed on. Its source component is
    /// assumed on at entry (a pending interrupt is proof the source was
    /// powered when it fired).
    pub irq: Option<u8>,
    /// Address the image is loaded at (enables vector-overlap and
    /// self-gating checks).
    pub isr_addr: Option<u16>,
    /// Entry power state per 5-bit component id.
    pub initial: [PowerState; MAX_COMPONENTS as usize],
    /// Components this ISR may intentionally leave on at exit
    /// (hand-offs to a chained ISR, e.g. the message processor between
    /// sample accumulation and `MsgReady`).
    pub allowed_left_on: Vec<u8>,
    /// Event-period budget in cycles for the WCET check.
    pub wcet_budget: Option<u64>,
    /// Worst-case `WAIT_BUS` cycles before dispatch (0 when the
    /// microcontroller is asleep, which is the autonomous steady state).
    pub max_bus_wait: u64,
    /// Wake-handshake latencies used for `SWITCHON` stalls.
    pub wake: WakeLatency,
}

impl CheckContext {
    /// The system reset environment: timer and filter on, all SRAM
    /// banks on, message processor / radio / sensor off, paper wake
    /// latencies, microcontroller asleep (no bus contention).
    pub fn system_reset(name: &str) -> CheckContext {
        let mut initial = [PowerState::Off; MAX_COMPONENTS as usize];
        initial[map::Component::Timer as usize] = PowerState::On;
        initial[map::Component::Filter as usize] = PowerState::On;
        for bank in 0..8 {
            initial[map::Component::mem_bank(bank) as usize] = PowerState::On;
        }
        CheckContext {
            name: name.to_string(),
            irq: None,
            isr_addr: None,
            initial,
            allowed_left_on: Vec::new(),
            wcet_budget: None,
            max_bus_wait: 0,
            wake: WakeLatency::paper(),
        }
    }

    /// Set the interrupt id the ISR is installed on.
    pub fn with_irq(mut self, irq: u8) -> Self {
        self.irq = Some(irq);
        self
    }

    /// Set the load address of the image.
    pub fn with_isr_addr(mut self, addr: u16) -> Self {
        self.isr_addr = Some(addr);
        self
    }

    /// Set the WCET budget in cycles.
    pub fn with_budget(mut self, cycles: u64) -> Self {
        self.wcet_budget = Some(cycles);
        self
    }

    /// Assume component `id` is in `state` at entry.
    pub fn assume(mut self, id: u8, state: PowerState) -> Self {
        self.initial[id as usize] = state;
        self
    }

    /// Declare that leaving component `id` on at exit is intentional.
    pub fn allow_left_on(mut self, id: u8) -> Self {
        self.allowed_left_on.push(id);
        self
    }
}

/// Name of component id `id` for diagnostics.
fn comp_name(id: u8) -> String {
    match map::Component::decode(id) {
        Some((map::Component::MemBank0, Some(bank))) => format!("memory bank {bank}"),
        Some((comp, _)) => comp.name().to_string(),
        None => format!("unassigned component {id}"),
    }
}

/// Execute-phase cycle cost of `insn` given the switch-on stall.
fn exec_cycles(insn: &Instruction, switchon_stall: u64) -> u64 {
    match insn {
        Instruction::SwitchOn(_) => 1 + switchon_stall,
        Instruction::SwitchOff(_)
        | Instruction::Read(_)
        | Instruction::Write(_)
        | Instruction::WriteI { .. }
        | Instruction::Terminate => 1,
        Instruction::Transfer { len, .. } => 2 * u64::from(*len),
        Instruction::Wakeup(_) => 2,
    }
}

struct Walk<'a> {
    ctx: &'a CheckContext,
    state: [PowerState; MAX_COMPONENTS as usize],
    turned_on: Vec<u8>,
    diags: Vec<Diagnostic>,
    cycles: u64,
}

impl Walk<'_> {
    fn push(
        &mut self,
        class: DiagClass,
        offset: Option<u16>,
        insn: Option<&Instruction>,
        message: String,
        note: Option<String>,
    ) {
        self.diags.push(Diagnostic {
            class,
            offset: offset.map(u32::from),
            loc: None,
            insn: insn.map(|i| i.to_string()),
            message,
            note,
        });
    }

    /// Power check of a single byte access; `verb` is "read"/"write"/
    /// "transfer read"/"transfer write".
    fn check_power(&mut self, addr: u16, verb: &str, offset: u16, insn: &Instruction) {
        let Some(guard) = map::guard_component(addr) else {
            return; // unmapped (reported separately) or always-on
        };
        match self.state[guard as usize] {
            PowerState::On => {}
            PowerState::Off => self.push(
                DiagClass::PoweredOffAccess,
                Some(offset),
                Some(insn),
                format!("{verb} of 0x{addr:04X} while {} is off", comp_name(guard)),
                Some(format!("`switchon {guard}` must precede this access")),
            ),
            PowerState::Unknown => self.push(
                DiagClass::UnknownPowerAccess,
                Some(offset),
                Some(insn),
                format!(
                    "{verb} of 0x{addr:04X}: power state of {} is unknown",
                    comp_name(guard)
                ),
                None,
            ),
        }
    }

    /// Map + power check of a scalar access.
    fn check_access(&mut self, addr: u16, write: bool, offset: u16, insn: &Instruction) {
        let verb = if write { "write" } else { "read" };
        if map::region_at(addr).is_none() {
            self.push(
                DiagClass::UnmappedAccess,
                Some(offset),
                Some(insn),
                format!("{verb} of unmapped address 0x{addr:04X}"),
                Some("no bus slave decodes this address".to_string()),
            );
            return;
        }
        self.check_power(addr, verb, offset, insn);
        if write {
            if let Some((region, reg)) = map::register_at(addr) {
                if reg.access == map::Access::ReadOnly {
                    self.push(
                        DiagClass::ReadOnlyWrite,
                        Some(offset),
                        Some(insn),
                        format!("write to read-only register {} at 0x{addr:04X}", reg.name),
                        Some(format!("the {} hardware ignores this write", region.name)),
                    );
                }
            }
        }
    }

    /// Map + power check of one `TRANSFER` block.
    fn check_transfer_range(
        &mut self,
        base: u16,
        len: u8,
        write: bool,
        offset: u16,
        insn: &Instruction,
    ) {
        let what = if write { "destination" } else { "source" };
        let verb = if write {
            "transfer write"
        } else {
            "transfer read"
        };
        let Some(region) = map::region_at(base) else {
            self.push(
                DiagClass::UnmappedAccess,
                Some(offset),
                Some(insn),
                format!("{verb} of unmapped address 0x{base:04X}"),
                Some("no bus slave decodes this address".to_string()),
            );
            return;
        };
        let end = u32::from(base) + u32::from(len); // exclusive
        let region_end = u32::from(region.base) + u32::from(region.len);
        if end > region_end {
            let message = if matches!(
                region.kind,
                map::RegionKind::TxBuffer | map::RegionKind::RxBuffer
            ) {
                format!(
                    "transfer {what} block 0x{base:04X}..0x{end:04X} overruns the \
                     {}-byte buffer `{}`",
                    region.len, region.name
                )
            } else {
                format!(
                    "transfer {what} block 0x{base:04X}..0x{end:04X} crosses out of \
                     region `{}` (ends at 0x{region_end:04X})",
                    region.name
                )
            };
            self.push(
                DiagClass::TransferBounds,
                Some(offset),
                Some(insn),
                message,
                Some(
                    "the event processor copies the block byte-by-byte; the first \
                      byte past the region faults"
                        .to_string(),
                ),
            );
        }
        // Power-check the in-region part; memory blocks may legally span
        // two banks, so check each covered bank once.
        let last = end.min(region_end).saturating_sub(1) as u16;
        self.check_power(base, verb, offset, insn);
        if region.kind == map::RegionKind::Memory && last / 0x0100 != base / 0x0100 {
            self.check_power(last, verb, offset, insn);
        }
    }

    /// Check that bank `gated` does not hold ISR bytes in
    /// `[from_off, image_len)` (the code still to be fetched).
    fn check_self_gate(
        &mut self,
        gated_bank: usize,
        from_off: usize,
        image_len: usize,
        offset: u16,
        insn: &Instruction,
    ) {
        let Some(isr_addr) = self.ctx.isr_addr else {
            return;
        };
        let lo = u32::from(isr_addr) + from_off as u32;
        let hi = u32::from(isr_addr) + image_len as u32;
        let bank_lo = u32::from(map::Component::mem_bank(gated_bank) as u16 - 8) * 0x0100;
        let bank_hi = bank_lo + 0x0100;
        if lo < bank_hi && hi > bank_lo {
            self.push(
                DiagClass::IsrBankGated,
                Some(offset),
                Some(insn),
                format!(
                    "switchoff of memory bank {gated_bank} gates the ISR's own code \
                     at 0x{:04X}",
                    lo.max(bank_lo) as u16
                ),
                Some("the next fetch from this bank faults".to_string()),
            );
        }
    }
}

/// Statically check one encoded ISR image against `ctx`.
///
/// The returned [`Report`] carries every finding in program order plus
/// the WCET bound; [`Report::render`] produces the deterministic text
/// the `repro epcheck_*` reports and the golden tests pin.
pub fn check_isr(bytes: &[u8], ctx: &CheckContext) -> Report {
    let meta = decode_isr_meta(bytes);
    let mut walk = Walk {
        ctx,
        state: ctx.initial,
        turned_on: Vec::new(),
        diags: Vec::new(),
        cycles: 0,
    };

    // Entry assumption: the interrupt's source component raised it, so
    // it was powered at that instant.
    if let Some(source) = ctx.irq.and_then(map::irq_source) {
        walk.state[source as usize] = PowerState::On;
    }

    // Image placement checks.
    if let Some(isr_addr) = ctx.isr_addr {
        let image_end = u32::from(isr_addr) + bytes.len() as u32;
        if map::ranges_overlap((u32::from(isr_addr), image_end), (0, 0x0100)) {
            walk.push(
                DiagClass::VectorOverlap,
                None,
                None,
                format!(
                    "ISR image at 0x{isr_addr:04X}..0x{image_end:04X} overlaps the \
                     EP/µC vector tables (below 0x0100)"
                ),
                Some("vector writes would corrupt the code (and vice versa)".to_string()),
            );
        }
        // The dispatch lookup reads the vector table in bank 0, and the
        // fetches read the image's banks: all must be on at entry.
        let mut entry_banks = vec![0usize];
        let first = usize::from(isr_addr) / 0x0100;
        let last = (image_end.saturating_sub(1) as usize) / 0x0100;
        if image_end <= u32::from(map::MEM_SIZE) {
            entry_banks.extend(first..=last);
        }
        entry_banks.dedup();
        for bank in entry_banks {
            if bank >= 8 {
                continue;
            }
            let id = map::Component::mem_bank(bank);
            if walk.state[id as usize] == PowerState::Off {
                walk.push(
                    DiagClass::IsrBankGated,
                    None,
                    None,
                    format!(
                        "memory bank {bank} holding the vector table or ISR code is \
                         off at entry"
                    ),
                    Some("the dispatch lookup or fetch faults".to_string()),
                );
            }
        }
        if image_end > u32::from(map::MEM_SIZE) {
            walk.push(
                DiagClass::UnmappedAccess,
                None,
                None,
                format!(
                    "ISR image at 0x{isr_addr:04X}..0x{image_end:04X} extends past \
                     main memory (0x{:04X})",
                    map::MEM_SIZE
                ),
                Some("fetches past the end of memory fault".to_string()),
            );
        }
    }

    // The straight-line walk.
    for (off, insn) in &meta.insns {
        let off = *off;
        walk.cycles += insn.words() as u64; // FETCH: one cycle per word
        let mut stall = 0u64;
        match insn {
            Instruction::SwitchOn(c) | Instruction::SwitchOff(c) => {
                let id = c.raw();
                let on = matches!(insn, Instruction::SwitchOn(_));
                match map::Component::decode(id) {
                    None => walk.push(
                        DiagClass::BadPowerTarget,
                        Some(off),
                        Some(insn),
                        format!(
                            "switch{} of unassigned component id {id}",
                            if on { "on" } else { "off" }
                        ),
                        Some("only ids 0-5 and 8-15 are power-controllable".to_string()),
                    ),
                    Some((map::Component::Mcu, _)) => walk.push(
                        DiagClass::BadPowerTarget,
                        Some(off),
                        Some(insn),
                        format!(
                            "switch{} of the microcontroller",
                            if on { "on" } else { "off" }
                        ),
                        Some(if on {
                            "wake the microcontroller with `wakeup` so it has a vector".to_string()
                        } else {
                            "the microcontroller gates itself via SYS_MCU_SLEEP".to_string()
                        }),
                    ),
                    Some((comp, bank)) => {
                        let cur = walk.state[id as usize];
                        if on {
                            match cur {
                                PowerState::On => walk.push(
                                    DiagClass::RedundantSwitch,
                                    Some(off),
                                    Some(insn),
                                    format!("switchon of {}: already on", comp_name(id)),
                                    Some(
                                        "a no-op that still costs a fetch and execute \
                                         cycle"
                                            .to_string(),
                                    ),
                                ),
                                PowerState::Off | PowerState::Unknown => {
                                    stall = ctx.wake.of(comp, bank).0;
                                    if cur == PowerState::Off && !walk.turned_on.contains(&id) {
                                        walk.turned_on.push(id);
                                    }
                                }
                            }
                            walk.state[id as usize] = PowerState::On;
                        } else {
                            if cur == PowerState::Off {
                                walk.push(
                                    DiagClass::RedundantSwitch,
                                    Some(off),
                                    Some(insn),
                                    format!("switchoff of {}: already off", comp_name(id)),
                                    Some(
                                        "a no-op that still costs a fetch and execute \
                                         cycle"
                                            .to_string(),
                                    ),
                                );
                            }
                            walk.state[id as usize] = PowerState::Off;
                            if let Some(bank) = bank {
                                let next = usize::from(off) + insn.words();
                                walk.check_self_gate(bank, next, meta.consumed, off, insn);
                            }
                        }
                    }
                }
            }
            Instruction::Read(a) => walk.check_access(*a, false, off, insn),
            Instruction::Write(a) => walk.check_access(*a, true, off, insn),
            Instruction::WriteI { addr, .. } => walk.check_access(*addr, true, off, insn),
            Instruction::Transfer { src, dst, len } => {
                walk.check_transfer_range(*src, *len, false, off, insn);
                walk.check_transfer_range(*dst, *len, true, off, insn);
            }
            Instruction::Terminate => {}
            Instruction::Wakeup(v) => {
                // Two vector-table reads from main memory.
                for delta in 0..2u16 {
                    let addr = map::MCU_VECTORS + u16::from(*v) * 2 + delta;
                    walk.check_access(addr, false, off, insn);
                }
            }
        }
        walk.cycles += exec_cycles(insn, stall);
    }

    // Structural endings.
    if meta.truncated {
        walk.push(
            DiagClass::MissingTerminator,
            Some(meta.consumed as u16),
            None,
            format!(
                "instruction at +0x{:04X} is truncated ({} byte{} left)",
                meta.consumed,
                meta.trailing,
                if meta.trailing == 1 { "" } else { "s" }
            ),
            Some("execution would fetch operands from whatever follows in memory".to_string()),
        );
    } else if !meta.terminated {
        walk.push(
            DiagClass::MissingTerminator,
            Some(meta.consumed as u16),
            None,
            "control runs off the end of the image without \
                      terminate/wakeup"
                .to_string(),
            Some("the event processor keeps fetching whatever follows in memory".to_string()),
        );
    } else if meta.trailing > 0 {
        walk.push(
            DiagClass::TrailingBytes,
            Some(meta.consumed as u16),
            None,
            format!(
                "{} unreachable byte{} after the terminator",
                meta.trailing,
                if meta.trailing == 1 { "" } else { "s" }
            ),
            Some("dead footprint in the 2 KB main memory".to_string()),
        );
    }

    // Energy-leak check: components this ISR turned on and left on.
    let turned_on = walk.turned_on.clone();
    for id in turned_on {
        if walk.state[id as usize] == PowerState::On && !ctx.allowed_left_on.contains(&id) {
            walk.push(
                DiagClass::LeftOnAtExit,
                None,
                None,
                format!(
                    "{} switched on by this ISR is still on at exit",
                    comp_name(id)
                ),
                Some(
                    "declare an intentional hand-off in the check context or add a \
                     switchoff"
                        .to_string(),
                ),
            );
        }
    }

    // WCET: worst-case bus wait + 2-cycle lookup + fetch/execute walk.
    let wcet = ctx.max_bus_wait + 2 + walk.cycles;
    if let Some(budget) = ctx.wcet_budget {
        if wcet > budget {
            walk.push(
                DiagClass::WcetOverrun,
                None,
                None,
                format!("WCET {wcet} cycles exceeds the event-period budget {budget}"),
                Some("a second event could arrive before this ISR retires".to_string()),
            );
        }
    }

    Report {
        name: ctx.name.clone(),
        irq: ctx.irq,
        insns: meta.insns.len(),
        bytes: bytes.len(),
        wcet,
        budget: ctx.wcet_budget,
        diags: walk.diags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_isa::ep::{encode_program, ComponentId, Instruction as I};

    fn cid(id: u8) -> ComponentId {
        ComponentId::new(id).unwrap()
    }

    fn check(prog: &[I], ctx: &CheckContext) -> Report {
        check_isr(&encode_program(prog).unwrap(), ctx)
    }

    fn classes(report: &Report) -> Vec<DiagClass> {
        report.diags.iter().map(|d| d.class).collect()
    }

    #[test]
    fn clean_minimal_isr() {
        let r = check(&[I::Terminate], &CheckContext::system_reset("t"));
        assert!(r.is_clean(), "{:?}", r.diags);
        assert_eq!(r.wcet, 4, "lookup 2 + fetch 1 + execute 1");
    }

    #[test]
    fn figure5_isr_is_clean_and_wcet_matches_simulated_cost() {
        // The paper's Figure 5 sample ISR, with the msgproc hand-off
        // declared (it must stay on until MsgReady fires).
        let prog = [
            I::SwitchOn(cid(4)),
            I::Read(map::SENSOR_BASE + map::SENSOR_DATA),
            I::SwitchOff(cid(4)),
            I::SwitchOn(cid(2)),
            I::Write(map::MSG_BASE + map::MSG_SAMPLE_IN),
            I::WriteI {
                addr: map::MSG_BASE + map::MSG_CTRL,
                value: 1,
            },
            I::Terminate,
        ];
        let ctx = CheckContext::system_reset("fig5")
            .with_irq(map::Irq::Timer0.id())
            .allow_left_on(2);
        let r = check(&prog, &ctx);
        assert!(r.is_clean(), "{:?}", r.diags);
        // 2 + (1+1+2) + (3+1) + (1+1) + (1+1+2) + (3+1) + (4+1) + (1+1) = 27
        assert_eq!(r.wcet, 27);
    }

    #[test]
    fn powered_off_access_flagged() {
        let r = check(
            &[I::Read(map::MSG_BASE + map::MSG_STATUS), I::Terminate],
            &CheckContext::system_reset("t"),
        );
        assert_eq!(classes(&r), vec![DiagClass::PoweredOffAccess]);
        assert!(r.has_fault_class());
        assert_eq!(r.diags[0].offset, Some(0));
    }

    #[test]
    fn entry_assumption_from_irq_source() {
        // Reading the sensor inside the SensorDone ISR is fine: the
        // conversion-complete interrupt proves the sensor is on.
        let prog = [
            I::Read(map::SENSOR_BASE + map::SENSOR_DATA),
            I::SwitchOff(cid(4)),
            I::Terminate,
        ];
        let base = CheckContext::system_reset("t");
        assert_eq!(
            classes(&check(&prog, &base)),
            vec![DiagClass::PoweredOffAccess, DiagClass::RedundantSwitch]
        );
        let r = check(&prog, &base.with_irq(map::Irq::SensorDone.id()));
        assert!(r.is_clean(), "{:?}", r.diags);
    }

    #[test]
    fn redundant_switches_flagged() {
        let r = check(
            &[
                I::SwitchOn(cid(0)),  // timer already on at reset
                I::SwitchOff(cid(4)), // sensor already off
                I::Terminate,
            ],
            &CheckContext::system_reset("t"),
        );
        assert_eq!(
            classes(&r),
            vec![DiagClass::RedundantSwitch, DiagClass::RedundantSwitch]
        );
        assert_eq!(r.warnings(), 2);
        assert_eq!(r.errors(), 0);
    }

    #[test]
    fn left_on_at_exit_flagged_and_waivable() {
        let prog = [
            I::SwitchOn(cid(4)),
            I::Read(map::SENSOR_BASE + map::SENSOR_DATA),
            I::Terminate,
        ];
        let r = check(&prog, &CheckContext::system_reset("t"));
        assert_eq!(classes(&r), vec![DiagClass::LeftOnAtExit]);
        let r = check(&prog, &CheckContext::system_reset("t").allow_left_on(4));
        assert!(r.is_clean());
        // Components that were already on (not turned on here) never
        // trigger the leak warning.
        let r = check(
            &[I::Read(map::TIMER_BASE + map::TIMER_COUNT_LO), I::Terminate],
            &CheckContext::system_reset("t"),
        );
        assert!(r.is_clean());
    }

    #[test]
    fn read_only_write_flagged() {
        let r = check(
            &[
                I::WriteI {
                    addr: map::TIMER_BASE + map::TIMER_COUNT_LO,
                    value: 1,
                },
                I::Terminate,
            ],
            &CheckContext::system_reset("t"),
        );
        assert_eq!(classes(&r), vec![DiagClass::ReadOnlyWrite]);
        assert!(!r.has_fault_class(), "writes are ignored, not faults");
    }

    #[test]
    fn unmapped_access_flagged() {
        let r = check(
            &[I::Read(0x0900), I::Terminate],
            &CheckContext::system_reset("t"),
        );
        assert_eq!(classes(&r), vec![DiagClass::UnmappedAccess]);
        assert!(r.has_fault_class());
    }

    #[test]
    fn transfer_bounds_flagged() {
        let ctx = CheckContext::system_reset("t")
            .assume(2, PowerState::On)
            .assume(3, PowerState::On);
        // Destination overruns the radio TX buffer by 8 bytes.
        let r = check(
            &[
                I::Transfer {
                    src: map::MSG_TX_BUF,
                    dst: map::RADIO_TX_BUF + 8,
                    len: 32,
                },
                I::Terminate,
            ],
            &ctx,
        );
        assert_eq!(classes(&r), vec![DiagClass::TransferBounds]);
        assert!(r.diags[0].message.contains("overruns the 32-byte buffer"));
        // Source crossing out of a register window.
        let r = check(
            &[
                I::Transfer {
                    src: map::SENSOR_BASE + 2,
                    dst: 0x0300,
                    len: 8,
                },
                I::Terminate,
            ],
            &CheckContext::system_reset("t").assume(4, PowerState::On),
        );
        assert_eq!(classes(&r), vec![DiagClass::TransferBounds]);
        assert!(r.diags[0].message.contains("crosses out of region"));
        // In-bounds block spanning two SRAM banks is legal.
        let r = check(
            &[
                I::Transfer {
                    src: 0x02F0,
                    dst: 0x0400,
                    len: 32,
                },
                I::Terminate,
            ],
            &CheckContext::system_reset("t"),
        );
        assert!(r.is_clean(), "{:?}", r.diags);
    }

    #[test]
    fn transfer_into_gated_bank_flagged() {
        let ctx =
            CheckContext::system_reset("t").assume(map::Component::mem_bank(4), PowerState::Off);
        let r = check(
            &[
                I::Transfer {
                    src: 0x0300,
                    dst: 0x03F8, // crosses into gated bank 4
                    len: 16,
                },
                I::Terminate,
            ],
            &ctx,
        );
        assert_eq!(classes(&r), vec![DiagClass::PoweredOffAccess]);
    }

    #[test]
    fn bad_power_target_flagged() {
        let r = check(
            &[
                I::SwitchOn(cid(7)),
                I::SwitchOn(cid(5)),
                I::SwitchOff(cid(5)),
                I::Terminate,
            ],
            &CheckContext::system_reset("t"),
        );
        assert_eq!(
            classes(&r),
            vec![
                DiagClass::BadPowerTarget,
                DiagClass::BadPowerTarget,
                DiagClass::BadPowerTarget
            ]
        );
    }

    #[test]
    fn self_gating_flagged() {
        // ISR at 0x0200 (bank 2) switching bank 2 off mid-stream.
        let ctx = CheckContext::system_reset("t").with_isr_addr(0x0200);
        let r = check(
            &[I::SwitchOff(cid(map::Component::mem_bank(2))), I::Terminate],
            &ctx,
        );
        assert_eq!(classes(&r), vec![DiagClass::IsrBankGated]);
        // Gating an unrelated bank is fine.
        let r = check(
            &[I::SwitchOff(cid(map::Component::mem_bank(7))), I::Terminate],
            &ctx,
        );
        assert!(r.is_clean(), "{:?}", r.diags);
        // As the *last* instruction there is no remaining code in the
        // bank... but the terminator itself still has to be fetched, so
        // gating before the terminate is still flagged. Gated bank at
        // entry is the other variant.
        let r = check(
            &[I::Terminate],
            &CheckContext::system_reset("t")
                .with_isr_addr(0x0200)
                .assume(map::Component::mem_bank(2), PowerState::Off),
        );
        assert_eq!(classes(&r), vec![DiagClass::IsrBankGated]);
    }

    #[test]
    fn vector_overlap_flagged() {
        let r = check(
            &[I::Terminate],
            &CheckContext::system_reset("t").with_isr_addr(0x0080),
        );
        assert_eq!(classes(&r), vec![DiagClass::VectorOverlap]);
        assert!(!r.has_fault_class(), "overlap corrupts, not faults");
    }

    #[test]
    fn missing_terminator_and_trailing_bytes() {
        // Runs off the end.
        let r = check(&[I::Read(0x0300)], &CheckContext::system_reset("t"));
        assert_eq!(classes(&r), vec![DiagClass::MissingTerminator]);
        assert!(r.has_fault_class());
        // Truncated final instruction.
        let bytes = encode_program(&[I::Read(0x0300)]).unwrap();
        let r = check_isr(&bytes[..2], &CheckContext::system_reset("t"));
        assert_eq!(classes(&r), vec![DiagClass::MissingTerminator]);
        // Dead tail.
        let bytes = encode_program(&[I::Terminate, I::Read(0x0300), I::Terminate]).unwrap();
        let r = check_isr(&bytes, &CheckContext::system_reset("t"));
        assert_eq!(classes(&r), vec![DiagClass::TrailingBytes]);
        assert_eq!(r.warnings(), 1);
    }

    #[test]
    fn wcet_budget_checked() {
        let prog = [
            I::Transfer {
                src: 0x0300,
                dst: 0x0400,
                len: 8,
            },
            I::Terminate,
        ];
        // Simulator-verified cost of this exact program is 25 cycles.
        let r = check(&prog, &CheckContext::system_reset("t").with_budget(25));
        assert!(r.is_clean(), "{:?}", r.diags);
        assert_eq!(r.wcet, 25);
        let r = check(&prog, &CheckContext::system_reset("t").with_budget(24));
        assert_eq!(classes(&r), vec![DiagClass::WcetOverrun]);
        // Bus contention widens the bound.
        let mut ctx = CheckContext::system_reset("t").with_budget(30);
        ctx.max_bus_wait = 10;
        let r = check(&prog, &ctx);
        assert_eq!(r.wcet, 35);
        assert_eq!(classes(&r), vec![DiagClass::WcetOverrun]);
    }

    #[test]
    fn unknown_power_warns_and_costs_worst_case() {
        let ctx = CheckContext::system_reset("t").assume(3, PowerState::Unknown);
        let r = check(
            &[I::Read(map::RADIO_BASE + map::RADIO_STATUS), I::Terminate],
            &ctx,
        );
        assert_eq!(classes(&r), vec![DiagClass::UnknownPowerAccess]);
        assert_eq!(r.errors(), 0);
        // SWITCHON from Unknown charges the full handshake (radio: 4).
        let known = check(
            &[I::SwitchOn(cid(3)), I::Terminate],
            &CheckContext::system_reset("t").allow_left_on(3),
        );
        let unknown = check(
            &[I::SwitchOn(cid(3)), I::Terminate],
            &ctx.clone().allow_left_on(3),
        );
        assert_eq!(known.wcet, unknown.wcet);
        assert!(unknown.is_clean(), "{:?}", unknown.diags);
    }

    #[test]
    fn wakeup_vector_reads_checked() {
        // Vector 2's table entry lives in bank 0 — gated bank 0 faults
        // the wakeup's vector read.
        let ctx =
            CheckContext::system_reset("t").assume(map::Component::mem_bank(0), PowerState::Off);
        let r = check(&[I::Wakeup(2)], &ctx);
        assert_eq!(
            classes(&r),
            vec![DiagClass::PoweredOffAccess, DiagClass::PoweredOffAccess]
        );
        assert_eq!(
            check(&[I::Wakeup(2)], &CheckContext::system_reset("t")).wcet,
            6
        );
    }

    #[test]
    fn diagnostics_are_in_program_order() {
        let prog = [
            I::Read(0x0900), // unmapped
            I::WriteI {
                addr: map::SENSOR_BASE + map::SENSOR_DATA,
                value: 1,
            }, // off + RO
            I::Terminate,
        ];
        let r = check(&prog, &CheckContext::system_reset("t"));
        assert_eq!(
            classes(&r),
            vec![
                DiagClass::UnmappedAccess,
                DiagClass::PoweredOffAccess,
                DiagClass::ReadOnlyWrite
            ]
        );
        let offs: Vec<_> = r.diags.iter().map(|d| d.offset).collect();
        assert_eq!(offs, vec![Some(0), Some(3), Some(3)]);
    }

    #[test]
    fn empty_image_is_a_missing_terminator() {
        let r = check_isr(&[], &CheckContext::system_reset("t"));
        assert_eq!(classes(&r), vec![DiagClass::MissingTerminator]);
        assert_eq!(r.insns, 0);
    }
}
