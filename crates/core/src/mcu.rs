//! The master microcontroller: an AVR-subset core attached to the system
//! bus, Vdd-gated except while handling irregular events (§4.3.2).
//!
//! The paper's microcontroller is "a simple non-pipelined microcontroller
//! \[with\] an 8-bit ISA ... leveraging currently available computational
//! cores"; we instantiate the same `ulp-mcu8` core used for the Mica2
//! baseline. Its program lives in the unified main memory, so every
//! 16-bit instruction word costs two extra cycles of 8-bit bus traffic —
//! the price of generality that makes the event processor worth having.
//!
//! Because the microcontroller is Vdd-gated (not clock-gated), it loses
//! all register state between events: each wakeup resets the core, and
//! handlers begin by owning a fresh machine with the stack pointer preset
//! to the top of memory.

use crate::map;
use crate::periods::push_bytes;
use crate::slaves::{BusError, Slaves};
use std::fmt;
use ulp_mcu8::{Bus, Cpu};
use ulp_sim::repeat::Totals;

/// Default stack top for freshly woken handlers (top of main memory;
/// bank 7 doubles as stack space).
pub const STACK_TOP: u16 = map::MEM_SIZE - 1;

/// Fault from microcontroller execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum McuError {
    /// A bus access faulted.
    Bus(BusError),
    /// The core halted (`BREAK` or invalid opcode) instead of sleeping.
    Halted {
        /// Word PC at the halt.
        pc: u16,
        /// The invalid encoding, if that was the cause.
        invalid: Option<u16>,
    },
    /// `WAKEUP` pointed at an odd (non-word-aligned) handler address.
    MisalignedHandler {
        /// The offending byte address.
        addr: u16,
    },
}

impl fmt::Display for McuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McuError::Bus(e) => write!(f, "microcontroller bus fault: {e}"),
            McuError::Halted { pc, invalid: None } => {
                write!(f, "microcontroller halted (BREAK) at word 0x{pc:04X}")
            }
            McuError::Halted {
                pc,
                invalid: Some(w),
            } => write!(
                f,
                "microcontroller hit invalid opcode 0x{w:04X} at word 0x{pc:04X}"
            ),
            McuError::MisalignedHandler { addr } => {
                write!(f, "misaligned microcontroller handler address 0x{addr:04X}")
            }
        }
    }
}

impl std::error::Error for McuError {}

impl From<BusError> for McuError {
    fn from(e: BusError) -> Self {
        McuError::Bus(e)
    }
}

/// Cumulative microcontroller statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct McuStats {
    /// Wakeups served.
    pub wakeups: u64,
    /// Instructions executed.
    pub instructions: u64,
    /// Cycles powered.
    pub active_cycles: u64,
}

/// The microcontroller master.
#[derive(Debug)]
pub struct Mcu {
    cpu: Cpu,
    powered: bool,
    wake_stall: u64,
    instr_stall: u64,
    stats: McuStats,
}

impl Default for Mcu {
    fn default() -> Self {
        Mcu::new()
    }
}

impl Mcu {
    /// A gated-off microcontroller.
    pub fn new() -> Mcu {
        Mcu {
            cpu: Cpu::new(),
            powered: false,
            wake_stall: 0,
            instr_stall: 0,
            stats: McuStats::default(),
        }
    }

    /// Whether the core is powered (owns the data bus).
    pub fn powered(&self) -> bool {
        self.powered
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> McuStats {
        self.stats
    }

    /// Read-only view of the core (tests).
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Append the microcontroller's state to a state key: the core's
    /// whole state and the stalls. The statistics are
    /// [`totals`](Mcu::totals).
    pub(crate) fn key(&self, key: &mut Vec<u64>) {
        let cpu = &self.cpu;
        key.extend([self.powered as u64, self.wake_stall, self.instr_stall]);
        key.extend([cpu.pc as u64, cpu.sp as u64, cpu.sreg() as u64]);
        key.extend([cpu.sleeping() as u64, cpu.halted() as u64]);
        key.extend([
            cpu.invalid_opcode().map_or(0, |op| op as u64 + 1),
            cpu.total_cycles(),
        ]);
        push_bytes(key, &cpu.regs);
    }

    pub(crate) fn totals(&mut self, t: &mut dyn Totals) {
        t.count(&mut self.stats.wakeups);
        t.count(&mut self.stats.instructions);
        t.count(&mut self.stats.active_cycles);
    }

    /// Power on and start at `handler` (byte address in main memory)
    /// after `wake_latency` cycles. The core is reset: Vdd gating loses
    /// all state.
    ///
    /// # Errors
    ///
    /// Fails if `handler` is not word-aligned.
    pub fn wake(&mut self, handler: u16, wake_latency: u64) -> Result<(), McuError> {
        if !handler.is_multiple_of(2) {
            return Err(McuError::MisalignedHandler { addr: handler });
        }
        self.cpu = Cpu::new();
        self.cpu.pc = handler / 2;
        self.cpu.sp = STACK_TOP;
        self.powered = true;
        self.wake_stall = wake_latency;
        self.instr_stall = 0;
        self.stats.wakeups += 1;
        Ok(())
    }

    /// Whether the core is mid-way through a multi-cycle instruction
    /// (the system defers sleep/power requests until the instruction's
    /// cycles have fully elapsed, keeping cycle counts honest).
    pub fn mid_instruction(&self) -> bool {
        self.instr_stall > 0
    }

    /// Gate the core off.
    pub fn sleep(&mut self) {
        self.powered = false;
        self.wake_stall = 0;
        self.instr_stall = 0;
    }

    /// Advance one cycle. Multi-cycle instructions execute atomically on
    /// their first cycle and stall for the remainder, preserving cycle
    /// counts. Returns whether the core consumed the cycle.
    ///
    /// # Errors
    ///
    /// Faults on bus errors and on the core halting.
    pub fn step(&mut self, slaves: &mut Slaves) -> Result<bool, McuError> {
        if !self.powered {
            return Ok(false);
        }
        self.stats.active_cycles += 1;
        if self.wake_stall > 0 {
            self.wake_stall -= 1;
            return Ok(true);
        }
        if self.instr_stall > 0 {
            self.instr_stall -= 1;
            return Ok(true);
        }
        let mut fault = None;
        let cycles = {
            let mut bus = McuBus {
                slaves,
                fault: &mut fault,
            };
            self.cpu.step(&mut bus)
        };
        if let Some(e) = fault {
            return Err(e.into());
        }
        if self.cpu.halted() {
            return Err(McuError::Halted {
                pc: self.cpu.pc,
                invalid: self.cpu.invalid_opcode(),
            });
        }
        self.stats.instructions += 1;
        self.instr_stall = (cycles as u64).saturating_sub(1);
        Ok(true)
    }
}

/// Adapter exposing the system bus to the AVR core. Program fetches read
/// two bytes from main memory; data accesses decode across the full
/// slave map. Faults are latched (the [`Bus`] trait is infallible) and
/// surfaced after the instruction.
struct McuBus<'a> {
    slaves: &'a mut Slaves,
    fault: &'a mut Option<BusError>,
}

impl McuBus<'_> {
    fn checked_read(&mut self, addr: u16) -> u8 {
        match self.slaves.read(addr) {
            Ok(v) => v,
            Err(e) => {
                self.fault.get_or_insert(e);
                0
            }
        }
    }
    fn checked_write(&mut self, addr: u16, value: u8) {
        if let Err(e) = self.slaves.write(addr, value) {
            self.fault.get_or_insert(e);
        }
    }
}

impl Bus for McuBus<'_> {
    fn fetch(&mut self, pc: u16) -> u16 {
        let base = pc.wrapping_mul(2);
        let lo = self.checked_read(base);
        let hi = self.checked_read(base.wrapping_add(1));
        u16::from_le_bytes([lo, hi])
    }
    fn read(&mut self, addr: u16) -> u8 {
        self.checked_read(addr)
    }
    fn write(&mut self, addr: u16, value: u8) {
        self.checked_write(addr, value);
    }
    fn io_read(&mut self, _addr: u8) -> u8 {
        0 // no legacy AVR I/O peripherals on this platform
    }
    fn io_write(&mut self, _addr: u8, _value: u8) {}
    fn fetch_penalty(&self) -> u8 {
        2 // each 16-bit word is two transactions on the 8-bit bus
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slaves::{ConstSensor, SensorBlock};
    use ulp_mcu8::assemble;
    use ulp_sram::{BankedSram, SramConfig};

    fn slaves_with_program(src: &str, at: u16) -> Slaves {
        let mut s = Slaves::new(
            BankedSram::new(SramConfig::paper()),
            SensorBlock::new(Box::new(ConstSensor(1))),
            100_000.0,
        );
        let img = assemble(src).unwrap();
        for seg in img.segments() {
            s.mem.load(at + seg.origin as u16, &seg.data);
        }
        s
    }

    /// Run until the sleep request lands (and the requesting instruction
    /// finishes its cycles); return cycles consumed.
    fn run_handler(mcu: &mut Mcu, slaves: &mut Slaves, max: u64) -> u64 {
        let mut cycles = 0;
        for _ in 0..max {
            if slaves.sys.mcu_sleep_requested && !mcu.mid_instruction() {
                break;
            }
            mcu.step(slaves).unwrap();
            cycles += 1;
        }
        assert!(slaves.sys.mcu_sleep_requested, "handler never slept");
        cycles
    }

    #[test]
    fn handler_runs_and_requests_sleep() {
        // Handler: write 0x42 to memory 0x0300, then request sleep.
        let src = r#"
            ldi r16, 0x42
            sts 0x0300, r16
            ldi r16, 1
            sts 0x1500, r16     ; SYS_MCU_SLEEP
        done:
            rjmp done
        "#;
        let mut slaves = slaves_with_program(src, 0x0400);
        let mut mcu = Mcu::new();
        mcu.wake(0x0400, 4).unwrap();
        assert!(mcu.powered());
        let cycles = run_handler(&mut mcu, &mut slaves, 1000);
        assert_eq!(slaves.mem.peek(0x0300), Some(0x42));
        // 4 wake + (1+2) ldi + (2+4) sts + (1+2) ldi + (2+4) sts = 22.
        assert_eq!(cycles, 22);
        mcu.sleep();
        assert!(!mcu.powered());
        assert_eq!(mcu.stats().wakeups, 1);
        assert_eq!(mcu.stats().instructions, 4);
    }

    #[test]
    fn handler_reads_slave_registers() {
        // Read SYS_WAKE_CAUSE and store it to memory.
        let src = r#"
            lds r16, 0x1503     ; SYS_WAKE_CAUSE
            sts 0x0301, r16
            ldi r16, 1
            sts 0x1500, r16
        "#;
        let mut slaves = slaves_with_program(src, 0x0400);
        slaves.sys.wake_cause = 18;
        let mut mcu = Mcu::new();
        mcu.wake(0x0400, 0).unwrap();
        run_handler(&mut mcu, &mut slaves, 1000);
        assert_eq!(slaves.mem.peek(0x0301), Some(18));
    }

    #[test]
    fn handler_configures_timer() {
        // Application 4's "timer change": write a new reload value.
        let src = r#"
            ldi r16, 0x2C
            sts 0x1000, r16     ; TIMER0 reload lo
            ldi r16, 0x01
            sts 0x1001, r16     ; TIMER0 reload hi
            ldi r16, 0x0B
            sts 0x1002, r16     ; enable | repeat | irq
            ldi r16, 1
            sts 0x1500, r16
        "#;
        let mut slaves = slaves_with_program(src, 0x0400);
        let mut mcu = Mcu::new();
        mcu.wake(0x0400, 4).unwrap();
        run_handler(&mut mcu, &mut slaves, 1000);
        assert_eq!(slaves.timer.cycles_to_next_alarm(), Some(0x012C));
    }

    #[test]
    fn gated_slave_access_faults() {
        let src = "lds r16, 0x1200\nnop"; // msgproc starts gated
        let mut slaves = slaves_with_program(src, 0x0400);
        let mut mcu = Mcu::new();
        mcu.wake(0x0400, 0).unwrap();
        let mut err = None;
        for _ in 0..20 {
            if let Err(e) = mcu.step(&mut slaves) {
                err = Some(e);
                break;
            }
        }
        assert!(matches!(err, Some(McuError::Bus(BusError::Gated { .. }))));
    }

    #[test]
    fn break_is_a_fault_not_an_exit() {
        let src = "break";
        let mut slaves = slaves_with_program(src, 0x0400);
        let mut mcu = Mcu::new();
        mcu.wake(0x0400, 0).unwrap();
        let mut err = None;
        for _ in 0..5 {
            if let Err(e) = mcu.step(&mut slaves) {
                err = Some(e);
                break;
            }
        }
        assert!(matches!(err, Some(McuError::Halted { invalid: None, .. })));
    }

    #[test]
    fn misaligned_handler_rejected() {
        let mut mcu = Mcu::new();
        assert!(matches!(
            mcu.wake(0x0401, 0),
            Err(McuError::MisalignedHandler { addr: 0x0401 })
        ));
    }

    #[test]
    fn wake_resets_register_state() {
        let src = "ldi r16, 1\nsts 0x1500, r16";
        let mut slaves = slaves_with_program(src, 0x0400);
        let mut mcu = Mcu::new();
        mcu.wake(0x0400, 0).unwrap();
        run_handler(&mut mcu, &mut slaves, 100);
        assert_eq!(mcu.cpu().regs[16], 1);
        mcu.sleep();
        mcu.wake(0x0400, 0).unwrap();
        assert_eq!(mcu.cpu().regs[16], 0, "Vdd gating loses state");
        assert_eq!(mcu.cpu().sp, STACK_TOP);
        assert_eq!(mcu.stats().wakeups, 2);
    }

    #[test]
    fn unpowered_core_consumes_nothing() {
        let mut slaves = slaves_with_program("nop", 0x0400);
        let mut mcu = Mcu::new();
        assert!(!mcu.step(&mut slaves).unwrap());
        assert_eq!(mcu.stats().active_cycles, 0);
    }
}
