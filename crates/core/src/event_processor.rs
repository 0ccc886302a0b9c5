//! The event processor: a programmable state machine that performs "the
//! repetitive task of interrupt handling ... to some extent, an
//! intelligent DMA controller" (§4.3.3, Figure 2).
//!
//! # Cycle model
//!
//! * `READY` — idle; costs nothing while no interrupt is pending.
//! * `WAIT_BUS` — one cycle per wait while the microcontroller holds the
//!   data bus (the paper gives the bus to the microcontroller whenever it
//!   is awake).
//! * `LOOKUP` — two cycles: the two bus reads of the 16-bit ISR address
//!   from the vector table in main memory.
//! * `FETCH` — one cycle per instruction word fetched over the 8-bit bus.
//! * `EXECUTE` — one cycle per bus operation: 1 for `READ`/`WRITE`/
//!   `WRITEI`/`SWITCHOFF`/`TERMINATE`; 1 + the component's wake-handshake
//!   latency for `SWITCHON`; 2 per byte for `TRANSFER` (read + write);
//!   2 for `WAKEUP` (two vector-table reads; the handoff rides the
//!   second). Pinned by the `wakeup_*` cycle test below and by the
//!   `ulp-verify` WCET model, whose cross-validation suite asserts the
//!   static bound equals the measured count.
//!
//! Each executed bus operation really goes over [`Slaves`], so SRAM
//! access energy and slave "touched" activity are charged naturally.

use crate::map;
use crate::periods::push_bytes;
use crate::power::WakeLatency;
use crate::slaves::{BusError, Slaves};
use ulp_isa::ep::{Instruction, Opcode};
use ulp_sim::repeat::Totals;
use ulp_sim::{Cycles, TraceBuffer, TraceKind};

/// What the event processor did this cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EpAction {
    /// Nothing to do (state `READY`, no pending interrupt).
    Idle,
    /// Worked (or waited for the bus) this cycle.
    Busy,
    /// Finished a `WAKEUP`: the system must power the microcontroller
    /// and start it at `handler` (a byte address in main memory).
    WakeMcu {
        /// Byte address of the microcontroller handler.
        handler: u16,
        /// The interrupt id that led to this wakeup.
        cause: u8,
    },
}

#[derive(Debug, Clone)]
enum State {
    Ready,
    WaitBus,
    Lookup {
        irq: u8,
        lo: u8,
    },
    Fetch {
        irq: u8,
        pc: u16,
        buf: [u8; 5],
        have: u8,
    },
    Execute {
        irq: u8,
        insn: Instruction,
        next_pc: u16,
        step: u16,
        latch: u8,
    },
    /// Waiting out a `SWITCHON` handshake.
    Stall {
        irq: u8,
        remaining: u64,
        next_pc: u16,
    },
}

/// Cumulative event-processor statistics.
#[derive(Debug, Clone)]
pub struct EpStats {
    /// ISRs executed per interrupt id.
    pub events_by_irq: [u64; map::NUM_IRQS],
    /// Total ISRs executed.
    pub events: u64,
    /// Cycles spent outside `READY`.
    pub active_cycles: u64,
    /// Cycles spent in `WAIT_BUS`.
    pub wait_bus_cycles: u64,
    /// Instructions executed.
    pub instructions: u64,
}

impl Default for EpStats {
    fn default() -> Self {
        EpStats {
            events_by_irq: [0; map::NUM_IRQS],
            events: 0,
            active_cycles: 0,
            wait_bus_cycles: 0,
            instructions: 0,
        }
    }
}

/// The event processor.
#[derive(Debug)]
pub struct EventProcessor {
    state: State,
    /// The single temporary-data register (§4.3.3).
    reg: u8,
    stats: EpStats,
    /// When the last interrupt was dispatched and how long it had waited
    /// (cycle of the `take`, raise→take wait). The system uses this to
    /// compose the IRQ→µC wake latency without widening `EpAction`.
    last_dispatch: (Cycles, u64),
}

impl Default for EventProcessor {
    fn default() -> Self {
        EventProcessor::new()
    }
}

impl EventProcessor {
    /// A fresh event processor in `READY`.
    pub fn new() -> EventProcessor {
        EventProcessor {
            state: State::Ready,
            reg: 0,
            stats: EpStats::default(),
            last_dispatch: (Cycles::ZERO, 0),
        }
    }

    /// The cycle at which the most recent interrupt was dispatched and
    /// how long it had waited in the arbiter (cycles).
    pub fn last_dispatch(&self) -> (Cycles, u64) {
        self.last_dispatch
    }

    /// Whether the EP is in `READY` with nothing latched.
    pub fn is_ready(&self) -> bool {
        matches!(self.state, State::Ready)
    }

    /// The temporary register (for tests and tracing).
    pub fn reg(&self) -> u8 {
        self.reg
    }

    /// Fault-injection hook: a supply brownout resets the EP control
    /// logic. Any in-flight ISR is aborted — the machine snaps back to
    /// `READY` and the temporary register clears, so the interrupt being
    /// serviced (already taken from the arbiter at dispatch) is lost.
    /// Cumulative statistics survive: they model observability counters,
    /// not retention flops. Returns `true` when work was in flight.
    pub fn abort_for_brownout(&mut self) -> bool {
        let was_busy = !matches!(self.state, State::Ready);
        self.state = State::Ready;
        self.reg = 0;
        was_busy
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &EpStats {
        &self.stats
    }

    /// Append the EP's state to a state key at cycle `now`: its control
    /// state, its register, and the last dispatch relative to `now`. The
    /// statistics and the dispatch's cycle stamp are
    /// [`totals`](EventProcessor::totals).
    pub(crate) fn key(&self, key: &mut Vec<u64>, now: Cycles) {
        let word = |irq: u8, pc: u16, tag: u64| (irq as u64) << 24 | (pc as u64) << 8 | tag;
        match &self.state {
            State::Ready => key.push(0),
            State::WaitBus => key.push(1),
            State::Lookup { irq, lo } => key.push(word(*irq, *lo as u16, 2)),
            State::Fetch { irq, pc, buf, have } => {
                key.extend([word(*irq, *pc, 3), *have as u64]);
                push_bytes(key, buf);
            }
            State::Execute {
                irq,
                insn,
                next_pc,
                step,
                latch,
            } => {
                key.extend([word(*irq, *next_pc, 4), *step as u64, *latch as u64]);
                push_bytes(key, &insn.encode().expect("a decoded instruction encodes"));
            }
            State::Stall {
                irq,
                remaining,
                next_pc,
            } => key.extend([word(*irq, *next_pc, 5), *remaining]),
        }
        let (at, waited) = self.last_dispatch;
        key.extend([self.reg as u64, now.0.wrapping_sub(at.0), waited]);
    }

    pub(crate) fn totals(&mut self, t: &mut dyn Totals) {
        let s = &mut self.stats;
        for n in &mut s.events_by_irq {
            t.count(n);
        }
        t.count(&mut s.events);
        t.count(&mut s.active_cycles);
        t.count(&mut s.wait_bus_cycles);
        t.count(&mut s.instructions);
        t.count(&mut self.last_dispatch.0 .0);
    }

    /// Advance one cycle. `bus_free` is false while the microcontroller
    /// is awake and owns the data bus.
    ///
    /// # Errors
    ///
    /// Propagates bus faults from ISR execution (these halt the system).
    pub fn step(
        &mut self,
        slaves: &mut Slaves,
        bus_free: bool,
        wake: &WakeLatency,
        trace: &mut TraceBuffer,
        now: Cycles,
    ) -> Result<EpAction, BusError> {
        let action = self.step_inner(slaves, bus_free, wake, trace, now)?;
        if action != EpAction::Idle {
            self.stats.active_cycles += 1;
        }
        Ok(action)
    }

    fn step_inner(
        &mut self,
        slaves: &mut Slaves,
        bus_free: bool,
        wake: &WakeLatency,
        trace: &mut TraceBuffer,
        now: Cycles,
    ) -> Result<EpAction, BusError> {
        match std::mem::replace(&mut self.state, State::Ready) {
            State::Ready | State::WaitBus => {
                if !slaves.irqs.any_pending() {
                    self.state = State::Ready;
                    return Ok(EpAction::Idle);
                }
                if !bus_free {
                    self.state = State::WaitBus;
                    self.stats.wait_bus_cycles += 1;
                    return Ok(EpAction::Busy);
                }
                let (irq, waited) = slaves.irqs.take_with_latency().expect("pending checked");
                self.last_dispatch = (now, waited);
                trace.record(now, "irq", TraceKind::IrqDispatch { irq, waited });
                trace.record(now, "ep", TraceKind::EpLookup { irq });
                // First lookup cycle: read the ISR-address low byte.
                let lo = slaves.read(map::EP_VECTORS + irq as u16 * 2)?;
                self.state = State::Lookup { irq, lo };
                Ok(EpAction::Busy)
            }
            State::Lookup { irq, lo } => {
                let hi = slaves.read(map::EP_VECTORS + irq as u16 * 2 + 1)?;
                let isr = u16::from_le_bytes([lo, hi]);
                trace.record(now, "ep", TraceKind::EpFetch { isr });
                self.state = State::Fetch {
                    irq,
                    pc: isr,
                    buf: [0; 5],
                    have: 0,
                };
                Ok(EpAction::Busy)
            }
            State::Fetch {
                irq,
                pc,
                mut buf,
                have,
            } => {
                let byte = slaves.read(pc + have as u16)?;
                buf[have as usize] = byte;
                let have = have + 1;
                let need = Opcode::from_bits(buf[0] >> 5).words() as u8;
                if have < need {
                    self.state = State::Fetch { irq, pc, buf, have };
                    return Ok(EpAction::Busy);
                }
                let (insn, _) =
                    Instruction::decode(&buf[..have as usize]).expect("length satisfied");
                trace.record(now, "ep", TraceKind::EpExecute { insn });
                self.state = State::Execute {
                    irq,
                    insn,
                    next_pc: pc + need as u16,
                    step: 0,
                    latch: 0,
                };
                Ok(EpAction::Busy)
            }
            State::Execute {
                irq,
                insn,
                next_pc,
                step,
                latch,
            } => self.execute(slaves, wake, trace, now, irq, insn, next_pc, step, latch),
            State::Stall {
                irq,
                remaining,
                next_pc,
            } => {
                if remaining > 1 {
                    self.state = State::Stall {
                        irq,
                        remaining: remaining - 1,
                        next_pc,
                    };
                } else {
                    self.state = State::Fetch {
                        irq,
                        pc: next_pc,
                        buf: [0; 5],
                        have: 0,
                    };
                }
                Ok(EpAction::Busy)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn execute(
        &mut self,
        slaves: &mut Slaves,
        wake: &WakeLatency,
        trace: &mut TraceBuffer,
        now: Cycles,
        irq: u8,
        insn: Instruction,
        next_pc: u16,
        step: u16,
        mut latch: u8,
    ) -> Result<EpAction, BusError> {
        let proceed = |me: &mut Self| {
            me.stats.instructions += 1;
            me.state = State::Fetch {
                irq,
                pc: next_pc,
                buf: [0; 5],
                have: 0,
            };
            Ok(EpAction::Busy)
        };
        match insn {
            Instruction::SwitchOn(c) => {
                let lat = slaves.set_power(c.raw(), true, wake)?;
                if let Some(kind) = map::power_trace_kind(c.raw(), true) {
                    trace.record(now, "power", kind);
                }
                self.stats.instructions += 1;
                if lat.0 > 0 {
                    self.state = State::Stall {
                        irq,
                        remaining: lat.0,
                        next_pc,
                    };
                } else {
                    self.state = State::Fetch {
                        irq,
                        pc: next_pc,
                        buf: [0; 5],
                        have: 0,
                    };
                }
                Ok(EpAction::Busy)
            }
            Instruction::SwitchOff(c) => {
                slaves.set_power(c.raw(), false, wake)?;
                if let Some(kind) = map::power_trace_kind(c.raw(), false) {
                    trace.record(now, "power", kind);
                }
                proceed(self)
            }
            Instruction::Read(addr) => {
                self.reg = slaves.read(addr)?;
                trace.record(
                    now,
                    "bus",
                    TraceKind::BusRead {
                        addr,
                        value: self.reg,
                    },
                );
                proceed(self)
            }
            Instruction::Write(addr) => {
                slaves.write(addr, self.reg)?;
                trace.record(
                    now,
                    "bus",
                    TraceKind::BusWrite {
                        addr,
                        value: self.reg,
                    },
                );
                proceed(self)
            }
            Instruction::WriteI { addr, value } => {
                slaves.write(addr, value)?;
                trace.record(now, "bus", TraceKind::BusWrite { addr, value });
                proceed(self)
            }
            Instruction::Transfer { src, dst, len } => {
                let byte_idx = step / 2;
                if step.is_multiple_of(2) {
                    latch = slaves.read(src + byte_idx)?;
                    self.state = State::Execute {
                        irq,
                        insn,
                        next_pc,
                        step: step + 1,
                        latch,
                    };
                } else {
                    slaves.write(dst + byte_idx, latch)?;
                    if byte_idx + 1 < len as u16 {
                        self.state = State::Execute {
                            irq,
                            insn,
                            next_pc,
                            step: step + 1,
                            latch,
                        };
                    } else {
                        return proceed(self);
                    }
                }
                Ok(EpAction::Busy)
            }
            Instruction::Terminate => {
                self.stats.instructions += 1;
                self.stats.events += 1;
                self.stats.events_by_irq[irq as usize] += 1;
                trace.record(now, "ep", TraceKind::EpTerminate);
                self.state = State::Ready;
                Ok(EpAction::Busy)
            }
            Instruction::Wakeup(vector) => {
                // Three execute cycles: two vector-table reads, then the
                // handoff. `step` sequences them.
                match step {
                    0 => {
                        latch = slaves.read(map::MCU_VECTORS + vector as u16 * 2)?;
                        self.state = State::Execute {
                            irq,
                            insn,
                            next_pc,
                            step: 1,
                            latch,
                        };
                        Ok(EpAction::Busy)
                    }
                    1 => {
                        let hi = slaves.read(map::MCU_VECTORS + vector as u16 * 2 + 1)?;
                        let handler = u16::from_le_bytes([latch, hi]);
                        self.stats.instructions += 1;
                        self.stats.events += 1;
                        self.stats.events_by_irq[irq as usize] += 1;
                        trace.record(now, "ep", TraceKind::EpWakeupMcu { handler });
                        self.state = State::Ready;
                        Ok(EpAction::WakeMcu {
                            handler,
                            cause: irq,
                        })
                    }
                    _ => unreachable!("wakeup has two execute steps"),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slaves::{ConstSensor, SensorBlock};
    use ulp_isa::ep::encode_program;
    use ulp_isa::ep::{ComponentId, Instruction as I};
    use ulp_sram::{BankedSram, SramConfig};

    fn setup(isr: &[I], irq: u8) -> (EventProcessor, Slaves, TraceBuffer) {
        let mut slaves = Slaves::new(
            BankedSram::new(SramConfig::paper()),
            SensorBlock::new(Box::new(ConstSensor(77))),
            100_000.0,
        );
        let isr_addr: u16 = 0x0200;
        let bytes = encode_program(isr).expect("EP program encodes");
        slaves.mem.load(isr_addr, &bytes);
        slaves
            .mem
            .load(map::EP_VECTORS + irq as u16 * 2, &isr_addr.to_le_bytes());
        slaves.irqs.raise(irq);
        (EventProcessor::new(), slaves, TraceBuffer::new(1024))
    }

    fn run_to_ready(
        ep: &mut EventProcessor,
        slaves: &mut Slaves,
        trace: &mut TraceBuffer,
        max: u64,
    ) -> (u64, Vec<EpAction>) {
        let wake = WakeLatency::paper();
        let mut cycles = 0;
        let mut actions = Vec::new();
        for c in 0..max {
            let a = ep
                .step(slaves, true, &wake, trace, Cycles(c))
                .expect("no bus fault");
            if a == EpAction::Idle {
                break;
            }
            cycles += 1;
            actions.push(a);
        }
        (cycles, actions)
    }

    #[test]
    fn idle_when_no_interrupt() {
        let (mut ep, mut slaves, mut trace) = setup(&[I::Terminate], 0);
        let _ = slaves.irqs.take(); // clear the raised irq
        let wake = WakeLatency::paper();
        let a = ep
            .step(&mut slaves, true, &wake, &mut trace, Cycles(0))
            .unwrap();
        assert_eq!(a, EpAction::Idle);
        assert!(ep.is_ready());
        assert_eq!(ep.stats().active_cycles, 0);
    }

    #[test]
    fn minimal_isr_cycle_count() {
        // lookup(2) + fetch terminate(1) + execute terminate(1) = 4.
        let (mut ep, mut slaves, mut trace) = setup(&[I::Terminate], 3);
        let (cycles, _) = run_to_ready(&mut ep, &mut slaves, &mut trace, 100);
        assert_eq!(cycles, 4);
        assert_eq!(ep.stats().events, 1);
        assert_eq!(ep.stats().events_by_irq[3], 1);
    }

    #[test]
    fn read_write_moves_data() {
        let (mut ep, mut slaves, mut trace) =
            setup(&[I::Read(0x0300), I::Write(0x0301), I::Terminate], 0);
        slaves.mem.poke(0x0300, 0x5A);
        run_to_ready(&mut ep, &mut slaves, &mut trace, 100);
        assert_eq!(slaves.mem.peek(0x0301), Some(0x5A));
        assert_eq!(ep.reg(), 0x5A);
    }

    #[test]
    fn writei_immediate() {
        let (mut ep, mut slaves, mut trace) = setup(
            &[
                I::WriteI {
                    addr: 0x0310,
                    value: 0xAB,
                },
                I::Terminate,
            ],
            0,
        );
        run_to_ready(&mut ep, &mut slaves, &mut trace, 100);
        assert_eq!(slaves.mem.peek(0x0310), Some(0xAB));
    }

    #[test]
    fn transfer_block_and_cycle_cost() {
        let (mut ep, mut slaves, mut trace) = setup(
            &[
                I::Transfer {
                    src: 0x0300,
                    dst: 0x0400,
                    len: 8,
                },
                I::Terminate,
            ],
            0,
        );
        for i in 0..8u16 {
            slaves.mem.poke(0x0300 + i, i as u8 + 1);
        }
        let (cycles, _) = run_to_ready(&mut ep, &mut slaves, &mut trace, 100);
        for i in 0..8u16 {
            assert_eq!(slaves.mem.peek(0x0400 + i), Some(i as u8 + 1));
        }
        // lookup 2 + fetch 5 + transfer 16 + fetch 1 + terminate 1 = 25.
        assert_eq!(cycles, 25);
    }

    #[test]
    fn switchon_stalls_for_handshake() {
        // Sensor wake latency is 2 cycles.
        let (mut ep, mut slaves, mut trace) = setup(
            &[
                I::SwitchOn(ComponentId::new(4).unwrap()),
                I::Read(map::SENSOR_BASE + map::SENSOR_DATA),
                I::SwitchOff(ComponentId::new(4).unwrap()),
                I::Terminate,
            ],
            0,
        );
        let (cycles, _) = run_to_ready(&mut ep, &mut slaves, &mut trace, 100);
        // lookup 2 + fetch(1)+exec(1)+stall(2) + fetch(3)+exec(1)
        //   + fetch(1)+exec(1) + fetch(1)+exec(1) = 14.
        assert_eq!(cycles, 14);
        assert_eq!(ep.reg(), 77, "sample latched during handshake");
        assert!(!slaves.sensor.powered(), "switched back off");
    }

    #[test]
    fn figure5_isr_sequence_runs() {
        // The sample→message ISR of Figure 5 (single sample).
        let sensor = ComponentId::new(4).unwrap();
        let msgproc = ComponentId::new(2).unwrap();
        let (mut ep, mut slaves, mut trace) = setup(
            &[
                I::SwitchOn(sensor),
                I::Read(map::SENSOR_BASE + map::SENSOR_DATA),
                I::SwitchOff(sensor),
                I::SwitchOn(msgproc),
                I::Write(map::MSG_BASE + map::MSG_SAMPLE_IN),
                I::WriteI {
                    addr: map::MSG_BASE + map::MSG_CTRL,
                    value: 1,
                },
                I::Terminate,
            ],
            map::Irq::Timer0.id(),
        );
        trace.set_enabled(true);
        let (cycles, _) = run_to_ready(&mut ep, &mut slaves, &mut trace, 200);
        assert!(cycles > 0);
        // The message processor received the sample and a Prepare command.
        assert!(slaves.msgproc.powered());
        assert!(slaves.msgproc.busy());
        // Let it finish: MsgReady must be raised.
        for c in 0..10u64 {
            slaves.tick(Cycles(1000 + c));
        }
        assert!(slaves.irqs.is_pending(map::Irq::MsgReady.id()));
        // The trace recorded the state walk, with the typed kinds
        // rendering the legacy strings losslessly.
        assert!(trace.events().any(|e| e.detail().contains("LOOKUP")));
        assert!(trace
            .events()
            .any(|e| e.detail().contains("EXECUTE switchon 4")));
        assert!(
            trace.events().any(|e| matches!(
                e.kind,
                TraceKind::PowerOn {
                    component: "sensor"
                }
            )),
            "typed power event recorded"
        );
    }

    #[test]
    fn wakeup_reads_vector_and_reports() {
        let (mut ep, mut slaves, mut trace) = setup(&[I::Wakeup(2)], 18);
        slaves
            .mem
            .load(map::MCU_VECTORS + 4, &0x0400u16.to_le_bytes());
        let (cycles, actions) = run_to_ready(&mut ep, &mut slaves, &mut trace, 100);
        // lookup 2 + fetch 2 + execute 2 = 6.
        assert_eq!(cycles, 6);
        assert_eq!(
            actions.last(),
            Some(&EpAction::WakeMcu {
                handler: 0x0400,
                cause: 18
            })
        );
    }

    #[test]
    fn wait_bus_while_mcu_awake() {
        let (mut ep, mut slaves, mut trace) = setup(&[I::Terminate], 0);
        let wake = WakeLatency::paper();
        // Three cycles with the bus held by the µC.
        for c in 0..3 {
            let a = ep
                .step(&mut slaves, false, &wake, &mut trace, Cycles(c))
                .unwrap();
            assert_eq!(a, EpAction::Busy, "waiting is not idle");
        }
        assert_eq!(ep.stats().wait_bus_cycles, 3);
        // Bus released: the ISR proceeds normally.
        let (cycles, _) = run_to_ready(&mut ep, &mut slaves, &mut trace, 100);
        assert_eq!(cycles, 4);
    }

    #[test]
    fn bus_fault_propagates() {
        // READ from a gated slave (msgproc starts powered off).
        let (mut ep, mut slaves, mut trace) =
            setup(&[I::Read(map::MSG_BASE + map::MSG_STATUS), I::Terminate], 0);
        let wake = WakeLatency::paper();
        let mut fault = None;
        for c in 0..20 {
            match ep.step(&mut slaves, true, &wake, &mut trace, Cycles(c)) {
                Ok(EpAction::Idle) => break,
                Ok(_) => {}
                Err(e) => {
                    fault = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(
            fault,
            Some(BusError::Gated {
                slave: "msgproc",
                ..
            })
        ));
    }

    #[test]
    fn brownout_abort_discards_inflight_isr_but_keeps_stats() {
        let (mut ep, mut slaves, mut trace) =
            setup(&[I::Read(0x0300), I::Write(0x0301), I::Terminate], 0);
        slaves.mem.poke(0x0300, 0x77);
        let wake = WakeLatency::paper();
        // Run a few cycles: dispatch + lookup + first fetch.
        for c in 0..4u64 {
            ep.step(&mut slaves, true, &wake, &mut trace, Cycles(c))
                .unwrap();
        }
        assert!(!ep.is_ready(), "mid-ISR");
        let wait_bus_before = ep.stats().wait_bus_cycles;
        let active_before = ep.stats().active_cycles;
        assert!(ep.abort_for_brownout());
        assert!(ep.is_ready());
        assert_eq!(ep.reg(), 0, "temporary register cleared");
        assert_eq!(ep.stats().active_cycles, active_before);
        assert_eq!(ep.stats().wait_bus_cycles, wait_bus_before);
        assert_eq!(ep.stats().events, 0, "the aborted ISR never completed");
        // The interrupt was consumed at dispatch: the EP now idles.
        let a = ep
            .step(&mut slaves, true, &wake, &mut trace, Cycles(5))
            .unwrap();
        assert_eq!(a, EpAction::Idle);
        assert_eq!(slaves.mem.peek(0x0301), Some(0), "write never landed");
        // Aborting an idle EP reports nothing in flight.
        assert!(!ep.abort_for_brownout());
    }

    #[test]
    fn memory_bank_gating_through_isa() {
        let bank7 = ComponentId::new(map::Component::mem_bank(7)).unwrap();
        let (mut ep, mut slaves, mut trace) = setup(&[I::SwitchOff(bank7), I::Terminate], 0);
        run_to_ready(&mut ep, &mut slaves, &mut trace, 100);
        assert!(matches!(
            slaves.mem.bank_state(7),
            ulp_sram::BankState::Gated
        ));
    }
}
