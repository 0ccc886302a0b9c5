//! The Mica2 board model: ATmega128-class CPU, tick timer, ADC, and a
//! packet-level radio port, with Atemu-style PC-watchpoint probes for
//! cycle measurements.

use crate::io;
use std::collections::VecDeque;
use ulp_isa::asm::Image;
use ulp_mcu8::{Bus, Cpu, DecodedInsn, Insn, Predecoded};
use ulp_net::PhyTiming;
use ulp_sim::fault::{FaultDisposition, FaultKind};
use ulp_sim::telemetry::{Log2Histogram, Metrics};
use ulp_sim::{skip_target, Cycles, IdleAdvance, Simulatable, StepOutcome, TraceBuffer, TraceKind};

/// RAM starts at data address 0x0100 on the ATmega128.
pub const RAM_BASE: u16 = 0x0100;
/// 4 KB of on-chip SRAM.
pub const RAM_SIZE: usize = 4096;

/// Handle to a registered cycle probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeId(usize);

/// Why a symbol-addressed probe could not be registered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeError {
    /// The named symbol is absent from the image.
    MissingSymbol(String),
    /// The symbol resolves to an odd byte address, which cannot name an
    /// instruction boundary.
    UnalignedSymbol {
        /// The offending symbol.
        symbol: String,
        /// Its (odd) byte address.
        addr: i64,
    },
}

impl std::fmt::Display for ProbeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProbeError::MissingSymbol(s) => write!(f, "symbol `{s}` not found"),
            ProbeError::UnalignedSymbol { symbol, addr } => {
                write!(f, "symbol `{symbol}` not word-aligned (0x{addr:04X})")
            }
        }
    }
}

impl std::error::Error for ProbeError {}

/// A PC-watchpoint cycle probe: counts cycles from the first fetch of
/// `start` to the next fetch of `end` (word addresses), like measuring a
/// code segment in Atemu.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Human-readable name.
    pub name: String,
    start: u16,
    end: u16,
    armed_at: Option<u64>,
    results: Vec<u64>,
}

impl Probe {
    /// Completed measurements, in order.
    pub fn results(&self) -> &[u64] {
        &self.results
    }

    /// First completed measurement.
    pub fn first(&self) -> Option<u64> {
        self.results.first().copied()
    }
}

#[derive(Debug)]
struct TickTimer {
    enabled: bool,
    irq_en: bool,
    compare: u8,
    counter: u64,
}

impl TickTimer {
    fn period(&self) -> u64 {
        io::PRESCALER as u64 * (self.compare as u64 + 1)
    }
    fn cycles_to_fire(&self) -> Option<u64> {
        (self.enabled && self.irq_en).then(|| self.period() - self.counter)
    }
}

/// The board's memory and peripherals, visible to the CPU as a [`Bus`].
#[derive(Debug)]
struct MicaBus {
    program: Vec<u16>,
    /// `program` decoded once, up to its last nonzero word: flash
    /// fetches are side-effect free, so [`Bus::decode`] is a table
    /// lookup, and the all-zero flash past the image decodes as
    /// [`Predecoded::get`] answers past its end.
    predecoded: Predecoded,
    ram: Vec<u8>,
    led: u8,
    power_ctrl: u8,
    timer: TickTimer,
    adc_busy: Option<u64>,
    adc_data: u8,
    radio_rxlen: u8,
    senddone_in: Option<u64>,
    tx_capture: Option<Vec<u8>>,
    pending: u8, // bitmask over vectors 1..=4
    /// The board's clock: the current cycle (latency timestamps read
    /// it).
    now: u64,
    /// Cycle at which each pending vector was asserted.
    pending_since: [u64; 8],
    /// Bitmask: vector was asserted while the CPU slept.
    sleep_at_assert: u8,
    /// Bitmask of vectors asserted since the last board drain (trace).
    newly: u8,
    /// Whether the CPU was sleeping (fed by the board).
    cpu_sleeping: bool,
    /// Assert→dispatch wait distribution (cycles).
    irq_service: Log2Histogram,
    /// Assert→dispatch wait for asserts that arrived while sleeping.
    wake_latency: Log2Histogram,
    /// Events asserted per vector.
    raised_by_vec: [u64; 8],
    /// Most recent dispatch (vector, waited), drained by the board.
    last_dispatch: Option<(u8, u64)>,
}

impl MicaBus {
    fn new(image: &Image) -> MicaBus {
        let mut program = vec![0; 65_536];
        ulp_mcu8::load_words(&mut program, image);
        let used = program.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
        MicaBus {
            predecoded: Predecoded::from_words(&program[..used]),
            program,
            ram: vec![0; RAM_SIZE],
            led: 0,
            power_ctrl: 0,
            timer: TickTimer {
                enabled: false,
                irq_en: false,
                compare: 255,
                counter: 0,
            },
            adc_busy: None,
            adc_data: 0,
            radio_rxlen: 0,
            senddone_in: None,
            tx_capture: None,
            pending: 0,
            now: 0,
            pending_since: [0; 8],
            sleep_at_assert: 0,
            newly: 0,
            cpu_sleeping: false,
            irq_service: Log2Histogram::new(),
            wake_latency: Log2Histogram::new(),
            raised_by_vec: [0; 8],
            last_dispatch: None,
        }
    }

    /// Assert interrupt vector `v`, timestamping first asserts (a vector
    /// already pending keeps its original timestamp — the AVR's one-deep
    /// interrupt flags behave the same way).
    fn raise(&mut self, v: u8) {
        if self.pending & (1 << v) == 0 {
            self.pending_since[v as usize] = self.now;
            if self.cpu_sleeping {
                self.sleep_at_assert |= 1 << v;
            } else {
                self.sleep_at_assert &= !(1 << v);
            }
        }
        self.pending |= 1 << v;
        self.newly |= 1 << v;
        self.raised_by_vec[v as usize] += 1;
    }

    fn ram_read(&self, addr: u16) -> u8 {
        let a = addr.wrapping_sub(RAM_BASE) as usize;
        self.ram.get(a).copied().unwrap_or(0)
    }

    fn ram_write(&mut self, addr: u16, value: u8) {
        let a = addr.wrapping_sub(RAM_BASE) as usize;
        if let Some(slot) = self.ram.get_mut(a) {
            *slot = value;
        }
    }
}

impl Bus for MicaBus {
    fn fetch(&mut self, pc: u16) -> u16 {
        self.program[pc as usize]
    }
    fn decode(&mut self, pc: u16) -> DecodedInsn {
        self.predecoded.get(pc)
    }
    fn read(&mut self, addr: u16) -> u8 {
        self.ram_read(addr)
    }
    fn write(&mut self, addr: u16, value: u8) {
        self.ram_write(addr, value);
    }
    fn io_read(&mut self, addr: u8) -> u8 {
        match addr {
            io::LED => self.led,
            io::TIMER_CTRL => (self.timer.enabled as u8) | ((self.timer.irq_en as u8) << 1),
            io::TIMER_COMPARE => self.timer.compare,
            io::ADC_CTRL => self.adc_busy.is_some() as u8,
            io::ADC_DATA => self.adc_data,
            io::RADIO_RXLEN => self.radio_rxlen,
            io::POWER_CTRL => self.power_ctrl,
            _ => 0,
        }
    }
    fn io_write(&mut self, addr: u8, value: u8) {
        match addr {
            io::LED => self.led = value,
            io::TIMER_CTRL => {
                self.timer.enabled = value & 1 != 0;
                self.timer.irq_en = value & 2 != 0;
                if !self.timer.enabled {
                    self.timer.counter = 0;
                }
            }
            io::TIMER_COMPARE => self.timer.compare = value,
            io::ADC_CTRL if value == 1 && self.adc_busy.is_none() => {
                self.adc_busy = Some(io::ADC_LATENCY);
            }
            io::RADIO_SEND => {
                let len = (value as u16).min(io::PKT_BUF_LEN) as usize;
                let mut pkt = Vec::with_capacity(len);
                for i in 0..len {
                    pkt.push(self.ram_read(io::TXBUF + i as u16));
                }
                let airtime_us = PhyTiming::default().frame_airtime_us(len);
                self.senddone_in = Some((airtime_us * 1e-6 * io::CPU_HZ) as u64);
                self.tx_capture = Some(pkt);
            }
            io::POWER_CTRL => self.power_ctrl = value,
            _ => {}
        }
    }
    fn pending_irq(&mut self) -> Option<u8> {
        if self.pending == 0 {
            return None;
        }
        let v = self.pending.trailing_zeros() as u8;
        self.pending &= !(1 << v);
        let waited = self.now.saturating_sub(self.pending_since[v as usize]);
        self.irq_service.record(waited);
        if self.sleep_at_assert & (1 << v) != 0 {
            self.wake_latency.record(waited);
        }
        self.sleep_at_assert &= !(1 << v);
        self.last_dispatch = Some((v, waited));
        Some(v)
    }
}

/// The assembled Mica2 board.
pub struct Mica2Board {
    cpu: Cpu,
    bus: MicaBus,
    probes: Vec<Probe>,
    rx_schedule: VecDeque<(Cycles, Vec<u8>)>,
    sent: Vec<(Cycles, Vec<u8>)>,
    adc_source: Box<dyn FnMut(Cycles) -> u8 + Send>,
    mode_cycles: [u64; 3],
    adc_conversions: u64,
    exec_trace_cap: usize,
    exec_trace: VecDeque<(u64, u16)>,
    trace: TraceBuffer,
    sent_total: u64,
}

impl std::fmt::Debug for Mica2Board {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mica2Board")
            .field("now", &self.bus.now)
            .field("pc", &self.cpu.pc)
            .field("sleeping", &self.cpu.sleeping())
            .finish_non_exhaustive()
    }
}

impl Mica2Board {
    /// A board with the given program image and ADC signal source.
    ///
    /// # Panics
    ///
    /// Panics on odd-sized/odd-origin segments or images past the 128 KB
    /// flash.
    pub fn new(image: &Image, adc_source: Box<dyn FnMut(Cycles) -> u8 + Send>) -> Mica2Board {
        Mica2Board {
            cpu: Cpu::new(),
            bus: MicaBus::new(image),
            probes: Vec::new(),
            rx_schedule: VecDeque::new(),
            sent: Vec::new(),
            adc_source,
            mode_cycles: [0; 3],
            adc_conversions: 0,
            exec_trace_cap: 0,
            exec_trace: VecDeque::new(),
            trace: TraceBuffer::new(65_536),
            sent_total: 0,
        }
    }

    /// The typed trace buffer (enable to record IRQ, radio, and CPU
    /// sleep/wake events for Perfetto/CSV export).
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// Mutable trace buffer (enable/disable).
    pub fn trace_mut(&mut self) -> &mut TraceBuffer {
        &mut self.trace
    }

    /// Assert→dispatch interrupt service latency (cycles).
    pub fn irq_service_latency(&self) -> &Log2Histogram {
        &self.bus.irq_service
    }

    /// Assert→dispatch latency for interrupts that had to wake the CPU
    /// out of sleep (the event-service latency a ULP comparison cares
    /// about).
    pub fn wake_latency(&self) -> &Log2Histogram {
        &self.bus.wake_latency
    }

    /// Snapshot counters and histograms into a deterministic registry.
    pub fn metrics_snapshot(&self) -> Metrics {
        let mut m = Metrics::new();
        m.insert_histogram("irq.service_latency", &self.bus.irq_service);
        m.insert_histogram("mcu.wake_latency", &self.bus.wake_latency);
        let (active, idle, psave) = self.mode_cycles();
        m.counter_add("cpu.active_cycles", active);
        m.counter_add("cpu.idle_sleep_cycles", idle);
        m.counter_add("cpu.power_save_cycles", psave);
        m.counter_add("adc.conversions", self.adc_conversions);
        m.counter_add("radio.sent", self.sent_total);
        for (v, &n) in self.bus.raised_by_vec.iter().enumerate() {
            if n > 0 {
                m.counter_add(&format!("irq.events.{v}"), n);
            }
        }
        m.counter_add("trace.dropped", self.trace.dropped());
        m
    }

    /// Record `IrqAssert` trace events for vectors asserted since the
    /// last drain (always clears the mask so stale bits cannot leak into
    /// a later-enabled trace).
    fn drain_irq_asserts(&mut self) {
        let mut newly = std::mem::take(&mut self.bus.newly);
        if !self.trace.is_enabled() {
            return;
        }
        while newly != 0 {
            let v = newly.trailing_zeros() as u8;
            newly &= newly - 1;
            self.trace
                .record(self.now(), "irq", TraceKind::IrqAssert { irq: v });
        }
    }

    /// Enable an execution trace keeping the last `capacity` executed
    /// instructions (Atemu-style debugging). Zero disables tracing.
    pub fn set_exec_trace(&mut self, capacity: usize) {
        self.exec_trace_cap = capacity;
        self.exec_trace.clear();
    }

    /// The recorded (cycle, word PC) execution trace, oldest first.
    pub fn exec_trace(&self) -> impl Iterator<Item = (u64, u16)> + '_ {
        self.exec_trace.iter().copied()
    }

    /// The execution trace as disassembled listing lines.
    pub fn exec_trace_listing(&self) -> Vec<String> {
        self.exec_trace
            .iter()
            .map(|&(cycle, pc)| {
                let insn = self.bus.predecoded.get(pc).insn;
                format!("{cycle:>10}  {:04x}: {insn}", pc as u32 * 2)
            })
            .collect()
    }

    /// Register a probe between two image symbols (byte addresses).
    ///
    /// # Panics
    ///
    /// Panics if either symbol is missing or odd; use
    /// [`try_probe_symbols`](Mica2Board::try_probe_symbols) for a
    /// fallible variant.
    pub fn probe_symbols(&mut self, image: &Image, name: &str, start: &str, end: &str) -> ProbeId {
        self.try_probe_symbols(image, name, start, end)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`probe_symbols`](Mica2Board::probe_symbols) with a typed error
    /// instead of a panic, for callers probing images they did not
    /// assemble themselves.
    pub fn try_probe_symbols(
        &mut self,
        image: &Image,
        name: &str,
        start: &str,
        end: &str,
    ) -> Result<ProbeId, ProbeError> {
        let resolve = |sym: &str| -> Result<u16, ProbeError> {
            let v = image
                .symbol(sym)
                .ok_or_else(|| ProbeError::MissingSymbol(sym.to_string()))?;
            if v % 2 != 0 {
                return Err(ProbeError::UnalignedSymbol {
                    symbol: sym.to_string(),
                    addr: v,
                });
            }
            Ok((v / 2) as u16)
        };
        let start = resolve(start)?;
        let end = resolve(end)?;
        self.probes.push(Probe {
            name: name.to_string(),
            start,
            end,
            armed_at: None,
            results: Vec::new(),
        });
        Ok(ProbeId(self.probes.len() - 1))
    }

    /// A registered probe's state.
    pub fn probe(&self, id: ProbeId) -> &Probe {
        &self.probes[id.0]
    }

    /// The CPU (read-only).
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// A RAM byte (data address).
    pub fn ram(&self, addr: u16) -> u8 {
        self.bus.ram_read(addr)
    }

    /// Write a RAM byte (test setup).
    pub fn poke_ram(&mut self, addr: u16, value: u8) {
        self.bus.ram_write(addr, value);
    }

    /// Record a fault injection and its observed disposition into the
    /// board trace (no-ops while the trace is disabled, like every other
    /// probe).
    fn record_fault(&mut self, fault: FaultKind, disposition: FaultDisposition) {
        let now = self.now();
        self.trace
            .record(now, "fault", TraceKind::FaultInjected { fault });
        self.trace.record(
            now,
            "fault",
            TraceKind::FaultAbsorbed { fault, disposition },
        );
    }

    /// Fault-injection hook: assert interrupt vector `v` with no
    /// hardware cause (an EMI ghost edge). Returns `true` if the ghost
    /// perturbed state (degraded) — `false` means it was absorbed
    /// because the vector was already pending (one-deep AVR flag) or
    /// out of range. Either way the injection is traced.
    pub fn inject_spurious_irq(&mut self, v: u8) -> bool {
        let fault = FaultKind::SpuriousIrq { line: v };
        let degraded = v < 8 && self.bus.pending & (1 << v) == 0;
        if degraded {
            self.bus.raise(v);
        }
        self.record_fault(
            fault,
            if degraded {
                FaultDisposition::Degraded
            } else {
                FaultDisposition::Absorbed
            },
        );
        degraded
    }

    /// Fault-injection hook: lose the pending edge on vector `v` before
    /// the CPU dispatches it. Returns `true` if an edge was actually
    /// pending (degraded); `false` means absorbed (nothing to lose).
    pub fn drop_pending_irq(&mut self, v: u8) -> bool {
        let fault = FaultKind::DroppedIrq { line: v };
        let degraded = v < 8 && self.bus.pending & (1 << v) != 0;
        if degraded {
            self.bus.pending &= !(1 << v);
            self.bus.sleep_at_assert &= !(1 << v);
        }
        self.record_fault(
            fault,
            if degraded {
                FaultDisposition::Degraded
            } else {
                FaultDisposition::Absorbed
            },
        );
        degraded
    }

    /// Fault-injection hook: flip bit `bit & 7` of the RAM byte at data
    /// address `addr`. Returns `true` if a mapped byte was hit
    /// (degraded); addresses outside RAM absorb the upset. The Mica2 has
    /// a single always-on SRAM, so the recorded fault uses bank 0.
    pub fn flip_ram_bit(&mut self, addr: u16, bit: u8) -> bool {
        let fault = FaultKind::SramBitFlip { bank: 0, addr, bit };
        let a = addr.wrapping_sub(RAM_BASE) as usize;
        let degraded = if let Some(slot) = self.bus.ram.get_mut(a) {
            *slot ^= 1 << (bit & 7);
            true
        } else {
            false
        };
        self.record_fault(
            fault,
            if degraded {
                FaultDisposition::Degraded
            } else {
                FaultDisposition::Absorbed
            },
        );
        degraded
    }

    /// The LED latch.
    pub fn led(&self) -> u8 {
        self.bus.led
    }

    /// Schedule a packet delivery at absolute cycle `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is not in the future or the packet exceeds the
    /// receive buffer.
    pub fn schedule_rx(&mut self, at: Cycles, bytes: Vec<u8>) {
        assert!(at > self.now(), "rx must be scheduled in the future");
        assert!(bytes.len() <= io::PKT_BUF_LEN as usize, "packet too large");
        let pos = self
            .rx_schedule
            .iter()
            .position(|(t, _)| *t > at)
            .unwrap_or(self.rx_schedule.len());
        self.rx_schedule.insert(pos, (at, bytes));
    }

    /// Drain transmitted packets.
    pub fn take_sent(&mut self) -> Vec<(Cycles, Vec<u8>)> {
        std::mem::take(&mut self.sent)
    }

    /// Cycles spent (active, idle-sleep, power-save).
    pub fn mode_cycles(&self) -> (u64, u64, u64) {
        (
            self.mode_cycles[0],
            self.mode_cycles[1],
            self.mode_cycles[2],
        )
    }

    /// ADC conversions completed.
    pub fn adc_conversions(&self) -> u64 {
        self.adc_conversions
    }

    /// Whether the CPU executed `BREAK` or an invalid opcode.
    pub fn halted(&self) -> bool {
        self.cpu.halted()
    }

    fn deliver_due_rx(&mut self) {
        while let Some((at, _)) = self.rx_schedule.front() {
            if at.0 > self.bus.now {
                break;
            }
            let (_, bytes) = self.rx_schedule.pop_front().expect("checked front");
            for (i, b) in bytes.iter().enumerate() {
                self.bus.ram_write(io::RXBUF + i as u16, *b);
            }
            self.bus.radio_rxlen = bytes.len() as u8;
            self.bus.raise(io::vectors::RADIO_RX);
            self.trace
                .record(self.now(), "radio", TraceKind::RadioRxDelivered);
        }
    }

    /// Run the peripherals for `cycles`. A conversion that completes
    /// samples the ADC source at `adc_at`.
    fn advance_peripherals(&mut self, cycles: u64, adc_at: Cycles) {
        // Tick timer.
        if self.bus.timer.enabled {
            self.bus.timer.counter += cycles;
            let period = self.bus.timer.period();
            while self.bus.timer.counter >= period {
                self.bus.timer.counter -= period;
                if self.bus.timer.irq_en {
                    self.bus.raise(io::vectors::TIMER);
                }
            }
        }
        // ADC conversion.
        if let Some(rem) = self.bus.adc_busy {
            if rem <= cycles {
                self.bus.adc_busy = None;
                self.bus.adc_data = (self.adc_source)(adc_at);
                self.adc_conversions += 1;
                self.bus.raise(io::vectors::ADC);
            } else {
                self.bus.adc_busy = Some(rem - cycles);
            }
        }
        // Radio send-done.
        if let Some(rem) = self.bus.senddone_in {
            if rem <= cycles {
                self.bus.senddone_in = None;
                self.bus.raise(io::vectors::RADIO_SENDDONE);
            } else {
                self.bus.senddone_in = Some(rem - cycles);
            }
        }
    }

    /// The `mode_cycles` slot the CPU's power mode is charged to:
    /// active, idle sleep or power save.
    fn mode(&self) -> usize {
        if !self.cpu.sleeping() {
            0
        } else if self.bus.power_ctrl == 1 {
            2
        } else {
            1
        }
    }

    /// One engine step: one instruction, interrupt dispatch or sleep
    /// cycle, the clock advancing by its cycle count. [`step`] and the
    /// wake bursts of [`idle_advance`] both take it, so a burst is the
    /// engine's own loop. Trace and exec-trace observation sit behind
    /// one check; with nothing watching, the assert mask and the last
    /// dispatch are cleared so stale ones cannot leak into a trace
    /// enabled later.
    ///
    /// [`step`]: Simulatable::step
    /// [`idle_advance`]: Simulatable::idle_advance
    #[inline]
    fn step_once(&mut self) -> StepOutcome {
        let watching = self.trace.is_enabled() || self.exec_trace_cap > 0;
        if self
            .rx_schedule
            .front()
            .is_some_and(|(at, _)| at.0 <= self.bus.now)
        {
            self.deliver_due_rx();
        }
        if watching {
            self.observe_before();
        }
        let (pc, now) = (self.cpu.pc, self.bus.now);
        // Probe watchpoints observe the PC between instructions.
        for p in &mut self.probes {
            if p.armed_at.is_none() && pc == p.start {
                p.armed_at = Some(now);
            } else if let Some(t0) = p.armed_at {
                if pc == p.end {
                    p.results.push(now - t0);
                    p.armed_at = None;
                }
            }
        }
        let mode = self.mode();
        let was_sleeping = self.cpu.sleeping();
        let cycles = (self.cpu.step(&mut self.bus) as u64).max(1);
        self.bus.now += cycles;
        self.bus.cpu_sleeping = self.cpu.sleeping();
        self.mode_cycles[mode] += cycles;
        self.advance_peripherals(cycles, self.now());
        if watching {
            self.observe_after(was_sleeping);
        } else {
            self.bus.newly = 0;
            self.bus.last_dispatch = None;
        }
        // Capture any transmission initiated by this instruction.
        if let Some(pkt) = self.bus.tx_capture.take() {
            self.trace.record(
                self.now(),
                "radio",
                TraceKind::RadioTxDone {
                    len: pkt.len() as u8,
                },
            );
            self.sent_total += 1;
            self.sent.push((self.now(), pkt));
        }
        if self.cpu.halted() {
            StepOutcome::Halted
        } else if self.cpu.sleeping() && self.bus.pending == 0 {
            StepOutcome::Idle
        } else {
            StepOutcome::Busy
        }
    }

    /// Before a watched step: the asserts raised since the last drain,
    /// and the exec-trace entry.
    #[inline(never)]
    fn observe_before(&mut self) {
        self.drain_irq_asserts();
        if self.exec_trace_cap > 0 && !self.cpu.sleeping() {
            if self.exec_trace.len() == self.exec_trace_cap {
                self.exec_trace.pop_front();
            }
            self.exec_trace.push_back((self.bus.now, self.cpu.pc));
        }
    }

    /// After a watched step: the asserts it raised, then the dispatch,
    /// wake and sleep edges.
    #[inline(never)]
    fn observe_after(&mut self, was_sleeping: bool) {
        self.drain_irq_asserts();
        let now = self.now();
        if let Some((v, waited)) = self.bus.last_dispatch.take() {
            self.trace
                .record(now, "irq", TraceKind::IrqDispatch { irq: v, waited });
            if was_sleeping {
                // Vector v's jmp slot sits at word 2v = byte address 4v.
                self.trace.record(
                    now,
                    "mcu",
                    TraceKind::McuWake {
                        handler: v as u16 * 4,
                        cause: v,
                    },
                );
            }
        }
        if !was_sleeping && self.cpu.sleeping() {
            self.trace.record(now, "mcu", TraceKind::McuSleep);
        }
    }

    /// Whether the next step could halt the CPU: it executes `BREAK` or
    /// an invalid opcode (or takes an interrupt instead).
    fn may_halt(&self) -> bool {
        !self.cpu.sleeping()
            && matches!(
                self.bus.predecoded.get(self.cpu.pc).insn,
                Insn::Break | Insn::Invalid(_)
            )
    }
}

impl Simulatable for Mica2Board {
    fn now(&self) -> Cycles {
        Cycles(self.bus.now)
    }

    /// One step = one instruction (or one sleep/interrupt cycle); the
    /// clock advances by the instruction's cycle count.
    fn step(&mut self) -> StepOutcome {
        if self.cpu.halted() {
            return StepOutcome::Halted;
        }
        self.step_once()
    }

    fn next_wakeup(&self) -> Option<Cycles> {
        let mut best: Option<u64> = None;
        let mut consider = |c: Option<u64>| {
            if let Some(c) = c {
                best = Some(best.map_or(c, |b| b.min(c)));
            }
        };
        consider(self.bus.timer.cycles_to_fire());
        consider(self.bus.adc_busy);
        consider(self.bus.senddone_in);
        consider(
            self.rx_schedule
                .front()
                .map(|(at, _)| at.0.saturating_sub(self.bus.now)),
        );
        best.map(|d| Cycles(self.bus.now + d.saturating_sub(1).max(1)))
    }

    fn skip_to(&mut self, target: Cycles) {
        debug_assert!(target > self.now());
        let from = self.now();
        let span = (target - from).0;
        self.mode_cycles[self.mode()] += span;
        // Advance peripherals without crossing an event (the engine skips
        // to just before the next wakeup; advance_peripherals handles an
        // exact landing too). Asserts raised exactly at the landing carry
        // the post-skip timestamp; a conversion completing in the skip
        // samples the ADC at its start.
        self.bus.now = target.0;
        self.bus.cpu_sleeping = self.cpu.sleeping();
        self.advance_peripherals(span, from);
        self.drain_irq_asserts();
    }

    /// The engine's skip, then the wake it leads to stepped here, one
    /// [`step`](Simulatable::step) at a time, skip after skip, until
    /// `now` reaches `horizon`: every further step is counted in
    /// `stepped` and the busy ones in `busy`, as the engine's loop would
    /// count them. The burst stops before a step that could halt, so the
    /// engine's own step reports the halt.
    fn idle_advance(&mut self, deadline: Cycles, horizon: Cycles) -> IdleAdvance {
        let mut run = IdleAdvance::default();
        loop {
            let now = self.now();
            if let Some(target) = skip_target(now, self.next_wakeup(), deadline) {
                self.skip_to(target);
                run.skipped += target - now;
            }
            loop {
                if self.now() >= horizon || self.may_halt() {
                    return run;
                }
                run.stepped += Cycles(1);
                if self.step_once() != StepOutcome::Busy {
                    break;
                }
                run.busy += Cycles(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_mcu8::assemble;
    use ulp_sim::Engine;

    fn board(src: &str) -> Mica2Board {
        let img = assemble(src).unwrap();
        Mica2Board::new(&img, Box::new(|_| 123))
    }

    fn run_to_halt(b: &mut Mica2Board, max: u64) {
        let mut engine_steps = 0;
        while !b.halted() {
            b.step();
            engine_steps += 1;
            assert!(engine_steps < max, "program did not halt");
        }
    }

    #[test]
    fn program_runs_and_halts() {
        let mut b = board("ldi r16, 7\nsts 0x0300, r16\nbreak");
        run_to_halt(&mut b, 100);
        assert_eq!(b.ram(0x0300), 7);
        assert!(b.now().0 >= 3);
    }

    #[test]
    fn trimmed_table_answers_every_pc_as_the_full_table() {
        // Code at both ends of a gap, ending in a two-word `sts` whose
        // operand word is the image's last.
        let img = assemble("ldi r16, 7\nbreak\n.org 0x2000\nnop\nsts 0x0300, r16").unwrap();
        let bus = MicaBus::new(&img);
        assert_eq!(bus.predecoded.len(), 0x1000 + 3);
        let full = Predecoded::from_words(&bus.program);
        for pc in 0..=u16::MAX {
            assert_eq!(bus.predecoded.get(pc), full.get(pc), "pc {pc:#06x}");
        }
    }

    #[test]
    #[should_panic(expected = "program image too large")]
    fn image_past_flash_end_is_rejected() {
        board(".org 0x20000\nnop");
    }

    #[test]
    fn tick_timer_fires_interrupt() {
        // Vector table: reset → main; timer vector increments r20 count
        // in RAM.
        let src = r#"
            .org 0
            jmp main
            jmp tick            ; vector 1 at word 2
        main:
            ldi r16, 0xFF       ; SP init
            out 0x3D, r16
            ldi r16, 0x10
            out 0x3E, r16
            ldi r16, 9          ; compare: tick = 32×10 = 320 cycles
            out 0x12, r16
            ldi r16, 3          ; enable | irq
            out 0x11, r16
            sei
        loop:
            sleep
            rjmp loop
        tick:
            push r16
            lds r16, 0x0310
            inc r16
            sts 0x0310, r16
            pop r16
            reti
        "#;
        let b = board(src);
        let mut engine = Engine::new(b);
        engine.run_until_cycle(Cycles(3300));
        let b = engine.machine();
        // ~3300 cycles / 320 per tick ≈ 10 ticks (setup costs a few).
        let ticks = b.ram(0x0310);
        assert!((9..=10).contains(&ticks), "got {ticks} ticks");
    }

    #[test]
    fn idle_skip_matches_full_stepping() {
        let src = r#"
            .org 0
            jmp main
            jmp tick
        main:
            ldi r16, 0xFF
            out 0x3D, r16
            ldi r16, 0x10
            out 0x3E, r16
            ldi r16, 99
            out 0x12, r16
            ldi r16, 3
            out 0x11, r16
            sei
        loop:
            sleep
            rjmp loop
        tick:
            push r16
            lds r16, 0x0310
            inc r16
            sts 0x0310, r16
            pop r16
            reti
        "#;
        let run = |ff: bool| {
            let b = board(src);
            let mut e = Engine::new(b);
            e.set_fast_forward(ff);
            e.run_until_cycle(Cycles(50_000));
            let m = e.into_machine();
            (m.ram(0x0310), m.mode_cycles())
        };
        let (ticks_fast, modes_fast) = run(true);
        let (ticks_slow, modes_slow) = run(false);
        assert_eq!(ticks_fast, ticks_slow);
        assert_eq!(modes_fast.0, modes_slow.0, "active cycles must match");
        // Sleep cycles may differ by the step granularity of sleeping.
        let total_fast = modes_fast.0 + modes_fast.1 + modes_fast.2;
        let total_slow = modes_slow.0 + modes_slow.1 + modes_slow.2;
        assert_eq!(total_fast, total_slow);
    }

    #[test]
    fn adc_interrupt_delivers_sample() {
        let src = r#"
            .org 0
            jmp main
            nop
            nop
            jmp adc_done        ; vector 2 at word 4
        main:
            ldi r16, 0xFF
            out 0x3D, r16
            ldi r16, 0x10
            out 0x3E, r16
            sei
            ldi r16, 1
            out 0x14, r16       ; start conversion
        loop:
            sleep
            rjmp loop
        adc_done:
            in r16, 0x15
            sts 0x0320, r16
            reti
        "#;
        let mut e = Engine::new(board(src));
        e.run_until_cycle(Cycles(1_000));
        assert_eq!(e.machine().ram(0x0320), 123);
        assert_eq!(e.machine().adc_conversions(), 1);
    }

    #[test]
    fn radio_send_captures_packet() {
        let src = r#"
            ldi r26, 0x00       ; X = TXBUF
            ldi r27, 0x02
            ldi r16, 0xAA
            st X+, r16
            ldi r16, 0xBB
            st X+, r16
            ldi r16, 2
            out 0x16, r16       ; send 2 bytes
            break
        "#;
        let mut b = board(src);
        run_to_halt(&mut b, 100);
        let sent = b.take_sent();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].1, vec![0xAA, 0xBB]);
    }

    #[test]
    fn rx_injection_raises_interrupt() {
        let src = r#"
            .org 0
            jmp main
            nop
            nop
            nop
            nop
            jmp rx              ; vector 3 at word 6
        main:
            ldi r16, 0xFF
            out 0x3D, r16
            ldi r16, 0x10
            out 0x3E, r16
            sei
        loop:
            sleep
            rjmp loop
        rx:
            in r16, 0x17        ; rx length
            sts 0x0330, r16
            lds r16, 0x0240     ; first RXBUF byte
            sts 0x0331, r16
            reti
        "#;
        let mut b = board(src);
        b.schedule_rx(Cycles(500), vec![0x5A, 1, 2]);
        let mut e = Engine::new(b);
        e.run_until_cycle(Cycles(2_000));
        assert_eq!(e.machine().ram(0x0330), 3);
        assert_eq!(e.machine().ram(0x0331), 0x5A);
    }

    #[test]
    fn probes_measure_segments() {
        let src = r#"
        seg_start:
            ldi r16, 10         ; 1 cycle
        spin:
            dec r16             ; 10 × 1
            brne spin           ; 9×2 + 1
        seg_end:
            break
        "#;
        let img = assemble(src).unwrap();
        let mut b = Mica2Board::new(&img, Box::new(|_| 0));
        let p = b.probe_symbols(&img, "loop10", "seg_start", "seg_end");
        run_to_halt(&mut b, 200);
        assert_eq!(b.probe(p).results(), &[30]);
        assert_eq!(b.probe(p).name, "loop10");
        assert_eq!(b.probe(p).first(), Some(30));
    }

    #[test]
    fn exec_trace_records_and_disassembles() {
        let mut b = board("ldi r16, 7\nsts 0x0300, r16\nbreak");
        b.set_exec_trace(8);
        run_to_halt(&mut b, 100);
        let pcs: Vec<u16> = b.exec_trace().map(|(_, pc)| pc).collect();
        assert_eq!(
            pcs,
            vec![0, 1, 3],
            "ldi at 0, sts at 1 (two words), break at 3"
        );
        let listing = b.exec_trace_listing();
        assert!(listing[0].contains("ldi r16, 7"), "{}", listing[0]);
        assert!(listing[1].contains("sts 0x0300, r16"));
        assert!(listing[2].contains("break"));
        // Capacity bound: re-run with a tiny buffer.
        let mut b = board("ldi r16, 7\nsts 0x0300, r16\nbreak");
        b.set_exec_trace(2);
        run_to_halt(&mut b, 100);
        assert_eq!(b.exec_trace().count(), 2, "ring buffer evicts oldest");
    }

    #[test]
    fn telemetry_measures_wakeups_from_sleep() {
        let src = r#"
            .org 0
            jmp main
            jmp tick
        main:
            ldi r16, 0xFF
            out 0x3D, r16
            ldi r16, 0x10
            out 0x3E, r16
            ldi r16, 9
            out 0x12, r16
            ldi r16, 3
            out 0x11, r16
            sei
        loop:
            sleep
            rjmp loop
        tick:
            reti
        "#;
        let mut b = board(src);
        b.trace_mut().set_enabled(true);
        let mut e = Engine::new(b);
        e.run_until_cycle(Cycles(3_300));
        let b = e.machine();
        assert!(
            !b.irq_service_latency().is_empty(),
            "timer ticks must be serviced"
        );
        assert!(
            !b.wake_latency().is_empty(),
            "ticks arrive while the CPU sleeps"
        );
        // Sleeping CPU services the tick quickly.
        assert!(b.wake_latency().max().unwrap() < 64);
        let m = b.metrics_snapshot();
        assert!(m.counter("irq.events.1").unwrap() > 0, "timer is vector 1");
        assert!(m.histogram("mcu.wake_latency").unwrap().count() > 0);
        // Typed events landed in the trace.
        use ulp_sim::TraceKind;
        assert!(b
            .trace()
            .events()
            .any(|ev| matches!(ev.kind, TraceKind::IrqAssert { irq: 1 })));
        assert!(b
            .trace()
            .events()
            .any(|ev| matches!(ev.kind, TraceKind::McuWake { cause: 1, .. })));
        assert!(b
            .trace()
            .events()
            .any(|ev| matches!(ev.kind, TraceKind::McuSleep)));
    }

    #[test]
    fn fault_hooks_trace_injection_and_disposition() {
        use ulp_sim::fault::{FaultDisposition, FaultKind};
        let mut b = board("ldi r16, 7\nsts 0x0300, r16\nbreak");
        b.trace_mut().set_enabled(true);
        // RAM upset on a mapped byte: degraded, observable via ram().
        b.poke_ram(0x0300, 0x0F);
        assert!(b.flip_ram_bit(0x0300, 7));
        assert_eq!(b.ram(0x0300), 0x8F);
        // Below RAM_BASE: absorbed (no mapped byte to corrupt).
        assert!(!b.flip_ram_bit(0x0010, 0));
        // Ghost edge on a clear vector: degraded; repeat is absorbed
        // (one-deep flag); out-of-range is absorbed.
        assert!(b.inject_spurious_irq(2));
        assert!(!b.inject_spurious_irq(2));
        assert!(!b.inject_spurious_irq(9));
        // Lose the ghost edge again: degraded once, then absorbed.
        assert!(b.drop_pending_irq(2));
        assert!(!b.drop_pending_irq(2));
        let events: Vec<_> = b.trace().events().map(|e| e.kind.clone()).collect();
        let injected = events
            .iter()
            .filter(|k| matches!(k, TraceKind::FaultInjected { .. }))
            .count();
        assert_eq!(injected, 7, "every injection traced");
        assert!(events.contains(&TraceKind::FaultAbsorbed {
            fault: FaultKind::SramBitFlip {
                bank: 0,
                addr: 0x0300,
                bit: 7
            },
            disposition: FaultDisposition::Degraded,
        }));
        assert!(events.contains(&TraceKind::FaultAbsorbed {
            fault: FaultKind::SpuriousIrq { line: 9 },
            disposition: FaultDisposition::Absorbed,
        }));
    }

    #[test]
    fn dropped_irq_fault_really_suppresses_dispatch() {
        // A ghost edge asserted while the CPU sleeps, then lost before
        // the next step: the handler never runs. Without the drop, the
        // very same edge wakes the CPU and runs the handler once.
        let src = r#"
            .org 0
            jmp main
            jmp tick
        main:
            ldi r16, 0xFF
            out 0x3D, r16
            ldi r16, 0x10
            out 0x3E, r16
            sei
        loop:
            sleep
            rjmp loop
        tick:
            lds r16, 0x0310
            inc r16
            sts 0x0310, r16
            reti
        "#;
        let run = |drop_it: bool| {
            let b = board(src);
            let mut e = Engine::new(b);
            e.run_until_cycle(Cycles(100)); // CPU is asleep by now
            assert!(e.machine().cpu().sleeping());
            assert!(e.machine_mut().inject_spurious_irq(1));
            if drop_it {
                assert!(e.machine_mut().drop_pending_irq(1));
            }
            e.run_until_cycle(Cycles(400));
            e.into_machine().ram(0x0310)
        };
        assert_eq!(run(false), 1, "undropped edge wakes and dispatches");
        assert_eq!(run(true), 0, "dropped edge never dispatches");
    }

    #[test]
    fn power_save_mode_accounted() {
        let src = r#"
            ldi r16, 1
            out 0x18, r16       ; power-save
            sleep
            break
        "#;
        let mut b = board(src);
        for _ in 0..10 {
            b.step();
        }
        let (_active, idle, psave) = b.mode_cycles();
        assert_eq!(idle, 0);
        assert!(psave > 0, "sleeping cycles in power-save");
    }
}
