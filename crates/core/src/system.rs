//! The assembled system (Figure 1): event processor and microcontroller
//! masters, the slave fabric, per-cycle energy accounting, and the
//! idle-skip integration with the simulation engine.

use crate::event_processor::{EpAction, EventProcessor};
use crate::map::{self, Irq};
use crate::mcu::{Mcu, McuError};
use crate::periods::{push_bytes, Iteration, Periods, Snapshot};
use crate::power::{SystemPower, WakeLatency};
use crate::slaves::{BusError, SensorBlock, SensorModel, Slaves, Touched};
use std::collections::VecDeque;
use std::fmt;
use ulp_sim::fault::{FaultDisposition, FaultKind, FaultPlan, FaultStats};
use ulp_sim::perf::{PhaseId, Profiler};
use ulp_sim::repeat::{Repeat, RepeatWatch, Totals};
use ulp_sim::telemetry::{Log2Histogram, Metrics};
use ulp_sim::{
    skip_target, Cycles, Draw, Energy, EnergyMeter, Frequency, IdleAdvance, Interval, MeterId,
    Power, PowerMode, PowerSpec, Simulatable, StepOutcome, TraceBuffer, TraceKind,
};
use ulp_sram::{BankedSram, SramConfig};

/// Configuration of a system instance.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// System clock (paper: 100 kHz, sized by the 802.15.4 byte rate).
    pub clock: Frequency,
    /// Component power specifications (Table 5).
    pub power: SystemPower,
    /// Wake-handshake latencies.
    pub wake: WakeLatency,
    /// Main-memory configuration (Table 3).
    pub sram: SramConfig,
    /// 802.15.4 PAN id.
    pub pan: u16,
    /// This node's short address.
    pub address: u16,
    /// Default destination (base station).
    pub dest: u16,
    /// Trace buffer capacity.
    pub trace_capacity: usize,
    /// Keep transmitted frames in the outbox (disable for year-long
    /// lifetime runs to bound memory).
    pub collect_outbox: bool,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            clock: Frequency::from_khz(100.0),
            power: SystemPower::paper(),
            wake: WakeLatency::paper(),
            sram: SramConfig::paper(),
            pan: 0x0022,
            address: 0x0001,
            dest: 0x0000,
            trace_capacity: 65_536,
            collect_outbox: true,
        }
    }
}

/// Injected supply sags of at least this many cycles exceed the
/// survivable envelope: retention flops lose state and the node halts
/// (a [`SystemFault::Brownout`]). Shorter sags reset the control fabric
/// (EP, arbiter, µC) but the node recovers.
pub const BROWNOUT_FATAL_CYCLES: u64 = 64;

/// A fatal simulation fault (an ISR or handler bug, or an injected
/// hardware fault beyond the survivable envelope).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemFault {
    /// Event-processor bus fault.
    Bus(BusError),
    /// Microcontroller fault.
    Mcu(McuError),
    /// Injected supply sag of [`BROWNOUT_FATAL_CYCLES`] or more.
    Brownout {
        /// Sag duration in cycles.
        duration: u16,
    },
}

impl fmt::Display for SystemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemFault::Bus(e) => write!(f, "event processor: {e}"),
            SystemFault::Mcu(e) => write!(f, "{e}"),
            SystemFault::Brownout { duration } => {
                write!(f, "brownout: {duration}-cycle supply sag below retention")
            }
        }
    }
}

impl std::error::Error for SystemFault {}

/// Meter handles for every accounted component.
#[derive(Debug, Clone, Copy)]
pub struct MeterIds {
    /// Event processor.
    pub ep: MeterId,
    /// Timer subsystem.
    pub timer: MeterId,
    /// Threshold filter.
    pub filter: MeterId,
    /// Message processor.
    pub msgproc: MeterId,
    /// Microcontroller.
    pub mcu: MeterId,
    /// Main memory (energy from the SRAM model).
    pub memory: MeterId,
    /// Radio (zero-power commodity part; utilization only).
    pub radio: MeterId,
    /// Sensor block (zero-power commodity part; utilization only).
    pub sensor: MeterId,
}

/// The full sensor-node system.
pub struct System {
    config: SystemConfig,
    now: Cycles,
    slaves: Slaves,
    ep: EventProcessor,
    mcu: Mcu,
    meter: EnergyMeter,
    ids: MeterIds,
    trace: TraceBuffer,
    rx_queue: VecDeque<(Cycles, Vec<u8>)>,
    outbox: Vec<(Cycles, Vec<u8>)>,
    fault: Option<SystemFault>,
    busy_cycles: Cycles,
    /// Cycles covered by skips so far, repeated ones included.
    skipped: Cycles,
    mem_energy_mark: Energy,
    /// IRQ→µC-running latency distribution (cycles).
    mcu_wake_hist: Log2Histogram,
    /// Idle-skip span lengths (cycles per fast-forward jump).
    idle_skip_hist: Log2Histogram,
    /// Busy (bus-occupied) cycles per engine epoch.
    bus_occupancy_hist: Log2Histogram,
    /// `busy_cycles` at the last epoch boundary.
    epoch_busy_mark: Cycles,
    /// Radio TX line state last cycle (edge detector for trace events).
    prev_transmitting: bool,
    /// Scheduled hardware faults (`None` — the default — keeps the hot
    /// path to a single branch, mirroring the trace buffer).
    fault_plan: Option<FaultPlan>,
    /// Disposition tally of injected faults.
    fault_stats: FaultStats,
    /// Outgoing frames still to be corrupted by injected radio byte
    /// errors (one byte per frame while nonzero).
    tx_corrupt_remaining: u32,
    /// Host-side profiler handles (`None` — the default — keeps every
    /// probe to a single untaken branch, like tracing).
    prof: Option<SysProf>,
    /// The watch for repeated states at period boundaries (see
    /// `idle_advance`).
    periods: Periods,
}

/// Pre-resolved span handles for the system's profiled phases.
struct SysProf {
    profiler: Profiler,
    fault_apply: PhaseId,
    event_dispatch: PhaseId,
    fetch_decode_execute: PhaseId,
    telemetry_export: PhaseId,
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("now", &self.now)
            .field("busy_cycles", &self.busy_cycles)
            .field("fault", &self.fault)
            .finish_non_exhaustive()
    }
}

impl System {
    /// Build a system with the given sensor signal model.
    pub fn new(config: SystemConfig, sensor: Box<dyn SensorModel + Send>) -> System {
        let mut meter = EnergyMeter::new(config.clock);
        // Registration order is the order of `System::draws`.
        let ids = MeterIds {
            ep: meter.register("event_processor", config.power.event_processor),
            timer: meter.register("timer", config.power.timer),
            filter: meter.register("filter", config.power.filter),
            msgproc: meter.register("msgproc", config.power.msgproc),
            mcu: meter.register("mcu", config.power.mcu),
            memory: meter.register("memory", PowerSpec::zero()),
            radio: meter.register("radio", config.power.radio),
            sensor: meter.register("sensor", config.power.sensor),
        };
        let mut slaves = Slaves::new(
            BankedSram::new(config.sram.clone()),
            SensorBlock::new(sensor),
            config.clock.hz(),
        );
        slaves
            .msgproc
            .configure_addressing(config.pan, config.address, config.dest);
        let trace = TraceBuffer::new(config.trace_capacity);
        System {
            config,
            now: Cycles::ZERO,
            slaves,
            ep: EventProcessor::new(),
            mcu: Mcu::new(),
            meter,
            ids,
            trace,
            rx_queue: VecDeque::new(),
            outbox: Vec::new(),
            fault: None,
            busy_cycles: Cycles::ZERO,
            skipped: Cycles::ZERO,
            mem_energy_mark: Energy::ZERO,
            mcu_wake_hist: Log2Histogram::new(),
            idle_skip_hist: Log2Histogram::new(),
            bus_occupancy_hist: Log2Histogram::new(),
            epoch_busy_mark: Cycles::ZERO,
            prev_transmitting: false,
            fault_plan: None,
            fault_stats: FaultStats::default(),
            tx_corrupt_remaining: 0,
            prof: None,
            periods: Periods::default(),
        }
    }

    /// Attach a host-side [`Profiler`]. Each simulated cycle is then
    /// attributed to `sys.fault_apply` (only while a fault plan is
    /// installed), `sys.event_dispatch` (medium delivery, slave tick,
    /// IRQ assertion), and `sys.fetch_decode_execute` (the EP/µC
    /// masters); [`telemetry_snapshot`](System::telemetry_snapshot)
    /// becomes a `telemetry.export` span. The `sys.quiet_repeated`
    /// counter totals the quiet iterations the idle advance repeated in
    /// a jump rather than stepped, and `sys.periods_repeated`, added once
    /// a jump of whole periods happens, the sample periods it repeated
    /// that way. Call counts and counters are
    /// deterministic; the profiler only observes and never changes guest
    /// behaviour.
    pub fn set_profiler(&mut self, profiler: &Profiler) {
        profiler.counter_add("sys.quiet_repeated", 0);
        self.prof = Some(SysProf {
            profiler: profiler.clone(),
            fault_apply: profiler.phase("sys.fault_apply"),
            event_dispatch: profiler.phase("sys.event_dispatch"),
            fetch_decode_execute: profiler.phase("sys.fetch_decode_execute"),
            telemetry_export: profiler.phase("telemetry.export"),
        });
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The slave fabric (timers, message processor, radio, ...).
    pub fn slaves(&self) -> &Slaves {
        &self.slaves
    }

    /// Mutable slave fabric (initialisation and tests).
    pub fn slaves_mut(&mut self) -> &mut Slaves {
        self.periods.forget();
        &mut self.slaves
    }

    /// The event processor.
    pub fn ep(&self) -> &EventProcessor {
        &self.ep
    }

    /// The microcontroller.
    pub fn mcu(&self) -> &Mcu {
        &self.mcu
    }

    /// The energy meter.
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Meter handles per component.
    pub fn meter_ids(&self) -> MeterIds {
        self.ids
    }

    /// The trace buffer (enable to observe EP state transitions).
    pub fn trace_mut(&mut self) -> &mut TraceBuffer {
        self.periods.forget();
        &mut self.trace
    }

    /// Recorded trace events.
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// IRQ→µC wake latency distribution: raise → first µC-powered cycle,
    /// including the arbiter wait, the EP's WAKEUP ISR, and the µC
    /// wake-handshake stall.
    pub fn mcu_wake_latency(&self) -> &Log2Histogram {
        &self.mcu_wake_hist
    }

    /// Idle-skip span-length distribution (cycles per fast-forward jump).
    pub fn idle_skip_spans(&self) -> &Log2Histogram {
        &self.idle_skip_hist
    }

    /// Busy-cycles-per-epoch distribution, sampled by the engine's
    /// [`on_epoch`](Simulatable::on_epoch) hook (enable with
    /// `Engine::set_epoch`).
    pub fn bus_occupancy(&self) -> &Log2Histogram {
        &self.bus_occupancy_hist
    }

    /// Snapshot every counter and histogram into a [`Metrics`] registry
    /// (deterministic insertion order, so exports are byte-stable).
    pub fn telemetry_snapshot(&self) -> Metrics {
        let _span = self
            .prof
            .as_ref()
            .map(|p| p.profiler.enter(p.telemetry_export));
        let mut m = Metrics::new();
        m.insert_histogram("irq.service_latency", self.slaves.irqs.service_latency());
        m.insert_histogram("mcu.wake_latency", &self.mcu_wake_hist);
        m.insert_histogram("engine.idle_skip_span", &self.idle_skip_hist);
        m.insert_histogram("bus.busy_per_epoch", &self.bus_occupancy_hist);
        m.counter_add("irq.raised", self.slaves.irqs.raised());
        m.counter_add("irq.dropped", self.slaves.irqs.dropped());
        m.counter_add("irq.taken", self.slaves.irqs.taken());
        let ep = self.ep.stats();
        m.counter_add("ep.events", ep.events);
        m.counter_add("ep.instructions", ep.instructions);
        m.counter_add("ep.active_cycles", ep.active_cycles);
        m.counter_add("ep.wait_bus_cycles", ep.wait_bus_cycles);
        let mcu = self.mcu.stats();
        m.counter_add("mcu.wakeups", mcu.wakeups);
        m.counter_add("mcu.instructions", mcu.instructions);
        m.counter_add("mcu.active_cycles", mcu.active_cycles);
        let radio = self.slaves.radio.stats();
        m.counter_add("radio.transmitted", radio.transmitted);
        m.counter_add("radio.received", radio.received);
        m.counter_add("radio.missed", radio.missed);
        let msg = self.slaves.msgproc.stats();
        m.counter_add("msg.prepared", msg.prepared);
        m.counter_add("msg.forwarded", msg.forwarded);
        m.counter_add("msg.duplicates", msg.duplicates);
        m.counter_add("msg.irregular", msg.irregular);
        m.counter_add("msg.decode_errors", msg.decode_errors);
        for (irq, &n) in self.slaves.irqs.raised_by_irq().iter().enumerate() {
            if n > 0 {
                m.counter_add(&format!("irq.events.{irq}"), n);
            }
        }
        // Fault-injection counters appear only once a fault has actually
        // been injected, so unfaulted snapshots stay byte-identical.
        let f = self.fault_stats;
        if f.injected > 0 {
            m.counter_add("fault.injected", f.injected);
            m.counter_add("fault.absorbed", f.absorbed);
            m.counter_add("fault.degraded", f.degraded);
            m.counter_add("fault.fatal", f.fatal);
        }
        if self.slaves.irqs.cleared() > 0 {
            m.counter_add("irq.fault_cleared", self.slaves.irqs.cleared());
        }
        m.counter_add("trace.dropped", self.trace.dropped());
        m
    }

    /// Install a deterministic hardware [`FaultPlan`]. Faults inject at
    /// their scheduled cycle (idle-skip never fast-forwards past one);
    /// every injection is traced as `FaultInjected`/`FaultAbsorbed` and
    /// tallied in [`fault_stats`](System::fault_stats). An empty plan is
    /// discarded, keeping the unfaulted hot path to a single branch.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.periods.forget();
        self.fault_plan = if plan.events().is_empty() {
            None
        } else {
            Some(plan)
        };
    }

    /// Disposition tally of faults injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// The fatal fault, if the simulation hit one.
    pub fn fault(&self) -> Option<&SystemFault> {
        self.fault.as_ref()
    }

    /// Cycles during which compute components (EP, µC, message
    /// processor, sensor conversion, pending interrupts) were busy.
    /// Radio airtime is excluded, matching the paper's methodology of
    /// not counting radio-stack time (§6.1.3).
    pub fn busy_cycles(&self) -> Cycles {
        self.busy_cycles
    }

    /// Whether all compute components are quiescent (the measurement
    /// boundary used for per-event cycle counts).
    pub fn is_quiescent(&self) -> bool {
        self.compute_idle() && !self.slaves.radio.transmitting()
    }

    /// Whether no compute is in flight: EP ready, µC off, no interrupt
    /// pending, message processor and sensor idle. Only the radio may be
    /// busy.
    fn compute_idle(&self) -> bool {
        self.ep.is_ready()
            && !self.mcu.powered()
            && !self.slaves.irqs.any_pending()
            && !self.slaves.msgproc.busy()
            && !self.slaves.sensor.busy()
    }

    /// Average power over the whole simulation so far.
    pub fn average_power(&self) -> Power {
        self.meter.total_average_power(self.now)
    }

    // ------------------------------------------------------------------
    // Initialisation helpers
    // ------------------------------------------------------------------

    /// Load raw bytes into main memory (no energy charged).
    ///
    /// # Panics
    ///
    /// Panics if the image exceeds memory.
    pub fn load(&mut self, origin: u16, bytes: &[u8]) {
        self.periods.forget();
        self.slaves.mem.load(origin, bytes);
    }

    /// Load every segment of an assembled image into main memory.
    ///
    /// # Panics
    ///
    /// Panics if a segment exceeds memory.
    pub fn load_image(&mut self, image: &ulp_isa::asm::Image) {
        for seg in image.segments() {
            self.load(seg.origin as u16, &seg.data);
        }
    }

    /// Point interrupt `irq`'s event-processor vector at `isr_addr`.
    pub fn install_ep_isr(&mut self, irq: u8, isr_addr: u16) {
        self.load(map::EP_VECTORS + irq as u16 * 2, &isr_addr.to_le_bytes());
    }

    /// Point microcontroller vector `vector` at `handler` (byte address).
    pub fn install_mcu_handler(&mut self, vector: u8, handler: u16) {
        self.load(map::MCU_VECTORS + vector as u16 * 2, &handler.to_le_bytes());
    }

    /// Initialisation-time power control (wake latency not modelled;
    /// runtime switching goes through `SWITCHON`/`SWITCHOFF`).
    ///
    /// # Panics
    ///
    /// Panics on an invalid component id.
    pub fn set_component_power(&mut self, id: u8, on: bool) {
        self.periods.forget();
        self.slaves
            .set_power(id, on, &self.config.wake.clone())
            .expect("valid component id");
    }

    /// Power the radio and enable the receiver (nodes that serve as
    /// relays listen continuously; the commodity radio's power is outside
    /// the system budget, as in the paper).
    pub fn radio_listen(&mut self) {
        self.set_component_power(map::Component::Radio as u8, true);
        self.slaves
            .write(map::RADIO_BASE + map::RADIO_CTRL, 2)
            .expect("radio window mapped");
        let _ = self.slaves.take_touched();
    }

    // ------------------------------------------------------------------
    // External stimulus
    // ------------------------------------------------------------------

    /// Schedule a frame delivery at absolute cycle `at` (the timestamp of
    /// the frame's end on air).
    ///
    /// # Panics
    ///
    /// Panics if `at` is not in the future.
    pub fn schedule_rx(&mut self, at: Cycles, bytes: Vec<u8>) {
        assert!(at > self.now, "rx must be scheduled in the future");
        let pos = self
            .rx_queue
            .iter()
            .position(|(t, _)| *t > at)
            .unwrap_or(self.rx_queue.len());
        self.rx_queue.insert(pos, (at, bytes));
    }

    /// Raise an interrupt directly (tests and measurement harnesses).
    pub fn inject_irq(&mut self, id: u8) {
        self.periods.forget();
        self.slaves.irqs.raise(id);
    }

    /// The transmitted frames collected so far, with the cycles their
    /// transmissions completed.
    pub fn outbox(&self) -> &[(Cycles, Vec<u8>)] {
        &self.outbox
    }

    /// Drain the transmitted-frame outbox.
    pub fn take_outbox(&mut self) -> Vec<(Cycles, Vec<u8>)> {
        self.periods.forget();
        std::mem::take(&mut self.outbox)
    }

    // ------------------------------------------------------------------
    // The cycle loop
    // ------------------------------------------------------------------

    fn step_cycle(&mut self) -> StepOutcome {
        if self.fault.is_some() {
            return StepOutcome::Halted;
        }
        self.now += Cycles(1);
        let now = self.now;
        // Timestamp the arbiter so raises carry the right cycle for
        // service-latency measurement and IrqAssert trace events.
        self.slaves.irqs.set_now(now);

        // Inject scheduled hardware faults. The plan is `None` unless a
        // non-empty one was installed, so the healthy path is one branch.
        if self.fault_plan.is_some() {
            let _span = self.prof.as_ref().map(|p| p.profiler.enter(p.fault_apply));
            if self.apply_due_faults(now) {
                return StepOutcome::Halted;
            }
        }

        {
            let _span = self
                .prof
                .as_ref()
                .map(|p| p.profiler.enter(p.event_dispatch));

            // Deliver due frames from the medium.
            while let Some((at, _)) = self.rx_queue.front() {
                if *at > now {
                    break;
                }
                let (_, bytes) = self.rx_queue.pop_front().expect("checked front");
                // Input from outside: what the node did before does not
                // predict what it does next.
                self.periods.forget();
                if self.slaves.radio.deliver(&bytes) {
                    self.slaves.irqs.raise(Irq::RadioRxDone.id());
                    self.trace.record(now, "radio", TraceKind::RadioRxDelivered);
                }
            }

            // Slaves advance (timers count, in-flight operations progress).
            self.slaves.tick(now);

            // Emit typed assert events for interrupts raised this cycle.
            if self.trace.is_enabled() {
                let mut newly = self.slaves.irqs.take_newly_raised();
                while newly != 0 {
                    let irq = newly.trailing_zeros() as u8;
                    newly &= newly - 1;
                    self.trace.record(now, "irq", TraceKind::IrqAssert { irq });
                }
            }
        }

        let (ep_active, compute_busy) = {
            let _span = self
                .prof
                .as_ref()
                .map(|p| p.profiler.enter(p.fetch_decode_execute));
            // On a quiescent cycle the EP would step READY → READY and
            // nothing would count the cycle busy, so the masters are not
            // stepped (their span still opens, keeping profiled call
            // counts those of a stepped cycle).
            if self.is_quiescent() {
                (false, false)
            } else {
                match self.step_masters(now) {
                    Ok(activity) => activity,
                    Err(fault) => {
                        self.fault = Some(fault);
                        return StepOutcome::Halted;
                    }
                }
            }
        };

        self.charge_cycle(ep_active);
        if compute_busy {
            self.busy_cycles += Cycles(1);
        }

        // Radio TX edge + completion trace events.
        let transmitting = self.slaves.radio.transmitting();
        if transmitting && !self.prev_transmitting {
            self.trace.record(now, "radio", TraceKind::RadioTxStart);
        }
        self.prev_transmitting = transmitting;
        let sent = self.slaves.radio.take_outbox();
        if !sent.is_empty() {
            self.collect_sent(now, sent);
        }

        // A frame on air is not work (§6.1.3): with nothing else busy the
        // cycle is idle, and `next_wakeup` keeps any skip off the airtime.
        if compute_busy {
            StepOutcome::Busy
        } else {
            StepOutcome::Idle
        }
    }

    /// Step the masters one cycle: the microcontroller owns the bus while
    /// powered; the event processor otherwise (and waits on the bus
    /// meanwhile). Returns whether the EP was active and whether any
    /// compute component was busy this cycle.
    fn step_masters(&mut self, now: Cycles) -> Result<(bool, bool), SystemFault> {
        let mut ep_active = false;
        let mut compute_busy = false;
        if self.mcu.powered() {
            compute_busy = true;
            self.mcu.step(&mut self.slaves).map_err(SystemFault::Mcu)?;
            // Post-instruction system latches (honoured once the
            // requesting instruction's cycles have fully elapsed).
            if !self.mcu.mid_instruction() {
                if self.slaves.sys.mcu_sleep_requested {
                    self.slaves.sys.mcu_sleep_requested = false;
                    self.mcu.sleep();
                    self.trace.record(now, "mcu", TraceKind::McuSleep);
                }
                let requests = std::mem::take(&mut self.slaves.sys.power_requests);
                for (on, id) in requests {
                    self.slaves
                        .set_power(id, on, &self.config.wake)
                        .map_err(SystemFault::Bus)?;
                    if let Some(kind) = map::power_trace_kind(id, on) {
                        self.trace.record(now, "power", kind);
                    }
                }
            }
            // The EP burns a WAIT_BUS cycle if an interrupt is pending.
            let action = self
                .ep
                .step(
                    &mut self.slaves,
                    false,
                    &self.config.wake,
                    &mut self.trace,
                    now,
                )
                .map_err(SystemFault::Bus)?;
            ep_active = action != EpAction::Idle;
        } else {
            let action = self
                .ep
                .step(
                    &mut self.slaves,
                    true,
                    &self.config.wake,
                    &mut self.trace,
                    now,
                )
                .map_err(SystemFault::Bus)?;
            match action {
                EpAction::Idle => {}
                EpAction::Busy => {
                    ep_active = true;
                    compute_busy = true;
                }
                EpAction::WakeMcu { handler, cause } => {
                    ep_active = true;
                    compute_busy = true;
                    self.slaves.sys.wake_cause = cause;
                    self.mcu
                        .wake(handler, self.config.wake.mcu.0)
                        .map_err(SystemFault::Mcu)?;
                    self.trace
                        .record(now, "mcu", TraceKind::McuWake { handler, cause });
                    // Raise → µC running: arbiter wait + EP ISR time
                    // since dispatch + the µC wake-handshake stall.
                    let (taken_at, waited) = self.ep.last_dispatch();
                    let isr = now.0.saturating_sub(taken_at.0);
                    self.mcu_wake_hist
                        .record(waited + isr + self.config.wake.mcu.0);
                }
            }
        }
        if self.slaves.msgproc.busy() || self.slaves.sensor.busy() || self.slaves.irqs.any_pending()
        {
            compute_busy = true;
        }
        Ok((ep_active, compute_busy))
    }

    /// Collect completed transmissions. Injected radio byte errors
    /// corrupt one byte per outgoing frame while the burst lasts.
    fn collect_sent(&mut self, now: Cycles, mut sent: Vec<(Cycles, Vec<u8>)>) {
        if self.tx_corrupt_remaining > 0 {
            for (_, bytes) in sent.iter_mut() {
                if self.tx_corrupt_remaining == 0 {
                    break;
                }
                let mid = bytes.len() / 2;
                if let Some(b) = bytes.get_mut(mid) {
                    *b ^= 0x40;
                }
                self.tx_corrupt_remaining -= 1;
            }
        }
        for (_, bytes) in &sent {
            self.trace.record(
                now,
                "radio",
                TraceKind::RadioTxDone {
                    len: bytes.len() as u8,
                },
            );
        }
        if self.config.collect_outbox {
            self.outbox.extend(sent);
        }
    }

    /// Per-cycle energy accounting from observed component activity,
    /// on the one-cycle quantities the meter caches.
    fn charge_cycle(&mut self, ep_active: bool) {
        let touched = self.slaves.take_touched();
        let draws = self.draws(touched, ep_active);
        self.record(&draws, self.meter.cycle());
        self.meter.charge_cycle(&draws);
        self.slaves.mem.tick(Cycles(1));
        self.sync_memory_energy();
    }

    /// Energy accounting for an idle span: nothing touched, the EP idle.
    fn charge_span(&mut self, span: Interval) {
        let draws = self.draws(Touched::default(), false);
        self.record(&draws, span);
        self.meter.charge_span(&draws, span);
        self.slaves.mem.tick(span.cycles());
        self.sync_memory_energy();
    }

    /// Record a charge of `span` at `draws` on the period tape, if one is
    /// being recorded.
    fn record(&mut self, draws: &[Draw; 8], span: Interval) {
        if let Some(tape) = &mut self.periods.tape {
            let (leak, access) = self.slaves.mem.tick_addends(span.cycles());
            tape.tick(self.meter.addends(draws, span), leak, access);
        }
    }

    fn sync_memory_energy(&mut self) {
        let total = self.slaves.mem.energy();
        let delta = settle(&mut self.mem_energy_mark, total);
        self.meter.charge_energy(self.ids.memory, delta);
    }

    /// Every component's draw this cycle, in registration order, given
    /// the registers `touched` and whether the EP was active: the one
    /// place the modes are chosen. A quiet cycle or an idle span touches
    /// nothing and has the EP idle.
    fn draws(&self, touched: Touched, ep_active: bool) -> [Draw; 8] {
        let slaves = &self.slaves;
        let timer = if !slaves.timer.powered() {
            Draw::Mode(PowerMode::Gated)
        } else if touched.timer {
            Draw::Fraction(1.0)
        } else {
            Draw::Fraction(slaves.timer.counting_fraction())
        };
        let msgproc = slaves.msgproc.busy() || touched.msgproc;
        let radio = slaves.radio.transmitting() || slaves.radio.listening();
        [
            Draw::Mode(mode(true, ep_active)),
            timer,
            Draw::Mode(mode(slaves.filter.powered(), touched.filter)),
            Draw::Mode(mode(slaves.msgproc.powered(), msgproc)),
            Draw::Mode(mode(self.mcu.powered(), true)),
            Draw::Mode(PowerMode::Idle), // memory: time base only
            Draw::Mode(mode(slaves.radio.powered(), radio)),
            Draw::Mode(mode(slaves.sensor.powered(), slaves.sensor.powered())),
        ]
    }

    /// The nine running totals a quiet jump repeats: the eight meter
    /// components' energies, then the SRAM's.
    fn sums(&self) -> [f64; 9] {
        let mut sums = [self.slaves.mem.energy().0; 9];
        for (sum, c) in sums.iter_mut().zip(self.meter.all()) {
            *sum = c.energy.0;
        }
        sums
    }

    /// Charge `k` more quiet iterations of `period` cycles, each adding
    /// what the one `rep` was observed on added.
    fn repeat_charges(&mut self, rep: &Repeat<9>, k: u64, period: u64) {
        let sums = rep.apply(self.sums(), k);
        let cycles = Cycles(k * period);
        let draws = self.draws(Touched::default(), false);
        let energies = std::array::from_fn(|i| Energy(sums[i]));
        self.meter.repeat(&draws, energies, cycles);
        self.slaves.mem.repeat(Energy(sums[8]), cycles);
        self.mem_energy_mark = Energy(sums[8]);
    }

    /// The cycle of the next input from outside the node's own run: the
    /// earlier of the next rx frame and the next scheduled fault.
    fn next_input(&self) -> Option<Cycles> {
        let rx = self.rx_queue.front().map(|(at, _)| *at);
        match self.fault_plan.as_ref().and_then(FaultPlan::next_at) {
            Some(fault) => Some(rx.map_or(fault, |rx| rx.min(fault))),
            None => rx,
        }
    }

    /// Whether the next cycle is quiet: no compute is in flight, a frame
    /// on air does not complete on it, the timers' next tick raises no
    /// interrupt, and no input is due. Such a cycle — a silent underflow,
    /// or a cycle of airtime — steps with no master running, nothing
    /// traced and nothing busy, and returns `Idle`.
    fn silent_next(&self) -> bool {
        self.slaves.timer.next_tick_is_silent()
            && self
                .slaves
                .radio
                .cycles_to_tx_done()
                .is_none_or(|left| left > 1 && self.prev_transmitting)
            && self.compute_idle()
            && self.next_input().is_none_or(|at| at.0 > self.now.0 + 1)
    }

    /// How many iterations of `len` cycles one jump may repeat from
    /// `now`: all of them end by `horizon` and before the next input is
    /// due.
    fn jump_bound(&self, len: u64, horizon: Cycles) -> u64 {
        let now = self.now.0;
        let k = horizon.0.saturating_sub(now) / len;
        self.next_input()
            .map_or(k, |at| k.min(at.0.saturating_sub(now + 1) / len))
    }

    /// How many quiet iterations of `period` cycles (a skip of
    /// `period − 1`, then a quiet cycle) one jump may repeat from the
    /// end of one: as many as [`jump_bound`](System::jump_bound) lets
    /// and the slaves can take (`Slaves::quiet_repeats`). Nothing else
    /// changes in a quiet iteration, so each one repeated would have
    /// been quiet and of the same shape.
    fn quiet_repeats(&self, period: u64, horizon: Cycles) -> u64 {
        self.jump_bound(period, horizon)
            .min(self.slaves.quiet_repeats(period))
    }

    // ------------------------------------------------------------------
    // Repeating whole periods
    // ------------------------------------------------------------------

    /// The node's state key: its whole state as a canonical list of
    /// words, less every running total (meter energies and mode cycles,
    /// busy cycles, SRAM and slave statistics, arbiter counters, timer
    /// alarms, telemetry histograms), with every deadline and cycle stamp
    /// relative to `now`. Two equal keys mean equal futures, as long as
    /// nothing reaches the node from outside. `None` when the state
    /// cannot repeat: the sensor's signal model has no
    /// [`state_key`](crate::slaves::SensorModel::state_key), or bus
    /// lints are being recorded.
    pub fn state_key(&self) -> Option<Vec<u64>> {
        let mut key = Vec::with_capacity(512);
        let keyed = self.write_key(&mut key);
        push_bytes(&mut key, self.slaves.mem.contents());
        keyed.then_some(key)
    }

    /// The state key less the SRAM's bytes, which the period watch
    /// compares on their own.
    fn write_key(&self, key: &mut Vec<u64>) -> bool {
        if !self.slaves.key(key, self.now) {
            return false;
        }
        self.ep.key(key, self.now);
        self.mcu.key(key);
        key.extend([
            self.prev_transmitting as u64,
            self.tx_corrupt_remaining as u64,
        ]);
        key.push(self.fault.is_some() as u64);
        true
    }

    /// Visit every running total the state key leaves out, and the cycle
    /// stamps that move with time.
    fn totals(&mut self, t: &mut dyn Totals) {
        self.meter.totals(t);
        self.slaves.totals(t);
        t.count(&mut self.now.0);
        t.count(&mut self.busy_cycles.0);
        t.count(&mut self.skipped.0);
        self.ep.totals(t);
        self.mcu.totals(t);
        self.mcu_wake_hist.totals(t);
        self.idle_skip_hist.totals(t);
        self.bus_occupancy_hist.totals(t);
    }

    fn read_totals(&mut self) -> Snapshot {
        let mut totals = Snapshot::default();
        self.totals(&mut totals);
        totals
    }

    /// Whether the node is at a period boundary: the cycle before a
    /// timer interrupt, with compute idle and nothing on air.
    fn at_period_boundary(&self) -> bool {
        !self.slaves.radio.transmitting()
            && self.compute_idle()
            && !self.slaves.timer.next_tick_is_silent()
    }

    /// Where the idle chain stopped: at a period boundary before
    /// `horizon`, show the state to the period watch, and repeat the
    /// iteration it recorded. At `horizon` the engine steps on from the
    /// boundary, so it is only counted.
    fn period_boundary(&mut self, horizon: Cycles, run: &mut IdleAdvance) {
        if !self.at_period_boundary() {
            return;
        }
        if self.now >= horizon {
            self.periods.miss();
            return;
        }
        let now = self.now.0;
        if self.periods.pass(now) {
            return;
        }
        let mut key = std::mem::take(&mut self.periods.scratch);
        key.clear();
        let repeated = if self.write_key(&mut key) {
            self.periods.observe(now, &key, self.slaves.mem.contents())
        } else {
            self.periods.forget();
            false
        };
        self.periods.scratch = key;
        if repeated {
            let mut periods = std::mem::take(&mut self.periods);
            let totals = self.read_totals();
            let iteration = periods.come_back(now, &self.outbox, &self.trace, totals);
            if iteration.is_some_and(|it| self.repeat_periods(it, horizon, run)) {
                periods.jumped(self.now.0);
            }
            self.periods = periods;
        }
    }

    /// Repeat `k` more iterations like the recorded `it` from the
    /// boundary the node is at, as many as
    /// [`jump_bound`](System::jump_bound) lets. The state is what it was;
    /// every count grows by `k` times what the iteration added, the sums
    /// take the iteration's addends `k` times more, and the outbox and
    /// the trace get the iteration's frames and events again, shifted by
    /// whole iterations. Returns whether it jumped.
    fn repeat_periods(&mut self, it: &Iteration, horizon: Cycles, run: &mut IdleAdvance) -> bool {
        let now = self.now.0;
        let k = self.jump_bound(it.len, horizon);
        if k == 0 {
            return false;
        }
        for j in 1..=k {
            let end = now + j * it.len;
            self.outbox.extend(
                it.frames
                    .iter()
                    .map(|(before, bytes)| (Cycles(end - before), bytes.clone())),
            );
        }
        self.trace.repeat(&it.trace, it.traced, self.now, it.len, k);
        let mut sums = self.read_totals().sums();
        it.tape.replay(&mut sums, self.ids.memory.index(), k);
        let (busy, skipped) = (self.busy_cycles, self.skipped);
        self.totals(&mut it.advance(&sums, k));
        self.mem_energy_mark = self.slaves.mem.energy();
        let skipped = self.skipped - skipped;
        run.skipped += skipped;
        run.stepped += Cycles(k * it.len) - skipped;
        run.busy += self.busy_cycles - busy;
        if let Some(p) = &self.prof {
            p.profiler
                .counter_add("sys.periods_repeated", k * it.periods);
        }
        true
    }

    // ------------------------------------------------------------------
    // Hardware fault injection
    // ------------------------------------------------------------------

    /// Inject every fault due at `now`, recording each as a
    /// `FaultInjected`/`FaultAbsorbed` pair. Returns `true` when a fatal
    /// fault halted the machine (remaining faults never land on a dead
    /// node). A fault is input from outside, so a recording of the
    /// period watch in progress is dropped, as at an epoch boundary.
    fn apply_due_faults(&mut self, now: Cycles) -> bool {
        let mut plan = self.fault_plan.take().expect("caller checked is_some");
        let mut halted = false;
        while let Some(e) = plan.next_due(now) {
            self.periods.taint();
            self.trace
                .record(now, "fault", TraceKind::FaultInjected { fault: e.kind });
            let disposition = self.apply_fault(now, e.kind);
            self.fault_stats.record(disposition);
            self.trace.record(
                now,
                "fault",
                TraceKind::FaultAbsorbed {
                    fault: e.kind,
                    disposition,
                },
            );
            if disposition == FaultDisposition::Fatal {
                let duration = match e.kind {
                    FaultKind::Brownout { duration } => duration,
                    _ => unreachable!("only brownouts are fatal"),
                };
                self.fault = Some(SystemFault::Brownout { duration });
                halted = true;
                break;
            }
        }
        self.fault_plan = Some(plan);
        halted
    }

    /// Land one fault and classify what the machine observed.
    fn apply_fault(&mut self, now: Cycles, kind: FaultKind) -> FaultDisposition {
        match kind {
            FaultKind::SramBitFlip { addr, bit, .. } => {
                // Gated banks and out-of-array strikes are absorbed:
                // gated contents are lost (and zeroed on wake) anyway.
                if self.slaves.mem.flip_bit(addr, bit) {
                    FaultDisposition::Degraded
                } else {
                    FaultDisposition::Absorbed
                }
            }
            FaultKind::StuckHandshake { component, cycles } => {
                if self
                    .slaves
                    .stick_handshake(component, now + Cycles(cycles as u64))
                {
                    FaultDisposition::Degraded
                } else {
                    FaultDisposition::Absorbed
                }
            }
            FaultKind::DroppedIrq { line } => {
                if (line as usize) < map::NUM_IRQS && self.slaves.irqs.clear_pending(line) {
                    FaultDisposition::Degraded
                } else {
                    FaultDisposition::Absorbed
                }
            }
            FaultKind::SpuriousIrq { line } => {
                // A glitch on an already-latched line merges with the
                // real edge (one-deep pending); on an idle line it
                // injects a ghost event that flows through the normal
                // dispatch path.
                if (line as usize) >= map::NUM_IRQS || self.slaves.irqs.is_pending(line) {
                    FaultDisposition::Absorbed
                } else {
                    self.slaves.irqs.raise(line);
                    FaultDisposition::Degraded
                }
            }
            FaultKind::RadioByteError { burst } => {
                // Channel noise only matters while the radio is powered;
                // the corruption lands on the next `burst` frames.
                if self.slaves.radio.powered() {
                    self.tx_corrupt_remaining += burst as u32;
                    FaultDisposition::Degraded
                } else {
                    FaultDisposition::Absorbed
                }
            }
            FaultKind::Brownout { duration } => {
                if duration as u64 >= BROWNOUT_FATAL_CYCLES {
                    return FaultDisposition::Fatal;
                }
                if self.is_quiescent() {
                    // Nothing in flight: the sag passes unnoticed.
                    return FaultDisposition::Absorbed;
                }
                // A short sag resets the control fabric: pending edges
                // are lost (counted), the EP aborts its in-flight ISR,
                // and a running µC handler dies back to sleep.
                // Peripheral-internal state machines sit on separate
                // power islands and ride the sag out.
                self.slaves.irqs.clear_all_pending();
                self.ep.abort_for_brownout();
                if self.mcu.powered() {
                    self.mcu.sleep();
                    self.trace.record(now, "mcu", TraceKind::McuSleep);
                }
                FaultDisposition::Degraded
            }
        }
    }
}

/// The power mode of a block that is `powered` and, if so, `active`.
fn mode(powered: bool, active: bool) -> PowerMode {
    if !powered {
        PowerMode::Gated
    } else if active {
        PowerMode::Active
    } else {
        PowerMode::Idle
    }
}

/// The SRAM energy since `mark`, moving `mark` to `total`: what the
/// memory meter is charged after each SRAM tick.
#[inline]
fn settle(mark: &mut Energy, total: Energy) -> Energy {
    let delta = total - *mark;
    *mark = total;
    delta
}

impl Simulatable for System {
    fn now(&self) -> Cycles {
        self.now
    }

    fn step(&mut self) -> StepOutcome {
        self.step_cycle()
    }

    /// `now` while a frame is on air, so no skip covers airtime;
    /// otherwise the cycle before the next timer underflow or input (an
    /// rx frame or a fault), so the stepped cycle lands it.
    fn next_wakeup(&self) -> Option<Cycles> {
        if self.slaves.radio.transmitting() {
            return Some(self.now);
        }
        let timer = self
            .slaves
            .timer
            .cycles_to_next_alarm()
            .map(|d| Cycles(self.now.0 + d.saturating_sub(1)));
        let input = self
            .next_input()
            .map(|at| Cycles(at.0.saturating_sub(1).max(self.now.0)));
        [timer, input].into_iter().flatten().min()
    }

    fn skip_to(&mut self, target: Cycles) {
        debug_assert!(target > self.now, "skip must move forward");
        if self.periods.tape.is_some() && self.next_wakeup() != Some(target) {
            // A skip cut short of the next wakeup (by a deadline) charges
            // differently from the skip the node's own run makes.
            self.periods.taint();
        }
        let span = target - self.now;
        self.slaves.skip(span);
        self.charge_span(self.meter.interval(span));
        self.now = target;
        self.skipped += span;
        self.idle_skip_hist.record(span.0);
    }

    /// The engine's idle skip, then a chain up to `horizon`: while the
    /// next cycle is quiet (a silent underflow, like the GDI base timer's
    /// 699 of every 700 wakes, or a cycle of radio airtime), step it and
    /// skip on, exactly as the engine would one wake at a time: the same
    /// `step_cycle` state changes, charged through the same
    /// `charge_cycle` and `skip_to`, with the profiler's calls counted in
    /// bulk. A frame on air has no skip (`next_wakeup` is `now`), so a
    /// chain through airtime only steps. Under a `run_until` predicate
    /// the engine hands a `horizon` of `now`, so only the skip is made.
    ///
    /// A run of identical iterations (a skip, then a quiet cycle) is
    /// repeated in one jump once three in a row have kept every running
    /// total in its binade (`ulp_sim::repeat`), so the sums keep every
    /// bit they would have had; `quiet_repeats` bounds the jump so that
    /// each iteration it covers would have been quiet and of the same
    /// shape, and ends before the next rx frame or fault. The watch
    /// restarts whenever the draws change: a timer without `REPEAT` that
    /// stops changes the timer block's.
    ///
    /// Where the chain stops at a period boundary (the next tick raises a
    /// timer interrupt, compute is idle and nothing is on air), the state
    /// key goes to the period watch (`crate::periods`). Once the node is
    /// back in a state it was in at an earlier boundary, it records the
    /// next iteration, and from then on `repeat_periods` repeats whole
    /// iterations, busy steps, telemetry histograms and trace events
    /// included, in one jump that ends before the next input. Cycles the
    /// engine steps itself (under a predicate, say) are charged and
    /// recorded the same way; a boundary it steps past is counted but
    /// not keyed, which breaks a match due there.
    fn idle_advance(&mut self, deadline: Cycles, horizon: Cycles) -> IdleAdvance {
        let mut run = IdleAdvance::default();
        if self.now >= deadline {
            if self.at_period_boundary() {
                self.periods.miss();
            }
            return run;
        }
        let mut watch = RepeatWatch::new(self.sums());
        let mut timers_counting = self.slaves.timer.active_count();
        let mut repeated = 0;
        loop {
            let now = self.now;
            let on_air = self.slaves.radio.transmitting();
            if !on_air {
                if let Some(target) = skip_target(now, self.next_wakeup(), deadline) {
                    self.skip_to(target);
                    run.skipped += target - now;
                }
            }
            let span = self.now - now;
            if self.now >= horizon || !self.silent_next() {
                break;
            }
            // The silent cycle, as `step_cycle` steps it.
            self.now += Cycles(1);
            let now = self.now;
            self.slaves.irqs.set_now(now);
            self.slaves.tick(now);
            self.charge_cycle(false);
            run.stepped += Cycles(1);
            let counting = self.slaves.timer.active_count();
            if counting != timers_counting {
                // A timer without `REPEAT` stopped: the timer block's
                // draw changed mid-iteration, so the repeats count from
                // this boundary.
                timers_counting = counting;
                watch.restart(self.sums());
                continue;
            }
            let shape = span.0 << 1 | on_air as u64;
            if let Some(rep) = watch.observe(shape, self.sums()) {
                let period = span.0 + 1;
                let k = rep.room().min(self.quiet_repeats(period, horizon));
                if k > 0 {
                    self.repeat_charges(&rep, k, period);
                    if let Some(tape) = &mut self.periods.tape {
                        tape.repeat_last(1 + (span.0 > 0) as usize, k);
                    }
                    self.slaves.repeat_quiet(k, period);
                    self.now += Cycles(k * period);
                    self.slaves.irqs.set_now(self.now);
                    run.stepped += Cycles(k);
                    run.skipped += Cycles(k * span.0);
                    self.skipped += Cycles(k * span.0);
                    if span.0 > 0 {
                        self.idle_skip_hist.record_n(span.0, k);
                    }
                    repeated += k;
                    watch.restart(self.sums());
                }
            }
        }
        self.period_boundary(horizon, &mut run);
        if let Some(p) = &self.prof {
            let n = run.stepped.0;
            if self.fault_plan.is_some() {
                p.profiler.add_calls(p.fault_apply, n);
            }
            p.profiler.add_calls(p.event_dispatch, n);
            p.profiler.add_calls(p.fetch_decode_execute, n);
            p.profiler.counter_add("sys.quiet_repeated", repeated);
        }
        run
    }

    /// Sample the bus occupancy. A recording of the period watch in
    /// progress is dropped: jumps stop at the next epoch boundary, so the
    /// iterations they cover take no sample.
    fn on_epoch(&mut self, _index: u64) {
        let busy = self.busy_cycles - self.epoch_busy_mark;
        self.epoch_busy_mark = self.busy_cycles;
        self.bus_occupancy_hist.record(busy.0);
        self.periods.taint();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slaves::ConstSensor;
    use ulp_isa::ep::{encode_program, ComponentId, Instruction as I};
    use ulp_sim::Engine;

    fn system() -> System {
        System::new(SystemConfig::default(), Box::new(ConstSensor(55)))
    }

    /// Install the Figure 5 sample→message→radio ISR chain and a
    /// periodic timer; returns the system.
    fn monitoring_system(period: u16) -> System {
        let mut sys = system();
        let sensor = ComponentId::new(map::Component::Sensor as u8).unwrap();
        let msgproc = ComponentId::new(map::Component::MsgProc as u8).unwrap();
        let radio = ComponentId::new(map::Component::Radio as u8).unwrap();
        // ISR 1 (timer): sample and hand to the message processor.
        let isr1 = encode_program(&[
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
        ])
        .unwrap();
        // ISR 2 (message ready): move the frame to the radio and fire.
        let isr2 = encode_program(&[
            I::SwitchOn(radio),
            I::Read(map::MSG_BASE + map::MSG_TX_LEN),
            I::Write(map::RADIO_BASE + map::RADIO_TX_LEN),
            I::Transfer {
                src: map::MSG_TX_BUF,
                dst: map::RADIO_TX_BUF,
                len: 12,
            },
            I::SwitchOff(msgproc),
            I::WriteI {
                addr: map::RADIO_BASE + map::RADIO_CTRL,
                value: 1,
            },
            I::Terminate,
        ])
        .unwrap();
        // ISR 3 (tx done): power the radio back down.
        let isr3 = encode_program(&[I::SwitchOff(radio), I::Terminate]).unwrap();
        sys.load(0x0200, &isr1);
        sys.load(0x0240, &isr2);
        sys.load(0x0280, &isr3);
        sys.install_ep_isr(Irq::Timer0.id(), 0x0200);
        sys.install_ep_isr(Irq::MsgReady.id(), 0x0240);
        sys.install_ep_isr(Irq::RadioTxDone.id(), 0x0280);
        sys.slaves_mut().timer.configure_periodic(0, period);
        sys
    }

    #[test]
    fn monitoring_app_transmits_samples() {
        let mut engine = Engine::new(monitoring_system(1000));
        engine.run_for(Cycles(5_000));
        let sys = engine.machine_mut();
        assert!(sys.fault().is_none(), "fault: {:?}", sys.fault());
        let out = sys.take_outbox();
        assert_eq!(out.len(), 4, "timer fired at 1k..4k with margin for tx");
        let frame = ulp_net::Frame::decode(&out[0].1).unwrap();
        assert_eq!(frame.payload, vec![55]);
        assert_eq!(frame.src, 0x0001);
    }

    #[test]
    fn fast_forward_changes_nothing() {
        let run = |ff: bool| {
            let mut engine = Engine::new(monitoring_system(1000));
            engine.set_fast_forward(ff);
            engine.run_for(Cycles(50_000));
            let mut sys = engine.into_machine();
            (
                sys.busy_cycles(),
                sys.take_outbox().len(),
                sys.meter().total_energy(),
                sys.now(),
            )
        };
        let (busy_a, sent_a, energy_a, now_a) = run(true);
        let (busy_b, sent_b, energy_b, now_b) = run(false);
        assert_eq!(busy_a, busy_b);
        assert_eq!(sent_a, sent_b);
        assert_eq!(now_a, now_b);
        assert!(
            (energy_a.joules() - energy_b.joules()).abs() < 1e-15,
            "energy must match: {energy_a} vs {energy_b}"
        );
    }

    #[test]
    fn idle_skip_dominates_low_duty_cycle() {
        let mut engine = Engine::new(monitoring_system(10_000));
        let stats = engine.run_for(Cycles(1_000_000));
        assert!(
            stats.skipped.0 > 900_000,
            "skipped only {:?}",
            stats.skipped
        );
    }

    #[test]
    fn send_path_cycle_count_in_paper_range() {
        // One timer event end-to-end (excluding radio airtime): the paper
        // reports 102 cycles for the no-filter send path.
        let mut engine = Engine::new(monitoring_system(50_000));
        let (_, ok) = engine.run_until(Cycles(60_000), |s| {
            s.slaves().radio.stats().transmitted >= 1 && s.is_quiescent()
        });
        assert!(ok, "send never completed");
        let busy = engine.machine().busy_cycles();
        assert!(
            (60..160).contains(&busy.0),
            "send path took {busy}, expected the paper's order (~102)"
        );
    }

    #[test]
    fn average_power_below_2uw_at_low_duty() {
        // 1 sample every 10 s → duty ≪ 0.1 → average power < 2 µW (§7).
        let mut engine = Engine::new(monitoring_system(10_000));
        engine.run_for(Cycles(10_000_000)); // 100 s
        let sys = engine.machine();
        let avg = sys.average_power();
        assert!(
            avg.uw() < 2.0,
            "average power {avg} exceeds the paper's <2 µW claim"
        );
        assert!(avg.uw() > 0.1, "floor is timer-dominated, got {avg}");
    }

    #[test]
    fn rx_scheduling_delivers_to_listening_radio() {
        let mut sys = system();
        // ISR for rx: push frame to msgproc and classify.
        let isr = encode_program(&[
            I::SwitchOn(ComponentId::new(map::Component::MsgProc as u8).unwrap()),
            I::Read(map::RADIO_BASE + map::RADIO_RX_LEN),
            I::Write(map::MSG_BASE + map::MSG_RX_LEN),
            I::Transfer {
                src: map::RADIO_RX_BUF,
                dst: map::MSG_RX_BUF,
                len: 32,
            },
            I::WriteI {
                addr: map::MSG_BASE + map::MSG_CTRL,
                value: 2,
            },
            I::Terminate,
        ])
        .unwrap();
        sys.load(0x0200, &isr);
        sys.install_ep_isr(Irq::RadioRxDone.id(), 0x0200);
        // Forward ISR: send the msgproc TX buffer out.
        let fwd = encode_program(&[
            I::Read(map::MSG_BASE + map::MSG_TX_LEN),
            I::Write(map::RADIO_BASE + map::RADIO_TX_LEN),
            I::Transfer {
                src: map::MSG_TX_BUF,
                dst: map::RADIO_TX_BUF,
                len: 32,
            },
            I::SwitchOff(ComponentId::new(map::Component::MsgProc as u8).unwrap()),
            I::WriteI {
                addr: map::RADIO_BASE + map::RADIO_CTRL,
                value: 1,
            },
            I::Terminate,
        ])
        .unwrap();
        sys.load(0x0240, &fwd);
        sys.install_ep_isr(Irq::MsgForward.id(), 0x0240);
        sys.radio_listen();

        let frame = ulp_net::Frame::data(0x22, 0x0009, 0x0000, 3, &[7, 8]).unwrap();
        sys.schedule_rx(Cycles(100), frame.encode());

        let mut engine = Engine::new(sys);
        engine.run_for(Cycles(5_000));
        let sys = engine.machine_mut();
        assert!(sys.fault().is_none(), "fault: {:?}", sys.fault());
        assert_eq!(sys.slaves().msgproc.stats().forwarded, 1);
        let out = sys.take_outbox();
        assert_eq!(out.len(), 1, "forwarded frame transmitted");
        assert_eq!(out[0].1, frame.encode(), "forwarded verbatim");
    }

    #[test]
    fn ep_fault_halts_with_diagnostic() {
        let mut sys = system();
        // ISR reads a gated slave.
        let isr = encode_program(&[I::Read(map::MSG_BASE), I::Terminate]).unwrap();
        sys.load(0x0200, &isr);
        sys.install_ep_isr(0, 0x0200);
        sys.inject_irq(0);
        let mut engine = Engine::new(sys);
        let stats = engine.run_for(Cycles(100));
        assert!(stats.halted);
        assert!(matches!(
            engine.machine().fault(),
            Some(SystemFault::Bus(BusError::Gated { .. }))
        ));
    }

    #[test]
    fn wakeup_runs_mcu_handler() {
        let mut sys = system();
        // EP ISR: wake the µC at vector 0.
        let isr = encode_program(&[I::Wakeup(0)]).unwrap();
        sys.load(0x0200, &isr);
        sys.install_ep_isr(5, 0x0200);
        // µC handler at 0x0400: store 0xAA to 0x0310, then sleep.
        let handler = ulp_mcu8::assemble(
            "ldi r16, 0xAA\nsts 0x0310, r16\nldi r16, 1\nsts 0x1500, r16\nspin: rjmp spin",
        )
        .unwrap();
        for seg in handler.segments() {
            sys.load(0x0400 + seg.origin as u16, &seg.data);
        }
        sys.install_mcu_handler(0, 0x0400);
        sys.inject_irq(5);
        let mut engine = Engine::new(sys);
        engine.run_for(Cycles(200));
        let sys = engine.machine();
        assert!(sys.fault().is_none(), "fault: {:?}", sys.fault());
        assert_eq!(sys.slaves().mem.peek(0x0310), Some(0xAA));
        assert!(!sys.mcu().powered(), "handler slept");
        assert_eq!(sys.mcu().stats().wakeups, 1);
        assert!(sys.is_quiescent());
    }

    #[test]
    fn telemetry_histograms_populate() {
        let mut sys = monitoring_system(1000);
        sys.trace_mut().set_enabled(true);
        let mut engine = Engine::new(sys);
        engine.set_epoch(Cycles(512));
        engine.run_for(Cycles(20_000));
        let sys = engine.machine();
        assert!(sys.fault().is_none());
        assert!(!sys.slaves().irqs.service_latency().is_empty());
        assert!(!sys.idle_skip_spans().is_empty());
        assert!(!sys.bus_occupancy().is_empty());
        let m = sys.telemetry_snapshot();
        assert!(m.counter("irq.raised").unwrap() > 0);
        assert!(m.histogram("irq.service_latency").unwrap().count() > 0);
        // Typed radio + irq trace events made it into the buffer.
        assert!(sys
            .trace()
            .events()
            .any(|e| matches!(e.kind, ulp_sim::TraceKind::IrqAssert { .. })));
        assert!(sys
            .trace()
            .events()
            .any(|e| matches!(e.kind, ulp_sim::TraceKind::RadioTxStart)));
    }

    #[test]
    fn mcu_wake_latency_includes_handshake() {
        let mut sys = system();
        let isr = encode_program(&[I::Wakeup(0)]).unwrap();
        sys.load(0x0200, &isr);
        sys.install_ep_isr(5, 0x0200);
        let handler = ulp_mcu8::assemble("ldi r16, 1\nsts 0x1500, r16\nspin: rjmp spin").unwrap();
        for seg in handler.segments() {
            sys.load(0x0400 + seg.origin as u16, &seg.data);
        }
        sys.install_mcu_handler(0, 0x0400);
        sys.inject_irq(5);
        let mut engine = Engine::new(sys);
        engine.run_for(Cycles(200));
        let sys = engine.machine();
        assert!(sys.fault().is_none(), "fault: {:?}", sys.fault());
        let h = sys.mcu_wake_latency();
        assert_eq!(h.count(), 1);
        // At least the WAKEUP ISR (6 cycles) plus the µC handshake.
        assert!(h.min().unwrap() >= 6 + sys.config().wake.mcu.0);
    }

    #[test]
    fn energy_per_component_accumulates() {
        let mut engine = Engine::new(monitoring_system(1000));
        engine.run_for(Cycles(100_000)); // 1 s
        let sys = engine.machine();
        let m = sys.meter();
        let ep = m.stats(sys.meter_ids().ep);
        let timer = m.stats(sys.meter_ids().timer);
        assert!(ep.energy.joules() > 0.0);
        assert!(
            ep.utilization() < 0.25,
            "EP mostly idle at this duty, got {}",
            ep.utilization()
        );
        // Timer floor: one of four timers counting at the 1/8 switching
        // factor ≈ 5.68/32 ≈ 0.18 µW plus the idle share.
        let timer_avg = timer.average_power(m.clock());
        assert!(
            (0.12..0.4).contains(&timer_avg.uw()),
            "timer floor ≈ 0.2 µW, got {timer_avg}"
        );
        // Total sanity: everything is accounted.
        assert!(m.total_energy().joules() > 0.0);
        assert_eq!(sys.now(), Cycles(100_000));
    }

    #[test]
    fn quiescent_system_idles_at_70nw_without_timer() {
        // With no timers running and everything gated, idle power is the
        // paper's ~70 nW (EP+timer+msgproc idle + memory leakage).
        let mut sys = system();
        sys.set_component_power(map::Component::MsgProc as u8, true);
        let mut engine = Engine::new(sys);
        engine.run_for(Cycles(1_000_000)); // 10 s
        let avg = engine.machine().average_power();
        assert!(
            avg.watts() < 100e-9,
            "idle system draws {avg}, expected tens of nW"
        );
    }

    #[test]
    fn dropped_events_counted_under_overload() {
        // Timer period shorter than the send path: events get dropped.
        let mut engine = Engine::new(monitoring_system(3));
        engine.run_for(Cycles(10_000));
        let sys = engine.machine();
        assert!(sys.fault().is_none());
        assert!(sys.slaves().irqs.dropped() > 0, "overload must drop events");
    }

    #[test]
    fn dropped_irq_fault_loses_event_loudly() {
        let mut sys = monitoring_system(1000);
        sys.trace_mut().set_enabled(true);
        sys.inject_irq(Irq::Timer0.id()); // pending before cycle 1
        let mut plan = FaultPlan::new();
        plan.push(
            Cycles(1),
            FaultKind::DroppedIrq {
                line: Irq::Timer0.id(),
            },
        );
        sys.set_fault_plan(plan);
        let mut engine = Engine::new(sys);
        engine.run_for(Cycles(500));
        let sys = engine.machine();
        assert!(sys.fault().is_none());
        let stats = sys.fault_stats();
        assert_eq!(stats.injected, 1);
        assert_eq!(stats.degraded, 1, "a pending edge really was lost");
        assert_eq!(sys.slaves().irqs.cleared(), 1);
        assert_eq!(sys.ep().stats().events, 0, "the dropped event never ran");
        // Every injection appears in the trace with its disposition.
        let injected = sys
            .trace()
            .events()
            .filter(|e| matches!(e.kind, TraceKind::FaultInjected { .. }))
            .count();
        let classified = sys
            .trace()
            .events()
            .filter(|e| matches!(e.kind, TraceKind::FaultAbsorbed { .. }))
            .count();
        assert_eq!((injected, classified), (1, 1));
        // Event conservation closes with the cleared term.
        let irqs = &sys.slaves().irqs;
        assert_eq!(
            irqs.raised(),
            irqs.taken() + irqs.cleared() + irqs.pending_count()
        );
        // The loss shows up in the telemetry snapshot (not silent).
        let m = sys.telemetry_snapshot();
        assert_eq!(m.counter("fault.injected"), Some(1));
        assert_eq!(m.counter("fault.degraded"), Some(1));
        assert_eq!(m.counter("irq.fault_cleared"), Some(1));
    }

    #[test]
    fn spurious_irq_fault_triggers_ghost_event() {
        let mut sys = monitoring_system(10_000);
        let mut plan = FaultPlan::new();
        plan.push(
            Cycles(200),
            FaultKind::SpuriousIrq {
                line: Irq::Timer0.id(),
            },
        );
        sys.set_fault_plan(plan);
        let mut engine = Engine::new(sys);
        engine.run_for(Cycles(5_000));
        let sys = engine.machine_mut();
        assert!(sys.fault().is_none(), "fault: {:?}", sys.fault());
        assert_eq!(sys.fault_stats().degraded, 1);
        // The ghost event ran the full sample→send path before the
        // first real timer alarm at 10 000.
        assert_eq!(sys.slaves().radio.stats().transmitted, 1);
        assert_eq!(sys.take_outbox().len(), 1);
    }

    #[test]
    fn sram_bit_flip_corrupts_live_byte_and_is_absorbed_on_gated_bank() {
        let mut sys = system();
        sys.slaves_mut().mem.poke(0x0312, 0x0F);
        sys.slaves_mut().mem.gate_bank(7);
        let mut plan = FaultPlan::new();
        plan.push(
            Cycles(5),
            FaultKind::SramBitFlip {
                bank: 3,
                addr: 0x0312,
                bit: 7,
            },
        );
        plan.push(
            Cycles(6),
            FaultKind::SramBitFlip {
                bank: 7,
                addr: 0x0700,
                bit: 0,
            },
        );
        sys.set_fault_plan(plan);
        let mut engine = Engine::new(sys);
        engine.run_for(Cycles(10));
        let sys = engine.machine();
        assert_eq!(sys.slaves().mem.peek(0x0312), Some(0x8F));
        let stats = sys.fault_stats();
        assert_eq!(stats.injected, 2);
        assert_eq!(stats.degraded, 1);
        assert_eq!(stats.absorbed, 1, "gated-bank strike absorbed");
    }

    #[test]
    fn long_brownout_is_fatal_with_recorded_fault() {
        let mut sys = monitoring_system(1000);
        sys.trace_mut().set_enabled(true);
        let mut plan = FaultPlan::new();
        plan.push(Cycles(700), FaultKind::Brownout { duration: 100 });
        sys.set_fault_plan(plan);
        let mut engine = Engine::new(sys);
        let stats = engine.run_for(Cycles(5_000));
        assert!(stats.halted);
        let sys = engine.machine();
        assert_eq!(sys.fault(), Some(&SystemFault::Brownout { duration: 100 }));
        assert_eq!(sys.fault_stats().fatal, 1);
        assert!(sys.trace().events().any(|e| matches!(
            e.kind,
            TraceKind::FaultAbsorbed {
                disposition: FaultDisposition::Fatal,
                ..
            }
        )));
        assert!(sys.fault().unwrap().to_string().contains("brownout"));
    }

    #[test]
    fn short_brownout_aborts_inflight_work_and_recovers() {
        // Timer fires at 1000; the send path is busy for ~100 cycles.
        // A short sag at 1005 lands mid-ISR: work aborts, node recovers,
        // and the next period completes normally.
        let mut sys = monitoring_system(1000);
        let mut plan = FaultPlan::new();
        plan.push(Cycles(1005), FaultKind::Brownout { duration: 4 });
        sys.set_fault_plan(plan);
        let mut engine = Engine::new(sys);
        engine.run_for(Cycles(2_500));
        let sys = engine.machine_mut();
        assert!(sys.fault().is_none(), "short sag must not halt");
        assert_eq!(sys.fault_stats().degraded, 1);
        assert_eq!(
            sys.take_outbox().len(),
            1,
            "period 1 was killed by the sag; period 2 transmitted"
        );
    }

    #[test]
    fn quiescent_brownout_is_absorbed() {
        let mut sys = monitoring_system(10_000);
        let mut plan = FaultPlan::new();
        plan.push(Cycles(500), FaultKind::Brownout { duration: 4 });
        sys.set_fault_plan(plan);
        let mut engine = Engine::new(sys);
        engine.run_for(Cycles(1_000));
        assert_eq!(engine.machine().fault_stats().absorbed, 1);
    }

    #[test]
    fn radio_byte_error_corrupts_next_frame() {
        let mut sys = monitoring_system(1000);
        let mut plan = FaultPlan::new();
        // The radio powers on mid-send-path (~cycle 1040); corrupt while
        // it is on so the burst arms.
        plan.push(Cycles(1080), FaultKind::RadioByteError { burst: 1 });
        plan.push(Cycles(10), FaultKind::RadioByteError { burst: 1 });
        sys.set_fault_plan(plan);
        let mut engine = Engine::new(sys);
        engine.run_for(Cycles(2_500));
        let sys = engine.machine_mut();
        assert!(sys.fault().is_none());
        let stats = sys.fault_stats();
        assert_eq!(stats.absorbed, 1, "radio off at cycle 10: absorbed");
        assert_eq!(stats.degraded, 1);
        let out = sys.take_outbox();
        assert_eq!(out.len(), 2);
        assert!(
            ulp_net::Frame::decode(&out[0].1).is_err(),
            "first frame corrupted on air"
        );
        assert!(ulp_net::Frame::decode(&out[1].1).is_ok(), "burst of one");
    }

    #[test]
    fn stuck_handshake_fault_delays_but_preserves_function() {
        let mut clean = Engine::new(monitoring_system(1000));
        clean.run_for(Cycles(2_500));
        let clean_busy = clean.machine().busy_cycles();

        let mut sys = monitoring_system(1000);
        let mut plan = FaultPlan::new();
        // Sensor (component 4) is off between events; stick its line
        // across the timer alarm at 1000 so the SWITCHON stalls longer.
        plan.push(
            Cycles(900),
            FaultKind::StuckHandshake {
                component: 4,
                cycles: 150,
            },
        );
        sys.set_fault_plan(plan);
        let mut engine = Engine::new(sys);
        engine.run_for(Cycles(2_500));
        let sys = engine.machine_mut();
        assert!(sys.fault().is_none());
        assert_eq!(sys.fault_stats().degraded, 1);
        assert!(
            sys.busy_cycles() > clean_busy,
            "stuck handshake cost extra stall cycles: {} vs {clean_busy}",
            sys.busy_cycles()
        );
        assert_eq!(sys.take_outbox().len(), 2, "both periods still sent");
    }

    #[test]
    fn fault_injection_survives_fast_forward() {
        // Idle-skip must not leap over a scheduled fault: the same plan
        // produces identical observable state with and without it.
        let run = |ff: bool| {
            let mut sys = monitoring_system(1000);
            sys.set_fault_plan(FaultPlan::generate(0xFA017, 40_000, 12));
            let mut engine = Engine::new(sys);
            engine.set_fast_forward(ff);
            engine.run_for(Cycles(50_000));
            let mut sys = engine.into_machine();
            (
                sys.fault_stats(),
                sys.busy_cycles(),
                sys.take_outbox().len(),
                sys.meter().total_energy().joules(),
                sys.now(),
            )
        };
        let a = run(true);
        let b = run(false);
        assert_eq!(
            (a.0, a.1, a.2, a.4),
            (b.0, b.1, b.2, b.4),
            "fast-forward changed a faulted run"
        );
        // Lump-sum idle charging differs from per-cycle accumulation only
        // by float associativity (same tolerance as the clean-run test).
        assert!(
            (a.3 - b.3).abs() < 1e-15,
            "energy must match: {} vs {}",
            a.3,
            b.3
        );
        assert_eq!(a.0.injected, 12, "every scheduled fault landed");
    }

    #[test]
    fn empty_fault_plan_is_discarded_and_changes_nothing() {
        let mut sys = monitoring_system(1000);
        sys.set_fault_plan(FaultPlan::new());
        let mut engine = Engine::new(sys);
        engine.run_for(Cycles(5_000));
        let mut sys = engine.into_machine();
        assert_eq!(sys.fault_stats().injected, 0);
        assert_eq!(sys.take_outbox().len(), 4, "same as the unfaulted run");
        let m = sys.telemetry_snapshot();
        assert_eq!(m.counter("fault.injected"), None, "no fault keys appear");
        assert_eq!(m.counter("irq.fault_cleared"), None);
    }

    /// The state key leaves every running total out and changes with
    /// every field it keys.
    #[test]
    fn state_key_ignores_totals_and_sees_every_keyed_field() {
        let node = || {
            let mut engine = Engine::new(monitoring_system(1000));
            engine.run_for(Cycles(3_500));
            engine.into_machine()
        };
        let key = node().state_key().expect("a constant sensor keys");
        // Every count moved by one amount (the cycle stamps with `now`),
        // every sum changed: the same key.
        struct Bump;
        impl Totals for Bump {
            fn sum(&mut self, x: &mut f64) {
                *x = *x * 2.0 + 1.0;
            }
            fn count(&mut self, n: &mut u64) {
                *n += 12_345;
            }
        }
        let mut sys = node();
        sys.totals(&mut Bump);
        assert_eq!(sys.state_key(), Some(key.clone()));
        type Change = fn(&mut System);
        let changes: [(&str, Change); 15] = [
            ("sram byte", |s| s.slaves_mut().mem.poke(0x0700, 0x5A)),
            ("sram bank", |s| s.slaves_mut().mem.gate_bank(7)),
            ("timer", |s| s.slaves_mut().timer.configure_periodic(2, 77)),
            ("filter", |s| {
                s.slaves_mut().filter.write(map::FILTER_THRESHOLD, 9, || {})
            }),
            ("msgproc samples", |s| {
                s.slaves_mut().msgproc.write(map::MSG_SAMPLE_IN, 7)
            }),
            ("msgproc count read", |s| {
                s.slaves_mut().msgproc.read(map::MSG_TX_COUNT_LO);
            }),
            ("radio", |s| s.slaves_mut().radio.set_powered(true)),
            ("sensor", |s| {
                s.slaves_mut().sensor.write(map::SENSOR_CHANNEL, 3)
            }),
            ("sys latch", |s| s.slaves_mut().sys.gpio = 1),
            ("pending irq", |s| s.inject_irq(5)),
            ("ep", |s| {
                s.inject_irq(Irq::Timer0.id());
                s.step();
                s.slaves_mut().irqs.clear_all_pending();
            }),
            ("mcu", |s| s.mcu.wake(0x0400, 2).unwrap()),
            ("tx edge", |s| s.prev_transmitting = true),
            ("tx corruption", |s| s.tx_corrupt_remaining = 1),
            ("stuck handshake", |s| {
                let until = s.now + Cycles(50);
                assert!(s.slaves_mut().stick_handshake(4, until));
            }),
        ];
        for (what, change) in changes {
            let mut sys = node();
            change(&mut sys);
            assert_ne!(sys.state_key(), Some(key.clone()), "{what}");
        }
        let mut sys = node();
        sys.slaves_mut().set_lint(true);
        assert_eq!(sys.state_key(), None, "lints are recorded");
        let sys = System::new(
            SystemConfig::default(),
            Box::new(crate::slaves::RandomWalkSensor::new(1, 2)),
        );
        assert_eq!(sys.state_key(), None, "a random walk never repeats");
    }

    #[test]
    #[should_panic(expected = "future")]
    fn rx_in_past_rejected() {
        let mut sys = system();
        sys.now = Cycles(100);
        sys.schedule_rx(Cycles(50), vec![]);
    }
}
