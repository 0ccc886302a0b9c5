//! The slave side of the system bus (Figure 1, right of the bus): the
//! banked main memory, the timer subsystem, the threshold filter, the
//! message processor, the radio interface, the sensor/ADC block, and the
//! system/power-control latches. [`Slaves`] owns them all and performs
//! the memory-mapped address decode of §4.2.5 through [`map::REGIONS`]:
//! it looks each address up there, faults when the region's guard
//! component is gated, and hands the slave the offset into the region.
//! No slave knows where it sits in the address map.

mod filter;
mod msgproc;
mod radio;
mod sensor;
mod timer;

pub use filter::ThresholdFilter;
pub use msgproc::{MessageProcessor, MsgCommand, MsgEvent, MsgStats, CAM_ENTRIES, MAX_SAMPLES};
pub use radio::{Radio, RadioCommand, RadioStats};
pub use sensor::{
    ConstSensor, RandomWalkSensor, SensorBlock, SensorModel, SineSensor, TraceSensor,
};
pub use timer::{ctrl as timer_ctrl, TimerBlock, COUNTING_ACTIVITY};

/// Background power of the timer block with one of its four timers
/// counting: the 1/32 active fraction plus the idle remainder. Used by
/// the Figure 6 analytic sweep.
pub fn timer_counting_background(spec: &ulp_sim::PowerSpec) -> ulp_sim::Power {
    let frac = COUNTING_ACTIVITY / 4.0;
    ulp_sim::Power::from_watts(spec.active.watts() * frac + spec.idle.watts() * (1.0 - frac))
}

use crate::interrupt::InterruptArbiter;
use crate::map::{self, Component, Irq, RegionDef, RegionKind};
use std::fmt;
use ulp_sim::repeat::Totals;
use ulp_sim::Cycles;
use ulp_sram::{BankedSram, SramError};

/// A fault raised by a bus transaction. Faults halt the simulation with a
/// diagnostic: in the modelled hardware these accesses would read garbage
/// or hang the handshake, and in every case they indicate an ISR
/// programming bug worth surfacing loudly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusError {
    /// No slave claims this address.
    Unmapped {
        /// The unclaimed address.
        addr: u16,
    },
    /// Access to a Vdd-gated slave's registers.
    Gated {
        /// Name of the gated slave.
        slave: &'static str,
        /// The offending address.
        addr: u16,
    },
    /// Main-memory fault (gated bank or out of range).
    Sram(SramError),
    /// `SWITCHON`/`SWITCHOFF` with an unassigned component id, or
    /// `SWITCHON` of the microcontroller (which must be woken with
    /// `WAKEUP` so it has a vector).
    BadPowerTarget {
        /// The offending 5-bit component id.
        id: u8,
    },
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::Unmapped { addr } => write!(f, "unmapped bus address 0x{addr:04X}"),
            BusError::Gated { slave, addr } => {
                write!(f, "access to gated slave `{slave}` at 0x{addr:04X}")
            }
            BusError::Sram(e) => write!(f, "memory fault: {e}"),
            BusError::BadPowerTarget { id } => write!(f, "invalid power-control target {id}"),
        }
    }
}

impl std::error::Error for BusError {}

impl From<SramError> for BusError {
    fn from(e: SramError) -> Self {
        BusError::Sram(e)
    }
}

/// A non-fault observation recorded by the bus decode when linting is
/// enabled: legal transactions that are nonetheless almost certainly
/// ISR bugs. These mirror the static warnings of the `ulp-verify`
/// checker, and the cross-validation harness holds the two in
/// lock-step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusLint {
    /// A write to a register whose writes the device ignores
    /// (hardware-latched status/result/count registers).
    ReadOnlyWrite {
        /// The written address.
        addr: u16,
    },
    /// `SWITCHON` of a component already on, or `SWITCHOFF` of one
    /// already off (a no-op with no handshake latency).
    RedundantSwitch {
        /// The 5-bit component id.
        id: u8,
        /// `true` for `SWITCHON`.
        on: bool,
    },
}

/// Which slaves were touched by bus traffic this cycle (consumed by the
/// power-accounting pass: a register access makes the block's logic
/// switch, i.e. draw active power for that cycle).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Touched {
    /// Timer registers accessed.
    pub timer: bool,
    /// Filter registers accessed.
    pub filter: bool,
    /// Message processor registers/buffers accessed.
    pub msgproc: bool,
}

/// System/power-control latches at `SYS_BASE` (the microcontroller's
/// window onto the power-control bus, §4.2.6).
#[derive(Debug, Clone, Default)]
pub struct SysRegs {
    /// The microcontroller asked to gate itself off.
    pub mcu_sleep_requested: bool,
    /// Pending power-control requests (on?, component id).
    pub power_requests: Vec<(bool, u8)>,
    /// Interrupt id that caused the current microcontroller wakeup.
    pub wake_cause: u8,
    /// General-purpose output latch (LEDs).
    pub gpio: u8,
}

impl SysRegs {
    fn read(&self, offset: u16) -> u8 {
        match offset {
            map::SYS_WAKE_CAUSE => self.wake_cause,
            map::SYS_GPIO => self.gpio,
            _ => 0,
        }
    }

    fn write(&mut self, offset: u16, value: u8) {
        match offset {
            map::SYS_MCU_SLEEP if value == 1 => self.mcu_sleep_requested = true,
            map::SYS_POWER_ON => self.power_requests.push((true, value)),
            map::SYS_POWER_OFF => self.power_requests.push((false, value)),
            map::SYS_GPIO => self.gpio = value,
            map::SYS_GPIO_TOGGLE => self.gpio ^= value,
            _ => {}
        }
    }
}

/// Length of each message-processor and radio data buffer.
const BUF_LEN: usize = map::MSG_BUF_LEN as usize;

/// Switching a Vdd-gated peripheral on or off at cycle `now` (only the
/// sensor needs the cycle: it latches a sample at switch-on).
trait Switch {
    fn switch(&mut self, on: bool, now: Cycles);
}

macro_rules! switch {
    ($($slave:ty),*) => {$(
        impl Switch for $slave {
            fn switch(&mut self, on: bool, _: Cycles) {
                self.set_powered(on)
            }
        }
    )*};
}
switch!(TimerBlock, ThresholdFilter, MessageProcessor, Radio);

impl Switch for SensorBlock {
    fn switch(&mut self, on: bool, now: Cycles) {
        self.set_powered(on, now)
    }
}

/// `$body` with `$p` bound to the Vdd-gated peripheral `$component`
/// names, or `$none` for the microcontroller and the memory banks. The
/// one place the five peripherals are listed; each arm is its own
/// statically dispatched copy of `$body`, so the bus guard costs no
/// indirect call.
macro_rules! peripheral {
    ($slaves:expr, $component:expr, |$p:ident| $body:expr, $none:expr) => {
        match $component {
            Component::Timer => {
                let $p = &mut $slaves.timer;
                $body
            }
            Component::Filter => {
                let $p = &mut $slaves.filter;
                $body
            }
            Component::MsgProc => {
                let $p = &mut $slaves.msgproc;
                $body
            }
            Component::Radio => {
                let $p = &mut $slaves.radio;
                $body
            }
            Component::Sensor => {
                let $p = &mut $slaves.sensor;
                $body
            }
            Component::Mcu | Component::MemBank0 => $none,
        }
    };
}

/// All bus slaves plus the interrupt arbiter.
pub struct Slaves {
    /// 2 KB banked main memory.
    pub mem: BankedSram,
    /// Four chainable 16-bit timers.
    pub timer: TimerBlock,
    /// The threshold filter.
    pub filter: ThresholdFilter,
    /// The message processor.
    pub msgproc: MessageProcessor,
    /// The radio interface.
    pub radio: Radio,
    /// The sensor/ADC block.
    pub sensor: SensorBlock,
    /// System/power latches.
    pub sys: SysRegs,
    /// The interrupt arbiter.
    pub irqs: InterruptArbiter,
    /// Peripherals reached this cycle, one bit per component id.
    touched: u8,
    now: Cycles,
    lint_enabled: bool,
    lints: Vec<BusLint>,
    /// Fault-injection state: per-peripheral "handshake line stuck until
    /// cycle N". All-zero (the default) is the healthy fast path — one
    /// comparison per real switch-on.
    stuck_until: [u64; 5],
}

impl fmt::Debug for Slaves {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Slaves")
            .field("now", &self.now)
            .field("timer", &self.timer)
            .field("filter", &self.filter)
            .field("radio", &self.radio)
            .finish_non_exhaustive()
    }
}

impl Slaves {
    /// Assemble the slave side for a system clocked at `clock_hz`.
    pub fn new(mem: BankedSram, sensor: SensorBlock, clock_hz: f64) -> Slaves {
        Slaves {
            mem,
            timer: TimerBlock::new(),
            filter: ThresholdFilter::new(),
            msgproc: MessageProcessor::new(),
            radio: Radio::new(clock_hz),
            sensor,
            sys: SysRegs::default(),
            irqs: InterruptArbiter::new(),
            touched: 0,
            now: Cycles::ZERO,
            lint_enabled: false,
            lints: Vec::new(),
            stuck_until: [0; 5],
        }
    }

    /// Enable or disable [`BusLint`] recording (default off: the hooks
    /// are one branch per transaction, and observers must not perturb
    /// the simulation).
    pub fn set_lint(&mut self, enabled: bool) {
        self.lint_enabled = enabled;
        if !enabled {
            self.lints.clear();
        }
    }

    /// Take and clear the lint observations recorded so far.
    pub fn take_lints(&mut self) -> Vec<BusLint> {
        std::mem::take(&mut self.lints)
    }

    /// Fault-injection hook: stick the power-gating handshake line of
    /// peripheral `id` (0 = timer … 4 = sensor) until cycle `until` —
    /// the next real switch-on before then waits out the remainder of
    /// the window before the peripheral acknowledges.
    ///
    /// Returns `false` (the fault is absorbed) when `id` is not a
    /// handshake-gated peripheral or the peripheral is currently
    /// powered: its ready line is already asserted, so a stuck line has
    /// nothing to delay.
    pub fn stick_handshake(&mut self, id: u8, until: Cycles) -> bool {
        let Some((component, None)) = Component::decode(id) else {
            return false;
        };
        if peripheral!(self, component, |p| p.powered(), true) {
            return false;
        }
        let slot = &mut self.stuck_until[id as usize];
        *slot = (*slot).max(until.0);
        true
    }

    /// Advance all slaves one cycle, raising completion interrupts.
    pub fn tick(&mut self, now: Cycles) {
        self.now = now;
        let irqs = &mut self.irqs;
        self.timer.tick(|i| irqs.raise(Irq::timer(i)));
        self.sensor.tick(now, || irqs.raise(Irq::SensorDone.id()));
        self.msgproc.tick(|ev| {
            irqs.raise(match ev {
                MsgEvent::Ready => Irq::MsgReady.id(),
                MsgEvent::Forward => Irq::MsgForward.id(),
                MsgEvent::Irregular => Irq::MsgIrregular.id(),
            })
        });
        self.radio.tick(now, || irqs.raise(Irq::RadioTxDone.id()));
    }

    /// Fast-forward all slaves across an idle span (no event may fall
    /// inside it; the system's idle test guarantees that).
    pub fn skip(&mut self, cycles: Cycles) {
        self.timer.skip(cycles.0);
        self.radio.skip(cycles.0);
        self.now += cycles;
    }

    /// How many quiet iterations of `period` cycles (a skip of
    /// `period − 1` cycles, then one quiet cycle) the slaves can take in
    /// one [`repeat_quiet`](Slaves::repeat_quiet), given nothing else in
    /// flight. On air an iteration is one cycle of airtime: the frame
    /// stays on air for two cycles more at least, and no timer underflow
    /// falls in. Otherwise it is a silent underflow of the timer block's
    /// [`silent_chain`](TimerBlock::silent_chain) of that period.
    pub fn quiet_repeats(&self, period: u64) -> u64 {
        match self.radio.cycles_to_tx_done() {
            Some(_) if period != 1 => 0,
            Some(left) => {
                let underflow = self.timer.cycles_to_next_alarm().unwrap_or(u64::MAX);
                left.saturating_sub(2).min(underflow - 1)
            }
            None => match self.timer.silent_chain() {
                Some((p, silent)) if p == period => silent,
                _ => 0,
            },
        }
    }

    /// Take `n` quiet iterations of `period` cycles, within
    /// [`quiet_repeats`](Slaves::quiet_repeats).
    pub fn repeat_quiet(&mut self, n: u64, period: u64) {
        if self.radio.transmitting() {
            self.skip(Cycles(n));
        } else {
            self.timer.repeat_silent_underflows(n);
            self.now += Cycles(n * period);
        }
    }

    /// Append the slave side's state to a state key at cycle `now`:
    /// every field but the running totals, which
    /// [`totals`](Slaves::totals) visits, and the SRAM's bytes, which the
    /// caller compares on their own; the stuck-handshake deadlines
    /// relative to `now`. Returns `false` when the state cannot
    /// repeat: the sensor's signal model has no key, or bus lints are
    /// being recorded.
    pub(crate) fn key(&self, key: &mut Vec<u64>, now: Cycles) -> bool {
        if self.lint_enabled || !self.sensor.key(key) {
            return false;
        }
        key.extend([self.touched as u64, now.0.wrapping_sub(self.now.0)]);
        key.extend(self.stuck_until.map(|until| until.saturating_sub(now.0)));
        let sys = &self.sys;
        key.extend([sys.mcu_sleep_requested as u64, sys.wake_cause as u64]);
        key.extend([sys.gpio as u64, sys.power_requests.len() as u64]);
        key.extend(
            sys.power_requests
                .iter()
                .map(|&(on, id)| (on as u64) << 8 | id as u64),
        );
        key.extend(
            (0..self.mem.config().banks())
                .map(|b| (self.mem.bank_state(b) == ulp_sram::BankState::Gated) as u64),
        );
        self.timer.key(key);
        self.filter.key(key);
        self.msgproc.key(key);
        self.radio.key(key);
        self.irqs.key(key, now);
        true
    }

    /// Visit the slave side's running totals: the SRAM's, each slave's
    /// tallies, the arbiter's, and the cycle stamps that move with time.
    pub(crate) fn totals(&mut self, t: &mut dyn Totals) {
        self.mem.totals(t);
        t.count(&mut self.now.0);
        for until in &mut self.stuck_until {
            t.count(until);
        }
        self.timer.totals(t);
        self.filter.totals(t);
        self.msgproc.totals(t);
        self.radio.totals(t);
        self.sensor.totals(t);
        self.irqs.totals(t);
    }

    /// Take and clear this cycle's touched flags.
    pub fn take_touched(&mut self) -> Touched {
        let bits = std::mem::take(&mut self.touched);
        let touched = |c: Component| bits & 1 << c as u8 != 0;
        Touched {
            timer: touched(Component::Timer),
            filter: touched(Component::Filter),
            msgproc: touched(Component::MsgProc),
        }
    }

    /// Fault an access to `addr` in `region` if its guard is gated;
    /// otherwise mark the guard touched.
    fn guard(&mut self, region: &RegionDef, addr: u16) -> Result<(), BusError> {
        if let Some(component) = region.guard {
            if !peripheral!(self, component, |p| p.powered(), false) {
                return Err(BusError::Gated {
                    slave: component.name(),
                    addr,
                });
            }
            self.touched |= 1 << component as u8;
        }
        Ok(())
    }

    /// Byte `offset` of the TX or RX buffer `region` decodes to.
    fn buffer_byte(&mut self, region: &RegionDef, offset: u16) -> &mut u8 {
        let (tx, rx) = match region.guard {
            Some(Component::Radio) => self.radio.buffers_mut(),
            _ => self.msgproc.buffers_mut(),
        };
        let buffer = if region.kind == RegionKind::RxBuffer {
            rx
        } else {
            tx
        };
        &mut buffer[offset as usize]
    }

    /// Bus read with full address decode.
    ///
    /// # Errors
    ///
    /// Faults on unmapped addresses and gated slaves (see [`BusError`]).
    pub fn read(&mut self, addr: u16) -> Result<u8, BusError> {
        let region = map::region_at(addr).ok_or(BusError::Unmapped { addr })?;
        let offset = addr - region.base;
        // Main memory guards itself: the SRAM faults on a gated bank.
        if region.kind == RegionKind::Memory {
            return Ok(self.mem.read(offset)?);
        }
        self.guard(region, addr)?;
        Ok(match (region.kind, region.guard) {
            (RegionKind::SysRegs, _) => self.sys.read(offset),
            (RegionKind::TxBuffer | RegionKind::RxBuffer, _) => *self.buffer_byte(region, offset),
            (_, Some(Component::Timer)) => self.timer.read(offset),
            (_, Some(Component::Filter)) => self.filter.read(offset),
            (_, Some(Component::MsgProc)) => self.msgproc.read(offset),
            (_, Some(Component::Radio)) => self.radio.read(offset),
            (_, Some(Component::Sensor)) => self.sensor.read(offset),
            _ => unreachable!("region `{}` has no slave", region.name),
        })
    }

    /// Bus write with full address decode.
    ///
    /// # Errors
    ///
    /// Faults on unmapped addresses and gated slaves.
    pub fn write(&mut self, addr: u16, value: u8) -> Result<(), BusError> {
        let region = map::region_at(addr).ok_or(BusError::Unmapped { addr })?;
        let offset = addr - region.base;
        if self.lint_enabled
            && region
                .register(offset)
                .is_some_and(|r| r.access == map::Access::ReadOnly)
        {
            self.lints.push(BusLint::ReadOnlyWrite { addr });
        }
        if region.kind == RegionKind::Memory {
            return Ok(self.mem.write(offset, value)?);
        }
        self.guard(region, addr)?;
        match (region.kind, region.guard) {
            (RegionKind::SysRegs, _) => self.sys.write(offset, value),
            (RegionKind::TxBuffer | RegionKind::RxBuffer, _) => {
                *self.buffer_byte(region, offset) = value
            }
            (_, Some(Component::Timer)) => self.timer.write(offset, value),
            (_, Some(Component::Filter)) => {
                let irqs = &mut self.irqs;
                self.filter
                    .write(offset, value, || irqs.raise(Irq::FilterPass.id()));
            }
            (_, Some(Component::MsgProc)) => self.msgproc.write(offset, value),
            (_, Some(Component::Radio)) => self.radio.write(offset, value),
            (_, Some(Component::Sensor)) => self.sensor.write(offset, value),
            _ => unreachable!("region `{}` has no slave", region.name),
        }
        Ok(())
    }

    /// Apply a power-control action (from `SWITCHON`/`SWITCHOFF` or the
    /// microcontroller's `SYS_POWER_*` latches). Returns the wake
    /// handshake latency for switch-on.
    ///
    /// # Errors
    ///
    /// Faults on unassigned component ids and on `SWITCHON` of the
    /// microcontroller (use `WAKEUP`).
    pub fn set_power(
        &mut self,
        id: u8,
        on: bool,
        wake: &crate::power::WakeLatency,
    ) -> Result<Cycles, BusError> {
        let (component, bank) = Component::decode(id).ok_or(BusError::BadPowerTarget { id })?;
        // Switching a component to the state it is already in is a no-op
        // with no handshake latency (the ready line is already up).
        let already = match bank {
            Some(b) => (self.mem.bank_state(b) == ulp_sram::BankState::Gated) != on,
            None => peripheral!(self, component, |p| p.powered() == on, false),
        };
        if already {
            if self.lint_enabled {
                self.lints.push(BusLint::RedundantSwitch { id, on });
            }
            return Ok(Cycles::ZERO);
        }
        let now = self.now;
        match bank {
            Some(b) if on => return Ok(self.mem.ungate_bank(b)),
            Some(b) => self.mem.gate_bank(b),
            None => peripheral!(
                self,
                component,
                |p| p.switch(on, now),
                return Err(BusError::BadPowerTarget { id })
            ),
        }
        Ok(if on {
            let mut lat = wake.of(component, bank);
            // A stuck handshake line (fault injection) delays the
            // acknowledge until the stuck window ends; one-shot.
            let idx = id as usize;
            if idx < 5 && self.stuck_until[idx] > self.now.0 {
                lat += Cycles(self.stuck_until[idx] - self.now.0);
                self.stuck_until[idx] = 0;
            }
            lat
        } else {
            Cycles::ZERO
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::WakeLatency;
    use ulp_sram::SramConfig;

    fn slaves() -> Slaves {
        Slaves::new(
            BankedSram::new(SramConfig::paper()),
            SensorBlock::new(Box::new(ConstSensor(99))),
            100_000.0,
        )
    }

    #[test]
    fn memory_decode() {
        let mut s = slaves();
        s.write(0x0123, 0xAB).unwrap();
        assert_eq!(s.read(0x0123).unwrap(), 0xAB);
        assert!(matches!(
            s.read(0x0900),
            Err(BusError::Unmapped { addr: 0x0900 })
        ));
    }

    #[test]
    fn timer_decode_and_touch() {
        let mut s = slaves();
        s.write(map::TIMER_BASE + map::TIMER_RELOAD_LO, 10).unwrap();
        assert_eq!(s.read(map::TIMER_BASE + map::TIMER_RELOAD_LO).unwrap(), 10);
        let t = s.take_touched();
        assert!(t.timer);
        assert!(!s.take_touched().timer, "flags clear on take");
    }

    #[test]
    fn gated_slave_faults() {
        let mut s = slaves();
        let wake = WakeLatency::paper();
        s.set_power(crate::map::Component::Timer as u8, false, &wake)
            .unwrap();
        assert!(matches!(
            s.read(map::TIMER_BASE),
            Err(BusError::Gated { slave: "timer", .. })
        ));
        assert!(matches!(
            s.write(map::TIMER_BASE, 0),
            Err(BusError::Gated { .. })
        ));
        // Sensor and msgproc start gated.
        assert!(s.read(map::SENSOR_BASE).is_err());
        assert!(s.read(map::MSG_BASE).is_err());
        assert!(s.read(map::RADIO_BASE).is_err());
    }

    #[test]
    fn power_control_wake_latencies() {
        let mut s = slaves();
        let wake = WakeLatency::paper();
        assert_eq!(s.set_power(4, true, &wake).unwrap(), Cycles(2), "sensor");
        assert_eq!(s.set_power(3, true, &wake).unwrap(), Cycles(4), "radio");
        assert_eq!(s.set_power(3, false, &wake).unwrap(), Cycles::ZERO);
        assert!(matches!(
            s.set_power(5, true, &wake),
            Err(BusError::BadPowerTarget { id: 5 })
        ));
        assert!(s.set_power(31, true, &wake).is_err());
    }

    #[test]
    fn memory_bank_gating_via_power_control() {
        let mut s = slaves();
        let wake = WakeLatency::paper();
        s.write(0x0700, 7).unwrap(); // bank 7
        s.set_power(crate::map::Component::mem_bank(7), false, &wake)
            .unwrap();
        assert!(matches!(s.read(0x0700), Err(BusError::Sram(_))));
        let lat = s
            .set_power(crate::map::Component::mem_bank(7), true, &wake)
            .unwrap();
        assert_eq!(lat, Cycles(1));
        assert_eq!(s.read(0x0700).unwrap(), 0, "contents lost");
    }

    #[test]
    fn sensor_reads_model_after_power_on() {
        let mut s = slaves();
        let wake = WakeLatency::paper();
        s.set_power(4, true, &wake).unwrap();
        assert_eq!(s.read(map::SENSOR_BASE + map::SENSOR_DATA).unwrap(), 99);
    }

    #[test]
    fn filter_pass_raises_interrupt() {
        let mut s = slaves();
        s.write(map::FILTER_BASE + map::FILTER_INPUT, 200).unwrap();
        s.write(map::FILTER_BASE + map::FILTER_THRESHOLD, 100)
            .unwrap();
        s.write(map::FILTER_BASE + map::FILTER_CTRL, 1).unwrap();
        assert!(s.irqs.is_pending(Irq::FilterPass.id()));
    }

    #[test]
    fn timer_alarm_raises_interrupt() {
        let mut s = slaves();
        s.timer.configure_periodic(0, 3);
        for c in 1..=3u64 {
            s.tick(Cycles(c));
        }
        assert!(s.irqs.is_pending(Irq::Timer0.id()));
    }

    #[test]
    fn sys_latches() {
        let mut s = slaves();
        s.write(map::SYS_BASE + map::SYS_MCU_SLEEP, 1).unwrap();
        assert!(s.sys.mcu_sleep_requested);
        s.write(map::SYS_BASE + map::SYS_POWER_ON, 4).unwrap();
        s.write(map::SYS_BASE + map::SYS_POWER_OFF, 3).unwrap();
        assert_eq!(s.sys.power_requests, vec![(true, 4), (false, 3)]);
        s.sys.wake_cause = 18;
        assert_eq!(s.read(map::SYS_BASE + map::SYS_WAKE_CAUSE).unwrap(), 18);
    }

    #[test]
    fn map_tables_match_bus_decode_over_full_address_space() {
        // With every component powered, an address is readable exactly
        // when `map::REGIONS` claims a window decodes it.
        let mut s = slaves();
        let wake = WakeLatency::paper();
        for id in [2u8, 3, 4] {
            s.set_power(id, true, &wake).unwrap();
        }
        for addr in 0..=u16::MAX {
            let mapped = map::region_at(addr).is_some();
            assert_eq!(
                s.read(addr).is_ok(),
                mapped,
                "read/region_at disagree at 0x{addr:04X}"
            );
            // And the guard table names the component whose gating
            // makes the access fault (exercised per-region below).
            if mapped {
                assert!(map::guard_component(addr).is_some() || addr >= map::SYS_BASE);
            }
        }
    }

    #[test]
    fn bus_decode_is_pinned_over_full_address_space() {
        // Every address under seven power states: everything powered,
        // each peripheral gated in turn, and one SRAM bank gated. Per
        // address the read, the write, a read-back, the lints and the
        // touched flags fold into one digest, so any change to what the
        // decode answers, faults with or reaches shows here.
        fn show<T: fmt::Debug>(r: Result<T, BusError>) -> String {
            match r {
                Ok(v) => format!("{v:?}"),
                Err(e) => e.to_string(),
            }
        }
        let wake = WakeLatency::paper();
        let gates = [None, Some(0), Some(1), Some(2), Some(3), Some(4)]
            .into_iter()
            .chain([Some(crate::map::Component::mem_bank(5))]);
        let mut digest = ulp_testkit::digest::Digest64::new();
        for gate in gates {
            let mut s = slaves();
            for id in [2u8, 3, 4] {
                s.set_power(id, true, &wake).unwrap();
            }
            if let Some(id) = gate {
                s.set_power(id, false, &wake).unwrap();
            }
            s.set_lint(true);
            for addr in 0..=u16::MAX {
                let read = show(s.read(addr));
                let write = show(s.write(addr, addr as u8 ^ 0xA5));
                let back = show(s.read(addr));
                let line = format!(
                    "{gate:?} {addr:04X} {read} {write} {back} {:?} {:?}\n",
                    s.take_lints(),
                    s.take_touched()
                );
                digest.update_str(&line);
            }
        }
        assert_eq!(
            ulp_testkit::digest::hex16(digest.finish()),
            "397d323bc7f86562"
        );
    }

    #[test]
    fn guard_table_matches_gated_faults() {
        // Gating the guard component of each guarded region makes its
        // first address fault; always-on regions never fault.
        let wake = WakeLatency::paper();
        for region in map::REGIONS {
            let mut s = slaves();
            for id in [2u8, 3, 4] {
                s.set_power(id, true, &wake).unwrap();
            }
            let guard = map::guard_component(region.base);
            match guard {
                Some(id) => {
                    s.set_power(id, false, &wake).unwrap();
                    assert!(
                        s.read(region.base).is_err(),
                        "{} readable with guard {id} off",
                        region.name
                    );
                }
                None => assert!(
                    s.read(region.base).is_ok(),
                    "{} should be always-on",
                    region.name
                ),
            }
        }
    }

    #[test]
    fn read_only_registers_ignore_writes_and_lint() {
        let mut s = slaves();
        let wake = WakeLatency::paper();
        for id in [2u8, 3, 4] {
            s.set_power(id, true, &wake).unwrap();
        }
        s.set_lint(true);
        for region in map::REGIONS {
            let strides = region.len.checked_div(region.reg_stride).unwrap_or(1);
            for i in 0..strides {
                for reg in region.registers {
                    if reg.access != map::Access::ReadOnly {
                        continue;
                    }
                    let addr = region.base + i * region.reg_stride + reg.offset;
                    let before = s.read(addr).unwrap();
                    s.take_lints();
                    s.write(addr, before.wrapping_add(0x5A)).unwrap();
                    assert_eq!(
                        s.read(addr).unwrap(),
                        before,
                        "{}+{} not read-only",
                        region.name,
                        reg.name
                    );
                    assert_eq!(
                        s.take_lints(),
                        vec![BusLint::ReadOnlyWrite { addr }],
                        "missing lint for {}",
                        reg.name
                    );
                }
            }
        }
        // Read-write registers do not lint.
        s.take_lints();
        s.write(map::FILTER_BASE + map::FILTER_THRESHOLD, 7)
            .unwrap();
        assert!(s.take_lints().is_empty());
    }

    #[test]
    fn redundant_switches_lint_when_enabled() {
        let mut s = slaves();
        let wake = WakeLatency::paper();
        s.set_lint(true);
        // Timer starts on; sensor starts off; bank 0 starts ungated.
        s.set_power(0, true, &wake).unwrap();
        s.set_power(4, false, &wake).unwrap();
        s.set_power(crate::map::Component::mem_bank(0), true, &wake)
            .unwrap();
        assert_eq!(
            s.take_lints(),
            vec![
                BusLint::RedundantSwitch { id: 0, on: true },
                BusLint::RedundantSwitch { id: 4, on: false },
                BusLint::RedundantSwitch { id: 8, on: true },
            ]
        );
        // A real transition does not lint, and disabling clears.
        s.set_power(4, true, &wake).unwrap();
        assert!(s.take_lints().is_empty());
        s.set_power(4, false, &wake).unwrap();
        s.set_lint(false);
        assert!(s.take_lints().is_empty());
    }

    #[test]
    fn stuck_handshake_delays_next_switch_on() {
        let mut s = slaves();
        let wake = WakeLatency::paper();
        // Sensor (id 4, wake 2) starts gated; stick its line until cycle 10.
        s.tick(Cycles(4));
        assert!(s.stick_handshake(4, Cycles(10)));
        assert_eq!(
            s.set_power(4, true, &wake).unwrap(),
            Cycles(2 + 6),
            "wake latency plus the stuck-window remainder"
        );
        // One-shot: the next cycle of the line is healthy again.
        s.set_power(4, false, &wake).unwrap();
        assert_eq!(s.set_power(4, true, &wake).unwrap(), Cycles(2));
        // Absorbed cases: powered peripheral, non-handshake target.
        assert!(
            !s.stick_handshake(4, Cycles(99)),
            "sensor is on: ready line up"
        );
        assert!(!s.stick_handshake(9, Cycles(99)), "not a gated peripheral");
        // A stuck window that expires before the switch-on adds nothing.
        s.set_power(4, false, &wake).unwrap();
        assert!(s.stick_handshake(4, Cycles(6)));
        s.tick(Cycles(8));
        assert_eq!(s.set_power(4, true, &wake).unwrap(), Cycles(2));
    }

    #[test]
    fn radio_tx_done_interrupt_via_tick() {
        let mut s = slaves();
        let wake = WakeLatency::paper();
        s.set_power(3, true, &wake).unwrap();
        s.write(map::RADIO_TX_BUF, 0xEE).unwrap();
        s.write(map::RADIO_BASE + map::RADIO_TX_LEN, 1).unwrap();
        s.write(map::RADIO_BASE + map::RADIO_CTRL, 1).unwrap();
        let mut fired = false;
        for c in 1..=40u64 {
            s.tick(Cycles(c));
            if s.irqs.is_pending(Irq::RadioTxDone.id()) {
                fired = true;
                break;
            }
        }
        assert!(fired);
        assert_eq!(s.radio.take_outbox().len(), 1);
    }
}
