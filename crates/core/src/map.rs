//! System address map and component identifiers.
//!
//! The data bus has a 16-bit address and an 8-bit datum (§4.3.1), so the
//! address space is 64 K with all slaves memory-mapped. The 2 KB main
//! memory sits at the bottom; each slave gets a register window above it.
//! Power-controlled components carry a 5-bit [`Component`] id used by the
//! event processor's `SWITCHON`/`SWITCHOFF` instructions.

/// Main memory base (2 KB banked SRAM).
pub const MEM_BASE: u16 = 0x0000;
/// Main memory size in bytes.
pub const MEM_SIZE: u16 = 0x0800;

/// Event-processor ISR lookup table: 64 interrupts × 2-byte ISR address.
pub const EP_VECTORS: u16 = 0x0000;
/// Microcontroller vector table: 32 vectors × 2-byte handler address
/// (byte address of AVR code in main memory).
pub const MCU_VECTORS: u16 = 0x0080;

/// Timer subsystem register window.
pub const TIMER_BASE: u16 = 0x1000;
/// Per-timer register stride within the timer window.
pub const TIMER_STRIDE: u16 = 8;
/// Offset: reload value, low byte.
pub const TIMER_RELOAD_LO: u16 = 0;
/// Offset: reload value, high byte.
pub const TIMER_RELOAD_HI: u16 = 1;
/// Offset: control register (bit 0 enable, bit 1 repeat, bit 2 chain,
/// bit 3 interrupt enable).
pub const TIMER_CTRL: u16 = 2;
/// Offset: live count, low byte (read-only).
pub const TIMER_COUNT_LO: u16 = 3;
/// Offset: live count, high byte (read-only).
pub const TIMER_COUNT_HI: u16 = 4;

/// Threshold filter register window.
pub const FILTER_BASE: u16 = 0x1100;
/// Offset: control (write 1 to evaluate).
pub const FILTER_CTRL: u16 = 0;
/// Offset: programmable threshold.
pub const FILTER_THRESHOLD: u16 = 1;
/// Offset: input value.
pub const FILTER_INPUT: u16 = 2;
/// Offset: result (1 = input ≥ threshold in mode 0).
pub const FILTER_RESULT: u16 = 3;
/// Offset: mode (0 = pass when ≥ threshold, 1 = pass when < threshold).
pub const FILTER_MODE: u16 = 4;

/// Message processor register window.
pub const MSG_BASE: u16 = 0x1200;
/// Offset: control (write a [`MsgCommand`](crate::slaves::MsgCommand)).
pub const MSG_CTRL: u16 = 0;
/// Offset: status (see `MsgStatus` bits in `slaves::msgproc`).
pub const MSG_STATUS: u16 = 1;
/// Offset: sample input — each write appends one sample to the payload.
pub const MSG_SAMPLE_IN: u16 = 2;
/// Offset: number of samples accumulated (read-only).
pub const MSG_SAMPLE_COUNT: u16 = 3;
/// Offset: prepared/forward frame length (read-only).
pub const MSG_TX_LEN: u16 = 4;
/// Offset: transmitted-packet counter, low byte (read-only).
pub const MSG_TX_COUNT_LO: u16 = 5;
/// Offset: transmitted-packet counter, high byte (read-only).
pub const MSG_TX_COUNT_HI: u16 = 6;
/// Offset: received-frame length to process (write before `ProcessRx`).
pub const MSG_RX_LEN: u16 = 7;
/// Offset: auto-prepare threshold — when non-zero, accumulating this
/// many samples triggers `Prepare` in hardware (lets the branch-less
/// event processor batch N samples per packet, as the volcano deployment
/// batched 25).
pub const MSG_AUTO_PREPARE: u16 = 8;
/// Message processor outgoing (TX) 32-byte buffer.
pub const MSG_TX_BUF: u16 = 0x1280;
/// Message processor incoming (RX) 32-byte buffer.
pub const MSG_RX_BUF: u16 = 0x12C0;
/// Message buffer size (two 32-byte blocks, §6.2.2).
pub const MSG_BUF_LEN: u16 = 32;

/// Radio register window.
pub const RADIO_BASE: u16 = 0x1300;
/// Offset: control (write a `RadioCommand`).
pub const RADIO_CTRL: u16 = 0;
/// Offset: status (bit 0 TX busy, bit 1 RX frame pending, bit 2 listening).
pub const RADIO_STATUS: u16 = 1;
/// Offset: TX frame length.
pub const RADIO_TX_LEN: u16 = 2;
/// Offset: received frame length (read-only).
pub const RADIO_RX_LEN: u16 = 3;
/// Radio TX 32-byte buffer.
pub const RADIO_TX_BUF: u16 = 0x1340;
/// Radio RX 32-byte buffer.
pub const RADIO_RX_BUF: u16 = 0x1380;

/// Sensor/ADC block register window.
pub const SENSOR_BASE: u16 = 0x1400;
/// Offset: control (write 1 to start a conversion).
pub const SENSOR_CTRL: u16 = 0;
/// Offset: latest converted sample (read-only).
pub const SENSOR_DATA: u16 = 1;
/// Offset: channel select.
pub const SENSOR_CHANNEL: u16 = 2;

/// System/power-control window (microcontroller-accessible mirror of the
/// event processor's power instructions, §4.2.6).
pub const SYS_BASE: u16 = 0x1500;
/// Offset: write 1 → the microcontroller gates itself off (end of
/// irregular-event handling).
pub const SYS_MCU_SLEEP: u16 = 0;
/// Offset: write a component id → switch that component on.
pub const SYS_POWER_ON: u16 = 1;
/// Offset: write a component id → switch that component off.
pub const SYS_POWER_OFF: u16 = 2;
/// Offset: id of the interrupt that caused the current wakeup (read-only).
pub const SYS_WAKE_CAUSE: u16 = 3;
/// Offset: general-purpose output latch (LEDs; the `blink` comparison
/// app toggles bit 0).
pub const SYS_GPIO: u16 = 4;
/// Offset: writing a mask toggles those GPIO bits (hardware toggle, like
/// the AVR's `PINx` write-to-toggle — it lets the ALU-less event
/// processor blink an LED in one `WRITEI`).
pub const SYS_GPIO_TOGGLE: u16 = 5;

/// Power-controllable components, with their 5-bit ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Component {
    /// The timer subsystem.
    Timer = 0,
    /// The threshold filter.
    Filter = 1,
    /// The message processor.
    MsgProc = 2,
    /// The radio interface.
    Radio = 3,
    /// The sensor/ADC block.
    Sensor = 4,
    /// The general-purpose microcontroller.
    Mcu = 5,
    /// Memory bank 0 (banks are ids 8–15).
    MemBank0 = 8,
}

impl Component {
    /// Component id for memory bank `bank` (0–7).
    ///
    /// # Panics
    ///
    /// Panics if `bank` is 8 or more.
    pub fn mem_bank(bank: usize) -> u8 {
        assert!(bank < 8, "bank {bank} out of range");
        Component::MemBank0 as u8 + bank as u8
    }

    /// Decode a 5-bit id into a component kind; memory banks return the
    /// bank index in the second slot.
    pub fn decode(id: u8) -> Option<(Component, Option<usize>)> {
        Some(match id {
            0 => (Component::Timer, None),
            1 => (Component::Filter, None),
            2 => (Component::MsgProc, None),
            3 => (Component::Radio, None),
            4 => (Component::Sensor, None),
            5 => (Component::Mcu, None),
            8..=15 => (Component::MemBank0, Some((id - 8) as usize)),
            _ => return None,
        })
    }

    /// Human-readable component name (used for trace events; matches the
    /// energy-meter component names).
    pub fn name(self) -> &'static str {
        match self {
            Component::Timer => "timer",
            Component::Filter => "filter",
            Component::MsgProc => "msgproc",
            Component::Radio => "radio",
            Component::Sensor => "sensor",
            Component::Mcu => "mcu",
            Component::MemBank0 => "memory",
        }
    }
}

/// The typed trace event for switching component `id` on (`on = true`)
/// or off. Memory banks map to the dedicated SRAM bank wake/gate kinds;
/// invalid ids return `None` (the bus fault is reported elsewhere).
pub fn power_trace_kind(id: u8, on: bool) -> Option<ulp_sim::TraceKind> {
    use ulp_sim::TraceKind;
    Some(match Component::decode(id)? {
        (Component::MemBank0, Some(bank)) => {
            let bank = bank as u8;
            if on {
                TraceKind::SramBankWake { bank }
            } else {
                TraceKind::SramBankGate { bank }
            }
        }
        (comp, _) => {
            let component = comp.name();
            if on {
                TraceKind::PowerOn { component }
            } else {
                TraceKind::PowerOff { component }
            }
        }
    })
}

/// Interrupt bus ids (6-bit, so up to 64; §4.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Irq {
    /// Timer 0 alarm.
    Timer0 = 0,
    /// Timer 1 alarm.
    Timer1 = 1,
    /// Timer 2 alarm.
    Timer2 = 2,
    /// Timer 3 alarm.
    Timer3 = 3,
    /// Sensor conversion complete.
    SensorDone = 8,
    /// Threshold filter: input passed the filter.
    FilterPass = 12,
    /// Message processor: outgoing frame prepared.
    MsgReady = 16,
    /// Message processor: received frame should be forwarded.
    MsgForward = 17,
    /// Message processor: irregular message, microcontroller required.
    MsgIrregular = 18,
    /// Radio: transmission complete.
    RadioTxDone = 24,
    /// Radio: frame received.
    RadioRxDone = 25,
}

impl Irq {
    /// The 6-bit interrupt id.
    pub fn id(self) -> u8 {
        self as u8
    }

    /// Timer alarm id for timer `i` (0–3).
    ///
    /// # Panics
    ///
    /// Panics if `i` is 4 or more.
    pub fn timer(i: usize) -> u8 {
        assert!(i < 4, "timer index {i} out of range");
        i as u8
    }
}

/// Number of distinct interrupt ids the bus can carry.
pub const NUM_IRQS: usize = 64;

/// Every assigned interrupt line: the line, its name, and the component
/// whose completion logic raises it.
const IRQ_LINES: &[(Irq, &str, Component)] = &[
    (Irq::Timer0, "Timer0", Component::Timer),
    (Irq::Timer1, "Timer1", Component::Timer),
    (Irq::Timer2, "Timer2", Component::Timer),
    (Irq::Timer3, "Timer3", Component::Timer),
    (Irq::SensorDone, "SensorDone", Component::Sensor),
    (Irq::FilterPass, "FilterPass", Component::Filter),
    (Irq::MsgReady, "MsgReady", Component::MsgProc),
    (Irq::MsgForward, "MsgForward", Component::MsgProc),
    (Irq::MsgIrregular, "MsgIrregular", Component::MsgProc),
    (Irq::RadioTxDone, "RadioTxDone", Component::Radio),
    (Irq::RadioRxDone, "RadioRxDone", Component::Radio),
];

fn irq_line(irq: u8) -> Option<&'static (Irq, &'static str, Component)> {
    IRQ_LINES.iter().find(|line| line.0.id() == irq)
}

/// The component whose completion logic raises interrupt `irq`, if the
/// id is assigned. A pending interrupt is proof its source was powered
/// when it fired — static analyzers use this as the entry power
/// assumption for the ISR installed on that vector.
pub fn irq_source(irq: u8) -> Option<Component> {
    irq_line(irq).map(|line| line.2)
}

/// Human-readable name of interrupt id `irq`, if assigned.
pub fn irq_name(irq: u8) -> Option<&'static str> {
    irq_line(irq).map(|line| line.1)
}

// ---------------------------------------------------------------------
// The address map as data
// ---------------------------------------------------------------------
//
// `REGIONS` is the bus decode: `slaves::Slaves::{read,write}` look each
// address up here, fault on the region's guard, and hand the slave the
// offset into the region. Tools (the `ulp-verify` static checker,
// diagnostics renderers) read the same table, so they reason about the
// map without a live `Slaves`.

/// Software access class of a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Read and write both reach the device.
    ReadWrite,
    /// Writes are silently ignored by the device (status/result/count
    /// registers latched by hardware).
    ReadOnly,
}

/// A named register within a [`RegionDef`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterDef {
    /// Offset from the region base (within one stride for strided
    /// regions).
    pub offset: u16,
    /// Register name, matching the `map` constant.
    pub name: &'static str,
    /// Access class.
    pub access: Access,
}

/// What kind of window a region is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// Banked main memory (power-guarded per 256-byte bank, ids 8–15).
    Memory,
    /// Device register window.
    DeviceRegs,
    /// A 32-byte outgoing (TX) message/radio data buffer.
    TxBuffer,
    /// A 32-byte incoming (RX) message/radio data buffer.
    RxBuffer,
    /// The always-on system/power latches.
    SysRegs,
}

/// One decoded window of the bus address map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionDef {
    /// Region name (matches trace/diagnostic vocabulary).
    pub name: &'static str,
    /// First bus address of the window.
    pub base: u16,
    /// Window length in bytes.
    pub len: u16,
    /// Component that must be powered for access to succeed (its
    /// [`name`](Component::name) names the gated slave in a bus fault),
    /// or `None` for always-on windows (`Memory` regions are guarded per
    /// bank instead; see [`guard_component`]).
    pub guard: Option<Component>,
    /// Window kind.
    pub kind: RegionKind,
    /// Repeat period of `registers` within the window (0 = no repeat;
    /// the timer window repeats its register file once per timer).
    pub reg_stride: u16,
    /// Named registers at their offsets; offsets not listed are
    /// reserved (reads as implemented, writes ignored).
    pub registers: &'static [RegisterDef],
}

impl RegionDef {
    /// The named register at `offset` into this region, or `None` for
    /// buffer/memory bytes and reserved offsets.
    pub(crate) fn register(&self, offset: u16) -> Option<&'static RegisterDef> {
        let offset = offset.checked_rem(self.reg_stride).unwrap_or(offset);
        self.registers.iter().find(|r| r.offset == offset)
    }
}

const fn reg(offset: u16, name: &'static str, access: Access) -> RegisterDef {
    RegisterDef {
        offset,
        name,
        access,
    }
}

/// Every window decoded by the bus, in ascending base order.
pub const REGIONS: &[RegionDef] = &[
    RegionDef {
        name: "mem",
        base: MEM_BASE,
        len: MEM_SIZE,
        guard: None,
        kind: RegionKind::Memory,
        reg_stride: 0,
        registers: &[],
    },
    RegionDef {
        name: "timer",
        base: TIMER_BASE,
        len: 4 * TIMER_STRIDE,
        guard: Some(Component::Timer),
        kind: RegionKind::DeviceRegs,
        reg_stride: TIMER_STRIDE,
        registers: &[
            reg(TIMER_RELOAD_LO, "TIMER_RELOAD_LO", Access::ReadWrite),
            reg(TIMER_RELOAD_HI, "TIMER_RELOAD_HI", Access::ReadWrite),
            reg(TIMER_CTRL, "TIMER_CTRL", Access::ReadWrite),
            reg(TIMER_COUNT_LO, "TIMER_COUNT_LO", Access::ReadOnly),
            reg(TIMER_COUNT_HI, "TIMER_COUNT_HI", Access::ReadOnly),
        ],
    },
    RegionDef {
        name: "filter",
        base: FILTER_BASE,
        len: 8,
        guard: Some(Component::Filter),
        kind: RegionKind::DeviceRegs,
        reg_stride: 0,
        registers: &[
            reg(FILTER_CTRL, "FILTER_CTRL", Access::ReadWrite),
            reg(FILTER_THRESHOLD, "FILTER_THRESHOLD", Access::ReadWrite),
            reg(FILTER_INPUT, "FILTER_INPUT", Access::ReadWrite),
            reg(FILTER_RESULT, "FILTER_RESULT", Access::ReadOnly),
            reg(FILTER_MODE, "FILTER_MODE", Access::ReadWrite),
        ],
    },
    RegionDef {
        name: "msg",
        base: MSG_BASE,
        len: 16,
        guard: Some(Component::MsgProc),
        kind: RegionKind::DeviceRegs,
        reg_stride: 0,
        registers: &[
            reg(MSG_CTRL, "MSG_CTRL", Access::ReadWrite),
            reg(MSG_STATUS, "MSG_STATUS", Access::ReadOnly),
            reg(MSG_SAMPLE_IN, "MSG_SAMPLE_IN", Access::ReadWrite),
            reg(MSG_SAMPLE_COUNT, "MSG_SAMPLE_COUNT", Access::ReadOnly),
            reg(MSG_TX_LEN, "MSG_TX_LEN", Access::ReadOnly),
            reg(MSG_TX_COUNT_LO, "MSG_TX_COUNT_LO", Access::ReadOnly),
            reg(MSG_TX_COUNT_HI, "MSG_TX_COUNT_HI", Access::ReadOnly),
            reg(MSG_RX_LEN, "MSG_RX_LEN", Access::ReadWrite),
            reg(MSG_AUTO_PREPARE, "MSG_AUTO_PREPARE", Access::ReadWrite),
        ],
    },
    RegionDef {
        name: "msg_tx_buf",
        base: MSG_TX_BUF,
        len: MSG_BUF_LEN,
        guard: Some(Component::MsgProc),
        kind: RegionKind::TxBuffer,
        reg_stride: 0,
        registers: &[],
    },
    RegionDef {
        name: "msg_rx_buf",
        base: MSG_RX_BUF,
        len: MSG_BUF_LEN,
        guard: Some(Component::MsgProc),
        kind: RegionKind::RxBuffer,
        reg_stride: 0,
        registers: &[],
    },
    RegionDef {
        name: "radio",
        base: RADIO_BASE,
        len: 8,
        guard: Some(Component::Radio),
        kind: RegionKind::DeviceRegs,
        reg_stride: 0,
        registers: &[
            reg(RADIO_CTRL, "RADIO_CTRL", Access::ReadWrite),
            reg(RADIO_STATUS, "RADIO_STATUS", Access::ReadOnly),
            reg(RADIO_TX_LEN, "RADIO_TX_LEN", Access::ReadWrite),
            reg(RADIO_RX_LEN, "RADIO_RX_LEN", Access::ReadOnly),
        ],
    },
    RegionDef {
        name: "radio_tx_buf",
        base: RADIO_TX_BUF,
        len: MSG_BUF_LEN,
        guard: Some(Component::Radio),
        kind: RegionKind::TxBuffer,
        reg_stride: 0,
        registers: &[],
    },
    RegionDef {
        name: "radio_rx_buf",
        base: RADIO_RX_BUF,
        len: MSG_BUF_LEN,
        guard: Some(Component::Radio),
        kind: RegionKind::RxBuffer,
        reg_stride: 0,
        registers: &[],
    },
    RegionDef {
        name: "sensor",
        base: SENSOR_BASE,
        len: 4,
        guard: Some(Component::Sensor),
        kind: RegionKind::DeviceRegs,
        reg_stride: 0,
        registers: &[
            reg(SENSOR_CTRL, "SENSOR_CTRL", Access::ReadWrite),
            reg(SENSOR_DATA, "SENSOR_DATA", Access::ReadOnly),
            reg(SENSOR_CHANNEL, "SENSOR_CHANNEL", Access::ReadWrite),
        ],
    },
    RegionDef {
        name: "sys",
        base: SYS_BASE,
        len: 8,
        guard: None,
        kind: RegionKind::SysRegs,
        reg_stride: 0,
        registers: &[
            reg(SYS_MCU_SLEEP, "SYS_MCU_SLEEP", Access::ReadWrite),
            reg(SYS_POWER_ON, "SYS_POWER_ON", Access::ReadWrite),
            reg(SYS_POWER_OFF, "SYS_POWER_OFF", Access::ReadWrite),
            reg(SYS_WAKE_CAUSE, "SYS_WAKE_CAUSE", Access::ReadOnly),
            reg(SYS_GPIO, "SYS_GPIO", Access::ReadWrite),
            reg(SYS_GPIO_TOGGLE, "SYS_GPIO_TOGGLE", Access::ReadWrite),
        ],
    },
];

/// The region decoding bus address `addr`, or `None` for unmapped
/// holes.
pub fn region_at(addr: u16) -> Option<&'static RegionDef> {
    // The first row (main memory) carries most bus traffic, every EP
    // fetch among it. Testing it against the address alone keeps a
    // table load out of that branch, which interleaved memory and
    // device accesses would otherwise mispredict late.
    let first = &REGIONS[0];
    if addr.wrapping_sub(first.base) < first.len {
        return Some(first);
    }
    let region = REGIONS.get(BLOCKS[addr as usize >> 4] as usize)?;
    (addr.wrapping_sub(region.base) < region.len).then_some(region)
}

/// The `REGIONS` index of the window in each 16-byte block of the
/// address space, `u8::MAX` for blocks no window reaches. A `const`, so
/// callers address it directly rather than through the GOT.
const BLOCKS: [u8; 4096] = {
    let mut blocks = [u8::MAX; 4096];
    let mut i = 0;
    while i < REGIONS.len() {
        let (base, len) = (REGIONS[i].base as usize, REGIONS[i].len as usize);
        assert!(base % 16 == 0, "windows start on a 16-byte block");
        let mut block = base / 16;
        while block * 16 < base + len {
            assert!(blocks[block] == u8::MAX, "one window per block");
            blocks[block] = i as u8;
            block += 1;
        }
        i += 1;
    }
    blocks
};

/// The named register at `addr`, with its region. Returns `None` for
/// unmapped addresses, buffer/memory bytes, and reserved offsets.
pub fn register_at(addr: u16) -> Option<(&'static RegionDef, &'static RegisterDef)> {
    let region = region_at(addr)?;
    Some((region, region.register(addr - region.base)?))
}

/// Whether two half-open byte ranges `[a.0, a.1)` and `[b.0, b.1)`
/// intersect. Shared by the vector-table conformance checks: the EP
/// checker tests ISR images against the tables below 0x0100, and the
/// mcu8 firmware analyzer tests recovered code blocks against the
/// ATmega-style vector slots at the bottom of flash.
pub fn ranges_overlap(a: (u32, u32), b: (u32, u32)) -> bool {
    a.0 < b.1 && b.0 < a.1
}

/// The 5-bit component id that must be powered for an access to `addr`
/// to succeed, or `None` if the address is unmapped or always-on.
/// Memory resolves to the 256-byte bank's id (8–15).
pub fn guard_component(addr: u16) -> Option<u8> {
    let region = region_at(addr)?;
    match region.kind {
        RegionKind::Memory => Some(Component::mem_bank((addr / 0x0100) as usize)),
        _ => region.guard.map(|c| c as u8),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn windows_do_not_overlap_memory() {
        assert!(TIMER_BASE >= MEM_BASE + MEM_SIZE);
        assert!(FILTER_BASE > TIMER_BASE);
        assert!(MSG_BASE > FILTER_BASE);
        assert!(RADIO_BASE > MSG_TX_BUF);
        assert!(SENSOR_BASE > RADIO_RX_BUF);
        assert!(SYS_BASE > SENSOR_BASE);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn vector_tables_fit_in_bank0() {
        assert!(EP_VECTORS + (NUM_IRQS as u16) * 2 <= 0x0080);
        assert!(MCU_VECTORS + 32 * 2 <= 0x0100);
    }

    #[test]
    fn component_ids_roundtrip() {
        assert_eq!(Component::decode(0), Some((Component::Timer, None)));
        assert_eq!(Component::decode(5), Some((Component::Mcu, None)));
        assert_eq!(Component::decode(11), Some((Component::MemBank0, Some(3))));
        assert_eq!(Component::decode(7), None);
        assert_eq!(Component::decode(16), None);
        assert_eq!(Component::mem_bank(7), 15);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_bank_panics() {
        let _ = Component::mem_bank(8);
    }

    #[test]
    fn region_table_is_sorted_and_disjoint() {
        for pair in REGIONS.windows(2) {
            assert!(
                pair[0].base + pair[0].len <= pair[1].base,
                "{} overlaps {}",
                pair[0].name,
                pair[1].name
            );
        }
    }

    #[test]
    fn region_lookup() {
        assert_eq!(region_at(0x0000).unwrap().name, "mem");
        assert_eq!(region_at(0x07FF).unwrap().name, "mem");
        assert!(region_at(0x0800).is_none(), "hole above memory");
        assert_eq!(region_at(TIMER_BASE + 31).unwrap().name, "timer");
        assert!(region_at(TIMER_BASE + 32).is_none());
        assert_eq!(region_at(MSG_TX_BUF + 31).unwrap().name, "msg_tx_buf");
        assert!(region_at(MSG_TX_BUF + 32).is_none());
        assert_eq!(region_at(SYS_BASE).unwrap().name, "sys");
        assert!(region_at(0xFFFF).is_none());
    }

    #[test]
    fn block_table_lookup_matches_a_scan_of_the_regions() {
        for addr in 0..=u16::MAX {
            let scan = REGIONS
                .iter()
                .find(|r| addr >= r.base && addr - r.base < r.len);
            assert_eq!(region_at(addr), scan, "0x{addr:04X}");
        }
    }

    #[test]
    fn register_lookup_handles_strides() {
        // Timer 2's live-count register, via the 8-byte stride.
        let (region, reg) = register_at(TIMER_BASE + 2 * TIMER_STRIDE + TIMER_COUNT_LO).unwrap();
        assert_eq!(region.name, "timer");
        assert_eq!(reg.name, "TIMER_COUNT_LO");
        assert_eq!(reg.access, Access::ReadOnly);
        let (_, reg) = register_at(MSG_BASE + MSG_STATUS).unwrap();
        assert_eq!(reg.name, "MSG_STATUS");
        assert_eq!(reg.access, Access::ReadOnly);
        let (_, reg) = register_at(RADIO_BASE + RADIO_TX_LEN).unwrap();
        assert_eq!(reg.access, Access::ReadWrite);
        // Buffer bytes and reserved offsets have no register entry.
        assert!(register_at(MSG_TX_BUF).is_none());
        assert!(register_at(MSG_BASE + 12).is_none());
        assert!(register_at(0x0900).is_none());
    }

    #[test]
    fn guard_components() {
        assert_eq!(guard_component(0x0000), Some(Component::mem_bank(0)));
        assert_eq!(guard_component(0x0712), Some(Component::mem_bank(7)));
        assert_eq!(guard_component(SENSOR_BASE), Some(Component::Sensor as u8));
        assert_eq!(guard_component(RADIO_RX_BUF), Some(Component::Radio as u8));
        assert_eq!(guard_component(SYS_BASE), None, "sys window is always on");
        assert_eq!(guard_component(0x2000), None);
    }

    #[test]
    fn irq_sources_and_names() {
        assert_eq!(irq_source(Irq::Timer2.id()), Some(Component::Timer));
        assert_eq!(irq_source(Irq::SensorDone.id()), Some(Component::Sensor));
        assert_eq!(irq_source(Irq::FilterPass.id()), Some(Component::Filter));
        assert_eq!(irq_source(Irq::MsgForward.id()), Some(Component::MsgProc));
        assert_eq!(irq_source(Irq::RadioRxDone.id()), Some(Component::Radio));
        assert_eq!(irq_source(63), None);
        assert_eq!(irq_name(Irq::MsgReady.id()), Some("MsgReady"));
        assert_eq!(irq_name(5), None);
    }

    #[test]
    fn every_irq_line_is_listed_once() {
        // The match is exhaustive, so a new `Irq` variant does not
        // compile until it has an index here, and then this test fails
        // until `IRQ_LINES` lists it.
        let index = |irq: Irq| match irq {
            Irq::Timer0 => 0,
            Irq::Timer1 => 1,
            Irq::Timer2 => 2,
            Irq::Timer3 => 3,
            Irq::SensorDone => 4,
            Irq::FilterPass => 5,
            Irq::MsgReady => 6,
            Irq::MsgForward => 7,
            Irq::MsgIrregular => 8,
            Irq::RadioTxDone => 9,
            Irq::RadioRxDone => 10,
        };
        let mut listed = [0; 11];
        for &(irq, name, _) in IRQ_LINES {
            listed[index(irq)] += 1;
            assert_eq!(format!("{irq:?}"), name, "named after its variant");
        }
        assert_eq!(listed, [1; 11]);
    }

    #[test]
    fn irq_ids_fit_six_bits() {
        for irq in [
            Irq::Timer0,
            Irq::Timer3,
            Irq::SensorDone,
            Irq::FilterPass,
            Irq::MsgReady,
            Irq::MsgForward,
            Irq::MsgIrregular,
            Irq::RadioTxDone,
            Irq::RadioRxDone,
        ] {
            assert!((irq.id() as usize) < NUM_IRQS);
        }
        assert_eq!(Irq::timer(2), 2);
    }
}
