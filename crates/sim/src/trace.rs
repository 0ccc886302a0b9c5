//! Typed, lightweight event tracing.
//!
//! Traces let tests and the bench harness observe microarchitectural
//! behaviour (event-processor state transitions, bus transactions, power
//! switching, interrupt flow) without the machine models printing
//! anything themselves. Events are recorded as a typed [`TraceKind`] —
//! no `String` is formatted on the hot path — and rendered lazily by the
//! lossless `Display` implementation, whose output is byte-identical to
//! the historical string-formatted trace for every pre-existing event
//! kind.

use crate::units::Cycles;
use std::collections::VecDeque;
use std::fmt;
use ulp_isa::ep::Instruction;

/// What happened, as structured data. The `Display` implementation is
/// lossless and, for the kinds that existed before the typed layer,
/// renders the exact legacy strings — golden output does not change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceKind {
    /// Event processor took an interrupt and started the vector lookup.
    EpLookup {
        /// The dispatched interrupt id.
        irq: u8,
    },
    /// Event processor resolved the ISR address and starts fetching.
    EpFetch {
        /// The ISR byte address.
        isr: u16,
    },
    /// Event processor begins executing one ISR instruction.
    EpExecute {
        /// The decoded instruction.
        insn: Instruction,
    },
    /// ISR finished with `TERMINATE`; the EP returned to `READY`.
    EpTerminate,
    /// ISR finished with `WAKEUP`; the EP returned to `READY` and hands
    /// off to the microcontroller.
    EpWakeupMcu {
        /// Microcontroller handler byte address.
        handler: u16,
    },
    /// An interrupt line was asserted (accepted by the arbiter).
    IrqAssert {
        /// The interrupt id.
        irq: u8,
    },
    /// The arbiter granted an interrupt to a master.
    IrqDispatch {
        /// The interrupt id.
        irq: u8,
        /// Cycles the interrupt waited between assert and dispatch.
        waited: u64,
    },
    /// A bus read performed by an ISR.
    BusRead {
        /// Bus address.
        addr: u16,
        /// Value read.
        value: u8,
    },
    /// A bus write performed by an ISR.
    BusWrite {
        /// Bus address.
        addr: u16,
        /// Value written.
        value: u8,
    },
    /// A component was switched on via the power-control bus.
    PowerOn {
        /// Component name.
        component: &'static str,
    },
    /// A component was switched off via the power-control bus.
    PowerOff {
        /// Component name.
        component: &'static str,
    },
    /// An SRAM bank left the gated state (wake handshake started).
    SramBankWake {
        /// Bank index.
        bank: u8,
    },
    /// An SRAM bank was Vdd-gated (contents lost).
    SramBankGate {
        /// Bank index.
        bank: u8,
    },
    /// The radio began transmitting a frame.
    RadioTxStart,
    /// The radio finished transmitting a frame.
    RadioTxDone {
        /// Frame length in bytes.
        len: u8,
    },
    /// A frame from the medium was delivered into the receive buffer.
    RadioRxDelivered,
    /// The microcontroller was woken by the event processor.
    McuWake {
        /// Handler byte address.
        handler: u16,
        /// Interrupt id that caused the wakeup.
        cause: u8,
    },
    /// The microcontroller gated itself off.
    McuSleep,
    /// A scheduled hardware fault was injected into the machine.
    FaultInjected {
        /// The injected fault.
        fault: crate::fault::FaultKind,
    },
    /// The machine finished classifying an injected fault: every
    /// [`FaultInjected`](TraceKind::FaultInjected) event is followed by
    /// exactly one of these, so no corruption path is silent.
    FaultAbsorbed {
        /// The injected fault.
        fault: crate::fault::FaultKind,
        /// What the machine observed.
        disposition: crate::fault::FaultDisposition,
    },
    /// A static annotation (no formatting cost).
    Note(&'static str),
    /// A pre-formatted annotation (escape hatch; allocates).
    Text(String),
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceKind::EpLookup { irq } => write!(f, "LOOKUP irq={irq}"),
            TraceKind::EpFetch { isr } => write!(f, "FETCH isr=0x{isr:04X}"),
            TraceKind::EpExecute { insn } => write!(f, "EXECUTE {insn}"),
            TraceKind::EpTerminate => write!(f, "READY (terminate)"),
            TraceKind::EpWakeupMcu { handler } => {
                write!(f, "READY (wakeup µC @0x{handler:04X})")
            }
            TraceKind::IrqAssert { irq } => write!(f, "assert irq={irq}"),
            TraceKind::IrqDispatch { irq, waited } => {
                write!(f, "dispatch irq={irq} after {waited} cycles")
            }
            TraceKind::BusRead { addr, value } => {
                write!(f, "read 0x{addr:04X} -> 0x{value:02X}")
            }
            TraceKind::BusWrite { addr, value } => {
                write!(f, "write 0x{addr:04X} <- 0x{value:02X}")
            }
            TraceKind::PowerOn { component } => write!(f, "on {component}"),
            TraceKind::PowerOff { component } => write!(f, "off {component}"),
            TraceKind::SramBankWake { bank } => write!(f, "bank {bank} wake"),
            TraceKind::SramBankGate { bank } => write!(f, "bank {bank} gated"),
            TraceKind::RadioTxStart => write!(f, "tx start"),
            TraceKind::RadioTxDone { len } => write!(f, "tx done ({len} bytes)"),
            TraceKind::RadioRxDelivered => write!(f, "rx frame delivered"),
            TraceKind::McuWake { handler, cause } => {
                write!(f, "wakeup @0x{handler:04X} (irq {cause})")
            }
            TraceKind::McuSleep => write!(f, "sleep (Vdd-gated)"),
            TraceKind::FaultInjected { fault } => write!(f, "INJECT {fault}"),
            TraceKind::FaultAbsorbed { fault, disposition } => {
                write!(f, "FAULT {fault} -> {disposition}")
            }
            TraceKind::Note(s) => f.write_str(s),
            TraceKind::Text(s) => f.write_str(s),
        }
    }
}

impl From<&'static str> for TraceKind {
    fn from(s: &'static str) -> Self {
        TraceKind::Note(s)
    }
}

impl From<String> for TraceKind {
    fn from(s: String) -> Self {
        TraceKind::Text(s)
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time the event occurred.
    pub at: Cycles,
    /// Originating component (static so tracing stays allocation-light).
    pub component: &'static str,
    /// The structured event.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// The human-readable description (the `Display` of the kind).
    pub fn detail(&self) -> String {
        self.kind.to_string()
    }

    fn fmt_width(&self, f: &mut fmt::Formatter<'_>, width: usize) -> fmt::Result {
        write!(
            f,
            "[{:>width$}] {:<12} {}",
            self.at.0,
            self.component,
            self.kind,
            width = width
        )
    }
}

fn cycle_digits(v: u64) -> usize {
    let mut digits = 1;
    let mut v = v;
    while v >= 10 {
        v /= 10;
        digits += 1;
    }
    digits
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Historically the cycle field was `{:>10}`, which silently
        // misaligned once a multi-month lifetime run crossed 10^10
        // cycles. The width now grows with the value (never below the
        // historical 10), so output for short runs is byte-identical
        // and long runs stay parseable.
        self.fmt_width(f, cycle_digits(self.at.0).max(10))
    }
}

/// A bounded in-memory trace buffer. Disabled by default so the hot path
/// pays only a branch.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    enabled: bool,
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
    peak: usize,
}

impl TraceBuffer {
    /// A disabled buffer with the given capacity.
    pub fn new(capacity: usize) -> TraceBuffer {
        TraceBuffer {
            enabled: false,
            capacity,
            events: VecDeque::new(),
            dropped: 0,
            peak: 0,
        }
    }

    /// Enable or disable recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record an event if enabled. At capacity the buffer keeps the
    /// first `capacity` events and counts each later one as dropped.
    pub fn record(&mut self, at: Cycles, component: &'static str, kind: impl Into<TraceKind>) {
        if !self.enabled {
            return;
        }
        if self.events.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.events.push_back(TraceEvent {
            at,
            component,
            kind: kind.into(),
        });
        self.peak = self.peak.max(self.events.len());
    }

    /// Record `k` more iterations of `len` cycles like the one that ended
    /// at `end`, which recorded `recorded` events: `events` are the ones
    /// it kept, each stamped with its cycles before that end. Copies
    /// shifted by whole iterations go in until the buffer is full and the
    /// rest count as dropped, as recording them one by one would.
    pub fn repeat(&mut self, events: &[TraceEvent], recorded: u64, end: Cycles, len: u64, k: u64) {
        let kept = self.events.len();
        if !events.is_empty() {
            let room = self.capacity.saturating_sub(kept);
            let copies = (1..=k).flat_map(|j| {
                events.iter().map(move |e| TraceEvent {
                    at: Cycles(end.0 + j * len - e.at.0),
                    ..e.clone()
                })
            });
            self.events.extend(copies.take(room));
        }
        self.dropped += recorded * k - (self.events.len() - kept) as u64;
        self.peak = self.peak.max(self.events.len());
    }

    /// Recorded events in order.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The `i`-th retained event.
    pub fn get(&self, i: usize) -> Option<&TraceEvent> {
        self.events.get(i)
    }

    /// Number of events lost to the capacity limit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// High-water mark of retained events since construction (or the
    /// last [`clear`](TraceBuffer::clear)) — the peak ring-buffer
    /// occupancy surfaced as a host perf counter.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Clear all recorded events (keeps the enabled flag).
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
        self.peak = 0;
    }

    /// Events from a specific component.
    pub fn from_component<'a>(
        &'a self,
        component: &'a str,
    ) -> impl Iterator<Item = &'a TraceEvent> + 'a {
        self.events.iter().filter(move |e| e.component == component)
    }

    /// The whole buffer as one aligned listing: every line's cycle field
    /// uses the buffer-wide maximum digit width (minimum 10), so columns
    /// stay aligned even when late events cross 10^10 cycles.
    pub fn listing(&self) -> String {
        let width = self
            .events
            .iter()
            .map(|e| cycle_digits(e.at.0))
            .max()
            .unwrap_or(0)
            .max(10);
        struct Aligned<'a>(&'a TraceEvent, usize);
        impl fmt::Display for Aligned<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.0.fmt_width(f, self.1)
            }
        }
        let mut out = String::new();
        for e in &self.events {
            use fmt::Write as _;
            let _ = writeln!(out, "{}", Aligned(e, width));
        }
        out
    }
}

impl Default for TraceBuffer {
    fn default() -> Self {
        TraceBuffer::new(65_536)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_buffer_records_nothing() {
        let mut t = TraceBuffer::new(4);
        t.record(Cycles(1), "ep", TraceKind::EpLookup { irq: 0 });
        assert!(t.is_empty());
    }

    #[test]
    fn records_when_enabled() {
        let mut t = TraceBuffer::new(4);
        t.set_enabled(true);
        assert!(t.is_enabled());
        t.record(Cycles(1), "ep", TraceKind::EpLookup { irq: 3 });
        t.record(
            Cycles(2),
            "bus",
            TraceKind::BusRead {
                addr: 0x1000,
                value: 9,
            },
        );
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(0).unwrap().component, "ep");
        assert_eq!(t.from_component("bus").count(), 1);
    }

    #[test]
    fn capacity_counts_drops() {
        let mut t = TraceBuffer::new(1);
        t.set_enabled(true);
        t.record(Cycles(1), "a", "x");
        t.record(Cycles(2), "a", "y");
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(0).unwrap().at, Cycles(1), "drop-newest keeps head");
        assert_eq!(t.dropped(), 1);
        t.clear();
        assert_eq!(t.dropped(), 0);
        assert!(t.is_empty());
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut t = TraceBuffer::new(8);
        t.set_enabled(true);
        for i in 0..5u64 {
            t.record(Cycles(i), "a", "e");
        }
        assert_eq!(t.peak(), 5);
        t.clear();
        assert_eq!(t.peak(), 0, "clear resets the mark");
        t.record(Cycles(9), "a", "e");
        assert_eq!(t.peak(), 1);
    }

    /// Repeating an iteration gives the buffer recording each copy one
    /// by one would: kept events, drops and peak, at every capacity from
    /// none to more than the copies need, the iteration itself recorded
    /// in full or cut short by the capacity.
    #[test]
    fn repeat_matches_recording_each_iteration() {
        // Two events 3 and 9 cycles into each 10-cycle iteration; the
        // first iteration ends at cycle 25.
        let iteration = |t: &mut TraceBuffer, end: u64| {
            t.record(Cycles(end - 7), "a", "x");
            t.record(Cycles(end - 1), "b", "y");
        };
        for capacity in 0..12 {
            let mut want = TraceBuffer::new(capacity);
            want.set_enabled(true);
            want.record(Cycles(1), "c", "z");
            let mut got = want.clone();
            for i in 0..4 {
                iteration(&mut want, 25 + 10 * i);
            }
            iteration(&mut got, 25);
            let events: Vec<TraceEvent> = got
                .events()
                .skip(1)
                .map(|e| TraceEvent {
                    at: Cycles(25 - e.at.0),
                    ..e.clone()
                })
                .collect();
            got.repeat(&events, 2, Cycles(25), 10, 3);
            assert_eq!(got.listing(), want.listing(), "capacity {capacity}");
            assert_eq!(got.dropped(), want.dropped(), "capacity {capacity}");
            assert_eq!(got.peak(), want.peak(), "capacity {capacity}");
        }
    }

    #[test]
    fn display_format_matches_legacy_strings() {
        let e = TraceEvent {
            at: Cycles(42),
            component: "ep",
            kind: TraceKind::EpExecute {
                insn: Instruction::Terminate,
            },
        };
        assert_eq!(e.to_string(), "[        42] ep           EXECUTE terminate");
        let w = TraceEvent {
            at: Cycles(7),
            component: "mcu",
            kind: TraceKind::McuWake {
                handler: 0x0400,
                cause: 18,
            },
        };
        assert_eq!(
            w.to_string(),
            "[         7] mcu          wakeup @0x0400 (irq 18)"
        );
        assert_eq!(
            TraceKind::EpWakeupMcu { handler: 0x0400 }.to_string(),
            "READY (wakeup µC @0x0400)"
        );
        assert_eq!(TraceKind::EpLookup { irq: 5 }.to_string(), "LOOKUP irq=5");
        assert_eq!(
            TraceKind::EpFetch { isr: 0x0200 }.to_string(),
            "FETCH isr=0x0200"
        );
        assert_eq!(TraceKind::EpTerminate.to_string(), "READY (terminate)");
        assert_eq!(TraceKind::McuSleep.to_string(), "sleep (Vdd-gated)");
        assert_eq!(
            TraceKind::RadioRxDelivered.to_string(),
            "rx frame delivered"
        );
    }

    #[test]
    fn fault_kinds_render_injection_and_disposition() {
        use crate::fault::{FaultDisposition, FaultKind};
        let k = FaultKind::DroppedIrq { line: 18 };
        assert_eq!(
            TraceKind::FaultInjected { fault: k }.to_string(),
            "INJECT dropped irq 18"
        );
        assert_eq!(
            TraceKind::FaultAbsorbed {
                fault: k,
                disposition: FaultDisposition::Degraded,
            }
            .to_string(),
            "FAULT dropped irq 18 -> degraded"
        );
    }

    #[test]
    fn eleven_digit_cycle_counts_stay_aligned() {
        // Regression: the fixed `{:>10}` field silently misaligned once
        // cycle counts crossed 10 digits (a ~month at 4 MHz). Single-event
        // display now widens, and `listing()` aligns the whole buffer.
        let big = TraceEvent {
            at: Cycles(123_456_789_012),
            component: "ep",
            kind: TraceKind::EpTerminate,
        };
        let s = big.to_string();
        assert!(s.starts_with("[123456789012] "), "no truncation/shift: {s}");

        let mut t = TraceBuffer::new(8);
        t.set_enabled(true);
        t.record(Cycles(5), "ep", TraceKind::EpTerminate);
        t.record(Cycles(123_456_789_012), "mcu", TraceKind::McuSleep);
        let listing = t.listing();
        let cols: Vec<usize> = listing
            .lines()
            .map(|l| l.find(']').expect("bracketed cycle field"))
            .collect();
        assert_eq!(cols[0], cols[1], "columns aligned:\n{listing}");
        assert!(listing.lines().all(|l| l.starts_with('[')));
    }

    #[test]
    fn small_cycle_listing_matches_display() {
        // For ≤10-digit cycles the aligned listing and per-event Display
        // agree byte-for-byte (golden stability).
        let mut t = TraceBuffer::new(4);
        t.set_enabled(true);
        t.record(Cycles(42), "ep", TraceKind::EpLookup { irq: 1 });
        t.record(Cycles(9_999_999_999), "ep", TraceKind::EpTerminate);
        let listing = t.listing();
        let by_display: String = t.events().map(|e| format!("{e}\n")).collect();
        assert_eq!(listing, by_display);
    }
}
