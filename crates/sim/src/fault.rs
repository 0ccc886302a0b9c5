//! Deterministic hardware fault injection.
//!
//! Long-term deployments are dominated by *transient hardware* faults —
//! SEU bit-flips in SRAM, stuck handshake lines, spurious or lost
//! interrupt edges, radio symbol errors, supply brownouts — not by the
//! adversarial *inputs* the failure-injection suite already covers. This
//! module provides the vocabulary for modelling them:
//!
//! * [`FaultKind`] — the typed fault taxonomy;
//! * [`FaultPlan`] — a deterministic, seed-driven schedule of faults,
//!   sorted by injection cycle and consumed in order;
//! * [`FaultDisposition`] — what the machine observed when the fault
//!   landed (absorbed / degraded / fatal), so no injection is ever
//!   silent;
//! * [`FaultStats`] — the running disposition tally a machine exposes.
//!
//! The plan itself is machine-agnostic: `ulp-core` and `ulp-mica` thread
//! injection hooks through their buses, interrupt fabrics, SRAM banks and
//! radios, and record every injection as a
//! [`TraceKind::FaultInjected`](crate::trace::TraceKind::FaultInjected) /
//! [`TraceKind::FaultAbsorbed`](crate::trace::TraceKind::FaultAbsorbed)
//! pair in the trace buffer. With an **empty** plan every hook is a
//! single untaken branch, preserving the zero-observer-effect contract
//! the telemetry layer already obeys: goldens and determinism digests are
//! byte-identical with and without the subsystem compiled in.
//!
//! # Determinism
//!
//! [`FaultPlan::generate`] expands a `(seed, horizon, count)` triple into
//! a schedule via the workspace xoshiro256** PRNG, so a printed seed is
//! sufficient to replay any chaos campaign bit-exactly on any platform.
//!
//! ```
//! use ulp_sim::fault::FaultPlan;
//! let a = FaultPlan::generate(7, 100_000, 16);
//! let b = FaultPlan::generate(7, 100_000, 16);
//! assert_eq!(a.events(), b.events());
//! assert_eq!(a.len(), 16);
//! ```

use crate::units::Cycles;
use std::fmt;
use ulp_testkit::Rng;

/// A typed transient hardware fault.
///
/// Each variant names the physical phenomenon and carries exactly the
/// parameters its injection hook needs. Variants are `Copy` so they can
/// ride inside trace events without allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A single-event upset flips one bit of banked SRAM.
    ///
    /// `bank` is derived from `addr` (256-byte banks) and recorded for
    /// the trace; a flip aimed at a power-gated bank is absorbed, because
    /// gated banks lose state anyway and are zeroed on wake.
    SramBitFlip {
        /// SRAM bank holding the target byte.
        bank: u8,
        /// Absolute byte address of the target.
        addr: u16,
        /// Bit index `0..8` within the byte.
        bit: u8,
    },
    /// A power-gating handshake line sticks: the next switch-on of
    /// `component` takes `cycles` extra cycles before the peripheral
    /// acknowledges.
    StuckHandshake {
        /// Raw component id (the bus `set_power` encoding).
        component: u8,
        /// Extra acknowledge latency, in cycles.
        cycles: u8,
    },
    /// A pending interrupt edge is lost before the arbiter grants it.
    DroppedIrq {
        /// Interrupt line `0..64`.
        line: u8,
    },
    /// A glitch asserts an interrupt line that no peripheral raised.
    SpuriousIrq {
        /// Interrupt line `0..64`.
        line: u8,
    },
    /// Channel noise corrupts a burst of bytes in upcoming radio frames.
    RadioByteError {
        /// Number of consecutive outgoing frames affected.
        burst: u8,
    },
    /// The supply rail sags below the retention threshold for `duration`
    /// cycles. Short sags degrade (in-flight work is aborted); long sags
    /// are fatal.
    Brownout {
        /// Sag duration in cycles.
        duration: u16,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::SramBitFlip { bank, addr, bit } => {
                write!(f, "sram bit-flip bank {bank} addr=0x{addr:04X} bit {bit}")
            }
            FaultKind::StuckHandshake { component, cycles } => {
                write!(
                    f,
                    "stuck handshake component {component} for {cycles} cycles"
                )
            }
            FaultKind::DroppedIrq { line } => write!(f, "dropped irq {line}"),
            FaultKind::SpuriousIrq { line } => write!(f, "spurious irq {line}"),
            FaultKind::RadioByteError { burst } => {
                write!(f, "radio byte error burst {burst}")
            }
            FaultKind::Brownout { duration } => write!(f, "brownout {duration} cycles"),
        }
    }
}

/// What the machine observed when an injected fault landed.
///
/// Every injection is classified — there is no silent path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDisposition {
    /// The fault hit hardened or inert state (gated bank, idle line,
    /// powered-off peripheral) and had no architectural effect.
    Absorbed,
    /// The fault perturbed live state; the machine continues with
    /// degraded service (lost event, corrupted frame, extra latency).
    Degraded,
    /// The fault exceeded the survivable envelope; the machine halts
    /// with a recorded system fault.
    Fatal,
}

impl fmt::Display for FaultDisposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultDisposition::Absorbed => "absorbed",
            FaultDisposition::Degraded => "degraded",
            FaultDisposition::Fatal => "fatal",
        })
    }
}

/// One scheduled fault: *inject `kind` at cycle `at`*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Injection cycle (machine-local time).
    pub at: Cycles,
    /// The fault to inject.
    pub kind: FaultKind,
}

/// A deterministic schedule of hardware faults, sorted by cycle and
/// consumed front-to-back by the owning machine.
///
/// Build one explicitly with [`push`](FaultPlan::push) or expand a seed
/// with [`generate`](FaultPlan::generate). An empty plan is the default
/// everywhere and costs one untaken branch per machine cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    cursor: usize,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Append a fault at `at`, keeping the schedule sorted. Stable: two
    /// faults at the same cycle inject in insertion order.
    pub fn push(&mut self, at: Cycles, kind: FaultKind) {
        let idx = self.events.partition_point(|e| e.at.0 <= at.0);
        self.events.insert(idx, FaultEvent { at, kind });
    }

    /// Expand `(seed, horizon, count)` into a schedule of `count` faults
    /// uniformly placed over cycles `1..=horizon`, with kinds and
    /// parameters drawn from the workspace PRNG. Deterministic across
    /// platforms.
    pub fn generate(seed: u64, horizon: u64, count: usize) -> FaultPlan {
        let mut rng = Rng::from_seed(seed);
        let mut plan = FaultPlan::new();
        let horizon = horizon.max(1);
        for _ in 0..count {
            let at = Cycles(rng.gen_range(1u64..=horizon));
            let kind = match rng.gen_range(0u32..6) {
                0 => {
                    let addr = rng.gen_range(0u16..0x0800);
                    FaultKind::SramBitFlip {
                        bank: (addr >> 8) as u8,
                        addr,
                        bit: rng.gen_range(0u8..8),
                    }
                }
                1 => FaultKind::StuckHandshake {
                    component: rng.gen_range(0u8..5),
                    cycles: rng.gen_range(1u8..=16),
                },
                2 => FaultKind::DroppedIrq {
                    line: rng.gen_range(0u8..64),
                },
                3 => FaultKind::SpuriousIrq {
                    line: rng.gen_range(0u8..64),
                },
                4 => FaultKind::RadioByteError {
                    burst: rng.gen_range(1u8..=4),
                },
                _ => FaultKind::Brownout {
                    duration: rng.gen_range(1u16..=8),
                },
            };
            plan.push(at, kind);
        }
        plan
    }

    /// Number of faults not yet consumed.
    pub fn len(&self) -> usize {
        self.events.len() - self.cursor
    }

    /// `true` when every scheduled fault has been consumed (or none was
    /// ever scheduled).
    pub fn is_empty(&self) -> bool {
        self.cursor >= self.events.len()
    }

    /// The full schedule, including already-consumed entries.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Injection cycle of the next pending fault, if any. Machines fold
    /// this into `next_wakeup` so idle-skip never fast-forwards past a
    /// scheduled fault.
    pub fn next_at(&self) -> Option<Cycles> {
        self.events.get(self.cursor).map(|e| e.at)
    }

    /// Pop the next fault whose injection cycle is `<= now`, if any.
    /// Call in a loop to drain several faults due on the same cycle.
    pub fn next_due(&mut self, now: Cycles) -> Option<FaultEvent> {
        let e = *self.events.get(self.cursor)?;
        if e.at.0 <= now.0 {
            self.cursor += 1;
            Some(e)
        } else {
            None
        }
    }

    /// Rewind the consumption cursor so the same plan can drive a second
    /// run (determinism double-runs).
    pub fn reset(&mut self) {
        self.cursor = 0;
    }
}

/// Running tally of injected faults by disposition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Total faults injected.
    pub injected: u64,
    /// Faults that hit inert state and had no effect.
    pub absorbed: u64,
    /// Faults that perturbed live state (service degraded, machine up).
    pub degraded: u64,
    /// Faults that halted the machine.
    pub fatal: u64,
}

impl FaultStats {
    /// Record one injection with its observed disposition.
    pub fn record(&mut self, d: FaultDisposition) {
        self.injected += 1;
        match d {
            FaultDisposition::Absorbed => self.absorbed += 1,
            FaultDisposition::Degraded => self.degraded += 1,
            FaultDisposition::Fatal => self.fatal += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_keeps_sorted_and_stable() {
        let mut plan = FaultPlan::new();
        plan.push(Cycles(50), FaultKind::DroppedIrq { line: 1 });
        plan.push(Cycles(10), FaultKind::SpuriousIrq { line: 2 });
        plan.push(Cycles(50), FaultKind::DroppedIrq { line: 3 });
        let ats: Vec<u64> = plan.events().iter().map(|e| e.at.0).collect();
        assert_eq!(ats, [10, 50, 50]);
        // Stable at equal cycles: line 1 was pushed before line 3.
        assert_eq!(plan.events()[1].kind, FaultKind::DroppedIrq { line: 1 });
        assert_eq!(plan.events()[2].kind, FaultKind::DroppedIrq { line: 3 });
    }

    #[test]
    fn next_due_consumes_in_order() {
        let mut plan = FaultPlan::new();
        plan.push(Cycles(5), FaultKind::DroppedIrq { line: 0 });
        plan.push(Cycles(5), FaultKind::SpuriousIrq { line: 1 });
        plan.push(Cycles(9), FaultKind::RadioByteError { burst: 1 });
        assert_eq!(plan.next_at(), Some(Cycles(5)));
        assert_eq!(plan.next_due(Cycles(4)), None);
        assert_eq!(
            plan.next_due(Cycles(5)).map(|e| e.kind),
            Some(FaultKind::DroppedIrq { line: 0 })
        );
        assert_eq!(
            plan.next_due(Cycles(5)).map(|e| e.kind),
            Some(FaultKind::SpuriousIrq { line: 1 })
        );
        assert_eq!(plan.next_due(Cycles(5)), None);
        assert_eq!(plan.next_at(), Some(Cycles(9)));
        assert_eq!(plan.len(), 1);
        assert!(plan.next_due(Cycles(100)).is_some());
        assert!(plan.is_empty());
        plan.reset();
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.next_at(), Some(Cycles(5)));
    }

    #[test]
    fn generate_is_deterministic_sorted_and_in_bounds() {
        let a = FaultPlan::generate(0xC0FFEE, 10_000, 64);
        let b = FaultPlan::generate(0xC0FFEE, 10_000, 64);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        let mut prev = 0u64;
        for e in a.events() {
            assert!(e.at.0 >= 1 && e.at.0 <= 10_000, "{:?}", e);
            assert!(e.at.0 >= prev, "not sorted: {:?}", a.events());
            prev = e.at.0;
            match e.kind {
                FaultKind::SramBitFlip { bank, addr, bit } => {
                    assert!(addr < 0x0800 && bit < 8);
                    assert_eq!(bank, (addr >> 8) as u8);
                }
                FaultKind::StuckHandshake { component, cycles } => {
                    assert!(component < 5 && (1..=16).contains(&cycles));
                }
                FaultKind::DroppedIrq { line } | FaultKind::SpuriousIrq { line } => {
                    assert!(line < 64);
                }
                FaultKind::RadioByteError { burst } => assert!((1..=4).contains(&burst)),
                FaultKind::Brownout { duration } => assert!((1..=8).contains(&duration)),
            }
        }
        let c = FaultPlan::generate(0xC0FFEF, 10_000, 64);
        assert_ne!(a, c, "seed must matter");
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(
            FaultKind::SramBitFlip {
                bank: 2,
                addr: 0x2A0,
                bit: 7
            }
            .to_string(),
            "sram bit-flip bank 2 addr=0x02A0 bit 7"
        );
        assert_eq!(
            FaultKind::StuckHandshake {
                component: 3,
                cycles: 5
            }
            .to_string(),
            "stuck handshake component 3 for 5 cycles"
        );
        assert_eq!(
            FaultKind::DroppedIrq { line: 9 }.to_string(),
            "dropped irq 9"
        );
        assert_eq!(
            FaultKind::SpuriousIrq { line: 4 }.to_string(),
            "spurious irq 4"
        );
        assert_eq!(
            FaultKind::RadioByteError { burst: 3 }.to_string(),
            "radio byte error burst 3"
        );
        assert_eq!(
            FaultKind::Brownout { duration: 70 }.to_string(),
            "brownout 70 cycles"
        );
        assert_eq!(FaultDisposition::Absorbed.to_string(), "absorbed");
        assert_eq!(FaultDisposition::Degraded.to_string(), "degraded");
        assert_eq!(FaultDisposition::Fatal.to_string(), "fatal");
    }

    #[test]
    fn stats_tally_dispositions() {
        let mut s = FaultStats::default();
        s.record(FaultDisposition::Absorbed);
        s.record(FaultDisposition::Degraded);
        s.record(FaultDisposition::Degraded);
        s.record(FaultDisposition::Fatal);
        assert_eq!(s.injected, 4);
        assert_eq!((s.absorbed, s.degraded, s.fatal), (1, 2, 1));
    }
}
