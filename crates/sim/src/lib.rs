#![warn(missing_docs)]
//! Cycle-accurate simulation kernel for the ulp-node reproduction.
//!
//! This crate plays the role the SystemC library played for the paper's
//! original simulator: it provides the *harness* — clocks, per-component
//! energy metering, an execution engine with idle-skip fast-forward, and
//! lightweight tracing — while the machine models themselves live in
//! `ulp-core` and `ulp-mica`.
//!
//! # Example
//!
//! ```
//! use ulp_sim::{Engine, Simulatable, StepOutcome, Cycles, Frequency};
//!
//! /// A toy machine that is busy for 5 cycles then sleeps for 95.
//! struct Duty { now: Cycles }
//! impl Simulatable for Duty {
//!     fn now(&self) -> Cycles { self.now }
//!     fn step(&mut self) -> StepOutcome {
//!         self.now += Cycles(1);
//!         if self.now.0 % 100 < 5 { StepOutcome::Busy } else { StepOutcome::Idle }
//!     }
//!     fn next_wakeup(&self) -> Option<Cycles> {
//!         Some(Cycles(self.now.0 / 100 * 100 + 100))
//!     }
//!     fn skip_to(&mut self, target: Cycles) { self.now = target; }
//! }
//!
//! let mut engine = Engine::new(Duty { now: Cycles(0) });
//! let stats = engine.run_for(Cycles(1_000));
//! assert_eq!(engine.machine().now, Cycles(1_000));
//! assert!(stats.skipped.0 > stats.stepped.0, "idle-skip dominated");
//! # let _ = Frequency::from_khz(100.0);
//! ```

pub mod energy;
pub mod engine;
pub mod fault;
pub mod perf;
pub mod power;
pub mod repeat;
pub mod telemetry;
pub mod trace;
pub mod units;

pub use energy::{ComponentStats, Draw, EnergyMeter, Interval, MeterId};
pub use engine::{skip_target, Engine, IdleAdvance, RunStats, Simulatable, StepOutcome};
pub use fault::{FaultDisposition, FaultEvent, FaultKind, FaultPlan, FaultStats};
pub use perf::{PerfSnapshot, Profiler};
pub use power::{PowerMode, PowerSpec};
pub use telemetry::{ChromeTrace, Log2Histogram, Metric, Metrics};
pub use trace::{TraceBuffer, TraceEvent, TraceKind};
pub use units::{Cycles, Energy, Frequency, Power, Seconds, Voltage};
