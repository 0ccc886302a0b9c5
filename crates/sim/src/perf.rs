//! Host-side observability: a span profiler and perf counters for the
//! simulator itself.
//!
//! Everything else in this crate observes the *guest* — the simulated
//! hardware. This module observes the *host*: where wall-clock time goes
//! inside the engine (fetch/decode/execute, event dispatch, idle-skip,
//! fault application, telemetry export) and how fast the simulator is
//! running (sim-cycles/sec, events/sec, sweep points/sec). That is the
//! measurement substrate any change to the step loop, dispatch or
//! idle-skip is judged against.
//!
//! # Determinism contract
//!
//! A profiler mixes two very different kinds of data and keeps them
//! strictly segregated:
//!
//! * **Deterministic** — span *call counts*, named *counters*, and the
//!   cycle-timestamped *counter samples* that become a Perfetto counter
//!   track. These are pure functions of the guest's behaviour: two
//!   same-seed runs must produce byte-identical
//!   [`counts_table`](PerfSnapshot::counts_table) output (golden-pinned
//!   by `tests/perf.rs`).
//! * **Non-deterministic** — wall-clock durations (inclusive/exclusive
//!   span time, total wall, derived rates). These live only in
//!   [`self_time_table`](PerfSnapshot::self_time_table),
//!   [`to_json`](PerfSnapshot::to_json)'s `wall_ns`/`rates` fields, and
//!   the throughput numbers, all clearly labelled and never pinned.
//!
//! Profiling is an observer, not a participant: a [`Profiler`] never
//! touches guest state, so enabling it cannot change a simulation
//! (asserted by the no-observer-effect suite), and a machine without a
//! profiler installed pays exactly one untaken branch per probe site —
//! the same contract the trace buffer and telemetry layer honour.
//!
//! # Example
//!
//! ```
//! use ulp_sim::perf::Profiler;
//!
//! let profiler = Profiler::new();
//! let phase = profiler.phase("demo.work");
//! for _ in 0..3 {
//!     let _span = profiler.enter(phase); // RAII: closes on drop
//!     // ... the work being attributed ...
//! }
//! profiler.counter_add("demo.items", 42);
//! let snap = profiler.snapshot();
//! assert_eq!(snap.phase("demo.work").unwrap().calls, 3);
//! assert_eq!(snap.counter("demo.items"), Some(42));
//! assert!(snap.counts_table().contains("demo.work"));
//! ```

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

use crate::telemetry::ChromeTrace;
use crate::units::Cycles;
use ulp_testkit::json::Quoted;

/// Handle to a registered span phase (an index into the profiler's
/// insertion-ordered phase table). Pre-resolving the handle keeps the
/// per-span cost to a vector index instead of a name lookup, which
/// matters when a span opens every simulated cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseId(usize);

#[derive(Debug, Clone)]
struct PhaseSlot {
    name: String,
    calls: u64,
    inclusive: Duration,
    exclusive: Duration,
    /// Live recursion depth, so nested re-entry of the same phase does
    /// not double-count inclusive time.
    active: u32,
}

#[derive(Debug)]
struct Frame {
    phase: usize,
    start: Instant,
    /// Inclusive time of already-closed children, subtracted from this
    /// frame's inclusive time to get its exclusive (self) time.
    child: Duration,
}

#[derive(Debug)]
struct Inner {
    phases: Vec<PhaseSlot>,
    stack: Vec<Frame>,
    counters: Vec<(String, u64)>,
    samples: Vec<CounterSample>,
    started: Instant,
}

/// One deterministic counter sample on the guest's cycle axis — the raw
/// material of the Perfetto counter track
/// ([`PerfSnapshot::add_counter_track`]). The value must be a pure
/// function of guest behaviour (e.g. "cycles stepped so far at epoch
/// boundary N"), never a wall-clock reading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// Guest time of the sample.
    pub at: Cycles,
    /// Counter name (one Perfetto track per name).
    pub name: String,
    /// Sampled value.
    pub value: u64,
}

/// A single-threaded span profiler + counter registry. Cheap to clone:
/// clones share the same underlying state, so the engine, the machine
/// model, and the report plumbing can all hold handles to one profiler.
#[derive(Debug, Clone)]
pub struct Profiler {
    inner: Rc<RefCell<Inner>>,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new()
    }
}

impl Profiler {
    /// A fresh profiler; its wall clock starts now.
    pub fn new() -> Profiler {
        Profiler {
            inner: Rc::new(RefCell::new(Inner {
                phases: Vec::new(),
                stack: Vec::new(),
                counters: Vec::new(),
                samples: Vec::new(),
                started: Instant::now(),
            })),
        }
    }

    /// Register (or look up) a span phase by name and return its handle.
    /// Registration order is the order phases appear in every rendered
    /// table, so it must be deterministic — register phases at setup
    /// time, not conditionally mid-run.
    pub fn phase(&self, name: &str) -> PhaseId {
        let mut inner = self.inner.borrow_mut();
        if let Some(i) = inner.phases.iter().position(|p| p.name == name) {
            return PhaseId(i);
        }
        inner.phases.push(PhaseSlot {
            name: name.to_string(),
            calls: 0,
            inclusive: Duration::ZERO,
            exclusive: Duration::ZERO,
            active: 0,
        });
        PhaseId(inner.phases.len() - 1)
    }

    /// Open a span for a pre-registered phase. The returned guard closes
    /// the span when dropped; spans must nest (guards drop in LIFO
    /// order, which Rust scopes guarantee).
    pub fn enter(&self, id: PhaseId) -> SpanGuard {
        let depth = {
            let mut inner = self.inner.borrow_mut();
            inner.phases[id.0].active += 1;
            inner.stack.push(Frame {
                phase: id.0,
                start: Instant::now(),
                child: Duration::ZERO,
            });
            inner.stack.len()
        };
        SpanGuard {
            profiler: self.clone(),
            depth,
        }
    }

    /// Count `n` more calls of a phase without opening spans (no clock
    /// reads): for work a machine did in bulk that would otherwise have
    /// been `n` spans, whose time stays with the span enclosing it.
    pub fn add_calls(&self, id: PhaseId, n: u64) {
        self.inner.borrow_mut().phases[id.0].calls += n;
    }

    /// Convenience: register-and-enter in one call (setup-time code; hot
    /// paths should pre-register with [`phase`](Profiler::phase)).
    pub fn span(&self, name: &str) -> SpanGuard {
        let id = self.phase(name);
        self.enter(id)
    }

    /// Add to (or create) a named counter. Counters are deterministic by
    /// contract: only feed them values derived from guest state.
    pub fn counter_add(&self, name: &str, n: u64) {
        let mut inner = self.inner.borrow_mut();
        if let Some((_, v)) = inner.counters.iter_mut().find(|(c, _)| c == name) {
            *v += n;
        } else {
            inner.counters.push((name.to_string(), n));
        }
    }

    /// Record one deterministic counter sample at guest time `at` (the
    /// Perfetto counter track material).
    pub fn sample(&self, at: Cycles, name: &str, value: u64) {
        self.inner.borrow_mut().samples.push(CounterSample {
            at,
            name: name.to_string(),
            value,
        });
    }

    /// Number of spans currently open (0 when quiescent).
    pub fn open_spans(&self) -> usize {
        self.inner.borrow().stack.len()
    }

    /// Snapshot the current state. Open spans are *not* included — call
    /// with all guards dropped for complete attribution.
    pub fn snapshot(&self) -> PerfSnapshot {
        let inner = self.inner.borrow();
        PerfSnapshot {
            phases: inner
                .phases
                .iter()
                .map(|p| PhaseStat {
                    name: p.name.clone(),
                    calls: p.calls,
                    inclusive: p.inclusive,
                    exclusive: p.exclusive,
                })
                .collect(),
            counters: inner.counters.clone(),
            samples: inner.samples.clone(),
            wall: inner.started.elapsed(),
        }
    }
}

/// RAII span handle returned by [`Profiler::enter`]; closing (dropping)
/// it attributes the elapsed wall-clock to its phase and the enclosing
/// frame's child time.
#[derive(Debug)]
pub struct SpanGuard {
    profiler: Profiler,
    depth: usize,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let mut inner = self.profiler.inner.borrow_mut();
        assert_eq!(
            inner.stack.len(),
            self.depth,
            "perf spans must close in LIFO order"
        );
        let frame = inner.stack.pop().expect("depth checked above");
        let inclusive = frame.start.elapsed();
        let exclusive = inclusive.saturating_sub(frame.child);
        let slot = &mut inner.phases[frame.phase];
        slot.calls += 1;
        slot.exclusive += exclusive;
        if slot.active == 1 {
            // Only the outermost frame of a recursive phase accumulates
            // inclusive time, so recursion cannot exceed 100%.
            slot.inclusive += inclusive;
        }
        slot.active -= 1;
        if let Some(parent) = inner.stack.last_mut() {
            parent.child += inclusive;
        }
    }
}

/// Wall-clock and call-count statistics of one phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name as registered.
    pub name: String,
    /// Number of closed spans (deterministic).
    pub calls: u64,
    /// Wall-clock including children (non-deterministic).
    pub inclusive: Duration,
    /// Wall-clock excluding children — self time (non-deterministic).
    pub exclusive: Duration,
}

/// An immutable snapshot of a profiler: span statistics, counters, the
/// deterministic counter-sample timeline, and the total wall-clock.
///
/// Also the carrier for *host perf counters* that are assembled outside
/// a [`Profiler`] (e.g. a fleet run's points/sec): build one with
/// [`from_host`](PerfSnapshot::from_host) and query throughput with
/// [`rate`](PerfSnapshot::rate), so every points/sec / cycles/sec number
/// in the workspace comes from one code path that rejects non-finite
/// values.
#[derive(Debug, Clone)]
pub struct PerfSnapshot {
    /// Per-phase span statistics, in registration order.
    pub phases: Vec<PhaseStat>,
    /// Named counters, in registration order (deterministic values).
    pub counters: Vec<(String, u64)>,
    /// Deterministic counter samples on the guest cycle axis.
    pub samples: Vec<CounterSample>,
    /// Total wall-clock covered by the snapshot (non-deterministic).
    pub wall: Duration,
}

impl PerfSnapshot {
    /// A snapshot holding only host counters and a wall-clock — no
    /// spans. This is how non-`Profiler` measurements (fleet sweeps,
    /// progress heartbeats) enter the single [`rate`](PerfSnapshot::rate)
    /// code path.
    pub fn from_host(wall: Duration, counters: Vec<(String, u64)>) -> PerfSnapshot {
        PerfSnapshot {
            phases: Vec::new(),
            counters,
            samples: Vec::new(),
            wall,
        }
    }

    /// Statistics of a phase, by name.
    pub fn phase(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// A counter's value, by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(c, _)| c == name)
            .map(|&(_, v)| v)
    }

    /// Throughput of a counter against the snapshot's wall-clock, in
    /// events per second. Returns `None` when the rate would be
    /// non-finite (zero wall-clock, missing counter) — callers therefore
    /// never print NaN/Inf, they omit the field.
    pub fn rate(&self, name: &str) -> Option<f64> {
        let value = self.counter(name)?;
        let secs = self.wall.as_secs_f64();
        let rate = value as f64 / secs;
        rate.is_finite().then_some(rate)
    }

    fn name_width(&self) -> usize {
        self.phases
            .iter()
            .map(|p| p.name.len())
            .chain(self.counters.iter().map(|(c, _)| c.len()))
            .max()
            .unwrap_or(4)
            .max(7)
    }

    /// The **deterministic** side of the snapshot as a fixed-width
    /// table: span call counts and counter values, no wall-clock
    /// anywhere. Two same-seed runs must produce identical bytes; this
    /// is the artifact the perf golden pins.
    pub fn counts_table(&self) -> String {
        let w = self.name_width();
        let mut out = String::new();
        let _ = writeln!(out, "host perf counts (deterministic)");
        let _ = writeln!(out, "{:<w$}  {:>14}", "span", "calls");
        for p in &self.phases {
            let _ = writeln!(out, "{:<w$}  {:>14}", p.name, p.calls);
        }
        let _ = writeln!(out, "{:<w$}  {:>14}", "counter", "value");
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{name:<w$}  {v:>14}");
        }
        out
    }

    /// The **non-deterministic** side: a fixed-width self-time table
    /// with inclusive/exclusive wall-clock per phase and the share of
    /// total wall each phase's self time accounts for. Never golden-pin
    /// this — the header says so.
    pub fn self_time_table(&self) -> String {
        let w = self.name_width();
        let wall_us = self.wall.as_secs_f64() * 1e6;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "host perf spans (wall-clock; NON-deterministic, do not golden-pin)"
        );
        let _ = writeln!(
            out,
            "{:<w$}  {:>14}  {:>12}  {:>12}  {:>6}",
            "span", "calls", "incl(us)", "excl(us)", "self%"
        );
        for p in &self.phases {
            let incl = p.inclusive.as_secs_f64() * 1e6;
            let excl = p.exclusive.as_secs_f64() * 1e6;
            let share = if wall_us > 0.0 {
                100.0 * excl / wall_us
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<w$}  {:>14}  {:>12.3}  {:>12.3}  {:>6.1}",
                p.name, p.calls, incl, excl, share
            );
        }
        let _ = writeln!(out, "total wall: {:.3} us", wall_us);
        out
    }

    /// Serialize the whole snapshot as one JSON object. Deterministic
    /// fields (`calls`, `counters`, `samples`) and wall-clock fields
    /// (`wall_ns`, `incl_ns`, `excl_ns`, `rates`) are kept in separate
    /// keys; rates are included only when finite, so the document never
    /// contains NaN/Infinity and always passes
    /// [`ulp_testkit::json::parse`].
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"wall_ns\":");
        let _ = write!(out, "{}", self.wall.as_nanos());
        out.push_str(",\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"calls\":{},\"incl_ns\":{},\"excl_ns\":{}}}",
                Quoted(&p.name),
                p.calls,
                p.inclusive.as_nanos(),
                p.exclusive.as_nanos()
            );
        }
        out.push_str("],\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", Quoted(name));
        }
        out.push_str("},\"rates\":{");
        let mut first = true;
        for (name, _) in &self.counters {
            if let Some(rate) = self.rate(name) {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "{}:{rate:.3}", Quoted(&format!("{name}_per_sec")));
            }
        }
        out.push_str("},\"samples\":[");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"at\":{},\"name\":{},\"value\":{}}}",
                s.at.0,
                Quoted(&s.name),
                s.value
            );
        }
        out.push_str("]}");
        out
    }

    /// Emit the deterministic counter-sample timeline as Perfetto
    /// counter tracks on process `pid`, alongside whatever guest tracks
    /// the [`ChromeTrace`] already holds. Timestamps come from the guest
    /// cycle axis (`clock_hz` converts), values are the sampled counts —
    /// nothing wall-clock leaks in, so the emitted JSON stays
    /// byte-identical across same-seed runs.
    ///
    /// # Panics
    ///
    /// Panics if `clock_hz` is not positive.
    pub fn add_counter_track(&self, ct: &mut ChromeTrace, pid: u32, name: &str, clock_hz: f64) {
        assert!(clock_hz > 0.0, "clock frequency must be positive");
        ct.meta_process(pid, name);
        for s in &self.samples {
            ct.counter(pid, s.at.0 as f64 * 1e6 / clock_hz, &s.name, s.value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_testkit::json::parse;

    #[test]
    fn spans_nest_and_split_exclusive_time() {
        let p = Profiler::new();
        let outer = p.phase("outer");
        let inner = p.phase("inner");
        {
            let _o = p.enter(outer);
            std::thread::sleep(Duration::from_millis(2));
            {
                let _i = p.enter(inner);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let snap = p.snapshot();
        let o = snap.phase("outer").unwrap();
        let i = snap.phase("inner").unwrap();
        assert_eq!(o.calls, 1);
        assert_eq!(i.calls, 1);
        // Outer's inclusive covers inner; outer's exclusive does not.
        assert!(o.inclusive >= i.inclusive);
        assert!(o.exclusive < o.inclusive);
        assert!(i.exclusive <= i.inclusive);
        assert_eq!(p.open_spans(), 0);
    }

    #[test]
    fn recursive_phase_counts_inclusive_once() {
        let p = Profiler::new();
        let ph = p.phase("recurse");
        {
            let _a = p.enter(ph);
            std::thread::sleep(Duration::from_millis(1));
            {
                let _b = p.enter(ph);
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let snap = p.snapshot();
        let stat = snap.phase("recurse").unwrap();
        assert_eq!(stat.calls, 2);
        // Inclusive counted only for the outermost frame, so it cannot
        // exceed total wall.
        assert!(stat.inclusive <= snap.wall);
    }

    #[test]
    fn counters_and_rates() {
        let p = Profiler::new();
        p.counter_add("items", 10);
        p.counter_add("items", 5);
        let snap = p.snapshot();
        assert_eq!(snap.counter("items"), Some(15));
        assert_eq!(snap.counter("missing"), None);
        // Rate against real elapsed wall-clock is finite.
        assert!(snap.rate("items").is_some_and(|r| r.is_finite()));
        // Zero wall-clock must yield None, never Inf.
        let zero = PerfSnapshot::from_host(Duration::ZERO, vec![("x".into(), 1)]);
        assert_eq!(zero.rate("x"), None);
        // Zero counter over zero wall must yield None, never NaN.
        let nan = PerfSnapshot::from_host(Duration::ZERO, vec![("x".into(), 0)]);
        assert_eq!(nan.rate("x"), None);
    }

    #[test]
    fn counts_table_is_wall_clock_free_and_deterministic() {
        let build = || {
            let p = Profiler::new();
            let ph = p.phase("engine.step");
            for _ in 0..7 {
                let _g = p.enter(ph);
            }
            p.counter_add("sim.cycles", 123);
            p.snapshot().counts_table()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "counts table must not contain wall-clock");
        assert!(a.contains("engine.step"));
        assert!(a.contains("123"));
        assert!(
            !a.contains("us"),
            "no time units in the deterministic table"
        );
    }

    #[test]
    fn self_time_table_labels_itself_non_deterministic() {
        let p = Profiler::new();
        let _ = p.span("work");
        let t = p.snapshot().self_time_table();
        assert!(t.contains("NON-deterministic"));
        assert!(t.contains("work"));
        assert!(t.contains("total wall:"));
    }

    #[test]
    fn json_is_wellformed_and_finite() {
        let p = Profiler::new();
        {
            let _g = p.span("a");
        }
        p.counter_add("n", 3);
        p.sample(Cycles(100), "n", 1);
        p.sample(Cycles(200), "n", 2);
        let json = p.snapshot().to_json();
        parse(&json).expect("perf JSON well-formed");
        assert!(json.contains("\"wall_ns\":"));
        assert!(json.contains("\"n\":3"));
        assert!(json.contains("\"at\":100"));
        assert!(!json.contains("NaN") && !json.contains("inf"));
        // A zero-wall snapshot omits the rate rather than emitting Inf.
        let zero = PerfSnapshot::from_host(Duration::ZERO, vec![("x".into(), 5)]);
        let json = zero.to_json();
        parse(&json).expect("zero-wall JSON well-formed");
        assert!(json.contains("\"rates\":{}"), "{json}");
    }

    #[test]
    fn counter_track_uses_guest_time_only() {
        let p = Profiler::new();
        p.sample(Cycles(1_000), "sim.stepped", 40);
        p.sample(Cycles(2_000), "sim.stepped", 90);
        let snap = p.snapshot();
        let mut ct = ChromeTrace::new();
        snap.add_counter_track(&mut ct, 9, "host perf", 100_000.0);
        let json = ct.finish();
        parse(&json).expect("track JSON well-formed");
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ts\":10000.000")); // 1000 cycles at 100 kHz
        assert!(json.contains("\"value\":90"));
        // Two snapshots of the same samples render identical tracks.
        let mut ct2 = ChromeTrace::new();
        snap.add_counter_track(&mut ct2, 9, "host perf", 100_000.0);
        assert_eq!(json, ct2.finish());
    }

    #[test]
    #[should_panic(expected = "LIFO")]
    fn out_of_order_drop_is_rejected() {
        let p = Profiler::new();
        let a = p.span("a");
        let b = p.span("b");
        drop(a); // closes `a` while `b` is still open
        drop(b);
    }
}
