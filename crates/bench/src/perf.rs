//! Host perf report plumbing and streaming campaign progress.
//!
//! `ulp_sim::perf` owns the measurement substrate (spans, counters,
//! snapshots); this module turns snapshots into operator-facing
//! artifacts: the `trace --perf` report, guest-derived counter
//! attachment, and the `--progress` NDJSON heartbeats the `fleet`
//! binary streams on **stderr** while a campaign drains. Heartbeats
//! never touch stdout, so CSV/JSON exports and every golden stay
//! byte-identical with and without `--progress`.

use std::io::Write;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::fleet::{Coords, SweepObserver};
use ulp_core::System;
use ulp_sim::perf::{PerfSnapshot, Profiler};
use ulp_sim::{Simulatable, TraceBuffer};
use ulp_testkit::json::Quoted;

/// Attach guest-derived totals to a profiler: simulated cycles, busy
/// cycles, EP events serviced, and the trace ring buffer's counters.
/// All deterministic — they extend the golden-pinned side of
/// [`PerfSnapshot::counts_table`].
pub fn attach_guest_counters(profiler: &Profiler, sys: &System) {
    profiler.counter_add("guest.cycles", sys.now().0);
    profiler.counter_add("guest.busy_cycles", sys.busy_cycles().0);
    profiler.counter_add("guest.ep_events", sys.ep().stats().events);
    attach_trace_counters(profiler, sys.trace());
}

/// The trace-buffer subset of [`attach_guest_counters`], usable with
/// any machine that exposes a [`TraceBuffer`] (e.g. the Mica2 board):
/// retained events, peak ring occupancy, and drops.
pub fn attach_trace_counters(profiler: &Profiler, trace: &TraceBuffer) {
    profiler.counter_add("trace.events", trace.len() as u64);
    profiler.counter_add("trace.peak_occupancy", trace.peak() as u64);
    profiler.counter_add("trace.dropped", trace.dropped());
}

/// The operator-facing perf report: the deterministic counts table
/// (golden-pinned), then the wall-clock self-time table and throughput
/// rates, both clearly labelled non-deterministic. Rates that would be
/// non-finite are omitted, not printed.
pub fn render_report(snap: &PerfSnapshot) -> String {
    let mut out = snap.counts_table();
    out.push('\n');
    out.push_str(&snap.self_time_table());
    let mut rates = String::new();
    for (name, _) in &snap.counters {
        if let Some(rate) = snap.rate(name) {
            rates.push_str(&format!("{name}: {rate:.1}/s\n"));
        }
    }
    if !rates.is_empty() {
        out.push_str("\nthroughput (wall-clock derived, NON-deterministic)\n");
        out.push_str(&rates);
    }
    out
}

/// One `--progress` heartbeat as a single-line JSON object. Throughput
/// and ETA route through [`PerfSnapshot::rate`] — the same code path as
/// every other points/sec figure — and are **omitted** (never rendered
/// as NaN/Infinity) when the elapsed clock cannot support them, so the
/// line always passes `ulp_testkit::json::parse`.
pub fn heartbeat_json(
    sweep: &str,
    done: usize,
    total: usize,
    elapsed: Duration,
    coords: Option<&Coords>,
) -> String {
    let snap = PerfSnapshot::from_host(elapsed, vec![("fleet.points".to_string(), done as u64)]);
    let mut out = format!(
        "{{\"sweep\":{},\"done\":{done},\"total\":{total},\"elapsed_ms\":{:.3}",
        Quoted(sweep),
        elapsed.as_secs_f64() * 1e3
    );
    if let Some(pps) = snap.rate("fleet.points") {
        out.push_str(&format!(",\"points_per_sec\":{pps:.3}"));
        if pps > 0.0 {
            let eta = total.saturating_sub(done) as f64 / pps;
            if eta.is_finite() {
                out.push_str(&format!(",\"eta_s\":{eta:.3}"));
            }
        }
    }
    if let Some(c) = coords {
        out.push_str(&format!(",\"coords\":{}", Quoted(&c.to_string())));
    }
    out.push('}');
    out
}

/// A throttled NDJSON progress stream implementing [`SweepObserver`]:
/// hand it to [`Sweep::run_observed`](crate::fleet::Sweep::run_observed)
/// (or [`measure_speedup`](crate::fleet::measure_speedup)) and it emits one heartbeat line per
/// `ULP_PROGRESS_MS` interval (default 200 ms) plus a final line when
/// the last point lands. Observing is all it does — results, CSV/JSON
/// bytes, and exit codes are untouched.
pub struct ProgressMeter {
    sweep: String,
    total: usize,
    interval: Duration,
    state: Mutex<MeterState>,
}

struct MeterState {
    started: Instant,
    done: usize,
    last_emit: Option<Instant>,
    sink: Box<dyn Write + Send>,
}

impl ProgressMeter {
    /// A meter streaming to stderr — what `--progress` wires up.
    /// `total` is the number of `point_done` callbacks expected (for
    /// `--check` runs that is `2 × grid`, serial then parallel).
    pub fn stderr(sweep: &str, total: usize) -> ProgressMeter {
        ProgressMeter::with_sink(sweep, total, Box::new(std::io::stderr()))
    }

    /// A meter streaming to an arbitrary sink (tests capture a buffer).
    pub fn with_sink(sweep: &str, total: usize, sink: Box<dyn Write + Send>) -> ProgressMeter {
        let interval_ms = std::env::var("ULP_PROGRESS_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(200);
        ProgressMeter {
            sweep: sweep.to_string(),
            total,
            interval: Duration::from_millis(interval_ms),
            state: Mutex::new(MeterState {
                started: Instant::now(),
                done: 0,
                last_emit: None,
                sink,
            }),
        }
    }
}

impl SweepObserver for ProgressMeter {
    fn point_done(&self, _index: usize, coords: &Coords) {
        let mut state = self.state.lock().unwrap();
        state.done += 1;
        let now = Instant::now();
        let due = match state.last_emit {
            None => true,
            Some(at) => now.duration_since(at) >= self.interval,
        };
        let finished = state.done >= self.total;
        if !due && !finished {
            return;
        }
        state.last_emit = Some(now);
        let line = heartbeat_json(
            &self.sweep,
            state.done,
            self.total,
            now.duration_since(state.started),
            Some(coords),
        );
        // A broken stderr pipe must not take the campaign down.
        let _ = writeln!(state.sink, "{line}");
        let _ = state.sink.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{Cell, Sweep};
    use std::sync::{Arc, Mutex as StdMutex};
    use ulp_testkit::json::parse;

    #[derive(Clone)]
    struct SharedBuf(Arc<StdMutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn heartbeats_validate_and_omit_non_finite_fields() {
        // A real elapsed time yields throughput and ETA.
        let line = heartbeat_json(
            "demo",
            3,
            16,
            Duration::from_millis(50),
            Some(&Coords::new().with("nodes", 4).with("seed", 1)),
        );
        parse(&line).expect("heartbeat is valid JSON");
        assert!(line.contains("\"points_per_sec\":"));
        assert!(line.contains("\"eta_s\":"));
        assert!(line.contains("\"coords\":\"nodes=4 seed=1\""));
        // Zero elapsed: both rate fields are *omitted*, never Inf/NaN.
        let line = heartbeat_json("demo", 0, 16, Duration::ZERO, None);
        parse(&line).expect("zero-clock heartbeat is valid JSON");
        assert!(!line.contains("points_per_sec"), "{line}");
        assert!(!line.contains("eta_s"), "{line}");
        assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
    }

    #[test]
    fn meter_streams_ndjson_without_touching_results() {
        let mut sweep = Sweep::new("meter", &["v"]);
        for i in 0..12u64 {
            sweep.push(Coords::new().with("i", i), i);
        }
        let eval = |_: &Coords, &i: &u64| vec![Cell::U64(i + 1)];
        let plain = sweep.run(2, eval).unwrap();

        let buf = SharedBuf(Arc::new(StdMutex::new(Vec::new())));
        let meter = ProgressMeter::with_sink("meter", sweep.len(), Box::new(buf.clone()));
        let observed = sweep.run_observed(2, eval, &meter).unwrap();

        assert_eq!(plain.to_csv(), observed.to_csv(), "observer effect on CSV");
        assert_eq!(
            plain.to_json(),
            observed.to_json(),
            "observer effect on JSON"
        );

        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines.is_empty(), "at least one heartbeat");
        for line in &lines {
            parse(line).unwrap_or_else(|e| panic!("bad heartbeat {line}: {e}"));
            assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
        }
        // The final heartbeat always fires and reports completion.
        let last = lines.last().unwrap();
        assert!(last.contains("\"done\":12,\"total\":12"), "{last}");
    }

    #[test]
    fn render_report_separates_deterministic_and_wall_clock() {
        let profiler = ulp_sim::Profiler::new();
        {
            let _g = profiler.span("demo.phase");
        }
        profiler.counter_add("demo.count", 7);
        let snap = profiler.snapshot();
        let report = render_report(&snap);
        assert!(report.contains("host perf counts (deterministic)"));
        assert!(report.contains("NON-deterministic"));
        // The deterministic table precedes every wall-clock section.
        let counts_at = report.find("host perf counts").unwrap();
        let spans_at = report.find("host perf spans").unwrap();
        assert!(counts_at < spans_at);
    }
}
