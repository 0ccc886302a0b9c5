//! Deterministic telemetry exports for the `trace` dumper binary and the
//! golden tests.
//!
//! Each generator runs one of the repository's reference workloads with
//! tracing enabled and returns the three byte-stable artifacts the
//! observability layer produces: a Chrome/Perfetto trace-event JSON
//! document, a CSV timeline, and a metrics summary table. Same seed, same horizon ⇒ byte-identical output — that is
//! asserted by `tests/determinism.rs` and re-checked by the binary's
//! `--check` flag on every `scripts/verify.sh` run.

use std::fmt::Write as _;

use ulp_apps::mica as mapps;
use ulp_apps::ulp::{stages, SamplePeriod};
use ulp_core::slaves::RandomWalkSensor;
use ulp_core::{System, SystemConfig};
use ulp_mica::io::CPU_HZ;
use ulp_net::{Frame, NetEventKind};
use ulp_sim::telemetry::csv_timeline;
use ulp_sim::{ChromeTrace, Cycles, Engine, Metrics, PerfSnapshot, Profiler, Simulatable};
use ulp_testkit::Rng;

use crate::cosim::{build_population, run_slots, CosimConfig};

/// Perfetto process id of the host-perf counter track appended by
/// [`run_perf`] (the guest machine keeps its usual pids).
const PERF_PID: u32 = 9;

/// The three artifacts a telemetry run exports.
#[derive(Debug, Clone)]
pub struct TraceExport {
    /// Chrome trace-event JSON (open in `chrome://tracing` / Perfetto).
    pub json: String,
    /// CSV timeline of the raw event stream.
    pub csv: String,
    /// Fixed-width metrics summary table.
    pub summary: String,
}

/// Default simulation horizon per app, in the unit `run` expects
/// (cycles for `stage4`/`mica2`, co-sim slots for `net`).
pub fn default_horizon(app: &str) -> u64 {
    match app {
        "stage4" => 250_000,
        "mica2" => 400_000,
        "net" => 60_000,
        other => panic!("unknown app `{other}`"),
    }
}

/// Default seed per app (the same seeds the determinism suite pins).
pub fn default_seed(app: &str) -> u64 {
    match app {
        "stage4" => 0xD5,
        "mica2" => 0x515E,
        "net" => 7,
        other => panic!("unknown app `{other}`"),
    }
}

/// Dispatch by app name (`stage4`, `mica2`, or `net`).
///
/// # Panics
///
/// Panics on an unknown app name.
pub fn run(app: &str, horizon: u64, seed: u64) -> TraceExport {
    match app {
        "stage4" => stage4(horizon, seed),
        "mica2" => mica2(horizon, seed),
        "net" => net(horizon, seed),
        other => panic!("unknown app `{other}` (expected stage4|mica2|net)"),
    }
}

/// [`run`] with host-side profiling: the engine (and, for `stage4`, the
/// system) runs with a [`Profiler`] attached, the deterministic counter
/// samples become a Perfetto counter track appended to the guest trace
/// JSON, and the returned [`PerfSnapshot`] carries the span statistics
/// plus guest-derived counters. The CSV and summary artifacts are
/// byte-identical to the unprofiled [`run`] (no observer effect); only
/// the JSON gains the extra (deterministic) counter track.
///
/// # Panics
///
/// Panics for `net`, which steps its nodes manually rather than through
/// an [`Engine`] and therefore has no host phases to attribute.
pub fn run_perf(app: &str, horizon: u64, seed: u64) -> (TraceExport, PerfSnapshot) {
    let profiler = Profiler::new();
    let export = match app {
        "stage4" => stage4_run(horizon, seed, Some(&profiler)),
        "mica2" => mica2_run(horizon, seed, Some(&profiler)),
        other => panic!("app `{other}` does not support --perf (expected stage4|mica2)"),
    };
    let snapshot = profiler.snapshot();
    (export, snapshot)
}

/// The paper's stage-4 monitoring application on the ULP architecture,
/// with mixed inbound traffic (data, a duplicate, and a reconfiguration
/// command) racing the send chains — the same workload the determinism
/// suite double-runs.
pub fn stage4(cycles: u64, seed: u64) -> TraceExport {
    stage4_run(cycles, seed, None)
}

/// The node behind [`stage4`], before it runs: tracing on, its inbound
/// frames scheduled. [`stage4`] runs it on an engine with 4,096-cycle
/// epochs.
pub fn stage4_node(seed: u64) -> System {
    let prog = stages::app4(SamplePeriod::Cycles(2_000), 40);
    let mut sys = prog.build_system(
        SystemConfig::default(),
        Box::new(RandomWalkSensor::new(128, seed)),
    );
    sys.trace_mut().set_enabled(true);
    for (i, at) in [3_000u64, 9_500, 9_500, 41_000].iter().enumerate() {
        let f = if i == 3 {
            Frame::command(0x22, 0x0009, 0x0001, 9, &[2, 60, 0]).unwrap()
        } else {
            Frame::data(0x22, 0x0009, 0x0001, 7, &[i as u8]).unwrap()
        };
        sys.schedule_rx(Cycles(*at), f.encode());
    }
    sys
}

fn stage4_run(cycles: u64, seed: u64, profiler: Option<&Profiler>) -> TraceExport {
    let mut sys = stage4_node(seed);
    if let Some(p) = profiler {
        sys.set_profiler(p);
    }
    let mut engine = Engine::new(sys);
    if let Some(p) = profiler {
        engine.set_profiler(p);
    }
    engine.set_epoch(Cycles(4_096));
    engine.run_for(Cycles(cycles));
    let sys = engine.into_machine();
    assert!(
        sys.fault().is_none(),
        "stage-4 run faulted: {:?}",
        sys.fault()
    );

    let hz = sys.config().clock.hz();
    let mut ct = ChromeTrace::new();
    ct.add_machine(1, "ulp stage-4 node", sys.trace(), hz);
    let metrics = sys.telemetry_snapshot();
    if let Some(p) = profiler {
        crate::perf::attach_guest_counters(p, &sys);
        p.snapshot()
            .add_counter_track(&mut ct, PERF_PID, "host perf (deterministic)", hz);
    }
    TraceExport {
        json: ct.finish(),
        csv: csv_timeline(sys.trace(), hz),
        summary: metrics.summary(),
    }
}

/// The Mica2 baseline board running the sample-and-threshold app
/// (`mapps::app2`), ADC fed from the seeded PRNG.
pub fn mica2(cycles: u64, seed: u64) -> TraceExport {
    mica2_run(cycles, seed, None)
}

fn mica2_run(cycles: u64, seed: u64, profiler: Option<&Profiler>) -> TraceExport {
    let app = mapps::app2(1, 100);
    let mut rng = Rng::from_seed(seed);
    let (mut board, _) = app.board(Box::new(move |_| rng.next_u64() as u8));
    board.trace_mut().set_enabled(true);
    let mut engine = Engine::new(board);
    if let Some(p) = profiler {
        engine.set_profiler(p);
        // The Mica2 board has no epoch hook configured here, so the
        // counter track samples come from the engine only if epochs are
        // on; enable them for the profiled run's counter track.
        engine.set_epoch(Cycles(16_384));
    }
    engine.run_until_cycle(Cycles(cycles));
    let board = engine.into_machine();
    assert!(!board.halted(), "mica2 runtime loop must keep spinning");

    let mut ct = ChromeTrace::new();
    ct.add_machine(1, "mica2 baseline board", board.trace(), CPU_HZ);
    let metrics = board.metrics_snapshot();
    if let Some(p) = profiler {
        p.counter_add("guest.cycles", board.now().0);
        crate::perf::attach_trace_counters(p, board.trace());
        p.snapshot()
            .add_counter_track(&mut ct, PERF_PID, "host perf (deterministic)", CPU_HZ);
    }
    TraceExport {
        json: ct.finish(),
        csv: csv_timeline(board.trace(), CPU_HZ),
        summary: metrics.summary(),
    }
}

/// Four forwarding ULP nodes flooding towards a listening base station
/// through a 10%-loss medium ([`CosimConfig::four_node_flood`], the
/// co-simulation `tests/determinism.rs` double-runs) on the slot-stepped
/// loop, with node traces and the medium event log enabled. One
/// Perfetto process per node plus one for the shared medium; the
/// summary merges every node's telemetry into a fleet-wide registry
/// alongside the channel counters.
pub fn net(horizon: u64, seed: u64) -> TraceExport {
    let (mut medium, mut nodes, base) =
        build_population(&CosimConfig::four_node_flood(seed, horizon));
    medium.set_event_log(true);
    for (_, node) in nodes.iter_mut() {
        node.trace_mut().set_enabled(true);
    }
    // The base station just listens.
    run_slots(&mut medium, &mut nodes, base, horizon, |_| {});

    let hz = nodes[0].1.config().clock.hz();
    let mut ct = ChromeTrace::new();
    // Process 1: the shared medium, one track per endpoint.
    ct.meta_process(1, "medium (10% loss)");
    for ep in 0..medium.endpoints() {
        let label = if ep == base {
            "base station".to_string()
        } else {
            format!("node {ep}")
        };
        ct.meta_thread(1, ep as u32 + 1, &label);
    }
    let mut csv = String::from("t_us,endpoint,event,from,len\n");
    for ev in medium.events() {
        let (name, from) = match ev.kind {
            NetEventKind::Sent => (format!("tx len={}", ev.len), String::new()),
            NetEventKind::Delivered { from } => {
                (format!("rx from={from} len={}", ev.len), from.to_string())
            }
            NetEventKind::Lost { from } => {
                (format!("lost from={from} len={}", ev.len), from.to_string())
            }
        };
        ct.instant(1, ev.endpoint as u32 + 1, ev.at_us as f64, "medium", &name);
        let kind = match ev.kind {
            NetEventKind::Sent => "sent",
            NetEventKind::Delivered { .. } => "delivered",
            NetEventKind::Lost { .. } => "lost",
        };
        let _ = writeln!(csv, "{},{},{kind},{from},{}", ev.at_us, ev.endpoint, ev.len);
    }
    // Processes 2..: one per node, from its own trace buffer.
    let mut fleet = Metrics::new();
    for (idx, (_, node)) in nodes.iter().enumerate() {
        ct.add_machine(idx as u32 + 2, &format!("node {idx}"), node.trace(), hz);
        fleet.merge(&node.telemetry_snapshot());
    }
    let stats = medium.stats();
    fleet.counter_add("net.sent", stats.sent);
    fleet.counter_add("net.delivered", stats.delivered);
    fleet.counter_add("net.lost", stats.lost);
    TraceExport {
        json: ct.finish(),
        csv,
        summary: fleet.summary(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_testkit::json;

    #[test]
    fn stage4_export_is_valid_and_deterministic() {
        let a = stage4(60_000, 0xD5);
        let b = stage4(60_000, 0xD5);
        assert_eq!(a.json, b.json);
        assert_eq!(a.csv, b.csv);
        assert_eq!(a.summary, b.summary);
        json::parse(&a.json).expect("valid JSON");
        assert!(a.summary.contains("irq.service_latency"));
        assert!(a.csv.starts_with("cycle,t_us,component,event\n"));
    }

    #[test]
    fn mica2_export_is_valid_and_deterministic() {
        let a = mica2(120_000, 0x515E);
        let b = mica2(120_000, 0x515E);
        assert_eq!(a.json, b.json);
        assert_eq!(a.summary, b.summary);
        json::parse(&a.json).expect("valid JSON");
        assert!(a.summary.contains("mcu.wake_latency"));
    }

    #[test]
    fn net_export_is_valid_and_deterministic() {
        let a = net(30_000, 7);
        let b = net(30_000, 7);
        assert_eq!(a.json, b.json);
        assert_eq!(a.csv, b.csv);
        assert_eq!(a.summary, b.summary);
        json::parse(&a.json).expect("valid JSON");
        assert!(a.summary.contains("net.sent"));
        assert!(a.csv.starts_with("t_us,endpoint,event,from,len\n"));
    }
}
