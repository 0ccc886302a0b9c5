//! No-observer-effect and determinism guarantees for the host-side
//! observability layer (`ulp_sim::perf` + `ulp_bench::perf`).
//!
//! Profiling and `--progress` streaming exist to watch the simulator,
//! never to steer it: with a profiler attached (or a progress meter
//! observing a sweep) every guest-visible artifact — trace CSVs, metric
//! summaries, campaign CSV/JSON/summaries — must be byte-identical to
//! the unobserved run. The deterministic side of the perf snapshot
//! (call counts + counters) is additionally pinned against a golden
//! file, exactly like the paper's tables:
//!
//! ```text
//! ULP_UPDATE_GOLDEN=1 cargo test -q --test perf
//! ```

use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use ulp_bench::chaos::{campaign, campaign_summary, cells, run_chaos, ChaosApp, ChaosConfig};
use ulp_bench::fleet::Coords;
use ulp_bench::perf::ProgressMeter;
use ulp_bench::tracegen;
use ulp_node::apps::ulp::{stages, SamplePeriod};
use ulp_node::core_arch::slaves::RandomWalkSensor;
use ulp_node::core_arch::SystemConfig;
use ulp_sim::{Cycles, Engine, Profiler};
use ulp_testkit::json;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compare `actual` against the checked-in golden file, or rewrite the
/// file when `ULP_UPDATE_GOLDEN` is set (same contract as
/// `tests/golden.rs`).
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("ULP_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with ULP_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "{name} drifted from tests/golden/{name}; if intentional, refresh \
         with ULP_UPDATE_GOLDEN=1 cargo test -q --test perf"
    );
}

/// Profiling the stage-4 workload must not move a single guest byte:
/// CSV and summary match the unprofiled run exactly, and only the JSON
/// gains the (deterministic) host-perf counter track.
#[test]
fn stage4_profiling_has_no_observer_effect() {
    let horizon = tracegen::default_horizon("stage4");
    let seed = tracegen::default_seed("stage4");
    let plain = tracegen::run("stage4", horizon, seed);
    let (profiled, snap) = tracegen::run_perf("stage4", horizon, seed);

    assert_eq!(plain.csv, profiled.csv, "profiling changed the stage4 CSV");
    assert_eq!(
        plain.summary, profiled.summary,
        "profiling changed the stage4 summary"
    );
    assert!(
        !plain.json.contains("host perf (deterministic)"),
        "unprofiled trace must not carry the counter track"
    );
    assert!(
        profiled.json.contains("host perf (deterministic)"),
        "profiled trace must carry the counter-track process"
    );
    assert!(
        profiled.json.contains("\"ph\":\"C\""),
        "profiled trace must carry Perfetto counter events"
    );
    json::parse(&profiled.json).expect("profiled trace JSON is well-formed");
    json::parse(&snap.to_json()).expect("perf snapshot JSON is well-formed");
    assert!(
        snap.counter("sim.cycles_stepped").unwrap_or(0) > 0,
        "profiled run recorded stepped cycles"
    );
}

/// Same guarantee for the Mica2 board path (which also exercises the
/// profiled-only engine epoch sampling — the board's `on_epoch` is the
/// trait default no-op, so enabling epochs cannot perturb the guest).
#[test]
fn mica2_profiling_has_no_observer_effect() {
    let horizon = tracegen::default_horizon("mica2");
    let seed = tracegen::default_seed("mica2");
    let plain = tracegen::run("mica2", horizon, seed);
    let (profiled, snap) = tracegen::run_perf("mica2", horizon, seed);

    assert_eq!(plain.csv, profiled.csv, "profiling changed the mica2 CSV");
    assert_eq!(
        plain.summary, profiled.summary,
        "profiling changed the mica2 summary"
    );
    assert!(profiled.json.contains("host perf (deterministic)"));
    json::parse(&profiled.json).expect("profiled mica2 JSON is well-formed");
    assert!(
        !snap.samples.is_empty(),
        "epoch sampling produced counter samples"
    );
}

/// The counter/count side of the profile is a pure function of the
/// workload: two profiled runs agree byte-for-byte on the counts table,
/// the epoch samples, and the full trace JSON (counter track included).
/// The counts table is pinned as a golden so a silent change to what
/// the profiler counts must be reviewed like any table of the paper.
#[test]
fn stage4_perf_counts_are_deterministic_and_golden() {
    let horizon = tracegen::default_horizon("stage4");
    let seed = tracegen::default_seed("stage4");
    let (a, snap_a) = tracegen::run_perf("stage4", horizon, seed);
    let (b, snap_b) = tracegen::run_perf("stage4", horizon, seed);

    assert_eq!(
        snap_a.counts_table(),
        snap_b.counts_table(),
        "deterministic counts drifted between identical runs"
    );
    assert_eq!(snap_a.samples, snap_b.samples, "epoch samples drifted");
    assert_eq!(a.json, b.json, "profiled trace JSON drifted");
    assert_golden("perf_stage4_counts.txt", &snap_a.counts_table());
}

/// Five simulated minutes of the stage-1 Great Duck Island program
/// (timer 0 underflows silently every 10,000 cycles; chained timer 1
/// raises the sample interrupt every 700 of them), profiled with
/// tracing and 10-s epochs on. Almost every wake is a silent underflow,
/// so the pinned counts are those of the idle path: one
/// `engine.step`, `sys.event_dispatch` and `sys.fetch_decode_execute`
/// per stepped cycle and one `engine.idle_skip` per idle step, however
/// the system advances through its silent underflows. The epoch samples
/// pin the cumulative stepped/skipped counts at every boundary.
#[test]
fn gdi_perf_counts_are_golden() {
    let run = || {
        let program = stages::app1(SamplePeriod::Chained {
            base: 10_000,
            count: 700,
        });
        let mut sys = program.build_system(
            SystemConfig::default(),
            Box::new(RandomWalkSensor::new(120, 7)),
        );
        sys.trace_mut().set_enabled(true);
        let profiler = Profiler::new();
        sys.set_profiler(&profiler);
        let mut engine = Engine::new(sys);
        engine.set_profiler(&profiler);
        engine.set_epoch(Cycles(1_000_000));
        engine.run_for(Cycles(5 * 60 * 100_000));
        let sys = engine.into_machine();
        assert!(sys.fault().is_none(), "GDI run faulted: {:?}", sys.fault());
        ulp_bench::perf::attach_guest_counters(&profiler, &sys);
        let snap = profiler.snapshot();
        let mut out = snap.counts_table();
        let row = |name: &str, at: &dyn std::fmt::Display, value: &dyn std::fmt::Display| {
            format!("{name:<16} {at:>14} {value:>14}\n")
        };
        out.push_str(&row("epoch sample", &"at", &"value"));
        for s in &snap.samples {
            out.push_str(&row(&s.name, &s.at.0, &s.value));
        }
        out
    };
    let counts = run();
    assert_eq!(
        counts,
        run(),
        "GDI perf counts drifted between identical runs"
    );
    assert_golden("perf_gdi_counts.txt", &counts);
}

/// Shared capture sink for a [`ProgressMeter`] under test.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Streaming progress over a real chaos campaign changes nothing the
/// campaign produces: CSV, JSON, and the golden-pinned summary are all
/// byte-identical with and without the meter, and every heartbeat line
/// the meter emits is valid JSON free of NaN/Infinity.
#[test]
fn chaos_campaign_with_progress_meter_is_byte_identical() {
    let apps = [ChaosApp::Sample];
    let rates = [0.0, 1e-3];
    let sweep = campaign(&apps, &rates, 2, 8_000);
    let eval = |_: &Coords, cfg: &ChaosConfig| cells(&run_chaos(cfg));

    let plain = sweep.run(2, eval).expect("plain campaign");

    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let meter = ProgressMeter::with_sink(sweep.name(), sweep.len(), Box::new(buf.clone()));
    let observed = sweep
        .run_observed(2, eval, &meter)
        .expect("observed campaign");

    assert_eq!(plain.to_csv(), observed.to_csv(), "meter changed the CSV");
    assert_eq!(
        plain.to_json(),
        observed.to_json(),
        "meter changed the JSON"
    );
    assert_eq!(
        campaign_summary(&plain),
        campaign_summary(&observed),
        "meter changed the campaign summary"
    );

    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "meter emitted at least one heartbeat");
    for line in &lines {
        json::parse(line).unwrap_or_else(|e| panic!("bad heartbeat {line}: {e}"));
        assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
    }
    let last = lines.last().unwrap();
    assert!(
        last.contains(&format!("\"done\":{0},\"total\":{0}", sweep.len())),
        "final heartbeat reports completion: {last}"
    );
}
