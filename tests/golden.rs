//! Golden-output tests for every printed artifact of the reproduction.
//!
//! Each artifact's text lives in `ulp_bench::report::ARTIFACTS` (the
//! `repro` binary prints the same strings), and this suite pins it
//! byte-for-byte against the files in `tests/golden/` — the paper's
//! tables and figures and the static checkers' reports alike, so a
//! rendered diagnostic or WCET bound cannot drift either. Every model
//! behind these reports is deterministic — pure functions of the paper's
//! constants plus cycle-accurate simulation — so any diff is a real
//! behaviour change that must be reviewed, not noise.
//!
//! To refresh after an intentional change:
//!
//! ```text
//! ULP_UPDATE_GOLDEN=1 cargo test -q --test golden
//! ```
//!
//! then review the diff of `tests/golden/` like any other code change.

use std::path::PathBuf;

use ulp_bench::report::{Inputs, ARTIFACTS};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compare `actual` against the checked-in golden file, or rewrite the
/// file when `ULP_UPDATE_GOLDEN` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("ULP_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with ULP_UPDATE_GOLDEN=1 \
             to create it",
            path.display()
        )
    });
    if expected != actual {
        // Locate the first differing line for a readable failure.
        let mut line = 1usize;
        let (mut ea, mut aa) = ("<end of file>", "<end of file>");
        for pair in expected.lines().zip(actual.lines()) {
            if pair.0 != pair.1 {
                (ea, aa) = pair;
                break;
            }
            line += 1;
        }
        panic!(
            "{name} drifted from tests/golden/{name} at line {line}:\n\
             --- golden: {ea}\n\
             +++ actual: {aa}\n\
             If the change is intentional, regenerate with \
             ULP_UPDATE_GOLDEN=1 cargo test -q --test golden and review \
             the diff.",
        );
    }
}

/// Render one [`ARTIFACTS`] entry — exactly what `repro <name>` prints —
/// and pin it against its golden file. No artifact may have a finding
/// that fails `repro`: the shipped programs lint clean.
fn assert_artifact(inputs: &Inputs, name: &str) {
    let artifact = ARTIFACTS
        .iter()
        .find(|a| a.name == name)
        .unwrap_or_else(|| panic!("no artifact named `{name}`"));
    assert_eq!((artifact.errors)(), 0, "{name} has error-severity findings");
    let file = if name.contains('.') {
        name.to_string()
    } else {
        format!("{name}.txt")
    };
    assert_golden(&file, &(artifact.render)(inputs));
}

/// One test per group of artifacts (a group shares one [`Inputs`], so
/// `table4` and `fig6` take one Table 4 measurement between them), plus
/// `PINNED`: every artifact some test pins.
macro_rules! pin_artifacts {
    ($($test:ident: [$($name:literal),+];)+) => {
        $(
            #[test]
            fn $test() {
                let inputs = Inputs::default();
                $(assert_artifact(&inputs, $name);)+
            }
        )+
        const PINNED: &[&str] = &[$($($name),+),+];
    };
}

pin_artifacts! {
    table1_output_is_pinned: ["table1"];
    table2_output_is_pinned: ["table2"];
    table3_output_is_pinned: ["table3"];
    table4_and_fig6_outputs_are_pinned: ["table4", "fig6"];
    fig2_state_walk_is_pinned: ["fig2"];
    table5_output_is_pinned: ["table5"];
    table5_live_simulations_are_pinned: ["table5_live"];
    fig3_output_is_pinned: ["fig3", "fig3.csv"];
    fig5_output_is_pinned: ["fig5"];
    fig6_csv_is_pinned: ["fig6.csv"];
    fig6_crosscheck_is_pinned: ["fig6_crosscheck"];
    snap_comparison_is_pinned: ["snap"];
    ablations_are_pinned: ["ablations"];
    epcheck_reports_are_pinned_and_deterministic: ["epcheck_shipped", "epcheck_fixture"];
    mcu8check_reports_are_pinned_and_deterministic: ["mcu8check_shipped", "mcu8check_fixture"];
}

#[test]
fn every_repro_artifact_is_pinned() {
    let mut names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
    let mut pinned = PINNED.to_vec();
    names.sort_unstable();
    pinned.sort_unstable();
    assert_eq!(names, pinned, "each artifact needs exactly one golden test");
}

#[test]
fn telemetry_exports_are_pinned() {
    // The observability layer's exports are part of the repo's contract:
    // the CSV timeline and metrics summaries must stay byte-stable, and
    // the Perfetto JSON must stay well-formed (the JSON itself is too
    // bulky to pin, so it is validated structurally instead).
    use ulp_bench::tracegen;
    let validate = |json: &str| {
        ulp_testkit::json::parse(json)
            .unwrap_or_else(|e| panic!("exported trace JSON is malformed: {e}"));
    };
    let ulp = tracegen::stage4(60_000, tracegen::default_seed("stage4"));
    validate(&ulp.json);
    assert_golden("trace_stage4.csv", &ulp.csv);
    assert_golden("trace_stage4_summary.txt", &ulp.summary);
    let mica = tracegen::mica2(120_000, tracegen::default_seed("mica2"));
    validate(&mica.json);
    assert_golden("trace_mica2_summary.txt", &mica.summary);
}

#[test]
fn chaos_campaign_summary_is_pinned() {
    // A fixed-seed fault-injection campaign is a pure function of its
    // grid: the per-point CSV and the aggregate line must never drift.
    // Run on two workers — the fleet engine's merge is byte-identical
    // whatever the thread count, so the golden does not depend on it.
    use ulp_bench::chaos::{campaign, campaign_summary, cells, run_chaos, ChaosApp};
    let sweep = campaign(
        &[ChaosApp::Sample, ChaosApp::Filtered],
        &[0.0, 1e-3],
        2,
        15_000,
    );
    let results = sweep
        .run(2, |_, cfg| cells(&run_chaos(cfg)))
        .expect("no chaos grid point may violate a degradation invariant");
    assert_golden("chaos_summary.txt", &campaign_summary(&results));
}

#[test]
fn dense_network_sweep_is_pinned() {
    // The dense-network reproduction artifact: the default `fleet
    // --dense` scenario — 1024 nodes in 16 spatial tiles on the
    // event-driven medium — sharded over two fleet workers. The merge is
    // grid-order deterministic, so the aggregated report is
    // byte-identical whatever the worker count (tests/net_scale.rs
    // asserts that separately); any drift here is a real change to the
    // channel model, the CSMA MAC, or the node stack.
    use ulp_bench::dense::{dense_eval, dense_report, dense_sweep, DenseConfig};
    let sweep = dense_sweep(&[DenseConfig::default()]);
    let results = sweep
        .run(2, dense_eval)
        .expect("no dense tile may fail conservation");
    assert_golden("dense_sweep.txt", &dense_report(&results));
}

#[test]
fn cosim_driver_outputs_are_pinned() {
    // Both multi-node loops on one small flood — the slot-stepped
    // reference and the event loop — plus one spatial tile on the
    // event loop, with every energy total as raw f64 bits: the two drivers
    // must keep every output bit, not just the integer counters.
    use std::fmt::Write as _;
    use ulp_bench::cosim::{run_cosim, run_cosim_event, CosimConfig};
    use ulp_bench::dense::{run_tile, DenseConfig};
    let cfg = CosimConfig {
        nodes: 8,
        horizon_slots: 9_000,
        ..CosimConfig::default()
    };
    let mut out = format!("{}\n", cfg.store_key());
    for (driver, s) in [("slot", run_cosim(&cfg)), ("event", run_cosim_event(&cfg))] {
        let _ = writeln!(
            out,
            "{driver}: sent={} delivered={} lost={} heard={} radio_tx={} mcu_wakeups={} \
             service_p99={} irqs_serviced={} energy_j={:e} bits={:#018x}",
            s.sent,
            s.delivered,
            s.lost,
            s.heard,
            s.radio_tx,
            s.mcu_wakeups,
            s.service_p99,
            s.irqs_serviced,
            s.energy_j,
            s.energy_j.to_bits()
        );
    }
    let tile = DenseConfig {
        nodes: 48,
        density_per_ha: 50.0,
        duty: 2_000,
        horizon_slots: 8_000,
        seed: 3,
    };
    let s = run_tile(&tile, 0);
    let _ = writeln!(out, "tile: {s:?} bits={:#018x}", s.energy_j.to_bits());
    assert_golden("cosim_drivers.txt", &out);
}

#[test]
fn net_trace_is_pinned() {
    // The 4-node flood behind `trace --app net`: the merged metrics
    // summary verbatim, and digests of the CSV timeline and Perfetto
    // JSON (too bulky to pin as files).
    use ulp_testkit::digest::{digest64, hex16};
    let net = ulp_bench::tracegen::net(30_000, 7);
    let out = format!(
        "csv: {} lines, digest {}\njson: {} bytes, digest {}\n{}",
        net.csv.lines().count(),
        hex16(digest64(net.csv.as_bytes())),
        net.json.len(),
        hex16(digest64(net.json.as_bytes())),
        net.summary
    );
    assert_golden("trace_net_summary.txt", &out);
}

#[test]
fn energy_bits_are_pinned() {
    // The printed artifacts round energy to a few digits; this file pins
    // every bit of it. For each Figure 6 cross-check point, the stage-4
    // trace node and one simulated hour of the stage-1 Great Duck Island
    // node: each component's energy as raw f64 bits and its cycles per
    // mode, the busy cycles, the engine's run statistics, and a digest
    // of the transmitted frames. A change to how the simulator steps or
    // charges a cycle must leave this file byte-identical.
    use std::fmt::Write as _;
    use ulp_node::apps::ulp::{stages, SamplePeriod};
    use ulp_node::apps::workload::{profile_event, run_duty, sim_crosscheck_duties};
    use ulp_node::core_arch::slaves::RandomWalkSensor;
    use ulp_node::core_arch::{System, SystemConfig};
    use ulp_node::sim::{Cycles, Engine, RunStats, Simulatable};
    use ulp_testkit::digest::{hex16, Digest64};

    fn rows(out: &mut String, label: &str, mut sys: System, stats: RunStats) {
        let _ = writeln!(
            out,
            "{label}: now={} busy={} stepped={} skipped={} halted={}",
            sys.now().0,
            sys.busy_cycles().0,
            stats.stepped.0,
            stats.skipped.0,
            stats.halted
        );
        for c in sys.meter().all() {
            let [active, idle, gated] = c.mode_cycles.map(|n| n.0);
            let _ = writeln!(
                out,
                "  {:<16} {:#018x} active={active} idle={idle} gated={gated}",
                c.name,
                c.energy.joules().to_bits()
            );
        }
        let outbox = sys.take_outbox();
        let mut digest = Digest64::new();
        for (at, bytes) in &outbox {
            digest.update(&at.0.to_le_bytes());
            digest.update(&(bytes.len() as u64).to_le_bytes());
            digest.update(bytes);
        }
        let _ = writeln!(
            out,
            "  outbox           {} frames, digest {}",
            outbox.len(),
            hex16(digest.finish())
        );
    }

    let mut out = String::new();
    let profile = profile_event();
    for duty in sim_crosscheck_duties(&profile) {
        let (sys, stats) = run_duty(duty, &profile);
        rows(&mut out, &format!("fig6 duty={duty}"), sys, stats);
    }

    let horizon = ulp_bench::tracegen::default_horizon("stage4");
    let seed = ulp_bench::tracegen::default_seed("stage4");
    let mut engine = Engine::new(ulp_bench::tracegen::stage4_node(seed));
    engine.set_epoch(Cycles(4_096));
    let stats = engine.run_for(Cycles(horizon));
    rows(&mut out, "stage4 trace node", engine.into_machine(), stats);

    let program = stages::app1(SamplePeriod::Chained {
        base: 10_000,
        count: 700,
    });
    let mut engine = Engine::new(program.build_system(
        SystemConfig::default(),
        Box::new(RandomWalkSensor::new(120, 7)),
    ));
    let stats = engine.run_for(Cycles(60 * 60 * 100_000));
    rows(&mut out, "gdi stage-1 hour", engine.into_machine(), stats);

    assert_golden("energy_bits.txt", &out);
}
