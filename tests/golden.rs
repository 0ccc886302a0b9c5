//! Golden-output tests for the table/figure regeneration binaries.
//!
//! Each generator's text lives in `ulp_bench::report` (the `src/bin/`
//! binaries print the same strings), and this suite pins it
//! byte-for-byte against the files in `tests/golden/`. Every model
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

#[test]
fn table1_output_is_pinned() {
    assert_golden("table1.txt", &ulp_bench::report::table1_report());
}

#[test]
fn table2_output_is_pinned() {
    assert_golden("table2.txt", &ulp_bench::report::table2_report());
}

#[test]
fn table3_output_is_pinned() {
    assert_golden("table3.txt", &ulp_bench::report::table3_report());
}

#[test]
fn table4_and_fig6_outputs_are_pinned() {
    // One measurement pass feeds both reports, exactly as `fig6` derives
    // its Atmel calibration from the Table 4 filtered-send row.
    let rows = ulp_bench::measure_table4();
    assert_golden("table4.txt", &ulp_bench::report::table4_report(&rows));
    let atmel = rows
        .iter()
        .find(|r| r.name.contains("w/ filter"))
        .map(|r| r.mica)
        .unwrap();
    assert_golden("fig6.txt", &ulp_bench::report::fig6_report(atmel));
}

#[test]
fn table5_output_is_pinned() {
    assert_golden("table5.txt", &ulp_bench::report::table5_report());
}

#[test]
fn fig3_output_is_pinned() {
    assert_golden("fig3.txt", &ulp_bench::report::fig3_report());
    assert_golden("fig3.csv", &ulp_bench::report::fig3_csv());
}

#[test]
fn fig5_output_is_pinned() {
    assert_golden("fig5.txt", &ulp_bench::report::fig5_report());
}

#[test]
fn fig6_csv_is_pinned() {
    // The CSV path uses the paper's fixed 1532-cycle calibration so the
    // series is reproducible without a measurement pass.
    assert_golden("fig6.csv", &ulp_bench::report::fig6_csv(1532));
}

#[test]
fn telemetry_exports_are_pinned() {
    // The observability layer's exports are part of the repo's contract:
    // the CSV timeline and metrics summaries must stay byte-stable, and
    // the Perfetto JSON must stay well-formed (the JSON itself is too
    // bulky to pin, so it is validated structurally instead).
    use ulp_bench::tracegen;
    let validate = |json: &str| {
        ulp_node::sim::telemetry::validate_json(json)
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
fn epcheck_reports_are_pinned_and_deterministic() {
    // The static checker's rendered reports are a contract: the shipped
    // programs must lint clean (pinning the WCET of every ISR), and the
    // fixture suite pins one rendered diagnostic per class. Both must
    // be byte-identical across runs — diagnostics feed goldens and CI
    // diffs, so nondeterminism would be a bug in its own right.
    use ulp_bench::epcheck;
    let shipped = epcheck::render_shipped();
    let fixture = epcheck::render_fixture();
    assert_eq!(shipped, epcheck::render_shipped(), "shipped nondeterminism");
    assert_eq!(fixture, epcheck::render_fixture(), "fixture nondeterminism");
    assert_golden("epcheck_shipped.txt", &shipped);
    assert_golden("epcheck_fixture.txt", &fixture);
    assert_eq!(epcheck::shipped_errors(), 0, "shipped ISRs must be clean");
}

#[test]
fn dense_network_sweep_is_pinned() {
    // The dense-network reproduction artifact: the default `fleet
    // --dense` scenario — 1024 nodes in 16 spatial tiles on the
    // event-wheel medium — sharded over two fleet workers. The merge is
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
    // reference and the event wheel — plus one spatial tile on the
    // wheel, with every energy total as raw f64 bits: the two drivers
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
fn mcu8check_reports_are_pinned_and_deterministic() {
    // Same contract for the whole-firmware mcu8 analyzer: every shipped
    // Mica2 image verifies clean (pinning each vector's stack depth and
    // WCET bound), and the fixture suite pins one rendered diagnostic
    // per class.
    use ulp_bench::mcu8check;
    let shipped = mcu8check::render_shipped();
    let fixture = mcu8check::render_fixture();
    assert_eq!(shipped, mcu8check::render_shipped(), "shipped nondeterminism");
    assert_eq!(fixture, mcu8check::render_fixture(), "fixture nondeterminism");
    assert_golden("mcu8check_shipped.txt", &shipped);
    assert_golden("mcu8check_fixture.txt", &fixture);
    assert_eq!(mcu8check::shipped_errors(), 0, "shipped firmware must be clean");
}
