//! Telemetry trace dumper: run a reference workload with the typed trace
//! and metrics probes enabled, then export deterministic artifacts.
//!
//! ```text
//! cargo run -p ulp-bench --bin trace -- --app stage4 --out trace.json
//! ```
//!
//! Flags:
//!
//! * `--app stage4|mica2|net` — workload (default `stage4`)
//! * `--cycles N`  — horizon: cycles for `stage4`/`mica2`, co-sim slots
//!   for `net` (default per app, see `tracegen::default_horizon`)
//! * `--seed N`    — PRNG seed (default per app, matching the
//!   determinism suite)
//! * `--out PATH`  — write Chrome/Perfetto trace-event JSON here
//! * `--csv PATH`  — write the CSV timeline here
//! * `--summary PATH` — write the metrics summary table here
//! * `--check`     — run the workload twice, assert the three artifacts
//!   are byte-identical, and validate the JSON with the strict in-tree
//!   reader (`ulp_testkit::json::parse`)
//! * `--perf`      — run with the host-side profiler attached
//!   (`stage4`/`mica2` only): print the deterministic counts table and
//!   the wall-clock self-time table after the summary, and append the
//!   deterministic host-perf counter track to the `--out` JSON
//!
//! Every output file is created before the workload runs, and one that
//! cannot be written exits 1 with one line naming it and nothing on
//! stdout; otherwise the metrics summary goes to stdout once every
//! artifact is written. Open the JSON in
//! `chrome://tracing` or <https://ui.perfetto.dev>.

use std::process::exit;

use ulp_bench::{perf, tracegen};
use ulp_testkit::json;

fn usage() -> ! {
    eprintln!(
        "usage: trace [--app stage4|mica2|net] [--cycles N] [--seed N] \
         [--out FILE.json] [--csv FILE.csv] [--summary FILE.txt] [--check] [--perf]"
    );
    exit(2);
}

fn main() {
    let mut app = String::from("stage4");
    let mut cycles: Option<u64> = None;
    let mut seed: Option<u64> = None;
    let mut out: Option<String> = None;
    let mut csv: Option<String> = None;
    let mut summary: Option<String> = None;
    let mut check = false;
    let mut with_perf = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--app" => app = value("--app"),
            "--cycles" => {
                cycles = Some(value("--cycles").parse().unwrap_or_else(|e| {
                    eprintln!("--cycles: {e}");
                    usage()
                }))
            }
            "--seed" => {
                seed = Some(value("--seed").parse().unwrap_or_else(|e| {
                    eprintln!("--seed: {e}");
                    usage()
                }))
            }
            "--out" => out = Some(value("--out")),
            "--csv" => csv = Some(value("--csv")),
            "--summary" => summary = Some(value("--summary")),
            "--check" => check = true,
            "--perf" => with_perf = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage()
            }
        }
    }
    if !matches!(app.as_str(), "stage4" | "mica2" | "net") {
        eprintln!("unknown app `{app}`");
        usage();
    }
    let cycles = cycles.unwrap_or_else(|| tracegen::default_horizon(&app));
    let seed = seed.unwrap_or_else(|| tracegen::default_seed(&app));
    if with_perf && app == "net" {
        eprintln!("--perf supports stage4|mica2 (net steps its nodes manually)");
        usage();
    }
    if let Err(e) = ulp_bench::create_outputs([&out, &csv, &summary]) {
        eprintln!("{e}");
        exit(1);
    }

    let (export, perf_snapshot) = if with_perf {
        let (export, snap) = tracegen::run_perf(&app, cycles, seed);
        (export, Some(snap))
    } else {
        (tracegen::run(&app, cycles, seed), None)
    };
    if check {
        if let Some(snap) = &perf_snapshot {
            let (again, snap2) = tracegen::run_perf(&app, cycles, seed);
            assert_eq!(
                export.json, again.json,
                "profiled JSON must be deterministic"
            );
            assert_eq!(export.csv, again.csv, "CSV export must be deterministic");
            assert_eq!(
                export.summary, again.summary,
                "summary must be deterministic"
            );
            assert_eq!(
                snap.counts_table(),
                snap2.counts_table(),
                "perf counts must be deterministic"
            );
            // No observer effect: profiling must leave the guest-side
            // CSV and summary exactly as the unprofiled run produces.
            let plain = tracegen::run(&app, cycles, seed);
            assert_eq!(export.csv, plain.csv, "profiling changed the CSV");
            assert_eq!(
                export.summary, plain.summary,
                "profiling changed the summary"
            );
        } else {
            let again = tracegen::run(&app, cycles, seed);
            assert_eq!(export.json, again.json, "JSON export must be deterministic");
            assert_eq!(export.csv, again.csv, "CSV export must be deterministic");
            assert_eq!(
                export.summary, again.summary,
                "summary must be deterministic"
            );
        }
        if let Err(e) = json::parse(&export.json) {
            eprintln!("trace JSON failed validation: {e}");
            exit(1);
        }
        eprintln!("check ok: double run byte-identical, JSON well-formed");
    }
    for (path, text) in [
        (&out, &export.json),
        (&csv, &export.csv),
        (&summary, &export.summary),
    ] {
        if let Some(path) = path {
            if let Err(e) = ulp_bench::write_output(path, text) {
                eprintln!("{e}");
                exit(1);
            }
        }
    }
    print!("{}", export.summary);
    if let Some(snap) = &perf_snapshot {
        println!();
        print!("{}", perf::render_report(snap));
    }
}
