//! Deterministic fault-injection campaigns on the parallel fleet engine.
//!
//! Runs an app × fault-rate × seed grid of chaos points (see
//! `ulp_bench::chaos`), each one an independent simulation with a
//! seed-derived hardware fault plan and the graceful-degradation
//! invariants asserted inline. Points execute on `ULP_FLEET_THREADS`
//! workers and merge in grid order — the campaign summary is
//! byte-identical whatever the thread count.
//!
//! ```text
//! cargo run --release -p ulp-bench --bin chaos -- --rates 0,0.001,0.004 --seeds 8
//! ```
//!
//! Flags:
//!
//! * `--apps A[,B,…]`  — applications to sweep: `app1`, `app2`, `app3`
//!   (default `app1,app2`)
//! * `--rates A[,B,…]` — fault rates (faults/cycle) to sweep (default
//!   `0,0.001`; `0` is the fault-free baseline)
//! * `--seeds N`       — seeds `0..N` per cell (default `4`)
//! * `--horizon N`     — cycles per point (default `30000`)
//! * `--threads N`     — worker count (default `ULP_FLEET_THREADS`, else
//!   the machine's available parallelism)
//! * `--csv PATH`      — write the machine-readable per-point results
//! * `--summary PATH`  — write the deterministic campaign summary (the
//!   artifact `tests/golden.rs` pins)
//! * `--check`         — run the whole campaign twice (1 worker, then
//!   N), assert CSV/JSON byte-identity and summary byte-identity,
//!   validate the JSON with `ulp_testkit::json::parse`, and report
//!   points/sec serial vs parallel; then run it twice more through a campaign
//!   store (cold fill, reopened warm serve) asserting the stored passes
//!   emit the same bytes and the warm pass executes zero points
//! * `--progress`      — stream NDJSON heartbeats (points done/total,
//!   points/sec, ETA, current coordinates) on **stderr**; stdout and
//!   every written artifact are untouched
//! * `--store DIR`     — serve grid points from the content-addressed
//!   campaign store at DIR, execute and append only the misses
//!   (see [`ulp_bench::store`]); an interrupted campaign re-run with
//!   the same store resumes where it died
//! * `--store-stats`   — print the store's NDJSON stats line
//!   (records/torn/corrupt/hits/misses/collisions/appended) on stderr
//! * `--shard K/N`     — fill mode: run only grid points `i ≡ K (mod N)`
//!   and append them to the store (requires `--store`; no stdout
//!   artifacts) so N independent processes can split one campaign
//! * `--merge`         — after shard fills, emit the canonical full-grid
//!   artifacts from the store (alias for a plain `--store` run)
//!
//! A violated degradation invariant aborts with the offending grid
//! point's (app, rate, seed) coordinates.

use std::process::exit;

use ulp_bench::chaos::{campaign, campaign_summary, cells, run_chaos, ChaosApp, ChaosConfig};
use ulp_bench::fleet::{self, Cell, Coords, SweepResults};
use ulp_bench::store::{drive, DriveConfig, Shard};
use ulp_bench::TableWriter;

fn usage() -> ! {
    eprintln!(
        "usage: chaos [--apps A[,B,..]] [--rates A[,B,..]] [--seeds N] \
         [--horizon N] [--threads N] [--csv FILE] [--summary FILE] [--check] [--progress] \
         [--store DIR] [--store-stats] [--shard K/N] [--merge]"
    );
    exit(2);
}

fn parse_list<T: std::str::FromStr>(flag: &str, raw: &str) -> Vec<T> {
    raw.split(',')
        .map(|s| {
            s.trim().parse().unwrap_or_else(|_| {
                eprintln!("{flag}: cannot parse `{s}`");
                usage()
            })
        })
        .collect()
}

fn main() {
    let mut apps: Vec<ChaosApp> = vec![ChaosApp::Sample, ChaosApp::Filtered];
    let mut rates: Vec<f64> = vec![0.0, 1e-3];
    let mut seeds: u64 = 4;
    let mut horizon: u64 = ChaosConfig::default().horizon;
    let mut threads: usize = fleet::fleet_threads();
    let mut csv_path: Option<String> = None;
    let mut summary_path: Option<String> = None;
    let mut check = false;
    let mut progress = false;
    let mut store_dir: Option<String> = None;
    let mut store_stats = false;
    let mut shard: Option<Shard> = None;
    let mut merge = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--apps" => {
                apps = value("--apps")
                    .split(',')
                    .map(|s| {
                        ChaosApp::parse(s.trim()).unwrap_or_else(|| {
                            eprintln!("--apps: unknown app `{s}` (app1|app2|app3)");
                            usage()
                        })
                    })
                    .collect();
            }
            "--rates" => rates = parse_list("--rates", &value("--rates")),
            "--seeds" => seeds = parse_list::<u64>("--seeds", &value("--seeds"))[0],
            "--horizon" => horizon = parse_list::<u64>("--horizon", &value("--horizon"))[0],
            "--threads" => {
                threads = parse_list::<usize>("--threads", &value("--threads"))[0].max(1)
            }
            "--csv" => csv_path = Some(value("--csv")),
            "--summary" => summary_path = Some(value("--summary")),
            "--check" => check = true,
            "--progress" => progress = true,
            "--store" => store_dir = Some(value("--store")),
            "--store-stats" => store_stats = true,
            "--shard" => {
                let raw = value("--shard");
                shard = Some(Shard::parse(&raw).unwrap_or_else(|| {
                    eprintln!("--shard: `{raw}` is not K/N with K < N");
                    usage()
                }));
            }
            "--merge" => merge = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage()
            }
        }
    }
    if apps.is_empty() || rates.is_empty() || seeds == 0 {
        eprintln!("empty grid");
        usage();
    }
    if rates.iter().any(|r| !(0.0..=1.0).contains(r)) {
        eprintln!("--rates must be in [0, 1] faults/cycle");
        usage();
    }
    if (shard.is_some() || merge) && store_dir.is_none() {
        eprintln!("--shard/--merge need --store DIR (the shared campaign store)");
        usage();
    }
    if shard.is_some() && (check || merge) {
        eprintln!("--shard is a fill mode; run --check/--merge unsharded");
        usage();
    }

    let sweep = campaign(&apps, &rates, seeds, horizon);
    eprintln!(
        "chaos: {} grid points ({} app(s) x rates {rates:?} x {seeds} seeds), \
         {horizon} cycles each, {threads} worker(s)",
        sweep.len(),
        apps.len()
    );

    let drive_cfg = DriveConfig {
        threads,
        check,
        progress,
        store_dir: store_dir.map(Into::into),
        store_stats,
        shard,
    };
    let results: SweepResults = drive(
        &sweep,
        &drive_cfg,
        |_: &Coords, cfg: &ChaosConfig| cfg.store_key(),
        |_: &Coords, cfg: &ChaosConfig| cells(&run_chaos(cfg)),
    )
    .unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1);
    });
    if shard.is_some() {
        // A shard worker only fills the store: its partial grid must
        // not be mistaken for campaign output, so stdout artifacts are
        // suppressed (the driver already printed the fill summary).
        return;
    }

    let mut t = TableWriter::new(&[
        "App", "Rate", "Seed", "Inj", "Abs", "Degr", "Fatal", "Sent", "Corrupt", "Halted",
        "Energy",
    ]);
    for row in results.rows() {
        let col =
            |name: &str| results.columns().iter().position(|c| c == name).expect("column");
        let cell = |name: &str| row[col(name)].to_string();
        let energy = match &row[col("energy_j")] {
            Cell::F64(j) => format!("{:.3} uJ", j * 1e6),
            other => other.to_string(),
        };
        t.row(&[
            cell("app"),
            cell("rate"),
            cell("seed"),
            cell("injected"),
            cell("absorbed"),
            cell("degraded"),
            cell("fatal"),
            cell("sent"),
            cell("corrupt"),
            cell("halted"),
            energy,
        ]);
    }
    t.print();
    let summary = campaign_summary(&results);
    let aggregate = summary
        .lines()
        .last()
        .unwrap_or("# aggregate: empty campaign");
    println!("\n{aggregate}");
    // Wall-clock summary to stderr: stdout stays byte-identical across
    // runs, like fleet's.
    eprintln!(
        "\n{} points in {:.3} s on {} worker(s)",
        results.rows().len(),
        results.elapsed().as_secs_f64(),
        results.threads()
    );

    if let Some(path) = &csv_path {
        std::fs::write(path, results.to_csv()).expect("write --csv");
        eprintln!("wrote {path}");
    }
    if let Some(path) = &summary_path {
        std::fs::write(path, &summary).expect("write --summary");
        eprintln!("wrote {path}");
    }
}
