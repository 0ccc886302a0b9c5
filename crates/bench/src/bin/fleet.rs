//! Seed-replication co-simulation sweeps on the parallel fleet engine.
//!
//! Scales the `ulp-net` lossy co-simulation (64–256 cycle-accurate
//! nodes flooding towards a base station) across a node-count ×
//! loss-rate × seed grid, one independent simulation per grid point,
//! executed by `ulp_bench::fleet` on `ULP_FLEET_THREADS` workers and
//! merged in grid order — the serialized results are byte-identical
//! whatever the thread count.
//!
//! ```text
//! cargo run --release -p ulp-bench --bin fleet -- --nodes 64,128 --seeds 16
//! cargo run --release -p ulp-bench --bin fleet -- --dense --nodes 10000
//! ```
//!
//! Flags:
//!
//! * `--nodes A[,B,…]` — node counts to sweep (default `64`; `1024`
//!   with `--dense`); at most 65,533, the addresses 2..=0xFFFE
//! * `--loss  A[,B,…]` — loss probabilities to sweep (default `0.1`)
//! * `--seeds N`       — seeds `0..N` per cell (default `8`; `1` with
//!   `--dense`)
//! * `--slots N`       — horizon in 10 µs co-sim slots (default `12000`;
//!   `20000` with `--dense`)
//! * `--threads N`     — worker count (default `ULP_FLEET_THREADS`, else
//!   the machine's available parallelism)
//! * `--dense`         — spatial dense-network mode: tiles of 64 nodes
//!   on the event-wheel [`SpatialMedium`](ulp_net::SpatialMedium), one
//!   grid point per tile, aggregated per scenario (see
//!   [`ulp_bench::dense`])
//! * `--density A[,B,…]` — (`--dense` only) nodes per hectare
//!   (default `25`)
//! * `--duty A[,B,…]`  — (`--dense` only) sample period in cycles
//!   (default `5000`)
//! * `--csv PATH` / `--json PATH` — write the machine-readable results
//! * `--check`         — run the whole sweep twice (1 worker, then N),
//!   assert CSV and JSON byte-identity, validate the JSON with the
//!   strict in-tree reader (`ulp_testkit::json::parse`), and report
//!   points/sec serial vs parallel; then run it twice more through a
//!   campaign store (cold fill, reopened warm serve) asserting the
//!   stored passes emit the same bytes and the warm pass executes zero
//!   points
//! * `--progress`      — stream NDJSON heartbeats (points done/total,
//!   points/sec, ETA, current coordinates) on **stderr** while the grid
//!   drains; stdout, CSV, and JSON bytes are untouched
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
//! A summary table always goes to stdout and the per-sweep wall-clock
//! to stderr, so stdout stays byte-identical across runs; a panicking
//! grid point aborts with its scenario coordinates.

use std::process::exit;

use ulp_bench::cosim::{run_cosim, CosimConfig, CosimSummary, MAX_NODES};
use ulp_bench::dense::{self, DenseConfig};
use ulp_bench::fleet::{self, Cell, Coords, Sweep, SweepResults};
use ulp_bench::store::{drive, DriveConfig, Shard};
use ulp_bench::TableWriter;

fn usage() -> ! {
    eprintln!(
        "usage: fleet [--dense] [--nodes A[,B,..]] [--loss A[,B,..]] \
         [--density A[,B,..]] [--duty A[,B,..]] [--seeds N] [--slots N] \
         [--threads N] [--csv FILE] [--json FILE] [--check] [--progress] \
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

/// The metric columns of one co-sim grid point, in declaration order.
const METRICS: &[&str] = &[
    "sent",
    "delivered",
    "lost",
    "heard",
    "radio_tx",
    "mcu_wakeups",
    "energy_j",
    "service_p99",
    "irqs_serviced",
];

fn cells(s: &CosimSummary) -> Vec<Cell> {
    vec![
        Cell::U64(s.sent),
        Cell::U64(s.delivered),
        Cell::U64(s.lost),
        Cell::U64(s.heard),
        Cell::U64(s.radio_tx),
        Cell::U64(s.mcu_wakeups),
        Cell::F64(s.energy_j),
        Cell::U64(s.service_p99),
        Cell::U64(s.irqs_serviced),
    ]
}

fn build_sweep(
    nodes: &[usize],
    losses: &[f64],
    seeds: u64,
    slots: u64,
) -> Sweep<CosimConfig> {
    let mut sweep = Sweep::new("cosim-replication", METRICS);
    for &n in nodes {
        for &loss in losses {
            for seed in 0..seeds {
                sweep.push(
                    Coords::new()
                        .with("nodes", n)
                        .with("loss", loss)
                        .with("seed", seed),
                    CosimConfig {
                        nodes: n,
                        loss,
                        seed,
                        horizon_slots: slots,
                        ..CosimConfig::default()
                    },
                );
            }
        }
    }
    sweep
}

/// Run a sweep through the shared campaign driver
/// ([`ulp_bench::store::drive`]: `--check` / `--progress` / `--store` /
/// `--shard`) and return its (thread-count-invariant) results.
fn execute<P: Sync>(
    sweep: &Sweep<P>,
    cfg: &DriveConfig,
    key_of: impl Fn(&Coords, &P) -> String + Sync,
    eval: impl Fn(&Coords, &P) -> Vec<Cell> + Sync,
) -> SweepResults {
    drive(sweep, cfg, key_of, eval).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1);
    })
}

fn main() {
    let mut nodes: Option<Vec<usize>> = None;
    let mut losses: Vec<f64> = vec![0.1];
    let mut densities: Vec<f64> = vec![25.0];
    let mut duties: Vec<u16> = vec![5_000];
    let mut seeds: Option<u64> = None;
    let mut slots: Option<u64> = None;
    let mut threads: usize = fleet::fleet_threads();
    let mut csv_path: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut dense_mode = false;
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
            "--nodes" => nodes = Some(parse_list("--nodes", &value("--nodes"))),
            "--loss" => losses = parse_list("--loss", &value("--loss")),
            "--density" => densities = parse_list("--density", &value("--density")),
            "--duty" => duties = parse_list("--duty", &value("--duty")),
            "--seeds" => seeds = Some(parse_list::<u64>("--seeds", &value("--seeds"))[0]),
            "--slots" => slots = Some(parse_list::<u64>("--slots", &value("--slots"))[0]),
            "--threads" => threads = parse_list::<usize>("--threads", &value("--threads"))[0].max(1),
            "--csv" => csv_path = Some(value("--csv")),
            "--json" => json_path = Some(value("--json")),
            "--dense" => dense_mode = true,
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
    let nodes = nodes.unwrap_or_else(|| vec![if dense_mode { 1_024 } else { 64 }]);
    let seeds = seeds.unwrap_or(if dense_mode { 1 } else { 8 });
    let slots = slots.unwrap_or(if dense_mode {
        DenseConfig::default().horizon_slots
    } else {
        CosimConfig::default().horizon_slots
    });
    if nodes.is_empty() || losses.is_empty() || densities.is_empty() || duties.is_empty() || seeds == 0
    {
        eprintln!("empty grid");
        usage();
    }
    if let Some(n) = nodes.iter().find(|&&n| n > MAX_NODES) {
        eprintln!("--nodes: {n} nodes do not fit in addresses 2..=0xFFFE (at most {MAX_NODES})");
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
    let drive_cfg = DriveConfig {
        threads,
        check,
        progress,
        store_dir: store_dir.map(Into::into),
        store_stats,
        shard,
    };
    // A shard worker only fills the store: its partial grid must not be
    // mistaken for campaign output, so stdout artifacts are suppressed
    // and the summary goes to stderr (from the driver).
    let fill_only = shard.is_some();

    if dense_mode {
        let base_seed = DenseConfig::default().seed;
        let mut scenarios = Vec::new();
        for &n in &nodes {
            for &density in &densities {
                for &duty in &duties {
                    for seed in 0..seeds {
                        scenarios.push(DenseConfig {
                            nodes: n,
                            density_per_ha: density,
                            duty,
                            horizon_slots: slots,
                            seed: base_seed + seed,
                        });
                    }
                }
            }
        }
        let sweep = dense::dense_sweep(&scenarios);
        eprintln!(
            "fleet --dense: {} tiles over {} scenario(s) (nodes {nodes:?} x density \
             {densities:?} x duty {duties:?} x {seeds} seed(s)), {slots} slots each, \
             {threads} worker(s)",
            sweep.len(),
            scenarios.len()
        );
        let results = execute(&sweep, &drive_cfg, dense::dense_store_key, dense::dense_eval);
        if !fill_only {
            print!("{}", dense::dense_report(&results));
            finish(&results, csv_path.as_deref(), json_path.as_deref());
        }
        return;
    }

    let sweep = build_sweep(&nodes, &losses, seeds, slots);
    eprintln!(
        "fleet: {} grid points (nodes {nodes:?} x loss {losses:?} x {seeds} seeds), \
         {slots} slots each, {threads} worker(s)",
        sweep.len()
    );

    let results = execute(
        &sweep,
        &drive_cfg,
        |_: &Coords, cfg: &CosimConfig| cfg.store_key(),
        |_: &Coords, cfg| cells(&run_cosim(cfg)),
    );
    if fill_only {
        return;
    }

    let mut t = TableWriter::new(&[
        "Nodes", "Loss", "Seed", "Sent", "Heard", "Lost", "Wakeups", "Energy", "p99",
    ]);
    for row in results.rows() {
        let col = |name: &str| {
            results.columns().iter().position(|c| c == name).expect("column")
        };
        let cell = |name: &str| row[col(name)].to_string();
        let energy = match &row[col("energy_j")] {
            Cell::F64(j) => format!("{:.3} uJ", j * 1e6),
            other => other.to_string(),
        };
        t.row(&[
            cell("nodes"),
            cell("loss"),
            cell("seed"),
            cell("sent"),
            cell("heard"),
            cell("lost"),
            cell("mcu_wakeups"),
            energy,
            cell("service_p99"),
        ]);
    }
    t.print();
    finish(&results, csv_path.as_deref(), json_path.as_deref());
}

/// Wall-clock summary plus the machine-readable exports, shared by both
/// modes. Timing goes to stderr with the other non-deterministic lines:
/// stdout must stay byte-identical across runs (the --progress gate in
/// scripts/verify.sh cmp's it).
fn finish(results: &SweepResults, csv_path: Option<&str>, json_path: Option<&str>) {
    eprintln!(
        "\n{} points in {:.3} s on {} worker(s)",
        results.rows().len(),
        results.elapsed().as_secs_f64(),
        results.threads()
    );
    if let Some(path) = csv_path {
        std::fs::write(path, results.to_csv()).expect("write --csv");
        eprintln!("wrote {path}");
    }
    if let Some(path) = json_path {
        std::fs::write(path, results.to_json()).expect("write --json");
        eprintln!("wrote {path}");
    }
}
