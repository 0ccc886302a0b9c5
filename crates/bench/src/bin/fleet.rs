//! Campaigns on the parallel fleet engine: seed-replicated co-sim
//! floods, dense-network tiles and fault-injection grids.
//!
//! Each mode sweeps one grid, one independent simulation per grid
//! point, executed by `ulp_bench::fleet` on `ULP_FLEET_THREADS` workers
//! and merged in grid order — the serialized results are byte-identical
//! whatever the thread count.
//!
//! ```text
//! cargo run --release -p ulp-bench --bin fleet -- --nodes 64,128 --seeds 16
//! cargo run --release -p ulp-bench --bin fleet -- --dense --nodes 10000
//! cargo run --release -p ulp-bench --bin fleet -- --chaos --rates 0,0.001,0.004 --seeds 8
//! ```
//!
//! Modes and the grid flags each reads (a flag the chosen mode does not
//! read is a usage error):
//!
//! * (default) — the `ulp-net` lossy co-simulation (64–256
//!   cycle-accurate nodes flooding towards a base station) over node
//!   count × loss × seed, see [`ulp_bench::cosim`]:
//!   `--nodes A[,B,…]` (default `64`; at most 65,533, the addresses
//!   2..=0xFFFE), `--loss A[,B,…]` (probabilities, default `0.1`),
//!   `--seeds N` (seeds `0..N`, default `8`), `--slots N` (horizon in
//!   10 µs slots, default `12000`)
//! * `--dense` — spatial dense-network mode: tiles of 64 nodes on the
//!   event-driven [`SpatialMedium`](ulp_net::SpatialMedium), one grid
//!   point per tile, aggregated per scenario (see [`ulp_bench::dense`]):
//!   `--nodes` (default `1024`), `--density A[,B,…]` (nodes per hectare,
//!   default `25`), `--duty A[,B,…]` (sample period in cycles, default
//!   `5000`), `--seeds` (default `1`), `--slots` (default `20000`)
//! * `--chaos` — deterministic fault-injection campaigns with the
//!   graceful-degradation invariants asserted per point (see
//!   [`ulp_bench::chaos`]): `--apps A[,B,…]` (`app1`, `app2`, `app3`;
//!   default `app1,app2`), `--rates A[,B,…]` (faults/cycle in [0, 1],
//!   default `0,0.001`; `0` is the fault-free baseline), `--seeds`
//!   (default `4`), `--horizon N` (cycles per point, default `30000`),
//!   `--summary PATH` (write the deterministic campaign summary, the
//!   artifact `tests/golden.rs` pins)
//!
//! Flags every mode reads (parsed once in [`ulp_bench::campaign`]):
//!
//! * `--threads N`     — worker count (default `ULP_FLEET_THREADS`, else
//!   the machine's available parallelism)
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
//!   artifacts) so N independent processes can split one campaign;
//!   a plain `--store` run afterwards serves the whole grid from the
//!   filled store and emits the canonical artifacts
//!
//! Scalar flags take one value of at least 1, and every grid value is
//! checked against its axis's domain before anything simulates: a bad
//! command line exits 2 with a message naming the flag and prints
//! nothing on stdout. A summary table always goes to stdout and the
//! per-sweep wall-clock to stderr, so stdout stays byte-identical across
//! runs; a panicking grid point (a violated chaos invariant, say) exits
//! 1 naming its scenario coordinates. Every output file is created
//! before anything simulates, and one that cannot be written exits 1
//! with one line naming it and nothing on stdout.

use std::process::exit;

use ulp_bench::campaign::{usage, CampaignArgs, Mode};
use ulp_bench::chaos::{self, ChaosConfig};
use ulp_bench::cosim::{self, CosimConfig};
use ulp_bench::dense::{self, DenseConfig};
use ulp_bench::fleet::{Cell, Coords, Sweep, SweepResults};
use ulp_bench::store::drive;
use ulp_bench::TableWriter;

/// Run a sweep through the shared campaign driver
/// ([`ulp_bench::store::drive`]: `--check` / `--progress` / `--store` /
/// `--shard`) and return its (thread-count-invariant) results.
fn execute<P: Sync>(
    sweep: &Sweep<P>,
    args: &CampaignArgs,
    key_of: impl Fn(&Coords, &P) -> String + Sync,
    eval: impl Fn(&Coords, &P) -> Vec<Cell> + Sync,
) -> SweepResults {
    or_exit(drive(sweep, &args.drive, key_of, eval))
}

/// The value, or the error's line on stderr and exit 1.
fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1)
    })
}

/// Print one row per grid point: each `(header, column)` pair is a
/// table column, with `energy_j` shown in µJ.
fn print_table(results: &SweepResults, columns: &[(&str, &str)]) {
    let headers: Vec<&str> = columns.iter().map(|c| c.0).collect();
    let mut t = TableWriter::new(&headers);
    for row in 0..results.rows().len() {
        let cells: Vec<String> = columns
            .iter()
            .map(
                |&(_, name)| match results.cell(row, name).expect("column") {
                    Cell::F64(j) if name == "energy_j" => format!("{:.3} uJ", j * 1e6),
                    cell => cell.to_string(),
                },
            )
            .collect();
        t.row(&cells);
    }
    t.print();
}

fn main() {
    let args = CampaignArgs::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        if !e.is_empty() {
            eprintln!("{e}");
        }
        eprintln!("{}", usage());
        exit(2)
    });
    or_exit(args.create_outputs());
    let (seeds, horizon, threads) = (args.seeds, args.horizon, args.drive.threads);
    match args.mode {
        Mode::Cosim => {
            let (nodes, losses) = (&args.nodes, &args.losses);
            let sweep = cosim::replication_sweep(nodes, losses, seeds, horizon);
            eprintln!(
                "fleet: {} grid points (nodes {nodes:?} x loss {losses:?} x {seeds} seeds), \
                 {horizon} slots each, {threads} worker(s)",
                sweep.len()
            );
            let results = execute(
                &sweep,
                &args,
                |_, cfg: &CosimConfig| cfg.store_key(),
                |_, cfg| cosim::cells(&cosim::run_cosim(cfg)),
            );
            if args.fill_only() {
                return;
            }
            print_table(
                &results,
                &[
                    ("Nodes", "nodes"),
                    ("Loss", "loss"),
                    ("Seed", "seed"),
                    ("Sent", "sent"),
                    ("Heard", "heard"),
                    ("Lost", "lost"),
                    ("Wakeups", "mcu_wakeups"),
                    ("Energy", "energy_j"),
                    ("p99", "service_p99"),
                ],
            );
            or_exit(args.finish(&results));
        }
        Mode::Dense => {
            let (nodes, densities, duties) = (&args.nodes, &args.densities, &args.duties);
            let base_seed = DenseConfig::default().seed;
            let mut scenarios = Vec::new();
            for &n in nodes {
                for &density in densities {
                    for &duty in duties {
                        for seed in 0..seeds {
                            scenarios.push(DenseConfig {
                                nodes: n,
                                density_per_ha: density,
                                duty,
                                horizon_slots: horizon,
                                seed: base_seed + seed,
                            });
                        }
                    }
                }
            }
            let sweep = dense::dense_sweep(&scenarios);
            eprintln!(
                "fleet --dense: {} tiles over {} scenario(s) (nodes {nodes:?} x density \
                 {densities:?} x duty {duties:?} x {seeds} seed(s)), {horizon} slots each, \
                 {threads} worker(s)",
                sweep.len(),
                scenarios.len()
            );
            let results = execute(&sweep, &args, dense::dense_store_key, dense::dense_eval);
            if args.fill_only() {
                return;
            }
            print!("{}", dense::dense_report(&results));
            or_exit(args.finish(&results));
        }
        Mode::Chaos => {
            let (apps, rates) = (&args.apps, &args.rates);
            let sweep = chaos::campaign(apps, rates, seeds, horizon);
            eprintln!(
                "fleet --chaos: {} grid points ({} app(s) x rates {rates:?} x {seeds} seeds), \
                 {horizon} cycles each, {threads} worker(s)",
                sweep.len(),
                apps.len()
            );
            let results = execute(
                &sweep,
                &args,
                |_, cfg: &ChaosConfig| cfg.store_key(),
                |_, cfg| chaos::cells(&chaos::run_chaos(cfg)),
            );
            if args.fill_only() {
                return;
            }
            print_table(
                &results,
                &[
                    ("App", "app"),
                    ("Rate", "rate"),
                    ("Seed", "seed"),
                    ("Inj", "injected"),
                    ("Abs", "absorbed"),
                    ("Degr", "degraded"),
                    ("Fatal", "fatal"),
                    ("Sent", "sent"),
                    ("Corrupt", "corrupt"),
                    ("Halted", "halted"),
                    ("Energy", "energy_j"),
                ],
            );
            let summary = chaos::campaign_summary(&results);
            let aggregate = summary
                .lines()
                .last()
                .unwrap_or("# aggregate: empty campaign");
            println!("\n{aggregate}");
            or_exit(args.finish(&results));
            if let Some(path) = &args.summary {
                or_exit(ulp_bench::write_output(path, &summary));
            }
        }
    }
}
