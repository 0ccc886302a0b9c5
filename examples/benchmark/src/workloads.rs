//! The six workloads. Each builds its inputs from the seed in
//! [`setup`], then runs jobs: one job is one thing a user waits for,
//! issued by a single closed-loop client. Every call into a layer goes
//! through the public entry points the shipped binaries and tests use,
//! wrapped in a [`Tracer`] span so the traced pass can attribute time.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ulp_apps::mica as mapps;
use ulp_apps::ulp::{stages, SamplePeriod};
use ulp_apps::workload::{profile_event, sim_crosscheck_duties, simulate_duty_with_profile};
use ulp_bench::chaos::{self, ChaosApp, ChaosConfig};
use ulp_bench::cosim::{run_cosim, CosimConfig, CosimSummary};
use ulp_bench::dense::{
    aggregate, dense_eval, dense_store_key, dense_sweep, DenseConfig, DenseSummary, DENSE_METRICS,
};
use ulp_bench::fleet::{Cell, Coords, Sweep, SweepResults};
use ulp_bench::measure::measure_snap;
use ulp_bench::report;
use ulp_bench::store::{run_stored, Store, StoreStats};
use ulp_core::slaves::RandomWalkSensor;
use ulp_core::SystemConfig;
use ulp_sim::{Cycles, Engine, PerfSnapshot, Profiler, Simulatable};
use ulp_testkit::{Digest64, Rng};

use crate::trace::Tracer;

/// Workload names, in the order a full run executes them.
pub const NAMES: [&str; 6] = [
    "paper_artifacts",
    "lifetime_day",
    "mica2_sampling",
    "flood_cosim",
    "dense_sweep",
    "campaign_resume",
];

/// Fleet workers for the campaign-layer workloads. One: the benchmark is
/// a single thread, so each job runs on the core whose speed the
/// reference readings around it measured (see `speed.rs`).
pub const WORKERS: usize = 1;

/// Everything a workload's set-up may read or write.
pub struct Ctx<'a> {
    pub seed: u64,
    /// Repository root (the golden files live under it).
    pub root: &'a Path,
    /// Scratch directory for stores; the workload owns it.
    pub work: &'a Path,
}

/// One job in flight. The workload calls [`Job::stop`] once the timed
/// work is done; the output checks it runs afterwards are not timed.
pub struct Job<'a> {
    pub id: u64,
    pub input: usize,
    pub tr: &'a Tracer,
    pub span: Option<usize>,
    started: Instant,
    stopped: Option<Instant>,
}

impl<'a> Job<'a> {
    pub fn new(id: u64, input: usize, tr: &'a Tracer) -> Job<'a> {
        Job {
            id,
            input,
            tr,
            span: None,
            started: Instant::now(),
            stopped: None,
        }
    }

    pub fn stop(&mut self) {
        self.stopped.get_or_insert_with(Instant::now);
    }

    /// Seconds of timed work.
    pub fn elapsed(&self) -> f64 {
        self.stopped
            .unwrap_or_else(Instant::now)
            .duration_since(self.started)
            .as_secs_f64()
    }

    /// A span under this job's root span.
    fn span<R>(&self, name: &'static str, f: impl FnOnce(Option<usize>) -> R) -> R {
        self.tr.span(name, self.span, self.id, f)
    }
}

/// What a job hands back: a digest of its outputs and, when traced,
/// the per-job counts the per-layer metrics are built from.
#[derive(Debug)]
pub struct Output {
    pub digest: u64,
    pub counts: Vec<(&'static str, f64)>,
}

pub trait Workload {
    /// Distinct inputs; job `k` runs input `k % inputs()`.
    fn inputs(&self) -> usize;
    /// Simulated node-cycles one job covers, where the inputs fix it.
    fn sim_cycles(&self) -> Option<f64>;
    /// Untimed per-job preparation.
    fn prepare(&mut self, _input: usize) -> Result<(), String> {
        Ok(())
    }
    /// Run one job, call [`Job::stop`], then check its outputs.
    fn run(&mut self, job: &mut Job) -> Result<Output, String>;
    /// Checks over a whole cycle of outputs, after timing ends.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Deterministic facts worth printing beside the digest.
    fn facts(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

pub fn setup(name: &str, cx: &Ctx) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "paper_artifacts" => Box::new(PaperArtifacts::setup(cx)?),
        "lifetime_day" => Box::new(LifetimeDay { seed: cx.seed }),
        "mica2_sampling" => Box::new(Mica2Sampling { seed: cx.seed }),
        "flood_cosim" => Box::new(FloodCosim::setup(cx)),
        "dense_sweep" => Box::new(DenseSweep::setup(cx)),
        "campaign_resume" => Box::new(CampaignResume::setup(cx)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Per-job input seed `i` of a workload seeded with `seed`: distinct
/// per input and per seed, never colliding between the two.
fn input_seed(seed: u64, inputs: usize, i: usize) -> u64 {
    seed.wrapping_mul(inputs as u64).wrapping_add(i as u64)
}

// ---------------------------------------------------------------------
// paper_artifacts
// ---------------------------------------------------------------------

/// Golden files compared byte-for-byte, in report order.
const GOLDENS: [&str; 10] = [
    "table1.txt",
    "table2.txt",
    "table3.txt",
    "table4.txt",
    "table5.txt",
    "fig3.txt",
    "fig3.csv",
    "fig5.txt",
    "fig6.txt",
    "fig6.csv",
];

/// Regenerate every paper artifact serially, as the table/figure
/// binaries do, and compare against `tests/golden/` (read only).
struct PaperArtifacts {
    golden: Vec<String>,
    model_err_pct: f64,
}

impl PaperArtifacts {
    fn setup(cx: &Ctx) -> Result<PaperArtifacts, String> {
        let golden = GOLDENS
            .iter()
            .map(|g| {
                let path = cx.root.join("tests/golden").join(g);
                fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
            })
            .collect::<Result<_, _>>()?;
        Ok(PaperArtifacts {
            golden,
            model_err_pct: f64::NAN,
        })
    }
}

impl Workload for PaperArtifacts {
    fn inputs(&self) -> usize {
        1
    }

    fn sim_cycles(&self) -> Option<f64> {
        None
    }

    fn run(&mut self, job: &mut Job) -> Result<Output, String> {
        let rows = job.span("report.table4", |_| ulp_bench::measure_table4());
        let snap = job.span("report.snap", |_| measure_snap());
        // The `fig6` binary's cross-validation: one profiling pass, then a
        // full simulation per sustainable duty of the paper grid.
        let (profile, crosscheck) = job.span("report.fig6_crosscheck", |_| {
            let profile = profile_event();
            let points: Vec<(f64, f64)> = sim_crosscheck_duties(&profile)
                .into_iter()
                .map(|d| (d, simulate_duty_with_profile(d, &profile).uw()))
                .collect();
            (profile, points)
        });
        let atmel = rows
            .iter()
            .find(|r| r.name.contains("w/ filter"))
            .map(|r| r.mica)
            .ok_or("table 4 lost its filtered row")?;
        let texts = job.span("report.analytic", |_| {
            [
                report::table1_report(),
                report::table2_report(),
                report::table3_report(),
                report::table4_report(&rows),
                report::table5_report(),
                report::fig3_report(),
                report::fig3_csv(),
                report::fig5_report(),
                report::fig6_report_with_profile(atmel, &profile),
                report::fig6_csv(1532),
            ]
        });
        job.stop();

        for ((text, golden), name) in texts.iter().zip(&self.golden).zip(GOLDENS) {
            ensure(text == golden, || {
                format!("{name} differs from tests/golden/{name}")
            })?;
        }
        let mut d = Digest64::new();
        for t in &texts {
            d.update_str(t);
        }
        for r in &snap {
            d.update_str(&format!("{} {} {} {};", r.name, r.ulp, r.mica, r.snap));
        }
        for (duty, uw) in &crosscheck {
            d.update_str(&format!("{duty} {uw};"));
        }
        // Accuracy against the paper: mean relative error of the six
        // Table 4 speedups.
        let errs: Vec<f64> = rows
            .iter()
            .map(|r| (r.speedup() - r.paper_speedup()).abs() / r.paper_speedup())
            .collect();
        self.model_err_pct = errs.iter().sum::<f64>() / errs.len() as f64 * 100.0;
        Ok(Output {
            digest: d.finish(),
            counts: Vec::new(),
        })
    }

    fn facts(&self) -> Vec<(&'static str, f64)> {
        vec![("model_err_pct", self.model_err_pct)]
    }
}

// ---------------------------------------------------------------------
// lifetime_day and mica2_sampling: one node, one job
// ---------------------------------------------------------------------

/// One simulated day at the 100 kHz system clock.
const DAY_CYCLES: u64 = 86_400 * 100_000;
/// The Great Duck Island cadence: one sample per 70 s.
const GDI_PERIOD_CYCLES: u64 = 70 * 100_000;
/// Three simulated seconds of the 7.3728 MHz Mica2 CPU.
const MICA_CYCLES: u64 = 3 * 7_372_800;

/// The engine's (and system's) profiler spans and counters as per-job
/// counts. `_ns.*` entries are self times the per-layer shares divide.
fn engine_counts(snap: &PerfSnapshot) -> Vec<(&'static str, f64)> {
    let calls = |n| snap.phase(n).map_or(0.0, |p| p.calls as f64);
    let self_ns = |n| snap.phase(n).map_or(0.0, |p| p.exclusive.as_nanos() as f64);
    let counter = |n| snap.counter(n).unwrap_or(0) as f64;
    vec![
        ("sim.step_calls", calls("engine.step")),
        ("sim.idle_skip_calls", calls("engine.idle_skip")),
        ("sim.cycles_stepped", counter("sim.cycles_stepped")),
        ("sim.cycles_skipped", counter("sim.cycles_skipped")),
        ("core.fde_calls", calls("sys.fetch_decode_execute")),
        ("_ns.engine.step", self_ns("engine.step")),
        ("_ns.engine.idle_skip", self_ns("engine.idle_skip")),
        ("_ns.sys.fde", self_ns("sys.fetch_decode_execute")),
        ("_ns.sys.dispatch", self_ns("sys.event_dispatch")),
    ]
}

/// Build the stage-1 GDI program and run one simulated day with
/// idle-skip: almost every cycle is skipped.
struct LifetimeDay {
    seed: u64,
}

impl Workload for LifetimeDay {
    fn inputs(&self) -> usize {
        4
    }

    fn sim_cycles(&self) -> Option<f64> {
        Some(DAY_CYCLES as f64)
    }

    fn run(&mut self, job: &mut Job) -> Result<Output, String> {
        let sensor_seed = input_seed(self.seed, self.inputs(), job.input);
        let profiler = job.tr.on().then(Profiler::new);
        let mut engine = job.span("apps.build", |_| {
            let program = stages::app1(SamplePeriod::Chained {
                base: 10_000,
                count: (GDI_PERIOD_CYCLES / 10_000) as u16,
            });
            let sensor = RandomWalkSensor::new(120, sensor_seed);
            Engine::new(program.build_system(SystemConfig::default(), Box::new(sensor)))
        });
        if let Some(p) = &profiler {
            engine.machine_mut().set_profiler(p);
            engine.set_profiler(p);
        }
        let stats = job.span("sim.run", |_| engine.run_for(Cycles(DAY_CYCLES)));
        job.stop();

        let mut sys = engine.into_machine();
        ensure(sys.fault().is_none(), || {
            format!("fault: {:?}", sys.fault())
        })?;
        ensure(stats.total().0 == DAY_CYCLES, || {
            format!("ran {} cycles", stats.total().0)
        })?;
        let sent = sys.slaves().radio.stats().transmitted;
        let frames = sys.take_outbox();
        ensure(
            sent == DAY_CYCLES / GDI_PERIOD_CYCLES && frames.len() as u64 == sent,
            || {
                format!(
                    "{sent} packets ({} framed) in a day at one per 70 s",
                    frames.len()
                )
            },
        )?;
        let mut d = Digest64::new();
        d.update_str(&format!(
            "{} {} {} {};",
            stats.stepped.0,
            stats.skipped.0,
            sys.busy_cycles().0,
            sys.meter().total_energy().joules().to_bits()
        ));
        for (at, bytes) in &frames {
            d.update(&at.0.to_le_bytes()).update(bytes);
        }
        Ok(Output {
            digest: d.finish(),
            counts: profiler.map_or_else(Vec::new, |p| engine_counts(&p.snapshot())),
        })
    }
}

/// The Mica2 baseline sampling on every timer tick: instruction
/// stepping dominates and idle-skip barely engages.
struct Mica2Sampling {
    seed: u64,
}

impl Workload for Mica2Sampling {
    fn inputs(&self) -> usize {
        4
    }

    fn sim_cycles(&self) -> Option<f64> {
        Some(MICA_CYCLES as f64)
    }

    fn run(&mut self, job: &mut Job) -> Result<Output, String> {
        let mut adc = Rng::from_seed(input_seed(self.seed, self.inputs(), job.input));
        let profiler = job.tr.on().then(Profiler::new);
        let mut engine = job.span("apps.build", |_| {
            let (board, _probes) = mapps::app1(1).board(Box::new(move |_| adc.next_u64() as u8));
            Engine::new(board)
        });
        if let Some(p) = &profiler {
            engine.set_profiler(p);
        }
        job.span("sim.run", |_| engine.run_until_cycle(Cycles(MICA_CYCLES)));
        job.stop();

        let mut board = engine.into_machine();
        ensure(!board.halted(), || "the Mica2 runtime halted".into())?;
        // The board steps whole instructions, so the run may end a few
        // cycles past the deadline; every cycle must be in some mode.
        let now = board.now().0;
        let (active, idle, psave) = board.mode_cycles();
        ensure(now >= MICA_CYCLES && active + idle + psave == now, || {
            format!("mode cycles {active}+{idle}+{psave} do not cover the {now}-cycle run")
        })?;
        let sent = board.take_sent();
        ensure(!sent.is_empty() && board.adc_conversions() > 0, || {
            "sampling produced no packets".into()
        })?;
        let mut d = Digest64::new();
        d.update_str(&format!(
            "{active} {idle} {psave} {};",
            board.adc_conversions()
        ));
        for (at, bytes) in &sent {
            d.update(&at.0.to_le_bytes()).update(bytes);
        }
        let mut counts = profiler.map_or_else(Vec::new, |p| engine_counts(&p.snapshot()));
        if job.tr.on() {
            counts.extend([
                ("mica.active_cycles", active as f64),
                ("mica.idle_cycles", idle as f64),
                ("mica.powersave_cycles", psave as f64),
                ("_mcu8.cycles", now as f64),
            ]);
        }
        Ok(Output {
            digest: d.finish(),
            counts,
        })
    }
}

// ---------------------------------------------------------------------
// Campaign-layer helpers
// ---------------------------------------------------------------------

fn digest_csv(results: &SweepResults) -> u64 {
    ulp_testkit::digest64(results.to_csv().as_bytes())
}

fn column(results: &SweepResults, name: &str) -> Result<usize, String> {
    results
        .columns()
        .iter()
        .position(|c| c == name)
        .ok_or_else(|| format!("results lack column {name}"))
}

/// The integer cells of a column, one per row.
fn u64_column(results: &SweepResults, name: &str) -> Result<Vec<u64>, String> {
    let i = column(results, name)?;
    results
        .rows()
        .iter()
        .map(|r| match r[i] {
            Cell::U64(n) => Ok(n),
            ref other => Err(format!("column {name} holds {other:?}")),
        })
        .collect()
}

/// Segment bytes in a store directory.
fn store_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn store_counts(stats: &StoreStats, read: u64, written: u64) -> Vec<(&'static str, f64)> {
    vec![
        ("store.records_read", stats.records as f64),
        ("store.hits", stats.hits as f64),
        ("store.misses", stats.misses as f64),
        ("store.appended", stats.appended as f64),
        ("store.torn", stats.torn as f64),
        ("store.corrupt", stats.corrupt as f64),
        ("store.bytes_read", read as f64),
        ("store.bytes_written", written as f64),
    ]
}

/// Open the store at `dir` and run `sweep` through it, as one job: the
/// store's open, cache lookups, miss execution and appends. Returns the
/// merged results, the store's counters and the bytes it read and wrote.
fn stored_job<P: Sync>(
    job: &mut Job,
    dir: &Path,
    sweep: &Sweep<P>,
    key_of: impl Fn(&Coords, &P) -> String,
    eval: impl Fn(&Coords, &P) -> Vec<Cell> + Sync,
) -> Result<(SweepResults, StoreStats, u64, u64), String> {
    let before = if job.tr.on() { store_bytes(dir) } else { 0 };
    let mut store = job
        .span("store.open", |_| Store::open(dir))
        .map_err(|e| format!("store open: {e}"))?;
    let after_open = if job.tr.on() { store_bytes(dir) } else { 0 };
    let (tr, id) = (job.tr, job.id);
    let results = job
        .span("store.run_stored", |parent| {
            run_stored(
                sweep,
                &mut store,
                WORKERS,
                None,
                key_of,
                |c, p| tr.span("fleet.eval", parent, id, |_| eval(c, p)),
                &(),
            )
        })
        .map_err(|e| e.to_string())?;
    job.stop();
    let stats = store.stats().clone();
    drop(store);
    // A repair rewrites the surviving records; appends add the rest.
    let repaired = if stats.torn + stats.corrupt > 0 {
        after_open
    } else {
        0
    };
    let written = repaired + store_bytes(dir).saturating_sub(after_open);
    Ok((results, stats, before, written))
}

// ---------------------------------------------------------------------
// flood_cosim
// ---------------------------------------------------------------------

const COSIM_METRICS: &[&str] = &[
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

fn cosim_cells(s: &CosimSummary) -> Vec<Cell> {
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

const FLOOD_POINTS: usize = 16;
const FLOOD_BATCH: usize = 2;
const FLOOD_NODES: usize = 100;
const FLOOD_SLOTS: u64 = 12_000;

/// Slot-stepped co-simulation grid points on the fleet engine with no
/// store, two points per job.
struct FloodCosim {
    batches: Vec<Sweep<CosimConfig>>,
}

impl FloodCosim {
    fn setup(cx: &Ctx) -> FloodCosim {
        let batches = (0..FLOOD_POINTS / FLOOD_BATCH)
            .map(|b| {
                let mut sweep = Sweep::new("flood-cosim", COSIM_METRICS);
                for i in b * FLOOD_BATCH..(b + 1) * FLOOD_BATCH {
                    let cfg = CosimConfig {
                        nodes: FLOOD_NODES,
                        loss: 0.2,
                        seed: input_seed(cx.seed, FLOOD_POINTS, i),
                        horizon_slots: FLOOD_SLOTS,
                        ..CosimConfig::default()
                    };
                    let coords = Coords::new()
                        .with("nodes", cfg.nodes)
                        .with("loss", cfg.loss)
                        .with("seed", cfg.seed);
                    sweep.push(coords, cfg);
                }
                sweep
            })
            .collect();
        FloodCosim { batches }
    }
}

impl Workload for FloodCosim {
    fn inputs(&self) -> usize {
        self.batches.len()
    }

    fn sim_cycles(&self) -> Option<f64> {
        Some((FLOOD_BATCH * FLOOD_NODES) as f64 * FLOOD_SLOTS as f64)
    }

    fn run(&mut self, job: &mut Job) -> Result<Output, String> {
        let sweep = &self.batches[job.input];
        let (tr, id) = (job.tr, job.id);
        let results = job
            .span("fleet.sweep", |parent| {
                sweep.run(WORKERS, |_, cfg| {
                    tr.span("fleet.eval", parent, id, |_| cosim_cells(&run_cosim(cfg)))
                })
            })
            .map_err(|e| e.to_string())?;
        job.stop();

        let sent = u64_column(&results, "sent")?;
        let delivered = u64_column(&results, "delivered")?;
        let lost = u64_column(&results, "lost")?;
        let wakeups = u64_column(&results, "mcu_wakeups")?;
        for i in 0..results.rows().len() {
            // Every frame reaches each other endpoint (the other nodes and
            // the base station) exactly once, delivered or lost.
            ensure(
                delivered[i] + lost[i] == sent[i] * FLOOD_NODES as u64,
                || format!("row {i}: medium lost count of frames"),
            )?;
            ensure(sent[i] > 0 && wakeups[i] == 0, || {
                format!("row {i}: {} sent, {} µC wakeups", sent[i], wakeups[i])
            })?;
        }
        let counts = if job.tr.on() {
            vec![
                ("fleet.points", sweep.len() as f64),
                ("net.node_slots", self.sim_cycles().unwrap_or(0.0)),
            ]
        } else {
            Vec::new()
        };
        Ok(Output {
            digest: digest_csv(&results),
            counts,
        })
    }
}

// ---------------------------------------------------------------------
// dense_sweep
// ---------------------------------------------------------------------

const DENSE_NODES: usize = 10_000;
const DENSE_DENSITIES: [f64; 2] = [25.0, 400.0];
const DENSE_SEEDS: u64 = 1;
const DENSE_SLOTS: u64 = 20_000;
const DENSE_BATCH: usize = 8;

/// 64-node spatial tiles through the store into a fresh directory per
/// job: the event wheel and spatial medium at campaign scale, across
/// both contention regimes, and the store's write path.
struct DenseSweep {
    batches: Vec<Sweep<(DenseConfig, usize)>>,
    dir: PathBuf,
    /// Tile rows seen per input, for the regime check over a cycle.
    rows: Vec<Option<SweepResults>>,
}

impl DenseSweep {
    fn setup(cx: &Ctx) -> DenseSweep {
        let mut scenarios = Vec::new();
        for density in DENSE_DENSITIES {
            for s in 0..DENSE_SEEDS {
                scenarios.push(DenseConfig {
                    nodes: DENSE_NODES,
                    density_per_ha: density,
                    duty: 5_000,
                    horizon_slots: DENSE_SLOTS,
                    seed: 11 + input_seed(cx.seed, DENSE_SEEDS as usize, s as usize),
                });
            }
        }
        // Batch `b` takes every `inputs`-th tile from `b`, so each job
        // holds tiles of both densities and all jobs cost about the same.
        let full = dense_sweep(&scenarios);
        let points: Vec<_> = full.points().collect();
        let inputs = points.len().div_ceil(DENSE_BATCH);
        let batches: Vec<_> = (0..inputs)
            .map(|b| {
                let mut sweep = Sweep::new(full.name(), DENSE_METRICS);
                for (coords, point) in points.iter().skip(b).step_by(inputs) {
                    sweep.push(coords.clone(), point.clone());
                }
                sweep
            })
            .collect();
        DenseSweep {
            rows: vec![None; batches.len()],
            batches,
            dir: cx.work.join("dense-store"),
        }
    }
}

impl Workload for DenseSweep {
    fn inputs(&self) -> usize {
        self.batches.len()
    }

    fn sim_cycles(&self) -> Option<f64> {
        // Mean over the jobs of a cycle (batches hold 7 or 8 tiles, and
        // the last tile of a population is partial).
        let node_slots = (DENSE_SEEDS as usize * DENSE_DENSITIES.len() * DENSE_NODES) as f64
            * DENSE_SLOTS as f64;
        Some(node_slots / self.batches.len() as f64)
    }

    fn prepare(&mut self, _input: usize) -> Result<(), String> {
        remove_dir(&self.dir)
    }

    fn run(&mut self, job: &mut Job) -> Result<Output, String> {
        let sweep = &self.batches[job.input];
        let (results, stats, read, written) =
            stored_job(job, &self.dir, sweep, dense_store_key, dense_eval)?;

        let n = sweep.len() as u64;
        ensure(
            stats.hits == 0 && stats.misses == n && stats.appended == n,
            || format!("fresh store: {stats}"),
        )?;
        let requests = u64_column(&results, "requests")?;
        let sent = u64_column(&results, "sent")?;
        let dropped = u64_column(&results, "dropped_csma")?;
        for i in 0..requests.len() {
            ensure(requests[i] == sent[i] + dropped[i], || {
                format!("tile row {i}: requests != sent + CSMA drops")
            })?;
        }
        let mut counts = Vec::new();
        if job.tr.on() {
            counts = store_counts(&stats, read, written);
            counts.extend([
                ("fleet.points", n as f64),
                (
                    "net.events",
                    u64_column(&results, "events")?.iter().sum::<u64>() as f64,
                ),
                ("net.frames_sent", sent.iter().sum::<u64>() as f64),
            ]);
        }
        let digest = digest_csv(&results);
        self.rows[job.input].get_or_insert(results);
        Ok(Output { digest, counts })
    }

    /// Both contention regimes of the density sweep must show: dense
    /// populations saturate CCA (lower MAC acceptance), sparse ones lose
    /// frames to hidden terminals (lower delivery ratio).
    fn finish(&mut self) -> Result<(), String> {
        let (mut sparse, mut dense) = (DenseSummary::default(), DenseSummary::default());
        let sparse_density = DENSE_DENSITIES[0].to_string();
        for results in self.rows.iter().flatten() {
            for (coords, s) in aggregate(results) {
                if coords.get("density") == Some(sparse_density.as_str()) {
                    sparse.absorb(&s);
                } else {
                    dense.absorb(&s);
                }
            }
        }
        ensure(
            dense.mac_acceptance() < sparse.mac_acceptance()
                && sparse.delivery_ratio() < dense.delivery_ratio(),
            || {
                format!(
                    "contention regimes missing: acceptance {:.4}/{:.4}, delivery {:.4}/{:.4} (sparse/dense)",
                    sparse.mac_acceptance(),
                    dense.mac_acceptance(),
                    sparse.delivery_ratio(),
                    dense.delivery_ratio()
                )
            },
        )
    }
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    match fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("{}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------
// campaign_resume
// ---------------------------------------------------------------------

const CHAOS_APPS: [ChaosApp; 3] = [ChaosApp::Sample, ChaosApp::Filtered, ChaosApp::Forwarding];
const CHAOS_RATES: [f64; 4] = [0.0, 1e-4, 1e-3, 1e-2];
const CHAOS_SEEDS: u64 = 512;
const CHAOS_HORIZON: u64 = 30_000;
/// One seed in this many is missing from the interrupted campaign.
const CHAOS_GAP: u64 = 16;

/// Resume an interrupted chaos campaign: every job copies the
/// interrupted store (untimed), then opens it — repairing a torn tail —
/// and finishes the grid through the store.
struct CampaignResume {
    sweep: Sweep<ChaosConfig>,
    template: PathBuf,
    dir: PathBuf,
    missing: u64,
    resumed: Option<u64>,
    faults: AtomicU64,
}

impl CampaignResume {
    fn setup(cx: &Ctx) -> Result<CampaignResume, String> {
        let sweep = chaos::campaign(&CHAOS_APPS, &CHAOS_RATES, CHAOS_SEEDS, CHAOS_HORIZON);
        let gap = cx.seed % CHAOS_GAP;
        let mut filled = Sweep::new(sweep.name(), chaos::METRICS);
        for (coords, cfg) in sweep.points().filter(|(_, c)| c.seed % CHAOS_GAP != gap) {
            filled.push(coords.clone(), cfg.clone());
        }
        let template = cx.work.join("campaign-template");
        remove_dir(&template)?;
        let mut store = Store::open(&template).map_err(|e| format!("template store: {e}"))?;
        run_stored(
            &filled,
            &mut store,
            WORKERS,
            None,
            chaos_key,
            chaos_eval,
            &(),
        )
        .map_err(|e| e.to_string())?;
        drop(store);
        // Kill the campaign mid-append: cut the last record in half.
        let seg = template.join("seg-main.ndjson");
        let bytes = fs::read(&seg).map_err(|e| format!("{}: {e}", seg.display()))?;
        let body = &bytes[..bytes.len() - 1];
        let last = body.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        fs::write(&seg, &bytes[..last + (bytes.len() - last) / 2])
            .map_err(|e| format!("{}: {e}", seg.display()))?;
        Ok(CampaignResume {
            missing: (sweep.len() - filled.len()) as u64 + 1,
            sweep,
            template,
            dir: cx.work.join("campaign-resume"),
            resumed: None,
            faults: AtomicU64::new(0),
        })
    }
}

fn chaos_key(_: &Coords, cfg: &ChaosConfig) -> String {
    cfg.store_key()
}

fn chaos_eval(_: &Coords, cfg: &ChaosConfig) -> Vec<Cell> {
    chaos::cells(&chaos::run_chaos(cfg))
}

impl Workload for CampaignResume {
    fn inputs(&self) -> usize {
        1
    }

    fn sim_cycles(&self) -> Option<f64> {
        // Only the resumed points simulate; served points cost a lookup.
        Some(self.missing as f64 * CHAOS_HORIZON as f64)
    }

    fn prepare(&mut self, _input: usize) -> Result<(), String> {
        remove_dir(&self.dir)?;
        fs::create_dir_all(&self.dir).map_err(|e| e.to_string())?;
        for entry in fs::read_dir(&self.template).map_err(|e| e.to_string())? {
            let path = entry.map_err(|e| e.to_string())?.path();
            let to = self
                .dir
                .join(path.file_name().expect("store entries are files"));
            fs::copy(&path, &to).map_err(|e| format!("{}: {e}", to.display()))?;
        }
        Ok(())
    }

    fn run(&mut self, job: &mut Job) -> Result<Output, String> {
        let faults = &self.faults;
        let traced = job.tr.on();
        let (results, stats, read, written) =
            stored_job(job, &self.dir, &self.sweep, chaos_key, |c, cfg| {
                let cells = chaos_eval(c, cfg);
                if let (true, Cell::U64(n)) = (traced, &cells[0]) {
                    faults.fetch_add(*n, Ordering::Relaxed);
                }
                cells
            })?;

        let total = self.sweep.len() as u64;
        ensure(
            stats.torn == 1
                && stats.corrupt == 0
                && stats.misses == self.missing
                && stats.hits == total - self.missing
                && stats.appended == self.missing,
            || format!("resume: {stats}"),
        )?;
        let digest = digest_csv(&results);
        ensure(self.resumed.is_none_or(|d| d == digest), || {
            "resumed campaign differs between jobs".into()
        })?;
        self.resumed = Some(digest);
        let mut counts = Vec::new();
        if traced {
            counts = store_counts(&stats, read, written);
            counts.extend([
                ("fleet.points", stats.misses as f64),
                ("_chaos.points", stats.misses as f64),
                (
                    "chaos.faults_injected",
                    faults.swap(0, Ordering::Relaxed) as f64,
                ),
            ]);
        }
        Ok(Output { digest, counts })
    }

    /// The resumed campaign must serialize exactly as a cold run of the
    /// whole grid.
    fn finish(&mut self) -> Result<(), String> {
        let cold = self
            .sweep
            .run(WORKERS, chaos_eval)
            .map_err(|e| e.to_string())?;
        ensure(self.resumed == Some(digest_csv(&cold)), || {
            "resumed campaign CSV differs from a cold run of the grid".into()
        })
    }
}
