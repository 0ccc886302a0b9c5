//! Per-layer metrics of the traced pass, and the end-to-end metric each
//! should move. Every workload reports every metric; a layer a workload
//! does not enter reads 0. Wall-clock attribution is given as a share
//! of the traced jobs' time (`_pct`) or as a rate, so the numbers read
//! the same on a slower or faster host.

use std::collections::BTreeMap;

use crate::trace::{self_times, Span};

pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    /// The end-to-end metric, and workload, this one should move.
    pub moves: &'static str,
}

const fn m(name: &'static str, unit: &'static str, moves: &'static str) -> LayerMetric {
    LayerMetric { name, unit, moves }
}

const PAPER: &str = "jobs_per_s on paper_artifacts";
const NODE: &str = "jobs_per_s on lifetime_day and mica2_sampling";
const SKIP: &str = "jobs_per_s on lifetime_day; none on mica2_sampling";
const STEP: &str = "jobs_per_s on mica2_sampling";
const EP: &str = "jobs_per_s on lifetime_day (EP steps also drive flood_cosim)";
const FLOOD: &str = "jobs_per_s on flood_cosim";
const DENSE: &str = "jobs_per_s on dense_sweep";
const FLEET: &str = "jobs_per_s on flood_cosim and dense_sweep";
const RESUME: &str = "jobs_per_s on campaign_resume";
const STORE: &str = "jobs_per_s on campaign_resume and dense_sweep; none on flood_cosim";

pub const LAYER_METRICS: &[LayerMetric] = &[
    m("report.table4_pct", "%", PAPER),
    m("report.snap_pct", "%", PAPER),
    m("report.fig6_crosscheck_pct", "%", PAPER),
    m("report.analytic_pct", "%", PAPER),
    m("apps.build_pct", "%", NODE),
    m("sim.step_calls", "count", SKIP),
    m("sim.cycles_stepped", "count", SKIP),
    m("sim.cycles_skipped", "count", SKIP),
    m("sim.idle_skip_calls", "count", SKIP),
    m("sim.skip_ratio", "ratio", SKIP),
    m("sim.idle_skip_self_pct", "%", SKIP),
    m("sim.step_self_pct", "%", STEP),
    m("core.fde_calls", "count", EP),
    m("core.fde_self_pct", "%", EP),
    m("core.dispatch_self_pct", "%", EP),
    m("mcu8.mcycles_per_s", "Mcycles/s", STEP),
    m("mica.active_cycles", "count", STEP),
    m("mica.idle_cycles", "count", STEP),
    m("mica.powersave_cycles", "count", STEP),
    m("net.node_slots", "count", FLOOD),
    m("net.node_slots_per_busy_s", "1/s", FLOOD),
    m("net.events", "count", DENSE),
    m("net.events_per_busy_s", "1/s", DENSE),
    m("net.frames_sent", "count", DENSE),
    m("fleet.points", "count", FLEET),
    m("fleet.busy_frac", "ratio", FLEET),
    m("fleet.self_pct", "%", FLEET),
    m("chaos.points_per_busy_s", "1/s", RESUME),
    m("chaos.faults_injected", "count", RESUME),
    m("store.open_pct", "%", RESUME),
    m("store.self_pct", "%", STORE),
    m("store.records_read", "count", STORE),
    m("store.hits", "count", STORE),
    m("store.misses", "count", STORE),
    m("store.appended", "count", STORE),
    m("store.torn", "count", STORE),
    m("store.corrupt", "count", STORE),
    m("store.hit_ratio", "ratio", STORE),
    m("store.bytes_read", "B", STORE),
    m("store.bytes_written", "B", STORE),
    m(
        "trace.overhead_pct",
        "%",
        "none: the cost of tracing itself",
    ),
];

/// Everything the traced pass measured.
pub struct Traced<'a> {
    pub spans: &'a [Span],
    /// Per-job counts summed over the traced jobs.
    pub counts: &'a BTreeMap<&'static str, f64>,
    pub jobs: usize,
    /// Summed timed seconds of the traced jobs, as measured.
    pub traced_s: f64,
    /// Corrected seconds of the traced jobs over those of the same jobs
    /// run untraced just before.
    pub overhead: f64,
    pub threads: usize,
}

/// Every per-layer metric, in [`LAYER_METRICS`] order.
pub fn derive(t: &Traced) -> Vec<(&'static LayerMetric, f64)> {
    let self_ns = self_times(t.spans);
    let span_self = |name: &str| -> f64 {
        t.spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64)
            .sum()
    };
    let job_ns = t.traced_s * 1e9;
    let share = |ns: f64| {
        if job_ns > 0.0 {
            ns / job_ns * 100.0
        } else {
            0.0
        }
    };
    let sum = |name: &str| t.counts.get(name).copied().unwrap_or(0.0);
    let per_job = |name: &str| sum(name) / t.jobs.max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    // Fleet evaluations: busy time, and per job the window from the
    // first evaluation's start to the last one's end.
    let evals: Vec<&Span> = t.spans.iter().filter(|s| s.name == "fleet.eval").collect();
    let busy_s = evals.iter().map(|s| s.dur() as f64).sum::<f64>() / 1e9;
    let mut windows: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for s in &evals {
        let w = windows.entry(s.job).or_insert((u64::MAX, 0));
        *w = (w.0.min(s.start), w.1.max(s.end));
    }
    let window_s = windows.values().map(|(a, b)| (b - a) as f64).sum::<f64>() / 1e9;
    let stepped = per_job("sim.cycles_stepped");
    let skipped = per_job("sim.cycles_skipped");
    let hits = per_job("store.hits");

    LAYER_METRICS
        .iter()
        .map(|lm| {
            let v = match lm.name {
                "report.table4_pct" => share(span_self("report.table4")),
                "report.snap_pct" => share(span_self("report.snap")),
                "report.fig6_crosscheck_pct" => share(span_self("report.fig6_crosscheck")),
                "report.analytic_pct" => share(span_self("report.analytic")),
                "apps.build_pct" => share(span_self("apps.build")),
                "sim.skip_ratio" => ratio(skipped, stepped + skipped),
                "sim.idle_skip_self_pct" => share(sum("_ns.engine.idle_skip")),
                "sim.step_self_pct" => share(sum("_ns.engine.step")),
                "core.fde_self_pct" => share(sum("_ns.sys.fde")),
                "core.dispatch_self_pct" => share(sum("_ns.sys.dispatch")),
                "mcu8.mcycles_per_s" => ratio(sum("_mcu8.cycles"), sum("_ns.engine.step")) * 1e3,
                "net.node_slots_per_busy_s" => ratio(sum("net.node_slots"), busy_s),
                "net.events_per_busy_s" => ratio(sum("net.events"), busy_s),
                "fleet.busy_frac" => ratio(busy_s, t.threads as f64 * window_s),
                "fleet.self_pct" => share(span_self("fleet.sweep")),
                "chaos.points_per_busy_s" => ratio(sum("_chaos.points"), busy_s),
                "store.open_pct" => share(span_self("store.open")),
                "store.self_pct" => share(span_self("store.run_stored")),
                "store.hit_ratio" => ratio(hits, hits + per_job("store.misses")),
                "trace.overhead_pct" => (t.overhead - 1.0) * 100.0,
                name => per_job(name),
            };
            (lm, v)
        })
        .collect()
}
