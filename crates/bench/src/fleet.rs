//! Deterministic parallel sweep engine.
//!
//! The paper's evaluation is a grid of *independent* simulator runs —
//! the Figure 6 duty-cycle sweep, the Table 4/5 event pairs, the
//! multi-node lossy co-simulations — and every one of them used to run
//! serially on one core. This module turns such a grid into a
//! [`Sweep`]: a named list of scenario points (each a [`Coords`] tuple
//! of `axis=value` pairs plus an opaque payload), executed by a
//! self-balancing worker pool built on [`std::thread::scope`] — zero
//! external dependencies, per the workspace's offline constraint.
//!
//! # Determinism contract
//!
//! Workers pull points from a shared atomic queue in whatever order the
//! scheduler allows, but results are **merged back in grid order**, so
//! the serialized [`SweepResults`] ([`to_csv`](SweepResults::to_csv) /
//! [`to_json`](SweepResults::to_json)) are byte-identical regardless of
//! thread count. `ULP_FLEET_THREADS=1` and `=N` must — and are
//! golden-checked to — produce the same bytes, provided the per-point
//! closure is a pure function of its coordinates and payload (which
//! every simulator in this workspace is: see `tests/determinism.rs`).
//!
//! A panicking point does not poison the sweep: the remaining points
//! still run, and the engine reports *which* grid point failed, with
//! its full scenario coordinates, in [`FleetError`].
//!
//! # Example
//!
//! ```
//! use ulp_bench::fleet::{Cell, Coords, Sweep};
//!
//! let mut sweep = Sweep::new("squares", &["square"]);
//! for n in 0..8u64 {
//!     sweep.push(Coords::new().with("n", n), n);
//! }
//! let serial = sweep.run(1, |_, &n| vec![Cell::U64(n * n)]).unwrap();
//! let parallel = sweep.run(4, |_, &n| vec![Cell::U64(n * n)]).unwrap();
//! assert_eq!(serial.to_csv(), parallel.to_csv()); // grid-order merge
//! assert!(serial.to_csv().starts_with("n,square\n0,0\n1,1\n"));
//! ```

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use ulp_sim::perf::PerfSnapshot;
use ulp_testkit::json;

/// Number of worker threads a sweep should use: `ULP_FLEET_THREADS` if
/// set to a positive integer, otherwise [`std::thread::available_parallelism`]
/// (falling back to 1 where that is unavailable).
pub fn fleet_threads() -> usize {
    if let Ok(v) = std::env::var("ULP_FLEET_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The coordinates of one scenario point: an ordered list of
/// `axis = value` pairs (app × duty × seed × node-count × loss-rate ×
/// …). Ordering is significant — it defines the CSV/JSON column order
/// and the grid order results are merged in.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Coords {
    pairs: Vec<(String, String)>,
}

impl Coords {
    /// An empty coordinate tuple.
    pub fn new() -> Coords {
        Coords::default()
    }

    /// Append one `axis = value` coordinate (builder style).
    pub fn with(mut self, axis: &str, value: impl fmt::Display) -> Coords {
        self.pairs.push((axis.to_string(), value.to_string()));
        self
    }

    /// The axis names, in order.
    pub fn axes(&self) -> impl Iterator<Item = &str> + '_ {
        self.pairs.iter().map(|(a, _)| a.as_str())
    }

    /// The values, in axis order.
    pub fn values(&self) -> impl Iterator<Item = &str> + '_ {
        self.pairs.iter().map(|(_, v)| v.as_str())
    }

    /// The value of a named axis, if present.
    pub fn get(&self, axis: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(a, _)| a == axis)
            .map(|(_, v)| v.as_str())
    }
}

impl fmt::Display for Coords {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (a, v)) in self.pairs.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{a}={v}")?;
        }
        Ok(())
    }
}

/// One result cell. Numeric cells serialize as JSON numbers; text
/// cells are CSV-quoted / JSON-escaped as needed.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// An exact integer (cycle counts, packet counts, …).
    U64(u64),
    /// A measured floating-point quantity (energy, power, ratios).
    /// Must be finite — the engine rejects NaN/infinity so the JSON
    /// export stays well-formed.
    F64(f64),
    /// Free text.
    Text(String),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::U64(n) => write!(f, "{n}"),
            // `{}` on f64 is Rust's shortest-roundtrip formatting:
            // deterministic across platforms, exact on re-parse.
            Cell::F64(x) => write!(f, "{x}"),
            Cell::Text(s) => f.write_str(s),
        }
    }
}

/// A point that panicked, with its scenario coordinates and the panic
/// message.
#[derive(Debug, Clone)]
pub struct PointFailure {
    /// Zero-based index of the point in grid order.
    pub index: usize,
    /// The point's full scenario coordinates.
    pub coords: Coords,
    /// The panic payload, stringified.
    pub message: String,
}

/// One or more grid points panicked. Every *other* point still ran;
/// the error lists each failing point with its coordinates so a
/// thousand-point sweep pinpoints the bad scenario immediately.
#[derive(Debug, Clone)]
pub struct FleetError {
    /// Name of the sweep that failed.
    pub sweep: String,
    /// Every failing point, in grid order.
    pub failures: Vec<PointFailure>,
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sweep `{}`: {} of its grid points failed:",
            self.sweep,
            self.failures.len()
        )?;
        for p in &self.failures {
            writeln!(f, "  point #{} [{}]: {}", p.index, p.coords, p.message)?;
        }
        Ok(())
    }
}

impl std::error::Error for FleetError {}

/// Observer of sweep progress. [`Sweep::run_observed`] calls
/// [`point_done`](SweepObserver::point_done) after each grid point
/// completes — from whichever worker thread ran the point, in
/// completion (not grid) order — so a progress meter can stream
/// heartbeats while the grid drains. Observers must not affect the
/// results: they see indices and coordinates, never cells.
pub trait SweepObserver: Sync {
    /// One grid point finished (successfully or not).
    fn point_done(&self, index: usize, coords: &Coords);
}

/// The no-op observer [`Sweep::run`] uses: observing nothing costs
/// nothing.
impl SweepObserver for () {
    fn point_done(&self, _index: usize, _coords: &Coords) {}
}

/// A grid of scenario points awaiting execution. `P` is the opaque
/// per-point payload handed to the worker closure (alongside the
/// point's [`Coords`]).
#[derive(Debug, Clone)]
pub struct Sweep<P> {
    name: String,
    metric_columns: Vec<String>,
    points: Vec<(Coords, P)>,
}

impl<P: Sync> Sweep<P> {
    /// A new, empty sweep. `metric_columns` names the cells every
    /// point's closure must return, in order; the coordinate axes are
    /// prepended automatically when results are serialized.
    pub fn new(name: &str, metric_columns: &[&str]) -> Sweep<P> {
        Sweep {
            name: name.to_string(),
            metric_columns: metric_columns.iter().map(|s| s.to_string()).collect(),
            points: Vec::new(),
        }
    }

    /// Append a scenario point. Every point must use the same axis
    /// names in the same order.
    ///
    /// # Panics
    ///
    /// Panics if `coords` disagrees with the axes of the first point —
    /// a bug in the sweep definition, not in a scenario.
    pub fn push(&mut self, coords: Coords, payload: P) {
        if let Some((first, _)) = self.points.first() {
            assert!(
                coords.axes().eq(first.axes()),
                "sweep `{}`: point [{coords}] disagrees with the grid axes {:?}",
                self.name,
                first.axes().collect::<Vec<_>>()
            );
        }
        self.points.push((coords, payload));
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the sweep has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The sweep's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The points, in grid order.
    pub fn points(&self) -> impl Iterator<Item = &(Coords, P)> + '_ {
        self.points.iter()
    }

    /// The metric column names (without the coordinate axes), for the
    /// store's cache-aware execution path.
    pub(crate) fn metric_columns(&self) -> &[String] {
        &self.metric_columns
    }

    /// Execute every point on `threads` workers and merge the results
    /// in grid order. The closure must be a pure function of its
    /// arguments for the determinism contract to hold, and must return
    /// exactly one [`Cell`] per metric column.
    ///
    /// Panics *inside* the closure are caught per point and surfaced
    /// as a [`FleetError`] naming the failing coordinates; the other
    /// points still complete.
    ///
    /// # Panics
    ///
    /// Panics on malformed results (wrong cell count from the closure,
    /// non-finite [`Cell::F64`]) — those are bugs in the sweep
    /// definition, not in a scenario.
    pub fn run<F>(&self, threads: usize, f: F) -> Result<SweepResults, FleetError>
    where
        F: Fn(&Coords, &P) -> Vec<Cell> + Sync,
    {
        self.run_observed(threads, f, &())
    }

    /// [`run`](Sweep::run) with a progress [`SweepObserver`]. The
    /// observer is notified after each point completes; it cannot
    /// influence execution or results, so the serialized output stays
    /// byte-identical with and without one (golden-checked by the
    /// no-observer-effect tests).
    pub fn run_observed<F>(
        &self,
        threads: usize,
        f: F,
        observer: &(impl SweepObserver + ?Sized),
    ) -> Result<SweepResults, FleetError>
    where
        F: Fn(&Coords, &P) -> Vec<Cell> + Sync,
    {
        let started = Instant::now();
        let all: Vec<usize> = (0..self.points.len()).collect();
        let done = self.execute(&all, threads, f, observer)?;
        Ok(self.assemble(done, threads, started))
    }

    /// The one point executor, behind [`run_observed`](Sweep::run_observed)
    /// and the store's cache-aware runs: evaluate the grid points at
    /// `indices` on up to `threads` workers and return each one's grid
    /// index and cells, in `indices` order. Failures and observer
    /// callbacks carry grid indices.
    ///
    /// # Panics
    ///
    /// Panics on the malformed results [`run`](Sweep::run) panics on.
    pub(crate) fn execute<F>(
        &self,
        indices: &[usize],
        threads: usize,
        f: F,
        observer: &(impl SweepObserver + ?Sized),
    ) -> Result<Vec<(usize, Vec<Cell>)>, FleetError>
    where
        F: Fn(&Coords, &P) -> Vec<Cell> + Sync,
    {
        /// One point's outcome: its metric cells, or the panic message
        /// of a failed evaluation.
        type Slot = Option<Result<Vec<Cell>, String>>;

        let n = indices.len();
        let threads = threads.clamp(1, n.max(1));
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Slot>> = Mutex::new(vec![None; n]);

        std::thread::scope(|scope| {
            let worker = || {
                // Self-balancing work queue: each worker claims the next
                // unclaimed point until the list is drained, so a slow
                // point never stalls the rest of the grid behind a
                // static partition.
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&i) = indices.get(k) else { break };
                    let (coords, payload) = &self.points[i];
                    let outcome = catch_unwind(AssertUnwindSafe(|| f(coords, payload)))
                        .map_err(|panic| panic_message(&*panic));
                    slots.lock().unwrap()[k] = Some(outcome);
                    observer.point_done(i, coords);
                }
            };
            // The current thread is worker 0; spawn the other N-1.
            let handles: Vec<_> = (1..threads).map(|_| scope.spawn(worker)).collect();
            worker();
            for h in handles {
                // Workers cannot panic: every point is unwind-caught and
                // the closure's result is moved, not shared.
                h.join().expect("fleet worker must not panic");
            }
        });

        let mut done = Vec::with_capacity(n);
        let mut failures = Vec::new();
        for (&i, slot) in indices.iter().zip(slots.into_inner().unwrap()) {
            let coords = &self.points[i].0;
            match slot.expect("every point was claimed exactly once") {
                Ok(cells) => {
                    assert_eq!(
                        cells.len(),
                        self.metric_columns.len(),
                        "sweep `{}`: point [{coords}] returned {} cells for {} metric columns",
                        self.name,
                        cells.len(),
                        self.metric_columns.len()
                    );
                    for (cell, col) in cells.iter().zip(&self.metric_columns) {
                        if let Cell::F64(x) = cell {
                            assert!(
                                x.is_finite(),
                                "sweep `{}`: point [{coords}] metric `{col}` is not finite ({x})",
                                self.name
                            );
                        }
                    }
                    done.push((i, cells));
                }
                Err(message) => failures.push(PointFailure {
                    index: i,
                    coords: coords.clone(),
                    message,
                }),
            }
        }
        if failures.is_empty() {
            Ok(done)
        } else {
            Err(FleetError {
                sweep: self.name.clone(),
                failures,
            })
        }
    }

    /// The one result assembler: merge `(grid index, cells)` points —
    /// computed by [`execute`](Sweep::execute) or served from a store,
    /// in any order — into grid-order rows, each prefixed with its
    /// coordinates. The axis columns come from the first point, so an
    /// empty selection serializes the metric columns alone.
    pub(crate) fn assemble(
        &self,
        mut done: Vec<(usize, Vec<Cell>)>,
        threads: usize,
        started: Instant,
    ) -> SweepResults {
        done.sort_unstable_by_key(|&(i, _)| i);
        let mut columns: Vec<String> = done
            .first()
            .map(|&(i, _)| self.points[i].0.axes().map(str::to_string).collect())
            .unwrap_or_default();
        columns.extend(self.metric_columns.iter().cloned());
        let threads = threads.clamp(1, done.len().max(1));
        let rows = done
            .into_iter()
            .map(|(i, cells)| {
                let coords = &self.points[i].0;
                let mut row = Vec::with_capacity(coords.pairs.len() + cells.len());
                row.extend(coords.values().map(|v| Cell::Text(v.to_string())));
                row.extend(cells);
                row
            })
            .collect();
        SweepResults {
            name: self.name.clone(),
            columns,
            rows,
            threads,
            elapsed: started.elapsed(),
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The machine-readable result store of one sweep execution: one row
/// per grid point, in grid order, each row = coordinate values followed
/// by metric cells. Wall-clock metadata ([`elapsed`](SweepResults::elapsed),
/// [`threads`](SweepResults::threads)) is deliberately **not** part of
/// the serialized output, so the bytes stay thread-count-invariant.
#[derive(Debug, Clone)]
pub struct SweepResults {
    name: String,
    columns: Vec<String>,
    rows: Vec<Vec<Cell>>,
    threads: usize,
    elapsed: Duration,
}

impl SweepResults {
    /// The sweep's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column names: coordinate axes first, then metric columns.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The result rows, in grid order.
    pub fn rows(&self) -> &[Vec<Cell>] {
        &self.rows
    }

    /// How many worker threads the execution actually used.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Wall-clock time of the execution (not serialized).
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// The execution's wall-clock as one line for stderr: points,
    /// seconds and workers (never part of a deterministic artifact).
    pub fn wall_clock(&self) -> String {
        format!(
            "{} `{}` points in {:.3} s on {} worker(s)",
            self.rows.len(),
            self.name,
            self.elapsed.as_secs_f64(),
            self.threads
        )
    }

    /// The execution as a host [`PerfSnapshot`]: the grid size under a
    /// `fleet.points` counter against the run's wall-clock. Every
    /// points/sec figure in the workspace (speedup reports, `--progress`
    /// heartbeats) derives from this snapshot's
    /// [`rate`](PerfSnapshot::rate), which yields `None` instead of a
    /// non-finite value — one code path, no ad-hoc wall-clock division.
    pub fn perf(&self) -> PerfSnapshot {
        PerfSnapshot::from_host(
            self.elapsed,
            vec![("fleet.points".to_string(), self.rows.len() as u64)],
        )
    }

    /// One metric cell, addressed by row index and column name.
    pub fn cell(&self, row: usize, column: &str) -> Option<&Cell> {
        let c = self.columns.iter().position(|c| c == column)?;
        self.rows.get(row)?.get(c)
    }

    /// Deterministic CSV serialization (header + one line per grid
    /// point; RFC-4180 quoting for cells containing `, " \n`).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let header: Vec<String> = self.columns.iter().map(|c| csv_escape(c)).collect();
        out.push_str(&header.join(","));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|c| csv_escape(&c.to_string())).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Deterministic JSON serialization, validated in tests by the
    /// in-tree reader (`ulp_testkit::json::parse`):
    ///
    /// ```json
    /// {"sweep": "...", "columns": ["..."], "rows": [["...", 1, 2.5]]}
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"sweep\":");
        json::write_str(&mut out, &self.name);
        out.push_str(",\"columns\":[");
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, c);
        }
        out.push_str("],\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, cell) in row.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                match cell {
                    Cell::U64(n) => out.push_str(&n.to_string()),
                    Cell::F64(x) => out.push_str(&x.to_string()),
                    Cell::Text(s) => json::write_str(&mut out, s),
                }
            }
            out.push(']');
        }
        out.push_str("]}");
        out
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Host-perf comparison of a serial and a parallel execution of the
/// same sweep, produced by [`measure_speedup`]. Both sides are
/// [`PerfSnapshot`]s carrying a `fleet.points` counter, so wall-clock
/// *and* points/sec come from the perf layer's single
/// [`rate`](PerfSnapshot::rate) code path.
#[derive(Debug, Clone)]
pub struct SpeedupReport {
    /// Host perf of the one-worker run.
    pub serial: PerfSnapshot,
    /// Host perf of the `threads`-worker run.
    pub parallel: PerfSnapshot,
    /// Worker count of the parallel run.
    pub threads: usize,
}

impl SpeedupReport {
    /// `serial / parallel` — ≥ 2× expected on ≥ 4 cores for
    /// simulation-bound sweeps; ≈ 1× on a single-core host.
    pub fn speedup(&self) -> f64 {
        self.serial.wall.as_secs_f64() / self.parallel.wall.as_secs_f64().max(1e-9)
    }
}

impl fmt::Display for SpeedupReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Rates are omitted (not rendered as NaN/Inf) when a run was too
        // fast for the clock — `rate()` already polices that.
        let pps = |snap: &PerfSnapshot| match snap.rate("fleet.points") {
            Some(r) => format!("{r:.1} points/s"),
            None => "points/s n/a".to_string(),
        };
        write!(
            f,
            "serial {:.3} s ({}) vs {} threads {:.3} s ({}): {:.2}x speedup",
            self.serial.wall.as_secs_f64(),
            pps(&self.serial),
            self.threads,
            self.parallel.wall.as_secs_f64(),
            pps(&self.parallel),
            self.speedup()
        )
    }
}

/// Run `sweep` once serially and once on `threads` workers, assert the
/// serialized results are byte-identical (the determinism contract),
/// and return the parallel results plus the wall-clock comparison. The
/// progress `observer` sees both executions (`2 × len` callbacks total,
/// serial first); pass `&()` for none.
pub fn measure_speedup<P: Sync, F>(
    sweep: &Sweep<P>,
    threads: usize,
    f: F,
    observer: &(impl SweepObserver + ?Sized),
) -> Result<(SweepResults, SpeedupReport), FleetError>
where
    F: Fn(&Coords, &P) -> Vec<Cell> + Sync,
{
    let serial = sweep.run_observed(1, &f, observer)?;
    let parallel = sweep.run_observed(threads, &f, observer)?;
    assert_eq!(
        serial.to_csv(),
        parallel.to_csv(),
        "sweep `{}`: parallel execution changed the output bytes",
        sweep.name()
    );
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "sweep `{}`: parallel execution changed the JSON bytes",
        sweep.name()
    );
    let report = SpeedupReport {
        serial: serial.perf(),
        parallel: parallel.perf(),
        threads: parallel.threads(),
    };
    Ok((parallel, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(n: u64) -> Sweep<u64> {
        let mut s = Sweep::new("squares", &["square", "half"]);
        for i in 0..n {
            s.push(Coords::new().with("i", i), i);
        }
        s
    }

    fn eval(_: &Coords, &i: &u64) -> Vec<Cell> {
        vec![Cell::U64(i * i), Cell::F64(i as f64 / 2.0)]
    }

    #[test]
    fn serial_and_parallel_bytes_match() {
        let sweep = squares(23);
        let a = sweep.run(1, eval).unwrap();
        for threads in [2, 3, 8, 64] {
            let b = sweep.run(threads, eval).unwrap();
            assert_eq!(a.to_csv(), b.to_csv(), "{threads} threads");
            assert_eq!(a.to_json(), b.to_json(), "{threads} threads");
        }
        assert!(a.to_csv().starts_with("i,square,half\n0,0,0\n1,1,0.5\n"));
    }

    #[test]
    fn empty_sweep_serializes_header_only() {
        let sweep = squares(0);
        let r = sweep.run(4, eval).unwrap();
        assert_eq!(r.to_csv(), "square,half\n"); // no points ⇒ no axes
        assert_eq!(
            r.to_json(),
            "{\"sweep\":\"squares\",\"columns\":[\"square\",\"half\"],\"rows\":[]}"
        );
    }

    #[test]
    fn panicking_point_reports_its_coordinates() {
        let mut sweep = Sweep::new("lossy", &["v"]);
        for nodes in [4u64, 8] {
            for seed in 0..3u64 {
                sweep.push(
                    Coords::new().with("nodes", nodes).with("seed", seed),
                    (nodes, seed),
                );
            }
        }
        let err = sweep
            .run(2, |_, &(nodes, seed)| {
                assert!(!(nodes == 8 && seed == 1), "channel diverged");
                vec![Cell::U64(nodes + seed)]
            })
            .unwrap_err();
        assert_eq!(err.failures.len(), 1);
        let failure = &err.failures[0];
        assert_eq!(failure.coords.get("nodes"), Some("8"));
        assert_eq!(failure.coords.get("seed"), Some("1"));
        assert_eq!(failure.index, 4);
        let rendered = err.to_string();
        assert!(rendered.contains("nodes=8 seed=1"), "{rendered}");
        assert!(rendered.contains("channel diverged"), "{rendered}");
    }

    #[test]
    fn csv_and_json_escape_hostile_text() {
        let mut sweep = Sweep::new("esc", &["note"]);
        sweep.push(Coords::new().with("k", "a,b"), ());
        let r = sweep
            .run(1, |_, _| vec![Cell::Text("say \"hi\"\nline2".into())])
            .unwrap();
        assert_eq!(r.to_csv(), "k,note\n\"a,b\",\"say \"\"hi\"\"\nline2\"\n");
        assert!(r.to_json().contains("say \\\"hi\\\"\\nline2"));
    }

    #[test]
    fn fleet_threads_is_at_least_one() {
        assert!(fleet_threads() >= 1);
    }

    #[test]
    fn observer_sees_every_point_without_changing_bytes() {
        struct Counting(Mutex<Vec<usize>>);
        impl SweepObserver for Counting {
            fn point_done(&self, index: usize, _coords: &Coords) {
                self.0.lock().unwrap().push(index);
            }
        }
        let sweep = squares(17);
        let plain = sweep.run(3, eval).unwrap();
        let obs = Counting(Mutex::new(Vec::new()));
        let observed = sweep.run_observed(3, eval, &obs).unwrap();
        assert_eq!(plain.to_csv(), observed.to_csv());
        assert_eq!(plain.to_json(), observed.to_json());
        let mut seen = obs.0.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..17).collect::<Vec<_>>(), "each point exactly once");
    }

    #[test]
    fn perf_routes_points_per_sec_through_one_code_path() {
        let sweep = squares(9);
        let r = sweep.run(2, eval).unwrap();
        let perf = r.perf();
        assert_eq!(perf.counter("fleet.points"), Some(9));
        if let Some(rate) = perf.rate("fleet.points") {
            assert!(rate.is_finite());
        }
        let (_, speedup) = measure_speedup(&sweep, 2, eval, &()).unwrap();
        assert_eq!(speedup.serial.counter("fleet.points"), Some(9));
        assert_eq!(speedup.parallel.counter("fleet.points"), Some(9));
        assert!(speedup.speedup() > 0.0);
        let shown = speedup.to_string();
        assert!(shown.contains("speedup"), "{shown}");
        assert!(!shown.contains("NaN") && !shown.contains("inf"), "{shown}");
    }

    #[test]
    #[should_panic(expected = "disagrees with the grid axes")]
    fn mismatched_axes_are_rejected() {
        let mut sweep = Sweep::new("bad", &["v"]);
        sweep.push(Coords::new().with("a", 1), ());
        sweep.push(Coords::new().with("b", 2), ());
        let _ = sweep.run(1, |_, _| vec![Cell::U64(0)]);
    }

    #[test]
    #[should_panic(expected = "is not finite")]
    fn non_finite_metrics_are_rejected() {
        let mut sweep = Sweep::new("nan", &["v"]);
        sweep.push(Coords::new().with("a", 1), ());
        let _ = sweep.run(1, |_, _| vec![Cell::F64(f64::NAN)]);
    }
}
