//! A plain `std::time::Instant` micro-benchmark harness: the
//! network-free stand-in for Criterion.
//!
//! `ulp-bench`'s bench targets (`cargo bench`) use this harness. It
//! auto-scales the iteration count to a small wall-clock budget, reports
//! best/median per-iteration times and optional throughput, and
//! understands the harness arguments Cargo passes: `cargo bench` invokes
//! the binary with `--bench` (measure), while `cargo test --benches`
//! passes nothing (or `--test`), in which case every benchmark runs
//! exactly once so the test sweep stays fast and hermetic — the same
//! protocol Criterion speaks.
//!
//! Environment knobs:
//!
//! * `ULP_BENCH_BUDGET_MS` — per-benchmark measurement budget
//!   (default 300 ms).
//! * `ULP_BENCH_DIR` — when set, [`Harness::finish`] writes the run's
//!   measurements to `$ULP_BENCH_DIR/BENCH_<name>.json` (the checked-in
//!   `BENCH_*.json` baselines at the repository root are produced this
//!   way). In test mode each benchmark still runs exactly once, and the
//!   single run's timing is recorded so smoke runs emit a schema-valid
//!   file too.

use std::time::{Duration, Instant};

/// Re-export of the standard optimization barrier, mirroring
/// `criterion::black_box` call sites.
pub use std::hint::black_box;

/// Throughput annotation for a benchmark.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// The benchmark processes this many abstract elements per iteration.
    Elements(u64),
    /// The benchmark processes this many bytes per iteration.
    Bytes(u64),
}

/// One measured benchmark row.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Full benchmark id (`group/name`).
    pub id: String,
    /// Iterations per sample batch.
    pub iters_per_sample: u64,
    /// Best observed per-iteration time.
    pub best: Duration,
    /// Median observed per-iteration time.
    pub median: Duration,
    /// Optional throughput annotation.
    pub throughput: Option<Throughput>,
}

impl Measurement {
    fn rate(&self) -> Option<String> {
        let per_iter = self.median.as_secs_f64();
        if per_iter <= 0.0 {
            return None;
        }
        match self.throughput? {
            Throughput::Elements(n) => Some(format!("{:.3e} elem/s", n as f64 / per_iter)),
            Throughput::Bytes(n) => Some(format!("{:.3e} B/s", n as f64 / per_iter)),
        }
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// The harness: collects benchmarks, runs those matching the CLI filter,
/// prints a table on [`finish`](Harness::finish).
#[derive(Debug)]
pub struct Harness {
    name: &'static str,
    test_mode: bool,
    filters: Vec<String>,
    budget: Duration,
    results: Vec<Measurement>,
    group: Option<String>,
    throughput: Option<Throughput>,
}

impl Harness {
    /// A harness configured from `std::env::args` (Cargo's bench-harness
    /// protocol: `cargo bench` passes `--bench` → measure; anything else,
    /// including `cargo test --benches` (no flag) or an explicit
    /// `--test`, runs each benchmark once. Other flags are ignored and
    /// positional args become substring filters).
    pub fn from_args(name: &'static str) -> Harness {
        let mut bench_mode = false;
        let mut test_mode = false;
        let mut filters = Vec::new();
        for arg in std::env::args().skip(1) {
            if arg == "--bench" {
                bench_mode = true;
            } else if arg == "--test" {
                test_mode = true;
            } else if !arg.starts_with('-') {
                filters.push(arg);
            }
        }
        let test_mode = test_mode || !bench_mode;
        let budget_ms = std::env::var("ULP_BENCH_BUDGET_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(300);
        Harness {
            name,
            test_mode,
            filters,
            budget: Duration::from_millis(budget_ms),
            results: Vec::new(),
            group: None,
            throughput: None,
        }
    }

    /// Start a named group; subsequent ids are prefixed `group/`.
    pub fn group(&mut self, name: &str) -> &mut Harness {
        self.group = Some(name.to_string());
        self.throughput = None;
        self
    }

    /// Annotate subsequent benchmarks in this group with a throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Harness {
        self.throughput = Some(t);
        self
    }

    fn full_id(&self, id: &str) -> String {
        match &self.group {
            Some(g) => format!("{g}/{id}"),
            None => id.to_string(),
        }
    }

    fn selected(&self, full_id: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| full_id.contains(f.as_str()))
    }

    /// Measure `f`, which should return a value the optimizer must keep
    /// (pass it through — the harness black-boxes it).
    pub fn bench<T>(&mut self, id: &str, mut f: impl FnMut() -> T) -> &mut Harness {
        let full = self.full_id(id);
        if !self.selected(&full) {
            return self;
        }
        if self.test_mode {
            // One run, but still timed: smoke runs (`cargo test --benches`)
            // record an iters=1 measurement so `ULP_BENCH_DIR` emission
            // produces a schema-valid file without paying measure-mode
            // wall-clock. Never use test-mode numbers as baselines.
            let t0 = Instant::now();
            black_box(f());
            let once = t0.elapsed();
            self.results.push(Measurement {
                id: full.clone(),
                iters_per_sample: 1,
                best: once,
                median: once,
                throughput: self.throughput,
            });
            println!("test {full} ... ok");
            return self;
        }
        // Warm up and size the batch so one sample costs ~budget/16.
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let target_sample = (self.budget / 16).max(Duration::from_micros(100));
        let iters = (target_sample.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;

        let deadline = Instant::now() + self.budget;
        let mut samples: Vec<Duration> = Vec::new();
        while Instant::now() < deadline || samples.len() < 3 {
            let s = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            samples.push(s.elapsed() / iters as u32);
            if samples.len() >= 256 {
                break;
            }
        }
        samples.sort_unstable();
        let m = Measurement {
            id: full,
            iters_per_sample: iters,
            best: samples[0],
            median: samples[samples.len() / 2],
            throughput: self.throughput,
        };
        let rate = m.rate().map(|r| format!("  ({r})")).unwrap_or_default();
        println!(
            "{:<44} best {:>10}  median {:>10}{}",
            m.id,
            fmt_duration(m.best),
            fmt_duration(m.median),
            rate
        );
        self.results.push(m);
        self
    }

    /// All measurements so far.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// The run's measurements as one JSON document:
    ///
    /// ```json
    /// {"bench":"simulator","mode":"measure","results":[
    ///   {"id":"g/work","iters_per_sample":8,"best_ns":120,"median_ns":140,
    ///    "throughput":{"elements":100}}]}
    /// ```
    ///
    /// Timings are integral nanoseconds, so the document never contains
    /// NaN/Infinity; downstream consumers re-validate it with the
    /// in-tree `validate_json` (this crate keeps zero dependencies).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let mode = if self.test_mode { "test" } else { "measure" };
        let mut out = format!("{{\"bench\":\"{}\",\"mode\":\"{mode}\",\"results\":[", self.name);
        for (i, m) in self.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":\"{}\",\"iters_per_sample\":{},\"best_ns\":{},\"median_ns\":{}",
                esc(&m.id),
                m.iters_per_sample,
                m.best.as_nanos(),
                m.median.as_nanos()
            ));
            match m.throughput {
                Some(Throughput::Elements(n)) => {
                    out.push_str(&format!(",\"throughput\":{{\"elements\":{n}}}"))
                }
                Some(Throughput::Bytes(n)) => {
                    out.push_str(&format!(",\"throughput\":{{\"bytes\":{n}}}"))
                }
                None => {}
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Print the trailer and, when `ULP_BENCH_DIR` is set, write the
    /// run's measurements to `$ULP_BENCH_DIR/BENCH_<name>.json`. Call at
    /// the end of `main`.
    pub fn finish(&mut self) {
        if self.test_mode {
            println!("\n{}: all benchmarks ran once (test mode)", self.name);
        } else {
            println!(
                "\n{}: {} benchmarks measured with the in-tree Instant harness",
                self.name,
                self.results.len()
            );
        }
        if let Ok(dir) = std::env::var("ULP_BENCH_DIR") {
            if !dir.is_empty() {
                let path = std::path::Path::new(&dir).join(format!("BENCH_{}.json", self.name));
                match std::fs::write(&path, self.to_json()) {
                    Ok(()) => println!("wrote {}", path.display()),
                    Err(e) => eprintln!("ULP_BENCH_DIR: cannot write {}: {e}", path.display()),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_harness() -> Harness {
        Harness {
            name: "test",
            test_mode: false,
            filters: Vec::new(),
            budget: Duration::from_millis(5),
            results: Vec::new(),
            group: None,
            throughput: None,
        }
    }

    #[test]
    fn measures_and_groups() {
        let mut h = quiet_harness();
        h.group("g")
            .throughput(Throughput::Elements(100))
            .bench("work", || {
                let mut acc = 0u64;
                for i in 0..100u64 {
                    acc = acc.wrapping_add(black_box(i));
                }
                acc
            });
        assert_eq!(h.results().len(), 1);
        let m = &h.results()[0];
        assert_eq!(m.id, "g/work");
        assert!(m.best <= m.median);
        assert!(m.rate().is_some());
    }

    #[test]
    fn filters_skip_unmatched() {
        let mut h = quiet_harness();
        h.filters = vec!["only_this".to_string()];
        h.bench("something_else", || 1u32);
        assert!(h.results().is_empty());
        h.bench("only_this_one", || 1u32);
        assert_eq!(h.results().len(), 1);
    }

    #[test]
    fn test_mode_runs_once_and_records_a_single_timing() {
        let mut h = quiet_harness();
        h.test_mode = true;
        let mut calls = 0u32;
        h.bench("once", || calls += 1);
        assert_eq!(calls, 1, "test mode must not re-run the closure");
        assert_eq!(h.results().len(), 1);
        let m = &h.results()[0];
        assert_eq!(m.iters_per_sample, 1);
        assert_eq!(m.best, m.median);
        h.finish();
    }

    #[test]
    fn json_export_has_the_bench_schema() {
        let mut h = quiet_harness();
        h.test_mode = true;
        h.group("g")
            .throughput(Throughput::Elements(42))
            .bench("wo\"rk", || 7u32);
        let json = h.to_json();
        assert!(json.starts_with("{\"bench\":\"test\",\"mode\":\"test\",\"results\":["));
        assert!(json.contains("\"id\":\"g/wo\\\"rk\""));
        assert!(json.contains("\"iters_per_sample\":1"));
        assert!(json.contains("\"best_ns\":"));
        assert!(json.contains("\"median_ns\":"));
        assert!(json.contains("\"throughput\":{\"elements\":42}"));
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(10)), "10 ns");
        assert!(fmt_duration(Duration::from_micros(15)).contains("µs"));
        assert!(fmt_duration(Duration::from_millis(15)).contains("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with(" s"));
    }
}
