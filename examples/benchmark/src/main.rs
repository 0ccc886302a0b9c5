//! End-to-end benchmark of the ulp-node simulator.
//!
//! ```text
//! cargo run --release --manifest-path examples/benchmark/Cargo.toml -- \
//!     [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]] [--json OUT]
//! cargo run --release --manifest-path examples/benchmark/Cargo.toml -- --compare OLD.jsonl NEW.jsonl
//! ```
//!
//! The parent process runs each workload in a child process of its own
//! (`--child NAME`), one at a time, so each workload's peak memory is
//! its own. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; see README.md.

mod compare;
mod host;
mod json;
mod layers;
mod speed;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{exit, Command, Stdio};
use std::time::{Duration, Instant};

use json::{num, quote, Value};
use trace::Tracer;
use workloads::{Ctx, Job, Output, Workload, NAMES};

/// The seed whose output digests `expected.txt` pins.
const DEFAULT_SEED: u64 = 0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Share of the run the traced mode spends on its untraced pass.
const TRACE_SHARE: f64 = 0.2;

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    child: Option<String>,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]] [--json OUT]\n       benchmark --compare OLD.jsonl NEW.jsonl\nworkloads: {}",
        NAMES.join(", ")
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        json: None,
        compare: None,
        child: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{a} needs {what}")))
        };
        match a.as_str() {
            "--workload" => args.workloads.push(value("a name")),
            "--seed" => {
                args.seed = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seed"))
            }
            "--seconds" => {
                args.seconds = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seconds"));
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    usage("--seconds must be in (0, 3600]");
                }
            }
            "--json" => args.json = Some(value("a path").into()),
            "--compare" => {
                let old = value("two paths");
                args.compare = Some((old.into(), value("two paths").into()));
            }
            "--child" => args.child = Some(value("a name")),
            // `--trace`, `--trace 1` or `--trace 0`.
            "--trace" => {
                args.trace = it
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1")
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    for w in args.workloads.iter().chain(&args.child) {
        if !NAMES.contains(&w.as_str()) {
            usage(&format!("unknown workload `{w}`"));
        }
    }
    if args.workloads.is_empty() {
        args.workloads = NAMES.iter().map(|s| s.to_string()).collect();
    }
    args
}

/// The repository checkout this benchmark was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn expected_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.txt")
}

fn main() {
    let args = parse_args();
    if let Some((old, new)) = &args.compare {
        match compare::run(&repo_root().join("BENCHMARK.json"), old, new) {
            Ok(report) => print!("{report}"),
            Err(e) => {
                eprintln!("error: {e}");
                exit(2);
            }
        }
        return;
    }
    if let Some(name) = &args.child {
        match child(name, &args) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("error: {name}: {e}");
                exit(2);
            }
        }
        return;
    }
    parent(&args);
}

// ---------------------------------------------------------------------
// Parent: one child per workload, then the report
// ---------------------------------------------------------------------

fn parent(args: &Args) {
    let host = host::host_json(&repo_root());
    println!("host {host}");
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("error: cannot locate the benchmark executable: {e}");
        exit(2)
    });
    let mut results = Vec::new();
    for name in &args.workloads {
        let out = Command::new(&exe)
            .args(["--child", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let line = match out {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout)
                .lines()
                .last()
                .map(str::to_string),
            Ok(o) => {
                eprintln!("error: workload {name} exited with {}", o.status);
                None
            }
            Err(e) => {
                eprintln!("error: cannot start workload {name}: {e}");
                None
            }
        };
        let Some(line) = line else { exit(2) };
        let value = json::parse(&line).unwrap_or_else(|e| {
            eprintln!("error: workload {name} printed no result ({e})");
            exit(2)
        });
        print!("{}", describe(&value));
        if let Some(path) = &args.json {
            // One JSON line per workload run, host block first; repeated
            // runs append, building the run sets `--compare` reads.
            let record = format!("{{\"host\":{host},{}", &line[1..]);
            let written = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{record}"));
            if let Err(e) = written {
                eprintln!("error: {}: {e}", path.display());
                exit(2);
            }
        }
        results.push((name.clone(), value));
    }

    let all_correct = results
        .iter()
        .all(|(_, v)| v.get("correct") == Some(&Value::Bool(true)));
    let total = |key: &str| -> u64 {
        results
            .iter()
            .map(|(_, v)| v.get(key).and_then(Value::num).unwrap_or(0.0) as u64)
            .sum()
    };
    let mut metrics = Vec::new();
    for (name, v) in &results {
        for (metric, m) in v.get("metrics").and_then(Value::obj).into_iter().flatten() {
            let key = if results.len() == 1 {
                metric.clone()
            } else {
                format!("{name}.{metric}")
            };
            let value = m.get("value").and_then(Value::num).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Value::str).unwrap_or("");
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&key),
                num(value),
                quote(unit)
            ));
        }
    }
    println!(
        "{{\"correct\": {all_correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        total("attempted"),
        total("failed"),
        metrics.join(", ")
    );
    if !all_correct {
        exit(1);
    }
}

/// The human-readable lines for one workload's result.
fn describe(v: &Value) -> String {
    let s = |k: &str| v.get(k).and_then(Value::str).unwrap_or("?").to_string();
    let n = |k: &str| v.get(k).and_then(Value::num).unwrap_or(f64::NAN);
    let info = v.get("info");
    let info_num = |k: &str| info.and_then(|i| i.get(k)).and_then(Value::num);
    let mut out = format!(
        "[{}] seed {}: {} jobs, {} failed, digest {} ({})\n",
        s("workload"),
        n("seed"),
        n("attempted"),
        n("failed"),
        s("digest"),
        s("expected"),
    );
    for p in info
        .and_then(|i| i.get("problems"))
        .map_or(&[][..], Value::arr)
    {
        let _ = writeln!(out, "  problem: {}", p.str().unwrap_or("?"));
    }
    let metrics = v.get("metrics");
    let metric = |k: &str| {
        metrics
            .and_then(|m| m.get(k))
            .and_then(|m| m.get("value"))
            .and_then(Value::num)
    };
    let mut line = |name: &str, value: Option<f64>, unit: &str, note: &str| {
        if let Some(x) = value {
            let _ = writeln!(out, "  {name:<26} {x:>16.6} {unit:<9} {note}");
        }
    };
    let tail_note = format!(
        "p{} of {} jobs; reported, not bounded",
        info_num("tail_percentile").unwrap_or(f64::NAN),
        info_num("latency_samples").unwrap_or(f64::NAN)
    );
    let corrected = "corrected to the nominal host speed";
    line(
        "setup_s",
        metric("setup_s"),
        "s",
        &format!("median of the set-ups, {corrected}"),
    );
    line("jobs_per_s", metric("jobs_per_s"), "1/s", corrected);
    line("peak_rss_mb", metric("peak_rss_mb"), "MiB", "");
    line(
        "job_p50_ms",
        info_num("job_p50_ms"),
        "ms",
        "corrected; reported, not bounded",
    );
    line("job_tail_ms", info_num("job_tail_ms"), "ms", &tail_note);
    let measured = "as measured; reported, not bounded";
    line(
        "measured_jobs_per_s",
        info_num("measured_jobs_per_s"),
        "1/s",
        measured,
    );
    line(
        "measured_job_p50_ms",
        info_num("measured_job_p50_ms"),
        "ms",
        measured,
    );
    line(
        "host_slowdown",
        info_num("host_slowdown"),
        "x",
        "median reference reading / nominal",
    );
    let sim = info_num("sim_cycles_per_s");
    line(
        "sim_cycles_per_s",
        sim,
        "1/s",
        "simulated node-cycles, at jobs_per_s",
    );
    let err = info_num("model_err_pct");
    line("model_err_pct", err, "%", "Table 4 speedups vs the paper");
    // Per-layer metrics of a traced run; layers the workload does not
    // enter read 0 and are left out here.
    for lm in layers::LAYER_METRICS {
        let value = metric(lm.name).filter(|&x| x != 0.0 || lm.name == "trace.overhead_pct");
        line(lm.name, value, lm.unit, &format!("-> {}", lm.moves));
    }
    out
}

// ---------------------------------------------------------------------
// Child: set up, warm up, measure, check
// ---------------------------------------------------------------------

/// Outputs seen per input (the first run's digest, which every later
/// run of the same input must reproduce) and the failures so far.
struct Book {
    digests: Vec<Option<u64>>,
    failures: u64,
    /// The first few failure messages.
    messages: Vec<String>,
}

impl Book {
    fn fail(&mut self, problem: String) {
        if self.messages.len() < 8 {
            eprintln!("job failed: {problem}");
            self.messages.push(problem);
        }
        self.failures += 1;
    }

    /// Record one job's outcome; `None` when it failed.
    fn record(&mut self, input: usize, outcome: Result<Output, String>) -> Option<Output> {
        match outcome {
            Ok(out) if self.digests[input].is_none_or(|d| d == out.digest) => {
                self.digests[input] = Some(out.digest);
                return Some(out);
            }
            Ok(_) => self.fail(format!("input {input}: output changed between runs")),
            Err(e) => self.fail(format!("input {input}: {e}")),
        }
        None
    }
}

/// Run one job: untimed preparation, the timed work, its checks.
/// Returns the timed seconds and the outcome; a panic is a failure.
fn run_job(
    w: &mut dyn Workload,
    id: u64,
    input: usize,
    tr: &Tracer,
) -> (f64, Result<Output, String>) {
    if let Err(e) = w.prepare(input) {
        return (0.0, Err(e));
    }
    let mut job = Job::new(id, input, tr);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        tr.span("job", None, id, |root| {
            job.span = root;
            w.run(&mut job)
        })
    }))
    .unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panicked: {msg}"))
    });
    (job.elapsed(), outcome)
}

/// One timed set-up: build the workload's inputs from the seed and run
/// one untimed warm-up job, as a user's first run pays it. Its time is
/// corrected by reference readings on either side.
fn set_up(
    name: &str,
    cx: &Ctx,
    book: &mut Book,
    times: &mut Vec<f64>,
) -> Result<Box<dyn Workload>, String> {
    let before = speed::reference_s();
    let t = Instant::now();
    let mut w = workloads::setup(name, cx)?;
    book.digests.resize(w.inputs(), None);
    let (_, outcome) = run_job(w.as_mut(), 0, 0, &Tracer::new(false));
    book.record(0, outcome);
    let secs = t.elapsed().as_secs_f64();
    times.push(speed::correct(secs, before, speed::reference_s()));
    Ok(w)
}

/// Jobs run in one pass: their timed seconds, corrected and as measured,
/// the reference readings between them and, when traced, the summed
/// per-job counts.
struct Pass {
    corrected: Vec<f64>,
    measured: Vec<f64>,
    /// A reading before the first job, then one after each job (and
    /// after anything else that ran between jobs).
    refs: Vec<f64>,
    failed: u64,
    counts: BTreeMap<&'static str, f64>,
}

impl Pass {
    fn new() -> Pass {
        Pass {
            corrected: Vec::new(),
            measured: Vec::new(),
            refs: vec![speed::reference_s()],
            failed: 0,
            counts: BTreeMap::new(),
        }
    }

    fn job(&mut self, w: &mut dyn Workload, book: &mut Book, id: u64, tr: &Tracer) {
        let input = id as usize % w.inputs();
        let (secs, outcome) = run_job(w, id, input, tr);
        let before = *self.refs.last().expect("a pass starts with a reading");
        let after = speed::reference_s();
        self.refs.push(after);
        match book.record(input, outcome) {
            Some(out) => {
                self.corrected.push(speed::correct(secs, before, after));
                self.measured.push(secs);
                for (k, v) in out.counts {
                    *self.counts.entry(k).or_default() += v;
                }
            }
            None => self.failed += 1,
        }
    }

    /// A fresh reading for the next job, after other work ran.
    fn reread(&mut self) {
        self.refs.push(speed::reference_s());
    }

    fn corrected_s(&self) -> f64 {
        self.corrected.iter().sum()
    }

    fn measured_s(&self) -> f64 {
        self.measured.iter().sum()
    }
}

fn child(name: &str, args: &Args) -> Result<String, String> {
    let root = repo_root();
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // Stores live beside the executable, inside the build directory.
    let work = exe
        .parent()
        .ok_or("executable has no directory")?
        .join("benchmark-work")
        .join(name);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let cx = Ctx {
        seed: args.seed,
        root: &root,
        work: &work,
    };
    let untraced = Tracer::new(false);
    let mut setup_s = Vec::new();
    let mut book = Book {
        digests: Vec::new(),
        failures: 0,
        messages: Vec::new(),
    };
    let mut w = set_up(name, &cx, &mut book, &mut setup_s)?;
    let n = w.inputs();

    let mut info: Vec<(&str, f64)> = Vec::new();
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    let mut spans_json = None;
    let (attempted, failed);
    if args.trace {
        // Untraced, then the same jobs traced: whole input cycles, so
        // the per-job counts are exact.
        let budget = Duration::from_secs_f64(args.seconds * TRACE_SHARE);
        let mut plain = Pass::new();
        let t0 = Instant::now();
        let mut id = 0u64;
        while id == 0 || !(id as usize).is_multiple_of(n) || t0.elapsed() < budget {
            plain.job(w.as_mut(), &mut book, id, &untraced);
            id += 1;
        }
        let tracer = Tracer::new(true);
        let mut traced = Pass::new();
        for k in 0..id {
            traced.job(w.as_mut(), &mut book, k, &tracer);
        }
        let spans = tracer.take();
        let layer = layers::derive(&layers::Traced {
            spans: &spans,
            counts: &traced.counts,
            jobs: traced.measured.len(),
            traced_s: traced.measured_s(),
            overhead: traced.corrected_s() / plain.corrected_s(),
            threads: workloads::WORKERS,
        });
        for (lm, v) in layer {
            metrics.push((lm.name, lm.unit, v));
        }
        spans_json = Some(trace::spans_json(&spans));
        attempted = 2 * id;
        failed = plain.failed + traced.failed;
    } else {
        // Whole input cycles, so every run measures the same mix of
        // inputs. Set-up k of SETUP_REPS runs k/SETUP_REPS into the window
        // (its instance is dropped), so the set-ups sample the host at
        // several moments rather than one.
        let window = Duration::from_secs_f64(args.seconds);
        let mut pass = Pass::new();
        let t0 = Instant::now();
        let mut id = 0u64;
        while id == 0 || !(id as usize).is_multiple_of(n) || t0.elapsed() < window {
            let due = window.mul_f64(setup_s.len() as f64 / SETUP_REPS as f64);
            if setup_s.len() < SETUP_REPS && t0.elapsed() >= due {
                set_up(name, &cx, &mut book, &mut setup_s)?;
                pass.reread();
            }
            pass.job(w.as_mut(), &mut book, id, &untraced);
            id += 1;
        }
        while setup_s.len() < SETUP_REPS {
            set_up(name, &cx, &mut book, &mut setup_s)?;
        }
        let jobs = pass.corrected.len() as f64;
        let rate = jobs / pass.corrected_s();
        metrics.extend([
            ("setup_s", "s", stats::median(&setup_s)),
            ("jobs_per_s", "1/s", rate),
            (
                "peak_rss_mb",
                "MiB",
                host::peak_rss_mb().unwrap_or(f64::NAN),
            ),
        ]);
        // The median and the tail are reported, not bounded: even
        // corrected, they move with the share of jobs the host ran slow
        // (see README.md).
        let (tail_p, tail) = stats::tail(&pass.corrected);
        info.extend([
            ("job_p50_ms", stats::median(&pass.corrected) * 1e3),
            ("job_tail_ms", tail * 1e3),
            ("tail_percentile", tail_p),
            ("latency_samples", jobs),
            ("measured_jobs_per_s", jobs / pass.measured_s()),
            ("measured_job_p50_ms", stats::median(&pass.measured) * 1e3),
            (
                "host_slowdown",
                stats::median(&pass.refs) / speed::NOMINAL_S,
            ),
        ]);
        if let Some(c) = w.sim_cycles() {
            info.push(("sim_cycles_per_s", c * rate));
        }
        attempted = id;
        failed = pass.failed;
    }

    // Both passes ran whole cycles: every input has an output to check.
    if let Err(e) = catch_unwind(AssertUnwindSafe(|| w.finish()))
        .unwrap_or_else(|_| Err("cycle check panicked".into()))
    {
        book.fail(e);
    }
    let mut d = ulp_testkit::Digest64::new();
    for digest in book.digests.iter().flatten() {
        d.update(&digest.to_le_bytes());
    }
    let digest = ulp_testkit::digest::hex16(d.finish());
    let (expected, mismatch) = check_expected(name, args.seed, &digest)?;
    if let Some(problem) = mismatch {
        book.fail(problem);
    }
    let _ = std::fs::remove_dir_all(&work);

    // A failed check outside the timed jobs (warm-up, cycle check,
    // pinned digest) condemns every job's output.
    let failed = if book.failures > failed {
        attempted
    } else {
        failed
    };
    let mut out = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"digest\":{},\"expected\":{},\"metrics\":{{",
        quote(name),
        args.seed,
        num(args.seconds),
        args.trace,
        book.failures == 0,
        quote(&digest),
        quote(expected),
    );
    let m: Vec<String> = metrics
        .iter()
        .map(|(k, unit, v)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(k),
                num(*v),
                quote(unit)
            )
        })
        .collect();
    out.push_str(&m.join(","));
    out.push_str("},\"info\":{");
    info.extend(w.facts());
    let mut facts: Vec<String> = info
        .iter()
        .map(|(k, v)| format!("{}:{}", quote(k), num(*v)))
        .collect();
    facts.push(format!(
        "\"setup_runs_s\":[{}]",
        setup_s
            .iter()
            .map(|s| num(*s))
            .collect::<Vec<_>>()
            .join(",")
    ));
    facts.push(format!(
        "\"problems\":[{}]",
        book.messages
            .iter()
            .map(|p| quote(p))
            .collect::<Vec<_>>()
            .join(",")
    ));
    out.push_str(&facts.join(","));
    out.push('}');
    if let Some(spans) = spans_json {
        let _ = write!(out, ",\"spans\":{spans}");
    }
    out.push('}');
    Ok(out)
}

/// Compare a run's output digest against `expected.txt` (default seed
/// only), or rewrite its line under `ULP_UPDATE_GOLDEN=1`. Returns the
/// verdict to print and, on a mismatch, the problem.
fn check_expected(
    name: &str,
    seed: u64,
    digest: &str,
) -> Result<(&'static str, Option<String>), String> {
    if seed != DEFAULT_SEED {
        return Ok(("unpinned seed", None));
    }
    let path = expected_path();
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    if std::env::var_os("ULP_UPDATE_GOLDEN").is_some() {
        let pinned = format!("{name} {digest}");
        let mut lines: Vec<&str> = text.lines().collect();
        match lines
            .iter()
            .position(|l| l.split_once(' ').is_some_and(|(w, _)| w == name))
        {
            Some(i) => lines[i] = &pinned,
            None => lines.push(&pinned),
        }
        std::fs::write(&path, lines.join("\n") + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        return Ok(("updated", None));
    }
    let pinned = text.lines().find_map(|l| {
        let (w, d) = l.split_once(' ')?;
        (w == name).then(|| d.trim())
    });
    Ok(match pinned {
        Some(p) if p == digest => ("matches expected.txt", None),
        Some(p) => (
            "DIFFERS from expected.txt",
            Some(format!("digest {digest} differs from expected.txt ({p})")),
        ),
        None => (
            "not in expected.txt",
            Some("expected.txt pins no digest for this workload".into()),
        ),
    })
}
