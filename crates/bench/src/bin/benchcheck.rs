//! Schema gate for checked-in `BENCH_*.json` baselines.
//!
//! ```text
//! cargo run -p ulp-bench --bin benchcheck -- BENCH_simulator.json BENCH_fleet.json
//! ```
//!
//! Each argument must be a file produced by `ulp_testkit::bench` with
//! `ULP_BENCH_DIR` set. A file passes when:
//!
//! * the strict in-tree reader (`ulp_testkit::json::parse`) accepts it,
//!   which rejects bare `NaN`/`Infinity`, leading zeros and nesting
//!   deeper than its fixed limit;
//! * the top level is an object with string `"bench"` and `"mode"` and
//!   a non-empty `"results"` array;
//! * every result is an object with a string `"id"` and non-negative
//!   integer `"iters_per_sample"`, `"best_ns"` and `"median_ns"`.
//!
//! Exits 1 if any file fails, 2 on usage errors. Wired into
//! `scripts/verify.sh` and CI so a bench-harness schema drift cannot land
//! silently under a stale baseline.

use std::process::exit;

use ulp_testkit::json::{self, Value};

/// Integer fields every result must carry.
const RESULT_COUNTS: &[&str] = &["iters_per_sample", "best_ns", "median_ns"];

fn check(path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    for key in ["bench", "mode"] {
        if !matches!(doc.get(key), Some(Value::String(_))) {
            return Err(format!("top level needs a string \"{key}\""));
        }
    }
    let Some(Value::Array(results)) = doc.get("results") else {
        return Err("top level needs a \"results\" array".into());
    };
    if results.is_empty() {
        return Err("empty results array (bench produced no measurements)".into());
    }
    for (i, result) in results.iter().enumerate() {
        if !matches!(result.get("id"), Some(Value::String(_))) {
            return Err(format!("result {i} needs a string \"id\""));
        }
        for key in RESULT_COUNTS {
            if result.get(key).and_then(Value::as_u64).is_none() {
                return Err(format!("result {i} needs a non-negative integer \"{key}\""));
            }
        }
    }
    Ok(results.len())
}

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: benchcheck BENCH_a.json [BENCH_b.json ..]");
        exit(2);
    }
    let mut failed = false;
    for path in &paths {
        match check(path) {
            Ok(n) => println!("ok: {path} ({n} result(s))"),
            Err(e) => {
                eprintln!("FAIL: {path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        exit(1);
    }
}
