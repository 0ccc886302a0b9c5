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
//!   integer `"iters_per_sample"`, `"best_ns"` and `"median_ns"`;
//! * the `"host"` block the timings were taken on is an object with
//!   `"logical_cores"` (a positive integer or null), `"cpus_allowed"`,
//!   `"cpu_model"`, `"rustc"` and `"git_rev"` (strings or null) and
//!   `"profile"` (`"debug"` or `"release"`).
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
    check_text(&text)
}

/// Check one BENCH document; returns its number of results.
fn check_text(text: &str) -> Result<usize, String> {
    let doc = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
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
    check_host(doc.get("host").ok_or("top level needs a \"host\" block")?)?;
    Ok(results.len())
}

/// The host block `ulp_testkit::bench` records beside the timings.
fn check_host(host: &Value) -> Result<(), String> {
    if !matches!(host, Value::Object(_)) {
        return Err("\"host\" must be an object".into());
    }
    match host.get("logical_cores") {
        Some(Value::Null) => {}
        Some(n) if n.as_u64().is_some_and(|n| n > 0) => {}
        _ => return Err("host needs \"logical_cores\": a positive integer or null".into()),
    }
    for key in ["cpus_allowed", "cpu_model", "rustc", "git_rev"] {
        if !matches!(host.get(key), Some(Value::Null | Value::String(_))) {
            return Err(format!("host needs \"{key}\": a string or null"));
        }
    }
    match host.get("profile") {
        Some(Value::String(p)) if p == "debug" || p == "release" => Ok(()),
        _ => Err("host needs \"profile\": \"debug\" or \"release\"".into()),
    }
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

#[cfg(test)]
mod tests {
    use super::check_text;

    const RESULTS: &str = r#""bench":"b","mode":"test","results":[{"id":"g/x","iters_per_sample":1,"best_ns":5,"median_ns":6}]"#;

    fn doc(host: &str) -> String {
        format!("{{{RESULTS}{host}}}")
    }

    #[test]
    fn the_host_block_is_required_and_checked() {
        let host = r#","host":{"logical_cores":2,"cpus_allowed":"0-1","cpu_model":null,"profile":"release","rustc":"rustc 1.0.0","git_rev":null}"#;
        assert_eq!(check_text(&doc(host)), Ok(1));
        let host = r#","host":{"logical_cores":null,"cpus_allowed":null,"cpu_model":"x","profile":"debug","rustc":null,"git_rev":"abc"}"#;
        assert_eq!(check_text(&doc(host)), Ok(1));
        for bad in [
            "",
            r#","host":[]"#,
            r#","host":{"logical_cores":0,"cpus_allowed":null,"cpu_model":null,"profile":"release","rustc":null,"git_rev":null}"#,
            r#","host":{"logical_cores":2,"cpus_allowed":3,"cpu_model":null,"profile":"release","rustc":null,"git_rev":null}"#,
            r#","host":{"logical_cores":2,"cpus_allowed":null,"profile":"release","rustc":null,"git_rev":null}"#,
            r#","host":{"logical_cores":2,"cpus_allowed":null,"cpu_model":null,"profile":"fast","rustc":null,"git_rev":null}"#,
            r#","host":{"logical_cores":2,"cpus_allowed":null,"cpu_model":null,"profile":"release","rustc":1,"git_rev":null}"#,
            r#","host":{"logical_cores":2,"cpus_allowed":null,"cpu_model":null,"profile":"release","rustc":null,"git_rev":[]}"#,
            r#","host":{"logical_cores":2,"cpus_allowed":null,"cpu_model":null,"profile":"release","rustc":null}"#,
            r#","host":{"logical_cores":2,"cpus_allowed":null,"cpu_model":null,"profile":"release"}"#,
        ] {
            assert!(check_text(&doc(bad)).is_err(), "{bad}");
        }
    }
}
