//! Command-line checks of the `benchcheck` schema gate: it must read the
//! real structure of a BENCH file, not count substrings.

use std::path::{Path, PathBuf};
use std::process::Command;

fn benchcheck(paths: &[PathBuf]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_benchcheck"))
        .args(paths)
        .output()
        .expect("run benchcheck")
}

/// Write `body` to a scratch file and return its exit code under
/// benchcheck.
fn exit_code_for(name: &str, body: &str) -> Option<i32> {
    let path = std::env::temp_dir().join(format!("benchcheck-{}-{name}.json", std::process::id()));
    std::fs::write(&path, body).unwrap();
    let out = benchcheck(std::slice::from_ref(&path));
    let _ = std::fs::remove_file(&path);
    out.status.code()
}

const GOOD: &str = r#"{"bench":"x","mode":"measure","results":[{"id":"a","iters_per_sample":1,"best_ns":1,"median_ns":2}],"host":{"logical_cores":2,"cpus_allowed":"0-1","cpu_model":null,"profile":"release","rustc":null,"git_rev":null}}"#;

#[test]
fn structurally_wrong_files_fail() {
    assert_eq!(exit_code_for("good", GOOD), Some(0));
    for (name, body) in [
        // `median_ns` sits at the top level, not in the result: the
        // substring counts match, the structure does not.
        (
            "misplaced",
            r#"{"bench":"x","mode":"measure","results":[{"id":"a","iters_per_sample":1,"best_ns":1}],"median_ns":5}"#,
        ),
        (
            "leading-zero",
            &GOOD.replace("\"median_ns\":2", "\"median_ns\":01"),
        ),
        ("negative", &GOOD.replace("\"best_ns\":1", "\"best_ns\":-1")),
        (
            "fraction",
            &GOOD.replace("\"best_ns\":1", "\"best_ns\":1.5"),
        ),
        ("id-not-string", &GOOD.replace("\"id\":\"a\"", "\"id\":7")),
        ("no-mode", &GOOD.replace("\"mode\":\"measure\",", "")),
        ("empty", r#"{"bench":"x","mode":"measure","results":[]}"#),
        // The timings without the host they were taken on.
        (
            "no-host",
            &format!("{}}}", GOOD.split(r#","host""#).next().unwrap()),
        ),
        ("nan", &GOOD.replace("\"best_ns\":1", "\"best_ns\":NaN")),
        ("deep", &"[".repeat(100_000)),
    ] {
        assert_eq!(exit_code_for(name, body), Some(1), "{name} must fail");
    }
}

#[test]
fn every_checked_in_baseline_passes() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&root)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .collect();
    files.sort();
    assert!(
        !files.is_empty(),
        "the repo root holds BENCH_*.json baselines"
    );
    let out = benchcheck(&files);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn no_arguments_is_a_usage_error() {
    assert_eq!(benchcheck(&[]).status.code(), Some(2));
}
