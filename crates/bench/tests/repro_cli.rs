//! Command-line behaviour of the `repro` binary.

use std::path::Path;
use std::process::Command;

use ulp_bench::report::ARTIFACTS;

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Several names print their artifacts in order, concatenated: stdout is
/// exactly the golden files back to back.
#[test]
fn named_artifacts_print_their_goldens_concatenated() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table1", "fig3.csv"])
        .output()
        .expect("run repro");
    assert!(out.status.success(), "repro failed: {out:?}");
    let expected = golden("table1.txt") + &golden("fig3.csv");
    assert!(
        String::from_utf8_lossy(&out.stdout) == expected,
        "stdout is not table1.txt followed by fig3.csv"
    );
}

/// An unknown name is a usage error that lists every valid name and
/// prints no artifact, even when valid names come before it.
#[test]
fn unknown_artifact_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table1", "table9"])
        .output()
        .expect("run repro");
    assert_eq!(
        out.status.code(),
        Some(2),
        "repro table9 must exit with usage"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown artifact `table9`"),
        "must say why: {stderr}"
    );
    for a in ARTIFACTS {
        assert!(
            stderr.contains(a.name),
            "usage must list `{}`: {stderr}",
            a.name
        );
    }
    assert!(
        out.stdout.is_empty(),
        "repro must not print before validating"
    );
}

/// The shipped programs lint clean, so their reports exit 0; the
/// fixture suites are full of errors on purpose and never fail `repro`.
#[test]
fn lint_reports_gate_only_on_the_shipped_programs() {
    for names in [
        ["epcheck_shipped", "mcu8check_shipped"],
        ["epcheck_fixture", "mcu8check_fixture"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(names)
            .output()
            .expect("run repro");
        assert_eq!(out.status.code(), Some(0), "repro {names:?}: {out:?}");
        let expected = golden(&format!("{}.txt", names[0])) + &golden(&format!("{}.txt", names[1]));
        assert!(
            String::from_utf8_lossy(&out.stdout) == expected,
            "repro {names:?} must print the two goldens"
        );
    }
    assert!(
        golden("epcheck_fixture.txt").contains("error"),
        "the fixture report must hold error findings"
    );
}
