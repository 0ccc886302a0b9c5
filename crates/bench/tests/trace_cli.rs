//! Command-line behaviour of the `trace` binary.

use std::process::Command;

/// An output file that cannot be written is an error naming its path:
/// exit 1 with the OS error as the last line on stderr, never a panic,
/// and no summary on stdout: nothing runs.
#[test]
fn an_unwritable_output_is_an_error_naming_it() {
    for args in [
        &["--out", "/dev/null/x"][..],
        &["--csv", "/dev/null/x"],
        &["--summary", "/dev/null/x"],
        // Fails before its double run, so no `check ok` line.
        &["--check", "--out", "/dev/null/x"],
    ] {
        let flag = args.join(" ");
        let out = Command::new(env!("CARGO_BIN_EXE_trace"))
            .args(["--app", "stage4", "--cycles", "1000"])
            .args(args)
            .output()
            .expect("run trace");
        assert_eq!(out.status.code(), Some(1), "trace {flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            stderr.lines().last(),
            Some("cannot write /dev/null/x: Not a directory (os error 20)"),
            "trace {flag}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "trace {flag}: {stderr}");
        assert!(out.stdout.is_empty(), "trace {flag}");
        assert!(!stderr.contains("check ok"), "trace {flag}: {stderr}");
    }
}
