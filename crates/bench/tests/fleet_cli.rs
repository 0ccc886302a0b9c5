//! Command-line validation of the `fleet` binary.

use std::process::Command;

use ulp_bench::cosim::MAX_NODES;

/// A node count past the radio address space is a usage error in both
/// modes — never a silently truncated population.
#[test]
fn nodes_beyond_the_address_space_are_a_usage_error() {
    let too_many = (MAX_NODES + 1).to_string();
    for mode in [
        &["--nodes", "70000"][..],
        &["--nodes", &too_many],
        &["--dense", "--nodes", &too_many],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fleet"))
            .args(mode)
            .output()
            .expect("run fleet");
        assert_eq!(
            out.status.code(),
            Some(2),
            "fleet {mode:?} must exit with usage"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("do not fit in addresses 2..=0xFFFE"),
            "fleet {mode:?} must say why: {stderr}"
        );
        assert!(out.stdout.is_empty(), "fleet {mode:?} must not simulate");
    }
}
