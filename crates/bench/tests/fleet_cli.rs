//! Command-line validation of the `fleet` binary.

use std::path::Path;
use std::process::Command;

use ulp_bench::campaign::{CampaignArgs, Mode};
use ulp_bench::chaos::ChaosApp;
use ulp_bench::cosim::MAX_NODES;

fn fleet(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fleet"))
        .args(args)
        .output()
        .expect("run fleet")
}

fn parse(line: &str) -> CampaignArgs {
    CampaignArgs::parse(line.split_whitespace().map(str::to_string)).expect(line)
}

/// Each mode has its own defaults; lists, scalars and the shared flags
/// parse, and a repeated flag keeps its last value.
#[test]
fn the_parser_reads_every_mode() {
    let cosim = parse("");
    assert_eq!(cosim.mode, Mode::Cosim);
    assert_eq!((cosim.nodes, cosim.losses), (vec![64], vec![0.1]));
    assert_eq!((cosim.seeds, cosim.horizon), (8, 12_000));
    let dense = parse("--dense");
    assert_eq!(
        (dense.mode, dense.nodes, dense.seeds),
        (Mode::Dense, vec![1_024], 1)
    );
    assert_eq!(
        (dense.densities, dense.duties, dense.horizon),
        (vec![25.0], vec![5_000], 20_000)
    );
    let chaos = parse("--chaos");
    assert_eq!(
        (chaos.mode, chaos.seeds, chaos.horizon),
        (Mode::Chaos, 4, 30_000)
    );
    assert_eq!(chaos.apps, vec![ChaosApp::Sample, ChaosApp::Filtered]);
    assert_eq!(chaos.rates, vec![0.0, 1e-3]);

    let a = parse("--nodes 16,32 --loss 0,1 --seeds 3 --slots 400 --threads 2 --check --csv o.csv");
    assert_eq!((&a.nodes, &a.losses), (&vec![16, 32], &vec![0.0, 1.0]));
    assert_eq!((a.seeds, a.horizon, a.drive.threads), (3, 400, 2));
    assert!(a.drive.check && !a.fill_only());
    assert_eq!(a.csv.as_deref(), Some("o.csv"));
    let s = parse("--store d --shard 1/2 --seeds 1 --seeds 5");
    assert!(s.fill_only());
    assert_eq!(s.seeds, 5);
}

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
        let out = fleet(mode);
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

/// Every bad command line is rejected before anything simulates: exit
/// 2, a message naming the offending flag, and nothing on stdout. The
/// rows cover scalar flags given a list or a zero, grid values outside
/// their axis's domain, flags the chosen mode does not read, and a
/// removed flag.
#[test]
fn bad_command_lines_are_usage_errors_naming_the_flag() {
    let cases: &[(&[&str], &str)] = &[
        // Scalar flags take exactly one value of at least 1.
        (&["--seeds", "2,9"], "--seeds"),
        (&["--slots", "4000,8000"], "--slots"),
        (&["--threads", "2,4"], "--threads"),
        (&["--chaos", "--horizon", "100,200"], "--horizon"),
        (&["--threads", "0"], "--threads"),
        (&["--seeds", "0"], "--seeds"),
        (&["--slots", "0"], "--slots"),
        (&["--chaos", "--horizon", "0"], "--horizon"),
        // Grid values outside their axis's domain.
        (&["--loss", "2"], "--loss"),
        (&["--loss", "-1"], "--loss"),
        (&["--loss", "NaN"], "--loss"),
        (&["--nodes", "0"], "--nodes"),
        (&["--dense", "--nodes", "0"], "--nodes"),
        (&["--dense", "--density", "-5"], "--density"),
        (&["--dense", "--density", "0"], "--density"),
        (&["--dense", "--density", "inf"], "--density"),
        (&["--dense", "--duty", "0"], "--duty"),
        (&["--chaos", "--rates", "1.5"], "--rates"),
        (&["--chaos", "--apps", "app9"], "--apps"),
        // Flags the chosen mode does not read.
        (&["--density", "25"], "--density"),
        (&["--duty", "5000"], "--duty"),
        (&["--dense", "--loss", "0.2"], "--loss"),
        (&["--apps", "app1"], "--apps"),
        (&["--rates", "0"], "--rates"),
        (&["--horizon", "15000"], "--horizon"),
        (&["--summary", "s.txt"], "--summary"),
        (&["--dense", "--apps", "app1"], "--apps"),
        (&["--chaos", "--nodes", "16"], "--nodes"),
        (&["--chaos", "--slots", "4000"], "--slots"),
        (&["--chaos", "--loss", "0.1"], "--loss"),
        (&["--dense", "--chaos"], "--chaos"),
        // A removed flag is unknown: a plain `--store` run serves a
        // sharded fill.
        (&["--store", "d", "--merge"], "--merge"),
    ];
    for &(args, flag) in cases {
        let out = fleet(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "fleet {args:?} must exit with usage"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        let reason = stderr.lines().next().unwrap_or("");
        assert!(
            reason.contains(flag) && !reason.starts_with("usage:"),
            "fleet {args:?} must name {flag} before the usage line: {stderr}"
        );
        assert!(out.stdout.is_empty(), "fleet {args:?} must not simulate");
    }
}

/// A store that cannot be opened is an error naming its path: exit 1,
/// after the sweep's banner one line on stderr, nothing on stdout, and
/// never a panic.
#[test]
fn an_unopenable_store_is_an_error_naming_it() {
    for args in [
        &["--store", "/dev/null/x", "--nodes", "2", "--slots", "100"][..],
        &["--store", "/dev/null/x", "--shard", "0/2", "--nodes", "2"],
    ] {
        let out = fleet(args);
        assert_eq!(out.status.code(), Some(1), "fleet {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let lines: Vec<&str> = stderr.lines().collect();
        assert!(lines[0].starts_with("fleet: "), "fleet {args:?}: {stderr}");
        assert_eq!(
            lines[1..],
            ["campaign store /dev/null/x: cannot open: Not a directory (os error 20)"],
            "fleet {args:?}"
        );
        assert!(out.stdout.is_empty(), "fleet {args:?}");
    }
}

/// An output file that cannot be written is an error naming its path:
/// exit 1 with the OS error as the last line on stderr, never a panic,
/// and nothing on stdout: no grid point runs. Every mode's exports and
/// the chaos summary.
#[test]
fn an_unwritable_output_is_an_error_naming_it() {
    for args in [
        &[
            "--nodes",
            "2",
            "--seeds",
            "1",
            "--slots",
            "100",
            "--csv",
            "/dev/null/x",
        ][..],
        &[
            "--nodes",
            "2",
            "--seeds",
            "1",
            "--slots",
            "100",
            "--json",
            "/dev/null/x",
        ],
        &[
            "--dense",
            "--nodes",
            "2",
            "--slots",
            "100",
            "--json",
            "/dev/null/x",
        ],
        &[
            "--chaos",
            "--apps",
            "app1",
            "--rates",
            "0",
            "--seeds",
            "1",
            "--horizon",
            "1000",
            "--summary",
            "/dev/null/x",
        ],
    ] {
        let out = fleet(args);
        assert_eq!(out.status.code(), Some(1), "fleet {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            stderr.lines().last(),
            Some("cannot write /dev/null/x: Not a directory (os error 20)"),
            "fleet {args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "fleet {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "fleet {args:?}");
    }
}

/// `fleet --chaos` writes the campaign summary the golden suite pins,
/// byte for byte.
#[test]
fn chaos_mode_writes_the_pinned_campaign_summary() {
    let path = std::env::temp_dir().join(format!("fleet-chaos-{}.txt", std::process::id()));
    let out = fleet(&[
        "--chaos",
        "--apps",
        "app1,app2",
        "--rates",
        "0,0.001",
        "--seeds",
        "2",
        "--horizon",
        "15000",
        "--summary",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "fleet --chaos failed: {out:?}");
    let written = std::fs::read_to_string(&path).expect("--summary file");
    let _ = std::fs::remove_file(&path);
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/chaos_summary.txt");
    assert!(
        written == std::fs::read_to_string(golden).unwrap(),
        "--summary differs from tests/golden/chaos_summary.txt"
    );
}
