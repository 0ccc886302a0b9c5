//! Regenerate the paper's tables and figures and the static checkers' reports.
//!
//! ```text
//! cargo run --release -p ulp-bench --bin repro -- table4 fig6
//! cargo run --release -p ulp-bench --bin repro -- all
//! ```
//!
//! Prints each named artifact of [`ulp_bench::report::ARTIFACTS`] in
//! the order given (`all` = every artifact, in table order). Stdout is
//! exactly the artifacts' golden files concatenated; the two fleet-backed
//! artifacts (`fig6_crosscheck`, `ablations`) print their wall-clock on
//! stderr. An unknown name exits 2 with the list of valid names.
//!
//! Four artifacts are the static checkers' reports (`ulp-verify`):
//! `epcheck_shipped` lints every shipped event-processor ISR program
//! (see [`ulp_bench::epcheck`]), `mcu8check_shipped` analyzes every
//! shipped Mica2 firmware image (CFG recovery, stack bounds,
//! interrupt-safety lints, per-vector WCET; see
//! [`ulp_bench::mcu8check`]), and `epcheck_fixture` /
//! `mcu8check_fixture` render one deliberately broken program per
//! diagnostic class. Printing is not the whole job of the two shipped
//! reports: `repro` exits 1 after printing when either has an
//! error-severity finding. The fixture reports are full of errors by
//! design and never affect the exit status.

use std::process::exit;

use ulp_bench::report::{Artifact, Inputs, ARTIFACTS};

fn usage() -> ! {
    let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
    eprintln!(
        "usage: repro <artifact>... | all\nartifacts: {}",
        names.join(" ")
    );
    exit(2);
}

fn main() {
    let mut chosen: Vec<&Artifact> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "all" {
            chosen.extend(ARTIFACTS);
        } else if let Some(a) = ARTIFACTS.iter().find(|a| a.name == arg) {
            chosen.push(a);
        } else {
            eprintln!("unknown artifact `{arg}`");
            usage();
        }
    }
    if chosen.is_empty() {
        usage();
    }
    let inputs = Inputs::default();
    let mut findings = 0;
    for a in chosen {
        print!("{}", (a.render)(&inputs));
        let errors = (a.errors)();
        if errors > 0 {
            eprintln!("{}: {errors} error-severity finding(s)", a.name);
            findings += errors;
        }
    }
    if findings > 0 {
        exit(1);
    }
}
