//! Regenerate the paper's tables and figures.
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
    for a in chosen {
        print!("{}", (a.render)(&inputs));
    }
}
