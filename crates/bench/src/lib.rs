#![warn(missing_docs)]
//! Shared measurement harness for the reproduction binaries and the
//! benches.
//!
//! Every table and figure of the paper's evaluation, and every static
//! checker report, is a named artifact in [`report::ARTIFACTS`]; the
//! `repro` binary prints the paper's rows next to our measured values
//! (`repro table4 fig6`, or `repro all`):
//!
//! | Artifact | Reproduces |
//! |---|---|
//! | `table1` | Mica2 current draw |
//! | `table2` | Event-processor instruction set |
//! | `table3` | SRAM bank power |
//! | `table4` | Cycle-count comparison (plus code size and max rate) |
//! | `fig2`   | Event-processor state walk for one send event |
//! | `table5`, `table5_live` | Component power estimates; the extremes simulated live |
//! | `fig3`, `fig3.csv` | Process-technology study (Equation 1 surface) |
//! | `fig5`   | Monitoring-application ISR listing |
//! | `fig6`, `fig6.csv`, `fig6_crosscheck` | Power vs duty cycle (plus Atmel/MSP430 comparisons); full-simulation cross-check |
//! | `snap`   | blink/sense vs published SNAP numbers |
//! | `ablations` | Design-choice ablations (§4.2, §5.2) |
//! | `epcheck_shipped`, `epcheck_fixture` | Static check of the event-processor ISR programs the artifacts load (see [`epcheck`]) |
//! | `mcu8check_shipped`, `mcu8check_fixture` | Whole-firmware `ulp-verify` analysis of the shipped Mica2 images (see [`mcu8check`]) |
//!
//! `repro` exits 1 when a `*_shipped` lint report has an error-severity
//! finding; the fixture suites are broken on purpose.
//!
//! Three more binaries are not tied to a paper table: `trace` runs a
//! reference workload with the telemetry layer enabled and dumps
//! deterministic Chrome/Perfetto trace JSON, CSV timelines, and metrics
//! summaries (see [`tracegen`]); `fleet` runs campaigns on the
//! deterministic parallel sweep engine (see [`fleet`]), whose serialized
//! results are byte-identical whatever `ULP_FLEET_THREADS` says — the
//! lossy co-simulation (see [`cosim`]) across a node-count × loss-rate ×
//! seed grid, `--dense` spatial tiles (see [`dense`]), or `--chaos`
//! fault-injection campaigns (see [`chaos`]) asserting the
//! graceful-degradation invariants per grid point, all parsed by
//! [`campaign`]; and `benchcheck` checks the structure of `BENCH_*.json`
//! baselines.
//!
//! The measurement functions live here so integration tests can assert
//! on the same numbers `repro` prints, and the deterministic report text
//! lives in [`report`] so `tests/golden.rs` can pin every artifact
//! byte-for-byte against its checked-in golden file.
//!
//! Because every sweep point is a pure function of its scenario, the
//! campaign layer caches them: [`store`] is a content-addressed on-disk
//! result store (checksummed NDJSON records, torn-tail repair,
//! `--shard k/n` multi-process fills) whose cache-aware execution mode
//! serves hits and computes misses while keeping the serialized bytes
//! identical to a cold run — campaigns become resumable and re-runs
//! touch only the dirty points.

pub mod ablations;
pub mod campaign;
pub mod chaos;
pub mod cosim;
pub mod dense;
pub mod epcheck;
pub mod fleet;
pub mod lint;
pub mod mcu8check;
pub mod measure;
pub mod perf;
pub mod report;
pub mod store;
pub mod table;
pub mod tracegen;

pub use measure::{measure_table4, SystemSide, Table4Row};
pub use table::TableWriter;

/// Create every output artifact (`--csv`, `--json`, `--out`,
/// `--summary`) a run will write, empty, so that a path that cannot be
/// written fails before anything simulates; [`write_output`] fills each
/// one once the run is done.
///
/// # Errors
///
/// One line naming the first path that cannot be created and the OS
/// error; the binaries print it and exit 1.
pub fn create_outputs<'a>(
    paths: impl IntoIterator<Item = &'a Option<String>>,
) -> Result<(), String> {
    for path in paths.into_iter().flatten() {
        std::fs::File::create(path).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

/// Write an output artifact (`--csv`, `--json`, `--out`, `--summary`)
/// to `path` and say so on stderr.
///
/// # Errors
///
/// One line naming the path and the OS error when `path` cannot be
/// written; the binaries print it and exit 1.
pub fn write_output(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}
