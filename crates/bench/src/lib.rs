#![warn(missing_docs)]
//! Shared measurement harness for the table/figure regeneration binaries
//! and the benches.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that prints the paper's rows next to our measured values:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1` | Mica2 current draw |
//! | `table2` | Event-processor instruction set |
//! | `table3` | SRAM bank power |
//! | `table4` | Cycle-count comparison (plus code size and max rate) |
//! | `table5` | Component power estimates |
//! | `fig3`   | Process-technology study (Equation 1 surface) |
//! | `fig5`   | Monitoring-application ISR listing |
//! | `fig6`   | Power vs duty cycle (plus Atmel/MSP430 comparisons) |
//! | `snap_compare` | blink/sense vs published SNAP numbers |
//! | `ablations` | Design-choice ablations (§4.2, §5.2) |
//!
//! Four binaries are not tied to a single paper table: `trace` runs a
//! reference workload with the telemetry layer enabled and dumps
//! deterministic Chrome/Perfetto trace JSON, CSV timelines, and metrics
//! summaries (see [`tracegen`]); `epcheck` statically verifies the event
//! processor ISR programs the other binaries load (see [`epcheck`]) and,
//! in `--mcu8` mode, the shipped Mica2 firmware images with the
//! whole-firmware `ulp-verify` analyzer (see [`mcu8check`]);
//! `fleet` scales the lossy co-simulation (see [`cosim`]) across a
//! node-count × loss-rate × seed grid on the deterministic parallel
//! sweep engine (see [`fleet`]), whose serialized results are
//! byte-identical whatever `ULP_FLEET_THREADS` says; and `chaos` runs
//! deterministic fault-injection campaigns (see [`chaos`]) on the same
//! engine, asserting the graceful-degradation invariants per grid point.
//!
//! The measurement functions live here so integration tests can assert
//! on the same numbers the binaries print, and the deterministic report
//! text lives in [`report`] so `tests/golden.rs` can pin the binaries'
//! output byte-for-byte against checked-in golden files.
//!
//! Because every sweep point is a pure function of its scenario, the
//! campaign layer caches them: [`store`] is a content-addressed on-disk
//! result store (checksummed NDJSON records, torn-tail repair,
//! `--shard k/n` multi-process fills) whose cache-aware execution mode
//! serves hits and computes misses while keeping the serialized bytes
//! identical to a cold run — campaigns become resumable and re-runs
//! touch only the dirty points.

pub mod chaos;
pub mod cosim;
pub mod dense;
pub mod epcheck;
pub mod fleet;
pub mod mcu8check;
pub mod measure;
pub mod perf;
pub mod report;
pub mod store;
pub mod table;
pub mod tracegen;

pub use measure::{measure_table4, SystemSide, Table4Row};
pub use table::TableWriter;
