//! Benches of the event-driven co-simulation path: the same workload
//! driven by the slot-stepped loop and by the event loop, so the
//! checked-in `BENCH_net.json` records sim-events/sec for both and the
//! scaling win is a tracked number instead of a claim. The `event_wheel`
//! ids predate the binary-heap scheduler and keep their names so the
//! `BENCH_net.json` history stays comparable.
//!
//! Throughput is annotated in *slot-equivalent touches* (nodes ×
//! horizon slots — the work a poll-everything loop does by definition),
//! so the elem/s figures of the two drivers are directly comparable:
//! the event loop clears the same simulated workload in a fraction of the
//! wall-clock because it only touches nodes with pending events
//! (`tests/net_scale.rs` pins the byte-identity of the results; here
//! only the wall-clock is interesting). The dense group does the same
//! for one 64-node spatial tile on the CSMA channel.
//!
//! Runs on the in-tree `ulp_testkit::bench` harness (offline, zero
//! external crates).

use ulp_bench::cosim::{run_cosim, run_cosim_event, CosimConfig};
use ulp_bench::dense::{run_tile, DenseConfig};

/// Small enough to bench, busy enough that both drivers do real work:
/// 32 forwarding nodes flooding for 6k slots.
fn cosim_cfg() -> CosimConfig {
    CosimConfig {
        nodes: 32,
        horizon_slots: 6_000,
        ..CosimConfig::default()
    }
}

/// One full 64-node spatial tile at the default density and duty.
fn tile_cfg() -> DenseConfig {
    DenseConfig {
        nodes: 64,
        horizon_slots: 10_000,
        ..DenseConfig::default()
    }
}

fn main() {
    use ulp_testkit::bench::{Harness, Throughput};
    let cosim = cosim_cfg();
    let cosim_touches = cosim.nodes as u64 * cosim.horizon_slots;
    let tile = tile_cfg();
    let tile_touches = tile.nodes as u64 * tile.horizon_slots;

    let mut h = Harness::from_args("net");
    h.group("cosim_driver")
        .throughput(Throughput::Elements(cosim_touches));
    h.bench("slot_stepped", || run_cosim(&cosim));
    h.bench("event_wheel", || run_cosim_event(&cosim));
    h.group("dense_tile")
        .throughput(Throughput::Elements(tile_touches));
    h.bench("event_wheel_csma", || run_tile(&tile, 0));
    h.finish();
}
