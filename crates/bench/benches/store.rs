//! Benches of the campaign store: the same small co-sim grid run cold
//! (every point a miss: simulate + append) and fully warm (every point
//! a hit: served from the store), so the checked-in `BENCH_store.json`
//! records the cache's real payoff — the warm pass must be measurably
//! faster than the cold one, since a hit is one digest probe plus a
//! clone where a miss is a whole co-simulation. Byte-identity between
//! the two is asserted elsewhere (`tests/store.rs`); here only the
//! wall-clock is interesting.
//!
//! Runs on the in-tree `ulp_testkit::bench` harness (offline, zero
//! external crates).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use ulp_bench::cosim::{run_cosim, CosimConfig};
use ulp_bench::fleet::{Cell, Coords, Sweep};
use ulp_bench::store::{run_stored, Store};

/// The small co-sim grid `benches/fleet.rs` also uses (8 points, a few
/// ms each), so the cold/warm split here reads directly against the
/// engine's own serial/parallel split there.
fn build_small_cosim_sweep() -> Sweep<CosimConfig> {
    let mut sweep = Sweep::new("bench-store", &["sent", "energy_j"]);
    for nodes in [4usize, 8] {
        for seed in 0..4u64 {
            sweep.push(
                Coords::new().with("nodes", nodes).with("seed", seed),
                CosimConfig {
                    nodes,
                    seed,
                    horizon_slots: 4_000,
                    ..CosimConfig::default()
                },
            );
        }
    }
    sweep
}

fn eval(_: &Coords, cfg: &CosimConfig) -> Vec<Cell> {
    let s = run_cosim(cfg);
    vec![Cell::U64(s.sent), Cell::F64(s.energy_j)]
}

fn key_of(_: &Coords, cfg: &CosimConfig) -> String {
    cfg.store_key()
}

/// A fresh scratch directory per invocation — cold runs must never see
/// a previous iteration's store.
fn fresh_dir() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ulp-store-bench-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Cold: open an empty store, execute and append every point.
fn run_cold(sweep: &Sweep<CosimConfig>) -> usize {
    let dir = fresh_dir();
    let mut store = Store::open(&dir).expect("open scratch store");
    let results = run_stored(sweep, &mut store, 2, None, key_of, eval, &())
        .expect("bench sweep has no failing points");
    let n = results.rows().len();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    n
}

/// Warm: serve every point from an already-filled store (reopened from
/// disk once, outside the timed body, like a real resumed campaign).
fn run_warm(sweep: &Sweep<CosimConfig>, store: &mut Store) -> usize {
    let results = run_stored(sweep, store, 2, None, key_of, eval, &())
        .expect("bench sweep has no failing points");
    results.rows().len()
}

fn main() {
    use ulp_testkit::bench::{Harness, Throughput};
    let sweep = build_small_cosim_sweep();
    let points = sweep.len() as u64;

    // Fill one store up front for the warm side.
    let warm_dir = fresh_dir();
    let mut warm_store = Store::open(&warm_dir).expect("open warm store");
    run_stored(&sweep, &mut warm_store, 2, None, key_of, eval, &()).expect("prefill");

    let mut h = Harness::from_args("store");
    h.group("store").throughput(Throughput::Elements(points));
    h.bench("campaign_small/cold_miss", || run_cold(&sweep));
    h.bench("campaign_small/warm_hit", || {
        run_warm(&sweep, &mut warm_store)
    });
    h.finish();
    drop(warm_store);
    let _ = std::fs::remove_dir_all(&warm_dir);
}
