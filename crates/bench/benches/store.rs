//! Benches of the campaign store: the same small co-sim grid run cold
//! (every point a miss: simulate + append) and fully warm (every point
//! a hit: served from the store), so the checked-in `BENCH_store.json`
//! records the cache's real payoff — the warm pass must be measurably
//! faster than the cold one, since a hit is one digest probe plus a
//! clone where a miss is a whole co-simulation. Byte-identity between
//! the two is asserted elsewhere (`tests/store.rs`); here only the
//! wall-clock is interesting.
//!
//! Two more ids time the store alone on a resumed chaos campaign, the
//! one the benchmark's `campaign_resume` workload resumes at seed 0:
//! `store/open/resume_torn` restores the interrupted segment (5,759
//! records and a torn tail, 1,921,871 B) and opens it, which repairs
//! it, and `store/lookup/chaos_6144` builds every grid point's key and
//! looks it up in the opened store, as `run_stored`'s hit path does.
//!
//! Runs on the in-tree `ulp_testkit::bench` harness (offline, zero
//! external crates).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use ulp_bench::chaos::{self, ChaosApp, ChaosConfig};
use ulp_bench::cosim::{run_cosim, CosimConfig};
use ulp_bench::fleet::{Cell, Coords, Sweep};
use ulp_bench::store::{canonical_key, run_stored, Store};
use ulp_testkit::digest::digest64;

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

/// The chaos campaign `campaign_resume` resumes at seed 0, filled into
/// a store with every 16th seed missing and the last record cut in
/// half, as a kill mid-append leaves it. Returns the whole grid and the
/// torn segment's bytes.
fn interrupted_chaos() -> (Sweep<ChaosConfig>, Vec<u8>) {
    let apps = [ChaosApp::Sample, ChaosApp::Filtered, ChaosApp::Forwarding];
    let sweep = chaos::campaign(&apps, &[0.0, 1e-4, 1e-3, 1e-2], 512, 30_000);
    let mut filled = Sweep::new(sweep.name(), chaos::METRICS);
    for (coords, cfg) in sweep.points().filter(|(_, c)| c.seed % 16 != 0) {
        filled.push(coords.clone(), cfg.clone());
    }
    let dir = fresh_dir();
    let mut store = Store::open(&dir).expect("open scratch store");
    run_stored(
        &filled,
        &mut store,
        2,
        None,
        |_, c: &ChaosConfig| c.store_key(),
        |_, c: &ChaosConfig| chaos::cells(&chaos::run_chaos(c)),
        &(),
    )
    .expect("chaos points do not fail");
    drop(store);
    let bytes = std::fs::read(dir.join("seg-main.ndjson")).expect("read the filled segment");
    let _ = std::fs::remove_dir_all(&dir);
    let last = bytes[..bytes.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    let torn = bytes[..last + (bytes.len() - last) / 2].to_vec();
    (sweep, torn)
}

/// Every point's key built and looked up, as on `run_stored`'s hit
/// path; returns the hits.
fn lookup_all(sweep: &Sweep<ChaosConfig>, store: &mut Store) -> usize {
    let fingerprint = store.fingerprint().to_string();
    sweep
        .points()
        .filter(|(coords, cfg)| {
            let key = canonical_key(coords, &cfg.store_key(), &fingerprint);
            let hit = store.lookup(digest64(key.as_bytes()), &key, chaos::METRICS.len());
            hit.is_some()
        })
        .count()
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

    let (chaos_sweep, torn) = interrupted_chaos();
    let resume_dir = fresh_dir();
    std::fs::create_dir_all(&resume_dir).expect("create resume store");
    let segment = resume_dir.join("seg-main.ndjson");
    let records = chaos_sweep.len() - chaos_sweep.len() / 16 - 1;
    h.throughput(Throughput::Elements(records as u64));
    h.bench("open/resume_torn", || {
        std::fs::write(&segment, &torn).expect("restore the torn segment");
        Store::open(&resume_dir).expect("open resume store").len()
    });
    let mut resumed = Store::open(&resume_dir).expect("open resume store");
    assert_eq!(resumed.len(), records, "the resumed store lost records");
    h.throughput(Throughput::Elements(chaos_sweep.len() as u64));
    h.bench("lookup/chaos_6144", || {
        lookup_all(&chaos_sweep, &mut resumed)
    });
    h.finish();
    drop(warm_store);
    let _ = std::fs::remove_dir_all(&warm_dir);
    let _ = std::fs::remove_dir_all(&resume_dir);
}
