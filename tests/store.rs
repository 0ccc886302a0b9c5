//! Guardrails for the content-addressed campaign store
//! (`ulp_bench::store`), the differential archetype of this layer: a
//! warm cache must be *indistinguishable* from a cold run in every
//! serialized byte, whatever mix of hits, misses, shards, crashes, and
//! corruption produced the store. The battery holds that as properties:
//!
//! * cold == warm == mixed hit/miss, byte-for-byte (CSV, JSON), over
//!   random grids, payloads, and thread counts;
//! * a store filled by `--shard i/n` workers in any order merges to the
//!   single-process bytes;
//! * truncating the store at *every* byte boundary of the last record
//!   (a simulated mid-campaign kill) drops only the torn tail, and the
//!   re-run executes exactly the dirty points;
//! * seeded bit flips in committed records are detected by checksum,
//!   reported in the stats, and recomputed — never served;
//! * the point digest changes iff (config, seed, code-version/epoch)
//!   changes, is insensitive to `Coords` axis reordering, and one
//!   digest is pinned in a golden so canonicalization can never drift
//!   silently;
//! * the ISSUE acceptance scenario: the 1024-node dense sweep, killed
//!   partway (half the grid in the store), resumes to bytes identical
//!   to `tests/golden/dense_sweep.txt` with stats proving only the
//!   dirty tiles re-executed, and a fully-warm re-run executes zero.

use std::path::PathBuf;
use std::sync::Mutex;

use ulp_bench::fleet::{Cell, Coords, Sweep, SweepObserver};
use ulp_bench::store::{canonical_key, point_digest, run_stored, Shard, Store};
use ulp_testkit::digest::{digest64, hex16};
use ulp_testkit::{from_fn, prop_assert, prop_assert_eq, props, Rng};

/// A unique scratch store directory (tests run concurrently in one
/// process, so the test name alone is not enough across repeated
/// property cases — callers add their own counter when needed).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ulp-store-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------
// Random grids (same idiom as tests/fleet.rs)
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct GridSpec {
    a: u64,
    b: u64,
    mix: u64,
    threads: usize,
    shards: usize,
    case: u64,
}

fn arb_grid() -> impl ulp_testkit::Gen<Value = GridSpec> {
    from_fn(|rng: &mut Rng| GridSpec {
        a: rng.gen_range(0u64..6),
        b: rng.gen_range(1u64..5),
        mix: rng.next_u64(),
        threads: rng.gen_range(1usize..7),
        shards: rng.gen_range(2usize..5),
        case: rng.next_u64(),
    })
}

fn build(spec: &GridSpec) -> Sweep<(u64, u64)> {
    let mut sweep = Sweep::new("store-prop", &["mixed", "ratio", "label"]);
    for a in 0..spec.a {
        for b in 0..spec.b {
            sweep.push(Coords::new().with("a", a).with("b", b), (a, b));
        }
    }
    sweep
}

fn eval(mix: u64) -> impl Fn(&Coords, &(u64, u64)) -> Vec<Cell> + Sync {
    move |_, &(a, b)| {
        let mut h = mix ^ (a << 32) ^ b;
        for _ in 0..((a + b) % 13) * 50 {
            h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
        }
        vec![
            Cell::U64(h),
            // Deliberately awkward floats: the store must roundtrip the
            // exact shortest-decimal bytes, not just "close enough".
            Cell::F64((h as f64 / u64::MAX as f64) * 0.1 + a as f64 / 3.0),
            Cell::Text(format!("p{a}-{b}")),
        ]
    }
}

fn key_of(_: &Coords, &(a, b): &(u64, u64)) -> String {
    format!("prop:a={a};b={b}")
}

props! {
    /// The differential core: a cold stored run, a reopened fully-warm
    /// run, and a mixed hit/miss run (store pre-filled by one shard)
    /// all serialize to exactly the bytes of a plain storeless run —
    /// for random grids, payloads, and thread counts — and the store
    /// stats account for every point.
    #[test]
    fn cold_warm_and_mixed_runs_are_byte_identical(spec in arb_grid()) {
        let sweep = build(&spec);
        let f = eval(spec.mix);
        let plain = sweep.run(spec.threads, &f).unwrap();
        let dir = scratch(&format!("diff-{}-{}", spec.case, std::thread::current().name().unwrap_or("t").len()));

        // Cold: every point misses, executes, appends.
        let mut store = Store::open(&dir).unwrap();
        let cold = run_stored(&sweep, &mut store, spec.threads, None, key_of, &f, &()).unwrap();
        prop_assert_eq!(cold.to_csv(), plain.to_csv());
        prop_assert_eq!(cold.to_json(), plain.to_json());
        prop_assert_eq!(store.stats().misses as usize, sweep.len());
        prop_assert_eq!(store.stats().appended as usize, sweep.len());
        drop(store);

        // Warm: reopen, every point must be served.
        let mut store = Store::open(&dir).unwrap();
        let warm = run_stored(&sweep, &mut store, spec.threads, None, key_of, &f, &()).unwrap();
        prop_assert_eq!(warm.to_csv(), plain.to_csv());
        prop_assert_eq!(warm.to_json(), plain.to_json());
        prop_assert_eq!(store.stats().hits as usize, sweep.len());
        prop_assert_eq!(store.stats().misses, 0);
        drop(store);

        // Mixed: a fresh store pre-filled with only shard 0's points,
        // then a full run — hits and misses interleave across the grid.
        let dir2 = scratch(&format!("mix-{}", spec.case));
        let shard = Shard { index: 0, of: spec.shards };
        let mut store = Store::open(&dir2).unwrap();
        store.set_writer_label(&shard.label());
        run_stored(&sweep, &mut store, spec.threads, Some(shard), key_of, &f, &()).unwrap();
        let prefilled = store.stats().appended as usize;
        drop(store);
        let mut store = Store::open(&dir2).unwrap();
        let mixed = run_stored(&sweep, &mut store, spec.threads, None, key_of, &f, &()).unwrap();
        prop_assert_eq!(mixed.to_csv(), plain.to_csv());
        prop_assert_eq!(mixed.to_json(), plain.to_json());
        prop_assert_eq!(store.stats().hits as usize, prefilled);
        prop_assert_eq!(store.stats().misses as usize, sweep.len() - prefilled);

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    /// Shard workers filling one store in any order (here: reversed and
    /// with a re-filled duplicate shard) still merge to the
    /// single-process bytes, and the merge executes nothing.
    #[test]
    fn shard_fill_order_does_not_matter(spec in arb_grid()) {
        let sweep = build(&spec);
        let f = eval(spec.mix);
        let plain = sweep.run(spec.threads, &f).unwrap();
        let dir = scratch(&format!("shardorder-{}", spec.case));

        // Fill shards highest-first, each with its own Store handle —
        // the worker processes of a real campaign, serialized here.
        for index in (0..spec.shards).rev() {
            let shard = Shard { index, of: spec.shards };
            let mut store = Store::open(&dir).unwrap();
            store.set_writer_label(&shard.label());
            run_stored(&sweep, &mut store, spec.threads, Some(shard), key_of, &f, &()).unwrap();
        }
        // One shard ran twice (a retried worker): duplicate records are
        // last-wins identical, so the merge must not notice.
        let shard = Shard { index: 0, of: spec.shards };
        let mut store = Store::open(&dir).unwrap();
        store.set_writer_label("retry");
        run_stored(&sweep, &mut store, spec.threads, Some(shard), key_of, &f, &()).unwrap();
        drop(store);

        let mut store = Store::open(&dir).unwrap();
        let merged = run_stored(&sweep, &mut store, spec.threads, None, key_of, &f, &()).unwrap();
        prop_assert_eq!(merged.to_csv(), plain.to_csv());
        prop_assert_eq!(merged.to_json(), plain.to_json());
        prop_assert_eq!(store.stats().misses, 0);
        prop_assert_eq!(store.stats().hits as usize, sweep.len());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Crash recovery: truncation at every byte boundary
// ---------------------------------------------------------------------

/// Simulate a mid-campaign kill at *every* possible byte boundary of
/// the last record: reopening must drop exactly the torn tail (never a
/// complete record), the re-run must execute exactly the dirty points,
/// and the final bytes must equal the cold run's.
#[test]
fn truncation_at_every_byte_boundary_recovers() {
    let mut sweep = Sweep::new("crash", &["v", "x"]);
    for i in 0..5u64 {
        sweep.push(Coords::new().with("i", i), i);
    }
    let f = |_: &Coords, &i: &u64| vec![Cell::U64(i * 1_000_003), Cell::F64(i as f64 + 0.125)];
    let k = |_: &Coords, &i: &u64| format!("crash:{i}");
    let plain = sweep.run(2, f).unwrap();

    let dir = scratch("truncate");
    let mut store = Store::open(&dir).unwrap();
    run_stored(&sweep, &mut store, 2, None, k, f, &()).unwrap();
    drop(store);
    let seg = dir.join("seg-main.ndjson");
    let full = std::fs::read(&seg).unwrap();
    // Records are newline-framed and contain no interior newlines, so
    // the last record starts right after the second-to-last newline.
    let last_start = full[..full.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .map(|p| p + 1)
        .unwrap_or(0);

    for cut in last_start..full.len() {
        std::fs::write(&seg, &full[..cut]).unwrap();
        let mut store = Store::open(&dir).unwrap();
        let torn = store.stats().torn;
        assert_eq!(
            store.stats().records,
            4,
            "cut at byte {cut}: exactly the complete records must survive"
        );
        assert_eq!(
            torn,
            u64::from(cut > last_start),
            "cut at byte {cut}: a non-empty partial frame is one torn tail"
        );
        // Resume: exactly the one dirty point re-executes…
        let resumed = run_stored(&sweep, &mut store, 2, None, k, f, &()).unwrap();
        assert_eq!(store.stats().misses, 1, "cut at byte {cut}");
        assert_eq!(store.stats().hits, 4, "cut at byte {cut}");
        // …and the bytes are the cold run's, exactly.
        assert_eq!(resumed.to_csv(), plain.to_csv(), "cut at byte {cut}");
        assert_eq!(resumed.to_json(), plain.to_json(), "cut at byte {cut}");
        // The resume repaired and re-appended: later opens are clean.
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.stats().records, 5, "cut at byte {cut}");
        assert_eq!(
            store.stats().torn + store.stats().corrupt,
            0,
            "cut at byte {cut}"
        );
        // Restore the intact file for the next truncation point.
        std::fs::write(&seg, &full).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Corruption robustness: seeded bit flips
// ---------------------------------------------------------------------

/// Flip one random bit anywhere in a committed segment (seeded via
/// ulp-testkit): the damaged record must be detected (checksum, frame,
/// or digest/key cross-check), counted loudly in the stats, and
/// recomputed — the re-run's bytes never change. Depending on where the
/// flip lands, framing desync can drop later records too; they likewise
/// recompute.
#[test]
fn bit_flips_are_detected_and_recomputed_never_served() {
    let mut sweep = Sweep::new("bitflip", &["v", "t"]);
    for i in 0..6u64 {
        sweep.push(Coords::new().with("i", i), i);
    }
    let f = |_: &Coords, &i: &u64| {
        vec![
            Cell::U64(i.wrapping_mul(0x2545_F491_4F6C_DD1D)),
            Cell::Text(format!("cell-{i}")),
        ]
    };
    let k = |_: &Coords, &i: &u64| format!("flip:{i}");
    let plain = sweep.run(2, f).unwrap();

    let dir = scratch("bitflip");
    let mut store = Store::open(&dir).unwrap();
    run_stored(&sweep, &mut store, 2, None, k, f, &()).unwrap();
    drop(store);
    let seg = dir.join("seg-main.ndjson");
    let full = std::fs::read(&seg).unwrap();

    let mut rng = Rng::from_seed(0xB17F_11B5);
    for round in 0..200 {
        let byte = rng.gen_range(0..full.len());
        let bit = rng.gen_range(0u32..8);
        let mut damaged = full.clone();
        damaged[byte] ^= 1 << bit;
        std::fs::write(&seg, &damaged).unwrap();

        let mut store = Store::open(&dir).unwrap();
        let detected = store.stats().corrupt + store.stats().torn;
        assert!(
            detected >= 1,
            "round {round}: flip of byte {byte} bit {bit} went undetected"
        );
        assert!(
            store.stats().records < 6,
            "round {round}: a damaged segment cannot still serve all records"
        );
        let resumed = run_stored(&sweep, &mut store, 2, None, k, f, &()).unwrap();
        assert_eq!(
            store.stats().misses,
            6 - store.stats().records,
            "round {round}: exactly the dropped records recompute"
        );
        assert_eq!(resumed.to_csv(), plain.to_csv(), "round {round}");
        assert_eq!(resumed.to_json(), plain.to_json(), "round {round}");
        drop(store);
        std::fs::write(&seg, &full).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The digest-key collision guard: a lookup whose digest exists but
/// whose stored key (or cell arity) disagrees is a counted collision
/// and a miss — the stored cells are never served across it.
#[test]
fn collision_guard_recomputes_on_key_or_arity_mismatch() {
    let dir = scratch("collision");
    let mut store = Store::open(&dir).unwrap();
    store
        .append("real-key", &[Cell::U64(1), Cell::U64(2)])
        .unwrap();
    let digest = digest64(b"real-key");

    // Honest lookup serves.
    assert!(store.lookup(digest, "real-key", 2).is_some());
    // Same digest, different key: the guard fires.
    assert!(store.lookup(digest, "impostor-key", 2).is_none());
    // Same digest and key, wrong arity (metric columns changed without
    // an epoch bump): the guard fires too.
    assert!(store.lookup(digest, "real-key", 3).is_none());
    assert_eq!(store.stats().collisions, 2);
    assert_eq!(store.stats().hits, 1);
    assert_eq!(store.stats().misses, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Invalidation: the digest changes iff the scenario changes
// ---------------------------------------------------------------------

props! {
    /// Sensitivity per field and insensitivity to axis reordering: two
    /// points share a digest iff their (sorted coords, payload,
    /// fingerprint) agree.
    #[test]
    fn digest_changes_iff_scenario_changes(seed in ulp_testkit::any_u64()) {
        let mut rng = Rng::from_seed(seed);
        let nodes = rng.gen_range(1u64..1000);
        let s = rng.gen_range(0u64..100);
        let coords = Coords::new().with("nodes", nodes).with("seed", s);
        let payload = format!("cfg:slots={}", rng.gen_range(1u64..100_000));
        let fp = format!("v0.1.0+e{}", rng.gen_range(0u64..10));
        let base = point_digest(&coords, &payload, &fp);

        // Insensitive: axis order is not part of the scenario.
        let reordered = Coords::new().with("seed", s).with("nodes", nodes);
        prop_assert_eq!(point_digest(&reordered, &payload, &fp), base);

        // Sensitive: every field of the scenario moves the digest.
        let other_value = Coords::new().with("nodes", nodes + 1).with("seed", s);
        prop_assert!(point_digest(&other_value, &payload, &fp) != base);
        let other_seed = Coords::new().with("nodes", nodes).with("seed", s + 1);
        prop_assert!(point_digest(&other_seed, &payload, &fp) != base);
        let renamed = Coords::new().with("nodez", nodes).with("seed", s);
        prop_assert!(point_digest(&renamed, &payload, &fp) != base);
        prop_assert!(point_digest(&coords, &format!("{payload};x"), &fp) != base);
        prop_assert!(point_digest(&coords, &payload, &format!("{fp}0")) != base);
    }
}

/// Pin one digest (and its canonical key) in a golden file, so any
/// accidental change to the canonicalization — axis sorting, escaping,
/// separator layout, or the hash itself — is caught as a reviewable
/// diff, not silently as a fleet-wide cache invalidation.
#[test]
fn canonical_digest_is_pinned() {
    let coords = Coords::new()
        .with("seed", 3)
        .with("nodes", 64)
        .with("loss", 0.1)
        .with("note", "a;b=c|d\\e");
    let payload = "cosim:nodes=64;loss=0.1;seed=3;slots=12000;head=3000;relay=40000";
    let fingerprint = "v0.1.0+e";
    let key = canonical_key(&coords, payload, fingerprint);
    let digest = point_digest(&coords, payload, fingerprint);
    let actual = format!("key: {key}\ndigest: {}\n", hex16(digest));

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/store_digest.txt");
    if std::env::var_os("ULP_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with ULP_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "the canonical key/digest recipe drifted; if intentional, bump \
         ULP_STORE_EPOCH semantics in DESIGN.md and regenerate with \
         ULP_UPDATE_GOLDEN=1"
    );
}

/// The records `tests/golden/store_record.ndjson` pins: hostile text
/// (every escaped character plus non-ASCII), an empty cell list, the
/// extreme `u64`, and subnormal/signed-zero floats.
fn pinned_records() -> Vec<(String, Vec<Cell>)> {
    let hostile = "q\"b\\n\nr\rt\tc\u{1}d\u{1f}e\u{7f} é ☃ 😀";
    vec![
        (
            format!("key={hostile};|payload|v0.1.0+e"),
            vec![
                Cell::Text(hostile.to_string()),
                Cell::U64(7),
                Cell::F64(0.1),
            ],
        ),
        ("empty-cells".to_string(), vec![]),
        (
            "extremes".to_string(),
            vec![Cell::U64(u64::MAX), Cell::U64(0)],
        ),
        (
            "floats".to_string(),
            vec![
                Cell::F64(f64::from_bits(1)),
                Cell::F64(-f64::from_bits(0x000F_FFFF_FFFF_FFFF)),
                Cell::F64(-0.0),
                Cell::F64(f64::MAX),
                Cell::F64(-3.25e-7),
            ],
        ),
        ("text-only".to_string(), vec![Cell::Text(String::new())]),
    ]
}

/// Pin the on-disk record bytes: the writer must reproduce the golden
/// segment byte for byte, and the reader must load it with nothing
/// dropped and every cell intact. An escaping change would otherwise
/// silently turn every existing store into misses.
#[test]
fn record_bytes_are_pinned() {
    let records = pinned_records();
    let dir = scratch("record-golden");
    let mut store = Store::open(&dir).unwrap();
    for (key, cells) in &records {
        store.append(key, cells).unwrap();
    }
    drop(store);
    let actual = std::fs::read(dir.join("seg-main.ndjson")).unwrap();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/store_record.ndjson");
    if std::env::var_os("ULP_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap();
    }
    let expected = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with ULP_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "store record bytes drifted from the golden:\n--- golden\n{}\n+++ actual\n{}",
        String::from_utf8_lossy(&expected),
        String::from_utf8_lossy(&actual)
    );

    // A store holding only the golden segment loads every record.
    let golden_dir = scratch("record-golden-load");
    std::fs::create_dir_all(&golden_dir).unwrap();
    std::fs::write(golden_dir.join("seg-golden.ndjson"), &expected).unwrap();
    let mut store = Store::open(&golden_dir).unwrap();
    assert_eq!(store.stats().corrupt, 0);
    assert_eq!(store.stats().torn, 0);
    assert_eq!(store.stats().records, records.len() as u64);
    for (key, cells) in &records {
        let served = store.lookup(digest64(key.as_bytes()), key, cells.len());
        // Debug, not `==`: it tells -0.0 from 0.0.
        assert_eq!(
            format!("{served:?}"),
            format!("{:?}", Some(cells)),
            "{key:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&golden_dir);
}

// ---------------------------------------------------------------------
// The ISSUE acceptance scenario: dense campaign killed and resumed
// ---------------------------------------------------------------------

/// The 1024-node dense sweep (16 spatial tiles), run "cold, killed
/// partway, then resumed": the kill is simulated by a store holding
/// only shard 0/2's tiles. The resume must execute exactly the 8 dirty
/// tiles (proven by store stats), reproduce `tests/golden/dense_sweep.txt`
/// byte-for-byte, and a fully-warm re-run must execute zero points.
#[test]
fn dense_campaign_resumes_to_golden_bytes() {
    use ulp_bench::dense::{dense_eval, dense_report, dense_store_key, dense_sweep, DenseConfig};

    let sweep = dense_sweep(&[DenseConfig::default()]);
    assert_eq!(sweep.len(), 16, "1024 nodes = 16 tiles of 64");
    let dir = scratch("dense-resume");

    // "Killed partway": half the grid made it into the store.
    let shard = Shard { index: 0, of: 2 };
    let mut store = Store::open(&dir).unwrap();
    store.set_writer_label(&shard.label());
    run_stored(
        &sweep,
        &mut store,
        2,
        Some(shard),
        dense_store_key,
        dense_eval,
        &(),
    )
    .unwrap();
    assert_eq!(store.stats().appended, 8);
    drop(store);

    // Resume: only the 8 dirty tiles execute; the report is the golden.
    let mut store = Store::open(&dir).unwrap();
    let resumed = run_stored(
        &sweep,
        &mut store,
        2,
        None,
        dense_store_key,
        dense_eval,
        &(),
    )
    .unwrap();
    assert_eq!(store.stats().hits, 8, "served tiles");
    assert_eq!(store.stats().misses, 8, "re-executed (dirty) tiles");
    let report = dense_report(&resumed);
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/dense_sweep.txt");
    let expected = std::fs::read_to_string(&golden).expect("golden dense_sweep.txt exists");
    assert_eq!(
        report, expected,
        "resumed campaign must reproduce the golden bytes"
    );
    drop(store);

    // Fully warm: zero executions, same bytes again.
    let mut store = Store::open(&dir).unwrap();
    let warm = run_stored(
        &sweep,
        &mut store,
        2,
        None,
        dense_store_key,
        dense_eval,
        &(),
    )
    .unwrap();
    assert_eq!(store.stats().misses, 0, "a warm campaign executes nothing");
    assert_eq!(store.stats().hits, 16);
    assert_eq!(dense_report(&warm), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Epoch/version invalidation end-to-end: bumping the store's
/// fingerprint (what `ULP_STORE_EPOCH` does at the CLI) turns every
/// cached point into a miss — stale results are never served across a
/// code-version change.
#[test]
fn fingerprint_bump_invalidates_the_whole_store() {
    let mut sweep = Sweep::new("epoch", &["v"]);
    for i in 0..4u64 {
        sweep.push(Coords::new().with("i", i), i);
    }
    let f = |_: &Coords, &i: &u64| vec![Cell::U64(i + 7)];
    let k = |_: &Coords, &i: &u64| format!("epoch:{i}");

    let dir = scratch("epoch");
    let mut store = Store::open(&dir).unwrap();
    store.set_fingerprint("v0.1.0+e1");
    run_stored(&sweep, &mut store, 2, None, k, f, &()).unwrap();
    drop(store);

    // Same epoch: all hits.
    let mut store = Store::open(&dir).unwrap();
    store.set_fingerprint("v0.1.0+e1");
    run_stored(&sweep, &mut store, 2, None, k, f, &()).unwrap();
    assert_eq!((store.stats().hits, store.stats().misses), (4, 0));
    drop(store);

    // Bumped epoch: all misses, recomputed and appended under new keys.
    let mut store = Store::open(&dir).unwrap();
    store.set_fingerprint("v0.1.0+e2");
    run_stored(&sweep, &mut store, 2, None, k, f, &()).unwrap();
    assert_eq!((store.stats().hits, store.stats().misses), (0, 4));
    assert_eq!(store.stats().appended, 4);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sharded stored run mixing served hits with computed misses reports
/// everything under *grid* indices: the failure names the panicking
/// point's grid index and coordinates, the observer sees each of the
/// shard's grid indices exactly once (hits and misses alike), and the
/// failed point is never appended.
#[test]
fn sharded_stored_failure_and_progress_use_grid_indices() {
    struct Counting(Mutex<Vec<usize>>);
    impl SweepObserver for Counting {
        fn point_done(&self, index: usize, _coords: &Coords) {
            self.0.lock().unwrap().push(index);
        }
    }
    let mut sweep = Sweep::new("remap", &["v"]);
    for a in 0..3u64 {
        for b in 0..4u64 {
            sweep.push(Coords::new().with("a", a).with("b", b), (a, b));
        }
    }
    // Shard 1/3 owns grid points 1, 4, 7 and 10; grid point 10 is
    // (a=2, b=2) and panics.
    let shard = Shard { index: 1, of: 3 };
    let f = |_: &Coords, &(a, b): &(u64, u64)| {
        assert!(!(a == 2 && b == 2), "point diverged");
        vec![Cell::U64(a * 10 + b)]
    };
    let k = |_: &Coords, &(a, b): &(u64, u64)| format!("remap:{a}-{b}");
    let key_at = |store: &Store, i: usize| {
        let (coords, payload) = sweep.points().nth(i).unwrap();
        canonical_key(coords, &k(coords, payload), store.fingerprint())
    };

    // Serve grid points 1 and 7 from the store; 4 and 10 miss.
    let dir = scratch("remap");
    let mut store = Store::open(&dir).unwrap();
    for i in [1, 7] {
        let key = key_at(&store, i);
        store.append(&key, &[Cell::U64(i as u64)]).unwrap();
    }
    drop(store);

    let mut store = Store::open(&dir).unwrap();
    let seen = Counting(Mutex::new(Vec::new()));
    let err = run_stored(&sweep, &mut store, 2, Some(shard), k, f, &seen).unwrap_err();
    assert_eq!(err.failures.len(), 1, "{err}");
    let failure = &err.failures[0];
    assert_eq!(failure.index, 10, "{err}");
    assert_eq!(failure.coords.get("a"), Some("2"));
    assert_eq!(failure.coords.get("b"), Some("2"));
    assert!(
        err.to_string()
            .contains("point #10 [a=2 b=2]: point diverged"),
        "{err}"
    );
    let mut seen = seen.0.into_inner().unwrap();
    seen.sort_unstable();
    assert_eq!(
        seen,
        vec![1, 4, 7, 10],
        "each selected grid index exactly once"
    );
    assert_eq!(store.stats().hits, 2);
    drop(store);

    let mut store = Store::open(&dir).unwrap();
    let failed = key_at(&store, 10);
    assert!(store
        .lookup(digest64(failed.as_bytes()), &failed, 1)
        .is_none());
    let _ = std::fs::remove_dir_all(&dir);
}
