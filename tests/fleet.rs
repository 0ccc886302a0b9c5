//! Guardrails for the parallel sweep engine (`ulp_bench::fleet`): the
//! determinism contract — parallel and serial execution produce
//! byte-identical `SweepResults` — held as a *property* over random
//! grids, closures, and thread counts; panic-in-worker reporting with
//! scenario coordinates; and the real co-simulation sweep the `fleet`
//! binary ships and the Figure 6 cross-check sweep `repro` runs, each
//! double-run across thread counts with its JSON checked by the in-tree
//! validator.

use ulp_apps::workload::profile_event;
use ulp_bench::cosim::{run_cosim, CosimConfig};
use ulp_bench::fleet::{measure_speedup, Cell, Coords, Sweep};
use ulp_bench::report::fig6_crosscheck_sweep;
use ulp_testkit::json;
use ulp_testkit::{from_fn, prop_assert, prop_assert_eq, props, Rng};

/// A random (but seed-deterministic) grid description: axis sizes,
/// a mixing constant for the fake per-point workload, and the thread
/// count to race the serial run against.
#[derive(Debug, Clone)]
struct GridSpec {
    a: u64,
    b: u64,
    mix: u64,
    threads: usize,
}

fn arb_grid() -> impl ulp_testkit::Gen<Value = GridSpec> {
    from_fn(|rng: &mut Rng| GridSpec {
        a: rng.gen_range(0u64..7),
        b: rng.gen_range(1u64..6),
        mix: rng.next_u64(),
        threads: rng.gen_range(2usize..9),
    })
}

fn build(spec: &GridSpec) -> Sweep<(u64, u64)> {
    let mut sweep = Sweep::new("prop-grid", &["mixed", "ratio", "label"]);
    for a in 0..spec.a {
        for b in 0..spec.b {
            sweep.push(Coords::new().with("a", a).with("b", b), (a, b));
        }
    }
    sweep
}

fn eval(mix: u64) -> impl Fn(&Coords, &(u64, u64)) -> Vec<Cell> + Sync {
    move |_, &(a, b)| {
        // A little arithmetic churn so points finish in scheduler-
        // dependent order; the result stays a pure function of (a, b).
        let mut h = mix ^ (a << 32) ^ b;
        for _ in 0..((a + b) % 17) * 100 {
            h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
        }
        vec![
            Cell::U64(h),
            Cell::F64((a as f64 + 1.0) / (b as f64 + 1.0)),
            Cell::Text(format!("p{a}-{b}")),
        ]
    }
}

props! {
    /// Parallel and serial execution of a random grid produce
    /// byte-identical CSV and JSON, for any thread count.
    #[test]
    fn parallel_equals_serial_bytes(spec in arb_grid()) {
        let sweep = build(&spec);
        let f = eval(spec.mix);
        let serial = sweep.run(1, &f).unwrap();
        let parallel = sweep.run(spec.threads, &f).unwrap();
        prop_assert_eq!(serial.to_csv(), parallel.to_csv());
        prop_assert_eq!(serial.to_json(), parallel.to_json());
        prop_assert_eq!(serial.rows().len(), (spec.a * spec.b) as usize);
        // The JSON side of the store parses with the in-tree validator.
        prop_assert!(json::parse(&serial.to_json()).is_ok());
    }
}

/// A worker panic (here: an invalid scenario deep inside the
/// simulator) is reported with the failing grid point's coordinates,
/// and the surviving points still complete.
#[test]
fn panicking_grid_point_is_reported_with_coordinates() {
    // Silence the default panic-hook backtrace for the expected panic;
    // restore it afterwards so other tests report normally.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut sweep = Sweep::new("cosim-bad-point", &["sent"]);
    for (nodes, seed) in [(3usize, 0u64), (0, 1), (2, 2)] {
        sweep.push(
            Coords::new().with("nodes", nodes).with("seed", seed),
            CosimConfig {
                nodes, // nodes == 0 is invalid and panics in run_cosim
                seed,
                horizon_slots: 2_000,
                ..CosimConfig::default()
            },
        );
    }
    let err = sweep
        .run(2, |_, cfg| vec![Cell::U64(run_cosim(cfg).sent)])
        .unwrap_err();
    std::panic::set_hook(hook);
    assert_eq!(err.failures.len(), 1, "{err}");
    assert_eq!(err.failures[0].index, 1);
    assert_eq!(err.failures[0].coords.get("nodes"), Some("0"));
    assert_eq!(err.failures[0].coords.get("seed"), Some("1"));
    let rendered = err.to_string();
    assert!(
        rendered.contains("point #1 [nodes=0 seed=1]"),
        "error must carry the scenario coordinates:\n{rendered}"
    );
    assert!(
        rendered.contains("head node"),
        "error must carry the panic message:\n{rendered}"
    );
}

/// The shipped co-simulation sweep (a scaled-down instance of the
/// `fleet` binary's default grid) is byte-identical between
/// `ULP_FLEET_THREADS=1` and `=4`, and its JSON export is well-formed.
#[test]
fn cosim_sweep_is_thread_count_invariant() {
    let mut sweep = Sweep::new("cosim-replication", &["sent", "heard", "lost", "energy_j"]);
    for nodes in [4usize, 9] {
        for seed in 0..3u64 {
            sweep.push(
                Coords::new().with("nodes", nodes).with("seed", seed),
                CosimConfig {
                    nodes,
                    seed,
                    horizon_slots: 6_000,
                    ..CosimConfig::default()
                },
            );
        }
    }
    let eval = |_: &Coords, cfg: &CosimConfig| {
        let s = run_cosim(cfg);
        vec![
            Cell::U64(s.sent),
            Cell::U64(s.heard),
            Cell::U64(s.lost),
            Cell::F64(s.energy_j),
        ]
    };
    let (results, speedup) = measure_speedup(&sweep, 4, eval, &()).expect("no grid point may fail");
    // measure_speedup already asserted byte-identity; pin the shape.
    assert_eq!(results.rows().len(), 6);
    assert!(speedup.speedup() > 0.0);
    json::parse(&results.to_json()).expect("sweep JSON must be well-formed");
    let csv = results.to_csv();
    assert!(
        csv.starts_with("nodes,seed,sent,heard,lost,energy_j\n"),
        "unexpected CSV header:\n{csv}"
    );
    // Both same-seed points at different node counts must have run:
    // every row transmits.
    for row in results.rows() {
        assert!(matches!(row[2], Cell::U64(sent) if sent > 0), "{row:?}");
    }
}

/// The Figure 6 cross-check sweep `repro fig6_crosscheck` runs once on
/// `ULP_FLEET_THREADS` workers serializes to the same CSV and JSON bytes
/// on one worker and on four.
#[test]
fn fig6_crosscheck_sweep_is_thread_count_invariant() {
    let profile = profile_event();
    let serial = fig6_crosscheck_sweep(1532, &profile, 1).expect("no duty may fail");
    let parallel = fig6_crosscheck_sweep(1532, &profile, 4).expect("no duty may fail");
    assert!(parallel.threads() > 1, "the second run must be parallel");
    assert_eq!(serial.to_csv(), parallel.to_csv());
    assert_eq!(serial.to_json(), parallel.to_json());
    json::parse(&serial.to_json()).expect("sweep JSON must be well-formed");
    let csv = serial.to_csv();
    assert!(
        csv.starts_with("duty,analytic_uw,simulated_uw\n"),
        "unexpected CSV:\n{csv}"
    );
    assert!(serial.rows().len() > 1, "several sustainable duties");
}
