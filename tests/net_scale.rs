//! Scale guarantees of the event-driven co-simulation path.
//!
//! Three layers of byte-identity keep the scalable path honest:
//!
//! 1. **Medium**: advancing a [`SpatialMedium`] straight between event
//!    times resolves exactly like ticking it in fixed 10 µs slots —
//!    same stats, same event log, same deliveries — on random
//!    topologies and transmit schedules (property test).
//! 2. **Driver**: `run_cosim_event` (event-scheduled nodes) reproduces
//!    `run_cosim` (poll every node every slot) counter-for-counter on
//!    random configs; energy agrees to the fast-forward tolerance.
//! 3. **Fleet**: a ≥1k-node dense population sharded across fleet
//!    workers merges to byte-identical CSV whatever the thread count,
//!    and the aggregate equals the serial tile fold exactly —
//!    including the energy float, because both fold in tile order.

use ulp_bench::cosim::{run_cosim, run_cosim_event, CosimConfig};
use ulp_bench::dense::{self, DenseConfig};
use ulp_net::{ChannelConfig, SpatialMedium};
use ulp_testkit::{from_fn, prop_assert, prop_assert_eq, props, Rng};

/// One random transmit schedule: `(node, at_us, payload)` sorted by
/// request time, the order both drivers will issue them in.
fn random_schedule(rng: &mut Rng, nodes: usize) -> Vec<(usize, u64, Vec<u8>)> {
    let n = rng.gen_range(1usize..24);
    let mut reqs: Vec<(usize, u64, Vec<u8>)> = (0..n)
        .map(|_| {
            let node = rng.gen_range(0..nodes);
            // Cluster times so CSMA deferrals and overlaps are common.
            let at = rng.gen_range(0u64..40) * rng.gen_range(1u64..500);
            let len = rng.gen_range(8usize..32);
            let bytes = rng.bytes(len);
            (node, at, bytes)
        })
        .collect();
    reqs.sort_by_key(|(_, at, _)| *at);
    reqs
}

/// A random topology both media are built from, so they differ *only*
/// in how their clocks are advanced.
fn random_topology(rng: &mut Rng) -> (u64, Vec<(f64, f64)>) {
    let nodes = rng.gen_range(2usize..8);
    let seed = rng.next_u64();
    // 150 m square: mixes in-range, marginal, and out-of-range pairs
    // at the default ~63 m reception radius.
    let positions = (0..nodes)
        .map(|_| (rng.f64() * 150.0, rng.f64() * 150.0))
        .collect();
    (seed, positions)
}

fn build_medium(seed: u64, positions: &[(f64, f64)]) -> SpatialMedium {
    let mut medium = SpatialMedium::new(ChannelConfig {
        seed,
        ..ChannelConfig::default()
    });
    medium.set_event_log(true);
    for &(x, y) in positions {
        medium.place(x, y);
    }
    medium
}

props! {
    /// Layer 1: event-time advancement is byte-identical to slot
    /// ticking. Both media get the same placements and the same
    /// transmit calls in the same order; one is advanced every 10 µs,
    /// the other only at its own `next_event_time`.
    #[test]
    fn spatial_medium_is_advance_granularity_invariant(
        seed in from_fn(|rng: &mut Rng| rng.next_u64())
    ) {
        let mut rng = Rng::from_seed(seed);
        let (chan_seed, positions) = random_topology(&mut rng);
        let nodes = positions.len();
        let mut slotted = build_medium(chan_seed, &positions);
        let mut wheeled = build_medium(chan_seed, &positions);
        let schedule = random_schedule(&mut rng, nodes);
        let end_us = 60_000u64;

        // Slot-stepped reference: tick every 10 µs, issuing each
        // request when its slot comes up.
        let mut pending = schedule.clone().into_iter().peekable();
        let mut t = 0u64;
        while t <= end_us {
            while pending.peek().is_some_and(|(_, at, _)| *at <= t) {
                let (node, at, bytes) = pending.next().unwrap();
                slotted.transmit(node, at, &bytes);
            }
            slotted.advance(t);
            t += 10;
        }

        // Event-wheel path: jump straight between event times.
        for (node, at, bytes) in &schedule {
            wheeled.advance(*at);
            wheeled.transmit(*node, *at, bytes);
        }
        while let Some(t) = wheeled.next_event_time() {
            if t > end_us {
                break;
            }
            wheeled.advance(t);
        }
        wheeled.advance(end_us);

        prop_assert_eq!(slotted.stats(), wheeled.stats());
        prop_assert_eq!(slotted.events(), wheeled.events());
        for node in 0..nodes {
            prop_assert_eq!(
                slotted.poll(node, end_us),
                wheeled.poll(node, end_us),
                "deliveries diverged at node {}", node
            );
        }
    }

    /// Layer 2: the event-scheduled driver reproduces the slot-stepped
    /// driver on random small configs — every integer counter equal,
    /// energy within the fast-forward tolerance (idle spans are charged
    /// in one lump, which only reorders the floating-point sum).
    #[test]
    fn event_driver_replays_slot_driver_on_random_configs(
        nodes in from_fn(|rng: &mut Rng| rng.gen_range(1usize..6)),
        loss in from_fn(|rng: &mut Rng| rng.gen_range(0u64..4) as f64 * 0.08),
        seed in from_fn(|rng: &mut Rng| rng.next_u64()),
        horizon in from_fn(|rng: &mut Rng| rng.gen_range(1_000u64..5_000)),
        head_period in from_fn(|rng: &mut Rng| rng.gen_range(400u16..2_000))
    ) {
        let cfg = CosimConfig {
            nodes,
            loss,
            seed,
            horizon_slots: horizon,
            head_period,
            ..CosimConfig::default()
        };
        let slot = run_cosim(&cfg);
        let event = run_cosim_event(&cfg);
        prop_assert_eq!(
            (slot.sent, slot.delivered, slot.lost, slot.heard),
            (event.sent, event.delivered, event.lost, event.heard),
            "channel counters diverged for {:?}", cfg
        );
        prop_assert_eq!(
            (slot.radio_tx, slot.mcu_wakeups, slot.service_p99, slot.irqs_serviced),
            (event.radio_tx, event.mcu_wakeups, event.service_p99, event.irqs_serviced),
            "node counters diverged for {:?}", cfg
        );
        prop_assert!(
            (slot.energy_j - event.energy_j).abs() <= slot.energy_j.abs() * 1e-12,
            "energy diverged beyond tolerance for {:?}: {} vs {}",
            cfg, slot.energy_j, event.energy_j
        );
    }
}

/// Layer 3, the headline acceptance artifact: a 1088-node population
/// (17 tiles, one partial) completes under the fleet engine, the
/// serialized rows are byte-identical across worker counts, and the
/// sharded aggregate equals the serial fold exactly.
#[test]
fn dense_1k_population_is_worker_count_invariant() {
    let cfg = DenseConfig {
        nodes: 1_088,
        horizon_slots: 10_000,
        ..DenseConfig::default()
    };
    let serial = dense::run_dense(&cfg);
    assert_eq!(serial.nodes, 1_088);
    assert_eq!(serial.tiles, 17);
    assert!(
        serial.sent > 0,
        "a dense population must transmit: {serial:?}"
    );
    assert!(serial.sink_heard > 0, "sinks must hear traffic: {serial:?}");

    let sweep = dense::dense_sweep(std::slice::from_ref(&cfg));
    assert_eq!(sweep.len(), 17, "one grid point per tile");
    let mut csv: Option<String> = None;
    for threads in [1usize, 4] {
        let results = sweep.run(threads, dense::dense_eval).expect("dense sweep");
        match &csv {
            None => csv = Some(results.to_csv()),
            Some(first) => assert_eq!(
                first,
                &results.to_csv(),
                "CSV diverged between worker counts"
            ),
        }
        let agg = dense::aggregate(&results);
        assert_eq!(agg.len(), 1);
        assert_eq!(
            agg[0].1, serial,
            "sharded aggregate diverged from serial fold at {threads} workers"
        );
    }
}

/// The event loop's reason to exist: event count is a small fraction of the
/// nodes × slots touches a slot-stepped loop would make on the same
/// population.
#[test]
fn event_wheel_beats_slot_stepping_asymptotically() {
    let cfg = DenseConfig {
        nodes: 256,
        horizon_slots: 10_000,
        ..DenseConfig::default()
    };
    let s = dense::run_dense(&cfg);
    let slot_touches = s.nodes * cfg.horizon_slots;
    assert!(
        s.events * 10 < slot_touches,
        "event wheel should do <10% of slot-stepped work: {} events vs {} touches",
        s.events,
        slot_touches
    );
}
