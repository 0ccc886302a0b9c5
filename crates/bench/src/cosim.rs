//! Multi-node co-simulation: the two loops every multi-node workload
//! runs on, and the seed-replication flood behind the `fleet` binary.
//!
//! # The two loops
//!
//! * [`run_slots`] — the slot-stepped reference over a [`Medium`]:
//!   every 10 µs slot ([`SLOT_US`]) each node polls the medium, steps
//!   at most one cycle and hands its outbox to the medium, then the
//!   base station's deliveries go to a caller-supplied closure. It is
//!   O(nodes × slots) whatever the activity. [`run_cosim`], `trace
//!   --app net` ([`crate::tracegen::net`]), the determinism suite and
//!   `examples/multihop.rs` all call it.
//! * `run_events` — the event loop, generic over [`Medium`] and
//!   [`SpatialMedium`] through the three-method `Channel` trait
//!   (static dispatch): only nodes with a pending timer wakeup, frame
//!   arrival or busy span are touched, O(events). [`run_cosim_event`]
//!   and [`crate::dense::run_tile`] call it.
//!
//! Each caller builds its own population and keeps its own base-station
//! or sink accounting; the loops only move frames between nodes and
//! medium. The slot loop stays because it charges energy cycle by
//! cycle: the event loop replays it bit-for-bit on every integer
//! counter, but its idle spans reorder the floating-point energy sum,
//! so the slot loop is the reference `tests/net_scale.rs` checks it
//! against.
//!
//! # The flood workload
//!
//! One *head* node samples fast and floods its packets; every other
//! node runs the same stage-3 forwarding application (CAM-deduplicated
//! rebroadcast) and relays towards a listening base station. Each
//! [`CosimConfig`] — node count × loss rate × seed × horizon — is one
//! grid point of a [`crate::fleet::Sweep`] ([`replication_sweep`]); the
//! run is a pure function of the config (asserted by `tests/fleet.rs`),
//! so replicating it across many seeds in parallel yields
//! confidence-interval-grade statistics. The per-point [`CosimSummary`] condenses the whole run
//! — channel counters, base-station goodput, per-node energy, µC
//! wakeups, and the merged telemetry layer's EP service-latency tail —
//! into one row of scalar [`cells`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::fleet::{Cell, Coords, Sweep};
use ulp_apps::ulp::{monitoring, AppStage, MonitoringConfig, SamplePeriod};
use ulp_core::slaves::RandomWalkSensor;
use ulp_core::{System, SystemConfig};
use ulp_net::{Delivery, Medium, MediumConfig, SpatialMedium, BROADCAST};
use ulp_sim::{Cycles, Metrics, Simulatable, StepOutcome};

/// Simulated microseconds per node cycle (100 kHz system clock): the
/// conversion between node cycles and medium microseconds in both
/// loops, and in every caller's sink accounting.
pub const SLOT_US: u64 = 10;

/// One co-simulation grid point: everything that varies across the
/// sweep, plus the shared horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct CosimConfig {
    /// Number of cycle-accurate nodes on the medium (one head + the
    /// rest forwarding relays), excluding the listening base station.
    pub nodes: usize,
    /// Independent per-receiver frame-loss probability.
    pub loss: f64,
    /// Seed for the channel *and* (xor node index) each node's sensor.
    pub seed: u64,
    /// Simulation horizon in 10 µs slots (= node cycles at 100 kHz).
    pub horizon_slots: u64,
    /// Sample period of the head node, cycles.
    pub head_period: u16,
    /// Sample period of the relay nodes, cycles (longer than the
    /// horizon by default: relays only forward).
    pub relay_period: u16,
}

impl Default for CosimConfig {
    fn default() -> CosimConfig {
        CosimConfig {
            nodes: 64,
            loss: 0.1,
            seed: 7,
            horizon_slots: 12_000,
            head_period: 3_000,
            relay_period: 40_000,
        }
    }
}

impl CosimConfig {
    /// Canonical description of everything that determines this point's
    /// result, for the campaign store's content address
    /// (`ulp_bench::store::canonical_key`). Covers *all* fields — the
    /// sweep coordinates only expose nodes/loss/seed, but the horizon
    /// and periods change the result just as surely.
    pub fn store_key(&self) -> String {
        format!(
            "cosim:nodes={};loss={};seed={};slots={};head={};relay={}",
            self.nodes,
            self.loss,
            self.seed,
            self.horizon_slots,
            self.head_period,
            self.relay_period
        )
    }

    /// The 4-node flood of `trace --app net` and the determinism suite:
    /// head period 9,000 cycles, relay period 40,000, 10% loss.
    pub fn four_node_flood(seed: u64, horizon_slots: u64) -> CosimConfig {
        CosimConfig {
            nodes: 4,
            loss: 0.1,
            seed,
            horizon_slots,
            head_period: 9_000,
            relay_period: 40_000,
        }
    }
}

/// Scalar summary of one co-simulation run: one CSV row per grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct CosimSummary {
    /// Frames transmitted on the medium.
    pub sent: u64,
    /// Frame deliveries (one per receiving endpoint).
    pub delivered: u64,
    /// Frame losses (one per receiving endpoint that missed one).
    pub lost: u64,
    /// Frames the base station heard (flood goodput, with duplicates).
    pub heard: u64,
    /// Radio transmissions summed over all nodes.
    pub radio_tx: u64,
    /// Microcontroller wakeups summed over all nodes (should stay 0:
    /// forwarding is a regular event handled entirely by the EP).
    pub mcu_wakeups: u64,
    /// Total energy over all nodes, joules.
    pub energy_j: f64,
    /// Fleet-wide EP IRQ service-latency p99, cycles (from the merged
    /// telemetry registry; 0 if no IRQ was ever queued).
    pub service_p99: u64,
    /// Fleet-wide count of serviced EP IRQs.
    pub irqs_serviced: u64,
}

/// The metric columns of one co-sim grid point, in [`cells`] order.
pub const METRICS: &[&str] = &[
    "sent",
    "delivered",
    "lost",
    "heard",
    "radio_tx",
    "mcu_wakeups",
    "energy_j",
    "service_p99",
    "irqs_serviced",
];

/// Serialize a summary into one row of [`METRICS`] cells.
pub fn cells(s: &CosimSummary) -> Vec<Cell> {
    vec![
        Cell::U64(s.sent),
        Cell::U64(s.delivered),
        Cell::U64(s.lost),
        Cell::U64(s.heard),
        Cell::U64(s.radio_tx),
        Cell::U64(s.mcu_wakeups),
        Cell::F64(s.energy_j),
        Cell::U64(s.service_p99),
        Cell::U64(s.irqs_serviced),
    ]
}

/// Build the node-count × loss × seed replication grid the `fleet`
/// binary sweeps, each point a flood of `slots` slots.
pub fn replication_sweep(
    nodes: &[usize],
    losses: &[f64],
    seeds: u64,
    slots: u64,
) -> Sweep<CosimConfig> {
    let mut sweep = Sweep::new("cosim-replication", METRICS);
    for &n in nodes {
        for &loss in losses {
            for seed in 0..seeds {
                sweep.push(
                    Coords::new()
                        .with("nodes", n)
                        .with("loss", loss)
                        .with("seed", seed),
                    CosimConfig {
                        nodes: n,
                        loss,
                        seed,
                        horizon_slots: slots,
                        ..CosimConfig::default()
                    },
                );
            }
        }
    }
    sweep
}

/// Run one co-simulation grid point to completion on the slot-stepped
/// reference loop ([`run_slots`]). Deterministic: the summary is a pure
/// function of `cfg` (double-run asserted in `tests/fleet.rs`,
/// thread-count invariance by the fleet engine's `--check` mode).
///
/// # Panics
///
/// Panics if `cfg.nodes` is 0 or above [`MAX_NODES`], if a node faults,
/// or if a node halts — a failed scenario is precisely what the fleet
/// engine's panic-with-coordinates reporting exists to surface.
pub fn run_cosim(cfg: &CosimConfig) -> CosimSummary {
    let (mut medium, mut nodes, base) = build_population(cfg);
    let mut heard = 0u64;
    run_slots(&mut medium, &mut nodes, base, cfg.horizon_slots, |_| {
        heard += 1
    });
    summarize(&medium, &nodes, heard)
}

/// Run one co-simulation grid point on the event loop: only
/// nodes with pending events (timer wakeup, frame arrival, or an ongoing
/// busy span) are touched, instead of polling every node every slot.
///
/// Produces the **same summary** as [`run_cosim`] — every integer
/// counter is bit-identical because medium RNG draws happen in the same
/// `(slot, node index)` order, and the energy total matches to the
/// fast-forward tolerance (idle stretches are charged as spans by
/// `System::idle_advance` instead of cycle by cycle, which reorders the
/// floating-point sum). `tests/net_scale.rs` asserts both claims over
/// random configs.
///
/// The win is asymptotic, not constant-factor: slot-stepping is
/// O(nodes × slots) regardless of activity, while this driver is
/// O(events). A 1k-node population at a realistic duty cycle is mostly
/// asleep, so the event loop does ~1% of the work.
///
/// # Panics
///
/// Same contract as [`run_cosim`].
pub fn run_cosim_event(cfg: &CosimConfig) -> CosimSummary {
    let (mut medium, mut nodes, base) = build_population(cfg);
    run_events(&mut medium, &mut nodes, cfg.horizon_slots);
    let heard = medium.poll(base, cfg.horizon_slots * SLOT_US).len() as u64;
    summarize(&medium, &nodes, heard)
}

/// The slot-stepped reference loop: for each slot `1..=horizon`, every
/// node in turn polls `medium` (a frame due by the slot becomes an rx
/// at the next cycle), steps one cycle if it is behind, and hands its
/// outbox to the medium; then the `base` endpoint's deliveries due by
/// the slot go to `on_base`, one call per frame. `nodes` pairs each
/// node with its medium endpoint.
///
/// # Panics
///
/// Panics if a node halts.
pub fn run_slots(
    medium: &mut Medium,
    nodes: &mut [(usize, System)],
    base: usize,
    horizon: u64,
    mut on_base: impl FnMut(Delivery),
) {
    for cycle in 1..=horizon {
        let now_us = cycle * SLOT_US;
        for (endpoint, node) in nodes.iter_mut() {
            for d in medium.poll(*endpoint, now_us) {
                node.schedule_rx(Cycles(cycle + 1), d.bytes);
            }
            if node.now() < Cycles(cycle) {
                let outcome = node.step();
                assert!(
                    !matches!(outcome, StepOutcome::Halted),
                    "node at endpoint {endpoint} halted: {:?}",
                    node.fault()
                );
            }
            for (at, bytes) in node.take_outbox() {
                medium.transmit(*endpoint, at.0 * SLOT_US, &bytes);
            }
        }
        for d in medium.poll(base, now_us) {
            on_base(d);
        }
    }
}

/// The three calls the event loop makes on a medium. [`Medium`] and
/// [`SpatialMedium`] both have them as inherent methods with exactly
/// these signatures; [`run_events`] is monomorphized per medium.
pub(crate) trait Channel {
    /// Drain deliveries for `endpoint` that have arrived by `now_us`.
    fn poll(&mut self, endpoint: usize, now_us: u64) -> Vec<Delivery>;
    /// Hand the medium a frame `endpoint` sent at `at_us`.
    fn transmit(&mut self, endpoint: usize, at_us: u64, bytes: &[u8]);
    /// Earliest undrained delivery for `endpoint`, if any.
    fn next_arrival(&self, endpoint: usize) -> Option<u64>;
}

macro_rules! channel_from_inherent_methods {
    ($($medium:ty),*) => {$(
        impl Channel for $medium {
            fn poll(&mut self, endpoint: usize, now_us: u64) -> Vec<Delivery> {
                <$medium>::poll(self, endpoint, now_us)
            }
            fn transmit(&mut self, endpoint: usize, at_us: u64, bytes: &[u8]) {
                <$medium>::transmit(self, endpoint, at_us, bytes)
            }
            fn next_arrival(&self, endpoint: usize) -> Option<u64> {
                <$medium>::next_arrival(self, endpoint)
            }
        }
    )*};
}

channel_from_inherent_methods!(Medium, SpatialMedium);

/// The event loop: runs `nodes` (each paired with its medium endpoint)
/// to cycle `horizon`, touching a node only at its boot, its timer
/// wakeups, its frame arrivals and each cycle of a busy span, and
/// returns the number of such activations. Every node ends at `horizon`
/// (the idle tails are charged); activations past it stay unprocessed,
/// as in [`run_slots`].
///
/// Activations wait in a min-heap of `(cycle, node)`, so same-cycle
/// activations pop in node-index order; nothing joins a cycle once it
/// has started, because an activation at cycle `c` only ever schedules
/// `c + 1` or later. Each activation polls the medium, advances its node and
/// hands over its outbox — the order the slot loop makes its medium
/// calls in, so a [`Medium`]'s loss draws replay it exactly. Every
/// queued arrival wakes its node at the slot whose poll will see it. A
/// [`SpatialMedium`] only produces deliveries inside its `advance`,
/// which this loop never calls, so its endpoints' polls find nothing
/// and the caller drains it after the loop.
///
/// # Panics
///
/// Panics if a node halts.
pub(crate) fn run_events<M: Channel>(
    medium: &mut M,
    nodes: &mut [(usize, System)],
    horizon: u64,
) -> u64 {
    // Earliest scheduled activation cycle per node; `queue` may hold
    // stale (later or repeated) entries for a node, dropped on pop by
    // comparing against this. One live activation per node at any time.
    let mut pending: Vec<Option<u64>> = vec![None; nodes.len()];
    let mut queue: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut activations = 0u64;
    let schedule_act = |queue: &mut BinaryHeap<Reverse<(u64, usize)>>,
                        pending: &mut Vec<Option<u64>>,
                        i: usize,
                        c: u64| {
        if c <= horizon && pending[i].is_none_or(|c0| c < c0) {
            pending[i] = Some(c);
            queue.push(Reverse((c, i)));
        }
    };
    for i in 0..nodes.len() {
        schedule_act(&mut queue, &mut pending, i, 1); // boot
    }
    while let Some(Reverse((c, i))) = queue.pop() {
        if pending[i] != Some(c) {
            continue;
        }
        pending[i] = None;
        activations += 1;
        let (endpoint, node) = &mut nodes[i];
        // Poll first, exactly like the slot-stepped loop does: an
        // arrival due by this slot becomes an rx at the next cycle.
        for d in medium.poll(*endpoint, c * SLOT_US) {
            node.schedule_rx(Cycles(c + 1), d.bytes);
        }
        let outcome = advance_node(node, Cycles(c), *endpoint);
        let outbox = node.take_outbox();
        let transmitted = !outbox.is_empty();
        for (at, bytes) in outbox {
            medium.transmit(*endpoint, at.0 * SLOT_US, &bytes);
        }
        // A transmit may have queued arrivals for anyone, so wake every
        // endpoint with one; otherwise re-arm this node for arrivals
        // still queued behind the ones its poll drained. Either wakes at
        // the slot whose poll will see the arrival (ceil to the next
        // slot boundary).
        let woken = if transmitted {
            0..nodes.len()
        } else {
            i..i + 1
        };
        for j in woken {
            if let Some(a_us) = medium.next_arrival(nodes[j].0) {
                let poll_at = a_us.div_ceil(SLOT_US).max(c + 1);
                schedule_act(&mut queue, &mut pending, j, poll_at);
            }
        }
        // Re-arm this node: busy spans step every cycle; an idle node
        // sleeps until its next wakeup's firing cycle.
        let next = match outcome {
            StepOutcome::Busy => Some(c + 1),
            _ => nodes[i].1.next_wakeup().map(|w| w.0.max(c) + 1),
        };
        if let Some(n) = next {
            schedule_act(&mut queue, &mut pending, i, n);
        }
    }
    // Every node still owes its idle tail up to the horizon (energy
    // accrues while asleep).
    for (endpoint, node) in nodes.iter_mut() {
        advance_node(node, Cycles(horizon), *endpoint);
    }
    activations
}

/// Advance one node to `target` the way the engine does: step busy
/// cycles one at a time, and after an idle step hand the node its idle
/// advance toward `target`. Returns the outcome of the last step (`Idle`
/// if the node was already at `target`).
///
/// # Panics
///
/// Panics if the node halts.
fn advance_node(node: &mut System, target: Cycles, endpoint: usize) -> StepOutcome {
    let mut outcome = StepOutcome::Idle;
    while node.now() < target {
        outcome = node.step();
        match outcome {
            StepOutcome::Busy => {}
            StepOutcome::Halted => panic!("node at endpoint {endpoint} halted: {:?}", node.fault()),
            StepOutcome::Idle => {
                node.idle_advance(target, target);
            }
        }
    }
    outcome
}

/// Most nodes a population can hold. Node `i` gets radio address
/// `2 + i`; address 0 is the base station or sink and 0xFFFF is
/// [`BROADCAST`], so the nodes fill addresses 2..=0xFFFE.
pub const MAX_NODES: usize = BROADCAST as usize - 2;

/// Radio address of node `i` of a population of `nodes`.
///
/// # Panics
///
/// Panics if `nodes` exceeds [`MAX_NODES`] (checked first, so a
/// population too big to address fails before any node is built).
pub(crate) fn node_address(nodes: usize, i: usize) -> u16 {
    assert!(
        nodes <= MAX_NODES,
        "{nodes} nodes do not fit in addresses 2..=0xFFFE (at most {MAX_NODES})"
    );
    u16::try_from(2 + i).expect("address within 2..=0xFFFE")
}

/// Build the shared medium plus the head-and-relays population every
/// flood runs on; returns `(medium, [(endpoint, node)], base)`.
///
/// # Panics
///
/// Panics if `cfg.nodes` is 0 or above [`MAX_NODES`].
pub fn build_population(cfg: &CosimConfig) -> (Medium, Vec<(usize, System)>, usize) {
    assert!(cfg.nodes >= 1, "co-sim needs at least the head node");
    let mut medium = Medium::new(MediumConfig {
        loss_probability: cfg.loss,
        propagation_delay_us: 30,
        seed: cfg.seed,
    });
    let nodes: Vec<(usize, System)> = (0..cfg.nodes)
        .map(|i| {
            let program = monitoring(&MonitoringConfig {
                stage: AppStage::Forwarding,
                period: SamplePeriod::Cycles(if i == 0 {
                    cfg.head_period
                } else {
                    cfg.relay_period
                }),
                samples_per_packet: 1,
                threshold: 0,
            });
            let config = SystemConfig {
                address: node_address(cfg.nodes, i),
                dest: 0x0000,
                ..SystemConfig::default()
            };
            let sys = program.build_system(
                config,
                Box::new(RandomWalkSensor::new(90, cfg.seed ^ i as u64)),
            );
            (medium.register(), sys)
        })
        .collect();
    let base = medium.register();
    (medium, nodes, base)
}

fn summarize(medium: &Medium, nodes: &[(usize, System)], heard: u64) -> CosimSummary {
    let mut fleet = Metrics::new();
    let mut radio_tx = 0u64;
    let mut mcu_wakeups = 0u64;
    let mut energy_j = 0.0f64;
    for (endpoint, node) in nodes {
        assert!(
            node.fault().is_none(),
            "node at endpoint {endpoint} faulted: {:?}",
            node.fault()
        );
        radio_tx += node.slaves().radio.stats().transmitted;
        mcu_wakeups += node.mcu().stats().wakeups;
        energy_j += node.meter().total_energy().joules();
        fleet.merge(&node.telemetry_snapshot());
    }
    let (service_p99, irqs_serviced) = fleet
        .histogram("irq.service_latency")
        .map(|h| (h.percentile(0.99).unwrap_or(0), h.count()))
        .unwrap_or((0, 0));
    let stats = medium.stats();
    CosimSummary {
        sent: stats.sent,
        delivered: stats.delivered,
        lost: stats.lost,
        heard,
        radio_tx,
        mcu_wakeups,
        energy_j,
        service_p99,
        irqs_serviced,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small instance (fast enough for the tier-1 path) must flood
    /// frames through relays to the base station, lose some on a 10%
    /// channel, and never wake a microcontroller.
    #[test]
    fn small_cosim_floods_and_stays_on_the_ep() {
        let cfg = CosimConfig {
            nodes: 8,
            horizon_slots: 9_000,
            ..CosimConfig::default()
        };
        let s = run_cosim(&cfg);
        assert!(s.sent > 0, "head node must transmit: {s:?}");
        assert!(s.heard > 0, "flood must reach the base station: {s:?}");
        assert!(s.lost > 0, "10% loss over this horizon must drop frames");
        assert!(
            s.radio_tx > s.heard.min(2),
            "relays must rebroadcast: {s:?}"
        );
        assert_eq!(
            s.mcu_wakeups, 0,
            "forwarding is a regular event; no µC should ever wake"
        );
        assert!(s.energy_j > 0.0);
        assert!(s.irqs_serviced > 0);
    }

    #[test]
    fn cosim_is_a_pure_function_of_its_config() {
        let cfg = CosimConfig {
            nodes: 6,
            horizon_slots: 7_000,
            ..CosimConfig::default()
        };
        assert_eq!(run_cosim(&cfg), run_cosim(&cfg));
    }

    /// The event-driven loop is a drop-in replacement: every integer
    /// counter bit-identical to the slot-stepped loop, energy within
    /// the fast-forward tolerance. The property-level version (random
    /// configs) lives in `tests/net_scale.rs`.
    #[test]
    fn event_driver_matches_slot_stepped_driver() {
        let cfg = CosimConfig {
            nodes: 8,
            horizon_slots: 9_000,
            ..CosimConfig::default()
        };
        let slot = run_cosim(&cfg);
        let event = run_cosim_event(&cfg);
        assert_eq!(
            (slot.sent, slot.delivered, slot.lost, slot.heard),
            (event.sent, event.delivered, event.lost, event.heard),
            "channel counters diverged:\nslot  {slot:?}\nevent {event:?}"
        );
        assert_eq!(
            (
                slot.radio_tx,
                slot.mcu_wakeups,
                slot.service_p99,
                slot.irqs_serviced
            ),
            (
                event.radio_tx,
                event.mcu_wakeups,
                event.service_p99,
                event.irqs_serviced
            ),
            "node counters diverged:\nslot  {slot:?}\nevent {event:?}"
        );
        let tol = slot.energy_j.abs() * 1e-12;
        assert!(
            (slot.energy_j - event.energy_j).abs() <= tol,
            "energy diverged beyond fast-forward tolerance: {} vs {}",
            slot.energy_j,
            event.energy_j
        );
    }

    /// Node `i` gets address `2 + i` up to 0xFFFE; one node more would
    /// wrap onto the base station, so the builder refuses the whole
    /// population before building any node.
    #[test]
    fn addresses_fill_2_to_0xfffe() {
        assert_eq!(node_address(MAX_NODES, 0), 2);
        assert_eq!(node_address(MAX_NODES, MAX_NODES - 1), 0xFFFE);
    }

    #[test]
    #[should_panic(expected = "65534 nodes do not fit in addresses 2..=0xFFFE (at most 65533)")]
    fn population_beyond_the_address_space_is_refused() {
        build_population(&CosimConfig {
            nodes: MAX_NODES + 1,
            ..CosimConfig::default()
        });
    }

    #[test]
    fn seed_steers_the_channel() {
        let cfg = CosimConfig {
            nodes: 6,
            horizon_slots: 7_000,
            ..CosimConfig::default()
        };
        let a = run_cosim(&cfg);
        let b = run_cosim(&CosimConfig { seed: 8, ..cfg });
        assert_ne!(a, b, "different seeds must draw different losses");
    }
}
