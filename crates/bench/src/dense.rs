//! Dense-network co-simulation: thousands of duty-cycled sensor nodes
//! on the spatial channel, sharded across the fleet engine.
//!
//! This is the scale study ROADMAP item 2 asks for and the reproduction
//! target for PAPERS.md's "Energy Efficiency of the IEEE 802.15.4
//! Standard in Dense Wireless Microsensor Networks": as node density
//! rises at fixed duty cycle, the CSMA MAC saturates — backoff
//! deferrals and drops explode and [`DenseSummary::mac_acceptance`]
//! collapses (the *contention-collapse* trend) — while wide, sparse
//! layouts lose frames to hidden-terminal collisions instead
//! ([`DenseSummary::delivery_ratio`]). At fixed density, a longer
//! sample period drives total energy towards the sleep floor (the
//! *sleep-dominance* trend). All three show up as monotone columns in
//! the density sweep this module builds (`tests/net_scale.rs` asserts
//! them; the `fleet --dense` golden pins the exact numbers).
//!
//! # Sharding model
//!
//! A population of `nodes` is split into **tiles** of at most
//! [`TILE_NODES`] nodes. Each tile is an independent square patch of
//! ground sized to hold its nodes at the configured density, and tiles
//! are far enough apart that no transmission crosses tiles (farther
//! than [`ChannelConfig::max_range_m`]): simulating them on separate
//! [`SpatialMedium`]s is *exact*, not an approximation. A tile run is a
//! pure function of `(config, tile index)` — every random draw (node
//! placement, sensor walks, CSMA backoff) is keyed by identity, never
//! by call order — so the fleet engine can scatter tiles across any
//! number of workers and the grid-order merge is byte-identical
//! whatever the shard/thread count. [`run_dense`] (serial fold) and
//! [`aggregate`] (fold over fleet rows) produce identical summaries,
//! including the floating-point energy total, because both fold in
//! tile order.
//!
//! # Workload
//!
//! Every node runs the stage-1 monitoring application (sample, packetize,
//! transmit; radio otherwise off) at the configured `duty` period, plus
//! one listening *sink* endpoint at the tile centre. Senders do not
//! listen — the density study measures channel contention and sender
//! energy, not routing — so medium deliveries to sender endpoints are
//! classified by the channel and then discarded.
//!
//! A tile runs on the co-simulation event loop shared with
//! [`crate::cosim::run_cosim_event`]. The spatial channel produces
//! deliveries only when [`run_tile`] drains it after the loop, so the
//! loop's polls of sender endpoints find nothing and no sender hears a
//! frame mid-run; the drain, the sink count and the conservation assert
//! stay here.

use ulp_apps::ulp::{monitoring, AppStage, MonitoringConfig, SamplePeriod};
use ulp_core::slaves::RandomWalkSensor;
use ulp_core::{System, SystemConfig};
use ulp_net::{ChannelConfig, SpatialMedium};
use ulp_testkit::Rng;

use crate::cosim::{node_address, run_events, SLOT_US};
use crate::fleet::{Cell, Coords, Sweep, SweepResults};

/// Maximum nodes per tile: the shard unit. Small enough that one tile
/// is milliseconds of work, large enough that intra-tile contention is
/// the dominant effect at the densities swept.
pub const TILE_NODES: usize = 64;

/// One dense-network scenario: a population at a density and duty
/// cycle, on a seeded channel.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseConfig {
    /// Total population across all tiles.
    pub nodes: usize,
    /// Node density, nodes per hectare (100 m × 100 m). Higher density
    /// packs the same transmitters into less ground, raising contention.
    pub density_per_ha: f64,
    /// Sample (= transmit) period per node, cycles at 100 kHz.
    pub duty: u16,
    /// Simulation horizon in 10 µs slots (= node cycles).
    pub horizon_slots: u64,
    /// Master seed: placement, sensors and CSMA backoff all derive
    /// from it by identity-keyed mixing.
    pub seed: u64,
}

impl Default for DenseConfig {
    fn default() -> DenseConfig {
        DenseConfig {
            nodes: 1_024,
            density_per_ha: 25.0,
            duty: 5_000,
            horizon_slots: 20_000,
            seed: 11,
        }
    }
}

impl DenseConfig {
    /// Number of tiles (shards) this population splits into.
    pub fn tiles(&self) -> usize {
        self.nodes.div_ceil(TILE_NODES).max(1)
    }

    /// Node count of tile `t` (the last tile takes the remainder).
    pub fn tile_nodes(&self, t: usize) -> usize {
        let full = self.nodes / TILE_NODES;
        if t < full {
            TILE_NODES
        } else {
            self.nodes - full * TILE_NODES
        }
    }

    /// Side length, meters, of the square patch holding `k` nodes at
    /// the configured density.
    pub fn side_m(&self, k: usize) -> f64 {
        // k nodes / (density per 10_000 m²)  →  area; side = √area.
        (k as f64 / self.density_per_ha * 10_000.0).sqrt()
    }
}

/// Scalar summary of a dense run — of one tile, or of a whole
/// population via [`DenseSummary::absorb`]. Integer fields are exact
/// sums; `energy_j` is summed in tile order everywhere, so even the
/// float is identical between the serial and sharded paths.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DenseSummary {
    /// Nodes simulated (excluding sink endpoints).
    pub nodes: u64,
    /// Tiles folded into this summary.
    pub tiles: u64,
    /// Transmit requests handed to the channel.
    pub requests: u64,
    /// Frames that made it onto the air (passed CCA).
    pub sent: u64,
    /// CSMA deferrals (retries, not terminal).
    pub deferrals: u64,
    /// Frames dropped after exhausting CSMA backoff attempts.
    pub dropped_csma: u64,
    /// (frame, receiver) pairs delivered intact.
    pub delivered: u64,
    /// (frame, receiver) pairs corrupted by overlapping transmissions.
    pub collided: u64,
    /// (frame, receiver) pairs below the sensitivity threshold.
    pub faded: u64,
    /// (frame, receiver) pairs lost to half-duplex deafness.
    pub deaf: u64,
    /// Frames the tile sinks heard (arrival within the horizon).
    pub sink_heard: u64,
    /// Radio transmissions summed over all nodes.
    pub radio_tx: u64,
    /// Microcontroller wakeups summed over all nodes.
    pub mcu_wakeups: u64,
    /// Total node energy, joules.
    pub energy_j: f64,
    /// Scheduler events processed: node activations plus channel queue
    /// events (CCA senses and TX ends). The numerator of the
    /// sim-events/sec figure `BENCH_net.json` tracks; compare against
    /// `nodes × horizon_slots` touches for a slot-stepped loop.
    pub events: u64,
}

impl DenseSummary {
    /// Fold another tile (or partial aggregate) into this one.
    pub fn absorb(&mut self, t: &DenseSummary) {
        self.nodes += t.nodes;
        self.tiles += t.tiles;
        self.requests += t.requests;
        self.sent += t.sent;
        self.deferrals += t.deferrals;
        self.dropped_csma += t.dropped_csma;
        self.delivered += t.delivered;
        self.collided += t.collided;
        self.faded += t.faded;
        self.deaf += t.deaf;
        self.sink_heard += t.sink_heard;
        self.radio_tx += t.radio_tx;
        self.mcu_wakeups += t.mcu_wakeups;
        self.energy_j += t.energy_j;
        self.events += t.events;
    }

    /// Fraction of *audible* (frame, receiver) pairs delivered intact —
    /// fading is excluded because out-of-range pairs are geometry, not
    /// contention. 1.0 on an idle channel, collapsing towards 0 as
    /// overlapping transmissions corrupt each other.
    pub fn delivery_ratio(&self) -> f64 {
        let pairs = self.delivered + self.collided + self.deaf;
        if pairs == 0 {
            1.0
        } else {
            self.delivered as f64 / pairs as f64
        }
    }

    /// Fraction of transmit requests the MAC actually got onto the air
    /// (the rest died in CSMA backoff). This is the contention-collapse
    /// axis for dense populations: with everyone in carrier-sense range
    /// the channel saturates and acceptance falls, while collisions
    /// stay rare — those belong to *wide* layouts, where hidden
    /// terminals defeat CCA and show up in [`delivery_ratio`] instead.
    ///
    /// [`delivery_ratio`]: DenseSummary::delivery_ratio
    pub fn mac_acceptance(&self) -> f64 {
        if self.requests == 0 {
            1.0
        } else {
            self.sent as f64 / self.requests as f64
        }
    }
}

/// Simulate one tile. A pure function of `(cfg, tile)`: the channel
/// seed, node placement, and sensor walks are all identity-keyed mixes
/// of `cfg.seed` and the tile/node indices, so tiles can run in any
/// order on any worker.
///
/// # Panics
///
/// Panics if `cfg.nodes` exceeds [`MAX_NODES`], if a node faults or
/// halts, or if the drained channel violates its conservation invariant
/// — a broken tile must abort the sweep with its coordinates, not leak
/// a bad row.
///
/// [`MAX_NODES`]: crate::cosim::MAX_NODES
pub fn run_tile(cfg: &DenseConfig, tile: usize) -> DenseSummary {
    simulate_tile(cfg, tile).0
}

/// [`run_tile`], also handing back the tile's senders (each with its
/// medium endpoint) as the run left them.
fn simulate_tile(cfg: &DenseConfig, tile: usize) -> (DenseSummary, Vec<(usize, System)>) {
    let k = cfg.tile_nodes(tile);
    if k == 0 {
        return (DenseSummary::default(), Vec::new());
    }
    let side = cfg.side_m(k);
    let mut medium = SpatialMedium::new(ChannelConfig {
        seed: cfg.seed ^ (tile as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ..ChannelConfig::default()
    });
    let sink = medium.place(side / 2.0, side / 2.0);
    let mut placer = Rng::from_seed(cfg.seed ^ 0xD15E ^ ((tile as u64) << 32));
    let mut nodes: Vec<(usize, System)> = (0..k)
        .map(|i| {
            let program = monitoring(&MonitoringConfig {
                stage: AppStage::SampleSend,
                period: SamplePeriod::Cycles(cfg.duty),
                samples_per_packet: 1,
                threshold: 0,
            });
            let config = SystemConfig {
                address: node_address(cfg.nodes, tile * TILE_NODES + i),
                dest: 0x0000,
                ..SystemConfig::default()
            };
            let sensor = RandomWalkSensor::new(
                90,
                cfg.seed ^ ((tile * TILE_NODES + i) as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
            );
            let sys = program.build_system(config, Box::new(sensor));
            (medium.place(placer.f64() * side, placer.f64() * side), sys)
        })
        .collect();

    let horizon = cfg.horizon_slots;
    let activations = run_events(&mut medium, &mut nodes, horizon);
    // Resolve every in-flight CSMA retry and TX so the conservation
    // invariant holds over the drained channel; the sink only counts
    // arrivals inside the horizon.
    medium.advance(horizon * SLOT_US);
    while let Some(t) = medium.next_event_time() {
        medium.advance(t);
    }
    let sink_heard = medium
        .poll(sink, u64::MAX)
        .iter()
        .filter(|d| d.at_us <= horizon * SLOT_US)
        .count() as u64;

    let stats = medium.stats();
    assert!(
        stats.conserves(k as u64 + 1),
        "tile {tile}: channel books don't balance: {stats:?}"
    );
    let mut s = DenseSummary {
        nodes: k as u64,
        tiles: 1,
        requests: stats.requests,
        sent: stats.sent,
        deferrals: stats.deferrals,
        dropped_csma: stats.dropped_csma,
        delivered: stats.delivered,
        collided: stats.collided,
        faded: stats.faded,
        deaf: stats.deaf,
        sink_heard,
        // Activations + channel queue events (one CCA sense per request
        // and per deferral, one TX-end per sent frame).
        events: activations + stats.requests + stats.deferrals + stats.sent,
        ..DenseSummary::default()
    };
    for (med_id, node) in &nodes {
        assert!(
            node.fault().is_none(),
            "tile {tile}, medium node {med_id}: faulted: {:?}",
            node.fault()
        );
        s.radio_tx += node.slaves().radio.stats().transmitted;
        s.mcu_wakeups += node.mcu().stats().wakeups;
        s.energy_j += node.meter().total_energy().joules();
    }
    (s, nodes)
}

/// Run a whole scenario serially: fold every tile in tile order.
pub fn run_dense(cfg: &DenseConfig) -> DenseSummary {
    let mut total = DenseSummary::default();
    for t in 0..cfg.tiles() {
        total.absorb(&run_tile(cfg, t));
    }
    total
}

/// Metric columns of one tile row, in declaration order.
pub const DENSE_METRICS: &[&str] = &[
    "tile_nodes",
    "requests",
    "sent",
    "deferrals",
    "dropped_csma",
    "delivered",
    "collided",
    "faded",
    "deaf",
    "sink_heard",
    "radio_tx",
    "mcu_wakeups",
    "energy_j",
    "events",
];

fn dense_cells(s: &DenseSummary) -> Vec<Cell> {
    vec![
        Cell::U64(s.nodes),
        Cell::U64(s.requests),
        Cell::U64(s.sent),
        Cell::U64(s.deferrals),
        Cell::U64(s.dropped_csma),
        Cell::U64(s.delivered),
        Cell::U64(s.collided),
        Cell::U64(s.faded),
        Cell::U64(s.deaf),
        Cell::U64(s.sink_heard),
        Cell::U64(s.radio_tx),
        Cell::U64(s.mcu_wakeups),
        Cell::F64(s.energy_j),
        Cell::U64(s.events),
    ]
}

/// Build the sharded sweep for a set of scenarios: one grid point per
/// (scenario, tile), in scenario-major tile order, so the fleet
/// engine's grid-order merge reassembles populations deterministically
/// whatever the worker count.
pub fn dense_sweep(scenarios: &[DenseConfig]) -> Sweep<(DenseConfig, usize)> {
    let mut sweep = Sweep::new("dense-network", DENSE_METRICS);
    for cfg in scenarios {
        for tile in 0..cfg.tiles() {
            sweep.push(
                Coords::new()
                    .with("nodes", cfg.nodes)
                    .with("density", cfg.density_per_ha)
                    .with("duty", cfg.duty)
                    .with("seed", cfg.seed)
                    .with("tile", tile),
                (cfg.clone(), tile),
            );
        }
    }
    sweep
}

/// The per-point evaluator for [`dense_sweep`]'s grid.
pub fn dense_eval(_: &Coords, point: &(DenseConfig, usize)) -> Vec<Cell> {
    dense_cells(&run_tile(&point.0, point.1))
}

/// Canonical description of everything that determines one tile's
/// result, for the campaign store's content address
/// (`ulp_bench::store::canonical_key`). Covers *all* [`DenseConfig`]
/// fields plus the tile index — the sweep coordinates omit the horizon.
pub fn dense_store_key(_: &Coords, point: &(DenseConfig, usize)) -> String {
    let (cfg, tile) = point;
    format!(
        "dense:nodes={};density={};duty={};slots={};seed={};tile={tile}",
        cfg.nodes, cfg.density_per_ha, cfg.duty, cfg.horizon_slots, cfg.seed
    )
}

/// Fold a scenario's rows (grid order = tile order) back into one
/// [`DenseSummary`] per scenario, keyed by `(nodes, density, duty,
/// seed)` coordinates in first-appearance order. Identical to calling
/// [`run_dense`] per scenario — including the energy float, which both
/// paths sum in tile order.
pub fn aggregate(results: &SweepResults) -> Vec<(Coords, DenseSummary)> {
    let col = |name: &str| {
        results
            .columns()
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("dense results missing column {name}"))
    };
    let u = |row: &[Cell], name: &str| match &row[col(name)] {
        Cell::U64(n) => *n,
        other => panic!("column {name} is not a count: {other:?}"),
    };
    let mut out: Vec<(Coords, DenseSummary)> = Vec::new();
    for row in results.rows() {
        let key = |axis: &str| row[col(axis)].to_string();
        let coords = Coords::new()
            .with("nodes", key("nodes"))
            .with("density", key("density"))
            .with("duty", key("duty"))
            .with("seed", key("seed"));
        let tile = DenseSummary {
            nodes: u(row, "tile_nodes"),
            tiles: 1,
            requests: u(row, "requests"),
            sent: u(row, "sent"),
            deferrals: u(row, "deferrals"),
            dropped_csma: u(row, "dropped_csma"),
            delivered: u(row, "delivered"),
            collided: u(row, "collided"),
            faded: u(row, "faded"),
            deaf: u(row, "deaf"),
            sink_heard: u(row, "sink_heard"),
            radio_tx: u(row, "radio_tx"),
            mcu_wakeups: u(row, "mcu_wakeups"),
            energy_j: match &row[col("energy_j")] {
                Cell::F64(j) => *j,
                other => panic!("energy_j is not a float: {other:?}"),
            },
            events: u(row, "events"),
        };
        match out.last_mut() {
            Some((c, agg)) if *c == coords => agg.absorb(&tile),
            _ => out.push((coords, tile)),
        }
    }
    out
}

/// Render the aggregated per-scenario table for a dense sweep's
/// results: the deterministic stdout of `fleet --dense`, pinned
/// byte-for-byte by `tests/golden.rs`. Derived ratios are formatted to
/// fixed precision; every other column is an exact counter.
pub fn dense_report(results: &SweepResults) -> String {
    let mut out = String::from(
        "Dense-network density sweep (spatial channel, event-wheel medium)\n\
         one row per scenario, tiles merged in grid order\n\n",
    );
    let mut t = crate::TableWriter::new(&[
        "Nodes",
        "Dens/ha",
        "Duty",
        "Seed",
        "Req",
        "Sent",
        "Accept",
        "Deliv",
        "Collide",
        "DelivRatio",
        "Drop",
        "SinkHeard",
        "Wakeups",
        "Energy",
        "Events",
    ]);
    for (coords, s) in aggregate(results) {
        let c = |axis: &str| coords.get(axis).unwrap_or("?").to_string();
        t.row(&[
            c("nodes"),
            c("density"),
            c("duty"),
            c("seed"),
            s.requests.to_string(),
            s.sent.to_string(),
            format!("{:.3}", s.mac_acceptance()),
            s.delivered.to_string(),
            s.collided.to_string(),
            format!("{:.3}", s.delivery_ratio()),
            s.dropped_csma.to_string(),
            s.sink_heard.to_string(),
            s.mcu_wakeups.to_string(),
            format!("{:.3} mJ", s.energy_j * 1e3),
            s.events.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DenseConfig {
        DenseConfig {
            nodes: 48,
            density_per_ha: 50.0,
            duty: 2_000,
            horizon_slots: 8_000,
            seed: 3,
        }
    }

    /// One small tile: nodes sample and transmit, the sink hears
    /// frames, the channel books balance, and the event loop does far
    /// less work than a slot-stepped loop would.
    #[test]
    fn tile_runs_and_conserves() {
        let cfg = tiny();
        let s = run_tile(&cfg, 0);
        assert_eq!(s.nodes, 48);
        assert!(s.requests > 0, "duty-cycled senders must transmit: {s:?}");
        assert!(s.sink_heard > 0, "sink must hear someone: {s:?}");
        assert!(s.energy_j > 0.0);
        assert!(
            s.events < s.nodes * cfg.horizon_slots / 10,
            "event loop should do <10% of slot-stepped touches: {} vs {}",
            s.events,
            s.nodes * cfg.horizon_slots
        );
    }

    /// Senders hear nothing mid-run: the spatial channel delivers only
    /// inside `advance`, which the event loop never calls, so its polls
    /// of sender endpoints find nothing. Both contention regimes.
    #[test]
    fn senders_never_receive_or_miss_a_frame() {
        for density_per_ha in [25.0, 400.0] {
            let cfg = DenseConfig {
                nodes: 64,
                density_per_ha,
                ..tiny()
            };
            let (s, nodes) = simulate_tile(&cfg, 0);
            assert!(s.delivered > 0, "the drain must deliver to senders: {s:?}");
            for (endpoint, node) in &nodes {
                let radio = node.slaves().radio.stats();
                assert_eq!(
                    (radio.received, radio.missed),
                    (0, 0),
                    "sender at endpoint {endpoint}, density {density_per_ha}"
                );
            }
        }
    }

    /// Serial fold and the fleet path agree exactly — counters and the
    /// energy float — and the fleet path is worker-count invariant.
    #[test]
    fn sharded_run_matches_serial_for_any_worker_count() {
        let cfg = DenseConfig {
            nodes: 100, // 1 full tile + a 36-node remainder tile
            ..tiny()
        };
        let serial = run_dense(&cfg);
        assert_eq!(serial.tiles, 2);
        let sweep = dense_sweep(std::slice::from_ref(&cfg));
        for threads in [1usize, 2, 4] {
            let results = sweep.run(threads, dense_eval).expect("dense sweep");
            let agg = aggregate(&results);
            assert_eq!(agg.len(), 1);
            assert_eq!(
                agg[0].1, serial,
                "sharded aggregate diverged at {threads} workers"
            );
        }
    }

    /// Density is the contention knob: packing the same population
    /// tighter must not increase the delivery ratio.
    #[test]
    fn density_drives_contention() {
        let sparse = run_dense(&DenseConfig {
            density_per_ha: 5.0,
            ..tiny()
        });
        let dense = run_dense(&DenseConfig {
            density_per_ha: 2_000.0,
            ..tiny()
        });
        assert!(
            dense.mac_acceptance() < sparse.mac_acceptance(),
            "the MAC must saturate with crowding: sparse {} dense {}",
            sparse.mac_acceptance(),
            dense.mac_acceptance()
        );
        assert!(
            dense.dropped_csma + dense.deferrals > sparse.dropped_csma + sparse.deferrals,
            "crowding must show up as CSMA pressure: sparse {sparse:?} dense {dense:?}"
        );
        // The sparse/wide layout is the hidden-terminal regime: CCA
        // can't hear distant transmitters, so corruption happens on the
        // air instead of being deferred away.
        assert!(
            sparse.delivery_ratio() < dense.delivery_ratio(),
            "hidden terminals must corrupt wide layouts: sparse {} dense {}",
            sparse.delivery_ratio(),
            dense.delivery_ratio()
        );
    }

    /// Global node index `i` gets address `2 + i`, so a population past
    /// the address space is refused before any tile node is built.
    #[test]
    #[should_panic(expected = "65534 nodes do not fit in addresses 2..=0xFFFE (at most 65533)")]
    fn population_beyond_the_address_space_is_refused() {
        run_tile(
            &DenseConfig {
                nodes: crate::cosim::MAX_NODES + 1,
                ..tiny()
            },
            0,
        );
    }

    /// Duty is the energy knob: sampling less often must cost less,
    /// approaching the sleep floor.
    #[test]
    fn longer_duty_approaches_sleep_floor() {
        let busy = run_dense(&DenseConfig {
            duty: 1_000,
            ..tiny()
        });
        let lazy = run_dense(&DenseConfig {
            duty: 6_000,
            ..tiny()
        });
        assert!(
            lazy.energy_j < busy.energy_j,
            "sleep must dominate at long duty: busy {} J lazy {} J",
            busy.energy_j,
            lazy.energy_j
        );
        assert!(lazy.requests < busy.requests);
    }
}
