//! Spatial channel model: positions, log-distance pathloss, collisions,
//! and CSMA backoff on the [`EventQueue`](crate::EventQueue).
//!
//! The flat broadcast [`Medium`](crate::Medium) treats every receiver
//! identically — fine for a 4-node flood, useless for the dense-network
//! energy questions ("Energy Efficiency of the IEEE 802.15.4 Standard in
//! Dense Wireless Microsensor Networks" is the model source): contention
//! collapse only appears when *who can hear whom* depends on geometry.
//! This module adds that geometry:
//!
//! * **Pathloss** — log-distance: `rx_dbm = tx_dbm − PL(d₀) −
//!   10·n·log₁₀(d/d₀)`. A frame is *receivable* at a node iff its
//!   received power clears [`ChannelConfig::sensitivity_dbm`].
//! * **Collisions** — two transmissions whose airtimes overlap corrupt
//!   each other at every receiver that can hear both; there is no
//!   capture effect (the stronger frame dies too — documented
//!   pessimism, one branch to change).
//! * **CSMA** — a transmit request senses the channel first; if any
//!   in-flight transmission is audible above
//!   [`ChannelConfig::cca_dbm`], the node backs off for a random number
//!   of [`ChannelConfig::backoff_unit_us`] slots (binary exponential,
//!   802.15.4-style), giving up after
//!   [`ChannelConfig::max_backoffs`] attempts.
//!
//! # Determinism contract
//!
//! Every random draw (each backoff delay) is a pure function of
//! `(seed, node, per-node attempt counter)` via SplitMix64 — **not** of
//! global call order. Two populations that contain the same node with
//! the same seed draw the same backoffs no matter what the rest of the
//! population does, which is what makes sharded fleet populations
//! byte-identical for any shard count (see `ulp_bench::dense`).
//! Simultaneous events resolve in `(time, schedule order)`; schedule
//! order is itself deterministic because callers drive the medium
//! single-threaded in node-index order.
//!
//! # Conservation invariant
//!
//! Every transmit request is classified exactly once:
//! `requests = sent + dropped_csma`, and for every sent frame every
//! *other* node in the population is classified exactly once:
//! `sent × (nodes − 1) = delivered + collided + faded + deaf`
//! ([`SpatialStats::conserves`] asserts both; the property suite runs it
//! on random topologies).
//!
//! # Example
//!
//! ```
//! use ulp_net::{ChannelConfig, SpatialMedium};
//!
//! let mut m = SpatialMedium::new(ChannelConfig::default());
//! let a = m.place(0.0, 0.0);
//! let b = m.place(10.0, 0.0);    // 10 m: well inside range
//! let far = m.place(9_000.0, 0.0); // 9 km: pathloss kills it
//! m.transmit(a, 100, &[1, 2, 3]);
//! m.advance(10_000);
//! assert_eq!(m.poll(b, 10_000).len(), 1);
//! assert!(m.poll(far, 10_000).is_empty());
//! let s = m.stats();
//! assert!(s.conserves(3));
//! assert_eq!((s.sent, s.delivered, s.faded), (1, 1, 1));
//! ```

use crate::channel::Delivery;
use crate::phy::PhyTiming;
use crate::queue::EventQueue;
use std::collections::VecDeque;
use ulp_testkit::SplitMix64;

/// A node position in meters (the deployments in §3 of the paper are
/// tens-of-meters grids; the density paper sweeps nodes per unit area).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Position {
    /// X coordinate, meters.
    pub x: f64,
    /// Y coordinate, meters.
    pub y: f64,
}

impl Position {
    /// Euclidean distance to `other`, meters.
    pub fn distance(&self, other: &Position) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// Radio/channel parameters. The defaults model a CC2420-class
/// 802.15.4 radio (0 dBm TX, −94 dBm sensitivity) over a log-distance
/// channel with exponent 3.0 (indoor/ground-level sensor deployments),
/// which puts the reception limit near 200 m.
#[derive(Debug, Clone)]
pub struct ChannelConfig {
    /// Transmit power, dBm.
    pub tx_power_dbm: f64,
    /// Pathloss at the reference distance (1 m), dB.
    pub ref_loss_db: f64,
    /// Log-distance pathloss exponent `n` (2 = free space, 3–4 = ground
    /// level / indoor).
    pub pathloss_exp: f64,
    /// Receiver sensitivity, dBm: below this a frame is *faded*
    /// (silently absent, not corrupt).
    pub sensitivity_dbm: f64,
    /// Clear-channel-assessment threshold, dBm: a node defers while any
    /// audible transmission exceeds this.
    pub cca_dbm: f64,
    /// One CSMA backoff unit, µs (802.15.4's aUnitBackoffPeriod is
    /// 320 µs at 250 kbit/s).
    pub backoff_unit_us: u64,
    /// Minimum backoff exponent (802.15.4 macMinBE).
    pub min_be: u32,
    /// Maximum backoff exponent (802.15.4 macMaxBE).
    pub max_be: u32,
    /// CSMA attempts before the frame is dropped
    /// (802.15.4 macMaxCSMABackoffs + 1 initial attempt).
    pub max_backoffs: u32,
    /// Seed all backoff draws derive from (see the module docs).
    pub seed: u64,
}

impl Default for ChannelConfig {
    fn default() -> ChannelConfig {
        ChannelConfig {
            tx_power_dbm: 0.0,
            ref_loss_db: 40.0,
            pathloss_exp: 3.0,
            sensitivity_dbm: -94.0,
            cca_dbm: -94.0,
            backoff_unit_us: 320,
            min_be: 3,
            max_be: 5,
            max_backoffs: 5,
            seed: 0x0154_2005,
        }
    }
}

impl ChannelConfig {
    /// Received power at distance `d` meters (log-distance pathloss;
    /// distances under 1 m clamp to the reference distance).
    pub fn rx_power_dbm(&self, d: f64) -> f64 {
        let d = d.max(1.0);
        self.tx_power_dbm - self.ref_loss_db - 10.0 * self.pathloss_exp * d.log10()
    }

    /// Maximum distance at which a frame is still receivable — the
    /// radius that bounds all interaction, and therefore the guard
    /// spacing that makes sharded populations provably independent.
    pub fn max_range_m(&self) -> f64 {
        // Invert rx_power_dbm(d) = min(sensitivity, cca): beyond this
        // distance a transmission can neither be received nor deter a
        // CSMA sender.
        let floor = self.sensitivity_dbm.min(self.cca_dbm);
        let exponent = (self.tx_power_dbm - self.ref_loss_db - floor) / (10.0 * self.pathloss_exp);
        10f64.powf(exponent).max(1.0)
    }
}

/// Why a potential receiver missed a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossCause {
    /// Received power below sensitivity: out of range.
    Faded,
    /// Another audible transmission overlapped: corrupted.
    Collided,
    /// The receiver was itself transmitting (half-duplex).
    Deaf,
}

/// One channel event, for the optional event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpatialEvent {
    /// Node started transmitting after a clear CCA.
    TxStart {
        /// The transmitting node.
        node: usize,
        /// Airtime end, µs.
        until_us: u64,
    },
    /// Node deferred: channel busy, backoff scheduled.
    Deferred {
        /// The deferring node.
        node: usize,
        /// When the retry will sense again, µs.
        retry_us: u64,
    },
    /// Node exhausted its CSMA attempts and dropped the frame.
    DroppedCsma {
        /// The node that gave up.
        node: usize,
    },
    /// A receiver got the frame.
    Delivered {
        /// Transmitting node.
        from: usize,
        /// Receiving node.
        to: usize,
    },
    /// A potential receiver missed the frame.
    Lost {
        /// Transmitting node.
        from: usize,
        /// The node that missed it.
        to: usize,
        /// Why.
        cause: LossCause,
    },
}

/// Cumulative channel statistics. See the module docs for the
/// conservation invariant tying these together.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpatialStats {
    /// Transmit requests accepted (`transmit` calls on placed nodes).
    pub requests: u64,
    /// Frames that made it onto the air.
    pub sent: u64,
    /// CSMA deferrals (not terminal: the frame retries).
    pub deferrals: u64,
    /// Frames dropped after exhausting CSMA attempts.
    pub dropped_csma: u64,
    /// (sent frame, receiver) pairs that received successfully.
    pub delivered: u64,
    /// (sent frame, receiver) pairs corrupted by an overlapping
    /// transmission.
    pub collided: u64,
    /// (sent frame, receiver) pairs below sensitivity.
    pub faded: u64,
    /// (sent frame, receiver) pairs where the receiver was itself
    /// on the air (half-duplex).
    pub deaf: u64,
}

impl SpatialStats {
    /// The conservation invariant over a *fully drained* medium (every
    /// in-flight transmission resolved): every request became airtime
    /// or a drop, and every (frame, other-node) pair is classified
    /// exactly once.
    pub fn conserves(&self, nodes: u64) -> bool {
        self.requests == self.sent + self.dropped_csma
            && self.sent * nodes.saturating_sub(1)
                == self.delivered + self.collided + self.faded + self.deaf
    }
}

/// An in-flight or pending-CSMA transmission.
#[derive(Debug, Clone)]
struct Transmission {
    from: usize,
    bytes: Vec<u8>,
    /// Airtime end, µs.
    end_us: u64,
    /// Frames whose airtime overlapped this one (indices into `txs`).
    /// Registration is mutual, so the list is exhaustive by TX end.
    overlaps: Vec<usize>,
}

/// What the queue schedules.
#[derive(Debug, Clone)]
enum QueueEvent {
    /// CSMA sense (first attempt or backoff expiry) for a pending frame.
    Sense {
        node: usize,
        bytes: Vec<u8>,
        attempt: u32,
    },
    /// End of airtime for transmission `tx`.
    TxEnd { tx: usize },
}

/// The spatial, event-driven broadcast medium. Construction, API shape
/// and robustness rules (unknown nodes are no-ops, time never panics)
/// mirror [`Medium`](crate::Medium); the semantics add geometry, CSMA
/// and collisions per the module docs.
#[derive(Debug)]
pub struct SpatialMedium {
    config: ChannelConfig,
    phy: PhyTiming,
    positions: Vec<Position>,
    /// Delivered frames awaiting [`poll`](SpatialMedium::poll).
    inboxes: Vec<VecDeque<Delivery>>,
    /// Per-node CSMA attempt counter (the backoff-draw key).
    draws: Vec<u64>,
    /// All transmissions that reached the air (monotone index = `tx`).
    txs: Vec<Transmission>,
    /// Indices of transmissions currently on the air.
    active: Vec<usize>,
    queue: EventQueue<QueueEvent>,
    /// Internal clock: everything ≤ `now_us` has been resolved.
    now_us: u64,
    stats: SpatialStats,
    events: Option<Vec<SpatialEvent>>,
}

impl SpatialMedium {
    /// An empty medium.
    pub fn new(config: ChannelConfig) -> SpatialMedium {
        assert!(
            config.pathloss_exp > 0.0 && config.backoff_unit_us > 0,
            "pathloss exponent and backoff unit must be positive"
        );
        assert!(
            config.min_be <= config.max_be && config.max_backoffs >= 1,
            "backoff exponents must be ordered and attempts >= 1"
        );
        SpatialMedium {
            config,
            phy: PhyTiming::default(),
            positions: Vec::new(),
            inboxes: Vec::new(),
            draws: Vec::new(),
            txs: Vec::new(),
            active: Vec::new(),
            queue: EventQueue::new(),
            now_us: 0,
            stats: SpatialStats::default(),
            events: None,
        }
    }

    /// The channel parameters.
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// Place a node at `(x, y)` meters; the returned index identifies
    /// it in every other call.
    pub fn place(&mut self, x: f64, y: f64) -> usize {
        assert!(x.is_finite() && y.is_finite(), "position must be finite");
        self.positions.push(Position { x, y });
        self.inboxes.push(VecDeque::new());
        self.draws.push(0);
        self.positions.len() - 1
    }

    /// Number of placed nodes.
    pub fn nodes(&self) -> usize {
        self.positions.len()
    }

    /// A placed node's position.
    pub fn position(&self, node: usize) -> Option<Position> {
        self.positions.get(node).copied()
    }

    /// Enable or disable the per-frame event log (disabled by default;
    /// disabling clears any recorded events).
    pub fn set_event_log(&mut self, on: bool) {
        self.events = if on { Some(Vec::new()) } else { None };
    }

    /// Recorded events (empty slice while the log is disabled).
    pub fn events(&self) -> &[SpatialEvent] {
        self.events.as_deref().unwrap_or(&[])
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SpatialStats {
        self.stats
    }

    fn log(&mut self, ev: SpatialEvent) {
        if let Some(log) = &mut self.events {
            log.push(ev);
        }
    }

    /// Request a transmission of `bytes` from `node` at `at_us`. The
    /// frame goes through CSMA: it reaches the air at `at_us` if the
    /// channel is clear there, later after backoff if not, or never if
    /// every attempt finds the channel busy. Requests from unknown
    /// nodes are ignored (never panic); requests in the medium's past
    /// are sensed at the current clock instead.
    pub fn transmit(&mut self, node: usize, at_us: u64, bytes: &[u8]) {
        if node >= self.positions.len() {
            return;
        }
        self.stats.requests += 1;
        let at = at_us.max(self.now_us);
        self.queue.schedule(
            at,
            QueueEvent::Sense {
                node,
                bytes: bytes.to_vec(),
                attempt: 0,
            },
        );
    }

    /// Earliest pending internal event (TX end, CSMA sense), if any —
    /// the hook event-driven drivers use to know when the medium next
    /// needs attention.
    pub fn next_event_time(&self) -> Option<u64> {
        self.queue.peek_time()
    }

    /// Earliest undrained delivery for `node`, if any.
    pub fn next_arrival(&self, node: usize) -> Option<u64> {
        self.inboxes.get(node)?.front().map(|d| d.at_us)
    }

    /// Resolve every internal event scheduled at or before `now_us`
    /// (CSMA senses, transmission ends) in `(time, schedule order)`.
    /// Time never goes backwards: an older timestamp is a no-op.
    pub fn advance(&mut self, now_us: u64) {
        while let Some(t) = self.queue.peek_time() {
            if t > now_us {
                break;
            }
            let (t, ev) = self.queue.pop().expect("peeked event");
            self.now_us = self.now_us.max(t);
            match ev {
                QueueEvent::Sense {
                    node,
                    bytes,
                    attempt,
                } => self.sense(node, bytes, attempt, t),
                QueueEvent::TxEnd { tx } => self.finish_tx(tx),
            }
        }
        self.now_us = self.now_us.max(now_us);
    }

    /// Drain deliveries for `node` that have arrived by `now_us`. A
    /// pure drain: deliveries materialize when [`advance`] resolves the
    /// transmission end, so drive `advance` first. Unknown nodes get
    /// nothing; a timestamp that went backwards drains nothing new.
    ///
    /// [`advance`]: SpatialMedium::advance
    pub fn poll(&mut self, node: usize, now_us: u64) -> Vec<Delivery> {
        let Some(q) = self.inboxes.get_mut(node) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        while let Some(front) = q.front() {
            if front.at_us <= now_us {
                out.push(q.pop_front().expect("non-empty"));
            } else {
                break;
            }
        }
        out
    }

    /// Received power at `rx` of a transmission from `tx`, dBm.
    fn rx_dbm(&self, tx: usize, rx: usize) -> f64 {
        self.config
            .rx_power_dbm(self.positions[tx].distance(&self.positions[rx]))
    }

    /// Is the channel busy at `node` (any active transmission audible
    /// above the CCA threshold)?
    fn channel_busy_at(&self, node: usize) -> bool {
        self.active.iter().any(|&i| {
            let t = &self.txs[i];
            t.from != node && self.rx_dbm(t.from, node) >= self.config.cca_dbm
        })
    }

    /// The backoff delay for `node`'s draw number `nth` at attempt
    /// `attempt`: `U[0, 2^BE − 1]` backoff units, BE clamped to
    /// [min_be, max_be]. A pure function of `(seed, node, nth)` — see
    /// the module docs.
    fn backoff_us(&self, node: usize, nth: u64, attempt: u32) -> u64 {
        let be = (self.config.min_be + attempt).min(self.config.max_be);
        let window = 1u64 << be;
        // One SplitMix64 output per draw, keyed by identity, not order.
        let key = self
            .config
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((node as u64) << 32)
            .wrapping_add(nth);
        let slots = SplitMix64::new(key).next_u64() % window;
        slots * self.config.backoff_unit_us
    }

    /// One CSMA sense for a pending frame.
    fn sense(&mut self, node: usize, bytes: Vec<u8>, attempt: u32, at: u64) {
        if self.channel_busy_at(node) {
            let next_attempt = attempt + 1;
            if next_attempt >= self.config.max_backoffs {
                self.stats.dropped_csma += 1;
                self.log(SpatialEvent::DroppedCsma { node });
                return;
            }
            self.stats.deferrals += 1;
            let nth = self.draws[node];
            self.draws[node] += 1;
            // Back off at least one unit: re-sensing the same busy
            // instant forever would livelock.
            let delay = self.backoff_us(node, nth, attempt) + self.config.backoff_unit_us;
            let retry = at.saturating_add(delay);
            self.log(SpatialEvent::Deferred {
                node,
                retry_us: retry,
            });
            self.queue.schedule(
                retry,
                QueueEvent::Sense {
                    node,
                    bytes,
                    attempt: next_attempt,
                },
            );
            return;
        }
        // Clear: the frame takes the air for its full airtime.
        let airtime = self.phy.frame_airtime_us(bytes.len()).ceil() as u64;
        let end = at.saturating_add(airtime.max(1));
        let idx = self.txs.len();
        let overlaps: Vec<usize> = self.active.clone();
        for &other in &overlaps {
            self.txs[other].overlaps.push(idx);
        }
        self.txs.push(Transmission {
            from: node,
            bytes,
            end_us: end,
            overlaps,
        });
        self.active.push(idx);
        self.stats.sent += 1;
        self.log(SpatialEvent::TxStart {
            node,
            until_us: end,
        });
        self.queue.schedule(end, QueueEvent::TxEnd { tx: idx });
    }

    /// Resolve a finished transmission: classify every other node.
    fn finish_tx(&mut self, tx: usize) {
        self.active.retain(|&i| i != tx);
        let from = self.txs[tx].from;
        let end = self.txs[tx].end_us;
        // The payload is only needed for this resolution; freeing it
        // here keeps long runs O(active) rather than O(history) in
        // payload memory.
        let bytes = std::mem::take(&mut self.txs[tx].bytes);
        for rx in 0..self.positions.len() {
            if rx == from {
                continue;
            }
            if self.rx_dbm(from, rx) < self.config.sensitivity_dbm {
                self.stats.faded += 1;
                self.log(SpatialEvent::Lost {
                    from,
                    to: rx,
                    cause: LossCause::Faded,
                });
                continue;
            }
            // Half-duplex: a node on the air during any overlap with
            // this frame cannot have received it. Overlap registration
            // is mutual (the later frame logs itself into the earlier
            // one's list at TX start), so the list is exhaustive.
            let was_transmitting = self.txs[tx]
                .overlaps
                .iter()
                .any(|&o| self.txs[o].from == rx);
            if was_transmitting {
                self.stats.deaf += 1;
                self.log(SpatialEvent::Lost {
                    from,
                    to: rx,
                    cause: LossCause::Deaf,
                });
                continue;
            }
            // Interference: any overlapping transmission audible at rx
            // corrupts the frame (no capture).
            let corrupted = self.txs[tx].overlaps.iter().any(|&o| {
                let other = &self.txs[o];
                other.from != rx && self.rx_dbm(other.from, rx) >= self.config.sensitivity_dbm
            });
            if corrupted {
                self.stats.collided += 1;
                self.log(SpatialEvent::Lost {
                    from,
                    to: rx,
                    cause: LossCause::Collided,
                });
                continue;
            }
            self.stats.delivered += 1;
            self.log(SpatialEvent::Delivered { from, to: rx });
            self.inboxes[rx].push_back(Delivery {
                at_us: end,
                from,
                bytes: bytes.clone(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_medium(d: f64) -> (SpatialMedium, usize, usize) {
        let mut m = SpatialMedium::new(ChannelConfig::default());
        let a = m.place(0.0, 0.0);
        let b = m.place(d, 0.0);
        (m, a, b)
    }

    #[test]
    fn pathloss_is_monotone_and_calibrated() {
        let c = ChannelConfig::default();
        assert!(c.rx_power_dbm(1.0) > c.rx_power_dbm(10.0));
        assert!(c.rx_power_dbm(10.0) > c.rx_power_dbm(100.0));
        // 0 dBm − 40 dB − 30·log10(100) = −100 dBm: out of range.
        assert!((c.rx_power_dbm(100.0) - -100.0).abs() < 1e-9);
        // Everything inside max_range_m is receivable, beyond is not.
        let r = c.max_range_m();
        assert!(c.rx_power_dbm(r * 0.99) >= c.sensitivity_dbm);
        assert!(c.rx_power_dbm(r * 1.01) < c.sensitivity_dbm);
    }

    #[test]
    fn in_range_delivery_and_out_of_range_fade() {
        let (mut m, a, _b) = two_node_medium(10.0);
        let far = m.place(9_000.0, 0.0);
        m.transmit(a, 0, &[7; 16]);
        m.advance(100_000);
        assert_eq!(m.poll(1, 100_000).len(), 1);
        assert!(m.poll(far, 100_000).is_empty());
        let s = m.stats();
        assert_eq!((s.sent, s.delivered, s.faded, s.collided), (1, 1, 1, 0));
        assert!(s.conserves(3));
    }

    #[test]
    fn arrival_time_is_airtime_end() {
        let (mut m, a, b) = two_node_medium(10.0);
        // 16 MAC bytes: (5 + 1 + 16) × 32 µs = 704 µs airtime.
        m.transmit(a, 1_000, &[7; 16]);
        m.advance(10_000);
        let d = m.poll(b, 10_000);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].at_us, 1_704);
        assert_eq!(d[0].from, a);
        assert_eq!(m.next_arrival(b), None);
    }

    #[test]
    fn overlapping_transmissions_collide_at_a_common_receiver() {
        let mut m = SpatialMedium::new(ChannelConfig {
            // CCA off (threshold above any possible rx power): force
            // the overlap so the collision path is exercised.
            cca_dbm: 10.0,
            ..ChannelConfig::default()
        });
        let a = m.place(0.0, 0.0);
        let b = m.place(20.0, 0.0);
        let r = m.place(10.0, 0.0);
        m.transmit(a, 0, &[1; 8]);
        m.transmit(b, 100, &[2; 8]); // overlaps a's 448 µs airtime
        m.advance(100_000);
        assert!(m.poll(r, 100_000).is_empty(), "both frames corrupt at r");
        let s = m.stats();
        assert_eq!(s.sent, 2);
        assert!(s.collided >= 2, "both (frame, r) pairs collided: {s:?}");
        assert!(s.conserves(3));
        // a and b were on the air during the overlap: deaf, not collided.
        assert_eq!(s.deaf, 2, "{s:?}");
    }

    #[test]
    fn csma_defers_and_delivers_later() {
        let (mut m, a, b) = two_node_medium(10.0);
        m.set_event_log(true);
        m.transmit(a, 0, &[1; 32]); // 1216 µs airtime
        m.transmit(b, 100, &[2; 8]); // channel busy at 100: defer
        m.advance(1_000_000);
        let s = m.stats();
        assert_eq!(s.sent, 2, "both eventually transmit: {s:?}");
        assert!(s.deferrals >= 1, "b must defer: {s:?}");
        assert_eq!(s.dropped_csma, 0);
        assert_eq!(s.delivered, 2, "no overlap after backoff: {s:?}");
        assert!(s.conserves(2));
        assert!(m
            .events()
            .iter()
            .any(|e| matches!(e, SpatialEvent::Deferred { node, .. } if *node == b)));
    }

    #[test]
    fn csma_eventually_drops_under_a_jammer() {
        // One enormous frame occupies the channel; the second node's
        // every CSMA attempt finds it busy and the frame dies.
        let (mut m, a, b) = two_node_medium(10.0);
        let cfg_max = m.config().max_backoffs;
        m.transmit(a, 0, &vec![0xAA; 900_000]); // ~28.8 s airtime
        m.transmit(b, 50, &[1; 4]);
        m.advance(u64::MAX);
        let s = m.stats();
        assert_eq!(s.dropped_csma, 1, "{s:?}");
        assert_eq!(s.deferrals as u32, cfg_max - 1, "{s:?}");
        assert!(s.conserves(2));
    }

    #[test]
    fn backoff_draws_are_order_independent() {
        let m = SpatialMedium::new(ChannelConfig::default());
        // Same (node, nth, attempt) → same delay, regardless of when or
        // in what order anything else drew.
        assert_eq!(m.backoff_us(3, 7, 1), m.backoff_us(3, 7, 1));
        let window: Vec<u64> = (0..32).map(|n| m.backoff_us(1, n, 0)).collect();
        assert!(
            window.iter().any(|&d| d != window[0]),
            "draws must vary with the counter: {window:?}"
        );
        // All within the BE window.
        let c = ChannelConfig::default();
        let max = (1u64 << c.min_be) - 1;
        assert!(window.iter().all(|&d| d <= max * c.backoff_unit_us));
    }

    #[test]
    fn unknown_nodes_and_backwards_time_are_harmless() {
        let mut m = SpatialMedium::new(ChannelConfig::default());
        m.transmit(0, 0, &[1]); // no nodes at all
        assert_eq!(m.stats(), SpatialStats::default());
        assert!(m.poll(0, u64::MAX).is_empty());
        assert_eq!(m.next_arrival(9), None);
        let a = m.place(0.0, 0.0);
        let b = m.place(5.0, 0.0);
        m.advance(1_000);
        m.transmit(a, 10, &[1; 4]); // in the medium's past: sensed at 1000
        m.advance(500); // backwards: no-op
        m.advance(5_000);
        let d = m.poll(b, 5_000);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].at_us, 1_000 + 320, "clamped to now + airtime");
        assert!(m.stats().conserves(2));
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed| {
            let mut m = SpatialMedium::new(ChannelConfig {
                seed,
                ..ChannelConfig::default()
            });
            let nodes: Vec<usize> = (0..6).map(|i| m.place(i as f64 * 7.0, 0.0)).collect();
            for (k, &n) in nodes.iter().enumerate() {
                m.transmit(n, 10 * k as u64, &[k as u8; 12]);
            }
            m.advance(u64::MAX);
            m.stats()
        };
        assert_eq!(run(1), run(1));
        assert!(run(1).conserves(6));
    }
}
