//! Broadcast medium for multi-node co-simulation — the *compatibility
//! path*.
//!
//! All registered endpoints hear every transmission (single collision
//! domain, like the deployments in §3 where nodes are one hop from the
//! base station or relay for each other). Each receiver independently
//! loses a frame with the configured probability, modelling fading
//! without a full path-loss model — enough to exercise the
//! retransmission-free, duplicate-suppressing forwarding logic of the
//! message processor. For populations beyond a handful of nodes, use
//! the scale path instead: [`crate::SpatialMedium`] (positions,
//! pathloss, collisions, CSMA) scheduled on the [`crate::EventQueue`].
//!
//! # Determinism
//!
//! The medium is a pure function of its seed and the *sequence* of
//! [`Medium::transmit`] calls: every per-receiver loss decision is one
//! draw from the seeded [`ulp_testkit::Rng`], consumed in receiver
//! order within each transmission. Two runs that issue the same
//! transmissions in the same order produce bit-identical deliveries,
//! stats, and event logs — regardless of when or how often receivers
//! [`Medium::poll`]. This is what lets the event-driven co-simulation
//! driver (`ulp_bench::cosim::run_cosim_event`) replay the slot-stepped
//! driver byte-for-byte: it preserves transmit order, nothing else
//! matters.
//!
//! # Conservation
//!
//! Every transmission is accounted for exactly once per listening
//! receiver: with `n` endpoints,
//! `stats.delivered + stats.lost == stats.sent * (n - 1)`
//! (a transmitter never hears itself). `tests/net_scale.rs` and the
//! chaos campaigns assert this after every run.
//!
//! # Example
//!
//! ```
//! use ulp_net::{Frame, Medium, MediumConfig};
//!
//! let mut medium = Medium::new(MediumConfig::default()); // lossless
//! let a = medium.register();
//! let b = medium.register();
//! let frame = Frame::data(0x22, 0x0001, 0xFFFF, 1, b"hi")?;
//! medium.transmit(a, 100, &frame.encode());
//! let got = medium.poll(b, 1_000);
//! assert_eq!(got.len(), 1);
//! let s = medium.stats();
//! assert_eq!(s.delivered + s.lost, s.sent * 1);
//! # Ok::<(), ulp_net::FrameError>(())
//! ```

use std::collections::VecDeque;
use ulp_testkit::Rng;

/// Medium configuration.
#[derive(Debug, Clone)]
pub struct MediumConfig {
    /// Independent per-receiver probability a frame is lost.
    pub loss_probability: f64,
    /// Propagation + synchronisation delay added to every delivery, µs.
    pub propagation_delay_us: u64,
    /// RNG seed (the medium is deterministic given the seed).
    pub seed: u64,
}

impl Default for MediumConfig {
    fn default() -> Self {
        MediumConfig {
            loss_probability: 0.0,
            propagation_delay_us: 0,
            seed: 0x0154_2005, // "15.4 2005"
        }
    }
}

/// A frame delivered to an endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Arrival time, µs.
    pub at_us: u64,
    /// Index of the transmitting endpoint.
    pub from: usize,
    /// The raw MAC bytes as transmitted.
    pub bytes: Vec<u8>,
}

/// Cumulative medium statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediumStats {
    /// Frames transmitted.
    pub sent: u64,
    /// Frame deliveries (one per receiving endpoint).
    pub delivered: u64,
    /// Frame losses (one per receiving endpoint that missed it).
    pub lost: u64,
}

/// What happened on the medium (recorded when the event log is enabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetEventKind {
    /// Endpoint transmitted a frame.
    Sent,
    /// Endpoint will receive the frame (after propagation delay).
    Delivered {
        /// Transmitting endpoint index.
        from: usize,
    },
    /// Endpoint independently lost the frame.
    Lost {
        /// Transmitting endpoint index.
        from: usize,
    },
}

/// One medium event, timestamped in µs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetEvent {
    /// Transmit time (for `Sent`/`Lost`) or arrival time (`Delivered`).
    pub at_us: u64,
    /// The endpoint this event concerns.
    pub endpoint: usize,
    /// What happened.
    pub kind: NetEventKind,
    /// Frame length in bytes.
    pub len: usize,
}

/// The shared broadcast medium.
#[derive(Debug)]
pub struct Medium {
    config: MediumConfig,
    rng: Rng,
    queues: Vec<VecDeque<Delivery>>,
    stats: MediumStats,
    /// Per-frame event log (None = disabled, the default: transmit then
    /// costs no allocation).
    events: Option<Vec<NetEvent>>,
}

impl Medium {
    /// An empty medium.
    pub fn new(config: MediumConfig) -> Medium {
        assert!(
            (0.0..=1.0).contains(&config.loss_probability),
            "loss probability must be in [0, 1]"
        );
        let rng = Rng::from_seed(config.seed);
        Medium {
            config,
            rng,
            queues: Vec::new(),
            stats: MediumStats::default(),
            events: None,
        }
    }

    /// Enable or disable the per-frame event log (disabled by default;
    /// disabling clears any recorded events).
    pub fn set_event_log(&mut self, on: bool) {
        self.events = if on { Some(Vec::new()) } else { None };
    }

    /// Recorded medium events (empty slice while the log is disabled).
    pub fn events(&self) -> &[NetEvent] {
        self.events.as_deref().unwrap_or(&[])
    }

    /// Register an endpoint; the returned index identifies it in
    /// [`transmit`](Medium::transmit)/[`poll`](Medium::poll).
    pub fn register(&mut self) -> usize {
        self.queues.push(VecDeque::new());
        self.queues.len() - 1
    }

    /// Number of registered endpoints.
    pub fn endpoints(&self) -> usize {
        self.queues.len()
    }

    /// Broadcast `bytes` from endpoint `from` at time `at_us`. Every
    /// *other* endpoint receives it (subject to loss) after the
    /// propagation delay. Arrival times saturate at `u64::MAX` rather
    /// than wrapping, so a transmit at the end of time still delivers.
    ///
    /// A transmit from an unregistered endpoint (including on a medium
    /// with no endpoints at all) is ignored: nothing to deliver to,
    /// nothing counted — the medium never panics on hostile input.
    pub fn transmit(&mut self, from: usize, at_us: u64, bytes: &[u8]) {
        if from >= self.queues.len() {
            return;
        }
        self.stats.sent += 1;
        if let Some(log) = &mut self.events {
            log.push(NetEvent {
                at_us,
                endpoint: from,
                kind: NetEventKind::Sent,
                len: bytes.len(),
            });
        }
        let arrival = at_us.saturating_add(self.config.propagation_delay_us);
        for idx in 0..self.queues.len() {
            if idx == from {
                continue;
            }
            if self.rng.gen_bool(self.config.loss_probability) {
                self.stats.lost += 1;
                if let Some(log) = &mut self.events {
                    log.push(NetEvent {
                        at_us,
                        endpoint: idx,
                        kind: NetEventKind::Lost { from },
                        len: bytes.len(),
                    });
                }
                continue;
            }
            self.stats.delivered += 1;
            if let Some(log) = &mut self.events {
                log.push(NetEvent {
                    at_us: arrival,
                    endpoint: idx,
                    kind: NetEventKind::Delivered { from },
                    len: bytes.len(),
                });
            }
            self.queues[idx].push_back(Delivery {
                at_us: arrival,
                from,
                bytes: bytes.to_vec(),
            });
        }
    }

    /// Drain deliveries for `endpoint` that have arrived by `now_us`.
    ///
    /// Polling an unregistered endpoint returns nothing (never panics);
    /// polling with a timestamp that went backwards simply drains
    /// nothing new — arrival order is fixed at transmit time.
    pub fn poll(&mut self, endpoint: usize, now_us: u64) -> Vec<Delivery> {
        let Some(q) = self.queues.get_mut(endpoint) else {
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

    /// Earliest pending arrival time for `endpoint`, if any (lets node
    /// simulations idle-skip to it). `None` for unregistered endpoints.
    pub fn next_arrival(&self, endpoint: usize) -> Option<u64> {
        self.queues.get(endpoint)?.front().map(|d| d.at_us)
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> MediumStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_broadcast_reaches_all_others() {
        let mut m = Medium::new(MediumConfig::default());
        let a = m.register();
        let b = m.register();
        let c = m.register();
        m.transmit(a, 100, &[1, 2, 3]);
        assert!(m.poll(a, 1_000).is_empty(), "no self-reception");
        let db = m.poll(b, 1_000);
        assert_eq!(db.len(), 1);
        assert_eq!(db[0].bytes, vec![1, 2, 3]);
        assert_eq!(db[0].from, a);
        assert_eq!(m.poll(c, 1_000).len(), 1);
        assert_eq!(m.stats().sent, 1);
        assert_eq!(m.stats().delivered, 2);
    }

    #[test]
    fn delivery_respects_time() {
        let mut m = Medium::new(MediumConfig {
            propagation_delay_us: 50,
            ..MediumConfig::default()
        });
        let a = m.register();
        let b = m.register();
        m.transmit(a, 100, &[7]);
        assert!(m.poll(b, 149).is_empty());
        assert_eq!(m.next_arrival(b), Some(150));
        assert_eq!(m.poll(b, 150).len(), 1);
        assert_eq!(m.next_arrival(b), None);
    }

    #[test]
    fn deliveries_drain_in_order() {
        let mut m = Medium::new(MediumConfig::default());
        let a = m.register();
        let b = m.register();
        m.transmit(a, 10, &[1]);
        m.transmit(a, 20, &[2]);
        let d = m.poll(b, 100);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].bytes, vec![1]);
        assert_eq!(d[1].bytes, vec![2]);
    }

    #[test]
    fn total_loss_drops_everything() {
        let mut m = Medium::new(MediumConfig {
            loss_probability: 1.0,
            ..MediumConfig::default()
        });
        let a = m.register();
        let b = m.register();
        m.transmit(a, 0, &[1]);
        assert!(m.poll(b, 1_000).is_empty());
        assert_eq!(m.stats().lost, 1);
    }

    #[test]
    fn partial_loss_is_deterministic_per_seed() {
        let run = |seed| {
            let mut m = Medium::new(MediumConfig {
                loss_probability: 0.5,
                seed,
                ..MediumConfig::default()
            });
            let a = m.register();
            let _b = m.register();
            for i in 0..100 {
                m.transmit(a, i, &[i as u8]);
            }
            m.stats().delivered
        };
        assert_eq!(run(1), run(1), "same seed, same outcome");
        let d = run(42);
        assert!((20..80).contains(&d), "roughly half delivered, got {d}");
    }

    #[test]
    fn event_log_records_sent_delivered_lost() {
        let mut m = Medium::new(MediumConfig {
            loss_probability: 1.0,
            ..MediumConfig::default()
        });
        let a = m.register();
        let b = m.register();
        m.set_event_log(true);
        m.transmit(a, 5, &[1, 2]);
        let ev = m.events().to_vec();
        assert_eq!(ev.len(), 2);
        assert_eq!(
            ev[0],
            NetEvent {
                at_us: 5,
                endpoint: a,
                kind: NetEventKind::Sent,
                len: 2
            }
        );
        assert_eq!(ev[1].kind, NetEventKind::Lost { from: a });
        assert_eq!(ev[1].endpoint, b);
        // Disabling clears and stops recording.
        m.set_event_log(false);
        m.transmit(a, 6, &[3]);
        assert!(m.events().is_empty());
    }

    #[test]
    fn event_log_delivery_carries_arrival_time() {
        let mut m = Medium::new(MediumConfig {
            propagation_delay_us: 40,
            ..MediumConfig::default()
        });
        let a = m.register();
        let b = m.register();
        m.set_event_log(true);
        m.transmit(a, 100, &[9; 7]);
        let ev = m.events();
        assert_eq!(ev[1].kind, NetEventKind::Delivered { from: a });
        assert_eq!(ev[1].at_us, 140);
        assert_eq!(ev[1].endpoint, b);
        assert_eq!(ev[1].len, 7);
    }

    #[test]
    fn unregistered_endpoints_are_ignored_not_panicked() {
        // Zero-endpoint medium: every operation is a safe no-op.
        let mut m = Medium::new(MediumConfig::default());
        m.transmit(0, 0, &[1, 2, 3]);
        assert_eq!(m.stats(), MediumStats::default(), "nothing counted");
        assert!(m.poll(0, u64::MAX).is_empty());
        assert_eq!(m.next_arrival(0), None);
        // Out-of-range endpoint on a populated medium: same story.
        let a = m.register();
        m.transmit(a + 1, 0, &[9]);
        assert_eq!(m.stats().sent, 0);
        assert!(m.poll(a + 7, 10).is_empty());
        assert_eq!(m.next_arrival(usize::MAX), None);
    }

    #[test]
    fn transmit_at_end_of_time_saturates_arrival() {
        let mut m = Medium::new(MediumConfig {
            propagation_delay_us: 500,
            ..MediumConfig::default()
        });
        let a = m.register();
        let b = m.register();
        m.transmit(a, u64::MAX, &[4]);
        assert_eq!(m.next_arrival(b), Some(u64::MAX), "saturated, not wrapped");
        assert_eq!(m.poll(b, u64::MAX).len(), 1);
    }

    #[test]
    fn non_monotonic_poll_is_harmless() {
        let mut m = Medium::new(MediumConfig {
            propagation_delay_us: 10,
            ..MediumConfig::default()
        });
        let a = m.register();
        let b = m.register();
        m.transmit(a, 100, &[1]);
        m.transmit(a, 200, &[2]);
        assert_eq!(m.poll(b, 150).len(), 1, "first frame arrived");
        // Time goes backwards: nothing new can have arrived.
        assert!(m.poll(b, 0).is_empty());
        assert!(m.poll(b, 150).is_empty());
        // Time recovers: the second frame is still queued, undamaged.
        let d = m.poll(b, 500);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].bytes, vec![2]);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn bad_loss_probability_rejected() {
        let _ = Medium::new(MediumConfig {
            loss_probability: 1.5,
            ..MediumConfig::default()
        });
    }
}
