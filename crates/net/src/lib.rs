#![warn(missing_docs)]
//! Networking substrate: IEEE 802.15.4 frames, radio PHY timing, and
//! channel models.
//!
//! The paper's architecture assumes a CC2420-class 802.15.4 radio with the
//! MAC/PHY implemented in hardware ("a simple radio model enables us to
//! fully test our system architecture concepts without having to
//! explicitly build a transceiver", §4.3.6). This crate is that radio
//! model's substrate: the frame codec the message processor operates on,
//! the 250 kbit/s timing that sets the 100 kHz system-clock requirement,
//! and channel models for multi-node co-simulation (receive/forward
//! workloads for applications 3 and 4 of §6.1.2).
//!
//! Two media coexist:
//!
//! * the **compatibility path** — [`Medium`], a slot-polled lossy
//!   broadcast channel (single collision domain, independent
//!   per-receiver loss) that the original 4-node goldens were pinned
//!   against and still run on, and
//! * the **scale path** — [`SpatialMedium`] (node positions,
//!   log-distance pathloss with a reception threshold,
//!   collision/interference, CSMA-CA backoff) scheduled on the
//!   [`EventQueue`] (a binary heap keyed by time and insertion order),
//!   which only touches nodes with pending events and carries 10k-node
//!   populations as 64-node tiles (`ulp_bench::dense`).
//!
//! Both are deterministic given their seed — every random decision is a
//! draw from a seeded `ulp_testkit` PRNG consumed in a documented order
//! — and both account for every transmission exactly once per listener
//! (the per-module docs state each conservation identity; the
//! `tests/net_scale.rs` suite asserts them after every run).
//!
//! # Example
//!
//! ```
//! use ulp_net::{Frame, FrameType};
//!
//! let frame = Frame::data(0x22, 0x0001, 0x0002, 7, &[1, 2, 3])?;
//! let bytes = frame.encode();
//! let back = Frame::decode(&bytes)?;
//! assert_eq!(back.payload, vec![1, 2, 3]);
//! assert_eq!(back.frame_type, FrameType::Data);
//! # Ok::<(), ulp_net::FrameError>(())
//! ```

mod channel;
mod frame;
mod phy;
mod queue;
mod spatial;

pub use channel::{Delivery, Medium, MediumConfig, MediumStats, NetEvent, NetEventKind};
pub use frame::{crc16, Frame, FrameError, FrameType, BROADCAST, MAX_FRAME, MAX_PAYLOAD, MHR_LEN};
pub use phy::{PhyTiming, SymbolRate};
pub use queue::EventQueue;
pub use spatial::{ChannelConfig, LossCause, Position, SpatialEvent, SpatialMedium, SpatialStats};
