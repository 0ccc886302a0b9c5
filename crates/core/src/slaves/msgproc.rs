//! The message processor: hardware acceleration for "regular message
//! processing tasks, including message preparation and routing" (§4.3.5).
//!
//! The block owns two 32-byte message buffers (outgoing and incoming), a
//! CAM used as a duplicate-suppression routing table, and a counter of
//! transmitted packets. It classifies incoming frames as *regular*
//! (forwarding requests it can serve itself) or *irregular* (anything
//! needing the microcontroller), raising a different interrupt for each —
//! the mechanism that keeps the microcontroller gated through common-case
//! traffic.
//!
//! Power-gating note: the CAM and addressing configuration sit on a
//! retained rail (they survive `SWITCHOFF`, like the filter threshold);
//! the message buffers and any in-flight operation are lost. Without
//! retention, every gating cycle would erase the duplicate table and
//! re-forward every packet.

use super::BUF_LEN;
use crate::map;
use crate::periods::push_bytes;
use std::collections::VecDeque;
use ulp_net::{Frame, FrameType};
use ulp_sim::repeat::Totals;
use ulp_sim::Cycles;

/// Capacity of the duplicate-suppression CAM.
pub const CAM_ENTRIES: usize = 16;

/// Maximum samples per outgoing packet (32-byte buffer minus MAC
/// header/FCS overhead).
pub const MAX_SAMPLES: usize = map::MSG_BUF_LEN as usize - ulp_net::MHR_LEN - 2;

/// Commands writable to `MSG_CTRL`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgCommand {
    /// Build an outgoing data frame from the accumulated samples.
    Prepare = 1,
    /// Classify and process the frame in the RX buffer.
    ProcessRx = 2,
    /// Discard accumulated samples.
    ClearSamples = 3,
}

/// Status register bits.
pub mod status {
    /// An operation is in progress.
    pub const BUSY: u8 = 1 << 0;
    /// The last received frame was a duplicate and was dropped.
    pub const DUPLICATE: u8 = 1 << 1;
    /// The last received frame failed to decode.
    pub const DECODE_ERROR: u8 = 1 << 2;
    /// The TX buffer holds a frame ready for the radio.
    pub const TX_READY: u8 = 1 << 3;
}

/// What completed, reported to the system so it can raise the right
/// interrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgEvent {
    /// An outgoing frame is prepared ([`crate::map::Irq::MsgReady`]).
    Ready,
    /// A received frame should be forwarded
    /// ([`crate::map::Irq::MsgForward`]).
    Forward,
    /// A received frame needs the microcontroller
    /// ([`crate::map::Irq::MsgIrregular`]).
    Irregular,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Prepare,
    ProcessRx,
}

/// Cumulative statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MsgStats {
    /// Frames prepared from samples.
    pub prepared: u64,
    /// Received frames set up for forwarding.
    pub forwarded: u64,
    /// Received duplicates dropped.
    pub duplicates: u64,
    /// Received frames classified irregular.
    pub irregular: u64,
    /// Received frames that failed to decode.
    pub decode_errors: u64,
}

/// The message processor slave.
#[derive(Debug, Clone)]
pub struct MessageProcessor {
    powered: bool,
    tx_buf: [u8; BUF_LEN],
    tx_len: u8,
    rx_buf: [u8; BUF_LEN],
    rx_len: u8,
    samples: Vec<u8>,
    seq: u8,
    pan: u16,
    addr: u16,
    dest: u16,
    cam: VecDeque<(u16, u8)>,
    busy: Option<(Cycles, Op)>,
    auto_prepare: u8,
    tx_count: u16,
    /// Whether a bus read has returned `tx_count`. Until one does,
    /// nothing the node does depends on the count, so the state key
    /// leaves it out and it repeats as a tally.
    tx_count_read: bool,
    status: u8,
    stats: MsgStats,
    /// Cycles a `Prepare` takes (hardware header + CRC engine).
    pub prepare_latency: Cycles,
    /// Cycles a `ProcessRx` takes (decode + CAM search).
    pub process_latency: Cycles,
}

impl Default for MessageProcessor {
    fn default() -> Self {
        MessageProcessor::new()
    }
}

impl MessageProcessor {
    /// A gated-off message processor with default addressing.
    pub fn new() -> MessageProcessor {
        MessageProcessor {
            powered: false,
            tx_buf: [0; 32],
            tx_len: 0,
            rx_buf: [0; 32],
            rx_len: 0,
            samples: Vec::new(),
            seq: 0,
            pan: 0x0022,
            addr: 0x0001,
            dest: 0x0000, // base station
            cam: VecDeque::new(),
            busy: None,
            auto_prepare: 0,
            tx_count: 0,
            tx_count_read: false,
            status: 0,
            stats: MsgStats::default(),
            prepare_latency: Cycles(4),
            process_latency: Cycles(6),
        }
    }

    /// Configure PAN id, own short address, and default destination.
    pub fn configure_addressing(&mut self, pan: u16, addr: u16, dest: u16) {
        self.pan = pan;
        self.addr = addr;
        self.dest = dest;
    }

    /// The node's short address.
    pub fn address(&self) -> u16 {
        self.addr
    }

    /// Whether the block is powered.
    pub fn powered(&self) -> bool {
        self.powered
    }

    /// Whether an operation is in flight.
    pub fn busy(&self) -> bool {
        self.busy.is_some()
    }

    /// Power on/off. Buffers and in-flight work are lost; the CAM,
    /// addressing, sample accumulator, and sequence counter are retained.
    pub fn set_powered(&mut self, on: bool) {
        if self.powered && !on {
            self.tx_buf = [0; 32];
            self.rx_buf = [0; 32];
            self.tx_len = 0;
            self.rx_len = 0;
            self.busy = None;
            self.status = 0;
        }
        self.powered = on;
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> MsgStats {
        self.stats
    }

    /// The sequence number the next prepared frame carries.
    pub fn seq(&self) -> u8 {
        self.seq
    }

    /// Append the block's state to a state key: every field but the
    /// statistics and, until a read has seen it, the transmit count,
    /// which [`totals`](MessageProcessor::totals) visits.
    pub(crate) fn key(&self, key: &mut Vec<u64>) {
        key.extend([self.powered as u64, self.seq as u64, self.status as u64]);
        key.extend([self.pan as u64, self.addr as u64, self.dest as u64]);
        key.extend([self.auto_prepare as u64, self.tx_count_read as u64]);
        if self.tx_count_read {
            key.push(self.tx_count as u64);
        }
        key.extend([self.prepare_latency.0, self.process_latency.0]);
        key.push(match self.busy {
            None => 0,
            Some((left, Op::Prepare)) => left.0 << 2 | 1,
            Some((left, Op::ProcessRx)) => left.0 << 2 | 2,
        });
        key.extend([self.tx_len as u64, self.rx_len as u64]);
        push_bytes(key, &self.tx_buf);
        push_bytes(key, &self.rx_buf);
        push_bytes(key, &self.samples);
        key.push(self.cam.len() as u64);
        key.extend(
            self.cam
                .iter()
                .map(|&(src, seq)| (src as u64) << 8 | seq as u64),
        );
    }

    pub(crate) fn totals(&mut self, t: &mut dyn Totals) {
        let s = &mut self.stats;
        t.count(&mut s.prepared);
        t.count(&mut s.forwarded);
        t.count(&mut s.duplicates);
        t.count(&mut s.irregular);
        t.count(&mut s.decode_errors);
        let mut tx_count = self.tx_count as u64;
        t.count(&mut tx_count);
        self.tx_count = tx_count as u16;
    }

    /// The prepared/forward frame bytes (for the EP to transfer out).
    pub fn tx_frame(&self) -> &[u8] {
        &self.tx_buf[..self.tx_len as usize]
    }

    /// Advance one cycle; completed operations report a [`MsgEvent`].
    pub fn tick(&mut self, mut fire: impl FnMut(MsgEvent)) {
        let Some((remaining, op)) = self.busy else {
            return;
        };
        if remaining.0 > 1 {
            self.busy = Some((Cycles(remaining.0 - 1), op));
            return;
        }
        self.busy = None;
        self.status &= !status::BUSY;
        match op {
            Op::Prepare => {
                let frame = Frame::data(self.pan, self.addr, self.dest, self.seq, &self.samples)
                    .expect("sample accumulator bounded by MAX_SAMPLES");
                self.seq = self.seq.wrapping_add(1);
                self.samples.clear();
                let bytes = frame.encode();
                self.tx_len = bytes.len() as u8;
                self.tx_buf[..bytes.len()].copy_from_slice(&bytes);
                self.tx_count = self.tx_count.wrapping_add(1);
                self.status |= status::TX_READY;
                self.stats.prepared += 1;
                fire(MsgEvent::Ready);
            }
            Op::ProcessRx => {
                let outcome = self.classify_rx();
                if let Some(ev) = outcome {
                    fire(ev);
                }
            }
        }
    }

    fn classify_rx(&mut self) -> Option<MsgEvent> {
        let bytes = &self.rx_buf[..self.rx_len as usize];
        let frame = match Frame::decode(bytes) {
            Ok(f) => f,
            Err(_) => {
                self.stats.decode_errors += 1;
                self.status |= status::DECODE_ERROR;
                return None;
            }
        };
        let regular_forward = frame.frame_type == FrameType::Data && frame.dest != self.addr;
        if !regular_forward {
            // Command frames and data addressed to this node need the
            // general-purpose microcontroller.
            self.stats.irregular += 1;
            return Some(MsgEvent::Irregular);
        }
        // Forwarding candidate: suppress duplicates via the CAM.
        let key = (frame.src, frame.seq);
        if self.cam.contains(&key) {
            self.stats.duplicates += 1;
            self.status |= status::DUPLICATE;
            return None;
        }
        if self.cam.len() == CAM_ENTRIES {
            self.cam.pop_front();
        }
        self.cam.push_back(key);
        // Forward verbatim: same src/seq so downstream nodes dedup too.
        let n = self.rx_len as usize;
        self.tx_buf[..n].copy_from_slice(&self.rx_buf[..n]);
        self.tx_len = self.rx_len;
        self.tx_count = self.tx_count.wrapping_add(1);
        self.status |= status::TX_READY;
        self.stats.forwarded += 1;
        Some(MsgEvent::Forward)
    }

    /// Register read at `offset` into the register window.
    pub fn read(&mut self, offset: u16) -> u8 {
        if matches!(offset, map::MSG_TX_COUNT_LO | map::MSG_TX_COUNT_HI) {
            self.tx_count_read = true;
        }
        match offset {
            map::MSG_CTRL => 0,
            map::MSG_STATUS => self.status | if self.busy.is_some() { status::BUSY } else { 0 },
            map::MSG_SAMPLE_IN => *self.samples.last().unwrap_or(&0),
            map::MSG_SAMPLE_COUNT => self.samples.len() as u8,
            map::MSG_TX_LEN => self.tx_len,
            map::MSG_TX_COUNT_LO => self.tx_count as u8,
            map::MSG_TX_COUNT_HI => (self.tx_count >> 8) as u8,
            map::MSG_RX_LEN => self.rx_len,
            map::MSG_AUTO_PREPARE => self.auto_prepare,
            _ => 0,
        }
    }

    /// The TX and RX buffers, which the bus reads and writes byte by
    /// byte.
    pub(crate) fn buffers_mut(&mut self) -> (&mut [u8; BUF_LEN], &mut [u8; BUF_LEN]) {
        (&mut self.tx_buf, &mut self.rx_buf)
    }

    /// Register write at `offset` into the register window.
    pub fn write(&mut self, offset: u16, value: u8) {
        match offset {
            map::MSG_CTRL => self.command(value),
            map::MSG_SAMPLE_IN => {
                if self.samples.len() < MAX_SAMPLES {
                    self.samples.push(value);
                }
                if self.auto_prepare > 0
                    && self.samples.len() >= self.auto_prepare as usize
                    && self.busy.is_none()
                {
                    self.command(MsgCommand::Prepare as u8);
                }
            }
            map::MSG_RX_LEN => self.rx_len = value.min(map::MSG_BUF_LEN as u8),
            map::MSG_AUTO_PREPARE => {
                self.auto_prepare = value.min(MAX_SAMPLES as u8);
            }
            _ => {}
        }
    }

    fn command(&mut self, value: u8) {
        if self.busy.is_some() {
            return; // one operation at a time; writes while busy ignored
        }
        match value {
            v if v == MsgCommand::Prepare as u8 => {
                self.status &= !(status::TX_READY | status::DUPLICATE | status::DECODE_ERROR);
                self.status |= status::BUSY;
                self.busy = Some((self.prepare_latency, Op::Prepare));
            }
            v if v == MsgCommand::ProcessRx as u8 => {
                self.status &= !(status::TX_READY | status::DUPLICATE | status::DECODE_ERROR);
                self.status |= status::BUSY;
                self.busy = Some((self.process_latency, Op::ProcessRx));
            }
            v if v == MsgCommand::ClearSamples as u8 => self.samples.clear(),
            _ => {}
        }
    }

    /// Test/harness helper: place raw bytes in the RX buffer and set the
    /// length, as the EP's `TRANSFER` from the radio would.
    pub fn load_rx(&mut self, bytes: &[u8]) {
        assert!(bytes.len() <= self.rx_buf.len(), "frame exceeds RX buffer");
        self.rx_buf[..bytes.len()].copy_from_slice(bytes);
        self.rx_len = bytes.len() as u8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_until_event(m: &mut MessageProcessor, max: u64) -> Option<MsgEvent> {
        for _ in 0..max {
            let mut got = None;
            m.tick(|e| got = Some(e));
            if got.is_some() {
                return got;
            }
        }
        None
    }

    fn on() -> MessageProcessor {
        let mut m = MessageProcessor::new();
        m.set_powered(true);
        m.configure_addressing(0x22, 0x0005, 0x0000);
        m
    }

    #[test]
    fn prepare_builds_valid_frame() {
        let mut m = on();
        m.write(map::MSG_SAMPLE_IN, 42);
        m.write(map::MSG_SAMPLE_IN, 43);
        assert_eq!(m.read(map::MSG_SAMPLE_COUNT), 2);
        m.write(map::MSG_CTRL, MsgCommand::Prepare as u8);
        assert_eq!(run_until_event(&mut m, 10), Some(MsgEvent::Ready));
        let frame = Frame::decode(m.tx_frame()).unwrap();
        assert_eq!(frame.payload, vec![42, 43]);
        assert_eq!(frame.src, 0x0005);
        assert_eq!(frame.dest, 0x0000);
        assert_eq!(frame.seq, 0);
        assert_eq!(m.read(map::MSG_SAMPLE_COUNT), 0);
        assert_eq!(m.read(map::MSG_TX_COUNT_LO), 1);
        // Next prepare increments seq.
        m.write(map::MSG_SAMPLE_IN, 1);
        m.write(map::MSG_CTRL, MsgCommand::Prepare as u8);
        run_until_event(&mut m, 10);
        assert_eq!(Frame::decode(m.tx_frame()).unwrap().seq, 1);
    }

    #[test]
    fn prepare_takes_configured_latency() {
        let mut m = on();
        m.write(map::MSG_SAMPLE_IN, 1);
        m.write(map::MSG_CTRL, 1);
        assert!(m.busy());
        assert_ne!(m.read(map::MSG_STATUS) & status::BUSY, 0);
        let mut fired_at = 0;
        for c in 1..=10 {
            let mut hit = false;
            m.tick(|_| hit = true);
            if hit {
                fired_at = c;
                break;
            }
        }
        assert_eq!(fired_at, 4, "Prepare latency");
    }

    #[test]
    fn forwardable_frame_raises_forward_once() {
        let mut m = on();
        let f = Frame::data(0x22, 0x0009, 0x0000, 7, &[1, 2]).unwrap();
        m.load_rx(&f.encode());
        m.write(map::MSG_CTRL, 2);
        assert_eq!(run_until_event(&mut m, 10), Some(MsgEvent::Forward));
        assert_eq!(m.tx_frame(), f.encode().as_slice(), "forwarded verbatim");
        // Same (src, seq) again → duplicate, dropped silently.
        m.load_rx(&f.encode());
        m.write(map::MSG_CTRL, 2);
        assert_eq!(run_until_event(&mut m, 10), None);
        assert_ne!(m.read(map::MSG_STATUS) & status::DUPLICATE, 0);
        assert_eq!(m.stats().forwarded, 1);
        assert_eq!(m.stats().duplicates, 1);
    }

    #[test]
    fn command_frame_is_irregular() {
        let mut m = on();
        let f = Frame::command(0x22, 0x0009, 0x0005, 0, &[9]).unwrap();
        m.load_rx(&f.encode());
        m.write(map::MSG_CTRL, 2);
        assert_eq!(run_until_event(&mut m, 10), Some(MsgEvent::Irregular));
        assert_eq!(m.stats().irregular, 1);
    }

    #[test]
    fn data_to_self_is_irregular() {
        let mut m = on();
        let f = Frame::data(0x22, 0x0009, 0x0005, 0, &[9]).unwrap();
        m.load_rx(&f.encode());
        m.write(map::MSG_CTRL, 2);
        assert_eq!(run_until_event(&mut m, 10), Some(MsgEvent::Irregular));
    }

    #[test]
    fn garbage_rx_sets_decode_error() {
        let mut m = on();
        m.load_rx(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
        m.write(map::MSG_CTRL, 2);
        assert_eq!(run_until_event(&mut m, 10), None);
        assert_ne!(m.read(map::MSG_STATUS) & status::DECODE_ERROR, 0);
        assert_eq!(m.stats().decode_errors, 1);
    }

    #[test]
    fn cam_evicts_fifo() {
        let mut m = on();
        // Fill the CAM with 16 distinct packets, then re-send the first:
        // it must have been evicted by the 17th and forward again.
        for seq in 0..=CAM_ENTRIES as u8 {
            let f = Frame::data(0x22, 0x0009, 0x0000, seq, &[]).unwrap();
            m.load_rx(&f.encode());
            m.write(map::MSG_CTRL, 2);
            assert_eq!(run_until_event(&mut m, 10), Some(MsgEvent::Forward));
        }
        let first = Frame::data(0x22, 0x0009, 0x0000, 0, &[]).unwrap();
        m.load_rx(&first.encode());
        m.write(map::MSG_CTRL, 2);
        assert_eq!(
            run_until_event(&mut m, 10),
            Some(MsgEvent::Forward),
            "evicted entry forwards again"
        );
    }

    #[test]
    fn gating_clears_buffers_keeps_cam() {
        let mut m = on();
        let f = Frame::data(0x22, 0x0009, 0x0000, 3, &[]).unwrap();
        m.load_rx(&f.encode());
        m.write(map::MSG_CTRL, 2);
        run_until_event(&mut m, 10);
        m.set_powered(false);
        m.set_powered(true);
        assert_eq!(m.read(map::MSG_TX_LEN), 0, "buffers lost");
        // CAM retained: the same packet is still a duplicate.
        m.load_rx(&f.encode());
        m.write(map::MSG_CTRL, 2);
        assert_eq!(run_until_event(&mut m, 10), None);
        assert_eq!(m.stats().duplicates, 1);
    }

    #[test]
    fn sample_accumulator_bounded() {
        let mut m = on();
        for i in 0..(MAX_SAMPLES + 10) {
            m.write(map::MSG_SAMPLE_IN, i as u8);
        }
        assert_eq!(m.read(map::MSG_SAMPLE_COUNT) as usize, MAX_SAMPLES);
        m.write(map::MSG_CTRL, MsgCommand::Prepare as u8);
        run_until_event(&mut m, 10);
        assert!(m.tx_frame().len() <= map::MSG_BUF_LEN as usize);
        assert!(Frame::decode(m.tx_frame()).is_ok());
    }

    #[test]
    fn auto_prepare_batches_samples() {
        let mut m = on();
        m.write(map::MSG_AUTO_PREPARE, 3);
        for v in [10, 20] {
            m.write(map::MSG_SAMPLE_IN, v);
            assert!(!m.busy(), "no prepare before the threshold");
        }
        m.write(map::MSG_SAMPLE_IN, 30);
        assert!(m.busy(), "third sample triggers hardware prepare");
        assert_eq!(run_until_event(&mut m, 10), Some(MsgEvent::Ready));
        let f = Frame::decode(m.tx_frame()).unwrap();
        assert_eq!(f.payload, vec![10, 20, 30]);
        assert_eq!(m.read(map::MSG_SAMPLE_COUNT), 0);
        // Oversized thresholds are clamped to the buffer capacity.
        m.write(map::MSG_AUTO_PREPARE, 200);
        assert_eq!(m.read(map::MSG_AUTO_PREPARE) as usize, MAX_SAMPLES);
    }

    #[test]
    fn clear_samples_command() {
        let mut m = on();
        m.write(map::MSG_SAMPLE_IN, 1);
        m.write(map::MSG_CTRL, MsgCommand::ClearSamples as u8);
        assert_eq!(m.read(map::MSG_SAMPLE_COUNT), 0);
    }

    #[test]
    fn busy_block_ignores_new_commands() {
        let mut m = on();
        m.write(map::MSG_SAMPLE_IN, 1);
        m.write(map::MSG_CTRL, 1);
        assert!(m.busy());
        m.write(map::MSG_CTRL, 2); // ignored
        assert_eq!(run_until_event(&mut m, 10), Some(MsgEvent::Ready));
        assert_eq!(run_until_event(&mut m, 10), None);
    }

    #[test]
    fn buffer_window_access() {
        let mut m = on();
        m.load_rx(&[0xCD]);
        let (tx, rx) = m.buffers_mut();
        tx[5] = 0xAB;
        assert_eq!(rx[0], 0xCD);
        assert_eq!(m.buffers_mut().0[5], 0xAB);
    }
}
