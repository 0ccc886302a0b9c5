//! The radio interface slave: a behavioural model of a CC2420-class
//! 802.15.4 transceiver (§4.3.6).
//!
//! The real chip implements start-symbol detection, framing, and FCS in
//! hardware; this model exposes the same contract to the system — a TX
//! buffer the event processor fills and fires, a TX-done interrupt after
//! the on-air time, and an RX-done interrupt with the frame already
//! validated in the RX buffer. Being a commodity part, the radio
//! contributes no power to the system estimates (§6.2.1), exactly as in
//! the paper.

use super::BUF_LEN;
use crate::map;
use crate::periods::push_bytes;
use ulp_net::PhyTiming;
use ulp_sim::repeat::Totals;
use ulp_sim::Cycles;

/// Commands writable to `RADIO_CTRL`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RadioCommand {
    /// Stop listening (stay powered).
    Standby = 0,
    /// Transmit the TX buffer (`RADIO_TX_LEN` bytes).
    Transmit = 1,
    /// Enable the receiver.
    Listen = 2,
}

/// Cumulative statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RadioStats {
    /// Frames transmitted.
    pub transmitted: u64,
    /// Frames received while listening.
    pub received: u64,
    /// Frames that arrived while off/not listening/mid-TX.
    pub missed: u64,
}

/// The radio slave.
#[derive(Debug, Clone)]
pub struct Radio {
    powered: bool,
    listening: bool,
    tx_remaining: Option<u64>,
    tx_buf: [u8; BUF_LEN],
    tx_len: u8,
    rx_buf: [u8; BUF_LEN],
    rx_len: u8,
    outbox: Vec<(Cycles, Vec<u8>)>,
    stats: RadioStats,
    timing: PhyTiming,
    clock_hz: f64,
}

impl Radio {
    /// A gated-off radio for a system clocked at `clock_hz`.
    pub fn new(clock_hz: f64) -> Radio {
        Radio {
            powered: false,
            listening: false,
            tx_remaining: None,
            tx_buf: [0; 32],
            tx_len: 0,
            rx_buf: [0; 32],
            rx_len: 0,
            outbox: Vec::new(),
            stats: RadioStats::default(),
            timing: PhyTiming::default(),
            clock_hz,
        }
    }

    /// Whether the radio is powered.
    pub fn powered(&self) -> bool {
        self.powered
    }

    /// Whether the receiver is enabled.
    pub fn listening(&self) -> bool {
        self.listening
    }

    /// Whether a transmission is in flight.
    pub fn transmitting(&self) -> bool {
        self.tx_remaining.is_some()
    }

    /// Cycles until the in-flight transmission completes.
    pub fn cycles_to_tx_done(&self) -> Option<u64> {
        self.tx_remaining
    }

    /// Power on/off. Gating drops any in-flight TX and disables RX.
    pub fn set_powered(&mut self, on: bool) {
        if !on {
            self.listening = false;
            self.tx_remaining = None;
        }
        self.powered = on;
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> RadioStats {
        self.stats
    }

    /// Append the radio's state to a state key: every field but the
    /// statistics, which [`totals`](Radio::totals) visits, and the PHY
    /// timing and clock, which never change.
    pub(crate) fn key(&self, key: &mut Vec<u64>) {
        key.extend([self.powered as u64, self.listening as u64]);
        key.push(self.tx_remaining.map_or(0, |left| left + 1));
        key.extend([self.tx_len as u64, self.rx_len as u64]);
        push_bytes(key, &self.tx_buf);
        push_bytes(key, &self.rx_buf);
        key.push(self.outbox.len() as u64);
    }

    pub(crate) fn totals(&mut self, t: &mut dyn Totals) {
        t.count(&mut self.stats.transmitted);
        t.count(&mut self.stats.received);
        t.count(&mut self.stats.missed);
    }

    /// Frames transmitted so far, with their completion times; the
    /// multi-node harness drains this into the shared medium.
    pub fn take_outbox(&mut self) -> Vec<(Cycles, Vec<u8>)> {
        std::mem::take(&mut self.outbox)
    }

    /// Advance one cycle; fires `fire_tx_done` when a transmission
    /// completes.
    pub fn tick(&mut self, now: Cycles, mut fire_tx_done: impl FnMut()) {
        if let Some(rem) = self.tx_remaining {
            if rem <= 1 {
                self.tx_remaining = None;
                let frame = self.tx_buf[..self.tx_len as usize].to_vec();
                self.outbox.push((now, frame));
                self.stats.transmitted += 1;
                fire_tx_done();
            } else {
                self.tx_remaining = Some(rem - 1);
            }
        }
    }

    /// Advance `cycles` cycles short of any TX completion (idle-skip
    /// path). The check holds in release builds too: an over-skip would
    /// lose the completion.
    ///
    /// # Panics
    ///
    /// Panics if the span reaches the in-flight transmission's end.
    pub fn skip(&mut self, cycles: u64) {
        if let Some(rem) = &mut self.tx_remaining {
            assert!(*rem > cycles, "skip({cycles}) would cross a TX completion");
            *rem -= cycles;
        }
    }

    /// Deliver a frame from the medium (timestamp = end of the frame on
    /// air). Received only if powered, listening, and not mid-TX;
    /// otherwise counted as missed. Returns whether it was received —
    /// the system raises `RadioRxDone` on `true`.
    pub fn deliver(&mut self, bytes: &[u8]) -> bool {
        if !self.powered || !self.listening || self.tx_remaining.is_some() {
            self.stats.missed += 1;
            return false;
        }
        if bytes.len() > self.rx_buf.len() {
            self.stats.missed += 1; // frame longer than our buffer
            return false;
        }
        self.rx_buf[..bytes.len()].copy_from_slice(bytes);
        self.rx_len = bytes.len() as u8;
        self.stats.received += 1;
        true
    }

    /// Register read at `offset` into the register window.
    pub fn read(&self, offset: u16) -> u8 {
        match offset {
            map::RADIO_CTRL => 0,
            map::RADIO_STATUS => {
                (self.tx_remaining.is_some() as u8)
                    | ((self.rx_len > 0) as u8) << 1
                    | (self.listening as u8) << 2
            }
            map::RADIO_TX_LEN => self.tx_len,
            map::RADIO_RX_LEN => self.rx_len,
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
            map::RADIO_CTRL => self.command(value),
            map::RADIO_TX_LEN => self.tx_len = value.min(map::MSG_BUF_LEN as u8),
            _ => {}
        }
    }

    fn command(&mut self, value: u8) {
        if !self.powered {
            return;
        }
        match value {
            v if v == RadioCommand::Transmit as u8
                && self.tx_remaining.is_none()
                && self.tx_len > 0 =>
            {
                let cycles = self
                    .timing
                    .frame_airtime_cycles(self.tx_len as usize, self.clock_hz);
                self.tx_remaining = Some(cycles.max(1));
            }
            v if v == RadioCommand::Listen as u8 => self.listening = true,
            v if v == RadioCommand::Standby as u8 => {
                self.listening = false;
                self.rx_len = 0;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on() -> Radio {
        let mut r = Radio::new(100_000.0);
        r.set_powered(true);
        r
    }

    #[test]
    fn transmit_takes_airtime_then_fires() {
        let mut r = on();
        r.buffers_mut().0[..5].copy_from_slice(&[1, 2, 3, 4, 5]);
        r.write(map::RADIO_TX_LEN, 5);
        r.write(map::RADIO_CTRL, 1);
        assert!(r.transmitting());
        // (5 SHR/PHR + 5 bytes) × 32 µs = 352 µs → 36 cycles at 100 kHz.
        assert_eq!(r.cycles_to_tx_done(), Some(36));
        let mut done = false;
        for c in 1..=40 {
            r.tick(Cycles(c), || done = true);
            if done {
                assert_eq!(c, 36);
                break;
            }
        }
        assert!(done);
        let out = r.take_outbox();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1, vec![1, 2, 3, 4, 5]);
        assert_eq!(r.stats().transmitted, 1);
        assert!(r.take_outbox().is_empty(), "outbox drained");
    }

    #[test]
    fn listen_and_deliver() {
        let mut r = on();
        assert!(!r.deliver(&[1, 2, 3]), "not listening yet");
        assert_eq!(r.stats().missed, 1);
        r.write(map::RADIO_CTRL, 2);
        assert!(r.listening());
        assert!(r.deliver(&[9, 8, 7]));
        assert_eq!(r.read(map::RADIO_RX_LEN), 3);
        let rx = r.buffers_mut().1;
        assert_eq!((rx[0], rx[2]), (9, 7));
        assert_eq!(r.stats().received, 1);
    }

    #[test]
    fn unpowered_radio_ignores_everything() {
        let mut r = Radio::new(100_000.0);
        r.write(map::RADIO_CTRL, 2);
        assert!(!r.listening());
        assert!(!r.deliver(&[1]));
        r.write(map::RADIO_CTRL, 1);
        assert!(!r.transmitting());
    }

    #[test]
    fn gating_aborts_tx_and_rx() {
        let mut r = on();
        r.write(map::RADIO_TX_LEN, 5);
        r.write(map::RADIO_CTRL, 1);
        r.set_powered(false);
        assert!(!r.transmitting());
        let mut fired = false;
        r.tick(Cycles(1), || fired = true);
        assert!(!fired, "aborted TX never completes");
    }

    #[test]
    fn mid_tx_delivery_is_missed() {
        let mut r = on();
        r.write(map::RADIO_CTRL, 2); // listen
        r.write(map::RADIO_TX_LEN, 10);
        r.write(map::RADIO_CTRL, 1); // tx
        assert!(!r.deliver(&[1, 2]), "half-duplex");
        assert_eq!(r.stats().missed, 1);
    }

    #[test]
    fn status_bits() {
        let mut r = on();
        assert_eq!(r.read(map::RADIO_STATUS), 0);
        r.write(map::RADIO_CTRL, 2);
        assert_eq!(r.read(map::RADIO_STATUS) & 0b100, 0b100);
        r.deliver(&[1]);
        assert_eq!(r.read(map::RADIO_STATUS) & 0b010, 0b010);
        // Standby clears RX pending and listening.
        r.write(map::RADIO_CTRL, 0);
        assert_eq!(r.read(map::RADIO_STATUS), 0);
    }

    #[test]
    fn skip_preserves_tx_countdown() {
        let mut r = on();
        r.write(map::RADIO_TX_LEN, 5);
        r.write(map::RADIO_CTRL, 1);
        let before = r.cycles_to_tx_done().unwrap();
        r.skip(10);
        assert_eq!(r.cycles_to_tx_done(), Some(before - 10));
    }

    #[test]
    #[should_panic(expected = "would cross a TX completion")]
    fn over_skip_panics() {
        let mut r = on();
        r.write(map::RADIO_TX_LEN, 5);
        r.write(map::RADIO_CTRL, 1);
        let remaining = r.cycles_to_tx_done().unwrap();
        r.skip(remaining);
    }

    #[test]
    fn zero_length_tx_is_a_noop() {
        let mut r = on();
        r.write(map::RADIO_CTRL, 1);
        assert!(!r.transmitting());
    }
}
