//! Sensor/ADC block and pluggable physical-signal models.
//!
//! The block of "sensors and Analog-to-Digital Converters" (§4.2.2) is a
//! commodity part in the paper (excluded from power estimates), but its
//! *behaviour* matters: Figure 5's ISR powers the sensor on, reads the
//! converted sample, and powers it off — acquisition settles during the
//! `SWITCHON` handshake, so a plain `READ` of the data register returns a
//! fresh sample. A control-triggered conversion mode with a completion
//! interrupt is also provided for slower ADCs.

use crate::map;
use ulp_sim::repeat::Totals;
use ulp_sim::Cycles;

/// A model of the physical quantity being sensed.
pub trait SensorModel {
    /// Sample the signal at simulated time `at` on `channel`, as the
    /// 8-bit ADC would convert it.
    fn sample(&mut self, at: Cycles, channel: u8) -> u8;

    /// The model's whole state as one word, for a model whose samples
    /// depend on that state alone (not on `at`), so that a node whose
    /// state repeats samples the same values again. `None`, the
    /// default, for any other model: its node's state is never keyed
    /// and its periods are never repeated in a jump.
    fn state_key(&self) -> Option<u64> {
        None
    }
}

/// A constant signal.
#[derive(Debug, Clone, Copy)]
pub struct ConstSensor(pub u8);

impl SensorModel for ConstSensor {
    fn sample(&mut self, _at: Cycles, _channel: u8) -> u8 {
        self.0
    }

    fn state_key(&self) -> Option<u64> {
        Some(self.0 as u64)
    }
}

/// A sinusoid: `offset + amplitude·sin(2πt/period)`, clamped to 0–255.
/// Handy for volcano-style infrasound workloads.
#[derive(Debug, Clone, Copy)]
pub struct SineSensor {
    /// Period in cycles.
    pub period: u64,
    /// Peak deviation from the offset.
    pub amplitude: f64,
    /// Midpoint value.
    pub offset: f64,
}

impl SensorModel for SineSensor {
    fn sample(&mut self, at: Cycles, _channel: u8) -> u8 {
        let phase = (at.0 % self.period) as f64 / self.period as f64;
        let v = self.offset + self.amplitude * (2.0 * std::f64::consts::PI * phase).sin();
        v.clamp(0.0, 255.0) as u8
    }
}

/// A deterministic bounded random walk (habitat-monitoring temperature).
#[derive(Debug, Clone)]
pub struct RandomWalkSensor {
    value: u8,
    state: u64,
}

impl RandomWalkSensor {
    /// Start at `initial` with the given seed.
    pub fn new(initial: u8, seed: u64) -> RandomWalkSensor {
        RandomWalkSensor {
            value: initial,
            state: seed | 1,
        }
    }
}

impl SensorModel for RandomWalkSensor {
    fn sample(&mut self, _at: Cycles, _channel: u8) -> u8 {
        // xorshift64* step.
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        let r = self.state.wrapping_mul(0x2545F4914F6CDD1D);
        let delta = (r % 5) as i16 - 2;
        self.value = (self.value as i16 + delta).clamp(0, 255) as u8;
        self.value
    }
}

/// Replays a recorded trace, looping at the end.
#[derive(Debug, Clone)]
pub struct TraceSensor {
    trace: Vec<u8>,
    pos: usize,
}

impl TraceSensor {
    /// A trace-backed sensor.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn new(trace: Vec<u8>) -> TraceSensor {
        assert!(!trace.is_empty(), "trace must be non-empty");
        TraceSensor { trace, pos: 0 }
    }
}

impl SensorModel for TraceSensor {
    fn sample(&mut self, _at: Cycles, _channel: u8) -> u8 {
        let v = self.trace[self.pos];
        self.pos = (self.pos + 1) % self.trace.len();
        v
    }
}

/// The sensor/ADC slave.
pub struct SensorBlock {
    model: Box<dyn SensorModel + Send>,
    powered: bool,
    channel: u8,
    latched: u8,
    conversion_latency: Cycles,
    converting: Option<Cycles>, // cycles remaining
    conversions: u64,
}

impl std::fmt::Debug for SensorBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SensorBlock")
            .field("powered", &self.powered)
            .field("channel", &self.channel)
            .field("latched", &self.latched)
            .field("conversions", &self.conversions)
            .finish_non_exhaustive()
    }
}

impl SensorBlock {
    /// A gated-off sensor block with the given signal model.
    pub fn new(model: Box<dyn SensorModel + Send>) -> SensorBlock {
        SensorBlock {
            model,
            powered: false,
            channel: 0,
            latched: 0,
            conversion_latency: Cycles(2),
            converting: None,
            conversions: 0,
        }
    }

    /// Whether the block is powered.
    pub fn powered(&self) -> bool {
        self.powered
    }

    /// Power on/off. Powering on latches a fresh sample (acquisition
    /// happens during the wake handshake, per Figure 5's ISR pattern).
    pub fn set_powered(&mut self, on: bool, at: Cycles) {
        if on && !self.powered {
            self.latched = self.model.sample(at, self.channel);
            self.conversions += 1;
        }
        if !on {
            self.converting = None;
        }
        self.powered = on;
    }

    /// Total conversions performed.
    pub fn conversions(&self) -> u64 {
        self.conversions
    }

    /// Append the block's state to a state key: every field but
    /// `conversions`, which [`totals`](SensorBlock::totals) visits.
    /// Returns `false`, appending nothing, when the signal model has no
    /// [`state_key`](SensorModel::state_key).
    pub(crate) fn key(&self, key: &mut Vec<u64>) -> bool {
        let Some(model) = self.model.state_key() else {
            return false;
        };
        key.extend([model, self.powered as u64, self.channel as u64]);
        key.extend([self.latched as u64, self.conversion_latency.0]);
        key.push(self.converting.map_or(0, |left| left.0 + 1));
        true
    }

    pub(crate) fn totals(&mut self, t: &mut dyn Totals) {
        t.count(&mut self.conversions);
    }

    /// Whether a triggered conversion is in flight.
    pub fn busy(&self) -> bool {
        self.converting.is_some()
    }

    /// Advance one cycle; `fire_done` is called when a triggered
    /// conversion completes.
    pub fn tick(&mut self, at: Cycles, mut fire_done: impl FnMut()) {
        if let Some(rem) = self.converting {
            if rem.0 <= 1 {
                self.converting = None;
                self.latched = self.model.sample(at, self.channel);
                self.conversions += 1;
                fire_done();
            } else {
                self.converting = Some(Cycles(rem.0 - 1));
            }
        }
    }

    /// Register read. Reading `SENSOR_DATA` returns the latched sample.
    pub fn read(&mut self, offset: u16) -> u8 {
        match offset {
            map::SENSOR_CTRL => self.converting.is_some() as u8,
            map::SENSOR_DATA => self.latched,
            map::SENSOR_CHANNEL => self.channel,
            _ => 0,
        }
    }

    /// Register write. Writing 1 to control starts a triggered
    /// conversion that completes after the conversion latency.
    pub fn write(&mut self, offset: u16, value: u8) {
        match offset {
            map::SENSOR_CTRL if value == 1 && self.powered && self.converting.is_none() => {
                self.converting = Some(self.conversion_latency);
            }
            map::SENSOR_CHANNEL => self.channel = value,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_on_latches_sample() {
        let mut s = SensorBlock::new(Box::new(ConstSensor(42)));
        assert_eq!(s.read(map::SENSOR_DATA), 0);
        s.set_powered(true, Cycles(10));
        assert_eq!(s.read(map::SENSOR_DATA), 42);
        assert_eq!(s.conversions(), 1);
    }

    #[test]
    fn triggered_conversion_fires_after_latency() {
        let mut s = SensorBlock::new(Box::new(ConstSensor(7)));
        s.set_powered(true, Cycles(0));
        s.write(map::SENSOR_CTRL, 1);
        assert!(s.busy());
        let mut done = 0;
        s.tick(Cycles(1), || done += 1);
        assert_eq!(done, 0);
        s.tick(Cycles(2), || done += 1);
        assert_eq!(done, 1);
        assert!(!s.busy());
        assert_eq!(s.conversions(), 2);
    }

    #[test]
    fn unpowered_block_ignores_trigger() {
        let mut s = SensorBlock::new(Box::new(ConstSensor(7)));
        s.write(map::SENSOR_CTRL, 1);
        assert!(!s.busy());
    }

    #[test]
    fn sine_sensor_oscillates() {
        let mut m = SineSensor {
            period: 100,
            amplitude: 100.0,
            offset: 128.0,
        };
        let at_zero = m.sample(Cycles(0), 0);
        let quarter = m.sample(Cycles(25), 0);
        let three_quarter = m.sample(Cycles(75), 0);
        assert_eq!(at_zero, 128);
        assert!(quarter > 200);
        assert!(three_quarter < 60);
    }

    #[test]
    fn random_walk_bounded_and_deterministic() {
        let mut a = RandomWalkSensor::new(128, 5);
        let mut b = RandomWalkSensor::new(128, 5);
        for i in 0..1000 {
            let va = a.sample(Cycles(i), 0);
            assert_eq!(va, b.sample(Cycles(i), 0));
        }
    }

    #[test]
    fn trace_sensor_loops() {
        let mut t = TraceSensor::new(vec![1, 2, 3]);
        let got: Vec<u8> = (0..7).map(|i| t.sample(Cycles(i), 0)).collect();
        assert_eq!(got, vec![1, 2, 3, 1, 2, 3, 1]);
    }

    #[test]
    fn channel_select_roundtrip() {
        let mut s = SensorBlock::new(Box::new(ConstSensor(1)));
        s.write(map::SENSOR_CHANNEL, 3);
        assert_eq!(s.read(map::SENSOR_CHANNEL), 3);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_trace_rejected() {
        let _ = TraceSensor::new(vec![]);
    }
}
