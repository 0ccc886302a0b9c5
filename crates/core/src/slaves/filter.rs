//! The threshold filter: "a generic filter slave for basic data
//! processing ... a simple threshold filter with a programmable
//! threshold" (§4.2.2).
//!
//! Because the event processor has no conditional instructions, data-
//! dependent control flow is expressed through the interrupt fabric: the
//! filter raises [`crate::map::Irq::FilterPass`] only when the input
//! passes, so the "sample passed, build a packet" ISR simply never runs
//! for filtered-out samples. This is the paper's event-driven answer to
//! branching.

use crate::map;
use ulp_sim::repeat::Totals;

/// The threshold filter slave.
#[derive(Debug, Clone)]
pub struct ThresholdFilter {
    powered: bool,
    threshold: u8,
    input: u8,
    result: u8,
    /// 0 = pass when input ≥ threshold; 1 = pass when input < threshold;
    /// 2 = running-average accumulator (no interrupt).
    mode: u8,
    average: u8,
    evaluations: u64,
    passes: u64,
}

impl Default for ThresholdFilter {
    fn default() -> Self {
        ThresholdFilter::new()
    }
}

impl ThresholdFilter {
    /// A powered filter with threshold 0 (everything passes in mode 0).
    pub fn new() -> ThresholdFilter {
        ThresholdFilter {
            powered: true,
            threshold: 0,
            input: 0,
            result: 0,
            mode: 0,
            average: 0,
            evaluations: 0,
            passes: 0,
        }
    }

    /// Whether the block is powered.
    pub fn powered(&self) -> bool {
        self.powered
    }

    /// Power on/off; gating clears the latched input and result (state is
    /// lost, matching Vdd gating), but the threshold and mode are plain
    /// config latches on the always-on rail so ISRs need not reprogram
    /// them per event.
    pub fn set_powered(&mut self, on: bool) {
        if self.powered && !on {
            self.input = 0;
            self.result = 0;
        }
        self.powered = on;
    }

    /// Append the filter's state to a state key: every field but the
    /// two tallies, which [`totals`](ThresholdFilter::totals) visits.
    pub(crate) fn key(&self, key: &mut Vec<u64>) {
        key.extend([
            self.powered as u64,
            self.threshold as u64,
            self.input as u64,
        ]);
        key.extend([self.result as u64, self.mode as u64, self.average as u64]);
    }

    pub(crate) fn totals(&mut self, t: &mut dyn Totals) {
        t.count(&mut self.evaluations);
        t.count(&mut self.passes);
    }

    /// Evaluations performed.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Evaluations that passed.
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// Register read.
    pub fn read(&self, offset: u16) -> u8 {
        match offset {
            map::FILTER_CTRL => 0,
            map::FILTER_THRESHOLD => self.threshold,
            map::FILTER_INPUT => self.input,
            map::FILTER_RESULT => self.result,
            map::FILTER_MODE => self.mode,
            _ => 0,
        }
    }

    /// The running average maintained in mode 2 (the `sense` comparison
    /// app's workload: "periodically samples data from the ADC and
    /// computes a running average", §6.1.3).
    pub fn average(&self) -> u8 {
        self.average
    }

    /// Register write. Writing 1 to the control register evaluates the
    /// filter; in threshold modes, a passing input invokes `fire_pass`
    /// (raising the `FilterPass` interrupt at system level); in average
    /// mode the block folds the input into its exponentially weighted
    /// running average instead.
    pub fn write(&mut self, offset: u16, value: u8, mut fire_pass: impl FnMut()) {
        match offset {
            map::FILTER_CTRL if value == 1 => {
                self.evaluations += 1;
                match self.mode {
                    0 | 1 => {
                        let pass = if self.mode == 0 {
                            self.input >= self.threshold
                        } else {
                            self.input < self.threshold
                        };
                        self.result = pass as u8;
                        if pass {
                            self.passes += 1;
                            fire_pass();
                        }
                    }
                    _ => {
                        // EWMA with α = 1/4: avg += (x - avg)/4.
                        let avg = self.average as u16;
                        let x = self.input as u16;
                        self.average = ((avg * 3 + x) / 4) as u8;
                        self.result = self.average;
                    }
                }
            }
            map::FILTER_THRESHOLD => self.threshold = value,
            map::FILTER_INPUT => self.input = value,
            map::FILTER_MODE => self.mode = value.min(2),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ThresholdFilter {
        fn write_quiet(&mut self, offset: u16, value: u8) {
            self.write(offset, value, || {});
        }
    }

    #[test]
    fn passes_at_or_above_threshold() {
        let mut f = ThresholdFilter::new();
        f.write_quiet(map::FILTER_THRESHOLD, 100);
        f.write_quiet(map::FILTER_INPUT, 99);
        let mut fired = false;
        f.write(map::FILTER_CTRL, 1, || fired = true);
        assert!(!fired);
        assert_eq!(f.read(map::FILTER_RESULT), 0);

        f.write_quiet(map::FILTER_INPUT, 100);
        f.write(map::FILTER_CTRL, 1, || fired = true);
        assert!(fired);
        assert_eq!(f.read(map::FILTER_RESULT), 1);
        assert_eq!(f.evaluations(), 2);
        assert_eq!(f.passes(), 1);
    }

    #[test]
    fn inverted_mode_passes_below() {
        let mut f = ThresholdFilter::new();
        f.write_quiet(map::FILTER_THRESHOLD, 50);
        f.write_quiet(map::FILTER_MODE, 1);
        f.write_quiet(map::FILTER_INPUT, 10);
        let mut fired = false;
        f.write(map::FILTER_CTRL, 1, || fired = true);
        assert!(fired, "below-threshold passes in mode 1");
        f.write_quiet(map::FILTER_INPUT, 60);
        let mut fired2 = false;
        f.write(map::FILTER_CTRL, 1, || fired2 = true);
        assert!(!fired2);
    }

    #[test]
    fn gating_clears_data_keeps_config() {
        let mut f = ThresholdFilter::new();
        f.write_quiet(map::FILTER_THRESHOLD, 42);
        f.write_quiet(map::FILTER_INPUT, 77);
        f.set_powered(false);
        f.set_powered(true);
        assert_eq!(f.read(map::FILTER_INPUT), 0);
        assert_eq!(f.read(map::FILTER_RESULT), 0);
        assert_eq!(f.read(map::FILTER_THRESHOLD), 42, "config survives");
    }

    #[test]
    fn input_readback_for_isr_chaining() {
        // The FilterPass ISR reads the latched input to pass it onward.
        let mut f = ThresholdFilter::new();
        f.write_quiet(map::FILTER_INPUT, 123);
        assert_eq!(f.read(map::FILTER_INPUT), 123);
    }

    #[test]
    fn average_mode_accumulates_ewma() {
        let mut f = ThresholdFilter::new();
        f.write_quiet(map::FILTER_MODE, 2);
        // Feed a constant 200: the EWMA converges towards it.
        for _ in 0..32 {
            f.write_quiet(map::FILTER_INPUT, 200);
            let mut fired = false;
            f.write(map::FILTER_CTRL, 1, || fired = true);
            assert!(!fired, "average mode never interrupts");
        }
        assert!(f.average() >= 190, "got {}", f.average());
        assert_eq!(f.read(map::FILTER_RESULT), f.average());
    }

    #[test]
    fn threshold_zero_always_passes() {
        let mut f = ThresholdFilter::new();
        for v in [0u8, 1, 128, 255] {
            f.write_quiet(map::FILTER_INPUT, v);
            let mut fired = false;
            f.write(map::FILTER_CTRL, 1, || fired = true);
            assert!(fired, "input {v} must pass threshold 0");
        }
    }
}
