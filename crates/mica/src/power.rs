//! Mica2 power model: the measured current draws of Table 1 (from the
//! PowerTOSSIM study) and the duty-cycle power comparison of §6.3.

use ulp_sim::{Energy, Power, Seconds, Voltage};

/// CPU sleep modes with distinct currents (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SleepMode {
    /// Idle mode: clocks running, 3.2 mA.
    Idle,
    /// Power-save: 0.110 mA.
    PowerSave,
    /// Power-down: 0.103 mA.
    PowerDown,
}

/// The Mica2 platform's measured currents at 3 V (Table 1), in mA.
#[derive(Debug, Clone)]
pub struct Mica2Power {
    /// Supply voltage (3 V in the paper's measurements).
    pub supply: Voltage,
    /// CPU active: 8.0 mA.
    pub cpu_active_ma: f64,
    /// CPU idle: 3.2 mA.
    pub cpu_idle_ma: f64,
    /// ADC acquisition: 1.0 mA.
    pub adc_acquire_ma: f64,
    /// Extended standby: 0.223 mA.
    pub extended_standby_ma: f64,
    /// Standby: 0.216 mA.
    pub standby_ma: f64,
    /// Power-save: 0.110 mA.
    pub power_save_ma: f64,
    /// Power-down: 0.103 mA.
    pub power_down_ma: f64,
    /// Radio receive: 7.0 mA.
    pub radio_rx_ma: f64,
    /// Radio transmit at −20 dBm: 3.7 mA.
    pub radio_tx_m20dbm_ma: f64,
    /// Radio transmit at −8 dBm: 6.5 mA.
    pub radio_tx_m8dbm_ma: f64,
    /// Radio transmit at 0 dBm: 8.5 mA.
    pub radio_tx_0dbm_ma: f64,
    /// Radio transmit at +10 dBm: 21.5 mA.
    pub radio_tx_10dbm_ma: f64,
    /// Typical sensor board: 0.7 mA.
    pub sensors_ma: f64,
}

impl Mica2Power {
    /// Table 1 as measured at 3 V.
    pub fn table1() -> Mica2Power {
        Mica2Power {
            supply: Voltage::from_volts(3.0),
            cpu_active_ma: 8.0,
            cpu_idle_ma: 3.2,
            adc_acquire_ma: 1.0,
            extended_standby_ma: 0.223,
            standby_ma: 0.216,
            power_save_ma: 0.110,
            power_down_ma: 0.103,
            radio_rx_ma: 7.0,
            radio_tx_m20dbm_ma: 3.7,
            radio_tx_m8dbm_ma: 6.5,
            radio_tx_0dbm_ma: 8.5,
            radio_tx_10dbm_ma: 21.5,
            sensors_ma: 0.7,
        }
    }

    /// CPU active power.
    pub fn cpu_active(&self) -> Power {
        Power::from_current(self.cpu_active_ma, self.supply)
    }

    /// CPU power in the given sleep mode.
    pub fn cpu_sleep(&self, mode: SleepMode) -> Power {
        let ma = match mode {
            SleepMode::Idle => self.cpu_idle_ma,
            SleepMode::PowerSave => self.power_save_ma,
            SleepMode::PowerDown => self.power_down_ma,
        };
        Power::from_current(ma, self.supply)
    }

    /// Average CPU power at a given active-duty fraction, with the given
    /// sleep mode for the remainder — the Atmel comparison model of
    /// §6.3 ("the power numbers for the same work done for both systems,
    /// with the utilization of the Atmel normalized to the event
    /// processor's").
    ///
    /// # Panics
    ///
    /// Panics if `duty` is outside `[0, 1]`.
    pub fn cpu_average(&self, duty: f64, sleep: SleepMode) -> Power {
        assert!((0.0..=1.0).contains(&duty), "duty {duty} out of [0, 1]");
        let active = self.cpu_active().watts();
        let idle = self.cpu_sleep(sleep).watts();
        Power::from_watts(duty * active + (1.0 - duty) * idle)
    }

    /// Energy for a mix of (active, idle-sleep, power-save) cycles at the
    /// Mica2's CPU clock.
    pub fn energy_for_cycles(
        &self,
        active: u64,
        idle: u64,
        power_save: u64,
        clock_hz: f64,
    ) -> Energy {
        let t = |c: u64| Seconds(c as f64 / clock_hz);
        self.cpu_active() * t(active)
            + self.cpu_sleep(SleepMode::Idle) * t(idle)
            + self.cpu_sleep(SleepMode::PowerSave) * t(power_save)
    }

    /// Energy for a board's accounted mode cycles (convenience over
    /// [`energy_for_cycles`](Self::energy_for_cycles)).
    pub fn board_energy(&self, modes: (u64, u64, u64), clock_hz: f64) -> Energy {
        self.energy_for_cycles(modes.0, modes.1, modes.2, clock_hz)
    }
}

impl Default for Mica2Power {
    fn default() -> Self {
        Mica2Power::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_headline_numbers() {
        let p = Mica2Power::table1();
        assert!((p.cpu_active().watts() - 24e-3).abs() < 1e-9, "8 mA × 3 V");
        assert!((p.cpu_sleep(SleepMode::Idle).watts() - 9.6e-3).abs() < 1e-9);
        assert!((p.cpu_sleep(SleepMode::PowerSave).watts() - 330e-6).abs() < 1e-9);
        assert!((p.cpu_sleep(SleepMode::PowerDown).watts() - 309e-6).abs() < 1e-9);
    }

    #[test]
    fn duty_cycle_average_interpolates() {
        let p = Mica2Power::table1();
        let full = p.cpu_average(1.0, SleepMode::PowerSave);
        let none = p.cpu_average(0.0, SleepMode::PowerSave);
        let half = p.cpu_average(0.5, SleepMode::PowerSave);
        assert_eq!(full, p.cpu_active());
        assert_eq!(none, p.cpu_sleep(SleepMode::PowerSave));
        assert!((half.watts() - (full.watts() + none.watts()) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn atmel_two_orders_of_magnitude_above_2uw() {
        // §6.3: even at very low duty cycles the Atmel's floor (power-
        // save, 330 µW) is "a little over two orders of magnitude" above
        // the proposed system's ~2 µW.
        let p = Mica2Power::table1();
        let floor = p.cpu_average(1e-4, SleepMode::PowerSave);
        let ratio = floor.watts() / 2e-6;
        assert!(
            (100.0..400.0).contains(&ratio),
            "ratio {ratio} should be a bit over two orders of magnitude"
        );
    }

    #[test]
    fn energy_for_cycles_adds_up() {
        let p = Mica2Power::table1();
        let e = p.energy_for_cycles(7_372_800, 0, 0, 7_372_800.0);
        assert!((e.joules() - 24e-3).abs() < 1e-9, "1 s active = 24 mJ");
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn bad_duty_rejected() {
        let _ = Mica2Power::table1().cpu_average(1.5, SleepMode::Idle);
    }
}
