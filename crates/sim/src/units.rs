//! Physical and simulation units used throughout the workspace.
//!
//! Newtypes keep watts, joules, volts, seconds, and clock cycles from being
//! confused with one another (the paper mixes µW, pW, mA and nJ freely;
//! a stray factor of 10⁶ is the classic failure mode of a power study).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A count of clock cycles (dimensionless until paired with a [`Frequency`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Convert to wall-clock time at the given clock frequency.
    ///
    /// ```
    /// use ulp_sim::{Cycles, Frequency};
    /// let t = Cycles(100_000).at(Frequency::from_khz(100.0));
    /// assert!((t.0 - 1.0).abs() < 1e-12);
    /// ```
    pub fn at(self, clock: Frequency) -> Seconds {
        Seconds(self.0 as f64 / clock.hz())
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}
impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}
impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}
impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}
impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}
impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

/// A clock frequency in hertz.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Frequency(f64);

impl Frequency {
    /// Construct from hertz. Panics if non-positive or non-finite.
    pub fn from_hz(hz: f64) -> Frequency {
        assert!(hz.is_finite() && hz > 0.0, "frequency must be positive");
        Frequency(hz)
    }
    /// Construct from kilohertz.
    pub fn from_khz(khz: f64) -> Frequency {
        Frequency::from_hz(khz * 1e3)
    }
    /// The frequency in hertz.
    pub fn hz(self) -> f64 {
        self.0
    }
    /// Duration of one clock period.
    pub fn period(self) -> Seconds {
        Seconds(1.0 / self.0)
    }
    /// Number of whole cycles in the given duration (rounded to nearest).
    pub fn cycles_in(self, t: Seconds) -> Cycles {
        Cycles((t.0 * self.0).round() as u64)
    }
}
impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e6 {
            write!(f, "{:.3} MHz", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.3} kHz", self.0 / 1e3)
        } else {
            write!(f, "{:.3} Hz", self.0)
        }
    }
}

/// A duration in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Seconds(pub f64);

impl Seconds {
    /// Construct from microseconds.
    pub fn from_us(us: f64) -> Seconds {
        Seconds(us * 1e-6)
    }
    /// The duration in microseconds.
    pub fn us(self) -> f64 {
        self.0 * 1e6
    }
}
impl Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}
impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.0;
        if t >= 1.0 {
            write!(f, "{t:.3} s")
        } else if t >= 1e-3 {
            write!(f, "{:.3} ms", t * 1e3)
        } else if t >= 1e-6 {
            write!(f, "{:.3} µs", t * 1e6)
        } else {
            write!(f, "{:.3} ns", t * 1e9)
        }
    }
}

/// Electrical power in watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Power(f64);

impl Power {
    /// Zero watts.
    pub const ZERO: Power = Power(0.0);

    /// Construct from watts. Panics if negative or non-finite.
    pub fn from_watts(w: f64) -> Power {
        assert!(w.is_finite() && w >= 0.0, "power must be non-negative");
        Power(w)
    }
    /// Construct from milliwatts.
    pub fn from_mw(mw: f64) -> Power {
        Power::from_watts(mw * 1e-3)
    }
    /// Construct from microwatts.
    pub fn from_uw(uw: f64) -> Power {
        Power::from_watts(uw * 1e-6)
    }
    /// Construct from nanowatts.
    pub fn from_nw(nw: f64) -> Power {
        Power::from_watts(nw * 1e-9)
    }
    /// Construct from picowatts.
    pub fn from_pw(pw: f64) -> Power {
        Power::from_watts(pw * 1e-12)
    }
    /// Power drawn by a current at a voltage (P = I·V).
    pub fn from_current(milliamps: f64, supply: Voltage) -> Power {
        Power::from_watts(milliamps * 1e-3 * supply.volts())
    }
    /// The power in watts.
    pub fn watts(self) -> f64 {
        self.0
    }
    /// The power in microwatts.
    pub fn uw(self) -> f64 {
        self.0 * 1e6
    }
}
impl Add for Power {
    type Output = Power;
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}
impl AddAssign for Power {
    fn add_assign(&mut self, rhs: Power) {
        self.0 += rhs.0;
    }
}
impl Mul<Seconds> for Power {
    type Output = Energy;
    fn mul(self, rhs: Seconds) -> Energy {
        Energy(self.0 * rhs.0)
    }
}
impl Mul<f64> for Power {
    type Output = Power;
    fn mul(self, rhs: f64) -> Power {
        assert!(rhs >= 0.0, "power scale factor must be non-negative");
        Power(self.0 * rhs)
    }
}
impl Sum for Power {
    fn sum<I: Iterator<Item = Power>>(iter: I) -> Power {
        Power(iter.map(|p| p.0).sum())
    }
}
impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.0;
        if w >= 1e-3 {
            write!(f, "{:.3} mW", w * 1e3)
        } else if w >= 1e-6 {
            write!(f, "{:.3} µW", w * 1e6)
        } else if w >= 1e-9 {
            write!(f, "{:.3} nW", w * 1e9)
        } else {
            write!(f, "{:.3} pW", w * 1e12)
        }
    }
}

/// Energy in joules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(pub f64);

impl Energy {
    /// Zero joules.
    pub const ZERO: Energy = Energy(0.0);

    /// Construct from joules.
    pub fn from_joules(j: f64) -> Energy {
        assert!(j.is_finite(), "energy must be finite");
        Energy(j)
    }
    /// The energy in joules.
    pub fn joules(self) -> f64 {
        self.0
    }
    /// The energy in microjoules.
    pub fn uj(self) -> f64 {
        self.0 * 1e6
    }
    /// Average power over the given duration.
    ///
    /// # Panics
    ///
    /// Panics if the duration is non-positive.
    pub fn average_over(self, t: Seconds) -> Power {
        assert!(t.0 > 0.0, "duration must be positive");
        Power::from_watts(self.0 / t.0)
    }
}
impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}
impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}
impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}
impl Div<Energy> for Energy {
    type Output = f64;
    fn div(self, rhs: Energy) -> f64 {
        self.0 / rhs.0
    }
}
impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        Energy(iter.map(|e| e.0).sum())
    }
}
impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let j = self.0;
        if j.abs() >= 1.0 {
            write!(f, "{j:.3} J")
        } else if j.abs() >= 1e-3 {
            write!(f, "{:.3} mJ", j * 1e3)
        } else if j.abs() >= 1e-6 {
            write!(f, "{:.3} µJ", j * 1e6)
        } else if j.abs() >= 1e-9 {
            write!(f, "{:.3} nJ", j * 1e9)
        } else {
            write!(f, "{:.3} pJ", j * 1e12)
        }
    }
}

/// A supply voltage in volts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Voltage(f64);

impl Voltage {
    /// Construct from volts. Panics if non-positive or non-finite.
    pub fn from_volts(v: f64) -> Voltage {
        assert!(v.is_finite() && v > 0.0, "voltage must be positive");
        Voltage(v)
    }
    /// The voltage in volts.
    pub fn volts(self) -> f64 {
        self.0
    }
}
impl fmt::Display for Voltage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} V", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_to_time() {
        let clk = Frequency::from_khz(100.0);
        assert!((Cycles(1).at(clk).us() - 10.0).abs() < 1e-9);
        assert_eq!(clk.cycles_in(Seconds(1.0)), Cycles(100_000));
    }

    #[test]
    fn cycles_arithmetic() {
        let mut c = Cycles(5) + Cycles(7);
        c += Cycles(1);
        assert_eq!(c, Cycles(13));
        c -= Cycles(3);
        assert_eq!(c, Cycles(10));
        assert_eq!(Cycles(3).saturating_sub(Cycles(5)), Cycles::ZERO);
        let total: Cycles = [Cycles(1), Cycles(2), Cycles(3)].into_iter().sum();
        assert_eq!(total, Cycles(6));
    }

    #[test]
    fn power_times_time_is_energy() {
        let e = Power::from_uw(25.0) * Seconds(2.0);
        assert!((e.uj() - 50.0).abs() < 1e-9);
        assert!((e.average_over(Seconds(2.0)).uw() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn power_from_current() {
        // Table 1: Mica2 CPU active 8.0 mA at 3 V = 24 mW.
        let p = Power::from_current(8.0, Voltage::from_volts(3.0));
        assert!((p.watts() - 24e-3).abs() < 1e-12);
    }

    #[test]
    fn power_unit_constructors_agree() {
        assert_eq!(Power::from_mw(1.0), Power::from_uw(1000.0));
        assert_eq!(Power::from_nw(1.0), Power::from_pw(1000.0));
        assert_eq!(Power::from_watts(0.0), Power::ZERO);
    }

    #[test]
    fn display_picks_sensible_scales() {
        assert_eq!(format!("{}", Power::from_uw(14.25)), "14.250 µW");
        assert_eq!(format!("{}", Power::from_pw(409.0)), "409.000 pW");
        assert_eq!(format!("{}", Seconds::from_us(30.0)), "30.000 µs");
        assert_eq!(format!("{}", Frequency::from_khz(100.0)), "100.000 kHz");
        assert_eq!(format!("{}", Voltage::from_volts(1.2)), "1.20 V");
        assert_eq!(format!("{}", Energy(2.5e-9)), "2.500 nJ");
        assert_eq!(format!("{}", Cycles(42)), "42 cycles");
    }

    #[test]
    #[should_panic(expected = "power must be non-negative")]
    fn negative_power_rejected() {
        let _ = Power::from_watts(-1.0);
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn zero_frequency_rejected() {
        let _ = Frequency::from_hz(0.0);
    }

    #[test]
    fn energy_sum_and_ratio() {
        let total: Energy = [Energy(1e-6), Energy(2e-6)].into_iter().sum();
        assert!((total.uj() - 3.0).abs() < 1e-9);
        assert!((Energy(2.0) / Energy(4.0) - 0.5).abs() < 1e-12);
    }
}
