//! Per-component energy accounting.
//!
//! The paper derives its headline results (Figure 6, the <2 µW claim) by
//! multiplying per-component power (Table 5) by per-component *utilization*
//! measured in the cycle-accurate simulator. [`EnergyMeter`] performs that
//! bookkeeping continuously: every cycle (or every fast-forwarded span) each
//! registered component is charged for the mode it was in.
//!
//! Charging is on the simulator's hot path, so the meter converts cycles to
//! seconds as rarely as it can: the one-cycle energy of every component in
//! every mode is computed once at registration ([`EnergyMeter::charge_cycle`]),
//! and a fast-forwarded span is converted once and charged to every
//! component as an [`Interval`]. Each cached value is the very product the
//! per-call formula forms, so the accumulated bits do not depend on which
//! path charged them.
//!
//! A machine that charges a run of quiet cycles and spans, in which every
//! component's draw stays put, can sum them in a [`ChargeBatch`] instead:
//! the running totals live in the batch (in registers, in a tight loop)
//! and go back to the meter once. The batch adds exactly the addends the
//! per-call methods add, in the same order, so the bits do not change.

use crate::power::{PowerMode, PowerSpec};
use crate::units::{Cycles, Energy, Frequency, Power, Seconds};

/// A cycle count together with its duration on a meter's clock (made by
/// [`EnergyMeter::interval`]), so one span charged to many components is
/// converted to seconds once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    cycles: Cycles,
    seconds: Seconds,
}

impl Interval {
    /// The span's length in cycles.
    pub fn cycles(&self) -> Cycles {
        self.cycles
    }
}

/// How a component draws power while charged: in one [`PowerMode`], or
/// with a `fraction` of its logic active and the rest idle (see
/// [`EnergyMeter::charge_fraction`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Draw {
    /// The whole component in one mode.
    Mode(PowerMode),
    /// A fraction in `[0, 1]` of the component active, the rest idle.
    Fraction(f64),
}

/// Handle to a component registered with an [`EnergyMeter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeterId(usize);

/// Accumulated statistics for one component.
#[derive(Debug, Clone)]
pub struct ComponentStats {
    /// Component name as registered.
    pub name: String,
    /// Power specification used for charging.
    pub spec: PowerSpec,
    /// Total energy consumed so far.
    pub energy: Energy,
    /// Cycles spent in each mode: `[active, idle, gated]`.
    pub mode_cycles: [Cycles; 3],
}

impl ComponentStats {
    /// Total cycles accounted for this component.
    pub fn total_cycles(&self) -> Cycles {
        self.mode_cycles.iter().copied().sum()
    }

    /// Fraction of accounted cycles spent active (the paper's "utilization
    /// ratio"). Returns 0 if nothing has been accounted yet.
    pub fn utilization(&self) -> f64 {
        let total = self.total_cycles().0;
        if total == 0 {
            0.0
        } else {
            self.mode_cycles[0].0 as f64 / total as f64
        }
    }

    /// Average power over the accounted time.
    pub fn average_power(&self, clock: Frequency) -> Power {
        let t = self.total_cycles().at(clock);
        if t.0 <= 0.0 {
            Power::ZERO
        } else {
            self.energy.average_over(t)
        }
    }
}

fn mode_index(mode: PowerMode) -> usize {
    match mode {
        PowerMode::Active => 0,
        PowerMode::Idle => 1,
        PowerMode::Gated => 2,
    }
}

/// The power `spec` draws under `draw`, and the `mode_cycles` slot its
/// cycles count in. Every charge multiplies this power by the charged
/// span's seconds, so this is the one place a draw is formed.
///
/// # Panics
///
/// Panics if a fraction is not within `[0, 1]`.
fn resolve(spec: &PowerSpec, draw: Draw) -> (usize, Power) {
    match draw {
        Draw::Mode(mode) => (mode_index(mode), spec.draw(mode)),
        Draw::Fraction(fraction) => {
            assert!(
                (0.0..=1.0).contains(&fraction),
                "active fraction {fraction} out of [0, 1]"
            );
            let w = spec.active.watts() * fraction + spec.idle.watts() * (1.0 - fraction);
            // Utilization reporting counts only fully-engaged cycles as
            // active; background fractional activity (a lone counting
            // timer) is idle-with-extra-energy. The energy is always exact.
            let slot = if fraction >= 1.0 { 0 } else { 1 };
            (slot, Power::from_watts(w))
        }
    }
}

/// Integrates component power over simulated time.
///
/// ```
/// use ulp_sim::{EnergyMeter, PowerSpec, PowerMode, Power, Cycles, Frequency};
///
/// let mut meter = EnergyMeter::new(Frequency::from_khz(100.0));
/// let ep = meter.register("event_processor",
///     PowerSpec::new(Power::from_uw(14.25), Power::from_uw(0.018), Power::ZERO));
/// meter.charge(ep, PowerMode::Active, Cycles(127));
/// meter.charge(ep, PowerMode::Idle, Cycles(100_000 - 127));
/// let stats = meter.stats(ep);
/// assert!(stats.utilization() < 0.0013);
/// ```
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    clock: Frequency,
    /// One cycle on `clock`.
    cycle: Interval,
    components: Vec<ComponentStats>,
    /// Per component, `spec.draw(mode) * cycle` indexed by mode: the
    /// energy [`charge`](EnergyMeter::charge) would add for one cycle.
    quanta: Vec<[Energy; 3]>,
}

impl EnergyMeter {
    /// A meter for a machine running at `clock`.
    pub fn new(clock: Frequency) -> EnergyMeter {
        EnergyMeter {
            clock,
            cycle: Interval {
                cycles: Cycles(1),
                seconds: Cycles(1).at(clock),
            },
            components: Vec::new(),
            quanta: Vec::new(),
        }
    }

    /// The clock this meter converts cycles with.
    pub fn clock(&self) -> Frequency {
        self.clock
    }

    /// One cycle as an [`Interval`] on this meter's clock.
    pub fn cycle(&self) -> Interval {
        self.cycle
    }

    /// `cycles` as an [`Interval`] on this meter's clock.
    pub fn interval(&self, cycles: Cycles) -> Interval {
        Interval {
            cycles,
            seconds: cycles.at(self.clock),
        }
    }

    /// Register a component; the returned id is used for charging.
    pub fn register(&mut self, name: impl Into<String>, spec: PowerSpec) -> MeterId {
        let t = self.cycle.seconds;
        self.quanta
            .push(PowerMode::ALL.map(|mode| resolve(&spec, Draw::Mode(mode)).1 * t));
        self.components.push(ComponentStats {
            name: name.into(),
            spec,
            energy: Energy::ZERO,
            mode_cycles: [Cycles::ZERO; 3],
        });
        MeterId(self.components.len() - 1)
    }

    /// Charge `cycles` of time in `mode` to a component.
    pub fn charge(&mut self, id: MeterId, mode: PowerMode, cycles: Cycles) {
        self.charge_interval(id, mode, self.interval(cycles));
    }

    /// Charge an [`Interval`] of time in `mode` to a component.
    pub fn charge_interval(&mut self, id: MeterId, mode: PowerMode, span: Interval) {
        self.charge_draw(id, Draw::Mode(mode), span);
    }

    /// Charge an [`Interval`] at `draw` to a component.
    fn charge_draw(&mut self, id: MeterId, draw: Draw, span: Interval) {
        let c = &mut self.components[id.0];
        let (slot, power) = resolve(&c.spec, draw);
        if span.cycles == Cycles::ZERO {
            return;
        }
        c.energy += power * span.seconds;
        c.mode_cycles[slot] += span.cycles;
    }

    /// Charge one cycle in `mode` to a component, adding the precomputed
    /// one-cycle energy: bit-identical to `charge(id, mode, Cycles(1))`.
    pub fn charge_cycle(&mut self, id: MeterId, mode: PowerMode) {
        let m = mode_index(mode);
        let c = &mut self.components[id.0];
        c.energy += self.quanta[id.0][m];
        c.mode_cycles[m] += Cycles(1);
    }

    /// Charge a one-off energy cost (e.g. a per-access SRAM charge) without
    /// advancing any mode time.
    pub fn charge_energy(&mut self, id: MeterId, energy: Energy) {
        self.components[id.0].energy += energy;
    }

    /// Charge `cycles` of time during which the component was partially
    /// active: `fraction` of its logic drew active power and the rest drew
    /// idle power. Used for blocks with independently-running sub-units —
    /// the paper's timer subsystem has four timers of which typically one
    /// is counting (§6.3).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `[0, 1]`.
    pub fn charge_fraction(&mut self, id: MeterId, fraction: f64, cycles: Cycles) {
        self.charge_fraction_interval(id, fraction, self.interval(cycles));
    }

    /// [`charge_fraction`](EnergyMeter::charge_fraction) over an
    /// [`Interval`].
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `[0, 1]`.
    pub fn charge_fraction_interval(&mut self, id: MeterId, fraction: f64, span: Interval) {
        self.charge_draw(id, Draw::Fraction(fraction), span);
    }

    /// Check out the running totals of the components in `draws` into a
    /// [`ChargeBatch`] that charges each at its fixed draw. Charge nothing
    /// else to those components until the batch is
    /// [`commit`](EnergyMeter::commit)ted.
    ///
    /// # Panics
    ///
    /// Panics if a fraction is not within `[0, 1]`.
    pub fn batch<const N: usize>(&self, draws: [(MeterId, Draw); N]) -> ChargeBatch<N> {
        let t = self.cycle.seconds;
        let mut slot = [0; N];
        let mut power = [Power::ZERO; N];
        let mut quantum = [Energy::ZERO; N];
        let mut energy = [Energy::ZERO; N];
        for (i, &(id, draw)) in draws.iter().enumerate() {
            let c = &self.components[id.0];
            (slot[i], power[i]) = resolve(&c.spec, draw);
            quantum[i] = power[i] * t;
            energy[i] = c.energy;
        }
        ChargeBatch {
            ids: draws.map(|(id, _)| id),
            slot,
            power,
            quantum,
            opened: energy,
            energy,
            cycles: Cycles::ZERO,
        }
    }

    /// Write a batch's running totals and cycle counts back.
    ///
    /// # Panics
    ///
    /// Panics if one of the batch's components was charged since the
    /// batch was opened.
    pub fn commit<const N: usize>(&mut self, batch: ChargeBatch<N>) {
        for (i, id) in batch.ids.iter().enumerate() {
            let c = &mut self.components[id.0];
            assert!(
                c.energy.0.to_bits() == batch.opened[i].0.to_bits(),
                "{} was charged while a batch held it",
                c.name
            );
            c.energy = batch.energy[i];
            c.mode_cycles[batch.slot[i]] += batch.cycles;
        }
    }

    /// Statistics for one component.
    pub fn stats(&self, id: MeterId) -> &ComponentStats {
        &self.components[id.0]
    }

    /// Statistics for every registered component, in registration order.
    pub fn all(&self) -> &[ComponentStats] {
        &self.components
    }

    /// Total energy across all components.
    pub fn total_energy(&self) -> Energy {
        self.components.iter().map(|c| c.energy).sum()
    }

    /// Total average power assuming all components span `elapsed`.
    pub fn total_average_power(&self, elapsed: Cycles) -> Power {
        let t = elapsed.at(self.clock);
        if t.0 <= 0.0 {
            Power::ZERO
        } else {
            self.total_energy().average_over(t)
        }
    }

    /// Reset all accumulated energy and cycle counts, keeping registrations.
    pub fn reset(&mut self) {
        for c in &mut self.components {
            c.energy = Energy::ZERO;
            c.mode_cycles = [Cycles::ZERO; 3];
        }
    }

    /// Look up a component by name (linear scan; intended for reporting).
    pub fn find(&self, name: &str) -> Option<MeterId> {
        self.components
            .iter()
            .position(|c| c.name == name)
            .map(MeterId)
    }
}

/// Charges to a fixed set of components, each at a fixed [`Draw`], summed
/// outside the meter (made by [`EnergyMeter::batch`], written back by
/// [`EnergyMeter::commit`]). A cycle adds each component's cached
/// one-cycle quantum, as [`charge_cycle`](EnergyMeter::charge_cycle)
/// does; a span adds `power × seconds`, as
/// [`charge_interval`](EnergyMeter::charge_interval) does; so the
/// totals are bit-identical to charging the same sequence call by call.
#[derive(Debug, Clone)]
pub struct ChargeBatch<const N: usize> {
    ids: [MeterId; N],
    slot: [usize; N],
    power: [Power; N],
    quantum: [Energy; N],
    opened: [Energy; N],
    energy: [Energy; N],
    cycles: Cycles,
}

impl<const N: usize> ChargeBatch<N> {
    /// Charge one cycle to every component.
    #[inline]
    pub fn cycle(&mut self) {
        for i in 0..N {
            self.energy[i] += self.quantum[i];
        }
        self.cycles += Cycles(1);
    }

    /// Charge `span` to every component.
    #[inline]
    pub fn span(&mut self, span: Interval) {
        if span.cycles == Cycles::ZERO {
            return;
        }
        for i in 0..N {
            self.energy[i] += self.power[i] * span.seconds;
        }
        self.cycles += span.cycles;
    }

    /// Add a one-off energy to the component in slot `slot` (the order
    /// of `draws`), as [`charge_energy`](EnergyMeter::charge_energy)
    /// does.
    #[inline]
    pub fn add(&mut self, slot: usize, energy: Energy) {
        self.energy[slot] += energy;
    }
}

/// Convenience: elapsed seconds for a cycle count on this meter's clock.
impl EnergyMeter {
    /// Convert a cycle count using this meter's clock.
    pub fn seconds(&self, cycles: Cycles) -> Seconds {
        cycles.at(self.clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter() -> EnergyMeter {
        EnergyMeter::new(Frequency::from_khz(100.0))
    }

    #[test]
    fn charging_accumulates_energy_and_cycles() {
        let mut m = meter();
        let id = m.register(
            "ep",
            PowerSpec::new(Power::from_uw(10.0), Power::from_uw(1.0), Power::ZERO),
        );
        m.charge(id, PowerMode::Active, Cycles(100_000)); // 1 s active
        m.charge(id, PowerMode::Idle, Cycles(100_000)); // 1 s idle
        let s = m.stats(id);
        assert!((s.energy.uj() - 11.0).abs() < 1e-9);
        assert_eq!(s.total_cycles(), Cycles(200_000));
        assert!((s.utilization() - 0.5).abs() < 1e-12);
        assert!((s.average_power(m.clock()).uw() - 5.5).abs() < 1e-9);
    }

    #[test]
    fn zero_charge_is_noop() {
        let mut m = meter();
        let id = m.register("x", PowerSpec::zero());
        m.charge(id, PowerMode::Active, Cycles::ZERO);
        assert_eq!(m.stats(id).total_cycles(), Cycles::ZERO);
        assert_eq!(m.stats(id).utilization(), 0.0);
        assert_eq!(m.stats(id).average_power(m.clock()), Power::ZERO);
    }

    #[test]
    fn total_energy_sums_components() {
        let mut m = meter();
        let a = m.register(
            "a",
            PowerSpec::new(Power::from_uw(2.0), Power::ZERO, Power::ZERO),
        );
        let b = m.register(
            "b",
            PowerSpec::new(Power::from_uw(3.0), Power::ZERO, Power::ZERO),
        );
        m.charge(a, PowerMode::Active, Cycles(100_000));
        m.charge(b, PowerMode::Active, Cycles(100_000));
        assert!((m.total_energy().uj() - 5.0).abs() < 1e-9);
        assert!((m.total_average_power(Cycles(100_000)).uw() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn direct_energy_charge() {
        let mut m = meter();
        let id = m.register("sram", PowerSpec::zero());
        m.charge_energy(id, Energy(1e-9));
        m.charge_energy(id, Energy(2e-9));
        assert!((m.stats(id).energy.joules() - 3e-9).abs() < 1e-18);
    }

    /// The cached one-cycle quanta and the interval paths add exactly the
    /// bits the per-call formula `draw × cycles.at(clock)` adds, for every
    /// mode and for every fraction the timer block charges (0–4 of its
    /// four timers counting, plus a register access at full activity).
    #[test]
    fn cached_paths_are_bit_exact() {
        // `ulp_core::slaves::COUNTING_ACTIVITY`: one counting timer
        // switches about 1/8 of the block.
        const COUNTING_ACTIVITY: f64 = 0.125;
        let spec = PowerSpec::new(
            Power::from_uw(1.13),
            Power::from_nw(0.07),
            Power::from_pw(3.0),
        );
        let fractions: Vec<f64> = (0..=4)
            .map(|k| k as f64 / 4.0 * COUNTING_ACTIVITY)
            .chain([1.0])
            .collect();
        for clock in [100.0, 4_000.0, 7_372.8].map(Frequency::from_khz) {
            let one = Cycles(1).at(clock);
            for mode in PowerMode::ALL {
                let mut m = EnergyMeter::new(clock);
                let id = m.register("x", spec);
                let mut want = Energy::ZERO;
                for _ in 0..1000 {
                    m.charge_cycle(id, mode);
                    want += spec.draw(mode) * one;
                }
                assert_eq!(m.stats(id).energy.0.to_bits(), want.0.to_bits());
                for n in [1, 9_999, 7_000_000] {
                    m.charge_interval(id, mode, m.interval(Cycles(n)));
                    want += spec.draw(mode) * Cycles(n).at(clock);
                    assert_eq!(m.stats(id).energy.0.to_bits(), want.0.to_bits());
                }
            }
            for &f in &fractions {
                let w = Power::from_watts(spec.active.watts() * f + spec.idle.watts() * (1.0 - f));
                let mut m = EnergyMeter::new(clock);
                let id = m.register("timer", spec);
                let mut want = Energy::ZERO;
                for _ in 0..1000 {
                    m.charge_fraction_interval(id, f, m.cycle());
                    want += w * one;
                }
                assert_eq!(m.stats(id).energy.0.to_bits(), want.0.to_bits());
                for n in [1, 9_999, 7_000_000] {
                    m.charge_fraction_interval(id, f, m.interval(Cycles(n)));
                    want += w * Cycles(n).at(clock);
                    assert_eq!(m.stats(id).energy.0.to_bits(), want.0.to_bits());
                }
            }
        }
    }

    #[test]
    fn reset_clears_but_keeps_registration() {
        let mut m = meter();
        let id = m.register(
            "x",
            PowerSpec::new(Power::from_uw(1.0), Power::ZERO, Power::ZERO),
        );
        m.charge(id, PowerMode::Active, Cycles(10));
        m.reset();
        assert_eq!(m.stats(id).energy, Energy::ZERO);
        assert_eq!(m.stats(id).total_cycles(), Cycles::ZERO);
        assert_eq!(m.find("x"), Some(id));
        assert_eq!(m.find("missing"), None);
    }
}
