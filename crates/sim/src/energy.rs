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
//! every mode is computed once at registration, and of a fractional draw
//! once per fraction ([`EnergyMeter::charge_cycle`] charges one cycle to
//! every component from one list of draws), and a fast-forwarded span is
//! converted once and charged to every component as an [`Interval`]
//! ([`EnergyMeter::charge_span`]). Each cached value is the very product
//! the per-id reference [`EnergyMeter::charge`] forms, so the accumulated
//! bits do not depend on which path charged them.
//!
//! A run of identical charges can be repeated in one step: [`crate::repeat`]
//! computes the totals exactly, and [`EnergyMeter::repeat`] writes them
//! back with the cycles they cover.

use crate::power::{PowerMode, PowerSpec};
use crate::repeat::Totals;
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
/// with a `fraction` of its logic active and the rest idle. A fraction
/// serves blocks with independently running sub-units: the paper's timer
/// subsystem has four timers, of which typically one is counting (§6.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Draw {
    /// The whole component in one mode.
    Mode(PowerMode),
    /// A fraction in `[0, 1]` of the component active, the rest idle.
    Fraction(f64),
}

impl From<PowerMode> for Draw {
    fn from(mode: PowerMode) -> Draw {
        Draw::Mode(mode)
    }
}

/// Handle to a component registered with an [`EnergyMeter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeterId(usize);

impl MeterId {
    /// The component's place in registration order.
    pub fn index(self) -> usize {
        self.0
    }
}

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
    /// Per component, the energies one cycle adds.
    quanta: Vec<Quanta>,
}

/// One component's one-cycle energies: what
/// [`charge`](EnergyMeter::charge) would add for one cycle.
#[derive(Debug, Clone, Copy)]
struct Quanta {
    /// `spec.draw(mode) × cycle`, indexed by mode.
    mode: [Energy; 3],
    /// The last fraction charged (its bits), its `mode_cycles` slot and
    /// its quantum: a component charged at a fraction keeps the same
    /// one for long runs (a counting timer block), so it is resolved
    /// once per change.
    fraction: (u64, usize, Energy),
}

impl Quanta {
    /// The `mode_cycles` slot and the energy of one cycle at `draw`.
    #[inline]
    fn of(&mut self, spec: &PowerSpec, draw: Draw, cycle: Seconds) -> (usize, Energy) {
        match draw {
            Draw::Mode(mode) => {
                let slot = mode_index(mode);
                (slot, self.mode[slot])
            }
            Draw::Fraction(f) => {
                if f.to_bits() != self.fraction.0 {
                    let (slot, power) = resolve(spec, draw);
                    self.fraction = (f.to_bits(), slot, power * cycle);
                }
                (self.fraction.1, self.fraction.2)
            }
        }
    }
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
        let (slot, power) = resolve(&spec, Draw::Fraction(0.0));
        self.quanta.push(Quanta {
            mode: PowerMode::ALL.map(|mode| resolve(&spec, Draw::Mode(mode)).1 * t),
            fraction: (0.0f64.to_bits(), slot, power * t),
        });
        self.components.push(ComponentStats {
            name: name.into(),
            spec,
            energy: Energy::ZERO,
            mode_cycles: [Cycles::ZERO; 3],
        });
        MeterId(self.components.len() - 1)
    }

    /// Charge `cycles` at `draw` (a [`PowerMode`] or a [`Draw`]) to one
    /// component: the per-id reference that the fused
    /// [`charge_cycle`](EnergyMeter::charge_cycle) and
    /// [`charge_span`](EnergyMeter::charge_span) are bit-identical to.
    ///
    /// # Panics
    ///
    /// Panics if a fraction is not within `[0, 1]`.
    pub fn charge(&mut self, id: MeterId, draw: impl Into<Draw>, cycles: Cycles) {
        let seconds = cycles.at(self.clock);
        let c = &mut self.components[id.0];
        let (slot, power) = resolve(&c.spec, draw.into());
        if cycles == Cycles::ZERO {
            return;
        }
        c.energy += power * seconds;
        c.mode_cycles[slot] += cycles;
    }

    /// Charge one cycle to every component, the `i`-th registered at
    /// `draws[i]`, adding the cached one-cycle energies in registration
    /// order: bit-identical to charging each component one cycle through
    /// [`charge`](EnergyMeter::charge).
    ///
    /// # Panics
    ///
    /// Panics if `draws` does not name one draw per registered component,
    /// or if a fraction is not within `[0, 1]`.
    #[inline]
    pub fn charge_cycle<const N: usize>(&mut self, draws: &[Draw; N]) {
        assert_eq!(N, self.components.len(), "one draw per component");
        let t = self.cycle.seconds;
        let components = &mut self.components[..N];
        let quanta = &mut self.quanta[..N];
        for i in 0..N {
            let c = &mut components[i];
            let (slot, energy) = quanta[i].of(&c.spec, draws[i], t);
            c.energy += energy;
            c.mode_cycles[slot] += Cycles(1);
        }
    }

    /// Charge `span` to every component, the `i`-th registered at
    /// `draws[i]`: bit-identical to charging each component `span`
    /// through [`charge`](EnergyMeter::charge).
    ///
    /// # Panics
    ///
    /// Panics if `draws` does not name one draw per registered component,
    /// or if a fraction is not within `[0, 1]`.
    pub fn charge_span<const N: usize>(&mut self, draws: &[Draw; N], span: Interval) {
        assert_eq!(N, self.components.len(), "one draw per component");
        for (c, &draw) in self.components.iter_mut().zip(draws) {
            let (slot, power) = resolve(&c.spec, draw);
            c.energy += power * span.seconds;
            c.mode_cycles[slot] += span.cycles;
        }
    }

    /// Take every component's energy to `energies` and count `cycles`
    /// more, the `i`-th registered at `draws[i]`: the outcome of
    /// repeating a run of identical charges, which [`crate::repeat`]
    /// computes exactly from the totals.
    ///
    /// # Panics
    ///
    /// Panics if `draws` does not name one draw per registered component,
    /// or if a fraction is not within `[0, 1]`.
    pub fn repeat<const N: usize>(
        &mut self,
        draws: &[Draw; N],
        energies: [Energy; N],
        cycles: Cycles,
    ) {
        assert_eq!(N, self.components.len(), "one draw per component");
        for ((c, &draw), energy) in self.components.iter_mut().zip(draws).zip(energies) {
            c.energy = energy;
            c.mode_cycles[resolve(&c.spec, draw).0] += cycles;
        }
    }

    /// What charging `span` at `draws` adds to each component, in
    /// registration order: the very products
    /// [`charge_cycle`](EnergyMeter::charge_cycle) (for one cycle) and
    /// [`charge_span`](EnergyMeter::charge_span) add.
    ///
    /// # Panics
    ///
    /// Panics if `draws` does not name one draw per registered component,
    /// or if a fraction is not within `[0, 1]`.
    pub fn addends<const N: usize>(&self, draws: &[Draw; N], span: Interval) -> [Energy; N] {
        assert_eq!(N, self.components.len(), "one draw per component");
        std::array::from_fn(|i| resolve(&self.components[i].spec, draws[i]).1 * span.seconds)
    }

    /// Charge a one-off energy cost (e.g. a per-access SRAM charge) without
    /// advancing any mode time.
    pub fn charge_energy(&mut self, id: MeterId, energy: Energy) {
        self.components[id.0].energy += energy;
    }

    /// Visit every component's energy and mode cycles, in registration
    /// order.
    pub fn totals(&mut self, t: &mut dyn Totals) {
        for c in &mut self.components {
            t.sum(&mut c.energy.0);
            for cycles in &mut c.mode_cycles {
                t.count(&mut cycles.0);
            }
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
                    m.charge_cycle(&[Draw::Mode(mode)]);
                    want += spec.draw(mode) * one;
                }
                assert_eq!(m.stats(id).energy.0.to_bits(), want.0.to_bits());
                for n in [1, 9_999, 7_000_000] {
                    m.charge_span(&[Draw::Mode(mode)], m.interval(Cycles(n)));
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
                    m.charge_cycle(&[Draw::Fraction(f)]);
                    want += w * one;
                }
                assert_eq!(m.stats(id).energy.0.to_bits(), want.0.to_bits());
                for _ in 0..1000 {
                    m.charge(id, Draw::Fraction(f), Cycles(1));
                    want += w * one;
                }
                assert_eq!(m.stats(id).energy.0.to_bits(), want.0.to_bits());
                for n in [1, 9_999, 7_000_000] {
                    m.charge_span(&[Draw::Fraction(f)], m.interval(Cycles(n)));
                    want += w * Cycles(n).at(clock);
                    assert_eq!(m.stats(id).energy.0.to_bits(), want.0.to_bits());
                }
            }
        }
    }

    /// The fused per-cycle and per-span charges add, per component,
    /// exactly the bits and cycles the per-id calls add for the same
    /// cycle or span: random lists of modes, the timer block's counting
    /// fractions, a register access at `Fraction(1.0)` (active slot) and
    /// gated draws, with each component's fraction changing from charge
    /// to charge or staying put, over single cycles and random spans.
    #[test]
    fn fused_cycle_matches_per_id_calls() {
        use ulp_testkit::Rng;
        let specs = [
            PowerSpec::new(Power::from_uw(14.25), Power::from_nw(18.0), Power::ZERO),
            PowerSpec::new(
                Power::from_uw(1.13),
                Power::from_nw(0.07),
                Power::from_pw(3.0),
            ),
            PowerSpec::new(
                Power::from_uw(0.6),
                Power::from_nw(0.4),
                Power::from_pw(1.0),
            ),
            PowerSpec::zero(),
        ];
        let mut rng = Rng::from_seed(0x5EED);
        for clock in [100.0, 7_372.8].map(Frequency::from_khz) {
            let (mut fused, mut per_id) = (EnergyMeter::new(clock), EnergyMeter::new(clock));
            let ids: Vec<MeterId> = (0..8)
                .map(|i| {
                    let spec = specs[i % specs.len()];
                    fused.register(format!("c{i}"), spec);
                    per_id.register(format!("c{i}"), spec)
                })
                .collect();
            for _ in 0..20_000 {
                let draws: [Draw; 8] = std::array::from_fn(|_| match rng.gen_range(0u32..6) {
                    0 => Draw::Mode(PowerMode::Active),
                    1 => Draw::Mode(PowerMode::Idle),
                    2 => Draw::Mode(PowerMode::Gated),
                    3 => Draw::Fraction(1.0),
                    _ => Draw::Fraction(rng.gen_range(0u32..5) as f64 / 4.0 * 0.125),
                });
                let cycles = if rng.gen_range(0u32..4) == 0 {
                    let n = Cycles(rng.gen_range(0u64..1_000_000));
                    fused.charge_span(&draws, fused.interval(n));
                    n
                } else {
                    fused.charge_cycle(&draws);
                    Cycles(1)
                };
                for (&id, &draw) in ids.iter().zip(&draws) {
                    per_id.charge(id, draw, cycles);
                }
            }
            for (a, b) in fused.all().iter().zip(per_id.all()) {
                assert_eq!(a.energy.0.to_bits(), b.energy.0.to_bits(), "{}", a.name);
                assert_eq!(a.mode_cycles, b.mode_cycles, "{}", a.name);
            }
        }
    }

    #[test]
    #[should_panic(expected = "one draw per component")]
    fn fused_cycle_needs_every_component() {
        let mut m = meter();
        m.register("a", PowerSpec::zero());
        m.register("b", PowerSpec::zero());
        m.charge_cycle(&[Draw::Mode(PowerMode::Idle)]);
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
