#![warn(missing_docs)]
//! Banked low-power SRAM model (paper §5.2, Figure 4, Table 3).
//!
//! The paper's 2-kilobyte on-chip SRAM is divided into 256-byte banks so
//! that unused portions can be Vdd-gated. Nanosim measurements of the
//! extracted 0.25 µm layout gave, per bank plus its control circuitry:
//! 1.93 µW active, 409 pW idle, 342 pW gated, with a 950 ns wake-up and a
//! whole-array active power of 2.07 µW at 100 kHz / 1.2 V (Table 3). The
//! paper's text additionally reports the bank *core* leaking 66.5 pW
//! ungated vs <1 pW gated (a >98% reduction); we reconcile the two by
//! modelling always-on control circuitry (≈342 pW) separately from the
//! gateable bank core (≈67 pW idle, ≈0.8 pW gated). A planned
//! "intelligent precharge" revision (−35% active power) is available as an
//! option.
//!
//! The model is *functional* (it stores bytes and refuses access to gated
//! banks) and *power-accurate at the architecture level* (it integrates
//! leakage over ticked cycles and charges per-access active energy).
//! Ticking is O(1): the array's leakage is summed only when a bank changes
//! state, and the per-access energy once at construction.
//!
//! # Example
//!
//! ```
//! use ulp_sram::{BankedSram, SramConfig};
//!
//! let mut mem = BankedSram::new(SramConfig::paper());
//! mem.write(0x0123, 0xAB)?;
//! assert_eq!(mem.read(0x0123)?, 0xAB);
//!
//! // Gate bank 7 (addresses 0x0700..0x0800); accesses now fail.
//! mem.gate_bank(7);
//! assert!(mem.read(0x0700).is_err());
//! # Ok::<(), ulp_sram::SramError>(())
//! ```

use std::fmt;
use ulp_sim::repeat::Totals;
use ulp_sim::{Cycles, Energy, Frequency, Power, Seconds, Voltage};

/// Configuration of the banked SRAM model.
#[derive(Debug, Clone)]
pub struct SramConfig {
    /// Total capacity in bytes.
    pub total_bytes: usize,
    /// Bank size in bytes (a power of two).
    pub bank_bytes: usize,
    /// Supply voltage (reporting only).
    pub supply: Voltage,
    /// Clock used to convert per-cycle activity into energy.
    pub clock: Frequency,
    /// Power of one bank + control while being accessed (Table 3: 1.93 µW).
    pub bank_active: Power,
    /// Power of one powered, unaccessed bank + control (Table 3: 409 pW).
    pub bank_idle: Power,
    /// Power of one Vdd-gated bank + control (Table 3: 342 pW).
    pub bank_gated: Power,
    /// Global decoder/driver power while the array is being accessed
    /// (brings the 2 KB array to the paper's 2.07 µW total).
    pub array_overhead_active: Power,
    /// Wake-up latency after un-gating a bank (paper: 950 ns).
    pub wake_latency: Seconds,
    /// Intelligent precharge (§5.2 future work): reduces active power 35%.
    pub intelligent_precharge: bool,
}

impl SramConfig {
    /// The paper's 2 KB, 8-bank SRAM at 1.2 V / 100 kHz.
    pub fn paper() -> SramConfig {
        SramConfig {
            total_bytes: 2048,
            bank_bytes: 256,
            supply: Voltage::from_volts(1.2),
            clock: Frequency::from_khz(100.0),
            bank_active: Power::from_uw(1.93),
            bank_idle: Power::from_pw(409.0),
            bank_gated: Power::from_pw(342.0),
            array_overhead_active: Power::from_nw(137.0),
            wake_latency: Seconds(950e-9),
            intelligent_precharge: false,
        }
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.total_bytes / self.bank_bytes
    }

    /// Effective active power of one bank access, after the optional
    /// intelligent-precharge reduction.
    pub fn effective_bank_active(&self) -> Power {
        if self.intelligent_precharge {
            self.bank_active * 0.65
        } else {
            self.bank_active
        }
    }

    /// Wake-up latency in whole clock cycles (at least 1).
    pub fn wake_cycles(&self) -> Cycles {
        let cycles = (self.wake_latency.0 * self.clock.hz()).ceil() as u64;
        Cycles(cycles.max(1))
    }

    fn validate(&self) {
        assert!(
            self.bank_bytes.is_power_of_two(),
            "bank size must be a power of two"
        );
        assert!(
            self.total_bytes.is_multiple_of(self.bank_bytes) && self.total_bytes > 0,
            "total size must be a positive multiple of the bank size"
        );
    }
}

impl Default for SramConfig {
    fn default() -> Self {
        SramConfig::paper()
    }
}

/// Power state of one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankState {
    /// Powered; contents retained; accessible.
    On,
    /// Vdd-gated; contents lost; access is an error.
    Gated,
}

/// Error accessing the SRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SramError {
    /// Address beyond the array.
    OutOfRange {
        /// The offending address.
        addr: u16,
        /// Total capacity in bytes.
        size: usize,
    },
    /// Access to a Vdd-gated bank.
    BankGated {
        /// The offending address.
        addr: u16,
        /// The gated bank's index.
        bank: usize,
    },
}

impl fmt::Display for SramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SramError::OutOfRange { addr, size } => {
                write!(f, "address 0x{addr:04X} outside {size}-byte SRAM")
            }
            SramError::BankGated { addr, bank } => {
                write!(f, "access to 0x{addr:04X} in Vdd-gated bank {bank}")
            }
        }
    }
}

impl std::error::Error for SramError {}

/// Per-bank statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankStats {
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Cycles spent gated (accumulated via [`BankedSram::tick`]).
    pub gated_cycles: u64,
}

/// Leakage of the whole array given bank states, summed bank by bank in
/// index order (so the f64 result is the same wherever it is formed).
fn leakage(config: &SramConfig, states: &[BankState]) -> Power {
    let mut leak = Power::ZERO;
    for state in states {
        leak += match state {
            BankState::On => config.bank_idle,
            BankState::Gated => config.bank_gated,
        };
    }
    leak
}

/// The leakage energy of `cycles` at `leak`; `cycle` is one cycle at
/// `clock`, the exact value `Cycles(1).at(clock)` gives.
#[inline]
fn leak_over(leak: Power, cycle: Seconds, clock: Frequency, cycles: Cycles) -> Energy {
    let t = if cycles == Cycles(1) {
        cycle
    } else {
        cycles.at(clock)
    };
    leak * t
}

/// The banked SRAM: functional storage plus energy integration.
#[derive(Debug, Clone)]
pub struct BankedSram {
    config: SramConfig,
    data: Vec<u8>,
    states: Vec<BankState>,
    /// Per bank; `gated_cycles` excludes the current gated stretch, which
    /// [`bank_stats`](BankedSram::bank_stats) adds from `gated_at`.
    stats: Vec<BankStats>,
    /// Per bank, the value of `ticked` when it was last gated.
    gated_at: Vec<u64>,
    /// Cycles ticked since construction.
    ticked: u64,
    /// `leakage(&config, &states)`, refreshed on every state change.
    leak: Power,
    /// Energy of one access: the bank's active-vs-idle delta plus the
    /// array overhead, for one cycle.
    access_energy: Energy,
    /// One cycle at the configured clock.
    cycle: Seconds,
    energy: Energy,
    access_energy_this_tick: Energy,
}

impl BankedSram {
    /// A fresh, fully powered, zeroed SRAM.
    pub fn new(config: SramConfig) -> BankedSram {
        config.validate();
        let banks = config.banks();
        let states = vec![BankState::On; banks];
        let delta_w = (config.effective_bank_active().watts() - config.bank_idle.watts()).max(0.0)
            + config.array_overhead_active.watts();
        BankedSram {
            data: vec![0; config.total_bytes],
            leak: leakage(&config, &states),
            states,
            stats: vec![BankStats::default(); banks],
            gated_at: vec![0; banks],
            ticked: 0,
            access_energy: Power::from_watts(delta_w) * config.clock.period(),
            cycle: Cycles(1).at(config.clock),
            energy: Energy::ZERO,
            access_energy_this_tick: Energy::ZERO,
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SramConfig {
        &self.config
    }

    /// Total capacity in bytes.
    pub fn len(&self) -> usize {
        self.config.total_bytes
    }

    /// Always false: the SRAM has fixed, non-zero capacity.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Bank index containing `addr`.
    ///
    /// # Errors
    ///
    /// Fails if `addr` is outside the array.
    pub fn bank_of(&self, addr: u16) -> Result<usize, SramError> {
        let a = addr as usize;
        if a >= self.config.total_bytes {
            return Err(SramError::OutOfRange {
                addr,
                size: self.config.total_bytes,
            });
        }
        Ok(a / self.config.bank_bytes)
    }

    /// State of bank `bank`.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn bank_state(&self, bank: usize) -> BankState {
        self.states[bank]
    }

    /// Statistics of bank `bank`.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn bank_stats(&self, bank: usize) -> BankStats {
        let mut stats = self.stats[bank];
        if self.states[bank] == BankState::Gated {
            stats.gated_cycles += self.ticked - self.gated_at[bank];
        }
        stats
    }

    /// Read one byte.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range addresses and gated banks.
    pub fn read(&mut self, addr: u16) -> Result<u8, SramError> {
        let bank = self.accessible_bank(addr)?;
        self.charge_access();
        self.stats[bank].reads += 1;
        Ok(self.data[addr as usize])
    }

    /// Write one byte.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range addresses and gated banks.
    pub fn write(&mut self, addr: u16, value: u8) -> Result<(), SramError> {
        let bank = self.accessible_bank(addr)?;
        self.charge_access();
        self.stats[bank].writes += 1;
        self.data[addr as usize] = value;
        Ok(())
    }

    /// Non-charging debug view of a byte (for tests and the harness; does
    /// not model a bus access and works on gated banks).
    pub fn peek(&self, addr: u16) -> Option<u8> {
        self.data.get(addr as usize).copied()
    }

    /// Non-charging debug write.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn poke(&mut self, addr: u16, value: u8) {
        let a = addr as usize;
        assert!(
            a < self.data.len(),
            "poke address 0x{addr:04X} out of range"
        );
        self.data[a] = value;
    }

    /// Fault-injection hook: flip bit `bit & 7` of the byte at `addr`
    /// as a single-event upset would — no bus access is modelled, no
    /// energy is charged, no statistics move.
    ///
    /// Returns `true` when a live byte was flipped. Returns `false` when
    /// the strike is absorbed: the address is outside the array, or the
    /// bank is Vdd-gated (gated banks lose their contents anyway and are
    /// zeroed on wake, so an upset there is architecturally invisible).
    pub fn flip_bit(&mut self, addr: u16, bit: u8) -> bool {
        match self.bank_of(addr) {
            Ok(bank) if self.states[bank] == BankState::On => {
                self.data[addr as usize] ^= 1 << (bit & 7);
                true
            }
            _ => false,
        }
    }

    /// Load a byte image at `origin` (non-charging; for initialisation).
    ///
    /// # Panics
    ///
    /// Panics if the image extends past the end of the array.
    pub fn load(&mut self, origin: u16, bytes: &[u8]) {
        let start = origin as usize;
        assert!(
            start + bytes.len() <= self.data.len(),
            "image of {} bytes at 0x{origin:04X} exceeds SRAM",
            bytes.len()
        );
        self.data[start..start + bytes.len()].copy_from_slice(bytes);
    }

    /// Vdd-gate a bank. Contents are lost (zeroed on wake, matching real
    /// SRAM losing state). Gating an already-gated bank is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn gate_bank(&mut self, bank: usize) {
        if self.states[bank] == BankState::On {
            self.states[bank] = BankState::Gated;
            self.gated_at[bank] = self.ticked;
            self.leak = leakage(&self.config, &self.states);
        }
    }

    /// Un-gate a bank, returning the wake-up latency in cycles the caller
    /// must stall before accessing it (paper: 950 ns, <1 cycle at 100 kHz,
    /// modelled as 1 cycle). Contents come back zeroed.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn ungate_bank(&mut self, bank: usize) -> Cycles {
        if self.states[bank] == BankState::Gated {
            self.states[bank] = BankState::On;
            self.stats[bank].gated_cycles += self.ticked - self.gated_at[bank];
            self.leak = leakage(&self.config, &self.states);
            let base = bank * self.config.bank_bytes;
            self.data[base..base + self.config.bank_bytes].fill(0);
            self.config.wake_cycles()
        } else {
            Cycles::ZERO
        }
    }

    /// Advance simulated time by `cycles`, integrating leakage for every
    /// bank according to its state. Per-access active energy charged by
    /// [`read`](Self::read)/[`write`](Self::write) since the previous tick
    /// is folded in here.
    pub fn tick(&mut self, cycles: Cycles) {
        self.ticked += cycles.0;
        self.energy += leak_over(self.leak, self.cycle, self.config.clock, cycles);
        self.energy += self.access_energy_this_tick;
        self.access_energy_this_tick = Energy::ZERO;
    }

    /// What [`tick`](Self::tick) of `cycles` would add to the total: the
    /// leakage, then the access energy charged since the last tick.
    pub fn tick_addends(&self, cycles: Cycles) -> (Energy, Energy) {
        let leak = leak_over(self.leak, self.cycle, self.config.clock, cycles);
        (leak, self.access_energy_this_tick)
    }

    /// Take the total to `energy` over `cycles` more quiet ticks (no
    /// access, no bank state change): the outcome of repeating a run of
    /// identical ticks, which `ulp_sim::repeat` computes exactly from the
    /// total.
    ///
    /// # Panics
    ///
    /// Panics if an access has been charged since the last tick.
    pub fn repeat(&mut self, energy: Energy, cycles: Cycles) {
        assert!(
            self.access_energy_this_tick == Energy::ZERO,
            "repeated ticks with an access pending"
        );
        self.energy = energy;
        self.ticked += cycles.0;
    }

    /// Total energy consumed so far.
    pub fn energy(&self) -> Energy {
        self.energy
    }

    /// Visit the array's running totals: its energy, the cycles ticked,
    /// and per bank the accesses, the gated cycles and the tick it was
    /// last gated at. The contents and bank states are what
    /// [`contents`](Self::contents) and [`bank_state`](Self::bank_state)
    /// show.
    ///
    /// # Panics
    ///
    /// Panics if an access has been charged since the last tick.
    pub fn totals(&mut self, t: &mut dyn Totals) {
        assert!(
            self.access_energy_this_tick == Energy::ZERO,
            "totals with an access pending"
        );
        t.sum(&mut self.energy.0);
        t.count(&mut self.ticked);
        for (stats, gated_at) in self.stats.iter_mut().zip(&mut self.gated_at) {
            t.count(&mut stats.reads);
            t.count(&mut stats.writes);
            t.count(&mut stats.gated_cycles);
            t.count(gated_at);
        }
    }

    /// The stored bytes, a gated bank's included (they are zeroed when
    /// it wakes).
    pub fn contents(&self) -> &[u8] {
        &self.data
    }

    /// Current leakage power given bank states (no accesses).
    pub fn idle_power(&self) -> Power {
        self.leak
    }

    /// Power of the whole array if one bank is accessed every cycle (the
    /// paper's "2 KB SRAM consumes 2.07 µW operating at 100 kHz" figure).
    pub fn full_activity_power(&self) -> Power {
        let others = self.config.banks().saturating_sub(1);
        self.config.effective_bank_active()
            + self.config.bank_idle * others as f64
            + self.config.array_overhead_active
    }

    fn accessible_bank(&self, addr: u16) -> Result<usize, SramError> {
        let bank = self.bank_of(addr)?;
        if self.states[bank] == BankState::Gated {
            return Err(SramError::BankGated { addr, bank });
        }
        Ok(bank)
    }

    fn charge_access(&mut self) {
        self.access_energy_this_tick += self.access_energy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sram() -> BankedSram {
        BankedSram::new(SramConfig::paper())
    }

    #[test]
    fn paper_geometry() {
        let c = SramConfig::paper();
        assert_eq!(c.banks(), 8);
        assert_eq!(c.wake_cycles(), Cycles(1)); // 950 ns < one 10 µs cycle
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = sram();
        m.write(0, 1).unwrap();
        m.write(2047, 255).unwrap();
        assert_eq!(m.read(0).unwrap(), 1);
        assert_eq!(m.read(2047).unwrap(), 255);
        assert_eq!(m.bank_stats(0).reads, 1);
        assert_eq!(m.bank_stats(7).writes, 1);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut m = sram();
        assert!(matches!(
            m.read(2048),
            Err(SramError::OutOfRange { addr: 2048, .. })
        ));
        assert!(m.write(0xFFFF, 0).is_err());
        assert!(m.bank_of(0x0800).is_err());
    }

    #[test]
    fn gated_bank_refuses_access_and_loses_contents() {
        let mut m = sram();
        m.write(0x0300, 42).unwrap(); // bank 3
        m.gate_bank(3);
        assert_eq!(m.bank_state(3), BankState::Gated);
        assert!(matches!(
            m.read(0x0300),
            Err(SramError::BankGated { bank: 3, .. })
        ));
        let wake = m.ungate_bank(3);
        assert_eq!(wake, Cycles(1));
        assert_eq!(m.read(0x0300).unwrap(), 0, "contents lost across gating");
        // Un-gating an on bank is free.
        assert_eq!(m.ungate_bank(3), Cycles::ZERO);
    }

    #[test]
    fn idle_power_matches_table3() {
        let mut m = sram();
        // All 8 banks on: 8 × 409 pW = 3.272 nW.
        assert!((m.idle_power().watts() - 8.0 * 409e-12).abs() < 1e-15);
        // Gate 4 banks: 4 × 409 + 4 × 342 pW.
        for b in 0..4 {
            m.gate_bank(b);
        }
        assert!((m.idle_power().watts() - (4.0 * 409e-12 + 4.0 * 342e-12)).abs() < 1e-15);
    }

    #[test]
    fn full_activity_power_near_paper_2_07_uw() {
        let m = sram();
        let p = m.full_activity_power().uw();
        assert!((p - 2.07).abs() < 0.02, "got {p} µW");
    }

    #[test]
    fn energy_integration_idle_only() {
        let mut m = sram();
        m.tick(Cycles(100_000)); // 1 s at 100 kHz
        let e = m.energy().joules();
        assert!((e - 8.0 * 409e-12).abs() < 1e-15, "1 s of idle leakage");
    }

    #[test]
    fn access_energy_charged_on_tick() {
        let mut m = sram();
        m.read(0).unwrap();
        assert_eq!(m.energy(), Energy::ZERO, "charged only at tick");
        m.tick(Cycles(1));
        let e = m.energy().joules();
        // One cycle: idle leakage (8 banks) + (active - idle) + overhead.
        let period = 1e-5;
        let expect = (8.0 * 409e-12 + (1.93e-6 - 409e-12) + 137e-9) * period;
        assert!((e - expect).abs() < 1e-18, "got {e}, want {expect}");
    }

    #[test]
    fn sustained_access_averages_to_full_activity_power() {
        let mut m = sram();
        for i in 0..100_000u32 {
            m.read((i % 2048) as u16).unwrap();
            m.tick(Cycles(1));
        }
        let avg = m.energy().average_over(Seconds(1.0)).uw();
        assert!(
            (avg - m.full_activity_power().uw()).abs() < 0.02,
            "avg {avg} µW"
        );
    }

    #[test]
    fn gating_reduces_energy() {
        let mut all_on = sram();
        all_on.tick(Cycles(1_000_000));
        let mut gated = sram();
        for b in 1..8 {
            gated.gate_bank(b);
        }
        gated.tick(Cycles(1_000_000));
        assert!(gated.energy() < all_on.energy());
        assert_eq!(gated.bank_stats(1).gated_cycles, 1_000_000);
    }

    #[test]
    fn gated_cycles_track_each_gated_stretch() {
        let mut m = sram();
        m.tick(Cycles(10));
        m.gate_bank(2);
        m.tick(Cycles(5));
        m.gate_bank(2); // already gated: the stretch continues
        m.tick(Cycles(1));
        assert_eq!(m.bank_stats(2).gated_cycles, 6);
        m.ungate_bank(2);
        m.tick(Cycles(100));
        m.gate_bank(2);
        m.tick(Cycles(3));
        assert_eq!(m.bank_stats(2).gated_cycles, 9);
        assert_eq!(m.bank_stats(1).gated_cycles, 0);
    }

    #[test]
    fn cached_leakage_is_bit_exact_across_state_changes() {
        // The per-tick formula the cache replaces: sum every bank's
        // leakage in index order, times the span's duration.
        fn reference(m: &BankedSram, cycles: Cycles) -> Energy {
            let c = m.config();
            let mut leak = Power::ZERO;
            for b in 0..c.banks() {
                leak += match m.bank_state(b) {
                    BankState::On => c.bank_idle,
                    BankState::Gated => c.bank_gated,
                };
            }
            leak * cycles.at(c.clock)
        }
        let mut m = sram();
        let mut want = Energy::ZERO;
        for (step, bank) in [3usize, 0, 7, 3, 5, 0].into_iter().enumerate() {
            if m.bank_state(bank) == BankState::On {
                m.gate_bank(bank);
            } else {
                m.ungate_bank(bank);
            }
            for cycles in [1, 1, 9_999, step as u64 + 1] {
                want += reference(&m, Cycles(cycles));
                m.tick(Cycles(cycles));
                assert_eq!(m.energy().0.to_bits(), want.0.to_bits());
            }
        }
    }

    #[test]
    fn intelligent_precharge_cuts_active_power_35_percent() {
        let mut cfg = SramConfig::paper();
        cfg.intelligent_precharge = true;
        let m = BankedSram::new(cfg);
        let base = SramConfig::paper().bank_active.watts();
        assert!((m.config().effective_bank_active().watts() - 0.65 * base).abs() < 1e-15);
        assert!(m.full_activity_power() < sram().full_activity_power());
    }

    #[test]
    fn load_and_peek() {
        let mut m = sram();
        m.load(0x0100, &[1, 2, 3]);
        assert_eq!(m.peek(0x0101), Some(2));
        assert_eq!(m.peek(0x0900), None);
        m.poke(0x0000, 9);
        assert_eq!(m.peek(0x0000), Some(9));
        // load/poke charge no energy.
        m.tick(Cycles::ZERO);
        assert_eq!(m.energy(), Energy::ZERO);
    }

    #[test]
    fn flip_bit_hits_live_bytes_only() {
        let mut m = sram();
        m.poke(0x0120, 0b0000_0001);
        assert!(m.flip_bit(0x0120, 0));
        assert_eq!(m.peek(0x0120), Some(0));
        assert!(m.flip_bit(0x0120, 11), "bit index wraps mod 8");
        assert_eq!(m.peek(0x0120), Some(0b0000_1000));
        // Absorbed strikes: out of range, gated bank.
        assert!(!m.flip_bit(0x0900, 0));
        m.gate_bank(1);
        assert!(!m.flip_bit(0x0120, 0));
        assert_eq!(m.peek(0x0120), Some(0b0000_1000), "gated byte untouched");
        // No energy, no access stats.
        m.tick(Cycles::ZERO);
        assert_eq!(m.energy(), Energy::ZERO);
        assert_eq!(m.bank_stats(1).reads + m.bank_stats(1).writes, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds SRAM")]
    fn oversized_load_panics() {
        let mut m = sram();
        m.load(0x07FF, &[0, 1]);
    }

    #[test]
    fn error_display() {
        let e = SramError::BankGated {
            addr: 0x300,
            bank: 3,
        };
        assert!(e.to_string().contains("bank 3"));
        let e = SramError::OutOfRange {
            addr: 0x900,
            size: 2048,
        };
        assert!(e.to_string().contains("2048"));
    }
}
