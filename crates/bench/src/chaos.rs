//! Deterministic chaos campaign: seed-replicated fault-injection grids.
//!
//! The paper's architecture is built to *degrade*, not to fail: one-deep
//! interrupt latches drop events under overload (§4.2.4), power gating
//! bounds the damage a glitch can do, and the event processor owns the
//! bus only while an ISR runs. This module turns that claim into a
//! measured quantity. Each [`ChaosConfig`] — application stage ×
//! fault rate × seed — builds one system, installs a seed-derived
//! [`FaultPlan`] (bit flips, stuck
//! handshakes, dropped/spurious interrupts, radio byte errors,
//! brownouts), runs it to a fixed horizon, and *asserts the
//! graceful-degradation invariants inline*:
//!
//! 1. **No silent wedge** — if the run halts, a typed
//!    `SystemFault` must be recorded;
//! 2. **Fault-or-recover** — a surviving system drains back to
//!    quiescence within a bounded recovery budget;
//! 3. **Loud loss** — interrupt-event conservation holds:
//!    `raised == taken + fault_cleared + still_pending`, and every
//!    injected fault is tallied with a disposition
//!    (`injected == absorbed + degraded + fatal`);
//! 4. **Paired trace** — every `FaultInjected` trace event has its
//!    `FaultAbsorbed` disposition partner (checked whenever the trace
//!    buffer did not overflow);
//! 5. **Monotonic energy** — the energy meter never runs backwards,
//!    faults or not.
//!
//! A violated invariant panics with the offending scenario's details;
//! the fleet engine's per-point `catch_unwind` then reports exactly
//! which grid coordinates broke, so a thousand-point campaign pinpoints
//! the bad (app, rate, seed) immediately. The campaign summary
//! ([`campaign_summary`]) is a pure function of the grid and is pinned
//! byte-for-byte by `tests/golden.rs`.

use std::str::FromStr;

use crate::fleet::{Cell, Coords, Sweep, SweepResults};
use ulp_apps::ulp::{monitoring, AppStage, MonitoringConfig, SamplePeriod};
use ulp_core::slaves::RandomWalkSensor;
use ulp_core::{System, SystemConfig};
use ulp_sim::fault::FaultPlan;
use ulp_sim::{Cycles, Engine, Simulatable, TraceKind};

/// Which application family a chaos point runs (a subset of the §6.1.2
/// stages that exercises progressively more hardware).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosApp {
    /// Stage 1: sample-and-send (timer, sensor, msgproc, radio).
    Sample,
    /// Stage 2: adds the threshold filter.
    Filtered,
    /// Stage 3: adds receive-and-forward (radio listening).
    Forwarding,
}

impl FromStr for ChaosApp {
    type Err = &'static str;

    /// Parse a CLI name (`app1`/`app2`/`app3`).
    fn from_str(s: &str) -> Result<ChaosApp, &'static str> {
        match s {
            "app1" => Ok(ChaosApp::Sample),
            "app2" => Ok(ChaosApp::Filtered),
            "app3" => Ok(ChaosApp::Forwarding),
            _ => Err("the apps are app1, app2 and app3"),
        }
    }
}

impl ChaosApp {
    /// The CLI / CSV name.
    pub fn name(&self) -> &'static str {
        match self {
            ChaosApp::Sample => "app1",
            ChaosApp::Filtered => "app2",
            ChaosApp::Forwarding => "app3",
        }
    }

    fn stage(&self) -> AppStage {
        match self {
            ChaosApp::Sample => AppStage::SampleSend,
            ChaosApp::Filtered => AppStage::Filtered,
            ChaosApp::Forwarding => AppStage::Forwarding,
        }
    }
}

/// One chaos grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Application stage under test.
    pub app: ChaosApp,
    /// Expected injected faults per simulated cycle (`rate × horizon`
    /// faults per run, rounded; `0.0` is the fault-free baseline).
    pub fault_rate: f64,
    /// Seed deriving the fault plan *and* the sensor walk.
    pub seed: u64,
    /// Simulation horizon, cycles.
    pub horizon: u64,
    /// Extra cycles a surviving system gets to drain back to
    /// quiescence after the horizon (invariant 2).
    pub recovery_budget: u64,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            app: ChaosApp::Filtered,
            fault_rate: 1e-3,
            seed: 0,
            horizon: 30_000,
            recovery_budget: 20_000,
        }
    }
}

impl ChaosConfig {
    /// Canonical description of everything that determines this point's
    /// result, for the campaign store's content address
    /// (`ulp_bench::store::canonical_key`). Covers *all* fields — the
    /// sweep coordinates only expose app/rate/seed, but the horizon and
    /// recovery budget change the verdicts just as surely.
    pub fn store_key(&self) -> String {
        format!(
            "chaos:app={};rate={};seed={};horizon={};recovery={}",
            self.app.name(),
            self.fault_rate,
            self.seed,
            self.horizon,
            self.recovery_budget
        )
    }
}

/// Scalar summary of one chaos point: one CSV row per grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSummary {
    /// Faults injected (== scheduled, fast-forward never skips one).
    pub injected: u64,
    /// Faults that hit inert state.
    pub absorbed: u64,
    /// Faults that perturbed live state without stopping the machine.
    pub degraded: u64,
    /// Faults fatal at injection time (long brownouts).
    pub fatal: u64,
    /// Interrupt events raised.
    pub raised: u64,
    /// Interrupt events serviced.
    pub taken: u64,
    /// Interrupt events dropped by one-deep overload (§4.2.4).
    pub overload_dropped: u64,
    /// Pending interrupt edges lost to injected faults.
    pub fault_cleared: u64,
    /// Frames the radio pushed out.
    pub sent: u64,
    /// Frames that failed MAC decode at the observer (radio byte
    /// errors land here).
    pub corrupt: u64,
    /// 1 if the run ended halted (with a recorded fault), else 0.
    pub halted: u64,
    /// Total energy, joules.
    pub energy_j: f64,
}

/// The metric columns of one chaos point, in [`cells`] order.
pub const METRICS: &[&str] = &[
    "injected",
    "absorbed",
    "degraded",
    "fatal",
    "raised",
    "taken",
    "overload_dropped",
    "fault_cleared",
    "sent",
    "corrupt",
    "halted",
    "energy_j",
];

/// Serialize a summary into one row of [`METRICS`] cells.
pub fn cells(s: &ChaosSummary) -> Vec<Cell> {
    vec![
        Cell::U64(s.injected),
        Cell::U64(s.absorbed),
        Cell::U64(s.degraded),
        Cell::U64(s.fatal),
        Cell::U64(s.raised),
        Cell::U64(s.taken),
        Cell::U64(s.overload_dropped),
        Cell::U64(s.fault_cleared),
        Cell::U64(s.sent),
        Cell::U64(s.corrupt),
        Cell::U64(s.halted),
        Cell::F64(s.energy_j),
    ]
}

fn build_system(cfg: &ChaosConfig) -> System {
    let prog = monitoring(&MonitoringConfig {
        stage: cfg.app.stage(),
        period: SamplePeriod::Cycles(2_000),
        samples_per_packet: 1,
        threshold: 64,
    });
    prog.build_system(
        SystemConfig::default(),
        Box::new(RandomWalkSensor::new(100, cfg.seed ^ 0x9E37_79B9_7F4A_7C15)),
    )
}

/// Run one chaos grid point, asserting the graceful-degradation
/// invariants along the way. Deterministic: the summary is a pure
/// function of `cfg` (double-run asserted in `tests/chaos.rs`,
/// thread-count invariance by `fleet --chaos --check`).
///
/// # Panics
///
/// Panics — with the offending detail — when any invariant is violated;
/// the fleet engine turns that into a per-point failure naming the
/// scenario coordinates.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosSummary {
    let faults = (cfg.fault_rate * cfg.horizon as f64).round() as usize;
    let mut sys = build_system(cfg);
    sys.trace_mut().set_enabled(true);
    sys.set_fault_plan(FaultPlan::generate(
        cfg.seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0xFA_017,
        cfg.horizon,
        faults,
    ));

    let mut engine = Engine::new(sys);
    // Invariant 5 (monotonic energy): sample the meter mid-run.
    engine.run_for(Cycles(cfg.horizon / 2));
    let energy_mid = engine.machine().meter().total_energy().joules();
    engine.run_for(Cycles(cfg.horizon - cfg.horizon / 2));

    // Invariant 2 (fault-or-recover): a surviving system must drain
    // back to quiescence within the recovery budget.
    let halted = engine.machine().fault().is_some();
    if !halted {
        let deadline = engine.machine().now() + Cycles(cfg.recovery_budget);
        let (_, recovered) = engine.run_until(deadline, |s| s.is_quiescent());
        assert!(
            recovered || engine.machine().fault().is_some(),
            "system neither recovered nor faulted within {} cycles",
            cfg.recovery_budget
        );
    }
    let mut sys = engine.into_machine();

    // Invariant 1 (no silent wedge): a stopped machine names its fault.
    let halted = sys.fault().is_some();

    // Invariant 3 (loud loss): event conservation and disposition tally.
    // A run that halted early (recorded fault) stops injecting; a
    // surviving run must land every scheduled fault — fast-forward is
    // not allowed to skip one.
    let stats = sys.fault_stats();
    if halted {
        assert!(
            stats.injected as usize <= faults,
            "injected more faults than scheduled"
        );
    } else {
        assert_eq!(
            stats.injected as usize, faults,
            "scheduled faults must all inject (fast-forward skipped one?)"
        );
    }
    assert_eq!(
        stats.injected,
        stats.absorbed + stats.degraded + stats.fatal,
        "every injected fault needs a disposition"
    );
    let irqs = sys.slaves().irqs.clone();
    assert_eq!(
        irqs.raised(),
        irqs.taken() + irqs.cleared() + irqs.pending_count(),
        "interrupt events must be conserved (raised = taken + cleared + pending)"
    );

    // Invariant 4 (paired trace): exact pairing whenever nothing was
    // dropped by the ring buffer.
    if sys.trace().dropped() == 0 {
        let injected_ev = sys
            .trace()
            .events()
            .filter(|e| matches!(e.kind, TraceKind::FaultInjected { .. }))
            .count() as u64;
        let disposed_ev = sys
            .trace()
            .events()
            .filter(|e| matches!(e.kind, TraceKind::FaultAbsorbed { .. }))
            .count() as u64;
        assert_eq!(injected_ev, stats.injected, "every injection traced");
        assert_eq!(disposed_ev, stats.injected, "every injection disposed");
    }

    // Invariant 5 (monotonic energy).
    let energy_j = sys.meter().total_energy().joules();
    assert!(
        energy_j.is_finite() && energy_j >= energy_mid && energy_mid >= 0.0,
        "energy accounting ran backwards: mid {energy_mid} vs end {energy_j}"
    );

    let out = sys.take_outbox();
    let corrupt = out
        .iter()
        .filter(|(_, bytes)| ulp_net::Frame::decode(bytes).is_err())
        .count() as u64;
    ChaosSummary {
        injected: stats.injected,
        absorbed: stats.absorbed,
        degraded: stats.degraded,
        fatal: stats.fatal,
        raised: irqs.raised(),
        taken: irqs.taken(),
        overload_dropped: irqs.dropped(),
        fault_cleared: irqs.cleared(),
        sent: out.len() as u64,
        corrupt,
        halted: halted as u64,
        energy_j,
    }
}

/// Build the app × fault-rate × seed campaign grid.
pub fn campaign(apps: &[ChaosApp], rates: &[f64], seeds: u64, horizon: u64) -> Sweep<ChaosConfig> {
    let mut sweep = Sweep::new("chaos-campaign", METRICS);
    for &app in apps {
        for &rate in rates {
            for seed in 0..seeds {
                sweep.push(
                    Coords::new()
                        .with("app", app.name())
                        .with("rate", rate)
                        .with("seed", seed),
                    ChaosConfig {
                        app,
                        fault_rate: rate,
                        seed,
                        horizon,
                        ..ChaosConfig::default()
                    },
                );
            }
        }
    }
    sweep
}

/// Deterministic campaign summary: the full per-point CSV followed by
/// grid-wide aggregates. This is the artifact `tests/golden.rs` pins
/// byte-for-byte.
pub fn campaign_summary(results: &SweepResults) -> String {
    let col = |name: &str| {
        results
            .columns()
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("missing column {name}"))
    };
    let sum = |name: &str| -> u64 {
        let i = col(name);
        results
            .rows()
            .iter()
            .map(|r| match &r[i] {
                Cell::U64(n) => *n,
                other => panic!("column {name} is not integral: {other:?}"),
            })
            .sum()
    };
    let mut out = String::new();
    out.push_str("# chaos campaign\n");
    out.push_str(&results.to_csv());
    out.push_str(&format!(
        "# aggregate points={} injected={} absorbed={} degraded={} fatal={} \
         sent={} corrupt={} overload_dropped={} fault_cleared={} halted={}\n",
        results.rows().len(),
        sum("injected"),
        sum("absorbed"),
        sum("degraded"),
        sum("fatal"),
        sum("sent"),
        sum("corrupt"),
        sum("overload_dropped"),
        sum("fault_cleared"),
        sum("halted"),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_point_is_fault_free() {
        let s = run_chaos(&ChaosConfig {
            fault_rate: 0.0,
            horizon: 12_000,
            ..ChaosConfig::default()
        });
        assert_eq!(s.injected, 0);
        assert_eq!(s.fault_cleared, 0);
        assert_eq!(s.halted, 0);
        assert!(s.sent > 0, "baseline app must make progress");
        assert_eq!(s.corrupt, 0);
    }

    #[test]
    fn faulted_point_is_deterministic() {
        let cfg = ChaosConfig {
            app: ChaosApp::Sample,
            fault_rate: 2e-3,
            seed: 3,
            horizon: 20_000,
            ..ChaosConfig::default()
        };
        let a = run_chaos(&cfg);
        let b = run_chaos(&cfg);
        assert_eq!(a, b, "same config, same summary");
        if a.halted == 0 {
            assert_eq!(a.injected, 40, "rate × horizon faults scheduled");
        } else {
            assert!(a.injected <= 40, "halted runs stop injecting early");
        }
        assert!(a.injected > 0, "this seed must actually inject");
    }

    #[test]
    fn campaign_grid_covers_apps_rates_seeds() {
        let sweep = campaign(
            &[ChaosApp::Sample, ChaosApp::Filtered],
            &[0.0, 1e-3],
            3,
            10_000,
        );
        assert_eq!(sweep.len(), 12);
        let (coords, cfg) = sweep.points().next().unwrap();
        assert_eq!(coords.get("app"), Some("app1"));
        assert_eq!(coords.get("rate"), Some("0"));
        assert_eq!(cfg.horizon, 10_000);
    }

    #[test]
    fn summary_text_has_csv_and_aggregates() {
        let sweep = campaign(&[ChaosApp::Sample], &[1e-3], 2, 8_000);
        let results = sweep.run(2, |_, cfg| cells(&run_chaos(cfg))).unwrap();
        let text = campaign_summary(&results);
        assert!(text.starts_with("# chaos campaign\napp,rate,seed,"));
        assert!(text.contains("# aggregate points=2 injected=16 "), "{text}");
    }
}
