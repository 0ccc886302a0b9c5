//! Determinism contracts for the fault-injection subsystem
//! (`ulp_sim::fault`): a seed-derived `FaultPlan` perturbs the machine
//! *identically* on every run — same injections, same dispositions,
//! same trace, same energy bits — and an *empty* plan is a perfect
//! no-op, indistinguishable from a machine that never heard of faults.
//! These are the two properties that make a chaos campaign's numbers
//! (and the golden summary `tests/golden/chaos_summary.txt` pins)
//! meaningful: any diff is behaviour, never noise.

use ulp_node::apps::ulp::{monitoring, AppStage, MonitoringConfig, SamplePeriod};
use ulp_node::core_arch::slaves::RandomWalkSensor;
use ulp_node::core_arch::{System, SystemConfig};
use ulp_node::sim::{Cycles, Engine, FaultPlan, Simulatable, TraceKind};

/// FNV-1a over arbitrary bytes (same in-tree digest as
/// `tests/determinism.rs`: stable and independent of `std`'s randomized
/// `Hasher` seeds).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest_lines<I: IntoIterator<Item = String>>(lines: I) -> u64 {
    let mut h = 0u64;
    for line in lines {
        h = h.rotate_left(1) ^ fnv1a(line.as_bytes());
    }
    h
}

fn build(seed: u64) -> System {
    let prog = monitoring(&MonitoringConfig {
        stage: AppStage::Filtered,
        period: SamplePeriod::Cycles(2_000),
        samples_per_packet: 1,
        threshold: 64,
    });
    prog.build_system(
        SystemConfig::default(),
        Box::new(RandomWalkSensor::new(100, seed)),
    )
}

/// Everything observable about a finished run, digested: any
/// nondeterminism anywhere in the fault path lands in one of these
/// fields.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    now: Cycles,
    busy: Cycles,
    injected: u64,
    absorbed: u64,
    degraded: u64,
    fatal: u64,
    fault: String,
    energy_bits: u64,
    trace: u64,
    outbox: u64,
}

fn run(plan: Option<FaultPlan>, horizon: u64) -> Fingerprint {
    let mut sys = build(0xC4A0_5EED);
    sys.trace_mut().set_enabled(true);
    if let Some(plan) = plan {
        sys.set_fault_plan(plan);
    }
    let mut engine = Engine::new(sys);
    engine.run_for(Cycles(horizon));
    let mut sys = engine.into_machine();
    let stats = sys.fault_stats();
    let trace = digest_lines(sys.trace().events().map(|e| e.to_string()));
    let outbox = digest_lines(
        sys.take_outbox()
            .into_iter()
            .map(|(at, b)| format!("{}:{b:02x?}", at.0)),
    );
    Fingerprint {
        now: sys.now(),
        busy: sys.busy_cycles(),
        injected: stats.injected,
        absorbed: stats.absorbed,
        degraded: stats.degraded,
        fatal: stats.fatal,
        fault: format!("{:?}", sys.fault()),
        energy_bits: sys.meter().total_energy().joules().to_bits(),
        trace,
        outbox,
    }
}

/// A non-empty fault plan, replayed from the same seed, reproduces the
/// run bit-for-bit: injection times, dispositions, the full event
/// trace, and the energy accounting down to the last f64 bit.
#[test]
fn faulted_double_run_is_bit_identical() {
    let plan = || FaultPlan::generate(0xFA_017, 30_000, 24);
    let a = run(Some(plan()), 30_000);
    let b = run(Some(plan()), 30_000);
    assert_eq!(a, b, "same fault plan must reproduce the run bit-for-bit");
    assert!(a.injected > 0, "the plan must actually inject");
    assert_eq!(
        a.injected,
        a.absorbed + a.degraded + a.fatal,
        "every injection needs a disposition"
    );
    assert!(a.trace != 0, "the trace must not be empty");
}

/// The acceptance criterion for a zero-cost hook layer: an *empty*
/// `FaultPlan` leaves every observable — trace digest included —
/// byte-identical to a run with no plan installed at all.
#[test]
fn empty_fault_plan_is_a_perfect_no_op() {
    let clean = run(None, 30_000);
    let empty = run(Some(FaultPlan::new()), 30_000);
    assert_eq!(clean, empty, "an empty plan must be unobservable");
    assert_eq!(clean.injected, 0);
    assert!(
        !clean.fault.contains("Some"),
        "the baseline run must not fault: {}",
        clean.fault
    );
}

/// Different fault seeds steer the injections: the trace must differ.
/// (Deterministic either way — if this fails it fails reproducibly,
/// meaning the plan generator stopped consuming its seed.)
#[test]
fn fault_seed_actually_steers_the_injections() {
    let a = run(Some(FaultPlan::generate(1, 30_000, 24)), 30_000);
    let b = run(Some(FaultPlan::generate(2, 30_000, 24)), 30_000);
    assert_ne!(
        (a.trace, a.absorbed, a.degraded),
        (b.trace, b.absorbed, b.degraded),
        "seeds 1 and 2 produced identical fault behaviour"
    );
}

/// Faults appear in the trace as paired events: one `FaultInjected`,
/// one `FaultAbsorbed` disposition, in that order, per injection.
#[test]
fn every_traced_injection_has_a_disposition_partner() {
    let mut sys = build(0xC4A0_5EED);
    sys.trace_mut().set_enabled(true);
    sys.set_fault_plan(FaultPlan::generate(0xFA_017, 30_000, 24));
    let mut engine = Engine::new(sys);
    engine.run_for(Cycles(30_000));
    let sys = engine.into_machine();
    assert_eq!(sys.trace().dropped(), 0, "trace must not overflow here");
    let stats = sys.fault_stats();
    let injected = sys
        .trace()
        .events()
        .filter(|e| matches!(e.kind, TraceKind::FaultInjected { .. }))
        .count() as u64;
    let disposed = sys
        .trace()
        .events()
        .filter(|e| matches!(e.kind, TraceKind::FaultAbsorbed { .. }))
        .count() as u64;
    assert_eq!(injected, stats.injected, "every injection traced");
    assert_eq!(disposed, stats.injected, "every injection disposed");
}
