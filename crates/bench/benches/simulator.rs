//! Benches of the simulators themselves: how many simulated cycles per
//! wall-clock second each platform model delivers, and how much the
//! idle-skip engine buys on low-duty-cycle workloads — the property that
//! makes the lifetime studies (years of simulated time) tractable.
//!
//! Runs on the in-tree `ulp_testkit::bench` harness, so `cargo bench`
//! works offline with zero external crates.

use ulp_apps::mica as mapps;
use ulp_apps::ulp::{stages, SamplePeriod};
use ulp_core::slaves::ConstSensor;
use ulp_core::SystemConfig;
use ulp_sim::{Cycles, Engine};

fn run_ulp(period: u64, horizon: u64) -> u64 {
    let prog = stages::app2(SamplePeriod::Cycles(period as u16), 0);
    let sys = prog.build_system(SystemConfig::default(), Box::new(ConstSensor(128)));
    let mut engine = Engine::new(sys);
    engine.run_for(Cycles(horizon));
    assert!(engine.machine().fault().is_none());
    engine.machine().busy_cycles().0
}

fn run_ulp_no_skip() -> u64 {
    let prog = stages::app2(SamplePeriod::Cycles(50_000), 0);
    let sys = prog.build_system(SystemConfig::default(), Box::new(ConstSensor(128)));
    let mut engine = Engine::new(sys);
    engine.set_fast_forward(false);
    engine.run_for(Cycles(200_000));
    engine.machine().busy_cycles().0
}

fn run_mica(horizon: u64) -> u64 {
    let app = mapps::app1(1);
    let (board, _) = app.board(Box::new(|_| 42));
    let mut engine = Engine::new(board);
    engine.run_until_cycle(Cycles(horizon));
    assert!(!engine.machine().halted());
    engine.machine().adc_conversions()
}

fn run_mica_decode(horizon: u64) -> u64 {
    // Same workload with the shared predecoded table disabled: the CPU
    // fetches and decodes every instruction on every step. The gap
    // between this and `sampling_every_tick` is what the table buys.
    let app = mapps::app1(1);
    let (mut board, _) = app.board(Box::new(|_| 42));
    board.set_predecode(false);
    let mut engine = Engine::new(board);
    engine.run_until_cycle(Cycles(horizon));
    assert!(!engine.machine().halted());
    engine.machine().adc_conversions()
}

fn run_lifetime_day() -> ulp_sim::Power {
    // A whole simulated day at GDI cadence (one sample per 70 s): the
    // workload the idle-skip engine exists for.
    let prog = stages::app1(SamplePeriod::Chained {
        base: 10_000,
        count: 700,
    });
    let config = SystemConfig {
        collect_outbox: false,
        ..SystemConfig::default()
    };
    let sys = prog.build_system(config, Box::new(ConstSensor(20)));
    let mut engine = Engine::new(sys);
    engine.run_for(Cycles(8_640_000_000)); // 86 400 s at 100 kHz
    let sys = engine.machine();
    assert!(sys.fault().is_none());
    sys.average_power()
}

fn main() {
    use ulp_testkit::bench::{Harness, Throughput};
    let horizon = 1_000_000u64;
    let mut h = Harness::from_args("simulator");
    h.group("ulp_system").throughput(Throughput::Elements(horizon));
    for (name, period) in [("busy_1k", 1_000u64), ("idle_100k", 100_000u64)] {
        h.bench(&format!("run/{name}"), || run_ulp(period, horizon));
    }
    h.bench("run/idle_100k_no_skip", run_ulp_no_skip);
    h.group("mica_board")
        .throughput(Throughput::Elements(horizon))
        .bench("run/sampling_every_tick", || run_mica(horizon))
        .bench("run/sampling_every_tick_decode", || run_mica_decode(horizon));
    h.group("lifetime").bench("one_simulated_day_gdi", run_lifetime_day);
    h.finish();
}
