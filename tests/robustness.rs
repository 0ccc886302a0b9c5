//! Robustness properties: the machine models must never panic on any
//! input the programming model can express — garbage programs, random
//! bus traffic, arbitrary frames — only fault or ignore, deterministically.

use ulp_node::core_arch::slaves::{ConstSensor, SensorBlock, Slaves};
use ulp_node::core_arch::{System, SystemConfig};
use ulp_node::mcu8::{Cpu, FlatBus};
use ulp_node::sim::{Cycles, Engine};
use ulp_node::sram::{BankedSram, SramConfig};
use ulp_testkit::{any_bool, any_u16, any_u64, any_u8, prop_assert, prop_assert_eq, props, vec_of};

fn fresh_slaves() -> Slaves {
    Slaves::new(
        BankedSram::new(SramConfig::paper()),
        SensorBlock::new(Box::new(ConstSensor(7))),
        100_000.0,
    )
}

props! {
    /// The bus decode never panics: every 16-bit address either reads a
    /// byte or returns a typed fault.
    #[test]
    fn bus_decode_total(addrs in vec_of(any_u16(), 1..200)) {
        let mut s = fresh_slaves();
        for addr in addrs {
            let _ = s.read(addr);
            let _ = s.write(addr, addr as u8);
        }
    }

    /// Power control is total over the 5-bit id space: every id either
    /// switches something or faults, and the operation is idempotent.
    #[test]
    fn power_control_total(ids in vec_of((0u8..32, any_bool()), 1..50)) {
        let wake = ulp_node::core_arch::WakeLatency::paper();
        let mut s = fresh_slaves();
        for (id, on) in ids {
            let first = s.set_power(id, on, &wake);
            let second = s.set_power(id, on, &wake);
            match (first, second) {
                (Ok(_), Ok(lat2)) => prop_assert_eq!(lat2, Cycles::ZERO, "idempotent"),
                (Err(_), Err(_)) => {}
                other => panic!("inconsistent: {other:?}"),
            }
        }
    }

    /// Random bytes as an event-processor ISR: the system either
    /// terminates the event, faults with a diagnostic, or is still
    /// grinding — it never panics and never corrupts the engine.
    #[test]
    fn random_ep_isr_never_panics(
        code in vec_of(any_u8(), 1..48),
        irq in 0u8..64,
    ) {
        let mut sys = System::new(SystemConfig::default(), Box::new(ConstSensor(0)));
        sys.load(0x0200, &code);
        sys.install_ep_isr(irq, 0x0200);
        sys.inject_irq(irq);
        let mut engine = Engine::new(sys);
        engine.run_for(Cycles(5_000));
        // Reaching here without a panic is the property; faults are fine.
        let _ = engine.machine().fault();
    }

    /// Random words as an AVR program: the CPU executes or halts on the
    /// invalid encoding; it never panics, and the cycle count per step
    /// stays within the architectural bound.
    #[test]
    fn random_avr_program_never_panics(words in vec_of(any_u16(), 1..64)) {
        // Build the program image through the raw-word side door.
        let img = ulp_node::isa::asm::Assembler::new(ulp_node::mcu8::AvrIsa)
            .assemble(&format!(".org 0\n.dw {}", words.iter().map(|w| w.to_string())
                .collect::<Vec<_>>().join(", ")))
            .unwrap();
        let mut bus = FlatBus::new(4096);
        bus.load_image(&img);
        let mut cpu = Cpu::new();
        cpu.sp = 0x0FFF;
        for _ in 0..500 {
            if cpu.halted() {
                break;
            }
            let c = cpu.step(&mut bus);
            prop_assert!(c <= 12, "cycle bound: {c}");
        }
    }

    /// The broadcast medium under adversarial time: unregistered
    /// endpoints, non-monotonic polls, empty payloads, and transmits at
    /// the end of time never panic, and the per-transmit conservation
    /// law (`delivered + lost = sent × (endpoints − 1)`) survives all
    /// of it.
    #[test]
    fn medium_survives_adversarial_time(
        endpoints in 0usize..5,
        ops in vec_of((any_u8(), any_u64(), any_u8()), 1..120),
        delay in any_u64(),
        seed in any_u64(),
    ) {
        use ulp_node::net::{Medium, MediumConfig};
        let mut m = Medium::new(MediumConfig {
            loss_probability: 0.25,
            propagation_delay_us: delay,
            seed,
        });
        for _ in 0..endpoints {
            m.register();
        }
        for (op, t, ep) in ops {
            let ep = ep as usize % 8; // half deliberately unregistered
            match op % 4 {
                0 => m.transmit(ep, t, &[op, 1, 2]),
                1 => m.transmit(ep, u64::MAX, &[]),
                2 => {
                    for d in m.poll(ep, t) {
                        prop_assert!(d.at_us <= t, "delivered from the future");
                    }
                }
                _ => {
                    let _ = m.next_arrival(ep);
                }
            }
        }
        let s = m.stats();
        let fanout = endpoints.saturating_sub(1) as u64;
        prop_assert_eq!(
            s.delivered + s.lost,
            s.sent * fanout,
            "conservation: every sent frame is delivered or lost per peer"
        );
    }

    /// Arrival times saturate rather than wrap: a frame sent at the end
    /// of time with any propagation delay is still delivered, at
    /// `u64::MAX`, exactly once.
    #[test]
    fn medium_end_of_time_saturates(delay in any_u64(), seed in any_u64()) {
        use ulp_node::net::{Medium, MediumConfig};
        let mut m = Medium::new(MediumConfig {
            loss_probability: 0.0,
            propagation_delay_us: delay,
            seed,
        });
        let a = m.register();
        let b = m.register();
        m.transmit(a, u64::MAX, &[0xEE]);
        prop_assert_eq!(m.next_arrival(b), Some(u64::MAX), "arrival saturates");
        prop_assert!(m.poll(b, u64::MAX - 1).is_empty() || delay == 0);
        prop_assert_eq!(m.poll(b, u64::MAX).len(), 1, "delivered exactly once");
        prop_assert_eq!(m.next_arrival(b), None);
    }

    /// Sensor models are total over time and channel.
    #[test]
    fn sensor_models_total(at in any_u64(), ch in any_u8(), seed in any_u64()) {
        use ulp_node::core_arch::slaves::{RandomWalkSensor, SensorModel, SineSensor, TraceSensor};
        let _ = ConstSensor(at as u8).sample(Cycles(at), ch);
        let mut s = SineSensor { period: (at % 1_000_000).max(1), amplitude: 300.0, offset: -10.0 };
        let _ = s.sample(Cycles(at), ch);
        let mut w = RandomWalkSensor::new(at as u8, seed);
        let _ = w.sample(Cycles(at), ch);
        let mut t = TraceSensor::new(vec![1, 2, 3]);
        let _ = t.sample(Cycles(at), ch);
    }
}

/// A pathological but legal self-retriggering ISR (switches a component
/// on and off forever across events) runs indefinitely without panic or
/// unbounded memory.
#[test]
fn pathological_isr_soak() {
    use ulp_node::core_arch::map::Component;
    use ulp_node::isa::ep::{encode_program, ComponentId, Instruction as I};
    let mut sys = System::new(SystemConfig::default(), Box::new(ConstSensor(0)));
    let filter = ComponentId::new(Component::Filter as u8).unwrap();
    let isr = encode_program(&[
        I::SwitchOff(filter),
        I::SwitchOn(filter),
        I::Transfer {
            src: 0x0300,
            dst: 0x0300, // overlapping self-copy is legal
            len: 32,
        },
        I::Terminate,
    ])
    .unwrap();
    sys.load(0x0200, &isr);
    sys.install_ep_isr(0, 0x0200);
    sys.slaves_mut().timer.configure_periodic(0, 50);
    let mut engine = Engine::new(sys);
    engine.run_for(Cycles(200_000));
    let sys = engine.machine();
    assert!(sys.fault().is_none(), "fault: {:?}", sys.fault());
    assert!(sys.ep().stats().events > 1_000);
}

/// The microcontroller interrupting the event processor mid-chain:
/// an irregular event while a send chain is active must not corrupt
/// either — the EP waits on the bus and resumes when the µC sleeps.
#[test]
fn ep_waits_out_the_mcu_and_resumes() {
    use ulp_node::apps::ulp::{stages, SamplePeriod};
    use ulp_node::net::Frame;
    let prog = stages::app4(SamplePeriod::Cycles(400), 0);
    let sys = prog.build_system(SystemConfig::default(), Box::new(ConstSensor(200)));
    let mut engine = Engine::new(sys);
    // A constant stream of reconfig commands racing the send chains.
    for i in 0..25u64 {
        let cmd = Frame::command(0x22, 9, 1, i as u8, &[2, (i % 200) as u8, 0]).unwrap();
        engine
            .machine_mut()
            .schedule_rx(Cycles(300 + i * 1_900), cmd.encode());
    }
    engine.run_for(Cycles(60_000));
    let sys = engine.machine();
    assert!(sys.fault().is_none(), "fault: {:?}", sys.fault());
    assert!(sys.mcu().stats().wakeups >= 10, "{:?}", sys.mcu().stats());
    assert!(
        sys.ep().stats().wait_bus_cycles > 0,
        "the EP must have waited for the bus at least once"
    );
    assert!(sys.slaves().radio.stats().transmitted > 50);
}
