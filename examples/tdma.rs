//! TDMA slot scheduling, entirely in the event processor — the paper
//! names this as a timer-subsystem use case: "alarm events ... may be
//! used ... in a Time-Division Multiple Access (TDMA) radio scheme"
//! (§4.2.2).
//!
//! Two ISRs implement the whole MAC:
//!
//! * a periodic timer marks the start of this node's slot: the ISR
//!   powers the radio, enables the receiver, and *programs a one-shot
//!   timer* for the slot's end — the event processor reconfiguring one
//!   slave from another's interrupt, no microcontroller involved;
//! * the one-shot fires at slot end: the ISR gates the radio off.
//!
//! Frames that arrive inside the slot are received; frames outside it
//! are missed — which is the point: the radio (the dominant real-world
//! consumer) is powered for `slot/frame` of the time.
//!
//! ```sh
//! cargo run --example tdma
//! ```

use ulp_node::core_arch::map::{self, Component, Irq};
use ulp_node::core_arch::slaves::ConstSensor;
use ulp_node::core_arch::{System, SystemConfig};
use ulp_node::isa::ep::{encode_program, ComponentId, Instruction as I};
use ulp_node::net::Frame;
use ulp_node::sim::{Cycles, Engine};

const FRAME_PERIOD: u16 = 10_000; // 100 ms TDMA frame
const SLOT_LEN: u16 = 1_000; // 10 ms listening slot

fn build_node() -> System {
    let mut sys = System::new(SystemConfig::default(), Box::new(ConstSensor(0)));
    let radio = ComponentId::new(Component::Radio as u8).unwrap();
    let timer1 = map::TIMER_BASE + map::TIMER_STRIDE; // slot-end one-shot

    // Slot start: radio up + listening, then arm the slot-end one-shot.
    let isr_open = encode_program(&[
        I::SwitchOn(radio),
        I::WriteI {
            addr: map::RADIO_BASE + map::RADIO_CTRL,
            value: 2, // listen
        },
        I::WriteI {
            addr: timer1 + map::TIMER_RELOAD_LO,
            value: (SLOT_LEN & 0xFF) as u8,
        },
        I::WriteI {
            addr: timer1 + map::TIMER_RELOAD_HI,
            value: (SLOT_LEN >> 8) as u8,
        },
        I::WriteI {
            addr: timer1 + map::TIMER_CTRL,
            value: 0x09, // ENABLE | IRQ_EN: one-shot
        },
        I::Terminate,
    ])
    .unwrap();
    // Slot end: gate the radio.
    let isr_close = encode_program(&[I::SwitchOff(radio), I::Terminate]).unwrap();
    // Received frames inside the slot: just acknowledge the event (a
    // real application would chain into the message processor here).
    let isr_rx =
        encode_program(&[I::Read(map::RADIO_BASE + map::RADIO_RX_LEN), I::Terminate]).unwrap();

    sys.load(0x0100, &isr_open);
    sys.load(0x0130, &isr_close);
    sys.load(0x0140, &isr_rx);
    sys.install_ep_isr(Irq::Timer0.id(), 0x0100);
    sys.install_ep_isr(Irq::Timer1.id(), 0x0130);
    sys.install_ep_isr(Irq::RadioRxDone.id(), 0x0140);
    sys.slaves_mut().timer.configure_periodic(0, FRAME_PERIOD);
    sys
}

fn main() {
    let mut sys = build_node();

    // Traffic: one frame per 2 500 cycles — only arrivals that land in
    // the node's 10%-duty slot should be received.
    let mut scheduled = 0u32;
    for i in 1..=38u64 {
        let at = i * 2_500 + 137;
        let f = Frame::data(0x22, 0x0009, 0x0001, i as u8, &[i as u8]).unwrap();
        sys.schedule_rx(Cycles(at), f.encode());
        scheduled += 1;
    }

    let mut engine = Engine::new(sys);
    engine.run_for(Cycles(100_000)); // 1 s = 10 TDMA frames
    let sys = engine.machine();
    assert!(sys.fault().is_none(), "fault: {:?}", sys.fault());

    let radio = sys.slaves().radio.stats();
    let ids = sys.meter_ids();
    let radio_stats = sys.meter().stats(ids.radio);
    let listening_fraction = radio_stats.utilization();
    println!(
        "TDMA: {SLOT_LEN}-cycle slot in a {FRAME_PERIOD}-cycle frame \
         (nominal radio duty {:.0}%).",
        100.0 * SLOT_LEN as f64 / FRAME_PERIOD as f64
    );
    println!(
        "Scheduled {scheduled} arrivals; received {} in-slot, missed {} \
         out-of-slot.",
        radio.received, radio.missed
    );
    println!(
        "Measured radio-on fraction: {:.1}% (powered {} of {} cycles).",
        listening_fraction * 100.0,
        radio_stats.mode_cycles[0].0,
        ulp_node::sim::Simulatable::now(sys).0,
    );
    println!(
        "Event-processor events: {} (two timer ISRs per frame plus one \
         per reception); average system power {}.",
        sys.ep().stats().events,
        sys.average_power()
    );
    assert!(radio.received >= 3 && radio.missed > radio.received);
    assert!((0.08..0.16).contains(&listening_fraction));
    println!(
        "\nThe whole MAC is two short ISRs, with the microcontroller \
         never powered."
    );
}
