//! Multi-hop network co-simulation: a line of four relay nodes floods
//! sensor readings towards a base station, exercising the message
//! processor's forwarding path and duplicate-suppressing CAM (the
//! paper's application 3) across *multiple* cycle-accurate node
//! instances joined by the shared lossy medium.
//!
//! Topology (single collision domain; flooding with dedup):
//!
//! ```text
//!   node 2 ──▶ node 3 ──▶ node 4 ──▶ node 5 ──▶ base (address 0)
//! ```
//!
//! ```sh
//! cargo run --example multihop
//! ```

use ulp_bench::cosim::run_slots;
use ulp_node::apps::ulp::{monitoring, AppStage, MonitoringConfig, SamplePeriod};
use ulp_node::core_arch::slaves::ConstSensor;
use ulp_node::core_arch::{System, SystemConfig};
use ulp_node::net::{Frame, Medium, MediumConfig};

const NODES: u16 = 4;

fn make_node(address: u16, sampler: bool) -> System {
    let program = monitoring(&MonitoringConfig {
        stage: AppStage::Forwarding,
        // The far node samples briskly; relays sample rarely.
        period: SamplePeriod::Cycles(if sampler { 20_000 } else { 60_000 }),
        samples_per_packet: 1,
        threshold: 0,
    });
    let config = SystemConfig {
        address,
        dest: 0x0000, // the base station
        ..SystemConfig::default()
    };
    program.build_system(config, Box::new(ConstSensor(77)))
}

fn main() {
    let mut medium = Medium::new(MediumConfig {
        loss_probability: 0.1, // flooding rides through 10% loss
        propagation_delay_us: 30,
        seed: 7,
    });

    // Node addresses 2..=5; node 2 samples, the rest relay.
    let mut nodes: Vec<(usize, System)> = (0..NODES)
        .map(|i| {
            let addr = 2 + i;
            let endpoint = medium.register();
            (endpoint, make_node(addr, i == 0))
        })
        .collect();
    let base_endpoint = medium.register();
    let mut base_received: Vec<Frame> = Vec::new();

    // Lock-step co-simulation: one cycle per node per slot, frames
    // exchanged through the medium with real propagation timestamps;
    // the base station just listens.
    const HORIZON: u64 = 200_000; // 2 s
    run_slots(&mut medium, &mut nodes, base_endpoint, HORIZON, |d| {
        if let Ok(f) = Frame::decode(&d.bytes) {
            base_received.push(f);
        }
    });

    let stats = medium.stats();
    println!(
        "2 s of flooding across {} relays (10% loss): {} transmissions, \
         {} deliveries, {} losses.",
        NODES, stats.sent, stats.delivered, stats.lost
    );
    let mut unique: Vec<(u16, u8)> = base_received.iter().map(|f| (f.src, f.seq)).collect();
    unique.sort_unstable();
    unique.dedup();
    println!(
        "Base station heard {} frames ({} unique origin packets).",
        base_received.len(),
        unique.len()
    );
    for (endpoint, node) in &mut nodes {
        let m = node.slaves().msgproc.stats();
        println!(
            "  node {} (endpoint {endpoint}): forwarded {}, duplicates dropped {}, avg power {}",
            node.slaves().msgproc.address(),
            m.forwarded,
            m.duplicates,
            node.average_power()
        );
    }
    assert!(!unique.is_empty(), "the flood must reach the base station");
    println!(
        "\nDuplicate suppression in the message processor's CAM keeps the \
         flood from echoing,\nwith the microcontrollers asleep the whole \
         time."
    );
}
