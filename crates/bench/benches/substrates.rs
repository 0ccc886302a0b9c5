//! Benches of the substrate libraries: assemblers, the frame codec, the
//! SRAM model, and the technology sweep.
//!
//! Runs on the in-tree `ulp_testkit::bench` harness (offline, zero
//! external crates).

use ulp_isa::asm::Assembler;
use ulp_isa::ep::{decode_isr, encode_program, ComponentId, EpIsa, Instruction as I};
use ulp_mica::runtime::RuntimeBuilder;
use ulp_net::{crc16, Frame};
use ulp_sim::Cycles;
use ulp_sram::{BankedSram, SramConfig};

fn runtime_builder() -> RuntimeBuilder {
    RuntimeBuilder::new(1)
        .handles_rx(true)
        .app_code("app_rx_irregular:\n    ret\n")
}

const EP_SRC: &str = r#"
    .equ SENSOR, 0x1401
    .org 0x0100
isr:
    switchon 4
    read SENSOR
    switchoff 4
    transfer 0x1280, 0x1340, 32
    writei 0x1300, 1
    terminate
"#;

fn ep_program() -> [I; 6] {
    [
        I::SwitchOn(ComponentId::new(4).unwrap()),
        I::Read(0x1401),
        I::SwitchOff(ComponentId::new(4).unwrap()),
        I::Transfer {
            src: 0x1280,
            dst: 0x1340,
            len: 32,
        },
        I::WriteI {
            addr: 0x1300,
            value: 1,
        },
        I::Terminate,
    ]
}

fn main() {
    use ulp_testkit::bench::{Harness, Throughput};
    let mut h = Harness::from_args("substrates");

    let runtime = runtime_builder();
    let src_len = runtime.source().len() as u64;
    h.group("assembler")
        .throughput(Throughput::Bytes(src_len))
        .bench("avr_runtime", || runtime.build().expect("assembles"))
        .bench("ep_isr", || {
            Assembler::new(EpIsa).assemble(EP_SRC).expect("assembles")
        });

    let program = ep_program();
    let bytes = encode_program(&program).unwrap();
    h.group("ep_codec")
        .throughput(Throughput::Bytes(bytes.len() as u64))
        .bench("encode", || encode_program(&program))
        .bench("decode", || decode_isr(&bytes).unwrap());

    let payload = [0xA5u8; 21];
    let frame = Frame::data(0x22, 1, 0, 7, &payload).unwrap();
    let fbytes = frame.encode();
    h.group("frame_codec")
        .throughput(Throughput::Bytes(fbytes.len() as u64))
        .bench("encode", || frame.encode())
        .bench("decode", || Frame::decode(&fbytes).unwrap())
        .bench("crc16_32B", || crc16(&fbytes));

    let mut mem = BankedSram::new(SramConfig::paper());
    h.group("sram")
        .throughput(Throughput::Elements(2048))
        .bench("sweep_read_tick", || {
            for a in 0..2048u16 {
                let _ = mem.read(a).unwrap();
            }
            mem.tick(Cycles(2048));
            mem.energy()
        });

    h.group("tech")
        .bench("figure3_sweep", || ulp_tech::figure3_sweep(25.0));
    h.finish();
}
