//! Deterministic `epcheck` report text: every shipped EP ISR run
//! through the `ulp-verify` static checker, plus a deliberately broken
//! fixture suite with one ISR per EP diagnostic class.
//!
//! `repro epcheck_shipped` and `repro epcheck_fixture` print these
//! reports (the first exits 1 on an error-severity finding), laid out by
//! [`lint::render`]; `tests/golden.rs` pins them byte-for-byte, and the
//! cross-validation suite in `crates/verify/tests/` reproduces each
//! fixture finding as a dynamic fault or bus-lint observation in the
//! simulator.

use std::sync::OnceLock;

use crate::lint::{self, Lint};
use ulp_apps::ulp::{self, stages, AppStage, MonitoringConfig, SamplePeriod, UlpProgram};
use ulp_core::map;
use ulp_isa::ep::{encode_program, ComponentId, Instruction as I};
use ulp_verify::{check_isr, CheckContext, PowerState, Report};

fn cid(id: u8) -> ComponentId {
    ComponentId::new(id).expect("component ids are 5-bit")
}

/// The shipped programs `repro epcheck_shipped` lints, in report order.
pub fn shipped_programs() -> Vec<(&'static str, UlpProgram)> {
    vec![
        ("stage1", stages::app1(SamplePeriod::Cycles(2000))),
        ("stage2", stages::app2(SamplePeriod::Cycles(2000), 50)),
        ("stage3", stages::app3(SamplePeriod::Cycles(50_000), 0)),
        ("stage4", stages::app4(SamplePeriod::Cycles(10_000), 10)),
        (
            "stage1-batched",
            ulp::monitoring(&MonitoringConfig {
                stage: AppStage::SampleSend,
                period: SamplePeriod::Cycles(1000),
                samples_per_packet: 5,
                threshold: 0,
            }),
        ),
        (
            "stage1-chained",
            stages::app1(SamplePeriod::Chained {
                base: 10_000,
                count: 700,
            }),
        ),
        ("blink", ulp::blink(500)),
        ("sense", ulp::sense(500)),
    ]
}

/// Check every shipped program; returns `(label, reports)` per program.
pub fn shipped_reports() -> Vec<(&'static str, Vec<Report>)> {
    shipped_programs()
        .into_iter()
        .map(|(label, prog)| (label, prog.check()))
        .collect()
}

/// The deliberately broken fixture ISRs, one per diagnostic class (plus
/// a clean control). Each entry is `(context, image)`; the context name
/// doubles as the fixture name.
pub fn fixtures() -> Vec<(CheckContext, Vec<u8>)> {
    let sensor = map::Component::Sensor as u8;
    let msgproc = map::Component::MsgProc as u8;
    let mut out: Vec<(CheckContext, Vec<u8>)> = Vec::new();

    // Control: the Figure 5 sample ISR, clean.
    out.push((
        CheckContext::system_reset("clean-control")
            .with_irq(map::Irq::Timer0.id())
            .with_isr_addr(0x0200)
            .with_budget(1000)
            .allow_left_on(msgproc),
        encode_program(&[
            I::SwitchOn(cid(sensor)),
            I::Read(map::SENSOR_BASE + map::SENSOR_DATA),
            I::SwitchOff(cid(sensor)),
            I::SwitchOn(cid(msgproc)),
            I::Write(map::MSG_BASE + map::MSG_SAMPLE_IN),
            I::WriteI {
                addr: map::MSG_BASE + map::MSG_CTRL,
                value: 1,
            },
            I::Terminate,
        ])
        .unwrap(),
    ));

    // powered-off-access: reads the message processor without waking it.
    out.push((
        CheckContext::system_reset("powered-off-read").with_isr_addr(0x0200),
        encode_program(&[I::Read(map::MSG_BASE + map::MSG_STATUS), I::Terminate]).unwrap(),
    ));

    // unknown-power-access: the caller cannot prove the sensor's state.
    out.push((
        CheckContext::system_reset("unknown-power-read")
            .with_isr_addr(0x0200)
            .assume(sensor, PowerState::Unknown),
        encode_program(&[I::Read(map::SENSOR_BASE + map::SENSOR_DATA), I::Terminate]).unwrap(),
    ));

    // redundant-switch: double SWITCHON of the sensor.
    out.push((
        CheckContext::system_reset("double-switchon").with_isr_addr(0x0200),
        encode_program(&[
            I::SwitchOn(cid(sensor)),
            I::SwitchOn(cid(sensor)),
            I::Read(map::SENSOR_BASE + map::SENSOR_DATA),
            I::SwitchOff(cid(sensor)),
            I::Terminate,
        ])
        .unwrap(),
    ));

    // left-on-at-exit: wakes the sensor and forgets it.
    out.push((
        CheckContext::system_reset("sensor-left-on").with_isr_addr(0x0200),
        encode_program(&[
            I::SwitchOn(cid(sensor)),
            I::Read(map::SENSOR_BASE + map::SENSOR_DATA),
            I::Terminate,
        ])
        .unwrap(),
    ));

    // read-only-write: the timer count register is hardware-latched.
    out.push((
        CheckContext::system_reset("write-to-counter").with_isr_addr(0x0200),
        encode_program(&[
            I::WriteI {
                addr: map::TIMER_BASE + map::TIMER_COUNT_LO,
                value: 0,
            },
            I::Terminate,
        ])
        .unwrap(),
    ));

    // unmapped-access: a hole between memory and the device file.
    out.push((
        CheckContext::system_reset("read-from-hole").with_isr_addr(0x0200),
        encode_program(&[I::Read(0x0900), I::Terminate]).unwrap(),
    ));

    // transfer-bounds: 32 bytes into the radio TX buffer at offset 8
    // overruns the 32-byte buffer.
    out.push((
        CheckContext::system_reset("transfer-overrun")
            .with_isr_addr(0x0200)
            .assume(msgproc, PowerState::On)
            .assume(map::Component::Radio as u8, PowerState::On),
        encode_program(&[
            I::Transfer {
                src: map::MSG_TX_BUF,
                dst: map::RADIO_TX_BUF + 8,
                len: 32,
            },
            I::Terminate,
        ])
        .unwrap(),
    ));

    // bad-power-target: component id 7 is unassigned.
    out.push((
        CheckContext::system_reset("switch-unassigned").with_isr_addr(0x0200),
        encode_program(&[I::SwitchOn(cid(7)), I::Terminate]).unwrap(),
    ));

    // isr-bank-gated: the ISR gates the bank holding its own code.
    out.push((
        CheckContext::system_reset("self-gating").with_isr_addr(0x0200),
        encode_program(&[I::SwitchOff(cid(map::Component::mem_bank(2))), I::Terminate]).unwrap(),
    ));

    // vector-overlap: the image is loaded over the vector tables.
    out.push((
        CheckContext::system_reset("loads-over-vectors").with_isr_addr(0x0040),
        encode_program(&[I::Terminate]).unwrap(),
    ));

    // missing-terminator: execution runs off the end of the image.
    out.push((
        CheckContext::system_reset("runs-off-the-end").with_isr_addr(0x0200),
        encode_program(&[I::Read(map::TIMER_BASE + map::TIMER_COUNT_LO)]).unwrap(),
    ));

    // trailing-bytes: dead footprint after the terminator.
    out.push((
        CheckContext::system_reset("dead-tail").with_isr_addr(0x0200),
        {
            let mut bytes = encode_program(&[I::Terminate]).unwrap();
            bytes.extend([0x00, 0x00, 0x00]);
            bytes
        },
    ));

    // wcet-overrun: a transfer-heavy ISR against a 10-cycle budget.
    out.push((
        CheckContext::system_reset("blows-the-budget")
            .with_isr_addr(0x0200)
            .with_budget(10)
            .assume(msgproc, PowerState::On)
            .assume(map::Component::Radio as u8, PowerState::On),
        encode_program(&[
            I::Transfer {
                src: map::MSG_TX_BUF,
                dst: map::RADIO_TX_BUF,
                len: 8,
            },
            I::Terminate,
        ])
        .unwrap(),
    ));

    out
}

/// Check every fixture; returns one report per fixture, in order.
pub fn fixture_reports() -> Vec<Report> {
    fixtures()
        .iter()
        .map(|(ctx, bytes)| check_isr(bytes, ctx))
        .collect()
}

/// The shipped-program report (`repro epcheck_shipped`), checked and
/// rendered once per process: `repro` prints its text and gates on its
/// errors.
pub fn shipped() -> &'static Lint {
    static SHIPPED: OnceLock<Lint> = OnceLock::new();
    SHIPPED.get_or_init(|| {
        let groups = shipped_reports()
            .into_iter()
            .map(|(label, reports)| (Some(label), reports.iter().map(checked).collect()));
        lint::render("epcheck: shipped event-processor programs", groups, true)
    })
}

/// The fixture report (`repro epcheck_fixture`).
pub fn fixture() -> Lint {
    let groups = fixture_reports()
        .into_iter()
        .map(|r| (None, vec![checked(&r)]));
    lint::render("epcheck: diagnostic fixture suite", groups, false)
}

/// One checked program as [`lint::render`] takes it.
fn checked(r: &Report) -> (String, usize, usize) {
    (r.render(), r.errors(), r.warnings())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_programs_are_clean() {
        assert_eq!(shipped().errors, 0);
        for (label, reports) in shipped_reports() {
            for report in reports {
                assert!(report.is_clean(), "{label}/{}", report.name);
            }
        }
    }

    #[test]
    fn fixture_names_are_unique() {
        let mut names: Vec<String> = fixtures().iter().map(|(c, _)| c.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), fixtures().len());
    }

    #[test]
    fn reports_render_deterministically() {
        assert_eq!(shipped().text, shipped().text);
        assert_eq!(fixture().text, fixture().text);
    }
}
