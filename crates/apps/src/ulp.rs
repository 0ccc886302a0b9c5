//! The test applications as event-processor ISR chains (plus the stage-4
//! AVR handler) for the paper's architecture.
//!
//! Each application is a set of short ISRs wired to the interrupt fabric;
//! data-dependent control flow (filtering, message classification) rides
//! on the interrupt mechanism itself, so the programs contain no branches
//! — exactly the Figure 5 style. The assembled images are tiny (the paper
//! reports a 180-byte footprint for the complete stage-4 application;
//! [`UlpProgram::code_size`] reports ours).

use ulp_core::map::{self, Component, Irq};
use ulp_core::{System, SystemConfig};
use ulp_isa::ep::{encode_program, ComponentId, Instruction as I};
use ulp_mcu8::assemble;

/// Origin of the event-processor ISRs in main memory (bank 1).
pub const EP_CODE_BASE: u16 = 0x0100;
/// Origin of the microcontroller handlers (bank 4).
pub const MCU_CODE_BASE: u16 = 0x0400;

/// Which application stage (§6.1.2), or a comparison micro-app (§6.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppStage {
    /// 1: periodically collect samples and transmit packets.
    SampleSend,
    /// 2: stage 1 plus threshold filtering.
    Filtered,
    /// 3: stage 2 plus receive-and-forward.
    Forwarding,
    /// 4: stage 3 plus remote reconfiguration (irregular events).
    Reconfigurable,
    /// SNAP comparison: periodically toggle an LED.
    Blink,
    /// SNAP comparison: periodically sample the ADC into a running
    /// average (the filter block's EWMA mode).
    Sense,
}

/// Sampling cadence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplePeriod {
    /// Up to 65535 cycles on one timer.
    Cycles(u16),
    /// `base × count` cycles via timer chaining (GDI's 70 s = 7 M cycles
    /// needs this).
    Chained {
        /// Base timer period in cycles.
        base: u16,
        /// Number of base periods per alarm.
        count: u16,
    },
}

impl SamplePeriod {
    /// Total cycles between samples.
    pub fn cycles(&self) -> u64 {
        match *self {
            SamplePeriod::Cycles(c) => c as u64,
            SamplePeriod::Chained { base, count } => base as u64 * count as u64,
        }
    }
}

/// Configuration of the monitoring application family.
#[derive(Debug, Clone)]
pub struct MonitoringConfig {
    /// Which stage to build.
    pub stage: AppStage,
    /// Sampling cadence.
    pub period: SamplePeriod,
    /// Samples batched per packet (volcano: 21; GDI: 1).
    pub samples_per_packet: u8,
    /// Threshold for stage ≥ 2.
    pub threshold: u8,
}

impl Default for MonitoringConfig {
    fn default() -> Self {
        MonitoringConfig {
            stage: AppStage::Filtered,
            period: SamplePeriod::Cycles(1000),
            samples_per_packet: 1,
            threshold: 0,
        }
    }
}

/// A fully described program for the paper's architecture.
#[derive(Debug, Clone)]
pub struct UlpProgram {
    images: Vec<(u16, Vec<u8>)>,
    ep_vectors: Vec<(u8, u16)>,
    mcu_vectors: Vec<(u8, u16)>,
    period: Option<SamplePeriod>,
    radio_listen: bool,
    filter_mode: Option<(u8, u8)>, // (mode, threshold)
    power_on: Vec<u8>,
    auto_prepare: u8,
    stage: AppStage,
    /// `(irq, component)` pairs: the ISR on `irq` intentionally leaves
    /// `component` powered for a later ISR in the chain (declared so the
    /// static checker does not flag the hand-off as an energy leak).
    handoffs: Vec<(u8, u8)>,
}

impl UlpProgram {
    /// Total bytes of EP ISRs and microcontroller handlers (the paper's
    /// "180-byte memory footprint" metric).
    pub fn code_size(&self) -> usize {
        self.images.iter().map(|(_, b)| b.len()).sum()
    }

    /// The application stage this program implements.
    pub fn stage(&self) -> AppStage {
        self.stage
    }

    /// The event-processor ISRs of this program: `(irq, origin, bytes)`
    /// in vector-installation order.
    pub fn ep_isrs(&self) -> Vec<(u8, u16, &[u8])> {
        self.ep_vectors
            .iter()
            .filter_map(|(irq, addr)| {
                self.images
                    .iter()
                    .find(|(origin, _)| origin == addr)
                    .map(|(origin, bytes)| (*irq, *origin, bytes.as_slice()))
            })
            .collect()
    }

    /// Statically check every EP ISR with `ulp-verify`, one report per
    /// installed vector.
    ///
    /// The check contexts encode what `install` actually does: components
    /// in `power_on` and a listening radio are assumed on at entry, the
    /// sampling period is the WCET budget, and declared hand-offs (a
    /// component one ISR powers for the next in the chain) are exempt
    /// from the left-on-at-exit lint.
    pub fn check(&self) -> Vec<ulp_verify::Report> {
        use ulp_verify::{check_isr, CheckContext, PowerState};
        self.ep_isrs()
            .into_iter()
            .map(|(irq, origin, bytes)| {
                let name = map::irq_name(irq)
                    .map(|n| n.to_ascii_lowercase())
                    .unwrap_or_else(|| format!("irq{irq}"));
                let mut ctx = CheckContext::system_reset(&name)
                    .with_irq(irq)
                    .with_isr_addr(origin);
                if let Some(period) = self.period {
                    ctx = ctx.with_budget(period.cycles());
                }
                for id in &self.power_on {
                    ctx = ctx.assume(*id, PowerState::On);
                }
                if self.radio_listen {
                    ctx = ctx.assume(Component::Radio as u8, PowerState::On);
                }
                for (from_irq, component) in &self.handoffs {
                    if *from_irq == irq {
                        ctx = ctx.allow_left_on(*component);
                    }
                }
                check_isr(bytes, &ctx)
            })
            .collect()
    }

    /// Build a system with this program installed.
    pub fn build_system(
        &self,
        config: SystemConfig,
        sensor: Box<dyn ulp_core::slaves::SensorModel + Send>,
    ) -> System {
        let mut sys = System::new(config, sensor);
        self.install(&mut sys);
        sys
    }

    /// Install images, vectors, and peripheral configuration.
    ///
    /// In debug builds every EP ISR is run through the static checker
    /// first; an error-severity finding is a bug in the program builder,
    /// so it panics with the rendered report. WCET overruns are exempt:
    /// deliberately saturating the event fabric is a legitimate
    /// experiment (§4.2.4 — "events will simply be dropped"), the
    /// system degrades rather than faults.
    pub fn install(&self, sys: &mut System) {
        #[cfg(debug_assertions)]
        for report in self.check() {
            let hard_errors = report
                .diags
                .iter()
                .filter(|d| {
                    d.class.severity() == ulp_verify::Severity::Error
                        && d.class != ulp_verify::DiagClass::WcetOverrun
                })
                .count();
            assert_eq!(
                hard_errors,
                0,
                "EP ISR fails static check:\n{}",
                report.render()
            );
        }
        for (origin, bytes) in &self.images {
            sys.load(*origin, bytes);
        }
        for (irq, isr) in &self.ep_vectors {
            sys.install_ep_isr(*irq, *isr);
        }
        for (v, handler) in &self.mcu_vectors {
            sys.install_mcu_handler(*v, *handler);
        }
        if let Some((mode, threshold)) = self.filter_mode {
            let s = sys.slaves_mut();
            s.filter.write(map::FILTER_MODE, mode, || ());
            s.filter.write(map::FILTER_THRESHOLD, threshold, || ());
        }
        for id in &self.power_on {
            sys.set_component_power(*id, true);
        }
        if self.auto_prepare > 0 {
            sys.slaves_mut()
                .msgproc
                .write(map::MSG_AUTO_PREPARE, self.auto_prepare);
        }
        if self.radio_listen {
            sys.radio_listen();
        }
        match self.period {
            Some(SamplePeriod::Cycles(c)) => sys.slaves_mut().timer.configure_periodic(0, c),
            Some(SamplePeriod::Chained { base, count }) => {
                sys.slaves_mut().timer.configure_chained(1, base, count)
            }
            None => {}
        }
    }
}

fn cid(c: Component) -> ComponentId {
    ComponentId::new(c as u8).expect("component ids are 5-bit")
}

/// Build the monitoring application (stages 1–4 of §6.1.2).
///
/// # Panics
///
/// Panics if `samples_per_packet` is 0 or exceeds the message buffer.
pub fn monitoring(cfg: &MonitoringConfig) -> UlpProgram {
    assert!(
        (1..=ulp_core::slaves::MAX_SAMPLES as u8).contains(&cfg.samples_per_packet),
        "samples_per_packet out of range"
    );
    let sensor = cid(Component::Sensor);
    let msgproc = cid(Component::MsgProc);
    let radio = cid(Component::Radio);
    let batched = cfg.samples_per_packet > 1;
    let listens = matches!(cfg.stage, AppStage::Forwarding | AppStage::Reconfigurable);
    // Relay nodes keep the message processor powered: with a single TX
    // buffer serving both locally prepared packets and forwards, gating
    // it at the end of one chain would yank it from under the other
    // (MsgReady and MsgForward can be pending simultaneously).
    let msg_always_on = batched || listens;
    let filtered = matches!(
        cfg.stage,
        AppStage::Filtered | AppStage::Forwarding | AppStage::Reconfigurable
    );

    let mut images = Vec::new();
    let mut ep_vectors = Vec::new();
    let mut mcu_vectors = Vec::new();
    let mut origin = EP_CODE_BASE;
    let mut add_isr = |isr: &[I], irq: u8, images: &mut Vec<(u16, Vec<u8>)>| {
        let bytes = encode_program(isr).expect("EP program encodes");
        let at = origin;
        origin += bytes.len() as u16;
        images.push((at, bytes));
        ep_vectors.push((irq, at));
    };

    // Deliver a sample into the message pipeline. With batching the
    // message processor stays powered (its accumulator is doing work
    // between packets); otherwise it is woken per event, Figure 5 style.
    let deliver_sample: Vec<I> = if msg_always_on {
        vec![I::Write(map::MSG_BASE + map::MSG_SAMPLE_IN), I::Terminate]
    } else {
        vec![
            I::SwitchOn(msgproc),
            I::Write(map::MSG_BASE + map::MSG_SAMPLE_IN),
            I::WriteI {
                addr: map::MSG_BASE + map::MSG_CTRL,
                value: 1, // Prepare
            },
            I::Terminate,
        ]
    };

    // ISR: timer alarm → sample the sensor.
    let mut isr_timer = vec![
        I::SwitchOn(sensor),
        I::Read(map::SENSOR_BASE + map::SENSOR_DATA),
        I::SwitchOff(sensor),
    ];
    if filtered {
        // Hand the sample to the filter; the chain continues only if the
        // FilterPass interrupt fires (event-driven conditional).
        isr_timer.extend([
            I::Write(map::FILTER_BASE + map::FILTER_INPUT),
            I::WriteI {
                addr: map::FILTER_BASE + map::FILTER_CTRL,
                value: 1,
            },
            I::Terminate,
        ]);
    } else {
        isr_timer.extend(deliver_sample.clone());
    }
    let timer_irq = match cfg.period {
        SamplePeriod::Cycles(_) => Irq::Timer0.id(),
        SamplePeriod::Chained { .. } => Irq::Timer1.id(),
    };
    add_isr(&isr_timer, timer_irq, &mut images);

    if filtered {
        // ISR: filter pass → forward the latched sample onward.
        let mut isr_pass = vec![I::Read(map::FILTER_BASE + map::FILTER_INPUT)];
        isr_pass.extend(deliver_sample.clone());
        add_isr(&isr_pass, Irq::FilterPass.id(), &mut images);
    }

    // ISR: message ready → move the frame to the radio and transmit.
    // TRANSFER length is static (the EP has no ALU): header + batch + FCS.
    let tx_len = (ulp_net::MHR_LEN + cfg.samples_per_packet as usize + 2) as u8;
    // A listening radio is already powered (install leaves it in RX), so
    // the SWITCHON would be a redundant no-op burning fetch cycles.
    let mut isr_ready = if listens {
        Vec::new()
    } else {
        vec![I::SwitchOn(radio)]
    };
    isr_ready.extend([
        I::Read(map::MSG_BASE + map::MSG_TX_LEN),
        I::Write(map::RADIO_BASE + map::RADIO_TX_LEN),
        I::Transfer {
            src: map::MSG_TX_BUF,
            dst: map::RADIO_TX_BUF,
            len: tx_len,
        },
    ]);
    if !msg_always_on {
        isr_ready.push(I::SwitchOff(msgproc));
    }
    isr_ready.extend([
        I::WriteI {
            addr: map::RADIO_BASE + map::RADIO_CTRL,
            value: 1,
        },
        I::Terminate,
    ]);
    add_isr(&isr_ready, Irq::MsgReady.id(), &mut images);

    // ISR: transmission complete → return the radio to its resting state.
    let isr_txdone: Vec<I> = if listens {
        vec![
            I::WriteI {
                addr: map::RADIO_BASE + map::RADIO_CTRL,
                value: 2, // keep listening
            },
            I::Terminate,
        ]
    } else {
        vec![I::SwitchOff(radio), I::Terminate]
    };
    add_isr(&isr_txdone, Irq::RadioTxDone.id(), &mut images);

    if listens {
        // ISR: frame received → hand it to the message processor. Relay
        // configurations keep the message processor powered (see
        // `msg_always_on` above), so no SWITCHON is needed here.
        let isr_rx = vec![
            I::Read(map::RADIO_BASE + map::RADIO_RX_LEN),
            I::Write(map::MSG_BASE + map::MSG_RX_LEN),
            I::Transfer {
                src: map::RADIO_RX_BUF,
                dst: map::MSG_RX_BUF,
                len: 32,
            },
            I::WriteI {
                addr: map::MSG_BASE + map::MSG_CTRL,
                value: 2, // ProcessRx
            },
            I::Terminate,
        ];
        add_isr(&isr_rx, Irq::RadioRxDone.id(), &mut images);

        // ISR: forward → send the verbatim frame out.
        let mut isr_fwd = vec![
            I::Read(map::MSG_BASE + map::MSG_TX_LEN),
            I::Write(map::RADIO_BASE + map::RADIO_TX_LEN),
            I::Transfer {
                src: map::MSG_TX_BUF,
                dst: map::RADIO_TX_BUF,
                len: 32,
            },
        ];
        if !msg_always_on {
            isr_fwd.push(I::SwitchOff(msgproc));
        }
        isr_fwd.extend([
            I::WriteI {
                addr: map::RADIO_BASE + map::RADIO_CTRL,
                value: 1,
            },
            I::Terminate,
        ]);
        add_isr(&isr_fwd, Irq::MsgForward.id(), &mut images);
    }

    if cfg.stage == AppStage::Reconfigurable {
        // ISR: irregular message → wake the microcontroller at vector 0.
        // The message processor stays powered so the handler can read the
        // payload; the handler gates it off before sleeping.
        add_isr(&[I::Wakeup(0)], Irq::MsgIrregular.id(), &mut images);

        let handler = reconfig_handler_source();
        let img = assemble(&handler).expect("reconfig handler assembles");
        for seg in img.segments() {
            images.push((MCU_CODE_BASE + seg.origin as u16, seg.data.clone()));
        }
        mcu_vectors.push((0, MCU_CODE_BASE));
    }

    UlpProgram {
        images,
        ep_vectors,
        mcu_vectors,
        period: Some(cfg.period),
        radio_listen: listens,
        filter_mode: filtered.then_some((0, cfg.threshold)),
        power_on: if msg_always_on {
            vec![Component::MsgProc as u8]
        } else {
            Vec::new()
        },
        auto_prepare: if msg_always_on {
            cfg.samples_per_packet
        } else {
            0
        },
        stage: cfg.stage,
        handoffs: {
            let mut handoffs = Vec::new();
            if !msg_always_on {
                // The sample-delivery ISR powers the message processor
                // and hands it to the MsgReady ISR (which gates it off).
                let deliverer = if filtered {
                    Irq::FilterPass.id()
                } else {
                    timer_irq
                };
                handoffs.push((deliverer, Component::MsgProc as u8));
            }
            if !listens {
                // MsgReady powers the radio for the transmission; the
                // RadioTxDone ISR gates it off afterwards.
                handoffs.push((Irq::MsgReady.id(), Component::Radio as u8));
            }
            handoffs
        },
    }
}

/// The stage-4 irregular-event handler: parse the reconfiguration payload
/// and apply it (sampling period or filter threshold), then gate the
/// microcontroller itself (the message processor stays on in relay
/// configurations; see `monitoring`).
///
/// Payload layout: `[param, value_lo, value_hi]` with param 1 = sampling
/// period (timer 0 reload), param 2 = filter threshold.
fn reconfig_handler_source() -> String {
    format!(
        r#"
.equ PAYLOAD, {payload}       ; MSG_RX_BUF + MAC header
.equ TIMER0, {timer0}
.equ FILTER_THRESHOLD, {fthr}
.equ SYS_MCU_SLEEP, {ssleep}

handler:
    lds r16, PAYLOAD          ; param id
    cpi r16, 1
    breq do_timer
    cpi r16, 2
    breq do_thresh
    rjmp done
do_timer:
    ; Disable, reprogram, re-enable (re-enabling reloads the counter).
    ldi r16, 0
    sts TIMER0 + 2, r16
    lds r16, PAYLOAD + 1
    sts TIMER0 + 0, r16       ; reload lo
    lds r16, PAYLOAD + 2
    sts TIMER0 + 1, r16       ; reload hi
    ldi r16, 0x0B             ; enable | repeat | irq
    sts TIMER0 + 2, r16
    rjmp done
do_thresh:
    lds r16, PAYLOAD + 1
    sts FILTER_THRESHOLD, r16
done:
    ldi r16, 1
    sts SYS_MCU_SLEEP, r16
hang:
    rjmp hang                 ; gated before this spins more than once
"#,
        payload = map::MSG_RX_BUF + ulp_net::MHR_LEN as u16,
        timer0 = map::TIMER_BASE,
        fthr = map::FILTER_BASE + map::FILTER_THRESHOLD,
        ssleep = map::SYS_BASE + map::SYS_MCU_SLEEP,
    )
}

/// The `blink` comparison app: a timer toggles the LED, entirely in the
/// event processor (the paper reports 12 cycles; SNAP 41; Mica2 523).
pub fn blink(period: u16) -> UlpProgram {
    let isr = encode_program(&[
        I::WriteI {
            addr: map::SYS_BASE + map::SYS_GPIO_TOGGLE,
            value: 1,
        },
        I::Terminate,
    ])
    .unwrap();
    UlpProgram {
        images: vec![(EP_CODE_BASE, isr)],
        ep_vectors: vec![(Irq::Timer0.id(), EP_CODE_BASE)],
        mcu_vectors: Vec::new(),
        period: Some(SamplePeriod::Cycles(period)),
        radio_listen: false,
        filter_mode: None,
        power_on: Vec::new(),
        auto_prepare: 0,
        stage: AppStage::Blink,
        handoffs: Vec::new(),
    }
}

/// The `sense` comparison app: periodic ADC sampling into the filter's
/// hardware running average (the paper reports 24 cycles; SNAP 261;
/// Mica2 1118).
pub fn sense(period: u16) -> UlpProgram {
    let sensor = cid(Component::Sensor);
    let isr = encode_program(&[
        I::SwitchOn(sensor),
        I::Read(map::SENSOR_BASE + map::SENSOR_DATA),
        I::SwitchOff(sensor),
        I::Write(map::FILTER_BASE + map::FILTER_INPUT),
        I::WriteI {
            addr: map::FILTER_BASE + map::FILTER_CTRL,
            value: 1,
        },
        I::Terminate,
    ])
    .unwrap();
    UlpProgram {
        images: vec![(EP_CODE_BASE, isr)],
        ep_vectors: vec![(Irq::Timer0.id(), EP_CODE_BASE)],
        mcu_vectors: Vec::new(),
        period: Some(SamplePeriod::Cycles(period)),
        radio_listen: false,
        filter_mode: Some((2, 0)), // EWMA mode
        power_on: Vec::new(),
        auto_prepare: 0,
        stage: AppStage::Sense,
        handoffs: Vec::new(),
    }
}

/// Convenience constructors for the four staged applications.
pub mod stages {
    use super::*;

    /// Application 1: sample and send.
    pub fn app1(period: SamplePeriod) -> UlpProgram {
        monitoring(&MonitoringConfig {
            stage: AppStage::SampleSend,
            period,
            ..MonitoringConfig::default()
        })
    }

    /// Application 2: sample, filter, send.
    pub fn app2(period: SamplePeriod, threshold: u8) -> UlpProgram {
        monitoring(&MonitoringConfig {
            stage: AppStage::Filtered,
            period,
            threshold,
            ..MonitoringConfig::default()
        })
    }

    /// Application 3: application 2 plus forwarding.
    pub fn app3(period: SamplePeriod, threshold: u8) -> UlpProgram {
        monitoring(&MonitoringConfig {
            stage: AppStage::Forwarding,
            period,
            threshold,
            ..MonitoringConfig::default()
        })
    }

    /// Application 4: application 3 plus remote reconfiguration.
    pub fn app4(period: SamplePeriod, threshold: u8) -> UlpProgram {
        monitoring(&MonitoringConfig {
            stage: AppStage::Reconfigurable,
            period,
            threshold,
            ..MonitoringConfig::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_core::slaves::ConstSensor;
    use ulp_net::Frame;
    use ulp_sim::{Cycles, Engine, Simulatable};

    fn run(prog: &UlpProgram, cycles: u64) -> System {
        let sys = prog.build_system(SystemConfig::default(), Box::new(ConstSensor(99)));
        let mut engine = Engine::new(sys);
        engine.run_for(Cycles(cycles));
        let sys = engine.into_machine();
        assert!(sys.fault().is_none(), "fault: {:?}", sys.fault());
        sys
    }

    #[test]
    fn app1_sends_packets() {
        let prog = stages::app1(SamplePeriod::Cycles(2000));
        let mut sys = run(&prog, 10_000);
        let out = sys.take_outbox();
        assert_eq!(out.len(), 4);
        let f = Frame::decode(&out[0].1).unwrap();
        assert_eq!(f.payload, vec![99]);
    }

    #[test]
    fn app2_filter_blocks_low_samples() {
        let mut cfg = MonitoringConfig {
            stage: AppStage::Filtered,
            period: SamplePeriod::Cycles(2000),
            threshold: 100,
            samples_per_packet: 1,
        };
        // Sensor reads 99 < threshold 100: nothing is sent.
        let prog = monitoring(&cfg);
        let mut sys = run(&prog, 10_000);
        assert!(sys.take_outbox().is_empty(), "filtered out");
        assert_eq!(sys.slaves().filter.evaluations(), 4);
        // Lower the threshold: everything passes.
        cfg.threshold = 50;
        let prog = monitoring(&cfg);
        let mut sys = run(&prog, 10_000);
        assert_eq!(sys.take_outbox().len(), 4);
    }

    #[test]
    fn app3_forwards_neighbour_traffic() {
        let prog = stages::app3(SamplePeriod::Cycles(50_000), 0);
        let sys = prog.build_system(SystemConfig::default(), Box::new(ConstSensor(1)));
        let mut engine = Engine::new(sys);
        let neighbour = Frame::data(0x22, 0x0009, 0x0000, 5, &[42]).unwrap();
        engine
            .machine_mut()
            .schedule_rx(Cycles(1_000), neighbour.encode());
        engine
            .machine_mut()
            .schedule_rx(Cycles(5_000), neighbour.encode()); // duplicate
        engine.run_for(Cycles(20_000));
        let sys = engine.machine_mut();
        assert!(sys.fault().is_none(), "fault: {:?}", sys.fault());
        assert_eq!(sys.slaves().msgproc.stats().forwarded, 1);
        assert_eq!(sys.slaves().msgproc.stats().duplicates, 1);
        let out = sys.take_outbox();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1, neighbour.encode());
    }

    #[test]
    fn app4_reconfigures_sampling_period() {
        let prog = stages::app4(SamplePeriod::Cycles(10_000), 0);
        let sys = prog.build_system(SystemConfig::default(), Box::new(ConstSensor(1)));
        let mut engine = Engine::new(sys);
        // Command: set sampling period to 0x0320 = 800 cycles.
        let cmd = Frame::command(0x22, 0x0009, 0x0001, 1, &[1, 0x20, 0x03]).unwrap();
        engine.machine_mut().schedule_rx(Cycles(500), cmd.encode());
        engine.run_for(Cycles(3_000));
        {
            let sys = engine.machine();
            assert!(sys.fault().is_none(), "fault: {:?}", sys.fault());
            assert_eq!(sys.mcu().stats().wakeups, 1, "irregular event woke µC");
            assert!(!sys.mcu().powered(), "handler slept again");
            let next = sys.slaves().timer.cycles_to_next_alarm().unwrap();
            assert!(
                next <= 0x0320,
                "period reprogrammed to 800 cycles; next alarm in {next}"
            );
            assert!(
                sys.slaves().msgproc.powered(),
                "relay keeps msgproc powered (shared TX buffer)"
            );
        }
        // The new cadence takes effect.
        engine.run_for(Cycles(3_300));
        let sys = engine.machine_mut();
        assert!(
            sys.slaves().radio.stats().transmitted >= 3,
            "fast cadence after reconfig: {:?}",
            sys.slaves().radio.stats()
        );
        let _ = sys.take_outbox();
    }

    #[test]
    fn app4_reconfigures_threshold() {
        let prog = stages::app4(SamplePeriod::Cycles(10_000), 10);
        let sys = prog.build_system(SystemConfig::default(), Box::new(ConstSensor(99)));
        let mut engine = Engine::new(sys);
        let cmd = Frame::command(0x22, 0x0009, 0x0001, 1, &[2, 200, 0]).unwrap();
        engine.machine_mut().schedule_rx(Cycles(500), cmd.encode());
        engine.run_for(Cycles(2_000));
        let sys = engine.machine();
        assert!(sys.fault().is_none(), "fault: {:?}", sys.fault());
        assert_eq!(
            sys.slaves().filter.read(map::FILTER_THRESHOLD),
            200,
            "threshold updated"
        );
    }

    #[test]
    fn batching_builds_multi_sample_packets() {
        let prog = monitoring(&MonitoringConfig {
            stage: AppStage::SampleSend,
            period: SamplePeriod::Cycles(1000),
            samples_per_packet: 5,
            threshold: 0,
        });
        let mut sys = run(&prog, 12_000);
        let out = sys.take_outbox();
        assert_eq!(out.len(), 2, "10 samples → 2 packets of 5");
        let f = Frame::decode(&out[0].1).unwrap();
        assert_eq!(f.payload, vec![99; 5]);
    }

    #[test]
    fn chained_period_for_long_intervals() {
        // 70 s at 100 kHz = 7 M cycles = 10 000 × 700.
        let prog = stages::app1(SamplePeriod::Chained {
            base: 10_000,
            count: 700,
        });
        assert_eq!(
            SamplePeriod::Chained {
                base: 10_000,
                count: 700
            }
            .cycles(),
            7_000_000
        );
        let mut sys = run(&prog, 15_000_000);
        assert_eq!(sys.take_outbox().len(), 2, "two 70 s periods");
    }

    #[test]
    fn blink_toggles_led_in_few_cycles() {
        let prog = blink(500);
        let sys = run(&prog, 2_600);
        // 5 alarms: LED toggled 5 times → ends at 1.
        assert_eq!(sys.slaves().sys.gpio & 1, 1);
        assert_eq!(sys.ep().stats().events, 5);
        // Cycle cost per event: the paper reports 12 for their system.
        let busy = sys.busy_cycles().0;
        let per_event = busy as f64 / 5.0;
        assert!(
            (6.0..=16.0).contains(&per_event),
            "blink costs {per_event} cycles/event; paper says 12"
        );
    }

    #[test]
    fn sense_accumulates_running_average() {
        let prog = sense(500);
        let sys = run(&prog, 20_000);
        assert!(
            sys.slaves().filter.average() > 80,
            "EWMA converged towards 99"
        );
        let per_event = sys.busy_cycles().0 as f64 / sys.ep().stats().events as f64;
        assert!(
            (15.0..=35.0).contains(&per_event),
            "sense costs {per_event} cycles/event; paper says 24"
        );
    }

    #[test]
    fn every_shipped_isr_checks_clean() {
        let programs: Vec<(&str, UlpProgram)> = vec![
            ("app1", stages::app1(SamplePeriod::Cycles(2000))),
            ("app2", stages::app2(SamplePeriod::Cycles(2000), 50)),
            ("app3", stages::app3(SamplePeriod::Cycles(50_000), 0)),
            ("app4", stages::app4(SamplePeriod::Cycles(10_000), 10)),
            (
                "app1-batched",
                monitoring(&MonitoringConfig {
                    stage: AppStage::SampleSend,
                    period: SamplePeriod::Cycles(1000),
                    samples_per_packet: 5,
                    threshold: 0,
                }),
            ),
            (
                "app1-chained",
                stages::app1(SamplePeriod::Chained {
                    base: 10_000,
                    count: 700,
                }),
            ),
            ("blink", blink(500)),
            ("sense", sense(500)),
        ];
        for (label, prog) in &programs {
            for report in prog.check() {
                assert!(
                    report.is_clean(),
                    "{label}/{}: not clean\n{}",
                    report.name,
                    report.render()
                );
            }
        }
    }

    #[test]
    fn code_sizes_are_tiny() {
        let app4 = stages::app4(SamplePeriod::Cycles(1000), 10);
        let size = app4.code_size();
        assert!(
            size < 400,
            "stage-4 footprint {size} B; paper reports 180 B vs 11558 B on Mica2"
        );
        assert!(blink(100).code_size() < 20);
    }

    #[test]
    fn idle_skip_equivalence_for_app4() {
        let prog = stages::app4(SamplePeriod::Cycles(5_000), 0);
        let run_mode = |ff: bool| {
            let sys = prog.build_system(SystemConfig::default(), Box::new(ConstSensor(50)));
            let mut engine = Engine::new(sys);
            engine.set_fast_forward(ff);
            let cmd = Frame::command(0x22, 9, 1, 1, &[1, 0x10, 0x27]).unwrap();
            engine
                .machine_mut()
                .schedule_rx(Cycles(12_000), cmd.encode());
            engine.run_for(Cycles(100_000));
            let sys = engine.into_machine();
            (
                sys.busy_cycles(),
                sys.meter().total_energy().joules(),
                sys.slaves().radio.stats().transmitted,
                sys.now(),
            )
        };
        let a = run_mode(true);
        let b = run_mode(false);
        assert_eq!(a.0, b.0, "busy cycles");
        assert!((a.1 - b.1).abs() < 1e-15, "energy {:?} vs {:?}", a.1, b.1);
        assert_eq!(a.2, b.2, "transmissions");
        assert_eq!(a.3, b.3, "clock");
    }
}
