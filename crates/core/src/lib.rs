#![warn(missing_docs)]
//! Cycle-accurate simulator of the event-driven ultra-low-power sensor
//! node architecture of Hempstead et al., ISCA 2005.
//!
//! The architecture replaces a general-purpose microcontroller with a
//! modular, event-driven system: a programmable **event processor**
//! (an "intelligent DMA controller", [`event_processor`]) handles every
//! *regular* event — sampling, filtering, packet preparation, forwarding —
//! by shuffling data between memory-mapped **slave** accelerators
//! ([`slaves`]): chainable timers, a threshold filter, a message
//! processor with a duplicate-suppressing CAM, a CC2420-class radio
//! interface, a sensor/ADC block, and a banked, Vdd-gateable SRAM. A
//! general-purpose 8-bit **microcontroller** ([`mcu`]) stays Vdd-gated
//! and is woken only for *irregular* events (reconfiguration messages,
//! application changes). Fine-grained power control is explicit:
//! `SWITCHON`/`SWITCHOFF` instructions gate each component's supply.
//!
//! [`System`] assembles the whole node and implements
//! [`ulp_sim::Simulatable`], so the generic engine can run it cycle by
//! cycle or fast-forward across idle spans — making year-scale lifetime
//! studies practical while keeping cycle counts and energy exact.
//!
//! # Example
//!
//! ```
//! use ulp_core::{map, System, SystemConfig};
//! use ulp_core::slaves::ConstSensor;
//! use ulp_isa::ep::{encode_program, ComponentId, Instruction as I};
//! use ulp_sim::{Cycles, Engine};
//!
//! let mut sys = System::new(SystemConfig::default(), Box::new(ConstSensor(42)));
//!
//! // A minimal ISR: on timer 0, sample the sensor into the EP register.
//! let isr = encode_program(&[
//!     I::SwitchOn(ComponentId::new(map::Component::Sensor as u8).unwrap()),
//!     I::Read(map::SENSOR_BASE + map::SENSOR_DATA),
//!     I::SwitchOff(ComponentId::new(map::Component::Sensor as u8).unwrap()),
//!     I::Terminate,
//! ]).unwrap();
//! sys.load(0x0200, &isr);
//! sys.install_ep_isr(map::Irq::Timer0.id(), 0x0200);
//! sys.slaves_mut().timer.configure_periodic(0, 100);
//!
//! let mut engine = Engine::new(sys);
//! engine.run_for(Cycles(1_050)); // ten periods plus ISR slack
//! assert!(engine.machine().fault().is_none());
//! assert_eq!(engine.machine().ep().stats().events, 10);
//! ```

pub mod event_processor;
pub mod interrupt;
pub mod map;
pub mod mcu;
mod periods;
pub mod power;
pub mod slaves;
pub mod system;

pub use event_processor::{EpAction, EpStats, EventProcessor};
pub use interrupt::InterruptArbiter;
pub use mcu::{Mcu, McuError, McuStats};
pub use power::{SystemPower, WakeLatency};
pub use slaves::{BusError, Slaves};
pub use system::{MeterIds, System, SystemConfig, SystemFault};
