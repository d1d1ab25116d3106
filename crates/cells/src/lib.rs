#![warn(missing_docs)]
// Library code must surface failures as typed errors or documented
// panics, never ad-hoc unwraps; #[cfg(test)] modules opt back in.
#![warn(clippy::unwrap_used)]

//! # pulsar-cells
//!
//! Transistor-level CMOS cell library on top of [`pulsar_analog`], plus
//! electrical fault injection for the defect classes studied in
//! *Favalli & Metra, DATE 2007*:
//!
//! * **internal resistive opens** — extra resistance inside a gate's
//!   pull-up or pull-down network (slows one output edge only),
//! * **external resistive opens** — extra resistance between a gate output
//!   and one of its fan-out branches (degrades both edges' slopes),
//! * **resistive bridges** — a resistor between two signal nets, one of
//!   which is held steady by its driver while the victim switches.
//!
//! The central object is [`BuiltPath`]: a sensitized combinational path
//! (the paper's experiments use 7-gate paths) built as a full transistor
//! netlist, with a stimulus source at the path input and per-stage output
//! nodes exposed for measurement. Faulty resistances are swept without
//! rebuilding via [`BuiltPath::set_fault_resistance`].
//!
//! ```
//! use pulsar_cells::{PathSpec, PathFault, Tech, BuiltPath};
//! use pulsar_analog::Polarity;
//!
//! # fn main() -> Result<(), pulsar_analog::Error> {
//! let tech = Tech::generic_180nm();
//! let spec = PathSpec::inverter_chain(7);
//! let fault = PathFault::ExternalRop { stage: 1, ohms: 30_000.0 };
//! let mut path = BuiltPath::new(&spec, &fault, &vec![tech; 7]);
//!
//! // Propagate a 0→1→0 pulse of 500 ps and observe the dampening.
//! let out = path.propagate_pulse(500e-12, Polarity::PositiveGoing, None)?;
//! assert!(out.output_width < 400e-12, "the defect must dampen the pulse");
//! # Ok(())
//! # }
//! ```

pub mod characterize;
mod flipflop;
mod gates;
mod path;
mod pulsegen;
mod sensing;
mod tech;

pub use characterize::{vtc, Vtc};
pub use flipflop::{characterize_dff, DffTiming};
pub use gates::{CellKind, CmosBuilder, GateHandle, RopSite};
pub use path::{BuiltPath, PathFault, PathSpec, PulseOutcome, TransitionOutcome};
pub use pulsegen::PulseGenerator;
pub use sensing::TransitionDetector;
pub use tech::Tech;
