#![warn(missing_docs)]
// Library code must surface failures as typed errors or documented
// panics, never ad-hoc unwraps; #[cfg(test)] modules opt back in.
#![warn(clippy::unwrap_used)]

//! # pulsar-analog
//!
//! A small, self-contained electrical-level circuit simulator in the SPICE
//! tradition, built as the substrate for reproducing *Favalli & Metra,
//! "Pulse propagation for the detection of small delay defects"* (DATE 2007).
//!
//! The paper's entire evaluation is electrical-level Monte Carlo simulation
//! of CMOS paths affected by resistive opens and bridges. This crate provides
//! exactly the machinery that evaluation needs:
//!
//! * a [`Circuit`] description (nodes + elements),
//! * device models: resistors, capacitors, independent sources with
//!   time-varying waveforms, and Level-1 (Shichman–Hodges) MOSFETs,
//! * modified nodal analysis (MNA) with Newton–Raphson for nonlinear solves,
//! * DC operating-point analysis with gmin stepping,
//! * transient analysis (backward Euler or trapezoidal companion models),
//! * waveform measurement utilities (threshold crossings, propagation delay,
//!   pulse-width extraction) used by the fault-detection experiments.
//!
//! ## Units
//!
//! All quantities are plain `f64` in SI units: volts, amperes, seconds,
//! ohms, farads. The typical scales in this codebase are volts ~1, times
//! ~1e-9 (ns), capacitances ~1e-15 (fF); the solver tolerances are chosen
//! for that regime.
//!
//! ## Quick example
//!
//! An RC low-pass driven by a step:
//!
//! ```
//! use pulsar_analog::{Circuit, Waveform, TranConfig};
//!
//! # fn main() -> Result<(), pulsar_analog::Error> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let vout = ckt.node("out");
//! ckt.vsource(vin, Circuit::GROUND, Waveform::dc(1.0));
//! ckt.resistor(vin, vout, 1e3);
//! ckt.capacitor(vout, Circuit::GROUND, 1e-12);
//!
//! let tran = ckt.transient(&TranConfig::new(10e-12, 10e-9))?;
//! let trace = tran.trace(vout);
//! // after 10 time constants the capacitor is fully charged
//! assert!((trace.last_value() - 1.0).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

mod analysis;
mod circuit;
pub mod deck;
mod elements;
mod error;
pub mod export;
pub mod inject;
mod solver;
pub mod waveform;

pub use analysis::dcop::DcSolution;
pub use analysis::transient::{Integrator, TraceCapture, TranConfig, TranResult, TranStats, Until};
pub use circuit::{Circuit, NodeId};
pub use deck::{parse_deck, Deck};
pub use elements::{Element, MosType, Mosfet, MosfetParams, Waveform};
pub use error::Error;
pub use export::{to_csv, to_vcd};
pub use inject::{ArmedFault, FaultKind, FaultPlan};
pub use solver::pattern::{topology_key, PatternMode, StampPattern};
pub use solver::workspace::{SolverWorkspace, SymbolicCache};
pub use waveform::{delay_floor, propagation_delay, Edge, Polarity, Pulse, Trace};

// Re-exported so downstream crates can speak the observability types this
// crate's instrumentation records into without naming `pulsar_obs`
// directly.
pub use pulsar_obs::{
    CancelReason, CancelToken, Counter as ObsCounter, Phase as ObsPhase, Recorder,
};
