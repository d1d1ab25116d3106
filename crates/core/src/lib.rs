#![warn(missing_docs)]
// Library code must surface failures as typed errors or documented
// panics, never ad-hoc unwraps; #[cfg(test)] modules opt back in.
#![warn(clippy::unwrap_used)]

//! # pulsar-core
//!
//! Reproduction of *M. Favalli, C. Metra, "Pulse propagation for the
//! detection of small delay defects", DATE 2007*.
//!
//! Resistive opens and bridges on non-critical paths create delay defects
//! smaller than the slack, so even reduced-clock delay-fault (DF) testing
//! misses them. The paper's method instead **injects a pulse** of width
//! `ω_in` at the input of a sensitized path and checks with a sensing
//! circuit (minimum detectable width `ω_th`) whether the pulse survives to
//! the output: a defect that would merely nibble at the slack *dampens*
//! the pulse, and the *absence of output transitions* flags the fault.
//!
//! This crate implements the full methodology:
//!
//! * [`PathInstance`] — the measurement abstraction (path delay, pulse
//!   width transfer, defect-resistance sweep), with an electrical
//!   implementation ([`AnalogPath`], transistor-level via `pulsar-cells`)
//!   and a fast logic-level one ([`ModelPath`], via `pulsar-timing`);
//! * [`TransferCurve`] — the `w_out = f_p(w_in)` characterization with
//!   the paper's three regions (dampened / attenuation / asymptotic) and
//!   the **region-3 rule** for picking `ω_in` (§5, Fig. 10);
//! * [`FfTiming`] + [`df_detects`] — the reduced-clock DF-testing
//!   baseline the paper compares against (§4);
//! * [`calibrate_t0`] / [`calibrate_pulse`] — the zero-false-positive
//!   calibration of `T₀` and `(ω_in⁰, ω_th⁰)` over a fault-free Monte
//!   Carlo sample;
//! * [`DfStudy`] / [`PulseStudy`] — the coverage experiments
//!   `C_del(T, R)` and `C_pulse(ω_th, R)` of Figs. 6–9;
//! * [`StudyRequest`] → [`CalibratedStudy`] — the one path `pulsar
//!   study` and `pulsar serve` run either study through on the paper
//!   path ([`PathUnderTest::paper`]);
//! * [`plan_for_site`] — test generation (§5): per fault site, enumerate
//!   sensitizable paths, derive `(ω_in, ω_th)` per path and the minimum
//!   detectable resistance `R_min` (Fig. 11); [`SitePlanner`] plans many
//!   sites of one netlist, sharing each path's site-independent work.
//!
//! ## Quick example
//!
//! ```
//! use pulsar_core::{AnalogPath, DefectKind, PathInstance, PathUnderTest};
//! use pulsar_cells::{PathSpec, Tech};
//! use pulsar_analog::Polarity;
//!
//! # fn main() -> Result<(), pulsar_core::CoreError> {
//! let put = PathUnderTest {
//!     spec: PathSpec::paper_chain(),
//!     defect: DefectKind::ExternalRop,
//!     stage: 1,
//!     tech: Tech::generic_180nm(),
//! };
//! let mut path: AnalogPath = put.instantiate_nominal(1_000.0);
//! let healthy = path.pulse_width_out(500e-12, Polarity::PositiveGoing)?;
//! path.set_resistance(30_000.0)?;
//! let faulty = path.pulse_width_out(500e-12, Polarity::PositiveGoing)?;
//! assert!(faulty < healthy, "the defect dampens the pulse");
//! # Ok(())
//! # }
//! ```

mod adaptive;
mod bridge;
mod calib;
mod campaign;
mod checkpoint;
mod compact;
mod df;
mod digest;
mod durable;
mod engine;
mod error;
mod faultsim;
mod iddq;
mod model_study;
mod ordering;
mod plan;
mod request;
mod resilience;
mod study;
mod testgen;
mod tradeoff;
mod transfer;
mod variation;

pub use adaptive::{AdaptivePoint, AdaptiveReport};
pub use bridge::critical_resistance;
pub use calib::{calibrate_pulse, calibrate_t0, DfCalibration, PulseCalibration};
pub use campaign::{Campaign, CampaignReport, SiteOutcome, SitePlanRecord};
pub use checkpoint::{
    Checkpoint, CheckpointSpec, CheckpointValue, PoisonFlag, PoisonOrderings, CHECKPOINT_VERSION,
    POISON_ORDERINGS,
};
pub use compact::{compact_patterns, TestSession};
pub use df::{df_detects, FfTiming};
pub use digest::campaign_digest_repr;
pub use durable::{Completeness, DurableRun};
pub use engine::{AnalogPath, DefectKind, ModelFault, ModelPath, PathInstance, PathUnderTest};
pub use error::CoreError;
pub use faultsim::{all_branch_faults, fault_simulate, BranchFault, FaultSimReport, PulsePattern};
pub use iddq::IddqStudy;
pub use model_study::ModelPulseStudy;
pub use ordering::{OrderingCalibration, OrderingStudy};
pub use plan::{Plan, Sampling, StudyReport};
pub use pulsar_lint::LintReport;
pub use pulsar_mc::{AdaptivePolicy, BinomialInterval, IntervalRule, PointAccuracy};
pub use pulsar_obs::{CancelReason, CancelToken};
pub use request::{CalibratedStudy, Calibration, StudyKind, StudyRequest};
pub use resilience::{
    error_kind, is_retryable, is_run_cancelled, FailureReport, McRunReport, ResilienceConfig,
};
pub use study::{CoverageCurve, DfStudy, McConfig, PulseStudy};
pub use testgen::{
    electrical_spec, plan_for_site, validate_plan_electrically, PathTestPlan, SitePlanner,
    TestgenConfig,
};
pub use tradeoff::TradeoffPoint;
pub use transfer::{Region, TransferCurve};
pub use variation::VariationModel;
