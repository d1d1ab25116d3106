//! One study request (DESIGN.md §5.10). `pulsar study`, `pulsar serve
//! --submit/--run` and a served `submit` line all ask for the paper's §4
//! coverage experiment as a [`StudyRequest`] over the same defaults. A
//! request calibrates through [`StudyKind::calibrate`], and the study is
//! then built *from* its [`Calibration`] ([`CalibratedStudy::new`]), so a
//! DF study cannot be run against a pulse calibration. The header, the
//! checkpoint spec and the run each dispatch on the kind once, here.

use crate::calib::{DfCalibration, PulseCalibration};
use crate::checkpoint::{Checkpoint, CheckpointSpec};
use crate::engine::{DefectKind, PathUnderTest};
use crate::error::CoreError;
use crate::plan::{Plan, StudyReport};
use crate::study::{DfStudy, McConfig, PulseStudy};
use pulsar_analog::Polarity;
use pulsar_lint::LintReport;
use pulsar_obs::CancelToken;

/// Which coverage study a request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StudyKind {
    /// Reduced-clock DF test, `C_del(T, R)` (`pulsar study df`).
    Df,
    /// Pulse-propagation test, `C_pulse(ω_th, R)` (`pulsar study pulse`).
    Pulse,
}

impl StudyKind {
    /// The CLI kind string (`"df"` | `"pulse"`).
    pub fn as_str(self) -> &'static str {
        match self {
            StudyKind::Df => "df",
            StudyKind::Pulse => "pulse",
        }
    }

    /// Parses the CLI kind string.
    pub fn parse(s: &str) -> Option<StudyKind> {
        match s {
            "df" => Some(StudyKind::Df),
            "pulse" => Some(StudyKind::Pulse),
            _ => None,
        }
    }

    /// Calibrates the paper-path study of this kind under `mc`.
    ///
    /// # Errors
    ///
    /// As for [`DfStudy::calibrate`] and [`PulseStudy::calibrate`].
    pub fn calibrate(self, mc: McConfig) -> Result<Calibration, CoreError> {
        match self {
            StudyKind::Df => paper_df(mc).calibrate().map(Calibration::Df),
            StudyKind::Pulse => paper_pulse(mc).calibrate().map(Calibration::Pulse),
        }
    }
}

/// A coverage study on the paper path (external ROP after stage 1), as
/// every front end asks for it.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyRequest {
    /// `df` or `pulse`.
    pub kind: StudyKind,
    /// Monte Carlo sample count.
    pub samples: usize,
    /// Master seed.
    pub seed: u64,
    /// Defect resistance sweep, ohms.
    pub rs: Vec<f64>,
    /// Clock (`T/T₀`) or threshold (`ω_th/ω_th⁰`) factors.
    pub factors: Vec<f64>,
}

impl StudyRequest {
    /// A request of `kind` with the study defaults: 24 samples, seed
    /// 2007, R = 1, 30 and 100 kΩ, factors 0.9 and 1.1.
    pub fn new(kind: StudyKind) -> StudyRequest {
        StudyRequest {
            kind,
            samples: 24,
            seed: 2007,
            rs: vec![1e3, 30e3, 100e3],
            factors: vec![0.9, 1.1],
        }
    }

    /// The static preflight of the path under test over the request's
    /// resistances ([`PathUnderTest::lint`]).
    pub fn lint(&self) -> LintReport {
        PathUnderTest::paper(DefectKind::ExternalRop).lint(Some(&self.rs))
    }
}

/// A calibrated operating point of either study: `T₀` for DF,
/// `(ω_in⁰, ω_th⁰)` for the pulse test.
#[derive(Debug, Clone, Copy)]
pub enum Calibration {
    /// DF-test calibration.
    Df(DfCalibration),
    /// Pulse-test calibration.
    Pulse(PulseCalibration),
}

/// A paper-path study with its calibration.
#[derive(Debug, Clone)]
pub enum CalibratedStudy {
    /// The DF study and its `T₀`.
    Df(DfStudy, DfCalibration),
    /// The pulse study and its `(ω_in⁰, ω_th⁰)`.
    Pulse(PulseStudy, PulseCalibration),
}

impl CalibratedStudy {
    /// The paper-path study under `mc` of the kind `calib` calibrated.
    pub fn new(mc: McConfig, calib: Calibration) -> CalibratedStudy {
        match calib {
            Calibration::Df(c) => CalibratedStudy::Df(paper_df(mc), c),
            Calibration::Pulse(c) => CalibratedStudy::Pulse(paper_pulse(mc), c),
        }
    }

    /// The summary line `pulsar study` and a served study print above the
    /// curves of `plan`.
    pub fn header(&self, plan: &Plan) -> String {
        let (r, f) = (plan.r_values.len(), plan.factors.len());
        match self {
            CalibratedStudy::Df(s, c) => format!(
                "df study on the paper path: T0 = {:.3e} s, {r} resistances x {f} clock \
                 factors, N = {}, seed {}",
                c.t0, s.mc.samples, s.mc.seed
            ),
            CalibratedStudy::Pulse(s, c) => format!(
                "pulse study on the paper path: w_in = {:.3e} s, w_th = {:.3e} s, {r} \
                 resistances x {f} threshold factors, N = {}, seed {}",
                c.w_in, c.w_th, s.mc.samples, s.mc.seed
            ),
        }
    }

    /// The [`CheckpointSpec`] of a durable [`CalibratedStudy::run`] of
    /// `plan` ([`DfStudy::checkpoint_spec`], [`PulseStudy::checkpoint_spec`]).
    pub fn checkpoint_spec(&self, plan: &Plan) -> CheckpointSpec {
        match self {
            CalibratedStudy::Df(s, c) => s.checkpoint_spec(c, plan),
            CalibratedStudy::Pulse(s, c) => s.checkpoint_spec(c, plan),
        }
    }

    /// Runs `plan` ([`DfStudy::run`], [`PulseStudy::run`]).
    ///
    /// # Errors
    ///
    /// As for [`DfStudy::run`].
    pub fn run(
        &self,
        plan: &Plan,
        cancel: &CancelToken,
        checkpoint: Option<&Checkpoint<Vec<f64>>>,
    ) -> Result<StudyReport, CoreError> {
        match self {
            CalibratedStudy::Df(s, c) => s.run(c, plan, cancel, checkpoint),
            CalibratedStudy::Pulse(s, c) => s.run(c, plan, cancel, checkpoint),
        }
    }
}

fn paper_df(mc: McConfig) -> DfStudy {
    DfStudy::new(PathUnderTest::paper(DefectKind::ExternalRop), mc)
}

fn paper_pulse(mc: McConfig) -> PulseStudy {
    let put = PathUnderTest::paper(DefectKind::ExternalRop);
    PulseStudy::new(put, mc, Polarity::PositiveGoing)
}
