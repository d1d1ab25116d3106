//! One coverage runner for both studies (DESIGN.md §5.16). A [`Plan`]
//! names the grid and how it is sampled; [`run`] executes it for either
//! study through what differs per study ([`CoverageStudy`]: the row
//! kernel, the detection grid and the digest identity). The checkpoint
//! check, the fixed-sample fold and the adaptive hookup exist once, here.

use crate::adaptive::{run_adaptive, AdaptiveGrid, AdaptiveReport, RowEval};
use crate::checkpoint::{Checkpoint, CheckpointSpec};
use crate::engine::PathUnderTest;
use crate::error::CoreError;
use crate::resilience::FailureReport;
use crate::study::{CoverageCurve, McConfig};
use pulsar_cells::Tech;
use pulsar_mc::AdaptivePolicy;
use pulsar_obs::CancelToken;
use rand::rngs::StdRng;

/// How a [`Plan`] samples its grid.
#[derive(Debug, Clone, PartialEq)]
pub enum Sampling {
    /// [`McConfig::samples`] instances at every grid point.
    Fixed,
    /// Early stopping plus crossover refinement (DESIGN.md §5.9): each
    /// resistance column stops once every factor's coverage interval
    /// meets `policy.precision`, and the saved budget refines the columns
    /// near the coverage threshold and, given the other method's curves
    /// on the same grid, near the `C_pulse − C_del` crossover.
    Adaptive {
        /// Stopping and refinement policy.
        policy: AdaptivePolicy,
        /// The other method's curves on the same grid, if any.
        crossover: Option<Vec<CoverageCurve>>,
    },
}

/// One coverage experiment: the resistance sweep, the test-condition
/// factors (`T/T₀` for DF, `ω_th/ω_th⁰` for the pulse test) and how the
/// grid is sampled. The sample count, seed, recorder and resilience
/// budgets stay on the study's [`McConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Defect resistances (the columns), ohms.
    pub r_values: Vec<f64>,
    /// Test-condition factors, one curve each.
    pub factors: Vec<f64>,
    /// Fixed or adaptive sampling.
    pub sampling: Sampling,
}

impl Plan {
    /// A fixed-sample plan.
    pub fn fixed(r_values: &[f64], factors: &[f64]) -> Plan {
        Plan {
            r_values: r_values.to_vec(),
            factors: factors.to_vec(),
            sampling: Sampling::Fixed,
        }
    }

    /// An adaptive plan without crossover curves.
    pub fn adaptive(r_values: &[f64], factors: &[f64], policy: AdaptivePolicy) -> Plan {
        let crossover = None;
        let sampling = Sampling::Adaptive { policy, crossover };
        Plan {
            sampling,
            ..Plan::fixed(r_values, factors)
        }
    }

    /// Rejects an adaptive policy no run can honour: a zero budget, a
    /// zero round length (the run would never advance), or a NaN or
    /// negative precision. A precision of 0 is met by no interval, so it
    /// runs every column to its budget: the fixed-sample estimator.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidPlan`] naming the setting.
    pub fn validate(&self) -> Result<(), CoreError> {
        let Sampling::Adaptive { policy, .. } = &self.sampling else {
            return Ok(());
        };
        let reason = if policy.max_samples == 0 {
            "the adaptive sample budget (max_samples) is 0".to_owned()
        } else if policy.chunk == 0 {
            "the adaptive round length (chunk) is 0".to_owned()
        } else if policy.precision.is_nan() || policy.precision < 0.0 {
            format!(
                "the adaptive precision {} is NaN or negative",
                policy.precision
            )
        } else {
            return Ok(());
        };
        Err(CoreError::InvalidPlan { reason })
    }

    /// The digest input of a `pulsar study` run of this plan: the string
    /// the CLI manifest and a served job's digest both hash. A fixed plan
    /// hashes the default policy, as the CLI always has for a fixed run.
    pub fn study_digest_repr(&self, kind: &str, samples: usize, seed: u64) -> String {
        let (adaptive, policy) = match &self.sampling {
            Sampling::Fixed => (false, AdaptivePolicy::new(0.15, samples)),
            Sampling::Adaptive { policy, .. } => (true, *policy),
        };
        format!(
            "study kind={kind} samples={samples} seed={seed} r={:?} factors={:?} \
             adaptive={adaptive} policy={policy:?}",
            self.r_values, self.factors
        )
    }
}

/// What a [`Plan`] run returns.
#[derive(Debug, Clone)]
pub enum StudyReport {
    /// A fixed-sample run: coverage over the resolved samples, with the
    /// run's completeness on each curve.
    Fixed {
        /// One curve per factor.
        curves: Vec<CoverageCurve>,
        /// Failure accounting of the run.
        failures: FailureReport,
    },
    /// An adaptive run, with its per-point accuracy.
    Adaptive(AdaptiveReport),
}

impl StudyReport {
    /// The coverage curves, one per factor.
    pub fn curves(&self) -> &[CoverageCurve] {
        match self {
            StudyReport::Fixed { curves, .. } => curves,
            StudyReport::Adaptive(r) => &r.curves,
        }
    }

    /// The curves and the failure accounting.
    pub fn into_parts(self) -> (Vec<CoverageCurve>, FailureReport) {
        match self {
            StudyReport::Fixed { curves, failures } => (curves, failures),
            StudyReport::Adaptive(r) => (r.curves, r.failures),
        }
    }

    /// The adaptive report of an adaptive plan.
    pub fn adaptive(&self) -> Option<&AdaptiveReport> {
        match self {
            StudyReport::Fixed { .. } => None,
            StudyReport::Adaptive(r) => Some(r),
        }
    }
}

/// What differs between the DF and the pulse study.
pub(crate) trait CoverageStudy {
    /// The study's calibration.
    type Calib;
    /// What an instance draws beyond its stage technologies.
    type Draw;
    /// `df` or `pulse`: the prefix of digests and journal labels.
    const KIND: &'static str;
    /// One instance's draws from its sample's stream, in a fixed order so
    /// calibration and coverage runs see identical instances.
    fn draw(&self, rng: &mut StdRng) -> (Vec<Tech>, Self::Draw);
    /// The path under test and the Monte Carlo setup.
    fn setup(&self) -> (&PathUnderTest, &McConfig);
    /// The faulty-row kernel: lints the sweep and primes the topology.
    fn row_eval(&self, calib: &Self::Calib, r_values: &[f64]) -> Result<RowEval<'_>, CoreError>;
    /// The detection grid, searched per row when the defect class
    /// declares a direction.
    fn grid<'a>(&self, calib: &Self::Calib, plan: &'a Plan) -> AdaptiveGrid<'a>;
    /// The digest identity after the variation model, and the row tag
    /// after the grid, of a fixed or an adaptive plan.
    fn digest_parts(&self, calib: &Self::Calib, adaptive: bool) -> (String, String);
}

/// The [`CheckpointSpec`] of a durable run of `plan`. On top of the
/// study's identity the digest covers the factor and resistance bits,
/// the row tag and, for an adaptive plan, the policy and crossover
/// curves, which steer which samples run. An adaptive run reserves
/// `3 × max_samples` records: the first pass plus the refinement
/// extension at its `max_samples` offset.
pub(crate) fn checkpoint_spec<S: CoverageStudy>(
    study: &S,
    calib: &S::Calib,
    plan: &Plan,
) -> CheckpointSpec {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let (put, mc) = study.setup();
    let (mode, policy, crossover, samples) = match &plan.sampling {
        Sampling::Fixed => ("coverage", String::new(), String::new(), mc.samples),
        Sampling::Adaptive {
            policy: p,
            crossover: c,
        } => {
            let cross: Vec<_> = c.iter().flatten().map(|c| bits(&c.coverage)).collect();
            let (policy, cross) = (format!(" policy={p:?}"), format!(" crossover={cross:?}"));
            ("adaptive", policy, cross, 3 * p.max_samples)
        }
    };
    let (identity, rows) = study.digest_parts(calib, mode == "adaptive");
    let digest = pulsar_obs::config_digest(&format!(
        "{}-{mode} put={put:?} variation={:?} {identity}{policy} factors={:?} r={:?}{crossover}{rows}",
        S::KIND,
        mc.variation,
        bits(&plan.factors),
        bits(&plan.r_values),
    ));
    CheckpointSpec {
        config_digest: digest,
        seed: mc.seed,
        samples,
    }
}

/// Runs `plan` for `study` under `cancel` and an optional checkpoint
/// opened with [`checkpoint_spec`]. `full_grid` simulates every column
/// of every row, each delay to its crossing: the reference arm the
/// critical-resistance search and the verdict bound are checked against.
pub(crate) fn run<S: CoverageStudy>(
    study: &S,
    calib: &S::Calib,
    plan: &Plan,
    full_grid: bool,
    cancel: &CancelToken,
    checkpoint: Option<&Checkpoint<Vec<f64>>>,
) -> Result<StudyReport, CoreError> {
    plan.validate()?;
    if let Some(ck) = checkpoint {
        ck.expect_spec(&checkpoint_spec(study, calib, plan))?;
    }
    let eval = study.row_eval(calib, &plan.r_values)?;
    let mut grid = study.grid(calib, plan);
    if full_grid {
        grid.trend = None;
        grid.bounded = false;
    }
    let (mc, rs) = (study.setup().1, &plan.r_values);
    match &plan.sampling {
        Sampling::Fixed => {
            let label = format!("{}-faulty", S::KIND);
            let run =
                mc.try_run_samples_durable(&label, cancel, checkpoint, |_, a, rng, rec, t| {
                    eval(a, rng, rec, t, rs, Some(&grid))
                })?;
            let rows: Vec<&Vec<f64>> = run.resolved_indexed().map(|(_, v)| v).collect();
            let unresolved = run.failures.unresolved_fraction();
            let curves = grid.curves(&rows, unresolved, run.completeness)?;
            let failures = run.failures;
            Ok(StudyReport::Fixed { curves, failures })
        }
        Sampling::Adaptive { policy, crossover } => {
            let (label, cross) = (format!("{}-adaptive", S::KIND), crossover.as_deref());
            let report = run_adaptive(mc, policy, &label, &grid, cross, cancel, checkpoint, eval);
            report.map(StudyReport::Adaptive)
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::calib::DfCalibration;
    use crate::engine::DefectKind;
    use crate::study::DfStudy;
    use pulsar_cells::{PathSpec, Tech};
    use pulsar_obs::Recorder;

    #[test]
    fn study_repr_is_stable() {
        let plan = Plan::fixed(&[1e3, 30e3], &[0.9, 1.1]);
        let s = plan.study_digest_repr("df", 24, 2007);
        assert!(s.starts_with("study kind=df samples=24 seed=2007 r=[1000.0, 30000.0]"));
        assert!(s.contains("factors=[0.9, 1.1] adaptive=false policy="));
        let fixed_policy = format!("{:?}", AdaptivePolicy::new(0.15, 24));
        assert!(s.ends_with(&fixed_policy));
    }

    /// Runs an adaptive DF plan under `policy` on a worker thread and
    /// returns its error, failing the test if the run does not return
    /// within a few seconds (a zero round length used to spin forever).
    fn rejection(policy: AdaptivePolicy) -> CoreError {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let put = PathUnderTest {
                spec: PathSpec::paper_chain(),
                defect: DefectKind::ExternalRop,
                stage: 1,
                tech: Tech::generic_180nm(),
            };
            let mut mc = McConfig::paper(4, 1);
            mc.obs = Recorder::enabled();
            let study = DfStudy::new(put, mc);
            let plan = Plan::adaptive(&[1e3, 100e3], &[1.0], policy);
            let calib = DfCalibration { t0: 1e-9 };
            let result = study.run(&calib, &plan, &CancelToken::new(), None);
            let sampled = study.mc.obs.events().iter().any(|e| e.kind == "sample");
            let _ = tx.send((result.map(|_| ()), sampled));
        });
        let (result, sampled) = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the run must return promptly");
        assert!(!sampled, "the plan is rejected before any sample");
        result.unwrap_err()
    }

    fn assert_invalid(policy: AdaptivePolicy, needle: &str) {
        match rejection(policy) {
            CoreError::InvalidPlan { reason } => assert!(reason.contains(needle), "{reason}"),
            other => panic!("expected InvalidPlan, got {other:?}"),
        }
    }

    #[test]
    fn zero_max_samples_is_rejected() {
        assert_invalid(AdaptivePolicy::new(0.15, 0), "max_samples");
    }

    #[test]
    fn zero_chunk_is_rejected_promptly() {
        let policy = AdaptivePolicy {
            chunk: 0,
            ..AdaptivePolicy::new(0.15, 8)
        };
        assert_invalid(policy, "chunk");
    }

    #[test]
    fn nan_precision_is_rejected() {
        assert_invalid(AdaptivePolicy::new(f64::NAN, 8), "precision NaN");
    }

    #[test]
    fn negative_precision_is_rejected() {
        assert_invalid(AdaptivePolicy::new(-0.1, 8), "precision -0.1");
    }

    #[test]
    fn fixed_plans_and_honourable_policies_validate() {
        assert!(Plan::fixed(&[1e3], &[1.0]).validate().is_ok());
        // A zero precision is never met: the run spends the whole budget.
        for precision in [0.15, 0.0] {
            let plan = Plan::adaptive(&[1e3], &[1.0], AdaptivePolicy::new(precision, 8));
            assert!(plan.validate().is_ok(), "precision {precision}");
        }
    }
}
