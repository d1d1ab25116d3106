//! The Monte Carlo coverage studies of the paper's §4 (Figs. 6–9):
//! `C_del(T, R)` for reduced-clock DF testing and `C_pulse(ω_th, R)` for
//! the pulse-propagation method, over the same circuit instances.

use crate::adaptive::{censored, AdaptiveGrid, AdaptiveReport, RowEval, Trend};
use crate::calib::{calibrate_pulse, calibrate_t0, DfCalibration, PulseCalibration};
use crate::checkpoint::{Checkpoint, CheckpointSpec, CheckpointValue};
use crate::df::FfTiming;
use crate::durable::{run_cancelled, run_samples, Completeness, DurableRun};
use crate::engine::{AnalogPath, BoundedDelay, DefectKind, PathInstance, PathUnderTest};
use crate::error::CoreError;
use crate::plan::{self, CoverageStudy, Plan, Sampling, StudyReport};
use crate::resilience::{FailureReport, McRunReport, ResilienceConfig};
use crate::transfer::TransferCurve;
use crate::variation::VariationModel;
use pulsar_analog::{Edge, FaultPlan, Polarity, SymbolicCache};
use pulsar_cells::Tech;
use pulsar_mc::{AdaptivePolicy, MonteCarlo};
use pulsar_obs::{CancelToken, Counter, Recorder};
use rand::rngs::StdRng;
use rand::RngExt;

/// Monte Carlo configuration shared by both studies.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Number of circuit instances.
    pub samples: usize,
    /// Master seed (same seed ⇒ same instances in calibration and
    /// coverage runs — the paper's methodology requires this).
    pub seed: u64,
    /// Process-variation model (the paper uses 10 % sigma).
    pub variation: VariationModel,
    /// Worker threads (`None` = all cores).
    pub threads: Option<usize>,
    /// Retry and failure-budget policy for solver failures.
    pub resilience: ResilienceConfig,
    /// Test-only deterministic solver fault plan (`None` in production).
    pub fault_plan: Option<FaultPlan>,
    /// Observability recorder for the run. Disabled by default — every
    /// instrumentation call is then a single branch and the run is
    /// bit-identical to an uninstrumented one. Install an enabled
    /// recorder to collect per-sample journal events, solver counters,
    /// and phase timings for the whole study.
    pub obs: Recorder,
}

impl McConfig {
    /// `samples` instances at the paper's 10 % sigma.
    pub fn paper(samples: usize, seed: u64) -> Self {
        McConfig {
            samples,
            seed,
            variation: VariationModel::paper(),
            threads: None,
            resilience: ResilienceConfig::default(),
            fault_plan: None,
            obs: Recorder::disabled(),
        }
    }

    pub(crate) fn driver(&self) -> MonteCarlo {
        let mc = MonteCarlo::new(self.samples, self.seed);
        match self.threads {
            Some(t) => mc.with_threads(t),
            None => mc,
        }
    }

    /// Runs `f` over every sample with per-sample fault isolation: a
    /// failed sample is retried up to [`ResilienceConfig::max_attempts`]
    /// times (each attempt replays the *same* seeded RNG stream, so the
    /// circuit instance is identical — only the solver configuration
    /// escalates, which `f` applies from its `attempt` argument), and the
    /// run completes with per-sample outcomes instead of aborting on the
    /// first error. Bit-identical across thread counts.
    ///
    /// Each sample gets a private [`Recorder`] forked from
    /// [`McConfig::obs`], so solver counters attribute to individual
    /// samples without cross-shard contention; after the run, one
    /// `"sample"` journal event per sample (labelled `label`, in index
    /// order) records the outcome, attempts, escalation rung, RNG stream
    /// seed, and that sample's non-zero counters.
    ///
    /// Durability: cooperative cancellation through `run_token`, the
    /// wall-clock budgets from [`ResilienceConfig::deadline`] and
    /// [`ResilienceConfig::sample_timeout`], opt-in panic containment
    /// ([`ResilienceConfig::contain_panics`]), and crash-consistent
    /// checkpoint/resume. `f` additionally receives the attempt's
    /// [`CancelToken`] — install it in the solver workspace so the
    /// transient step loop observes cancellation.
    ///
    /// Determinism contract: a resumed run restores completed samples
    /// from the checkpoint and recomputes the rest from the *same* seeded
    /// RNG streams, so the final report is bit-identical to an
    /// uninterrupted run. Samples cut short by *run* cancellation
    /// (interrupt or deadline) come back as `None` slots: they are not
    /// failures, never count against the failure budget or a coverage
    /// denominator, and are reported through [`Completeness`] instead.
    /// Per-sample timeouts, by contrast, cancel only that attempt's child
    /// token — the sample retries under the escalation ladder and, if it
    /// stays stuck, counts as an ordinary `"sample-timeout"` failure.
    ///
    /// # Errors
    ///
    /// [`CoreError::FailureBudgetExceeded`] when the fraction of *done*
    /// samples still failed after all retries exceeds
    /// [`ResilienceConfig::failure_budget`]; [`CoreError::Checkpoint`]
    /// when a checkpoint write failed mid-run (the run aborts rather than
    /// report durability it does not have).
    pub fn try_run_samples_durable<T, F>(
        &self,
        label: &str,
        run_token: &CancelToken,
        checkpoint: Option<&Checkpoint<T>>,
        f: F,
    ) -> Result<DurableRun<T>, CoreError>
    where
        T: Send + Sync + Clone + CheckpointValue,
        F: Fn(usize, u32, &mut StdRng, &Recorder, &CancelToken) -> Result<T, CoreError> + Sync,
    {
        let outcomes = run_samples(self, label, 0..self.samples, 0, run_token, checkpoint, f);
        let done = outcomes.iter().flatten().count();
        let resumed = checkpoint.map_or(0, |c| {
            (0..outcomes.len())
                .filter(|i| outcomes[*i].is_some() && c.prior().contains_key(i))
                .count()
        });
        let failures = FailureReport::from_indexed(
            outcomes
                .iter()
                .enumerate()
                .filter_map(|(i, o)| o.as_ref().map(|o| (i, o))),
            done,
            self.resilience.failure_budget,
        );
        if failures.exceeds_budget() {
            return Err(CoreError::FailureBudgetExceeded {
                report: Box::new(failures),
            });
        }
        if let Some(c) = checkpoint {
            c.ensure_healthy()?;
        }
        let completeness = Completeness {
            requested: self.samples,
            done,
            resumed,
            // A cancellation that landed after the last sample resolved
            // (or when everything was restored from the checkpoint)
            // truncated nothing: the run is complete, and saying
            // otherwise would make callers discard a full result.
            truncated: (done < self.samples)
                .then(|| run_token.cancelled().map(|r| r.label()))
                .flatten(),
        };
        Ok(DurableRun {
            outcomes,
            failures,
            completeness,
        })
    }
}

/// Runs a plain (non-durable) entry point: `run` gets a fresh run token
/// and no checkpoint. A plain report has no completeness to carry a
/// partial run, so a run that [`ResilienceConfig::deadline`] cut short
/// comes back as the run-cancelled error instead.
fn run_plain<T>(
    run: impl FnOnce(&CancelToken) -> Result<DurableRun<T>, CoreError>,
) -> Result<McRunReport<T>, CoreError> {
    let token = CancelToken::new();
    let run = run(&token)?;
    run.into_run_report().ok_or_else(|| run_cancelled(&token))
}

/// Static preflight shared by the studies: a configuration with
/// error-severity lint findings (fault stage out of range, non-physical
/// or empty resistance sweep) is rejected *before* any sample builds, so
/// the retry machinery and failure budget are never engaged on an error
/// no retry can fix.
fn lint_preflight(put: &PathUnderTest, r_values: Option<&[f64]>) -> Result<(), CoreError> {
    let report = put.lint(r_values);
    if report.error_count() > 0 {
        return Err(CoreError::LintRejected {
            report: Box::new(report),
        });
    }
    Ok(())
}

/// Readies one sample attempt's instance: the runner's recorder and
/// cancel token, the run's solver structure, and on retries the
/// escalation ladder. The jitter scale is drawn
/// from the sample's RNG *after* all instance draws, and only on retries —
/// first attempts consume exactly the legacy stream, so their results stay
/// bit-identical to non-resilient runs.
fn ready(
    p: &mut AnalogPath,
    symbolic: &SymbolicCache,
    attempt: u32,
    rng: &mut StdRng,
    rec: &Recorder,
    token: &CancelToken,
) {
    p.set_recorder(rec.clone());
    p.set_cancel(token.clone());
    p.built_path().adopt_symbolic(symbolic);
    if attempt > 1 {
        let step_scale = 0.7 + 0.25 * rng.random::<f64>();
        p.harden(attempt - 1, step_scale);
    }
}

/// The solver structure a run's samples adopt, for either linear engine:
/// built once on the nominal instance `build` makes, with its sparse
/// analysis (if any) booked on the run's recorder. Process variation and
/// sweep resistances change element *values*, never the stamp pattern, so
/// one structure per Monte Carlo run suffices.
fn prime(mc: &McConfig, build: impl FnOnce() -> AnalogPath) -> SymbolicCache {
    let mut p = build();
    p.set_recorder(mc.obs.clone());
    p.built_path().prime_symbolic()
}

/// The row-layout tag a coverage checkpoint's digest carries: `sparse`
/// when the run searches each row, `full` when it simulates every column.
fn rows_tag(trend: Option<Trend>) -> &'static str {
    if trend.is_some() {
        "sparse"
    } else {
        "full"
    }
}

/// A row kernel's optional coverage grid.
type Grid<'g, 'a> = Option<&'g AdaptiveGrid<'a>>;

/// The faulty-row kernel both studies build on. Lints the sweep and
/// primes the faulty topology once; the returned closure draws one
/// instance, builds it at the row's first resistance, readies it and
/// lets `measure` fill the row at the resistances it is handed — every
/// one without a grid, the ones the grid's critical-resistance search
/// picks with one.
fn row_kernel<'s, S: CoverageStudy + Sync>(
    study: &'s S,
    r_values: &[f64],
    measure: impl Fn(&mut AnalogPath, S::Draw, &[f64], Grid<'_, '_>, &Recorder) -> Result<Vec<f64>, CoreError>
        + Sync
        + 's,
) -> Result<RowEval<'s>, CoreError> {
    let (put, mc) = study.setup();
    lint_preflight(put, Some(r_values))?;
    let nominal_techs = vec![put.tech; put.spec.len()];
    let symbolic = prime(mc, || put.instantiate(&nominal_techs, r_values[0]));
    Ok(Box::new(
        move |attempt,
              rng: &mut StdRng,
              rec: &Recorder,
              t: &CancelToken,
              rs: &[f64],
              grid: Grid<'_, '_>| {
            let (techs, d) = study.draw(rng);
            let mut p = put.instantiate(&techs, rs[0]);
            ready(&mut p, &symbolic, attempt, rng, rec, t);
            measure(&mut p, d, rs, grid, rec)
        },
    ))
}

/// The fault-free kernel both studies calibrate on: `measure` of every
/// *resolved* instance, in sample order.
fn fault_free_run<S: CoverageStudy + Sync>(
    study: &S,
    label: &str,
    measure: impl Fn(&mut AnalogPath, S::Draw) -> Result<f64, CoreError> + Sync,
) -> Result<Vec<f64>, CoreError> {
    let (put, mc) = study.setup();
    lint_preflight(put, None)?;
    let nominal_techs = vec![put.tech; put.spec.len()];
    let symbolic = prime(mc, || put.instantiate_fault_free(&nominal_techs));
    let report = run_plain(|token| {
        mc.try_run_samples_durable(label, token, None, |_, attempt, rng, rec, t| {
            let (techs, d) = study.draw(rng);
            let mut p = put.instantiate_fault_free(&techs);
            ready(&mut p, &symbolic, attempt, rng, rec, t);
            measure(&mut p, d)
        })
    })?;
    Ok(report.into_resolved())
}

/// The row format of DF coverage records, carried in both DF coverage
/// checkpoint digests: format 2 rows may hold censored needs (DESIGN.md
/// §5.13), which a reader of format 1 would take for exact ones.
const DF_ROWS_FORMAT: u32 = 2;

/// One coverage-vs-resistance series, at one setting of the method's
/// free parameter (`T/T₀` for DF, `ω_th/ω_th⁰` for the pulse test).
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageCurve {
    /// The parameter factor this series was computed at.
    pub factor: f64,
    /// Defect resistances, ohms.
    pub resistance: Vec<f64>,
    /// Fault coverage (fraction of *resolved* MC instances detected) per
    /// resistance.
    pub coverage: Vec<f64>,
    /// Fraction of MC instances that never resolved (solver failure after
    /// all retries) and are excluded from the coverage denominator. `0.0`
    /// for a clean run; compare against the configured failure budget
    /// when judging how trustworthy the curve is.
    pub unresolved: f64,
    /// How much of the underlying Monte Carlo run actually happened: a
    /// run truncated by a deadline or interrupt reports the honest partial
    /// denominator here instead of silently pretending it covered
    /// everything.
    pub completeness: Completeness,
}

impl CoverageCurve {
    /// The canonical one-line text rendering of this curve (no trailing
    /// newline): `factor F.FF: coverage C.CCC@R.Re.. ...`. Every consumer
    /// — the one-shot CLI report, the serve daemon's result payloads, and
    /// the bench bit-identity asserts — renders through here, so "same
    /// digest ⇒ byte-identical result text" holds by construction.
    pub fn render_line(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "factor {:.2}: coverage", self.factor);
        for (r, cov) in self.resistance.iter().zip(&self.coverage) {
            let _ = write!(out, " {cov:.3}@{r:.1e}");
        }
        out
    }

    /// [`CoverageCurve::render_line`] over a whole set, one line per
    /// curve, each newline-terminated.
    pub fn render_set(curves: &[CoverageCurve]) -> String {
        let mut out = String::new();
        for c in curves {
            out.push_str(&c.render_line());
            out.push('\n');
        }
        out
    }
}

/// The reduced-clock DF-testing study (paper Figs. 6 and 8).
#[derive(Debug, Clone)]
pub struct DfStudy {
    /// The path + defect under study.
    pub put: PathUnderTest,
    /// Monte Carlo setup.
    pub mc: McConfig,
    /// Nominal flop timing.
    pub ff: FfTiming,
    /// Clock-uncertainty margin used for calibration (0.9 = the paper's
    /// "no false positive even if T is decreased by 10 %").
    pub clock_margin: f64,
}

impl DfStudy {
    /// A study with the paper's margins.
    pub fn new(put: PathUnderTest, mc: McConfig) -> Self {
        DfStudy {
            put,
            mc,
            ff: FfTiming::nominal(),
            clock_margin: 0.9,
        }
    }

    /// The declared direction of the slack need along R (DESIGN.md
    /// §5.12): a resistive open only slows the path, so the need rises;
    /// a bridge's need has a shallow minimum near `0.9·T₀` and detection
    /// comes back at high R, so bridges declare none.
    fn trend(&self) -> Option<Trend> {
        match self.put.defect {
            DefectKind::ExternalRop | DefectKind::InternalRop { .. } => Some(Trend::Rising),
            DefectKind::Bridge { .. } => None,
        }
    }

    /// The faulty-row kernel of every DF run ([`row_kernel`]): an
    /// instance's slack need (worst path delay + flop overhead) at each
    /// resistance the grid's search picks, measured only up to the grid's
    /// verdict bound ([`DfStudy::bounded_need`]).
    fn faulty_eval(&self, r_values: &[f64]) -> Result<RowEval<'_>, CoreError> {
        row_kernel(self, r_values, |p, ff, rs, grid, rec| {
            let overhead = ff.overhead();
            let within = grid.map_or(f64::INFINITY, |g| g.verdict_bound(overhead));
            AdaptiveGrid::measure_row(grid, rs, rec, |r| {
                p.set_resistance(r)?;
                Self::bounded_need(p, overhead, within, rec)
            })
        })
    }

    /// One instance's slack need, worst path delay + `overhead`, measured
    /// only as far as the verdict bound `within` on the delay (DESIGN.md
    /// §5.13). The rising edge runs first; a delay proven past `within`
    /// fails every test period, so the need is then stored [`censored`]
    /// at its proven floor and the falling edge is skipped. With
    /// `within = ∞` this is [`PathInstance::worst_delay`] + `overhead`,
    /// bit for bit.
    fn bounded_need(
        p: &mut AnalogPath,
        overhead: f64,
        within: f64,
        rec: &Recorder,
    ) -> Result<f64, CoreError> {
        let rise = match p.delay_within(Edge::Rising, within)? {
            BoundedDelay::Exact(d) => d,
            BoundedDelay::Beyond(floor) => {
                rec.add(Counter::DelaysCensored, 1);
                rec.add(Counter::EdgesSkipped, 1);
                return Ok(censored(floor + overhead));
            }
        };
        Ok(match p.delay_within(Edge::Falling, within)? {
            BoundedDelay::Exact(d) => rise.max(d) + overhead,
            BoundedDelay::Beyond(floor) => {
                rec.add(Counter::DelaysCensored, 1);
                censored(rise.max(floor) + overhead)
            }
        })
    }

    /// Fault-free slack need (worst path delay + flop overhead) of the
    /// *resolved* Monte Carlo instances, in sample order.
    ///
    /// # Errors
    ///
    /// [`CoreError::LintRejected`] when the configuration fails the static
    /// preflight; propagates electrical-simulation failures (via the
    /// failure budget — the default budget of zero aborts on any failure).
    pub fn fault_free_needs(&self) -> Result<Vec<f64>, CoreError> {
        fault_free_run(self, "df-fault-free", |p, ff| {
            Ok(p.worst_delay()? + ff.overhead())
        })
    }

    /// Calibrates `T₀` per the paper: no fault-free instance fails even at
    /// `clock_margin × T₀`. Calibration uses the resolved samples only.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures; fails on an empty sample.
    pub fn calibrate(&self) -> Result<DfCalibration, CoreError> {
        calibrate_t0(&self.fault_free_needs()?, self.clock_margin)
    }

    /// Faulty slack needs with per-sample fault isolation:
    /// `outcomes[sample]` resolves to the row of exact needs at every
    /// resistance, and `into_resolved()` keeps the resolved rows.
    ///
    /// # Errors
    ///
    /// [`CoreError::LintRejected`] when the configuration fails the static
    /// preflight (out-of-range stage, non-physical or empty sweep);
    /// [`CoreError::FailureBudgetExceeded`] when too many samples stay
    /// failed after retries; the run-cancelled error when
    /// [`ResilienceConfig::deadline`] cut the run short.
    pub fn try_faulty_needs(&self, r_values: &[f64]) -> Result<McRunReport<Vec<f64>>, CoreError> {
        let eval = self.faulty_eval(r_values)?;
        run_plain(|token| {
            self.mc
                .try_run_samples_durable("df-faulty", token, None, |_, a, rng, rec, t| {
                    eval(a, rng, rec, t, r_values, None)
                })
        })
    }

    /// Full study: `C_del(R)` curves at each `T = factor × T₀` (the paper
    /// plots factors 0.9 / 1.0 / 1.1), a fixed [`Plan`] run.
    ///
    /// # Errors
    ///
    /// As for [`DfStudy::run`].
    pub fn coverage(
        &self,
        calib: &DfCalibration,
        r_values: &[f64],
        t_factors: &[f64],
    ) -> Result<Vec<CoverageCurve>, CoreError> {
        let plan = Plan::fixed(r_values, t_factors);
        let report = self.run(calib, &plan, &CancelToken::new(), None)?;
        Ok(report.into_parts().0)
    }

    /// Runs `plan` on the calibrated grid under `cancel` and the
    /// [`ResilienceConfig`] budgets, optionally checkpointed (opened with
    /// [`DfStudy::checkpoint_spec`]); a resumed run is bit-identical to an
    /// uninterrupted one. Each row is simulated only where its
    /// critical-resistance search needs it (DESIGN.md §5.12), each need
    /// only up to the verdict bound (§5.13), with curves bit-identical to
    /// [`DfStudy::run_full_grid`]'s. A fixed run's curves carry the honest
    /// [`CoverageCurve::completeness`] of a truncated run; an adaptive run
    /// cannot, so it rejects [`ResilienceConfig::deadline`] and fails when
    /// `cancel` trips.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidPlan`], [`CoreError::LintRejected`] and
    /// [`CoreError::Unsupported`] (an adaptive deadline, or crossover
    /// curves on another grid) before any sample;
    /// [`CoreError::FailureBudgetExceeded`]; [`CoreError::Checkpoint`] on
    /// checkpoint failures or a checkpoint opened with another spec.
    pub fn run(
        &self,
        calib: &DfCalibration,
        plan: &Plan,
        cancel: &CancelToken,
        checkpoint: Option<&Checkpoint<Vec<f64>>>,
    ) -> Result<StudyReport, CoreError> {
        plan::run(self, calib, plan, false, cancel, checkpoint)
    }

    /// The [`CheckpointSpec`] of a durable [`DfStudy::run`] of `plan`. Its
    /// digest covers the path under test, the variation model, the flop
    /// timing, the grid bits, a `rows=sparse` tag (`rows=full` for a class
    /// without a declared direction) with the row format version, and
    /// `T₀` for a fixed plan or the policy and crossover curves for an
    /// adaptive one. The adaptive digest does not cover `T₀` (ROADMAP item
    /// 4); a record searched against another `T₀` is still never guessed
    /// from, as the fold refuses a row that cannot decide a column under
    /// this run's thresholds ([`CoreError::Checkpoint`]).
    pub fn checkpoint_spec(&self, calib: &DfCalibration, plan: &Plan) -> CheckpointSpec {
        plan::checkpoint_spec(self, calib, plan)
    }

    /// [`DfStudy::run`] with every column of every row simulated, each
    /// delay to its crossing: the reference arm the critical-resistance
    /// search and the verdict bound are checked against. Its checkpoint
    /// records the exact rows.
    #[doc(hidden)]
    pub fn run_full_grid(
        &self,
        calib: &DfCalibration,
        plan: &Plan,
        cancel: &CancelToken,
        checkpoint: Option<&Checkpoint<Vec<f64>>>,
    ) -> Result<StudyReport, CoreError> {
        plan::run(self, calib, plan, true, cancel, checkpoint)
    }

    /// An adaptive [`DfStudy::run`] with a checkpoint. Kept for
    /// pulsebench; ROADMAP item 4 deletes it.
    ///
    /// # Errors
    ///
    /// As for [`DfStudy::run`].
    pub fn coverage_adaptive_durable(
        &self,
        calib: &DfCalibration,
        r_values: &[f64],
        t_factors: &[f64],
        policy: &AdaptivePolicy,
        crossover: Option<&[CoverageCurve]>,
        checkpoint: &Checkpoint<Vec<f64>>,
    ) -> Result<AdaptiveReport, CoreError> {
        let plan = adaptive_plan(r_values, t_factors, policy, crossover);
        match self.run(calib, &plan, &CancelToken::new(), Some(checkpoint))? {
            StudyReport::Adaptive(r) => Ok(r),
            StudyReport::Fixed { .. } => unreachable!("an adaptive plan reports adaptively"),
        }
    }

    /// [`DfStudy::checkpoint_spec`] of an adaptive plan, which does not
    /// read `T₀`. Kept for pulsebench; ROADMAP item 4 deletes it.
    pub fn adaptive_checkpoint_spec(
        &self,
        r_values: &[f64],
        t_factors: &[f64],
        policy: &AdaptivePolicy,
        crossover: Option<&[CoverageCurve]>,
    ) -> CheckpointSpec {
        let plan = adaptive_plan(r_values, t_factors, policy, crossover);
        self.checkpoint_spec(&DfCalibration { t0: f64::NAN }, &plan)
    }
}

impl CoverageStudy for DfStudy {
    type Calib = DfCalibration;
    type Draw = FfTiming;
    const KIND: &'static str = "df";

    fn draw(&self, rng: &mut StdRng) -> (Vec<Tech>, FfTiming) {
        let (tech, len) = (&self.put.tech, self.put.spec.len());
        let techs = self.mc.variation.sample_techs(tech, len, rng);
        let ff = self.mc.variation.sample_ff(self.ff, rng);
        (techs, ff)
    }

    fn setup(&self) -> (&PathUnderTest, &McConfig) {
        (&self.put, &self.mc)
    }

    fn row_eval(&self, _: &DfCalibration, r_values: &[f64]) -> Result<RowEval<'_>, CoreError> {
        self.faulty_eval(r_values)
    }

    fn grid<'a>(&self, calib: &DfCalibration, plan: &'a Plan) -> AdaptiveGrid<'a> {
        AdaptiveGrid::new(&plan.r_values, &plan.factors, calib.t0, false, self.trend())
    }

    fn digest_parts(&self, calib: &DfCalibration, adaptive: bool) -> (String, String) {
        let margin = self.clock_margin.to_bits();
        let mut identity = format!("ff={:?} margin={margin:016x}", self.ff);
        if !adaptive {
            identity.push_str(&format!(" t0={:016x}", calib.t0.to_bits()));
        }
        let rows = format!(" rows={} v{DF_ROWS_FORMAT}", rows_tag(self.trend()));
        (identity, rows)
    }
}

/// The pulse-propagation study (paper Figs. 7 and 9).
#[derive(Debug, Clone)]
pub struct PulseStudy {
    /// The path + defect under study.
    pub put: PathUnderTest,
    /// Monte Carlo setup.
    pub mc: McConfig,
    /// Injected pulse polarity at the path input (the paper's kind *l*
    /// is [`Polarity::PositiveGoing`], kind *h* is
    /// [`Polarity::NegativeGoing`]).
    pub polarity: Polarity,
    /// Slope tolerance for the region-3 detection.
    pub region_tol: f64,
    /// Relative guard above the region-3 knee for `ω_in`.
    pub guard: f64,
    /// Sensor-variation margin for `ω_th⁰` (1.1 = the paper's 10 %
    /// worst-case sensing-circuit variation).
    pub sensor_margin: f64,
    /// Transfer-curve sweep for calibration: `(w_lo, w_hi, points)`.
    pub sweep: (f64, f64, usize),
}

impl PulseStudy {
    /// A study with the paper's margins and a sweep suited to the generic
    /// technology.
    pub fn new(put: PathUnderTest, mc: McConfig, polarity: Polarity) -> Self {
        PulseStudy {
            put,
            mc,
            polarity,
            region_tol: 0.08,
            guard: 0.05,
            sensor_margin: 1.1,
            sweep: (60e-12, 1.2e-9, 40),
        }
    }

    /// The declared direction of the output width along R (DESIGN.md
    /// §5.12): a resistive open dampens the pulse more as it grows, so the
    /// width falls; a bridge fights the pulse less as it weakens, so the
    /// width rises.
    fn trend(&self) -> Option<Trend> {
        match self.put.defect {
            DefectKind::ExternalRop | DefectKind::InternalRop { .. } => Some(Trend::Falling),
            DefectKind::Bridge { .. } => Some(Trend::Rising),
        }
    }

    /// The faulty-row kernel of every pulse run ([`row_kernel`]): an
    /// instance's output width at each resistance the grid's search
    /// picks, injecting `w_in` times the instance's generator factor.
    fn faulty_eval(&self, w_in: f64, r_values: &[f64]) -> Result<RowEval<'_>, CoreError> {
        row_kernel(self, r_values, move |p, gen, rs, grid, rec| {
            AdaptiveGrid::measure_row(grid, rs, rec, |r| {
                p.set_resistance(r)?;
                p.pulse_width_out(w_in * gen, self.polarity)
            })
        })
    }

    /// The fault-free *nominal* transfer curve (the solid line of
    /// Fig. 10), used by the region-3 rule.
    ///
    /// # Errors
    ///
    /// [`CoreError::LintRejected`] when the configuration fails the static
    /// preflight; otherwise propagates simulation failures.
    pub fn nominal_curve(&self) -> Result<TransferCurve, CoreError> {
        lint_preflight(&self.put, None)?;
        let techs = vec![self.put.tech; self.put.spec.len()];
        let mut p = self.put.instantiate_fault_free(&techs);
        let (lo, hi, n) = self.sweep;
        TransferCurve::measure(&mut p, self.polarity, lo, hi, n)
    }

    /// Output widths of every *resolved* fault-free MC instance at
    /// injected width `w_in` (with per-instance generator fluctuation).
    ///
    /// # Errors
    ///
    /// [`CoreError::LintRejected`] when the configuration fails the static
    /// preflight; propagates simulation failures (via the failure budget).
    pub fn fault_free_wouts(&self, w_in: f64) -> Result<Vec<f64>, CoreError> {
        fault_free_run(self, "pulse-fault-free", |p, gen| {
            p.pulse_width_out(w_in * gen, self.polarity)
        })
    }

    /// Like [`PulseStudy::fault_free_wouts`] but with the injected width
    /// held exactly at `w_in` (no generator fluctuation): the Fig. 10
    /// analysis, which isolates the *path's* response spread at a fixed
    /// stimulus.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures (via the failure budget).
    pub fn fault_free_wouts_fixed_width(&self, w_in: f64) -> Result<Vec<f64>, CoreError> {
        fault_free_run(self, "pulse-fixed-width", |p, _| {
            p.pulse_width_out(w_in, self.polarity)
        })
    }

    /// Calibrates `(ω_in⁰, ω_th⁰)` per the paper's rule.
    ///
    /// # Errors
    ///
    /// Fails when the nominal curve has no asymptotic region or a
    /// fault-free instance dampens the calibrated pulse.
    pub fn calibrate(&self) -> Result<PulseCalibration, CoreError> {
        let curve = self.nominal_curve()?;
        let w_in = curve.region3_start(self.region_tol, self.guard).ok_or(
            CoreError::EmptyCalibration {
                what: "transfer curve asymptotic region",
            },
        )?;
        let wouts = self.fault_free_wouts(w_in)?;
        calibrate_pulse(
            &curve,
            &wouts,
            self.region_tol,
            self.guard,
            self.sensor_margin,
        )
    }

    /// Faulty output widths with per-sample fault isolation, injecting
    /// `w_in` (per-instance generator fluctuation included):
    /// `outcomes[sample]` resolves to the row of widths at every
    /// resistance, and `into_resolved()` keeps the resolved rows.
    ///
    /// # Errors
    ///
    /// As for [`DfStudy::try_faulty_needs`].
    pub fn try_faulty_wouts(
        &self,
        w_in: f64,
        r_values: &[f64],
    ) -> Result<McRunReport<Vec<f64>>, CoreError> {
        let eval = self.faulty_eval(w_in, r_values)?;
        run_plain(|token| {
            self.mc
                .try_run_samples_durable("pulse-faulty", token, None, |_, a, rng, rec, t| {
                    eval(a, rng, rec, t, r_values, None)
                })
        })
    }

    /// Full study: `C_pulse(R)` curves at each `ω_th = factor × ω_th⁰`
    /// (the paper plots factors 0.9 / 1.0 / 1.1), a fixed [`Plan`] run.
    /// Detection = the output pulse is *narrower than the sensing
    /// threshold* (the sensor sees no transition).
    ///
    /// # Errors
    ///
    /// As for [`PulseStudy::run`].
    pub fn coverage(
        &self,
        calib: &PulseCalibration,
        r_values: &[f64],
        th_factors: &[f64],
    ) -> Result<Vec<CoverageCurve>, CoreError> {
        Ok(self.coverage_with_report(calib, r_values, th_factors)?.0)
    }

    /// [`PulseStudy::coverage`] with the failure accounting. Kept for
    /// pulsebench; ROADMAP item 4 deletes it.
    ///
    /// # Errors
    ///
    /// As for [`PulseStudy::run`].
    pub fn coverage_with_report(
        &self,
        calib: &PulseCalibration,
        r_values: &[f64],
        th_factors: &[f64],
    ) -> Result<(Vec<CoverageCurve>, FailureReport), CoreError> {
        let plan = Plan::fixed(r_values, th_factors);
        let report = self.run(calib, &plan, &CancelToken::new(), None)?;
        Ok(report.into_parts())
    }

    /// Runs `plan` on the calibrated grid, as [`DfStudy::run`] does; each
    /// instance is simulated only at the resistances its
    /// critical-resistance search needs.
    ///
    /// # Errors
    ///
    /// As for [`DfStudy::run`].
    pub fn run(
        &self,
        calib: &PulseCalibration,
        plan: &Plan,
        cancel: &CancelToken,
        checkpoint: Option<&Checkpoint<Vec<f64>>>,
    ) -> Result<StudyReport, CoreError> {
        plan::run(self, calib, plan, false, cancel, checkpoint)
    }

    /// The [`CheckpointSpec`] of a durable [`PulseStudy::run`] of `plan`.
    /// Its digest covers the path under test, the variation model, the
    /// polarity, `ω_in⁰` and `ω_th⁰` (the records are rows searched
    /// against its thresholds), the grid bits and, for a fixed plan, a
    /// `rows=sparse` tag, or for an adaptive one the policy and crossover
    /// curves.
    pub fn checkpoint_spec(&self, calib: &PulseCalibration, plan: &Plan) -> CheckpointSpec {
        plan::checkpoint_spec(self, calib, plan)
    }

    /// [`PulseStudy::run`] with every column of every row simulated: the
    /// reference arm the critical-resistance search is checked against.
    #[doc(hidden)]
    pub fn run_full_grid(
        &self,
        calib: &PulseCalibration,
        plan: &Plan,
        cancel: &CancelToken,
        checkpoint: Option<&Checkpoint<Vec<f64>>>,
    ) -> Result<StudyReport, CoreError> {
        plan::run(self, calib, plan, true, cancel, checkpoint)
    }
}

impl CoverageStudy for PulseStudy {
    type Calib = PulseCalibration;
    type Draw = f64;
    const KIND: &'static str = "pulse";

    /// The stage technologies, then the pulse generator's width factor
    /// (paper §3, point a).
    fn draw(&self, rng: &mut StdRng) -> (Vec<Tech>, f64) {
        let (tech, len) = (&self.put.tech, self.put.spec.len());
        let techs = self.mc.variation.sample_techs(tech, len, rng);
        let gen_factor = self.mc.variation.sample_sensor(1.0, rng);
        (techs, gen_factor)
    }

    fn setup(&self) -> (&PathUnderTest, &McConfig) {
        (&self.put, &self.mc)
    }

    fn row_eval(
        &self,
        calib: &PulseCalibration,
        r_values: &[f64],
    ) -> Result<RowEval<'_>, CoreError> {
        self.faulty_eval(calib.w_in, r_values)
    }

    fn grid<'a>(&self, calib: &PulseCalibration, plan: &'a Plan) -> AdaptiveGrid<'a> {
        AdaptiveGrid::new(
            &plan.r_values,
            &plan.factors,
            calib.w_th,
            true,
            self.trend(),
        )
    }

    /// The adaptive digest has never carried the row tag; it stays
    /// without one so that existing checkpoints keep resuming.
    fn digest_parts(&self, calib: &PulseCalibration, adaptive: bool) -> (String, String) {
        let identity = format!(
            "polarity={:?} w_in={:016x} w_th={:016x}",
            self.polarity,
            calib.w_in.to_bits(),
            calib.w_th.to_bits()
        );
        let rows = if adaptive {
            String::new()
        } else {
            format!(" rows={}", rows_tag(self.trend()))
        };
        (identity, rows)
    }
}

/// The adaptive plan of the forwarded signatures pulsebench calls.
fn adaptive_plan(
    r_values: &[f64],
    factors: &[f64],
    policy: &AdaptivePolicy,
    crossover: Option<&[CoverageCurve]>,
) -> Plan {
    let crossover = crossover.map(<[CoverageCurve]>::to_vec);
    Plan {
        sampling: Sampling::Adaptive {
            policy: *policy,
            crossover,
        },
        ..Plan::fixed(r_values, factors)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::engine::DefectKind;
    use pulsar_cells::PathSpec;
    use pulsar_mc::SampleOutcome;

    fn put() -> PathUnderTest {
        PathUnderTest {
            spec: PathSpec::paper_chain(),
            defect: DefectKind::ExternalRop,
            stage: 1,
            tech: Tech::generic_180nm(),
        }
    }

    fn tiny_mc() -> McConfig {
        McConfig::paper(6, 42)
    }

    #[test]
    fn lint_rejects_out_of_range_stage_before_any_sample() {
        let bad = PathUnderTest { stage: 99, ..put() };
        let study = DfStudy::new(bad, tiny_mc());
        let err = study.fault_free_needs().unwrap_err();
        match &err {
            CoreError::LintRejected { report } => {
                assert!(report.error_count() > 0);
            }
            other => panic!("expected LintRejected, got {other:?}"),
        }
        // Structural rejection is terminal: no retries, no budget spend.
        assert!(!crate::resilience::is_retryable(&err));
        assert_eq!(crate::resilience::error_kind(&err), "lint-rejected");
    }

    #[test]
    fn lint_rejects_non_physical_resistance_sweep() {
        let study = DfStudy::new(put(), tiny_mc());
        for sweep in [&[-1.0][..], &[f64::NAN][..], &[0.0][..], &[][..]] {
            let err = study.try_faulty_needs(sweep).unwrap_err();
            assert!(
                matches!(err, CoreError::LintRejected { .. }),
                "sweep {sweep:?} must be lint-rejected, got {err:?}"
            );
        }
        // A physical sweep passes the preflight (and the run itself).
        assert!(study.try_faulty_needs(&[10e3]).is_ok());
    }

    #[test]
    fn pulse_study_lint_rejection_spends_zero_budget() {
        let bad = PathUnderTest { stage: 99, ..put() };
        let study = PulseStudy::new(bad, tiny_mc(), Polarity::PositiveGoing);
        let err = study.fault_free_wouts(500e-12).unwrap_err();
        assert!(matches!(err, CoreError::LintRejected { .. }));
        let err = study.try_faulty_wouts(500e-12, &[10e3]).unwrap_err();
        assert!(matches!(err, CoreError::LintRejected { .. }));
        let err = study.fault_free_wouts_fixed_width(500e-12).unwrap_err();
        assert!(matches!(err, CoreError::LintRejected { .. }));
    }

    #[test]
    fn df_calibration_admits_all_fault_free_instances() {
        let study = DfStudy::new(put(), tiny_mc());
        let needs = study.fault_free_needs().unwrap();
        let cal = calibrate_t0(&needs, 0.9).unwrap();
        for n in &needs {
            assert!(0.9 * cal.t0 >= *n - 1e-18, "false positive at 0.9·T0");
        }
    }

    #[test]
    fn df_coverage_grows_with_resistance() {
        let study = DfStudy::new(put(), tiny_mc());
        let cal = study.calibrate().unwrap();
        let rs = [1e3, 150e3];
        let curves = study.coverage(&cal, &rs, &[1.0]).unwrap();
        let c = &curves[0];
        assert!(
            c.coverage[1] >= c.coverage[0],
            "coverage must not drop with R: {:?}",
            c.coverage
        );
        assert!(
            c.coverage[1] > 0.9,
            "a 150 kΩ open must be caught by reduced-clock testing: {:?}",
            c.coverage
        );
    }

    #[test]
    fn pulse_calibration_has_no_false_positives() {
        let study = PulseStudy::new(put(), tiny_mc(), Polarity::PositiveGoing);
        let cal = study.calibrate().unwrap();
        let wouts = study.fault_free_wouts(cal.w_in).unwrap();
        for w in &wouts {
            assert!(
                *w >= study.sensor_margin * cal.w_th - 1e-18,
                "fault-free instance too close to threshold: w_out {w:e}, th {:e}",
                cal.w_th
            );
        }
    }

    #[test]
    fn pulse_coverage_catches_large_opens() {
        let study = PulseStudy::new(put(), tiny_mc(), Polarity::PositiveGoing);
        let cal = study.calibrate().unwrap();
        let rs = [1e3, 100e3];
        let curves = study.coverage(&cal, &rs, &[0.9, 1.0, 1.1]).unwrap();
        assert_eq!(curves.len(), 3);
        for c in &curves {
            assert!(
                c.coverage[0] < 0.5,
                "1 kΩ is benign at factor {}: {:?}",
                c.factor,
                c.coverage
            );
            assert!(
                c.coverage[1] > 0.9,
                "100 kΩ must dampen at factor {}: {:?}",
                c.factor,
                c.coverage
            );
        }
        // Higher threshold factor ⇒ (weakly) more coverage.
        assert!(curves[2].coverage[1] >= curves[0].coverage[1] - 1e-12);
    }

    #[test]
    fn internal_solver_error_fails_one_sample_without_killing_the_campaign() {
        let mut mc = tiny_mc();
        mc.resilience.failure_budget = 0.5;
        mc.obs = Recorder::enabled();
        let report = mc
            .try_run_samples_durable(
                "internal-test",
                &CancelToken::new(),
                None,
                |i, _, _, _, _| {
                    if i == 2 {
                        Err(CoreError::Analog(pulsar_analog::Error::Internal {
                            context: "vsource has no branch-current unknown",
                        }))
                    } else {
                        Ok(i as f64)
                    }
                },
            )
            .unwrap()
            .into_run_report()
            .unwrap();
        match &report.outcomes[2] {
            SampleOutcome::Failed { attempts, .. } => {
                assert_eq!(*attempts, 1, "internal errors must not be retried");
            }
            other => panic!("expected sample 2 to fail, got {other:?}"),
        }
        assert_eq!(report.failures.failed, 1);
        assert_eq!(report.resolved().count(), 5, "the other samples survive");
        let events = mc.obs.events();
        let failed: Vec<_> = events
            .iter()
            .filter(|e| e.kind == "sample" && e.outcome == "failed")
            .collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].error_kind.as_deref(), Some("internal"));
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("pulsar-study-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{}.ckpt", name, std::process::id()))
    }

    /// The rows a finished checkpoint holds, in record order.
    fn record_bits(path: &std::path::Path, spec: CheckpointSpec) -> Vec<Vec<u64>> {
        let ck = Checkpoint::<Vec<f64>>::open(path, spec).unwrap();
        ck.prior()
            .values()
            .filter_map(|o| o.value())
            .map(|r| r.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    fn curve_bits(report: &StudyReport) -> Vec<u64> {
        report
            .curves()
            .iter()
            .flat_map(|c| c.coverage.iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn durable_df_run_matches_plain_bit_for_bit() {
        let study = DfStudy::new(put(), tiny_mc());
        let cal = study.calibrate().unwrap();
        let plan = Plan::fixed(&[10e3, 100e3], &[0.9, 1.1]);
        let plain = study.run(&cal, &plan, &CancelToken::new(), None).unwrap();
        let path = tmp("df-plain");
        let _ = std::fs::remove_file(&path);
        let ck = Checkpoint::create(&path, study.checkpoint_spec(&cal, &plan)).unwrap();
        let durable = study
            .run(&cal, &plan, &CancelToken::new(), Some(&ck))
            .unwrap();
        assert!(durable.curves()[0].completeness.is_complete());
        assert_eq!(curve_bits(&plain), curve_bits(&durable));
        assert_eq!(plain.into_parts().1, durable.into_parts().1);
        let _ = std::fs::remove_file(&path);
    }

    /// Runs `plan` checkpointed, cuts the checkpoint to `keep` of its
    /// bytes (a kill can land on any byte) and resumes: the curves and
    /// the records match the uninterrupted run bit for bit.
    fn resume_after_cut<S: CoverageStudy>(
        name: &str,
        study: &S,
        calib: &S::Calib,
        plan: &Plan,
        keep: impl Fn(usize) -> usize,
    ) {
        let path = tmp(name);
        let _ = std::fs::remove_file(&path);
        let spec = plan::checkpoint_spec(study, calib, plan);
        let run = |ck: &Checkpoint<Vec<f64>>| {
            plan::run(study, calib, plan, false, &CancelToken::new(), Some(ck)).unwrap()
        };
        let full = run(&Checkpoint::create(&path, spec).unwrap());
        let full_rows = record_bits(&path, spec);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..keep(bytes.len())]).unwrap();
        let resumed = run(&Checkpoint::open(&path, spec).unwrap());
        assert_eq!(curve_bits(&full), curve_bits(&resumed));
        assert_eq!(full_rows, record_bits(&path, spec));
        let done = resumed.curves()[0].completeness;
        assert!(done.is_complete());
        assert!(
            done.resumed < study.setup().1.samples,
            "truncation must have dropped at least one record"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn df_resume_from_truncated_checkpoint_is_bit_identical() {
        let study = DfStudy::new(put(), tiny_mc());
        let cal = study.calibrate().unwrap();
        let plan = Plan::fixed(&[10e3, 100e3], &[1.0]);
        resume_after_cut("df-trunc", &study, &cal, &plan, |n| n / 2);
    }

    #[test]
    fn deadline_cancelled_samples_journal_as_deadline_and_never_count() {
        use pulsar_obs::CancelReason;
        let mut mc = tiny_mc();
        mc.threads = Some(1);
        mc.obs = Recorder::enabled();
        let run_token = CancelToken::new();
        // Deterministic stand-in for the watchdog: samples 0 and 1 finish,
        // sample 2's solve observes the deadline mid-flight, everything
        // after it never starts.
        let run = mc
            .try_run_samples_durable(
                "deadline-test",
                &run_token,
                None,
                |i, _a, _rng, _rec, _t| {
                    if i < 2 {
                        Ok(i as f64)
                    } else {
                        run_token.cancel(CancelReason::Deadline);
                        Err(CoreError::Analog(pulsar_analog::Error::Cancelled {
                            time: 0.0,
                            reason: CancelReason::Deadline,
                        }))
                    }
                },
            )
            .unwrap();

        // Interrupted samples are not-done, never failed: they stay out of
        // both the failure accounting and any coverage denominator.
        assert_eq!(run.completeness.requested, 6);
        assert_eq!(run.completeness.done, 2);
        assert_eq!(run.completeness.truncated, Some("deadline"));
        assert_eq!(run.failures.samples, 2);
        assert_eq!(run.failures.failed, 0);
        assert_eq!(run.failures.unresolved_fraction(), 0.0);
        assert!(run.outcomes[2..].iter().all(Option::is_none));
        assert_eq!(run.resolved_indexed().count(), 2);

        // The journal shows the cancelled sample as `error_kind = "deadline"`
        // with outcome `"cancelled"`, never `"failed"`.
        let events = mc.obs.events();
        let samples: Vec<_> = events.iter().filter(|e| e.kind == "sample").collect();
        assert_eq!(samples.len(), 3, "2 ok + 1 cancelled, unstarted silent");
        let cancelled: Vec<_> = samples
            .iter()
            .filter(|e| e.outcome == "cancelled")
            .collect();
        assert_eq!(cancelled.len(), 1);
        assert_eq!(cancelled[0].error_kind.as_deref(), Some("deadline"));
        assert!(samples.iter().all(|e| e.outcome != "failed"));
    }

    #[test]
    fn durable_coverage_reports_the_honest_partial_denominator() {
        use pulsar_obs::CancelReason;
        let study = DfStudy::new(put(), tiny_mc());
        let cal = study.calibrate().unwrap();
        let token = CancelToken::new();
        token.cancel(CancelReason::User);
        let (curves, report) = study
            .run(&cal, &Plan::fixed(&[10e3], &[1.0]), &token, None)
            .unwrap()
            .into_parts();
        assert_eq!(report.samples, 0, "nothing ran, nothing counted");
        assert_eq!(curves[0].completeness.done, 0);
        assert_eq!(curves[0].completeness.truncated, Some("interrupted"));
        assert!(!curves[0].completeness.is_complete());
    }

    #[test]
    fn pulse_resume_matches_the_uninterrupted_run() {
        let study = PulseStudy::new(put(), tiny_mc(), Polarity::PositiveGoing);
        let cal = study.calibrate().unwrap();
        let plan = Plan::fixed(&[10e3, 100e3], &[1.0]);
        resume_after_cut("pulse-trunc", &study, &cal, &plan, |n| n * 3 / 5);
    }
}
