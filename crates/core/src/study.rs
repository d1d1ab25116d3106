//! The Monte Carlo coverage studies of the paper's §4 (Figs. 6–9):
//! `C_del(T, R)` for reduced-clock DF testing and `C_pulse(ω_th, R)` for
//! the pulse-propagation method, over the same circuit instances.

use crate::adaptive::{censored, run_adaptive, AdaptiveGrid, AdaptiveReport, RowEval, Trend};
use crate::calib::{calibrate_pulse, calibrate_t0, DfCalibration, PulseCalibration};
use crate::checkpoint::{Checkpoint, CheckpointSpec, CheckpointValue};
use crate::df::FfTiming;
use crate::durable::{run_samples, Completeness, DurableRun};
use crate::engine::{AnalogPath, BoundedDelay, DefectKind, PathInstance, PathUnderTest};
use crate::error::CoreError;
use crate::resilience::{FailureReport, McRunReport, ResilienceConfig};
use crate::transfer::TransferCurve;
use crate::variation::VariationModel;
use pulsar_analog::{Edge, FaultPlan, Polarity, SymbolicCache};
use pulsar_cells::Tech;
use pulsar_mc::{AdaptivePolicy, MonteCarlo};
use pulsar_obs::{CancelReason, CancelToken, Counter, Recorder};
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
    /// Warm-start each sample's DC solves from the previous resistance
    /// sweep point. Off by default: warm starting reproduces cold solves
    /// only within solver tolerances, so leave it off wherever
    /// bit-identical reproducibility matters more than speed.
    pub dc_warm_start: bool,
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
            dc_warm_start: false,
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
        label: &'static str,
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
    run.into_run_report().ok_or_else(|| {
        CoreError::Analog(pulsar_analog::Error::Cancelled {
            time: 0.0,
            reason: token.cancelled().unwrap_or(CancelReason::Deadline),
        })
    })
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
/// cancel token, the run's symbolic factorization, the opt-in DC warm
/// start, and on retries the escalation ladder. The jitter scale is drawn
/// from the sample's RNG *after* all instance draws, and only on retries —
/// first attempts consume exactly the legacy stream, so their results stay
/// bit-identical to non-resilient runs.
fn ready(
    p: &mut AnalogPath,
    mc: &McConfig,
    symbolic: &Option<SymbolicCache>,
    attempt: u32,
    rng: &mut StdRng,
    rec: &Recorder,
    token: &CancelToken,
) {
    p.set_recorder(rec.clone());
    p.set_cancel(token.clone());
    if let Some(c) = symbolic {
        p.built_path().adopt_symbolic(c);
    }
    if mc.dc_warm_start {
        p.set_dc_warm_start(true);
    }
    if attempt > 1 {
        let step_scale = 0.7 + 0.25 * rng.random::<f64>();
        p.harden(attempt - 1, step_scale);
    }
}

/// The symbolic factorization a run's samples adopt: one analysis of the
/// nominal instance `build` makes, booked on the run's recorder. Process
/// variation and sweep resistances change element *values*, never the
/// stamp pattern, so one analysis per Monte Carlo run suffices. `None`
/// when the sparse path is not engaged for this circuit.
fn prime(mc: &McConfig, build: impl FnOnce() -> AnalogPath) -> Option<SymbolicCache> {
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

    /// Per-sample draws, in a fixed order so calibration and coverage
    /// runs see identical instances.
    fn draw(&self, rng: &mut StdRng) -> (Vec<Tech>, FfTiming) {
        let techs = self
            .mc
            .variation
            .sample_techs(&self.put.tech, self.put.spec.len(), rng);
        let ff = self.mc.variation.sample_ff(self.ff, rng);
        (techs, ff)
    }

    /// The declared direction of the slack need along R (DESIGN.md
    /// §5.12): a resistive open only slows the path, so the need rises;
    /// a bridge's need has a shallow minimum near `0.9·T₀` and detection
    /// comes back at high R, so bridges declare none. `None` as well
    /// under [`McConfig::dc_warm_start`], whose values depend on the
    /// order of the sweep.
    fn trend(&self) -> Option<Trend> {
        if self.mc.dc_warm_start {
            return None;
        }
        match self.put.defect {
            DefectKind::ExternalRop | DefectKind::InternalRop { .. } => Some(Trend::Rising),
            DefectKind::Bridge { .. } => None,
        }
    }

    /// The faulty-row kernel every DF coverage run shares — fixed, durable
    /// and adaptive. Lints the sweep and primes the faulty topology once;
    /// the returned closure draws one instance and measures its slack need
    /// (worst path delay + flop overhead) at the resistances of the row
    /// it is handed that the grid's search picks (all of them without a
    /// grid). Under a grid, each need is measured only up to the grid's
    /// verdict bound ([`DfStudy::bounded_need`]).
    fn faulty_eval(&self, r_values: &[f64]) -> Result<impl RowEval + '_, CoreError> {
        lint_preflight(&self.put, Some(r_values))?;
        let nominal_techs = vec![self.put.tech; self.put.spec.len()];
        let symbolic = prime(&self.mc, || {
            self.put.instantiate(&nominal_techs, r_values[0])
        });
        Ok(
            move |attempt,
                  rng: &mut StdRng,
                  rec: &Recorder,
                  t: &CancelToken,
                  rs: &[f64],
                  grid: Option<&AdaptiveGrid<'_>>| {
                let (techs, ff) = self.draw(rng);
                let mut p = self.put.instantiate(&techs, rs[0]);
                ready(&mut p, &self.mc, &symbolic, attempt, rng, rec, t);
                let overhead = ff.overhead();
                let within = grid.map_or(f64::INFINITY, |g| g.verdict_bound(overhead));
                AdaptiveGrid::measure_row(grid, rs, rec, |r| {
                    p.set_resistance(r)?;
                    Self::bounded_need(&mut p, overhead, within, rec)
                })
            },
        )
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

    /// Durable variant of [`DfStudy::try_faulty_needs`]: faulty slack
    /// needs of every sample, `outcomes[sample]` resolving to the
    /// per-resistance row, under `run_token` and an optional checkpoint
    /// opened with [`DfStudy::faulty_checkpoint_spec`].
    ///
    /// # Errors
    ///
    /// As for [`DfStudy::try_faulty_needs`], plus
    /// [`CoreError::Checkpoint`] on checkpoint failures or a checkpoint
    /// opened with another spec.
    pub fn try_faulty_needs_durable(
        &self,
        r_values: &[f64],
        run_token: &CancelToken,
        checkpoint: Option<&Checkpoint<Vec<f64>>>,
    ) -> Result<DurableRun<Vec<f64>>, CoreError> {
        if let Some(ck) = checkpoint {
            ck.expect_spec(&self.faulty_checkpoint_spec(r_values))?;
        }
        let eval = self.faulty_eval(r_values)?;
        self.mc
            .try_run_samples_durable("df-faulty", run_token, checkpoint, |_, a, rng, rec, t| {
                eval(a, rng, rec, t, r_values, None)
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
        lint_preflight(&self.put, None)?;
        let nominal_techs = vec![self.put.tech; self.put.spec.len()];
        let symbolic = prime(&self.mc, || self.put.instantiate_fault_free(&nominal_techs));
        let report = run_plain(|token| {
            self.mc.try_run_samples_durable(
                "df-fault-free",
                token,
                None,
                |_, attempt, rng, rec, t| {
                    let (techs, ff) = self.draw(rng);
                    let mut p = self.put.instantiate_fault_free(&techs);
                    ready(&mut p, &self.mc, &symbolic, attempt, rng, rec, t);
                    Ok(p.worst_delay()? + ff.overhead())
                },
            )
        })?;
        Ok(report.into_resolved())
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
    /// `outcomes[sample]` resolves to the per-resistance row.
    ///
    /// # Errors
    ///
    /// [`CoreError::LintRejected`] when the configuration fails the static
    /// preflight (out-of-range stage, non-physical or empty sweep);
    /// [`CoreError::FailureBudgetExceeded`] when too many samples stay
    /// failed after retries; the run-cancelled error when
    /// [`ResilienceConfig::deadline`] cut the run short.
    pub fn try_faulty_needs(&self, r_values: &[f64]) -> Result<McRunReport<Vec<f64>>, CoreError> {
        run_plain(|token| self.try_faulty_needs_durable(r_values, token, None))
    }

    /// Slack needs of every *resolved* instance at every defect
    /// resistance: `needs[sample][r_index]`.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures (via the failure budget).
    pub fn faulty_needs(&self, r_values: &[f64]) -> Result<Vec<Vec<f64>>, CoreError> {
        Ok(self.try_faulty_needs(r_values)?.into_resolved())
    }

    /// Full study: `C_del(R)` curves at each `T = factor × T₀`
    /// (the paper plots factors 0.9 / 1.0 / 1.1).
    ///
    /// # Errors
    ///
    /// Propagates calibration and simulation failures.
    pub fn coverage(
        &self,
        calib: &DfCalibration,
        r_values: &[f64],
        t_factors: &[f64],
    ) -> Result<Vec<CoverageCurve>, CoreError> {
        Ok(self.coverage_with_report(calib, r_values, t_factors)?.0)
    }

    /// Like [`DfStudy::coverage`], also returning the failure accounting
    /// of the underlying Monte Carlo run. Coverage is computed over the
    /// resolved samples; each curve's `unresolved` field records the
    /// excluded fraction, and its `completeness` a run that
    /// [`ResilienceConfig::deadline`] cut short.
    ///
    /// # Errors
    ///
    /// Propagates calibration and simulation failures.
    pub fn coverage_with_report(
        &self,
        calib: &DfCalibration,
        r_values: &[f64],
        t_factors: &[f64],
    ) -> Result<(Vec<CoverageCurve>, FailureReport), CoreError> {
        self.coverage_durable(calib, r_values, t_factors, &CancelToken::new(), None)
    }

    /// The [`CheckpointSpec`] identifying a durable
    /// [`DfStudy::try_faulty_needs_durable`] run: the digest
    /// covers the path under test, the variation model, flop timing, and
    /// the exact resistance sweep (bit patterns), so a checkpoint can
    /// never resume a different experiment. Coverage runs use
    /// [`DfStudy::coverage_checkpoint_spec`].
    pub fn faulty_checkpoint_spec(&self, r_values: &[f64]) -> CheckpointSpec {
        let digest = pulsar_obs::config_digest(&format!(
            "df-faulty put={:?} variation={:?} ff={:?} margin={:016x} r={:?}",
            self.put,
            self.mc.variation,
            self.ff,
            self.clock_margin.to_bits(),
            r_values.iter().map(|r| r.to_bits()).collect::<Vec<_>>()
        ));
        CheckpointSpec {
            config_digest: digest,
            seed: self.mc.seed,
            samples: self.mc.samples,
        }
    }

    /// The coverage grid of a calibrated run, searched per row when the
    /// defect class declares a direction.
    fn grid<'a>(
        &self,
        calib: &DfCalibration,
        r_values: &'a [f64],
        t_factors: &'a [f64],
    ) -> AdaptiveGrid<'a> {
        AdaptiveGrid::delay(r_values, t_factors, calib.t0, self.trend())
    }

    /// The [`CheckpointSpec`] identifying a durable
    /// [`DfStudy::coverage_durable`] run. Its records are sparse rows —
    /// `NaN` where the critical-resistance search skipped a column,
    /// negative where a need is censored at the verdict bound (DESIGN.md
    /// §5.13) — and only meaningful under the thresholds they were
    /// searched against, so on top of [`DfStudy::faulty_checkpoint_spec`]'s
    /// identity the digest covers `T₀`, the factor grid (bit patterns) and
    /// a `rows=sparse` (or `rows=full`, for a class without a declared
    /// direction) tag with the row format version. A need-row checkpoint
    /// never resumes a coverage run, nor the reverse, and a checkpoint
    /// written before needs could be censored never resumes either.
    pub fn coverage_checkpoint_spec(
        &self,
        calib: &DfCalibration,
        r_values: &[f64],
        t_factors: &[f64],
    ) -> CheckpointSpec {
        let digest = pulsar_obs::config_digest(&format!(
            "df-coverage put={:?} variation={:?} ff={:?} margin={:016x} t0={:016x} \
             factors={:?} r={:?} rows={} v{}",
            self.put,
            self.mc.variation,
            self.ff,
            self.clock_margin.to_bits(),
            calib.t0.to_bits(),
            t_factors.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            r_values.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            rows_tag(self.trend()),
            DF_ROWS_FORMAT,
        ));
        CheckpointSpec {
            config_digest: digest,
            seed: self.mc.seed,
            samples: self.mc.samples,
        }
    }

    /// Durable variant of [`DfStudy::coverage_with_report`]: checkpoint/
    /// resume plus deadlines, per-sample timeouts, and panic containment
    /// from [`McConfig::try_run_samples_durable`]. The attempt's
    /// cancellation token is installed in the solver workspace, so a
    /// deadline interrupts a sample *mid-solve*, not just between samples.
    /// Coverage is over whatever samples completed, with the honest
    /// denominator recorded in each curve's [`CoverageCurve::completeness`].
    /// Each instance is simulated only at the resistances its
    /// critical-resistance search needs (DESIGN.md §5.12); the curves are
    /// bit-identical to a full-grid run.
    ///
    /// # Errors
    ///
    /// As for [`DfStudy::try_faulty_needs`], plus
    /// [`CoreError::Checkpoint`] on checkpoint failures or a checkpoint
    /// opened with another spec than
    /// [`DfStudy::coverage_checkpoint_spec`].
    pub fn coverage_durable(
        &self,
        calib: &DfCalibration,
        r_values: &[f64],
        t_factors: &[f64],
        run_token: &CancelToken,
        checkpoint: Option<&Checkpoint<Vec<f64>>>,
    ) -> Result<(Vec<CoverageCurve>, FailureReport), CoreError> {
        if let Some(ck) = checkpoint {
            ck.expect_spec(&self.coverage_checkpoint_spec(calib, r_values, t_factors))?;
        }
        let eval = self.faulty_eval(r_values)?;
        let grid = self.grid(calib, r_values, t_factors);
        let run = self.mc.try_run_samples_durable(
            "df-faulty",
            run_token,
            checkpoint,
            |_, a, rng, rec, t| eval(a, rng, rec, t, r_values, Some(&grid)),
        )?;
        let rows: Vec<&Vec<f64>> = run.resolved_indexed().map(|(_, v)| v).collect();
        let curves = grid.curves(&rows, run.failures.unresolved_fraction(), run.completeness)?;
        Ok((curves, run.failures))
    }

    /// Adaptive-sampling variant of [`DfStudy::coverage`]: per resistance
    /// column, samples stop as soon as every factor's coverage interval
    /// meets `policy.precision` over the ordered sample prefix, and the
    /// saved budget refines the columns near the coverage threshold (and,
    /// when `crossover` supplies the pulse study's curves on the same
    /// grid, near the `C_pulse − C_del` crossover). Bit-identical across
    /// thread counts. Rejects [`McConfig::dc_warm_start`], which would
    /// couple a measurement to the sweep points evaluated before it, and
    /// [`ResilienceConfig::deadline`], which the report cannot account for.
    ///
    /// # Errors
    ///
    /// As for [`DfStudy::coverage`], plus [`CoreError::Unsupported`] for
    /// `dc_warm_start`, a deadline, or crossover curves on a different
    /// grid.
    pub fn coverage_adaptive(
        &self,
        calib: &DfCalibration,
        r_values: &[f64],
        t_factors: &[f64],
        policy: &AdaptivePolicy,
        crossover: Option<&[CoverageCurve]>,
    ) -> Result<AdaptiveReport, CoreError> {
        let grid = self.grid(calib, r_values, t_factors);
        self.coverage_adaptive_inner(grid, policy, crossover, None)
    }

    /// Durable variant of [`DfStudy::coverage_adaptive`]: every evaluated
    /// sample row is checkpointed (first-pass rows at their stream index,
    /// refinement rows offset by `policy.max_samples`), and a resumed run
    /// replays the stopping decisions over the restored values — the
    /// curves are bit-identical to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// As for [`DfStudy::coverage_adaptive`], plus
    /// [`CoreError::Checkpoint`] on checkpoint failures.
    pub fn coverage_adaptive_durable(
        &self,
        calib: &DfCalibration,
        r_values: &[f64],
        t_factors: &[f64],
        policy: &AdaptivePolicy,
        crossover: Option<&[CoverageCurve]>,
        checkpoint: &Checkpoint<Vec<f64>>,
    ) -> Result<AdaptiveReport, CoreError> {
        let grid = self.grid(calib, r_values, t_factors);
        self.coverage_adaptive_inner(grid, policy, crossover, Some(checkpoint))
    }

    /// The [`CheckpointSpec`] identifying a durable
    /// [`DfStudy::coverage_adaptive_durable`] run. The digest additionally
    /// covers the stopping policy, the factor grid, and any crossover
    /// reference curves, because all three steer which samples run; the
    /// record space reserves `3 × policy.max_samples` slots (first pass
    /// plus the refinement extension at its `max_samples` offset).
    ///
    /// The digest also carries the row tag and format version of
    /// [`DfStudy::coverage_checkpoint_spec`], so a checkpoint written
    /// before needs could be censored is refused.
    ///
    /// `T₀` is not an argument, so the digest cannot cover it. A record
    /// searched against another `T₀` is still never guessed from: the
    /// fold refuses a row whose simulated columns cannot decide a skipped
    /// one under this run's thresholds, or that holds a censored need
    /// whose floor does not clear one of them ([`CoreError::Checkpoint`]),
    /// and a row they do decide yields the verdicts its full row would.
    pub fn adaptive_checkpoint_spec(
        &self,
        r_values: &[f64],
        t_factors: &[f64],
        policy: &AdaptivePolicy,
        crossover: Option<&[CoverageCurve]>,
    ) -> CheckpointSpec {
        let cross_bits: Vec<Vec<u64>> = crossover
            .unwrap_or(&[])
            .iter()
            .map(|c| c.coverage.iter().map(|v| v.to_bits()).collect())
            .collect();
        let digest = pulsar_obs::config_digest(&format!(
            "df-adaptive put={:?} variation={:?} ff={:?} margin={:016x} policy={:?} \
             factors={:?} r={:?} crossover={:?} rows={} v{}",
            self.put,
            self.mc.variation,
            self.ff,
            self.clock_margin.to_bits(),
            policy,
            t_factors.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            r_values.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            cross_bits,
            rows_tag(self.trend()),
            DF_ROWS_FORMAT,
        ));
        CheckpointSpec {
            config_digest: digest,
            seed: self.mc.seed,
            samples: 3 * policy.max_samples,
        }
    }

    /// [`DfStudy::coverage_adaptive`] with every active column of every
    /// row simulated, each delay to its crossing: the forced full-grid,
    /// full-window arm the critical-resistance search and the verdict
    /// bound are checked against. Its optional checkpoint (opened with
    /// [`DfStudy::adaptive_checkpoint_spec`]) records the exact rows.
    #[doc(hidden)]
    pub fn coverage_adaptive_full_grid(
        &self,
        calib: &DfCalibration,
        r_values: &[f64],
        t_factors: &[f64],
        policy: &AdaptivePolicy,
        crossover: Option<&[CoverageCurve]>,
        checkpoint: Option<&Checkpoint<Vec<f64>>>,
    ) -> Result<AdaptiveReport, CoreError> {
        let mut grid = AdaptiveGrid::delay(r_values, t_factors, calib.t0, None);
        grid.bounded = false;
        self.coverage_adaptive_inner(grid, policy, crossover, checkpoint)
    }

    fn coverage_adaptive_inner(
        &self,
        grid: AdaptiveGrid<'_>,
        policy: &AdaptivePolicy,
        crossover: Option<&[CoverageCurve]>,
        checkpoint: Option<&Checkpoint<Vec<f64>>>,
    ) -> Result<AdaptiveReport, CoreError> {
        if let Some(ck) = checkpoint {
            ck.expect_spec(&self.adaptive_checkpoint_spec(
                grid.r_values,
                grid.factors,
                policy,
                crossover,
            ))?;
        }
        let eval = self.faulty_eval(grid.r_values)?;
        run_adaptive(
            &self.mc,
            policy,
            "df-adaptive",
            &grid,
            crossover,
            checkpoint,
            eval,
        )
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

    fn draw_techs(&self, rng: &mut StdRng) -> (Vec<Tech>, f64) {
        let techs = self
            .mc
            .variation
            .sample_techs(&self.put.tech, self.put.spec.len(), rng);
        // Pulse-generator width uncertainty (paper §3, point a).
        let gen_factor = self.mc.variation.sample_sensor(1.0, rng);
        (techs, gen_factor)
    }

    /// The declared direction of the output width along R (DESIGN.md
    /// §5.12): a resistive open dampens the pulse more as it grows, so the
    /// width falls; a bridge fights the pulse less as it weakens, so the
    /// width rises. `None` under [`McConfig::dc_warm_start`], whose values
    /// depend on the order of the sweep.
    fn trend(&self) -> Option<Trend> {
        if self.mc.dc_warm_start {
            return None;
        }
        match self.put.defect {
            DefectKind::ExternalRop | DefectKind::InternalRop { .. } => Some(Trend::Falling),
            DefectKind::Bridge { .. } => Some(Trend::Rising),
        }
    }

    /// The faulty-row kernel every pulse coverage run shares — fixed,
    /// durable and adaptive. Lints the sweep and primes the faulty
    /// topology once; the returned closure draws one instance and measures
    /// its output width, injecting `w_in` times the instance's generator
    /// factor, at the resistances of the row it is handed that the grid's
    /// search picks (all of them without a grid).
    fn faulty_eval(&self, w_in: f64, r_values: &[f64]) -> Result<impl RowEval + '_, CoreError> {
        lint_preflight(&self.put, Some(r_values))?;
        let nominal_techs = vec![self.put.tech; self.put.spec.len()];
        let symbolic = prime(&self.mc, || {
            self.put.instantiate(&nominal_techs, r_values[0])
        });
        Ok(
            move |attempt,
                  rng: &mut StdRng,
                  rec: &Recorder,
                  t: &CancelToken,
                  rs: &[f64],
                  grid: Option<&AdaptiveGrid<'_>>| {
                let (techs, gen_factor) = self.draw_techs(rng);
                let mut p = self.put.instantiate(&techs, rs[0]);
                ready(&mut p, &self.mc, &symbolic, attempt, rng, rec, t);
                AdaptiveGrid::measure_row(grid, rs, rec, |r| {
                    p.set_resistance(r)?;
                    p.pulse_width_out(w_in * gen_factor, self.polarity)
                })
            },
        )
    }

    /// The fault-free kernel behind [`PulseStudy::fault_free_wouts`] and
    /// [`PulseStudy::fault_free_wouts_fixed_width`]: output widths of the
    /// resolved instances, injecting `width(gen_factor)` — the caller
    /// decides whether the drawn generator factor applies.
    fn fault_free_run(
        &self,
        label: &'static str,
        width: impl Fn(f64) -> f64 + Sync,
    ) -> Result<Vec<f64>, CoreError> {
        lint_preflight(&self.put, None)?;
        let nominal_techs = vec![self.put.tech; self.put.spec.len()];
        let symbolic = prime(&self.mc, || self.put.instantiate_fault_free(&nominal_techs));
        let report = run_plain(|token| {
            self.mc
                .try_run_samples_durable(label, token, None, |_, attempt, rng, rec, t| {
                    let (techs, gen_factor) = self.draw_techs(rng);
                    let mut p = self.put.instantiate_fault_free(&techs);
                    ready(&mut p, &self.mc, &symbolic, attempt, rng, rec, t);
                    p.pulse_width_out(width(gen_factor), self.polarity)
                })
        })?;
        Ok(report.into_resolved())
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
        self.fault_free_run("pulse-fault-free", |gen_factor| w_in * gen_factor)
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
        self.fault_free_run("pulse-fixed-width", |_| w_in)
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

    /// Faulty output widths with per-sample fault isolation:
    /// `outcomes[sample]` resolves to the per-resistance row.
    ///
    /// # Errors
    ///
    /// [`CoreError::LintRejected`] when the configuration fails the static
    /// preflight (out-of-range stage, non-physical or empty sweep);
    /// [`CoreError::FailureBudgetExceeded`] when too many samples stay
    /// failed after retries; the run-cancelled error when
    /// [`ResilienceConfig::deadline`] cut the run short.
    pub fn try_faulty_wouts(
        &self,
        w_in: f64,
        r_values: &[f64],
    ) -> Result<McRunReport<Vec<f64>>, CoreError> {
        run_plain(|token| self.try_faulty_wouts_durable(w_in, r_values, token, None))
    }

    /// Output widths of every *resolved* instance at every resistance:
    /// `wouts[sample][r_index]`, injecting `w_in` (per-instance generator
    /// fluctuation included).
    ///
    /// # Errors
    ///
    /// Propagates simulation failures (via the failure budget).
    pub fn faulty_wouts(&self, w_in: f64, r_values: &[f64]) -> Result<Vec<Vec<f64>>, CoreError> {
        Ok(self.try_faulty_wouts(w_in, r_values)?.into_resolved())
    }

    /// Full study: `C_pulse(R)` curves at each `ω_th = factor × ω_th⁰`
    /// (the paper plots factors 0.9 / 1.0 / 1.1). Detection = the output
    /// pulse is *narrower than the sensing threshold* (the sensor sees no
    /// transition).
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn coverage(
        &self,
        calib: &PulseCalibration,
        r_values: &[f64],
        th_factors: &[f64],
    ) -> Result<Vec<CoverageCurve>, CoreError> {
        Ok(self.coverage_with_report(calib, r_values, th_factors)?.0)
    }

    /// Like [`PulseStudy::coverage`], also returning the failure
    /// accounting of the underlying Monte Carlo run. Coverage is computed
    /// over the resolved samples; each curve's `unresolved` field records
    /// the excluded fraction, and its `completeness` a run that
    /// [`ResilienceConfig::deadline`] cut short.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn coverage_with_report(
        &self,
        calib: &PulseCalibration,
        r_values: &[f64],
        th_factors: &[f64],
    ) -> Result<(Vec<CoverageCurve>, FailureReport), CoreError> {
        self.coverage_durable(calib, r_values, th_factors, &CancelToken::new(), None)
    }

    /// The [`CheckpointSpec`] identifying a durable
    /// [`PulseStudy::try_faulty_wouts_durable`] run: the digest covers the
    /// path under test, the variation model, polarity, injected width, and
    /// the exact resistance sweep (bit patterns). Coverage runs use
    /// [`PulseStudy::coverage_checkpoint_spec`].
    pub fn faulty_checkpoint_spec(&self, w_in: f64, r_values: &[f64]) -> CheckpointSpec {
        let digest = pulsar_obs::config_digest(&format!(
            "pulse-faulty put={:?} variation={:?} polarity={:?} w_in={:016x} r={:?}",
            self.put,
            self.mc.variation,
            self.polarity,
            w_in.to_bits(),
            r_values.iter().map(|r| r.to_bits()).collect::<Vec<_>>()
        ));
        CheckpointSpec {
            config_digest: digest,
            seed: self.mc.seed,
            samples: self.mc.samples,
        }
    }

    /// Durable variant of [`PulseStudy::try_faulty_wouts`]:
    /// checkpoint/resume plus deadlines, per-sample timeouts, and panic
    /// containment from [`McConfig::try_run_samples_durable`]. The
    /// attempt's cancellation token is installed in the solver workspace,
    /// so a deadline interrupts a sample *mid-solve*, not just between
    /// samples.
    ///
    /// # Errors
    ///
    /// As for [`PulseStudy::try_faulty_wouts`], plus
    /// [`CoreError::Checkpoint`] on checkpoint failures or a checkpoint
    /// opened with another spec than
    /// [`PulseStudy::faulty_checkpoint_spec`].
    pub fn try_faulty_wouts_durable(
        &self,
        w_in: f64,
        r_values: &[f64],
        run_token: &CancelToken,
        checkpoint: Option<&Checkpoint<Vec<f64>>>,
    ) -> Result<DurableRun<Vec<f64>>, CoreError> {
        if let Some(ck) = checkpoint {
            ck.expect_spec(&self.faulty_checkpoint_spec(w_in, r_values))?;
        }
        let eval = self.faulty_eval(w_in, r_values)?;
        self.mc.try_run_samples_durable(
            "pulse-faulty",
            run_token,
            checkpoint,
            |_, a, rng, rec, t| eval(a, rng, rec, t, r_values, None),
        )
    }

    /// The coverage grid of a calibrated run, searched per row when the
    /// defect class declares a direction.
    fn grid<'a>(
        &self,
        calib: &PulseCalibration,
        r_values: &'a [f64],
        th_factors: &'a [f64],
    ) -> AdaptiveGrid<'a> {
        AdaptiveGrid::pulse(r_values, th_factors, calib.w_th, self.trend())
    }

    /// The [`CheckpointSpec`] identifying a durable
    /// [`PulseStudy::coverage_durable`] run. Its records are sparse rows,
    /// only meaningful under the thresholds they were searched against,
    /// so on top of [`PulseStudy::faulty_checkpoint_spec`]'s identity the
    /// digest covers `ω_th⁰`, the factor grid (bit patterns) and a
    /// `rows=sparse` tag. A width-row checkpoint never resumes a coverage
    /// run, nor the reverse.
    pub fn coverage_checkpoint_spec(
        &self,
        calib: &PulseCalibration,
        r_values: &[f64],
        th_factors: &[f64],
    ) -> CheckpointSpec {
        let digest = pulsar_obs::config_digest(&format!(
            "pulse-coverage put={:?} variation={:?} polarity={:?} w_in={:016x} w_th={:016x} \
             factors={:?} r={:?} rows={}",
            self.put,
            self.mc.variation,
            self.polarity,
            calib.w_in.to_bits(),
            calib.w_th.to_bits(),
            th_factors.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            r_values.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            rows_tag(self.trend()),
        ));
        CheckpointSpec {
            config_digest: digest,
            seed: self.mc.seed,
            samples: self.mc.samples,
        }
    }

    /// Durable variant of [`PulseStudy::coverage_with_report`]: coverage
    /// over whatever samples completed, with the honest denominator
    /// recorded in each curve's [`CoverageCurve::completeness`]. Each
    /// instance is simulated only at the resistances its
    /// critical-resistance search needs (DESIGN.md §5.12); the curves are
    /// bit-identical to a full-grid run.
    ///
    /// # Errors
    ///
    /// As for [`PulseStudy::try_faulty_wouts`], plus
    /// [`CoreError::Checkpoint`] on checkpoint failures or a checkpoint
    /// opened with another spec than
    /// [`PulseStudy::coverage_checkpoint_spec`].
    pub fn coverage_durable(
        &self,
        calib: &PulseCalibration,
        r_values: &[f64],
        th_factors: &[f64],
        run_token: &CancelToken,
        checkpoint: Option<&Checkpoint<Vec<f64>>>,
    ) -> Result<(Vec<CoverageCurve>, FailureReport), CoreError> {
        if let Some(ck) = checkpoint {
            ck.expect_spec(&self.coverage_checkpoint_spec(calib, r_values, th_factors))?;
        }
        let eval = self.faulty_eval(calib.w_in, r_values)?;
        let grid = self.grid(calib, r_values, th_factors);
        let run = self.mc.try_run_samples_durable(
            "pulse-faulty",
            run_token,
            checkpoint,
            |_, a, rng, rec, t| eval(a, rng, rec, t, r_values, Some(&grid)),
        )?;
        let rows: Vec<&Vec<f64>> = run.resolved_indexed().map(|(_, v)| v).collect();
        let curves = grid.curves(&rows, run.failures.unresolved_fraction(), run.completeness)?;
        Ok((curves, run.failures))
    }

    /// Adaptive-sampling variant of [`PulseStudy::coverage`]: per
    /// resistance column, samples stop as soon as every factor's coverage
    /// interval meets `policy.precision` over the ordered sample prefix,
    /// and the saved budget refines the columns near the coverage
    /// threshold (and, when `crossover` supplies the DF study's curves on
    /// the same grid, near the `C_pulse − C_del` crossover).
    /// Bit-identical across thread counts. Rejects
    /// [`McConfig::dc_warm_start`], which would couple a measurement to
    /// the sweep points evaluated before it, and
    /// [`ResilienceConfig::deadline`], which the report cannot account for.
    ///
    /// # Errors
    ///
    /// As for [`PulseStudy::coverage`], plus [`CoreError::Unsupported`]
    /// for `dc_warm_start`, a deadline, or crossover curves on a different
    /// grid.
    pub fn coverage_adaptive(
        &self,
        calib: &PulseCalibration,
        r_values: &[f64],
        th_factors: &[f64],
        policy: &AdaptivePolicy,
        crossover: Option<&[CoverageCurve]>,
    ) -> Result<AdaptiveReport, CoreError> {
        let grid = self.grid(calib, r_values, th_factors);
        self.coverage_adaptive_inner(calib, grid, policy, crossover, None)
    }

    /// Durable variant of [`PulseStudy::coverage_adaptive`]: every
    /// evaluated sample row is checkpointed (first-pass rows at their
    /// stream index, refinement rows offset by `policy.max_samples`), and
    /// a resumed run replays the stopping decisions over the restored
    /// values — the curves are bit-identical to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// As for [`PulseStudy::coverage_adaptive`], plus
    /// [`CoreError::Checkpoint`] on checkpoint failures.
    pub fn coverage_adaptive_durable(
        &self,
        calib: &PulseCalibration,
        r_values: &[f64],
        th_factors: &[f64],
        policy: &AdaptivePolicy,
        crossover: Option<&[CoverageCurve]>,
        checkpoint: &Checkpoint<Vec<f64>>,
    ) -> Result<AdaptiveReport, CoreError> {
        let grid = self.grid(calib, r_values, th_factors);
        self.coverage_adaptive_inner(calib, grid, policy, crossover, Some(checkpoint))
    }

    /// The [`CheckpointSpec`] identifying a durable
    /// [`PulseStudy::coverage_adaptive_durable`] run. The digest
    /// additionally covers the calibration (`ω_in⁰` and, because the
    /// records are rows searched against its thresholds, `ω_th⁰`), the
    /// stopping policy, the factor grid, and any crossover reference
    /// curves; the record space reserves `3 × policy.max_samples` slots
    /// (first pass plus the refinement extension at its `max_samples`
    /// offset).
    pub fn adaptive_checkpoint_spec(
        &self,
        calib: &PulseCalibration,
        r_values: &[f64],
        th_factors: &[f64],
        policy: &AdaptivePolicy,
        crossover: Option<&[CoverageCurve]>,
    ) -> CheckpointSpec {
        let cross_bits: Vec<Vec<u64>> = crossover
            .unwrap_or(&[])
            .iter()
            .map(|c| c.coverage.iter().map(|v| v.to_bits()).collect())
            .collect();
        let digest = pulsar_obs::config_digest(&format!(
            "pulse-adaptive put={:?} variation={:?} polarity={:?} w_in={:016x} w_th={:016x} \
             policy={:?} factors={:?} r={:?} crossover={:?}",
            self.put,
            self.mc.variation,
            self.polarity,
            calib.w_in.to_bits(),
            calib.w_th.to_bits(),
            policy,
            th_factors.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            r_values.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            cross_bits,
        ));
        CheckpointSpec {
            config_digest: digest,
            seed: self.mc.seed,
            samples: 3 * policy.max_samples,
        }
    }

    /// [`PulseStudy::coverage_adaptive`] with every active column of
    /// every row simulated: the forced full-grid arm the
    /// critical-resistance search is checked against.
    #[doc(hidden)]
    pub fn coverage_adaptive_full_grid(
        &self,
        calib: &PulseCalibration,
        r_values: &[f64],
        th_factors: &[f64],
        policy: &AdaptivePolicy,
        crossover: Option<&[CoverageCurve]>,
    ) -> Result<AdaptiveReport, CoreError> {
        let grid = AdaptiveGrid::pulse(r_values, th_factors, calib.w_th, None);
        self.coverage_adaptive_inner(calib, grid, policy, crossover, None)
    }

    fn coverage_adaptive_inner(
        &self,
        calib: &PulseCalibration,
        grid: AdaptiveGrid<'_>,
        policy: &AdaptivePolicy,
        crossover: Option<&[CoverageCurve]>,
        checkpoint: Option<&Checkpoint<Vec<f64>>>,
    ) -> Result<AdaptiveReport, CoreError> {
        if let Some(ck) = checkpoint {
            ck.expect_spec(&self.adaptive_checkpoint_spec(
                calib,
                grid.r_values,
                grid.factors,
                policy,
                crossover,
            ))?;
        }
        let eval = self.faulty_eval(calib.w_in, grid.r_values)?;
        run_adaptive(
            &self.mc,
            policy,
            "pulse-adaptive",
            &grid,
            crossover,
            checkpoint,
            eval,
        )
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

    fn bits(rows: &[&Vec<f64>]) -> Vec<Vec<u64>> {
        rows.iter()
            .map(|r| r.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    #[test]
    fn durable_df_run_matches_plain_bit_for_bit() {
        let study = DfStudy::new(put(), tiny_mc());
        let rs = [10e3, 100e3];
        let plain = study.try_faulty_needs(&rs).unwrap();
        let durable = study
            .try_faulty_needs_durable(&rs, &CancelToken::new(), None)
            .unwrap();
        assert!(durable.is_complete());
        let plain_rows: Vec<&Vec<f64>> = plain.resolved().collect();
        let durable_rows: Vec<&Vec<f64>> = durable.resolved_indexed().map(|(_, v)| v).collect();
        assert_eq!(bits(&plain_rows), bits(&durable_rows));
    }

    #[test]
    fn df_resume_from_truncated_checkpoint_is_bit_identical() {
        let study = DfStudy::new(put(), tiny_mc());
        let rs = [10e3, 100e3];
        let path = tmp("df-trunc");
        let _ = std::fs::remove_file(&path);
        let spec = study.faulty_checkpoint_spec(&rs);
        let ck = Checkpoint::create(&path, spec).unwrap();
        let full = study
            .try_faulty_needs_durable(&rs, &CancelToken::new(), Some(&ck))
            .unwrap();
        drop(ck);

        // A kill can land on any byte: chop the tail mid-record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        let ck = Checkpoint::open(&path, spec).unwrap();
        let resumed = study
            .try_faulty_needs_durable(&rs, &CancelToken::new(), Some(&ck))
            .unwrap();
        let full_rows: Vec<&Vec<f64>> = full.resolved_indexed().map(|(_, v)| v).collect();
        let resumed_rows: Vec<&Vec<f64>> = resumed.resolved_indexed().map(|(_, v)| v).collect();
        assert_eq!(bits(&full_rows), bits(&resumed_rows));
        assert!(resumed.is_complete());
        assert!(
            resumed.completeness.resumed < study.mc.samples,
            "truncation must have dropped at least one record"
        );
        let _ = std::fs::remove_file(&path);
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
            .coverage_durable(&cal, &[10e3], &[1.0], &token, None)
            .unwrap();
        assert_eq!(report.samples, 0, "nothing ran, nothing counted");
        assert_eq!(curves[0].completeness.done, 0);
        assert_eq!(curves[0].completeness.truncated, Some("interrupted"));
        assert!(!curves[0].completeness.is_complete());
    }

    #[test]
    fn pulse_resume_matches_the_uninterrupted_run() {
        let study = PulseStudy::new(put(), tiny_mc(), Polarity::PositiveGoing);
        let cal = study.calibrate().unwrap();
        let rs = [10e3, 100e3];
        let path = tmp("pulse-trunc");
        let _ = std::fs::remove_file(&path);
        let spec = study.faulty_checkpoint_spec(cal.w_in, &rs);
        let ck = Checkpoint::create(&path, spec).unwrap();
        let full = study
            .try_faulty_wouts_durable(cal.w_in, &rs, &CancelToken::new(), Some(&ck))
            .unwrap();
        drop(ck);

        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() * 3 / 5]).unwrap();

        let ck = Checkpoint::open(&path, spec).unwrap();
        let resumed = study
            .try_faulty_wouts_durable(cal.w_in, &rs, &CancelToken::new(), Some(&ck))
            .unwrap();
        let full_rows: Vec<&Vec<f64>> = full.resolved_indexed().map(|(_, v)| v).collect();
        let resumed_rows: Vec<&Vec<f64>> = resumed.resolved_indexed().map(|(_, v)| v).collect();
        assert_eq!(bits(&full_rows), bits(&resumed_rows));
        assert!(resumed.is_complete());
        let _ = std::fs::remove_file(&path);
    }
}
