//! The adaptive sequential-sampling engine behind an adaptive
//! [`Plan`](crate::Plan), run by [`DfStudy::run`](crate::DfStudy::run)
//! and [`PulseStudy::run`](crate::PulseStudy::run).
//!
//! A fixed-budget coverage study spends the same N transient solves on
//! every grid point even where 32 samples already pin the coverage down.
//! The adaptive engine consumes the `stream_seed`-ordered sample stream
//! in rounds and runs two phases:
//!
//! 1. **Early stopping** — after each round, every still-running
//!    resistance column computes a binomial confidence interval
//!    ([`AdaptivePolicy`] picks Wilson or Clopper–Pearson) on each
//!    factor's coverage over the *ordered prefix* consumed so far, and
//!    stops once the loosest factor's half-width meets the requested
//!    precision. Workers compute a round's samples in parallel, but the
//!    decision loop consumes rounds in stream order, so the decided
//!    per-column sample count is bit-identical across thread counts.
//! 2. **Crossover refinement** — the budget saved by early stops is
//!    reallocated to the columns whose interval straddles the coverage
//!    threshold, neighbors a sign change of `coverage − threshold`, or
//!    (when a reference study is supplied) neighbors a sign change of
//!    the cross-method difference `C_pulse − C_del`. Refined columns
//!    extend their *own* sample stream — sample `i`'s instance depends
//!    only on `(seed, i)` — toward a twice-as-tight target, capped at
//!    [`AdaptivePolicy::refine_cap`]; the pass spends at most
//!    [`AdaptivePolicy::refine_fraction`] of the savings, so anything
//!    below `1.0` banks the rest as net speedup.
//!
//! Durability: phase-1 samples checkpoint at their stream index, phase-2
//! extensions at `max_samples + index`, so the record spaces never
//! collide and [`CheckpointSpec::samples`](crate::CheckpointSpec) is
//! `3 × max_samples`. A resumed run replays the same decision loop over
//! restored values and therefore re-derives the same per-column stopping
//! points — the resumed curves are bit-identical to an uninterrupted run.
//!
//! Subset purity is the load-bearing assumption: a sample's measured
//! value at resistance `r` must not depend on which *other* resistances
//! the row evaluates, nor in which order. The study row kernels guarantee
//! it by drawing the instance before any measurement and cold-starting
//! every DC solve.
//! The same purity lets each row simulate only the columns its
//! critical-resistance search picks among the active ones
//! ([`AdaptiveGrid::measure_row`]); the tallies fold the skipped columns'
//! verdicts by the shared inference rule, so the report is bit-identical
//! to a full-grid run and [`AdaptiveReport::evals`] keeps counting
//! `(sample, column)` decisions.

use crate::checkpoint::Checkpoint;
use crate::durable::{run_cancelled, run_samples, settle_failures, Completeness};
use crate::error::CoreError;
use crate::resilience::FailureReport;
use crate::study::{CoverageCurve, McConfig};
use pulsar_mc::{
    sign_change_neighbors, AdaptivePolicy, BinomialInterval, PointAccuracy, SampleOutcome,
    SequentialTally,
};
use pulsar_obs::{CancelToken, Counter as ObsCounter, Event, Recorder};
use rand::rngs::StdRng;

/// Which way a study's measured value moves as the defect resistance
/// grows, declared per study and defect class (DESIGN.md §5.12). The
/// declaration is what lets a coverage row skip columns: with the value
/// monotone in R, each threshold's verdict flips at most once along the
/// row, so the columns between two simulated ones that agree share their
/// verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Trend {
    /// Non-decreasing in R.
    Rising,
    /// Non-increasing in R.
    Falling,
}

/// The coverage grid a study evaluates — resistance columns × test-condition
/// factors, with one detection threshold per factor — and the one home of
/// the detection rule, which the fixed-sample curves and the adaptive
/// tallies both apply, and of the critical-resistance search that decides
/// which columns of a row are simulated at all.
pub(crate) struct AdaptiveGrid<'a> {
    /// Fault resistances (the columns), ohms.
    pub r_values: &'a [f64],
    /// Test-condition factors (`T/T₀` or `ω_th/ω_th⁰`).
    pub factors: &'a [f64],
    /// Absolute detection threshold per factor (`factor × T₀` or
    /// `factor × ω_th⁰`).
    pub thresholds: Vec<f64>,
    /// `true`: a measured value *below* the threshold detects (pulse
    /// dampening); `false`: a value above detects (DF slack violation).
    pub detect_below: bool,
    /// The declared direction of the measured value along R; `None`
    /// simulates every column of every row.
    pub trend: Option<Trend>,
    /// Whether a delay grid's queries may stop at the verdict bound
    /// ([`AdaptiveGrid::verdict_bound`]); `false` runs every query to its
    /// crossing.
    pub bounded: bool,
}

impl<'a> AdaptiveGrid<'a> {
    /// The grid whose thresholds are `factor × nominal`. A DF grid
    /// (`detect_below = false`) detects a slack need above the test
    /// period `factor × T₀`; a pulse grid detects an output pulse narrower
    /// than the sensing threshold `factor × ω_th⁰`, which the sensor never
    /// sees. Only a DF grid bounds its delay queries.
    pub(crate) fn new(
        r_values: &'a [f64],
        factors: &'a [f64],
        nominal: f64,
        detect_below: bool,
        trend: Option<Trend>,
    ) -> Self {
        AdaptiveGrid {
            r_values,
            factors,
            thresholds: factors.iter().map(|&f| f * nominal).collect(),
            detect_below,
            trend,
            bounded: !detect_below,
        }
    }

    /// The verdict bound of a delay grid (DESIGN.md §5.13): an instance
    /// whose flop adds `overhead` to the path delay fails every test
    /// period once its delay exceeds the returned value, so a delay query
    /// may stop there. It is the largest threshold less `overhead`, nudged
    /// up to where the floating-point need clears that threshold too.
    /// `∞` (measure every delay) for a pulse or unbounded grid.
    pub(crate) fn verdict_bound(&self, overhead: f64) -> f64 {
        let top = self
            .thresholds
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        if !self.bounded || !top.is_finite() || !overhead.is_finite() {
            return f64::INFINITY;
        }
        let mut within = top - overhead;
        // A floor above `within` then gives `floor + overhead > top`,
        // since rounded addition is monotone.
        while within + overhead <= top {
            within = within.next_up();
        }
        within
    }

    /// The detection rule: does measured `value` detect at threshold `th`?
    ///
    /// A negative value on a delay grid is a censored need ([`censored`]):
    /// the need is proven to exceed `−value`, which decides only the
    /// thresholds below it; any other threshold refuses the row, as the
    /// bound it was measured under was not this grid's.
    fn detects(&self, value: f64, th: f64) -> Result<bool, CoreError> {
        if self.detect_below {
            return Ok(value < th);
        }
        if value < 0.0 {
            let floor = -value;
            return if th < floor {
                Ok(true)
            } else {
                Err(CoreError::Checkpoint {
                    reason: format!(
                        "a censored slack need (above {floor:e} s) cannot decide the test \
                         period {th:e} s — it was bounded against other thresholds"
                    ),
                })
            };
        }
        Ok(th < value)
    }

    /// The positions of columns `rs` along which detection never switches
    /// off, at every threshold: ascending resistance when detection rises
    /// with R, descending when it falls. `None` without a declared trend.
    fn axis(&self, rs: &[f64]) -> Option<Vec<usize>> {
        let rises = (self.trend? == Trend::Falling) == self.detect_below;
        let mut axis: Vec<usize> = (0..rs.len()).collect();
        axis.sort_by(|&a, &b| rs[a].total_cmp(&rs[b]));
        if !rises {
            axis.reverse();
        }
        Some(axis)
    }

    /// The verdicts of one row at every threshold, column-major into `out`
    /// (`out[c × factors + f]`); `row[c]` is the value at resistance
    /// `rs[c]`, `NaN` where the column was not simulated and [`censored`]
    /// where a slack need is known only to exceed a floor.
    ///
    /// The one inference rule: a skipped column takes the verdict its
    /// nearest simulated neighbours on both sides of the detection axis
    /// agree on, the axis's low end counting as undetected and its high
    /// end as detected. A row the search produced always agrees; one that
    /// does not was searched against other thresholds (a checkpoint from
    /// another calibration), and is refused rather than guessed.
    pub(crate) fn verdicts(
        &self,
        rs: &[f64],
        row: &[f64],
        out: &mut Vec<bool>,
    ) -> Result<(), CoreError> {
        let nfac = self.thresholds.len();
        out.clear();
        for &v in row {
            for &th in &self.thresholds {
                out.push(self.detects(v, th)?);
            }
        }
        if !row.iter().any(|v| v.is_nan()) {
            return Ok(());
        }
        let undecided = |c: usize| CoreError::Checkpoint {
            reason: format!(
                "a sparse coverage row leaves R = {:e} undecided — it was searched against \
                 other thresholds",
                rs[c]
            ),
        };
        let axis = self.axis(rs).ok_or_else(|| {
            let c = row.iter().position(|v| v.is_nan()).unwrap_or(0);
            undecided(c)
        })?;
        let mut pending = Vec::new();
        for f in 0..nfac {
            let mut left = false;
            for &c in &axis {
                if row[c].is_nan() {
                    pending.push(c);
                    continue;
                }
                let d = out[c * nfac + f];
                for p in pending.drain(..) {
                    if left != d {
                        return Err(undecided(p));
                    }
                    out[p * nfac + f] = d;
                }
                left = d;
            }
            for p in pending.drain(..) {
                if !left {
                    return Err(undecided(p));
                }
                out[p * nfac + f] = true;
            }
        }
        Ok(())
    }

    /// The row kernel's column plan: `probe` measures the instance at one
    /// resistance, and the returned row holds its value at each column of
    /// `rs`, `NaN` where the column was not simulated.
    ///
    /// Without a grid (the width and need row APIs) or a declared trend,
    /// every column is simulated. Otherwise a lattice of every
    /// `⌈√n⌉`-th column along the detection axis, plus its last one, is
    /// simulated first, and each threshold's boundary is then bisected
    /// inside the lattice interval that brackets it, so a row costs about
    /// `√n` probes plus `log₂ √n` per interval holding a boundary,
    /// wherever its boundaries fall. If the probed verdicts contradict
    /// the declared direction, the rest of the row is simulated too, and
    /// its real values decide.
    pub(crate) fn measure_row(
        grid: Option<&Self>,
        rs: &[f64],
        rec: &Recorder,
        mut probe: impl FnMut(f64) -> Result<f64, CoreError>,
    ) -> Result<Vec<f64>, CoreError> {
        let mut row = vec![f64::NAN; rs.len()];
        let mut simulated = 0u64;
        let mut at = |c: usize, row: &mut [f64]| -> Result<f64, CoreError> {
            if row[c].is_nan() {
                row[c] = probe(rs[c])?;
                debug_assert!(!row[c].is_nan(), "a measured value is never NaN");
                simulated += 1;
            }
            Ok(row[c])
        };
        let searched = match grid.and_then(|g| Some((g, g.axis(rs)?))) {
            Some((grid, axis)) => grid.search(&axis, &mut row, &mut at)?,
            None => false,
        };
        if !searched {
            for c in 0..rs.len() {
                at(c, &mut row)?;
            }
        }
        rec.add(ObsCounter::ColumnsSimulated, simulated);
        rec.add(ObsCounter::ColumnsInferred, rs.len() as u64 - simulated);
        Ok(row)
    }

    /// Searches every threshold's boundary along `axis`, probing through
    /// `at`; `false` when the probed verdicts contradict the declared
    /// direction.
    fn search(
        &self,
        axis: &[usize],
        row: &mut [f64],
        at: &mut impl FnMut(usize, &mut [f64]) -> Result<f64, CoreError>,
    ) -> Result<bool, CoreError> {
        // The lattice: it fixes most of a row's cost whatever the
        // instance, and lets the guard below see the whole row.
        let n = axis.len();
        let stride = (1..=n).find(|&s| s * s >= n).unwrap_or(1);
        for k in (0..n).step_by(stride).chain(n.checked_sub(1)) {
            at(axis[k], row)?;
        }
        // Nesting order: each threshold detects a superset of the
        // previous one's columns, so its boundary lies at or below it and
        // the earlier probes narrow its bracket.
        let mut ths = self.thresholds.clone();
        ths.sort_by(f64::total_cmp);
        if !self.detect_below {
            ths.reverse();
        }
        for &th in &ths {
            // Bracket the boundary (the first detecting axis position)
            // with what the probes so far already say, then bisect it.
            let (mut lo, mut hi) = (0, n);
            for (k, &c) in axis.iter().enumerate() {
                if row[c].is_nan() {
                    continue;
                } else if self.detects(row[c], th)? {
                    hi = hi.min(k);
                } else {
                    lo = lo.max(k + 1);
                }
            }
            while lo < hi {
                let k = lo + (hi - lo) / 2;
                if self.detects(at(axis[k], row)?, th)? {
                    hi = k;
                } else {
                    lo = k + 1;
                }
            }
        }
        // The runtime guard: along the axis, every threshold's probed
        // verdicts must switch on at most once and never off.
        for &th in &ths {
            let mut on = false;
            for &c in axis.iter().filter(|&&c| !row[c].is_nan()) {
                let d = self.detects(row[c], th)?;
                if on && !d {
                    return Ok(false);
                }
                on = d;
            }
        }
        Ok(true)
    }

    /// Fixed-sample coverage curves, one per factor: at each point the
    /// fraction of the resolved `rows` (`row[c]` = a sample's value at
    /// resistance column `c`, `NaN` where the search skipped it) that
    /// detect, by [`AdaptiveGrid::verdicts`].
    pub(crate) fn curves<R: AsRef<[f64]>>(
        &self,
        rows: &[R],
        unresolved: f64,
        completeness: Completeness,
    ) -> Result<Vec<CoverageCurve>, CoreError> {
        let (ncols, nfac) = (self.r_values.len(), self.factors.len());
        let mut detected = vec![0usize; ncols * nfac];
        let mut det = Vec::with_capacity(ncols * nfac);
        for row in rows {
            self.verdicts(self.r_values, row.as_ref(), &mut det)?;
            for (n, &d) in detected.iter_mut().zip(&det) {
                *n += usize::from(d);
            }
        }
        let n = rows.len().max(1) as f64;
        let coverage = |c: usize, f: usize| detected[c * nfac + f] as f64 / n;
        Ok(self.curve_set(coverage, unresolved, completeness))
    }

    /// One curve per factor, `coverage(c, f)` at column `c`.
    fn curve_set(
        &self,
        coverage: impl Fn(usize, usize) -> f64,
        unresolved: f64,
        completeness: Completeness,
    ) -> Vec<CoverageCurve> {
        let curve = |(f, &factor): (usize, &f64)| CoverageCurve {
            factor,
            resistance: self.r_values.to_vec(),
            coverage: (0..self.r_values.len()).map(|c| coverage(c, f)).collect(),
            unresolved,
            completeness,
        };
        self.factors.iter().enumerate().map(curve).collect()
    }
}

/// The row encoding of a censored slack need: one proven to exceed
/// `floor`, stored as `−floor` (DESIGN.md §5.13). Needs are positive, so
/// the sign tells it apart from an exact need, and `NaN` still marks a
/// column the search skipped.
pub(crate) fn censored(floor: f64) -> f64 {
    debug_assert!(floor > 0.0, "a need floor is positive");
    -floor
}

/// One grid point of an adaptive run: estimate, interval, and the
/// accuracy actually achieved.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptivePoint {
    /// Test-condition factor of the point.
    pub factor: f64,
    /// Fault resistance of the point, ohms.
    pub resistance: f64,
    /// Coverage estimate at stop (resolved samples only).
    pub coverage: f64,
    /// Confidence interval on the coverage at stop.
    pub interval: BinomialInterval,
    /// Requested vs measured precision and the spend that bought it.
    pub accuracy: PointAccuracy,
    /// True when the refinement pass extended this point's column.
    pub refined: bool,
}

/// The result of an adaptive coverage run: the usual curves plus the
/// per-point measured accuracy and the evaluation accounting.
#[derive(Debug, Clone)]
pub struct AdaptiveReport {
    /// Coverage curves, one per factor — same shape as the fixed-budget
    /// [`DfStudy::coverage`](crate::DfStudy::coverage) output.
    pub curves: Vec<CoverageCurve>,
    /// Per-point records in factor-major grid order.
    pub points: Vec<AdaptivePoint>,
    /// The first-pass precision the run was asked for.
    pub precision: f64,
    /// The first-pass per-column sample budget.
    pub max_samples: usize,
    /// `(sample, column)` evaluations actually spent, both phases.
    pub evals: u64,
    /// Evaluations a fixed-budget run over the same grid would spend.
    pub fixed_budget_evals: u64,
    /// Evaluations spent by the refinement pass alone.
    pub refine_evals: u64,
    /// Failure accounting over every evaluated stream sample.
    pub failures: FailureReport,
}

impl AdaptiveReport {
    /// The manifest block recording this run's measured accuracy.
    pub fn to_manifest(&self) -> pulsar_obs::AdaptiveManifest {
        pulsar_obs::AdaptiveManifest {
            precision: self.precision,
            max_samples: self.max_samples as u64,
            evals: self.evals,
            fixed_budget_evals: self.fixed_budget_evals,
            points: self
                .points
                .iter()
                .map(|p| pulsar_obs::AdaptivePointRecord {
                    factor: p.factor,
                    resistance: p.resistance,
                    coverage: p.coverage,
                    requested_halfwidth: p.accuracy.requested_halfwidth,
                    achieved_halfwidth: p.accuracy.achieved_halfwidth,
                    samples_spent: p.accuracy.samples_spent,
                    stopped_early: p.accuracy.stopped_early,
                    refined: p.refined,
                })
                .collect(),
        }
    }
}

/// Mutable state threaded through the rounds of one adaptive run.
struct RunState {
    /// One tally per resistance column.
    tally: Vec<SequentialTally>,
    /// Stream samples evaluated per column (failed ones included).
    spent: Vec<u64>,
    /// Every evaluated stream sample, keyed by its checkpoint record
    /// index, for the failure report.
    outcomes: Vec<(usize, SampleOutcome<(), CoreError>)>,
    /// Total `(sample, column)` evaluations.
    evals: u64,
    /// Refinement-pass share of `evals`.
    refine_evals: u64,
    /// Per-sample verdict scratch (column-major), reused across rows.
    det: Vec<bool>,
}

/// Which columns the refinement pass extends: any column whose interval
/// straddles the coverage threshold at some factor, any neighbor of a
/// sign change of `coverage − threshold` along the resistance axis, and
/// any neighbor of a sign change of `coverage − reference` when a
/// crossover reference study is supplied.
fn refine_mask(
    policy: &AdaptivePolicy,
    grid: &AdaptiveGrid<'_>,
    tally: &[SequentialTally],
    crossover: Option<&[CoverageCurve]>,
) -> Vec<bool> {
    let ncols = grid.r_values.len();
    let mut refine = vec![false; ncols];
    for (c, t) in tally.iter().enumerate() {
        for f in 0..grid.factors.len() {
            if t.interval(policy, f).straddles(policy.threshold) {
                refine[c] = true;
            }
        }
    }
    let mut mark_signs = |diffs: &[f64]| {
        for (c, m) in sign_change_neighbors(diffs).into_iter().enumerate() {
            if m {
                refine[c] = true;
            }
        }
    };
    let mut diffs = vec![0.0; ncols];
    for f in 0..grid.factors.len() {
        for (c, d) in diffs.iter_mut().enumerate() {
            *d = tally[c].coverage(f) - policy.threshold;
        }
        mark_signs(&diffs);
    }
    if let Some(reference) = crossover {
        for (f, curve) in reference.iter().enumerate().take(grid.factors.len()) {
            for (c, d) in diffs.iter_mut().enumerate() {
                *d = tally[c].coverage(f) - curve.coverage[c];
            }
            mark_signs(&diffs);
        }
    }
    refine
}

/// A study's faulty-row kernel: draws one Monte Carlo instance from the
/// attempt's RNG stream and measures it at the resistances of the row it
/// is handed — all of them without a grid, the ones the grid's
/// critical-resistance search picks with one ([`AdaptiveGrid::measure_row`]).
/// The adaptive runner and the search need it to be a pure function of
/// `(stream index, attempt, resistance)`: the same instance under another
/// resistance subset, or in another order, yields bit-identical values.
pub(crate) type RowEval<'s> = Box<
    dyn Fn(
            u32,
            &mut StdRng,
            &Recorder,
            &CancelToken,
            &[f64],
            Option<&AdaptiveGrid<'_>>,
        ) -> Result<Vec<f64>, CoreError>
        + Sync
        + 's,
>;

/// The generic adaptive coverage runner over a study's [`RowEval`],
/// evaluated at the *active* resistance subset of each round. A report
/// cannot account for a truncated run, so a tripped `cancel` fails it
/// with the run-cancelled error; the checkpoint keeps what finished.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_adaptive(
    mc: &McConfig,
    policy: &AdaptivePolicy,
    label: &str,
    grid: &AdaptiveGrid<'_>,
    crossover: Option<&[CoverageCurve]>,
    cancel: &CancelToken,
    checkpoint: Option<&Checkpoint<Vec<f64>>>,
    eval: RowEval<'_>,
) -> Result<AdaptiveReport, CoreError> {
    if mc.resilience.deadline.is_some() {
        // A deadline truncates a run, and the report has no
        // `Completeness` to say so.
        return Err(CoreError::Unsupported {
            what: "adaptive sampling with a deadline",
        });
    }
    let ncols = grid.r_values.len();
    let nfac = grid.factors.len();
    if let Some(reference) = crossover {
        if reference.iter().any(|c| c.coverage.len() != ncols) {
            return Err(CoreError::Unsupported {
                what: "crossover reference curves on a different resistance grid",
            });
        }
    }
    let max = policy.max_samples;

    let mut state = RunState {
        tally: (0..ncols).map(|_| SequentialTally::new(nfac)).collect(),
        spent: vec![0; ncols],
        outcomes: Vec::new(),
        evals: 0,
        refine_evals: 0,
        det: Vec::with_capacity(ncols * nfac),
    };
    let mut stopped_early = vec![false; ncols];

    // One round runs stream samples `[lo, hi)` over the `active` columns
    // through the shared sample loop and folds the outcomes — in stream
    // order — into the tallies. Phase 2 passes `offset = max_samples` so
    // its checkpoint records and journal indices never collide with phase
    // 1's. Only `cancel` leaves a slot unresolved (a deadline is rejected
    // above; a sample timeout cancels one attempt, never the run).
    let refine_label = format!("{label}-refine");
    let run_round = |state: &mut RunState,
                     lo: usize,
                     hi: usize,
                     active: &[usize],
                     offset: usize|
     -> Result<(), CoreError> {
        let refine = offset > 0;
        let active_r: Vec<f64> = active.iter().map(|&c| grid.r_values[c]).collect();
        let slots = run_samples(
            mc,
            if refine { &refine_label } else { label },
            lo..hi,
            offset,
            cancel,
            checkpoint,
            |_, attempt, rng, rec, t| eval(attempt, rng, rec, t, &active_r, Some(grid)),
        );
        for (i, slot) in (lo..).zip(slots) {
            let o = slot.ok_or_else(|| run_cancelled(cancel))?;
            state.evals += active.len() as u64;
            if refine {
                state.refine_evals += active.len() as u64;
            }
            if let Some(row) = o.value() {
                if row.len() != active.len() {
                    return Err(CoreError::Checkpoint {
                        reason: format!(
                            "record {} holds {} values but {} columns were active — \
                             the checkpoint was written by a different sweep",
                            offset + i,
                            row.len(),
                            active.len()
                        ),
                    });
                }
                grid.verdicts(&active_r, row, &mut state.det)?;
                for (j, &c) in active.iter().enumerate() {
                    state.tally[c].push(&state.det[j * nfac..(j + 1) * nfac]);
                }
            }
            state.outcomes.push((offset + i, o.map(|_| ())));
        }
        Ok(())
    };

    // Phase 1: early stopping over the shared stream prefix. All live
    // columns consume the same rounds, so a stop decision at `cursor`
    // means the column's prefix is exactly `cursor` samples long.
    let mut live: Vec<usize> = (0..ncols).collect();
    let mut cursor = 0usize;
    while !live.is_empty() && cursor < max {
        let len = policy.round_len(cursor, max);
        run_round(&mut state, cursor, cursor + len, &live, 0)?;
        for &c in &live {
            state.spent[c] += len as u64;
        }
        cursor += len;
        live.retain(|&c| {
            let t = &state.tally[c];
            if policy.met(t.worst_halfwidth(policy), t.trials() as usize) {
                stopped_early[c] = cursor < max;
                false
            } else {
                true
            }
        });
    }

    // Phase 2: reallocate the saved budget to the crossover columns.
    // Each refined column resumes its own stream where phase 1 stopped
    // it, so the extension is a pure continuation of the same prefix.
    let entry: Vec<usize> = state.spent.iter().map(|&s| s as usize).collect();
    let saved: u64 = state.spent.iter().map(|&s| max as u64 - s).sum();
    let refine = refine_mask(policy, grid, &state.tally, crossover);
    let refine_count = refine.iter().filter(|&&b| b).count() as u64;
    let share = policy
        .refine_budget(saved)
        .checked_div(refine_count)
        .unwrap_or(0) as usize;
    let mut refined = vec![false; ncols];
    if share > 0 {
        let cap: Vec<usize> = (0..ncols)
            .map(|c| {
                if refine[c] {
                    (entry[c] + share).min(policy.refine_cap())
                } else {
                    entry[c]
                }
            })
            .collect();
        let target = policy.refined_precision();
        let mut live: Vec<usize> = (0..ncols).filter(|&c| cap[c] > entry[c]).collect();
        for &c in &live {
            refined[c] = true;
        }
        let mut cursor = live.iter().map(|&c| entry[c]).min().unwrap_or(0);
        while !live.is_empty() {
            let active: Vec<usize> = live
                .iter()
                .copied()
                .filter(|&c| entry[c] <= cursor)
                .collect();
            if active.is_empty() {
                cursor = live
                    .iter()
                    .map(|&c| entry[c])
                    .filter(|&e| e > cursor)
                    .min()
                    .expect("a live column either entered or has a future entry");
                continue;
            }
            // Round ends at the chunk boundary, the next column entry, or
            // the earliest active cap — whichever comes first — so the
            // active set is constant within every driver call.
            let mut hi = cursor + policy.chunk.max(1);
            for &c in &live {
                if entry[c] > cursor {
                    hi = hi.min(entry[c]);
                }
            }
            for &c in &active {
                hi = hi.min(cap[c]);
            }
            debug_assert!(hi > cursor, "refinement rounds must advance");
            run_round(&mut state, cursor, hi, &active, max)?;
            for &c in &active {
                state.spent[c] += (hi - cursor) as u64;
            }
            cursor = hi;
            live.retain(|&c| {
                if entry[c] > cursor {
                    return true;
                }
                let t = &state.tally[c];
                let met = t.trials() as usize >= policy.min_samples
                    && t.worst_halfwidth(policy) <= target;
                if met || cursor >= cap[c] {
                    stopped_early[c] = met && cursor < cap[c];
                    false
                } else {
                    true
                }
            });
        }
    }

    let failures = settle_failures(
        state.outcomes.iter().map(|(i, o)| (*i, o)),
        state.outcomes.len(),
        mc.resilience.failure_budget,
        checkpoint,
    )?;

    let fixed_budget_evals = ncols as u64 * max as u64;
    mc.obs.add(
        ObsCounter::AdaptiveSamplesSaved,
        fixed_budget_evals.saturating_sub(state.evals),
    );
    mc.obs
        .add(ObsCounter::AdaptiveRefineSamples, state.refine_evals);

    let curves = grid.curve_set(
        |c, f| state.tally[c].coverage(f),
        failures.unresolved_fraction(),
        Completeness::full(failures.samples),
    );
    let mut points = Vec::with_capacity(nfac * ncols);
    for (f, &factor) in grid.factors.iter().enumerate() {
        for (c, &resistance) in grid.r_values.iter().enumerate() {
            let interval = state.tally[c].interval(policy, f);
            let accuracy = PointAccuracy {
                requested_halfwidth: if refined[c] {
                    policy.refined_precision()
                } else {
                    policy.precision
                },
                achieved_halfwidth: interval.halfwidth(),
                samples_spent: state.spent[c],
                stopped_early: stopped_early[c],
            };
            if mc.obs.is_enabled() {
                let mut ev = Event::new("point", f * ncols + c);
                ev.label = Some(format!("{label} f={factor} r={resistance}"));
                if refined[c] {
                    ev.detail = Some("refined".to_owned());
                }
                ev.requested_halfwidth = Some(accuracy.requested_halfwidth);
                ev.achieved_halfwidth = Some(accuracy.achieved_halfwidth);
                ev.samples_spent = Some(accuracy.samples_spent);
                ev.stopped_early = Some(accuracy.stopped_early);
                mc.obs.event(ev);
            }
            points.push(AdaptivePoint {
                factor,
                resistance,
                coverage: state.tally[c].coverage(f),
                interval,
                accuracy,
                refined: refined[c],
            });
        }
    }

    Ok(AdaptiveReport {
        curves,
        points,
        precision: policy.precision,
        max_samples: max,
        evals: state.evals,
        fixed_budget_evals,
        refine_evals: state.refine_evals,
        failures,
    })
}
