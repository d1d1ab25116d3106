//! Resilient Monte Carlo runs: retry policy, per-sample outcome
//! accounting, and the failure budget.
//!
//! A coverage study is thousands of transient solves; one Newton
//! non-convergence must not throw the rest away. The machinery here turns
//! abort-on-first-error into a three-state resolution per sample
//! ([`SampleOutcome`]: `Ok` / `Recovered` / `Failed`), with:
//!
//! * a **retry ladder** — failed samples re-run under an escalated solver
//!   configuration (see `BuiltPath::set_robustness` in `pulsar-cells`),
//!   bounded by [`ResilienceConfig::max_attempts`] and bit-identical
//!   across thread counts because every attempt re-derives the sample's
//!   seeded RNG stream;
//! * a **failure budget** — the tolerated fraction of samples that may
//!   stay `Failed`; exceeding it aborts the study with
//!   [`CoreError::FailureBudgetExceeded`] carrying a [`FailureReport`],
//!   so partial results are never silently wrong.

use crate::error::CoreError;
use pulsar_mc::SampleOutcome;
use std::collections::BTreeMap;
use std::fmt;

/// How many failed samples a report keeps verbatim (worst first).
const MAX_WORST: usize = 8;

/// Retry and failure-budget policy for fault-isolated Monte Carlo runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// Attempts per sample, the first one included (≥ 1; 1 = no retries).
    /// Retry `k` runs at escalation level `k − 1` of the solver ladder.
    pub max_attempts: u32,
    /// Tolerated fraction of samples that may end `Failed` after all
    /// retries. `0.0` (the default) means any unrecovered failure aborts
    /// the study — the legacy abort-on-error semantics, now with a full
    /// [`FailureReport`] instead of a bare first error.
    pub failure_budget: f64,
    /// Wall-clock budget for the whole run. When it expires the run token
    /// trips with [`CancelReason::Deadline`](pulsar_obs::CancelReason):
    /// in-flight samples bail out at the next step-loop check, unstarted
    /// samples never run, and the partial result is reported with honest
    /// completeness instead of being thrown away (an entry point whose
    /// report has no completeness returns the run-cancelled error, and
    /// adaptive runs reject a deadline up front). `None` (default) = no
    /// deadline.
    pub deadline: Option<std::time::Duration>,
    /// Wall-clock budget for a single sample *attempt*. A stuck attempt is
    /// cancelled with [`CancelReason::Timeout`](pulsar_obs::CancelReason),
    /// which is retryable — the sample re-runs under the escalated solver
    /// ladder with a fresh budget before it is declared failed. `None`
    /// (default) = no per-sample watchdog.
    pub sample_timeout: Option<std::time::Duration>,
    /// Opt-in panic containment: a panicking sample is caught and
    /// accounted as a [`CoreError::Panic`] failure against the failure
    /// budget. Off by default — a panic then unwinds the run (after
    /// sibling worker shards have been joined), preserving the legacy
    /// fail-fast behavior.
    pub contain_panics: bool,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            max_attempts: 3,
            failure_budget: 0.0,
            deadline: None,
            sample_timeout: None,
            contain_panics: false,
        }
    }
}

impl ResilienceConfig {
    /// No retries, no tolerance: every sample must succeed first try.
    pub fn strict() -> Self {
        ResilienceConfig {
            max_attempts: 1,
            ..ResilienceConfig::default()
        }
    }

    /// `max_attempts` retries with a failure budget of `failure_budget`.
    pub fn tolerant(max_attempts: u32, failure_budget: f64) -> Self {
        ResilienceConfig {
            max_attempts,
            failure_budget,
            ..ResilienceConfig::default()
        }
    }
}

/// Whether an error is worth retrying under a tightened solver
/// configuration. Newton non-convergence and step-budget exhaustion are
/// plausibly numerical and retryable, as are a per-sample timeout (the
/// retry gets a fresh wall-clock budget under the escalated ladder) and a
/// contained panic (the hardened configuration may sidestep it);
/// everything else — singular matrix, bad parameters, methodology errors,
/// and run-level cancellation (interrupt/deadline, which no retry can
/// outlive) — is not.
pub fn is_retryable(e: &CoreError) -> bool {
    use pulsar_obs::CancelReason;
    matches!(
        e,
        CoreError::Analog(
            pulsar_analog::Error::NoConvergence { .. }
                | pulsar_analog::Error::StepBudgetExhausted { .. }
                | pulsar_analog::Error::Cancelled {
                    reason: CancelReason::Timeout,
                    ..
                }
        ) | CoreError::Panic { .. }
    )
}

/// True when the error is a *run-level* cancellation (operator interrupt
/// or deadline expiry) rather than a per-sample failure: the sample was
/// cut short by the run ending, so durable entry points report it as
/// not-done (completeness accounting) instead of failed (budget
/// accounting).
pub fn is_run_cancelled(e: &CoreError) -> bool {
    use pulsar_obs::CancelReason;
    matches!(
        e,
        CoreError::Analog(pulsar_analog::Error::Cancelled {
            reason: CancelReason::User | CancelReason::Deadline,
            ..
        })
    )
}

/// Stable label for an error's kind, used to aggregate failure counts.
pub fn error_kind(e: &CoreError) -> &'static str {
    match e {
        CoreError::Analog(a) => match a {
            pulsar_analog::Error::SingularMatrix { .. } => "singular-matrix",
            pulsar_analog::Error::NoConvergence { .. } => "non-convergence",
            pulsar_analog::Error::StepBudgetExhausted { .. } => "step-budget-exhausted",
            pulsar_analog::Error::InvalidParameter { .. } => "invalid-parameter",
            pulsar_analog::Error::UnknownNode { .. } => "unknown-node",
            pulsar_analog::Error::InvalidTranConfig { .. } => "invalid-tran-config",
            // "interrupted" / "deadline" / "sample-timeout".
            pulsar_analog::Error::Cancelled { reason, .. } => reason.label(),
            pulsar_analog::Error::Internal { .. } => "internal",
            _ => "analog-other",
        },
        CoreError::Logic(_) => "logic",
        CoreError::NoSensitizablePath { .. } => "no-sensitizable-path",
        CoreError::EmptyCalibration { .. } => "empty-calibration",
        CoreError::Unsupported { .. } => "unsupported",
        CoreError::FailureBudgetExceeded { .. } => "failure-budget-exceeded",
        CoreError::LintRejected { .. } => "lint-rejected",
        CoreError::Panic { .. } => "panic",
        CoreError::Checkpoint { .. } => "checkpoint",
        CoreError::InvalidPlan { .. } => "invalid-plan",
        // `CoreError` is non_exhaustive: future variants default here.
        #[allow(unreachable_patterns)]
        _ => "other",
    }
}

/// Aggregate failure accounting of one fault-isolated Monte Carlo run.
///
/// Attached to [`CoreError::FailureBudgetExceeded`] when the run aborts,
/// and available from [`McRunReport::failures`] when it completes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FailureReport {
    /// Total samples in the run.
    pub samples: usize,
    /// Samples that resolved only after retries.
    pub recovered: usize,
    /// Samples that stayed failed after all permitted attempts.
    pub failed: usize,
    /// The budget the run was held to (fraction of `samples`).
    pub failure_budget: f64,
    /// Failure counts by error kind (see [`error_kind`]), most frequent
    /// first.
    pub by_kind: Vec<(&'static str, usize)>,
    /// The worst failed samples — most attempts spent first, capped at a
    /// handful: `(sample index, attempts, final error)`.
    pub worst: Vec<(usize, u32, CoreError)>,
    /// Retry histogram: `(attempts, samples that spent exactly that
    /// many)`, ascending in attempts, all samples counted.
    pub retry_histogram: Vec<(u32, usize)>,
}

impl FailureReport {
    /// Builds the accounting from index-aligned sample outcomes.
    pub fn from_outcomes<T>(outcomes: &[SampleOutcome<T, CoreError>], failure_budget: f64) -> Self {
        Self::from_indexed(outcomes.iter().enumerate(), outcomes.len(), failure_budget)
    }

    /// Builds the accounting from explicitly indexed outcomes — the
    /// durable-run path, where cancelled (not-done) samples are absent
    /// and `samples` counts only the ones that ran to a conclusion.
    pub fn from_indexed<'a, T: 'a>(
        outcomes: impl IntoIterator<Item = (usize, &'a SampleOutcome<T, CoreError>)>,
        samples: usize,
        failure_budget: f64,
    ) -> Self {
        let mut by_kind: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut hist: BTreeMap<u32, usize> = BTreeMap::new();
        let mut failures: Vec<(usize, u32, CoreError)> = Vec::new();
        let mut recovered = 0usize;

        for (i, o) in outcomes {
            *hist.entry(o.attempts()).or_default() += 1;
            match o {
                SampleOutcome::Ok(_) => {}
                SampleOutcome::Recovered { .. } => recovered += 1,
                SampleOutcome::Failed { error, attempts } => {
                    *by_kind.entry(error_kind(error)).or_default() += 1;
                    failures.push((i, *attempts, error.clone()));
                }
            }
        }

        let failed = failures.len();
        // Worst offenders: most attempts burned, then lowest index.
        failures.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        failures.truncate(MAX_WORST);
        let mut by_kind: Vec<(&'static str, usize)> = by_kind.into_iter().collect();
        by_kind.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));

        FailureReport {
            samples,
            recovered,
            failed,
            failure_budget,
            by_kind,
            worst: failures,
            retry_histogram: hist.into_iter().collect(),
        }
    }

    /// Fraction of samples that stayed failed (0.0 for an empty run).
    pub fn unresolved_fraction(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.failed as f64 / self.samples as f64
        }
    }

    /// Whether the failed count exceeds the budget. The budget is a
    /// fraction of the sample count; with a budget of `0.0` any failure
    /// exceeds it.
    pub fn exceeds_budget(&self) -> bool {
        self.failed as f64 > self.failure_budget * self.samples as f64 + 1e-12
    }

    /// True when every sample resolved on the first attempt.
    pub fn is_clean(&self) -> bool {
        self.failed == 0 && self.recovered == 0
    }
}

impl fmt::Display for FailureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} of {} samples unresolved, {} recovered (budget {:.2}%)",
            self.failed,
            self.samples,
            self.recovered,
            self.failure_budget * 100.0
        )?;
        if !self.by_kind.is_empty() {
            write!(f, "; failures:")?;
            for (kind, n) in &self.by_kind {
                write!(f, " {kind}×{n}")?;
            }
        }
        if self.retry_histogram.iter().any(|&(a, _)| a > 1) {
            write!(f, "; attempts:")?;
            for (attempts, n) in &self.retry_histogram {
                write!(f, " {attempts}×{n}")?;
            }
        }
        Ok(())
    }
}

/// The full result of a fault-isolated Monte Carlo run: per-sample
/// outcomes (index-aligned with the sample stream) plus the aggregate
/// [`FailureReport`].
#[derive(Debug, Clone)]
pub struct McRunReport<T> {
    /// Outcome of sample `i` at index `i`.
    pub outcomes: Vec<SampleOutcome<T, CoreError>>,
    /// Aggregate failure accounting.
    pub failures: FailureReport,
}

impl<T> McRunReport<T> {
    /// Values of the resolved samples, in sample order.
    pub fn resolved(&self) -> impl Iterator<Item = &T> + '_ {
        self.outcomes.iter().filter_map(|o| o.value())
    }

    /// Consumes the report, keeping only resolved values (sample order).
    pub fn into_resolved(self) -> Vec<T> {
        self.outcomes
            .into_iter()
            .filter_map(|o| o.into_value())
            .collect()
    }

    /// Fraction of samples that stayed failed.
    pub fn unresolved_fraction(&self) -> f64 {
        self.failures.unresolved_fraction()
    }

    /// Total samples in the run.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// True for a zero-sample run.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    fn failed(i: usize, attempts: u32, e: CoreError) -> SampleOutcome<f64, CoreError> {
        let _ = i;
        SampleOutcome::Failed { error: e, attempts }
    }

    fn nonconv() -> CoreError {
        CoreError::Analog(pulsar_analog::Error::NoConvergence {
            context: "transient",
            iterations: 60,
            time: 1e-9,
        })
    }

    #[test]
    fn retryability_is_by_kind() {
        assert!(is_retryable(&nonconv()));
        assert!(is_retryable(&CoreError::Analog(
            pulsar_analog::Error::StepBudgetExhausted {
                points: 10,
                time: 0.0
            }
        )));
        assert!(!is_retryable(&CoreError::Analog(
            pulsar_analog::Error::SingularMatrix { row: 0 }
        )));
        assert!(!is_retryable(&CoreError::Unsupported { what: "x" }));
    }

    #[test]
    fn report_aggregates_counts_and_histogram() {
        let outcomes: Vec<SampleOutcome<f64, CoreError>> = vec![
            SampleOutcome::Ok(1.0),
            SampleOutcome::Recovered {
                value: 2.0,
                attempts: 2,
            },
            failed(2, 3, nonconv()),
            SampleOutcome::Ok(3.0),
            failed(
                4,
                1,
                CoreError::Analog(pulsar_analog::Error::SingularMatrix { row: 7 }),
            ),
        ];
        let r = FailureReport::from_outcomes(&outcomes, 0.01);
        assert_eq!(r.samples, 5);
        assert_eq!(r.recovered, 1);
        assert_eq!(r.failed, 2);
        assert_eq!(
            r.by_kind,
            vec![("non-convergence", 1), ("singular-matrix", 1)]
        );
        assert_eq!(r.retry_histogram, vec![(1, 3), (2, 1), (3, 1)]);
        // Worst first: most attempts spent.
        assert_eq!(r.worst[0].0, 2);
        assert_eq!(r.worst[0].1, 3);
        assert!(r.exceeds_budget(), "2/5 is far above a 1% budget");
        assert!((r.unresolved_fraction() - 0.4).abs() < 1e-12);
        let text = r.to_string();
        assert!(text.contains("non-convergence×1"), "{text}");
    }

    #[test]
    fn budget_boundary_is_respected() {
        let mk = |failed_n: usize, total: usize, budget: f64| {
            let outcomes: Vec<SampleOutcome<f64, CoreError>> = (0..total)
                .map(|i| {
                    if i < failed_n {
                        failed(i, 1, nonconv())
                    } else {
                        SampleOutcome::Ok(0.0)
                    }
                })
                .collect();
            FailureReport::from_outcomes(&outcomes, budget)
        };
        assert!(!mk(0, 64, 0.0).exceeds_budget());
        assert!(mk(1, 64, 0.0).exceeds_budget());
        assert!(mk(3, 64, 0.01).exceeds_budget(), "3 > 0.64 allowed");
        assert!(!mk(3, 64, 0.05).exceeds_budget(), "3 <= 3.2 allowed");
        assert!(!mk(0, 0, 0.0).exceeds_budget(), "empty run is clean");
    }

    #[test]
    fn run_report_filters_resolved() {
        let report = McRunReport {
            outcomes: vec![
                SampleOutcome::Ok(1.0),
                failed(1, 2, nonconv()),
                SampleOutcome::Recovered {
                    value: 3.0,
                    attempts: 2,
                },
            ],
            failures: FailureReport::default(),
        };
        assert_eq!(
            report.resolved().copied().collect::<Vec<_>>(),
            vec![1.0, 3.0]
        );
        assert_eq!(report.len(), 3);
        assert_eq!(report.into_resolved(), vec![1.0, 3.0]);
    }
}
