use std::fmt;

/// Errors surfaced by the pulse-testing methodology layer.
///
/// Wraps the substrate errors (electrical solver, logic netlist) and adds
/// methodology-level failures (no sensitizable path, empty calibration
/// sample).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// Electrical simulation failed.
    Analog(pulsar_analog::Error),
    /// Netlist processing failed.
    Logic(pulsar_logic::LogicError),
    /// No path through the fault site could be sensitized.
    NoSensitizablePath {
        /// Name of the fault-site signal.
        site: String,
    },
    /// A calibration step was asked to operate on an empty sample set or
    /// an empty sweep.
    EmptyCalibration {
        /// Which calibration input was empty.
        what: &'static str,
    },
    /// The requested measurement is not supported by this engine (e.g.
    /// bridge defects on the logic-level engine).
    Unsupported {
        /// What was requested.
        what: &'static str,
    },
    /// Too many Monte Carlo samples stayed failed after all permitted
    /// retries — the study result would be statistically untrustworthy,
    /// so the run aborts instead of returning a silently biased curve.
    FailureBudgetExceeded {
        /// Aggregate accounting: counts by error kind, the worst sample
        /// indices, and the retry histogram.
        report: Box<crate::resilience::FailureReport>,
    },
    /// The configuration failed the static lint preflight: a structural
    /// error no retry can fix. Raised *before* any sample runs, so the
    /// failure budget and retry machinery are never engaged.
    LintRejected {
        /// The full lint report (error-severity findings included).
        report: Box<pulsar_lint::LintReport>,
    },
    /// A worker panic was caught by the opt-in containment path
    /// ([`ResilienceConfig::contain_panics`](crate::ResilienceConfig)) and
    /// converted into an ordinary per-sample failure, so it counts against
    /// the failure budget instead of unwinding the whole run.
    Panic {
        /// The captured panic message.
        message: String,
    },
    /// A coverage plan asked for a run no sampler can honour (an adaptive
    /// policy with a zero budget, a zero round length or a NaN or negative
    /// precision). Raised before any sample runs.
    InvalidPlan {
        /// What was wrong with the plan.
        reason: String,
    },
    /// A checkpoint file could not be used for resume: unreadable,
    /// malformed beyond the torn-tail tolerance, or recorded under a
    /// different configuration (digest/seed/sample-count mismatch).
    Checkpoint {
        /// What was wrong with the checkpoint.
        reason: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Analog(e) => write!(f, "electrical simulation failed: {e}"),
            CoreError::Logic(e) => write!(f, "netlist processing failed: {e}"),
            CoreError::NoSensitizablePath { site } => {
                write!(f, "no sensitizable path through fault site `{site}`")
            }
            CoreError::EmptyCalibration { what } => {
                write!(f, "calibration input `{what}` is empty")
            }
            CoreError::Unsupported { what } => write!(f, "unsupported on this engine: {what}"),
            CoreError::FailureBudgetExceeded { report } => {
                write!(f, "Monte Carlo failure budget exceeded: {report}")
            }
            CoreError::LintRejected { report } => {
                write!(
                    f,
                    "configuration rejected by static lint ({}); first finding: {}",
                    report.summary(),
                    report
                        .errors()
                        .next()
                        .map(|d| format!("[{}] {}: {}", d.code, d.subject, d.message))
                        .unwrap_or_else(|| "none".to_owned())
                )
            }
            CoreError::Panic { message } => {
                write!(f, "sample worker panicked: {message}")
            }
            CoreError::InvalidPlan { reason } => write!(f, "invalid coverage plan: {reason}"),
            CoreError::Checkpoint { reason } => {
                write!(f, "checkpoint unusable: {reason}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Analog(e) => Some(e),
            CoreError::Logic(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pulsar_analog::Error> for CoreError {
    fn from(e: pulsar_analog::Error) -> Self {
        CoreError::Analog(e)
    }
}

impl From<pulsar_logic::LogicError> for CoreError {
    fn from(e: pulsar_logic::LogicError) -> Self {
        CoreError::Logic(e)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use std::error::Error as _;

    #[test]
    fn wraps_substrate_errors_with_source() {
        let e: CoreError = pulsar_analog::Error::SingularMatrix { row: 1 }.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("electrical"));

        let e: CoreError = pulsar_logic::LogicError::UnknownSignal { name: "x".into() }.into();
        assert!(e.source().is_some());
    }

    #[test]
    fn methodology_errors_have_no_source() {
        let e = CoreError::NoSensitizablePath { site: "n42".into() };
        assert!(e.source().is_none());
        assert!(e.to_string().contains("n42"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
