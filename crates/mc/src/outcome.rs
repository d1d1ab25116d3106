//! Per-sample resolution of a fault-isolated Monte Carlo run.

/// How one Monte Carlo sample resolved under
/// [`MonteCarlo::try_run_range_resumed`](crate::MonteCarlo::try_run_range_resumed).
///
/// The three states form a small lattice ordered by how much trust the
/// sample deserves: `Ok` (clean first attempt) ≥ `Recovered` (a retry
/// with an escalated solver configuration succeeded) ≥ `Failed` (every
/// permitted attempt errored). `Ok` and `Recovered` are *resolved* —
/// they carry a value usable for coverage statistics; `Failed` samples
/// are the *unresolved fraction* a study must report rather than
/// silently drop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleOutcome<T, E> {
    /// The first attempt succeeded.
    Ok(T),
    /// A retry succeeded; `attempts` counts all attempts including the
    /// final successful one (so it is always ≥ 2).
    Recovered {
        /// The successful attempt's result.
        value: T,
        /// Total attempts spent, including the successful one.
        attempts: u32,
    },
    /// Every permitted attempt failed; `error` is from the last attempt.
    Failed {
        /// The final attempt's error.
        error: E,
        /// Total attempts spent.
        attempts: u32,
    },
}

impl<T, E> SampleOutcome<T, E> {
    /// The resolved value, if any (`Ok` or `Recovered`).
    pub fn value(&self) -> Option<&T> {
        match self {
            SampleOutcome::Ok(v) | SampleOutcome::Recovered { value: v, .. } => Some(v),
            SampleOutcome::Failed { .. } => None,
        }
    }

    /// Consumes the outcome, yielding the resolved value if any.
    pub fn into_value(self) -> Option<T> {
        match self {
            SampleOutcome::Ok(v) | SampleOutcome::Recovered { value: v, .. } => Some(v),
            SampleOutcome::Failed { .. } => None,
        }
    }

    /// The terminal error, if the sample failed.
    pub fn error(&self) -> Option<&E> {
        match self {
            SampleOutcome::Failed { error, .. } => Some(error),
            _ => None,
        }
    }

    /// Total attempts spent on the sample (1 for a clean `Ok`).
    pub fn attempts(&self) -> u32 {
        match self {
            SampleOutcome::Ok(_) => 1,
            SampleOutcome::Recovered { attempts, .. } | SampleOutcome::Failed { attempts, .. } => {
                *attempts
            }
        }
    }

    /// Whether the sample carries a usable value.
    pub fn is_resolved(&self) -> bool {
        !matches!(self, SampleOutcome::Failed { .. })
    }

    /// Whether the sample needed (successful) retries.
    pub fn is_recovered(&self) -> bool {
        matches!(self, SampleOutcome::Recovered { .. })
    }

    /// Whether the sample exhausted its attempts without resolving.
    pub fn is_failed(&self) -> bool {
        matches!(self, SampleOutcome::Failed { .. })
    }

    /// Maps the resolved value, preserving attempt accounting.
    pub fn map<U, F: FnOnce(T) -> U>(self, f: F) -> SampleOutcome<U, E> {
        match self {
            SampleOutcome::Ok(v) => SampleOutcome::Ok(f(v)),
            SampleOutcome::Recovered { value, attempts } => SampleOutcome::Recovered {
                value: f(value),
                attempts,
            },
            SampleOutcome::Failed { error, attempts } => SampleOutcome::Failed { error, attempts },
        }
    }

    /// Maps the error, preserving attempt accounting.
    pub fn map_err<G, F: FnOnce(E) -> G>(self, f: F) -> SampleOutcome<T, G> {
        match self {
            SampleOutcome::Ok(v) => SampleOutcome::Ok(v),
            SampleOutcome::Recovered { value, attempts } => {
                SampleOutcome::Recovered { value, attempts }
            }
            SampleOutcome::Failed { error, attempts } => SampleOutcome::Failed {
                error: f(error),
                attempts,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::SampleOutcome;

    #[test]
    fn accessors_match_variants() {
        let ok: SampleOutcome<u32, &str> = SampleOutcome::Ok(7);
        assert_eq!(ok.value(), Some(&7));
        assert_eq!(ok.attempts(), 1);
        assert!(ok.is_resolved() && !ok.is_recovered() && !ok.is_failed());

        let rec: SampleOutcome<u32, &str> = SampleOutcome::Recovered {
            value: 9,
            attempts: 3,
        };
        assert_eq!(rec.value(), Some(&9));
        assert_eq!(rec.attempts(), 3);
        assert!(rec.is_resolved() && rec.is_recovered());

        let failed: SampleOutcome<u32, &str> = SampleOutcome::Failed {
            error: "boom",
            attempts: 2,
        };
        assert_eq!(failed.value(), None);
        assert_eq!(failed.error(), Some(&"boom"));
        assert_eq!(failed.attempts(), 2);
        assert!(failed.is_failed() && !failed.is_resolved());
    }

    #[test]
    fn map_preserves_attempts() {
        let rec: SampleOutcome<u32, &str> = SampleOutcome::Recovered {
            value: 4,
            attempts: 2,
        };
        let mapped = rec.map(|v| v * 10).map_err(|e| e.len());
        assert_eq!(
            mapped,
            SampleOutcome::Recovered {
                value: 40,
                attempts: 2
            }
        );
    }
}
