use std::fmt;

/// Errors from netlist construction, parsing and analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LogicError {
    /// ISCAS-85 text describes a combinational cycle through the named
    /// signal (a built [`Netlist`](crate::Netlist) cannot hold one).
    CombinationalLoop {
        /// Name of a signal on the cycle.
        signal: String,
    },
    /// A gate was declared with an input-pin count its kind cannot have.
    BadArity {
        /// Gate kind as text.
        kind: &'static str,
        /// Offending pin count.
        pins: usize,
    },
    /// ISCAS-85 text could not be parsed.
    Parse {
        /// 1-based source line.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A referenced signal name is not defined anywhere in the source.
    UnknownSignal {
        /// The undefined name.
        name: String,
    },
    /// A signal is driven by more than one gate.
    MultipleDrivers {
        /// The doubly-driven signal name.
        name: String,
    },
    /// Path enumeration hit its configured limit before finishing.
    PathLimit {
        /// The limit that was exceeded.
        limit: usize,
    },
}

impl fmt::Display for LogicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicError::CombinationalLoop { signal } => {
                write!(f, "combinational loop through signal `{signal}`")
            }
            LogicError::BadArity { kind, pins } => {
                write!(f, "gate kind {kind} cannot have {pins} input pins")
            }
            LogicError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            LogicError::UnknownSignal { name } => write!(f, "signal `{name}` is not defined"),
            LogicError::MultipleDrivers { name } => {
                write!(f, "signal `{name}` has more than one driver")
            }
            LogicError::PathLimit { limit } => {
                write!(f, "path enumeration exceeded the limit of {limit} paths")
            }
        }
    }
}

impl std::error::Error for LogicError {}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn messages_name_the_culprit() {
        let e = LogicError::CombinationalLoop {
            signal: "x7".into(),
        };
        assert!(e.to_string().contains("x7"));
        let e = LogicError::Parse {
            line: 12,
            message: "bad token".into(),
        };
        assert!(e.to_string().contains("line 12"));
        let e = LogicError::BadArity {
            kind: "NOT",
            pins: 3,
        };
        assert!(e.to_string().contains("NOT"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LogicError>();
    }
}
