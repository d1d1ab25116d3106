//! Job specifications and their digest keys.
//!
//! A submitted job is either a coverage study on the paper path or a
//! whole-netlist campaign. The *config digest* of a spec is computed
//! from the same canonical strings the one-shot CLI hashes
//! ([`pulsar_core::Plan::study_digest_repr`] /
//! [`pulsar_core::campaign_digest_repr`]), which is what makes the
//! whole-result cache honest: a daemon hit and a CLI run with equal
//! digests are the same experiment by construction.

use pulsar_core::{campaign_digest_repr, Plan, StudyKind, StudyRequest};
use pulsar_obs::config_digest;

/// One submitted unit of work.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// A Monte Carlo coverage study on the built-in paper path, with the
    /// same defaults and semantics as `pulsar study`.
    Study {
        /// `df` or `pulse`.
        kind: StudyKind,
        /// Monte Carlo sample count.
        samples: usize,
        /// Master seed.
        seed: u64,
        /// Defect resistance sweep, ohms.
        rs: Vec<f64>,
        /// Clock / threshold factors.
        factors: Vec<f64>,
    },
    /// A whole-netlist campaign, with the same semantics as
    /// `pulsar campaign`.
    Campaign {
        /// ISCAS-85 netlist text (shipped inline over the socket).
        netlist: String,
        /// Site stride.
        stride: usize,
    },
}

impl From<StudyRequest> for JobSpec {
    fn from(r: StudyRequest) -> JobSpec {
        JobSpec::Study {
            kind: r.kind,
            samples: r.samples,
            seed: r.seed,
            rs: r.rs,
            factors: r.factors,
        }
    }
}

impl JobSpec {
    /// The run config digest — cache key of the whole-result cache and
    /// the digest reported in manifests. Matches the digest the one-shot
    /// CLI computes for the equivalent invocation.
    pub fn digest(&self) -> u64 {
        match self {
            JobSpec::Study {
                kind,
                samples,
                seed,
                rs,
                factors,
            } => {
                // The daemon runs fixed-sample studies.
                let plan = Plan::fixed(rs, factors);
                config_digest(&plan.study_digest_repr(kind.as_str(), *samples, *seed))
            }
            JobSpec::Campaign { netlist, stride } => {
                config_digest(&campaign_digest_repr(*stride, netlist))
            }
        }
    }

    /// Cache key of the calibration cache. Calibration depends on the
    /// study kind, sample count, and seed — not on the sweep grid — so
    /// jobs that differ only in `rs`/`factors` share a calibration.
    /// `None` for campaigns (no Monte Carlo calibration phase).
    pub fn calib_digest(&self) -> Option<u64> {
        match self {
            JobSpec::Study {
                kind,
                samples,
                seed,
                ..
            } => Some(calib_key(*kind, *samples, *seed)),
            JobSpec::Campaign { .. } => None,
        }
    }
}

/// The calibration-cache key of a study: calibration depends on the
/// kind, the sample count and the seed, not on the sweep grid.
pub(crate) fn calib_key(kind: StudyKind, samples: usize, seed: u64) -> u64 {
    config_digest(&format!(
        "serve-calib kind={} samples={samples} seed={seed}",
        kind.as_str()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study(seed: u64) -> JobSpec {
        JobSpec::Study {
            kind: StudyKind::Df,
            samples: 4,
            seed,
            rs: vec![1e3, 30e3],
            factors: vec![0.9, 1.1],
        }
    }

    #[test]
    fn digest_is_stable_and_seed_sensitive() {
        assert_eq!(study(1).digest(), study(1).digest());
        assert_ne!(study(1).digest(), study(2).digest());
    }

    #[test]
    fn calibration_key_ignores_the_sweep() {
        let a = study(1);
        let b = JobSpec::Study {
            kind: StudyKind::Df,
            samples: 4,
            seed: 1,
            rs: vec![5e3],
            factors: vec![1.0],
        };
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.calib_digest(), b.calib_digest());
    }

    #[test]
    fn campaign_digest_matches_cli_string() {
        let spec = JobSpec::Campaign {
            netlist: "x".into(),
            stride: 3,
        };
        assert_eq!(spec.digest(), config_digest(&campaign_digest_repr(3, "x")));
    }
}
