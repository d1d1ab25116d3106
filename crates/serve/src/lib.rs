//! `pulsar serve`: the long-running campaign daemon.
//!
//! One-shot CLI runs re-pay calibration and whole coverage curves on
//! every invocation, even when the config digest is identical to the
//! previous request. This crate turns the existing engines
//! ([`pulsar_core::DfStudy`], [`pulsar_core::PulseStudy`],
//! [`pulsar_core::Campaign`]) into a daemon:
//!
//! - a **bounded job queue** feeding a sharded worker pool, with typed
//!   `busy` backpressure when the queue is full and per-tenant failure
//!   budgets;
//! - a hand-rolled **JSONL-over-Unix-socket protocol** (`submit`,
//!   `status`, `wait`, `stream`, `cancel`, `stats`, `shutdown`) reusing
//!   the `pulsar-obs` JSON writer/parser — no new dependencies;
//! - **cross-job caches** keyed by the FNV-1a config digest: whole
//!   results (an identical digest is answered with zero solves) and
//!   calibrated operating points, each filled exactly once under the
//!   [`fill::FillSlot`] single-fill protocol that `pulsar-check`
//!   explores as protocol model P4;
//! - **durable drain**: every job runs under its own
//!   [`pulsar_obs::CancelToken`] child with an optional deadline, and
//!   (with a spool directory) through the existing checkpoint path, so
//!   a killed or drained daemon resumes interrupted jobs bit-identically
//!   on restart.
//!
//! Results are byte-identical to the one-shot CLI for the same config
//! digest: both render through [`pulsar_core::CoverageCurve::render_set`]
//! / [`pulsar_core::CampaignReport::render_report`] and hash the same
//! [`pulsar_core::Plan::study_digest_repr`] strings (DESIGN.md §5.10).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod cache;
pub mod client;
pub mod daemon;
pub mod fill;
pub mod job;
pub mod proto;
pub mod queue;
pub mod spec;

pub use cache::{CacheOutcome, CachedResult, DigestCache, ServeCaches};
pub use client::{Client, ClientError};
pub use daemon::{Daemon, ServeConfig, ServeSummary, MAX_REQUEST_LINE};
pub use fill::{Claim, FillOrderings, FillSlot, FILL_ORDERINGS};
pub use job::{Job, JobOutcome, JobState, JobTable};
pub use proto::{Request, RequestError, Response};
pub use pulsar_core::StudyKind;
pub use queue::{JobQueue, PushError};
pub use spec::JobSpec;
