//! Job table, per-job state machine, and job execution.
//!
//! A [`Job`] is one submitted unit of work: its spec, its digest, its
//! own [`CancelToken`] (a child of the daemon token, so daemon shutdown
//! cancels every job) and its own enabled [`Recorder`] (so `stream` can
//! forward journal events and `stats` can fold per-job counters into
//! the daemon totals). State transitions are guarded so that a job
//! cancelled while still queued can never start running — the
//! queue-handoff/cancel interleaving is explored exhaustively by
//! protocol model P4 in `pulsar-check`.
//!
//! [`execute`] runs a job the way the one-shot CLI would, but through
//! the cross-job caches: calibrated operating points are fetched (or
//! filled once) from [`ServeCaches`], and the whole run is wrapped in the
//! whole-result cache so an identical config digest is answered with
//! zero solves.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use pulsar_core::{
    error_kind, is_run_cancelled, CalibratedStudy, Campaign, Checkpoint, CoreError, CoverageCurve,
    McConfig, Plan, ResilienceConfig, StudyRequest,
};
use pulsar_logic::parse_iscas85;
use pulsar_obs::{CancelReason, CancelToken, Counter, Recorder};
use pulsar_timing::TimingLibrary;

use crate::cache::{CacheOutcome, CachedResult, ServeCaches};
use crate::lock_clean;
use crate::spec::{calib_key, JobSpec};

/// Lifecycle of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// In the queue, not yet picked up by a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished successfully.
    Done {
        /// The rendered report, byte-identical to the one-shot CLI.
        text: String,
        /// True when answered from the whole-result cache.
        cached: bool,
    },
    /// Finished unsuccessfully.
    Failed {
        /// Stable failure kind (`lint`, `budget`, `checkpoint`, `run`).
        kind: String,
        /// Human-readable message.
        error: String,
    },
    /// Cancelled by the client, a deadline, or daemon shutdown. With a
    /// spool directory the partial progress is checkpointed, so a
    /// resubmission resumes instead of restarting.
    Cancelled {
        /// Why (`interrupted`, `deadline`, `truncated`, ...).
        reason: String,
    },
}

impl JobState {
    /// Stable state label for the wire protocol.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done { .. } => "done",
            JobState::Failed { .. } => "failed",
            JobState::Cancelled { .. } => "cancelled",
        }
    }

    /// True for states no transition leaves.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done { .. } | JobState::Failed { .. } | JobState::Cancelled { .. }
        )
    }
}

/// Snapshot of a job's state, flattened for the wire protocol.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Job id.
    pub job: u64,
    /// State label (`queued` | `running` | `done` | `failed` |
    /// `cancelled`).
    pub state: String,
    /// Report text, when done.
    pub result: Option<String>,
    /// Error message, when failed or cancelled.
    pub error: Option<String>,
    /// True once no further transitions can happen.
    pub terminal: bool,
}

/// One submitted job.
pub struct Job {
    /// Job id, unique within the daemon.
    pub id: u64,
    /// What to run.
    pub spec: JobSpec,
    /// Whole-result cache key ([`JobSpec::digest`]).
    pub digest: u64,
    /// Tenant billed for this job's failures.
    pub tenant: String,
    /// Per-job deadline, if any.
    pub deadline: Option<Duration>,
    /// Per-job Monte Carlo failure budget override.
    pub failure_budget: Option<f64>,
    /// Child of the daemon token: daemon shutdown cancels the job, a
    /// job cancel leaves the daemon alone.
    pub token: CancelToken,
    /// Per-job journal + counters (enabled, for `stream` / `stats`).
    pub rec: Recorder,
    state: Mutex<JobState>,
    terminal: Condvar,
}

impl Job {
    /// Current state, flattened.
    pub fn outcome(&self) -> JobOutcome {
        self.to_outcome(&lock_clean(&self.state))
    }

    fn to_outcome(&self, st: &JobState) -> JobOutcome {
        let (result, error) = match st {
            JobState::Done { text, .. } => (Some(text.clone()), None),
            JobState::Failed { error, .. } => (None, Some(error.clone())),
            JobState::Cancelled { reason } => (None, Some(format!("cancelled: {reason}"))),
            _ => (None, None),
        };
        JobOutcome {
            job: self.id,
            state: st.name().to_owned(),
            result,
            error,
            terminal: st.is_terminal(),
        }
    }

    /// Queued → Running, refusing when the job was cancelled while
    /// queued (or is in any other state). P4 invariant: a job observed
    /// cancelled at dequeue never starts.
    pub fn begin_running(&self) -> bool {
        let mut st = lock_clean(&self.state);
        if *st == JobState::Queued && self.token.cancelled().is_none() {
            *st = JobState::Running;
            true
        } else {
            false
        }
    }

    /// Installs a terminal state and wakes every `wait`/`stream` blocked
    /// on it. Refuses to overwrite an existing terminal state (a cancel
    /// that raced the final transition keeps whichever landed first).
    pub fn finish(&self, state: JobState) {
        debug_assert!(state.is_terminal());
        let mut st = lock_clean(&self.state);
        if !st.is_terminal() {
            *st = state;
        }
        drop(st);
        self.terminal.notify_all();
    }

    /// Requests cancellation. A queued job transitions to `Cancelled`
    /// immediately, and `account` runs before that transition wakes any
    /// `wait`/`stream` client, so whoever the cancel wakes sees the
    /// caller's accounting. A running job has its token tripped and
    /// transitions when the durable run unwinds (flushing its checkpoint).
    /// Returns false when the job was already terminal.
    pub fn cancel(&self, account: impl FnOnce()) -> bool {
        let st = lock_clean(&self.state);
        match &*st {
            JobState::Queued => {
                self.token.cancel(CancelReason::User);
                self.cancel_queued(st, CancelReason::User.label(), account);
                true
            }
            JobState::Running => {
                self.token.cancel(CancelReason::User);
                true
            }
            _ => false,
        }
    }

    /// Settles a job [`Job::begin_running`] refused because the daemon
    /// token cancelled it while queued (shutdown drain): `Cancelled` with
    /// the token's reason, `account` first. A no-op when a client
    /// [`Job::cancel`] already settled the job, so each cancelled job is
    /// accounted exactly once.
    pub fn cancel_refused(&self, account: impl FnOnce()) {
        let st = lock_clean(&self.state);
        if *st == JobState::Queued {
            let reason = self
                .token
                .cancelled()
                .map_or("cancelled", CancelReason::label);
            self.cancel_queued(st, reason, account);
        }
    }

    /// Queued → `Cancelled` under the state lock: the accounting, then
    /// the terminal state, then the wake.
    fn cancel_queued(
        &self,
        mut st: MutexGuard<'_, JobState>,
        reason: &str,
        account: impl FnOnce(),
    ) {
        account();
        *st = JobState::Cancelled {
            reason: reason.to_owned(),
        };
        drop(st);
        self.terminal.notify_all();
    }

    /// Blocks until the job reaches a terminal state.
    pub fn wait_terminal(&self) -> JobOutcome {
        let mut st = lock_clean(&self.state);
        while !st.is_terminal() {
            st = match self.terminal.wait(st) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
        self.to_outcome(&st)
    }
}

/// Registry of every job the daemon has accepted.
pub struct JobTable {
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    // ordering: pure id allocation, no data published through it.
    next_id: AtomicU64,
}

impl Default for JobTable {
    fn default() -> Self {
        JobTable::new()
    }
}

impl JobTable {
    /// An empty table; ids start at 1.
    pub fn new() -> JobTable {
        JobTable {
            jobs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
        }
    }

    /// Registers a new queued job under a fresh id. The job's token is
    /// a child of `parent` (the daemon token).
    pub fn create(
        &self,
        spec: JobSpec,
        tenant: String,
        deadline: Option<Duration>,
        failure_budget: Option<f64>,
        parent: &CancelToken,
    ) -> Arc<Job> {
        // ordering: id allocation only, publication is via the table mutex
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let digest = spec.digest();
        let job = Arc::new(Job {
            id,
            spec,
            digest,
            tenant,
            deadline,
            failure_budget,
            token: parent.child(),
            rec: Recorder::enabled(),
            state: Mutex::new(JobState::Queued),
            terminal: Condvar::new(),
        });
        lock_clean(&self.jobs).insert(id, Arc::clone(&job));
        job
    }

    /// Looks a job up by id.
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        lock_clean(&self.jobs).get(&id).cloned()
    }

    /// Number of jobs ever accepted and still tracked.
    pub fn len(&self) -> usize {
        lock_clean(&self.jobs).len()
    }

    /// True when no jobs are tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

enum RunError {
    Core(CoreError),
    Lint(String),
    Cancelled(String),
}

impl From<CoreError> for RunError {
    fn from(e: CoreError) -> RunError {
        // A deadline that cuts calibration short cancels the job, just as
        // it does when it truncates the coverage run.
        if is_run_cancelled(&e) {
            RunError::Cancelled(error_kind(&e).to_owned())
        } else {
            RunError::Core(e)
        }
    }
}

/// Executes a job to a terminal state. The worker loop calls this after
/// a successful [`Job::begin_running`]; the caller installs the
/// returned state via [`Job::finish`].
///
/// The whole run sits behind the whole-result cache: an identical
/// digest that already completed returns its report with zero solves; a
/// concurrent identical digest blocks until the first fill publishes
/// (single-fill, see [`crate::fill::FillSlot`]). Failed or cancelled
/// runs abandon the fill so a resubmission recomputes (resuming from
/// the spool checkpoint when one exists).
pub fn execute(job: &Job, caches: &ServeCaches, spool: Option<&Path>) -> JobState {
    let filled = caches
        .result
        .get_or_fill(job.digest, || run_uncached(job, caches, spool));
    match filled {
        Ok((r, CacheOutcome::Filled)) => {
            job.rec.add(Counter::ServeResultCacheMisses, 1);
            JobState::Done {
                text: r.text,
                cached: false,
            }
        }
        Ok((r, CacheOutcome::Hit)) => {
            job.rec.add(Counter::ServeResultCacheHits, 1);
            JobState::Done {
                text: r.text,
                cached: true,
            }
        }
        Err(RunError::Lint(rendered)) => JobState::Failed {
            kind: "lint".to_owned(),
            error: rendered,
        },
        Err(RunError::Cancelled(reason)) => JobState::Cancelled { reason },
        Err(RunError::Core(e)) => {
            let kind = match &e {
                CoreError::LintRejected { .. } => "lint",
                CoreError::FailureBudgetExceeded { .. } => "budget",
                CoreError::Checkpoint { .. } => "checkpoint",
                other => error_kind(other),
            };
            JobState::Failed {
                kind: kind.to_owned(),
                error: e.to_string(),
            }
        }
    }
}

fn run_uncached(
    job: &Job,
    caches: &ServeCaches,
    spool: Option<&Path>,
) -> Result<CachedResult, RunError> {
    match &job.spec {
        JobSpec::Study {
            kind,
            samples,
            seed,
            rs,
            factors,
        } => {
            let req = StudyRequest {
                kind: *kind,
                samples: *samples,
                seed: *seed,
                rs: rs.clone(),
                factors: factors.clone(),
            };
            run_study(job, caches, spool, &req)
        }
        JobSpec::Campaign { netlist, stride } => run_campaign(job, spool, netlist, *stride),
    }
}

fn resilience_for(job: &Job) -> ResilienceConfig {
    ResilienceConfig {
        deadline: job.deadline,
        failure_budget: job
            .failure_budget
            .unwrap_or(ResilienceConfig::default().failure_budget),
        contain_panics: true,
        ..ResilienceConfig::default()
    }
}

fn spool_path(spool: Option<&Path>, digest: u64) -> Option<PathBuf> {
    spool.map(|d| d.join(format!("job-{digest:016x}.ckpt")))
}

/// Bails out with the partial progress checkpointed when the job's
/// token tripped (client cancel, deadline, daemon drain).
fn check_cancelled(job: &Job) -> Result<(), RunError> {
    match job.token.cancelled() {
        Some(reason) => Err(RunError::Cancelled(reason.label().to_owned())),
        None => Ok(()),
    }
}

fn run_study(
    job: &Job,
    caches: &ServeCaches,
    spool: Option<&Path>,
    req: &StudyRequest,
) -> Result<CachedResult, RunError> {
    let rec = job.rec.clone();

    // Static preflight: structurally broken configs are rejected before
    // calibration engages the Monte Carlo machinery.
    let report = req.lint();
    if !report.is_clean() {
        return Err(RunError::Lint(report.render_human()));
    }

    let mc = McConfig {
        obs: rec.clone(),
        resilience: resilience_for(job),
        ..McConfig::paper(req.samples, req.seed)
    };
    let key = calib_key(req.kind, req.samples, req.seed);
    let (calib, co) = caches.calib.get_or_fill(key, || {
        req.kind.calibrate(mc.clone()).map_err(RunError::from)
    })?;
    if co == CacheOutcome::Hit {
        rec.add(Counter::ServeCalibCacheHits, 1);
    }
    check_cancelled(job)?;

    let study = CalibratedStudy::new(mc, calib);
    let plan = Plan::fixed(&req.rs, &req.factors);
    let ck = spool_path(spool, job.digest)
        .map(|p| Checkpoint::open(&p, study.checkpoint_spec(&plan)))
        .transpose()?;
    let report = study.run(&plan, &job.token, ck.as_ref())?;
    check_cancelled(job)?;
    check_complete(report.curves())?;
    let text = study.header(&plan) + "\n" + &CoverageCurve::render_set(report.curves());
    Ok(CachedResult {
        text,
        solves: solves_spent(&rec),
    })
}

fn run_campaign(
    job: &Job,
    spool: Option<&Path>,
    netlist: &str,
    stride: usize,
) -> Result<CachedResult, RunError> {
    let rec = job.rec.clone();
    let nl = parse_iscas85(netlist).map_err(|e| RunError::Core(CoreError::Logic(e)))?;
    let campaign = Campaign {
        stride,
        obs: rec.clone(),
        resilience: resilience_for(job),
        ..Campaign::default()
    };
    let lib = TimingLibrary::generic();
    let ck_path = spool_path(spool, job.digest);
    let ck = ck_path
        .as_ref()
        .map(|p| Checkpoint::open(p, campaign.checkpoint_spec(&nl)))
        .transpose()?;
    let report = campaign.run_durable(&nl, &lib, &job.token, ck.as_ref())?;
    check_cancelled(job)?;
    let text = report.render_report(&nl, ck_path.as_deref().and_then(Path::to_str));
    Ok(CachedResult {
        text,
        solves: solves_spent(&rec),
    })
}

/// A durable run that was truncated (deadline, cancel) must not be
/// cached as the answer for its digest.
fn check_complete(curves: &[CoverageCurve]) -> Result<(), RunError> {
    match curves.first() {
        Some(c) if !c.completeness.is_complete() => {
            Err(RunError::Cancelled("truncated".to_owned()))
        }
        _ => Ok(()),
    }
}

/// Transient-solve work this job's recorder observed (sparse + dense).
fn solves_spent(rec: &Recorder) -> u64 {
    let snap = rec.snapshot();
    snap.counter(Counter::SparseSolves) + snap.counter(Counter::DenseSolves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulsar_core::StudyKind;

    fn table_and_token() -> (JobTable, CancelToken) {
        (JobTable::new(), CancelToken::new())
    }

    fn small_spec() -> JobSpec {
        JobSpec::Study {
            kind: StudyKind::Df,
            samples: 2,
            seed: 1,
            rs: vec![1e3],
            factors: vec![1.0],
        }
    }

    #[test]
    fn cancel_before_dequeue_prevents_running() {
        let (table, root) = table_and_token();
        let job = table.create(small_spec(), "t".into(), None, None, &root);
        assert!(job.cancel(|| {}));
        assert!(!job.begin_running(), "cancelled job must not start");
        let o = job.outcome();
        assert_eq!(o.state, "cancelled");
        assert!(o.terminal);
        assert!(!job.cancel(|| {}), "second cancel is a no-op");
    }

    #[test]
    fn state_machine_reaches_done_and_wakes_waiters() {
        let (table, root) = table_and_token();
        let job = table.create(small_spec(), "t".into(), None, None, &root);
        assert!(job.begin_running());
        assert!(!job.begin_running(), "double dequeue must not re-run");
        let j2 = Arc::clone(&job);
        let waiter = std::thread::spawn(move || j2.wait_terminal());
        job.finish(JobState::Done {
            text: "report".into(),
            cached: false,
        });
        let o = waiter.join().expect("join");
        assert_eq!(o.state, "done");
        assert_eq!(o.result.as_deref(), Some("report"));
    }

    #[test]
    fn daemon_token_cancels_queued_jobs() {
        let (table, root) = table_and_token();
        let job = table.create(small_spec(), "t".into(), None, None, &root);
        root.cancel(CancelReason::User);
        assert!(
            !job.begin_running(),
            "drained daemon must not start new work"
        );
    }
}
