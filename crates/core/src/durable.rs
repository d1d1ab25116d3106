//! Durable-run machinery shared by the studies and campaigns: the one
//! Monte Carlo sample loop every study entry point runs on
//! ([`run_samples`]), the wall-clock watchdog behind
//! [`ResilienceConfig::deadline`] / [`ResilienceConfig::sample_timeout`],
//! and the completeness accounting a truncated run reports instead of
//! throwing its partial result away.
//!
//! [`ResilienceConfig::deadline`]: crate::ResilienceConfig
//! [`ResilienceConfig::sample_timeout`]: crate::ResilienceConfig

use crate::checkpoint::{Checkpoint, CheckpointValue};
use crate::error::CoreError;
use crate::resilience::{error_kind, is_retryable, is_run_cancelled, FailureReport};
use crate::study::McConfig;
use pulsar_mc::{RunHooks, SampleOutcome};
use pulsar_obs::{CancelReason, CancelToken, Counter as ObsCounter, Event, Phase, Recorder};
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The Monte Carlo sample loop under every study entry point — fixed,
/// durable and adaptive alike. Resolves stream samples `range` of `mc`'s
/// driver and returns one slot per sample in index order: `None` where run
/// cancellation (interrupt or deadline) cut the sample short, which is
/// *not done* rather than failed.
///
/// Per sample it forks a private recorder, arms the test fault plan, opens
/// the [`Phase::McSample`] span and hands `f` the attempt's watchdog token,
/// honouring every [`ResilienceConfig`](crate::ResilienceConfig) budget.
/// Checkpoint records live at `offset + i` — the adaptive refinement pass
/// runs at `offset = max_samples` so its records never collide with the
/// first pass — and so do the `"sample"` journal events, labelled `label`,
/// which carry the stream seed of `i`, attempts, escalation rung, outcome
/// and that sample's non-zero counters. With a disabled recorder the
/// journal is inert.
pub(crate) fn run_samples<T, F>(
    mc: &McConfig,
    label: &str,
    range: Range<usize>,
    offset: usize,
    run_token: &CancelToken,
    checkpoint: Option<&Checkpoint<T>>,
    f: F,
) -> Vec<Option<SampleOutcome<T, CoreError>>>
where
    T: Send + Sync + Clone + CheckpointValue,
    F: Fn(usize, u32, &mut StdRng, &Recorder, &CancelToken) -> Result<T, CoreError> + Sync,
{
    let driver = mc.driver();
    let plan = mc.fault_plan.clone().unwrap_or_default();
    let watchdog = Watchdog::new(
        run_token.clone(),
        mc.resilience.deadline,
        mc.resilience.sample_timeout,
    );
    // Fork on the main thread so shard creation order is deterministic
    // regardless of worker scheduling.
    let lo = range.start;
    let recs: Vec<Recorder> = range.clone().map(|_| mc.obs.fork()).collect();
    let prior = |i: usize| checkpoint.and_then(|c| c.prior().get(&(offset + i)).cloned());
    let on_done = |i: usize, o: &SampleOutcome<T, CoreError>| {
        if let Some(c) = checkpoint {
            c.record(offset + i, driver.stream_seed(i), o);
        }
    };
    let contain = |message: String| CoreError::Panic { message };
    let hooks = RunHooks {
        prior: Some(&prior),
        on_done: Some(&on_done),
        cancel: Some(run_token),
        contain_panics: if mc.resilience.contain_panics {
            Some(&contain)
        } else {
            None
        },
    };
    let raw = driver.try_run_range_resumed(
        lo,
        range.end,
        mc.resilience.max_attempts,
        is_retryable,
        hooks,
        |i, attempt, rng| {
            let rec = &recs[i - lo];
            let _span = rec.span(Phase::McSample);
            // Inert unless a test installed a plan naming sample `i`.
            let _fault = plan.arm(i, attempt);
            let (token, _guard) = watchdog.attempt(i);
            f(i, attempt, rng, rec, &token)
        },
    );
    // Stop the watchdog before the caller's accounting so a deadline
    // cannot fire between its done count and its truncation label.
    drop(watchdog);

    // Journal every sample that produced an outcome, then strip the
    // run-cancelled ones to `None`: they were interrupted, not failed.
    let journal = mc.obs.is_enabled();
    let outcomes = raw
        .into_iter()
        .zip(&recs)
        .enumerate()
        .map(|(j, (slot, rec))| {
            let i = lo + j;
            let cancelled = matches!(
                &slot,
                Some(SampleOutcome::Failed { error, .. }) if is_run_cancelled(error)
            );
            if let Some(o) = slot.as_ref().filter(|_| journal) {
                let mut ev = Event::new("sample", offset + i);
                ev.label = Some(label.to_owned());
                ev.seed = Some(driver.stream_seed(i));
                match o {
                    SampleOutcome::Ok(_) => mc.obs.add(ObsCounter::SamplesOk, 1),
                    SampleOutcome::Recovered { attempts, .. } => {
                        ev.outcome = "recovered";
                        ev.attempts = *attempts;
                        mc.obs.add(ObsCounter::SamplesRecovered, 1);
                    }
                    SampleOutcome::Failed { error, attempts } => {
                        ev.outcome = if cancelled { "cancelled" } else { "failed" };
                        ev.attempts = *attempts;
                        ev.error_kind = Some(error_kind(error).to_owned());
                        if let CoreError::Panic { message } = error {
                            ev.detail = Some(message.clone());
                        }
                        if !cancelled {
                            mc.obs.add(ObsCounter::SamplesFailed, 1);
                        }
                    }
                }
                ev.escalation_rung = ev.attempts.saturating_sub(1);
                mc.obs
                    .add(ObsCounter::RetryAttempts, u64::from(ev.escalation_rung));
                ev.counters = rec.local_snapshot().nonzero_counters();
                mc.obs.event(ev);
            }
            slot.filter(|_| !cancelled)
        })
        .collect();
    // Fold per-sample shards into the registry accumulator so a long
    // campaign of many runs does not grow the live set without bound.
    for rec in &recs {
        rec.retire();
    }
    outcomes
}

/// The error a run reports when `token` cut it short and its result
/// has no completeness to carry a partial run.
pub(crate) fn run_cancelled(token: &CancelToken) -> CoreError {
    CoreError::Analog(pulsar_analog::Error::Cancelled {
        time: 0.0,
        reason: token.cancelled().unwrap_or(CancelReason::Deadline),
    })
}

/// How often the watchdog thread re-checks its clocks.
const WATCHDOG_TICK: Duration = Duration::from_millis(5);

/// Wall-clock watchdog for one durable run.
///
/// One background thread owns both budgets: when the run `deadline`
/// expires it trips the *run* token with [`CancelReason::Deadline`]; when
/// a registered sample attempt outlives `sample_timeout` it trips that
/// attempt's *child* token with [`CancelReason::Timeout`], cutting one
/// stuck sample loose without ending the run. Workers touch the shared
/// registry only at attempt boundaries — the solver step loop sees
/// nothing but its token's relaxed atomic load.
///
/// With neither budget set no thread is spawned and `begin` just clones
/// the run token.
#[derive(Debug)]
pub(crate) struct Watchdog {
    run: CancelToken,
    sample_timeout: Option<Duration>,
    registry: Arc<Mutex<HashMap<usize, (CancelToken, Instant)>>>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    pub(crate) fn new(
        run: CancelToken,
        deadline: Option<Duration>,
        sample_timeout: Option<Duration>,
    ) -> Watchdog {
        // A zero deadline means "no budget at all": trip synchronously so
        // the caller gets a deterministic empty-but-honest run instead of
        // racing the watchdog thread's first tick.
        if deadline.is_some_and(|d| d.is_zero()) {
            run.cancel(CancelReason::Deadline);
        }
        let registry: Arc<Mutex<HashMap<usize, (CancelToken, Instant)>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = (deadline.is_some() || sample_timeout.is_some()).then(|| {
            let run = run.clone();
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            let started = Instant::now();
            std::thread::spawn(move || {
                // ordering: Relaxed — `stop` is a monotonic shutdown
                // flag; the `join()` in `Drop` provides the actual
                // happens-before edge for everything the thread did.
                while !stop.load(Ordering::Relaxed) {
                    if let Some(d) = deadline {
                        if started.elapsed() >= d {
                            run.cancel(CancelReason::Deadline);
                        }
                    }
                    if let Some(t) = sample_timeout {
                        if let Ok(reg) = registry.lock() {
                            for (token, began) in reg.values() {
                                if began.elapsed() >= t {
                                    token.cancel(CancelReason::Timeout);
                                }
                            }
                        }
                    }
                    std::thread::sleep(WATCHDOG_TICK);
                }
            })
        });
        Watchdog {
            run,
            sample_timeout,
            registry,
            stop,
            thread,
        }
    }

    /// Starts one sample attempt: returns the token the attempt should
    /// install in its solver workspace. With a sample timeout configured
    /// this is a registered child of the run token (fresh budget per
    /// attempt, so a retry under the escalated ladder gets its full
    /// allowance); otherwise it is the run token itself.
    pub(crate) fn begin(&self, index: usize) -> CancelToken {
        if self.sample_timeout.is_none() {
            return self.run.clone();
        }
        let child = self.run.child();
        if let Ok(mut reg) = self.registry.lock() {
            reg.insert(index, (child.clone(), Instant::now()));
        }
        child
    }

    /// Ends the sample attempt started by [`Watchdog::begin`].
    pub(crate) fn end(&self, index: usize) {
        if self.sample_timeout.is_none() {
            return;
        }
        if let Ok(mut reg) = self.registry.lock() {
            reg.remove(&index);
        }
    }

    /// RAII variant of [`Watchdog::begin`]: the registration is released
    /// even when the attempt unwinds (contained panics), so a poisoned
    /// sample never leaves a stale registry entry behind.
    pub(crate) fn attempt(&self, index: usize) -> (CancelToken, AttemptGuard<'_>) {
        let token = self.begin(index);
        (
            token,
            AttemptGuard {
                watchdog: self,
                index,
            },
        )
    }
}

/// Deregisters a sample attempt on drop (see [`Watchdog::attempt`]).
pub(crate) struct AttemptGuard<'a> {
    watchdog: &'a Watchdog,
    index: usize,
}

impl Drop for AttemptGuard<'_> {
    fn drop(&mut self) {
        self.watchdog.end(self.index);
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        // ordering: Relaxed — paired with the watchdog loop's Relaxed
        // poll; the `join()` below synchronizes everything else.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// How much of a durable run actually happened — the honest-partial-result
/// contract: a deadline- or interrupt-truncated run reports *what it did*
/// instead of aborting with nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Completeness {
    /// Samples the run was asked for.
    pub requested: usize,
    /// Samples that ran to a conclusion (resolved or genuinely failed).
    pub done: usize,
    /// Of `done`, how many were restored from a checkpoint instead of
    /// recomputed.
    pub resumed: usize,
    /// Why the run stopped early (`"interrupted"` / `"deadline"`), `None`
    /// for a run that finished everything.
    pub truncated: Option<&'static str>,
}

impl Completeness {
    /// A fully-complete run of `n` samples (no resume, no truncation) —
    /// what the non-durable entry points report.
    pub fn full(n: usize) -> Completeness {
        Completeness {
            requested: n,
            done: n,
            resumed: 0,
            truncated: None,
        }
    }

    /// True when every requested sample ran to a conclusion.
    pub fn is_complete(&self) -> bool {
        self.done == self.requested && self.truncated.is_none()
    }
}

/// Result of a durable Monte Carlo run ([`McConfig::try_run_samples_durable`]).
///
/// Unlike [`McRunReport`](crate::McRunReport), a slot may be `None`: the
/// run was cancelled (interrupt or deadline) before that sample finished.
/// Such samples are *not done* — they appear in [`Completeness`], never in
/// the failure accounting, and never in a coverage denominator.
///
#[derive(Debug, Clone)]
pub struct DurableRun<T> {
    /// Outcome of sample `i` at index `i`; `None` = cut short by run
    /// cancellation.
    pub outcomes: Vec<Option<SampleOutcome<T, CoreError>>>,
    /// Failure accounting over the *done* samples only.
    pub failures: FailureReport,
    /// How much of the run happened.
    pub completeness: Completeness,
}

impl<T> DurableRun<T> {
    /// Resolved values with their sample indices, in index order.
    pub fn resolved_indexed(&self) -> impl Iterator<Item = (usize, &T)> + '_ {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.as_ref().and_then(|o| o.value()).map(|v| (i, v)))
    }

    /// True when every requested sample ran to a conclusion.
    pub fn is_complete(&self) -> bool {
        self.completeness.is_complete()
    }

    /// Converts a *complete* run into the classic
    /// [`McRunReport`](crate::McRunReport); `None` when any sample was cut
    /// short (use the per-slot outcomes and completeness instead).
    pub fn into_run_report(self) -> Option<crate::McRunReport<T>> {
        if !self.is_complete() {
            return None;
        }
        let outcomes: Option<Vec<_>> = self.outcomes.into_iter().collect();
        Some(crate::McRunReport {
            outcomes: outcomes?,
            failures: self.failures,
        })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn watchdog_trips_deadline_on_the_run_token() {
        let run = CancelToken::new();
        let _wd = Watchdog::new(run.clone(), Some(Duration::from_millis(10)), None);
        let start = Instant::now();
        while !run.is_cancelled() && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(run.cancelled(), Some(CancelReason::Deadline));
    }

    #[test]
    fn watchdog_times_out_a_registered_sample_without_killing_the_run() {
        let run = CancelToken::new();
        let wd = Watchdog::new(run.clone(), None, Some(Duration::from_millis(10)));
        let tok = wd.begin(3);
        let start = Instant::now();
        while !tok.is_cancelled() && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(tok.cancelled(), Some(CancelReason::Timeout));
        assert_eq!(run.cancelled(), None, "run token survives a sample timeout");
        wd.end(3);
    }

    #[test]
    fn deregistered_samples_are_not_timed_out() {
        let run = CancelToken::new();
        let wd = Watchdog::new(run.clone(), None, Some(Duration::from_millis(20)));
        let tok = wd.begin(0);
        wd.end(0);
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(tok.cancelled(), None);
    }

    #[test]
    fn without_budgets_no_thread_and_run_token_passthrough() {
        let run = CancelToken::new();
        let wd = Watchdog::new(run.clone(), None, None);
        assert!(wd.thread.is_none());
        let tok = wd.begin(1);
        run.cancel(CancelReason::User);
        assert_eq!(tok.cancelled(), Some(CancelReason::User));
    }

    #[test]
    fn completeness_reports_truncation() {
        let c = Completeness {
            requested: 64,
            done: 40,
            resumed: 10,
            truncated: Some("deadline"),
        };
        assert!(!c.is_complete());
        let full = Completeness {
            requested: 64,
            done: 64,
            resumed: 0,
            truncated: None,
        };
        assert!(full.is_complete());
    }
}
