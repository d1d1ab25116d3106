//! Cancellation laws for a batch of Monte Carlo samples: a run cancelled
//! part-way through its batch keeps what already resolved, never counts
//! the rest as failed, and reports the truncation honestly — whether the
//! cancellation lands mid-run or before the first sample starts.

use pulsar_analog::Polarity;
use pulsar_cells::{PathSpec, Tech};
use pulsar_core::{
    CancelReason, CancelToken, CoreError, DefectKind, McConfig, PathUnderTest, Plan,
    PulseCalibration, PulseStudy,
};
use rand::RngExt;
use std::sync::atomic::{AtomicBool, Ordering};

const RS: [f64; 2] = [1e3, 50e3];
const W_IN: f64 = 450e-12;

fn small_put() -> PathUnderTest {
    PathUnderTest {
        spec: PathSpec::inverter_chain(3),
        defect: DefectKind::ExternalRop,
        stage: 1,
        tech: Tech::generic_180nm(),
    }
}

/// Run cancellation landing mid-campaign: the samples already resolved
/// stay done, every later sample comes back as a `None` slot — cancelled,
/// never failed, never in a coverage denominator — and the truncation is
/// reported honestly.
#[test]
fn cancellation_mid_batch_truncates_without_counting() {
    let mut mc = McConfig::paper(8, 7);
    mc.threads = Some(1);
    let token = CancelToken::new();
    let saw_cancelled_attempt = AtomicBool::new(false);
    let run = mc
        .try_run_samples_durable("cancel-batch", &token, None, |i, _attempt, rng, _rec, t| {
            if i < 3 {
                Ok(rng.random::<f64>())
            } else {
                // The run is cancelled mid-campaign; the attempt token must
                // observe it so the in-flight solve ejects.
                token.cancel(CancelReason::User);
                saw_cancelled_attempt.store(t.is_cancelled(), Ordering::SeqCst);
                Err(CoreError::Analog(pulsar_analog::Error::Cancelled {
                    time: 0.0,
                    reason: CancelReason::User,
                }))
            }
        })
        .expect("durable run");
    assert_eq!(run.completeness.requested, 8);
    assert_eq!(run.completeness.done, 3, "only the first three resolved");
    assert_eq!(run.completeness.truncated, Some("interrupted"));
    assert!(
        saw_cancelled_attempt.load(Ordering::SeqCst),
        "run cancellation must propagate to the attempt token"
    );
    // Cancelled samples are not-done, never failed: they stay out of the
    // failure accounting and any coverage denominator.
    assert_eq!(run.failures.samples, 3);
    assert_eq!(run.failures.failed, 0);
    assert!(run.outcomes[3..].iter().all(Option::is_none));
    assert_eq!(run.resolved_indexed().count(), 3);
}

/// A token cancelled before the study starts: nothing runs, nothing
/// counts, and the study still returns an honest (empty) result instead
/// of an error.
#[test]
fn precancelled_batched_study_reports_honest_truncation() {
    let token = CancelToken::new();
    token.cancel(CancelReason::User);
    let mut mc = McConfig::paper(5, 3);
    mc.threads = Some(2);
    let s = PulseStudy::new(small_put(), mc, Polarity::PositiveGoing);
    let calib = PulseCalibration {
        w_in: W_IN,
        w_th: W_IN,
    };
    let (curves, failures) = s
        .run(&calib, &Plan::fixed(&RS, &[1.0]), &token, None)
        .expect("durable run")
        .into_parts();
    let run = curves[0].completeness;
    assert_eq!(run.done, 0);
    assert_eq!(run.truncated, Some("interrupted"));
    assert_eq!(failures.samples, 0, "nothing ran, nothing counted");
    assert_eq!(run.requested, 5, "every slot stayed unresolved");
}
