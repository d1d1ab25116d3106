//! Acceptance tests for the resilient Monte Carlo runtime: deterministic
//! solver fault injection driven through the full study stack, per-sample
//! isolation and retry accounting, thread-count determinism, and the
//! failure budget abort.

use pulsar_analog::{FaultKind, FaultPlan, Polarity};
use pulsar_cells::{PathSpec, Tech};
use pulsar_core::{
    CancelToken, CoreError, DefectKind, DfStudy, McConfig, PathUnderTest, Plan, PulseCalibration,
    PulseStudy, ResilienceConfig, StudyReport,
};

fn put() -> PathUnderTest {
    PathUnderTest {
        spec: PathSpec::paper_chain(),
        defect: DefectKind::ExternalRop,
        stage: 1,
        tech: Tech::generic_180nm(),
    }
}

/// A plausible operating point for the paper chain; the resilience
/// machinery under test is independent of exact calibration.
fn calib() -> PulseCalibration {
    PulseCalibration {
        w_in: 500e-12,
        w_th: 120e-12,
    }
}

/// 64 samples, 3 of which hit injected non-convergence on every attempt.
fn faulty_study(threads: usize, budget: f64) -> PulseStudy {
    let mc = McConfig {
        threads: Some(threads),
        resilience: ResilienceConfig::tolerant(3, budget),
        fault_plan: Some(
            FaultPlan::new()
                .fail_sample(5, FaultKind::NonConvergence, FaultPlan::ALWAYS)
                .fail_sample(17, FaultKind::NonConvergence, FaultPlan::ALWAYS)
                .fail_sample(40, FaultKind::NonConvergence, FaultPlan::ALWAYS),
        ),
        ..McConfig::paper(64, 2007)
    };
    PulseStudy::new(put(), mc, Polarity::PositiveGoing)
}

const RS: [f64; 2] = [1e3, 100e3];

#[test]
fn injected_failures_leave_coverage_running_with_exact_accounting() {
    // 3 of 64 samples always fail: within a 5 % budget the study must
    // complete and report exactly those samples as unresolved, with the
    // full retry ladder spent on each.
    let study = faulty_study(8, 0.05);
    let (curves, failures) = study
        .run(
            &calib(),
            &Plan::fixed(&RS, &[1.0]),
            &CancelToken::new(),
            None,
        )
        .map(StudyReport::into_parts)
        .expect("3/64 failures are inside a 5 % budget");

    assert_eq!(failures.samples, 64);
    assert_eq!(failures.failed, 3, "exactly the three planned samples");
    assert_eq!(failures.recovered, 0);
    assert_eq!(failures.by_kind, vec![("non-convergence", 3)]);
    // Retry accounting: 61 clean one-shot samples, 3 that burned all
    // three permitted attempts.
    assert_eq!(failures.retry_histogram, vec![(1, 61), (3, 3)]);
    let mut failed_samples: Vec<usize> = failures.worst.iter().map(|w| w.0).collect();
    failed_samples.sort_unstable();
    assert_eq!(failed_samples, vec![5, 17, 40]);

    // Coverage is over the 61 resolved samples; the curve says so.
    assert_eq!(curves.len(), 1);
    assert!((curves[0].unresolved - 3.0 / 64.0).abs() < 1e-12);
    assert!(
        curves[0].coverage[1] > 0.9,
        "a 100 kΩ open is still caught over the resolved samples: {:?}",
        curves[0].coverage
    );
}

#[test]
fn curves_and_outcomes_are_bit_identical_across_thread_counts() {
    let one = faulty_study(1, 0.05);
    let eight = faulty_study(8, 0.05);

    let r1 = one.try_faulty_wouts(calib().w_in, &RS).unwrap();
    let r8 = eight.try_faulty_wouts(calib().w_in, &RS).unwrap();
    assert_eq!(r1.outcomes, r8.outcomes, "per-sample outcomes must match");
    assert_eq!(r1.failures, r8.failures);

    let c1 = one
        .run(
            &calib(),
            &Plan::fixed(&RS, &[0.9, 1.0, 1.1]),
            &CancelToken::new(),
            None,
        )
        .map(StudyReport::into_parts)
        .unwrap();
    let c8 = eight
        .run(
            &calib(),
            &Plan::fixed(&RS, &[0.9, 1.0, 1.1]),
            &CancelToken::new(),
            None,
        )
        .map(StudyReport::into_parts)
        .unwrap();
    assert_eq!(c1.0, c8.0, "coverage curves must be bit-identical");
}

#[test]
fn failure_budget_aborts_with_per_kind_breakdown() {
    // The same run under a 1 % budget: 3 failures > 0.64 allowed → abort.
    let study = faulty_study(8, 0.01);
    let err = study
        .run(
            &calib(),
            &Plan::fixed(&RS, &[1.0]),
            &CancelToken::new(),
            None,
        )
        .map(StudyReport::into_parts)
        .expect_err("3/64 failures must exceed a 1 % budget");
    match err {
        CoreError::FailureBudgetExceeded { report } => {
            assert_eq!(report.samples, 64);
            assert_eq!(report.failed, 3);
            assert_eq!(report.by_kind, vec![("non-convergence", 3)]);
            assert!((report.failure_budget - 0.01).abs() < 1e-12);
            let text = report.to_string();
            assert!(text.contains("non-convergence×3"), "{text}");
        }
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn transient_faults_recover_on_retry() {
    // Faults bounded to the first attempt: the retry ladder must resolve
    // them, under the *default* zero failure budget.
    let mc = McConfig {
        threads: Some(4),
        fault_plan: Some(
            FaultPlan::new()
                .fail_sample(2, FaultKind::NonConvergence, 1)
                .fail_sample(9, FaultKind::NonConvergence, 1),
        ),
        ..McConfig::paper(16, 7)
    };
    let study = PulseStudy::new(put(), mc, Polarity::PositiveGoing);
    let report = study.try_faulty_wouts(calib().w_in, &RS).unwrap();
    assert_eq!(report.failures.failed, 0);
    assert_eq!(report.failures.recovered, 2);
    assert_eq!(report.failures.retry_histogram, vec![(1, 14), (2, 2)]);
    assert!(report.outcomes[2].is_recovered());
    assert_eq!(report.outcomes[2].attempts(), 2);
    // Recovered samples carry usable measurements.
    assert!(report.outcomes[2].value().unwrap()[0] > 0.0);
}

#[test]
fn singular_matrix_is_not_retried_and_df_coverage_reports_it() {
    // A structural failure (singular matrix) must not burn retries, and
    // the legacy DfStudy::coverage path must surface it through the
    // default zero budget as FailureBudgetExceeded.
    let mc = McConfig {
        threads: Some(2),
        fault_plan: Some(FaultPlan::new().fail_sample(
            4,
            FaultKind::SingularMatrix,
            FaultPlan::ALWAYS,
        )),
        ..McConfig::paper(12, 11)
    };
    let study = DfStudy::new(put(), mc);
    let err = study
        .try_faulty_needs(&RS)
        .expect_err("budget 0 must abort");
    match err {
        CoreError::FailureBudgetExceeded { report } => {
            assert_eq!(report.failed, 1);
            assert_eq!(report.by_kind, vec![("singular-matrix", 1)]);
            // Not retryable → a single attempt.
            assert_eq!(report.worst[0].1, 1);
            assert_eq!(report.retry_histogram, vec![(1, 12)]);
        }
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn df_study_recovers_injected_transients_end_to_end() {
    // DfStudy::coverage (the legacy API) over a plan whose faults heal on
    // the second attempt: completes cleanly, identical to the plan-free
    // run in sample count.
    let mc = McConfig {
        threads: Some(4),
        fault_plan: Some(FaultPlan::new().fail_sample(1, FaultKind::NonConvergence, 1)),
        ..McConfig::paper(8, 3)
    };
    let study = DfStudy::new(put(), mc);
    let cal = study.calibrate().expect("calibration survives the plan");
    let (curves, failures) = study
        .run(&cal, &Plan::fixed(&RS, &[1.0]), &CancelToken::new(), None)
        .map(StudyReport::into_parts)
        .expect("recovered faults stay inside the zero budget");
    assert_eq!(failures.failed, 0);
    assert_eq!(failures.recovered, 1);
    assert_eq!(curves[0].unresolved, 0.0);
    assert!(curves[0].coverage[1] > 0.9);
}
