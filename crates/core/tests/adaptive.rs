//! Acceptance tests for adaptive sequential sampling: the decided
//! coverage curve must be **bit-identical across thread counts** (stop
//! decisions happen only on ordered sample prefixes), **bit-identical
//! after kill-and-resume** through a mid-curve checkpoint, and — with a
//! precision target no run can meet — **identical to the fixed-budget
//! study**, so the adaptive path cannot silently change the estimator.

use pulsar_analog::{FaultKind, FaultPlan, Polarity};
use pulsar_cells::{PathSpec, Tech};
use pulsar_core::{
    AdaptivePoint, AdaptivePolicy, AdaptiveReport, CheckpointSpec, CoreError, DefectKind,
    DfCalibration, DfStudy, McConfig, PathUnderTest, PulseStudy, ResilienceConfig,
};
use pulsar_core::{CancelToken, Checkpoint, CoverageCurve, Plan, Sampling, StudyReport};
use pulsar_mc::MonteCarlo;
use pulsar_obs::json::{self, Json};
use pulsar_obs::{Recorder, RunManifest};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn put() -> PathUnderTest {
    PathUnderTest {
        spec: PathSpec::paper_chain(),
        defect: DefectKind::ExternalRop,
        stage: 1,
        tech: Tech::generic_180nm(),
    }
}

const RS: [f64; 3] = [1e3, 30e3, 100e3];
const FACTORS: [f64; 2] = [0.9, 1.1];

static FILE_SEQ: AtomicUsize = AtomicUsize::new(0);

fn fresh_ckpt(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pulsar-adaptive-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let p = dir.join(format!(
        "{}-{}-{}.ckpt",
        std::process::id(),
        FILE_SEQ.fetch_add(1, Ordering::Relaxed),
        name
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// A loose policy a tiny run can actually satisfy, with small rounds so
/// several stop decisions happen mid-stream.
fn loose_policy() -> AdaptivePolicy {
    AdaptivePolicy {
        min_samples: 4,
        chunk: 4,
        ..AdaptivePolicy::new(0.2, 12)
    }
}

fn df_study(threads: usize) -> DfStudy {
    DfStudy::new(
        put(),
        McConfig {
            threads: Some(threads),
            ..McConfig::paper(12, 2007)
        },
    )
}

/// The paper's calibration over the same Monte Carlo sample. The result
/// is deterministic, so every test sees the same thresholds; on this grid
/// coverage is near 0 at 1 kΩ and near 1 at 30/100 kΩ, which is exactly
/// the regime where early stopping engages.
fn calib() -> DfCalibration {
    df_study(1).calibrate().expect("df calibration")
}

/// Everything decision-relevant, as bit patterns.
fn fingerprint(report: &AdaptiveReport) -> Vec<(u64, u64, u64, u64, bool, bool)> {
    report
        .points
        .iter()
        .map(|p: &AdaptivePoint| {
            (
                p.coverage.to_bits(),
                p.interval.lo.to_bits(),
                p.interval.hi.to_bits(),
                p.accuracy.samples_spent,
                p.accuracy.stopped_early,
                p.refined,
            )
        })
        .collect()
}

/// The adaptive plan over the shared grid.
fn plan(policy: &AdaptivePolicy, crossover: Option<&[CoverageCurve]>) -> Plan {
    let crossover = crossover.map(<[CoverageCurve]>::to_vec);
    Plan {
        sampling: Sampling::Adaptive {
            policy: *policy,
            crossover,
        },
        ..Plan::fixed(&RS, &FACTORS)
    }
}

/// The report of an adaptive plan's run.
fn adaptive(report: StudyReport) -> AdaptiveReport {
    match report {
        StudyReport::Adaptive(r) => r,
        other => panic!("an adaptive plan reported {other:?}"),
    }
}

#[test]
fn adaptive_curve_is_bit_identical_across_thread_counts() {
    let baseline = df_study(1)
        .run(
            &calib(),
            &plan(&loose_policy(), None),
            &CancelToken::new(),
            None,
        )
        .map(adaptive)
        .expect("single-threaded adaptive run");
    for threads in [2, 4] {
        let run = df_study(threads)
            .run(
                &calib(),
                &plan(&loose_policy(), None),
                &CancelToken::new(),
                None,
            )
            .map(adaptive)
            .expect("multi-threaded adaptive run");
        assert_eq!(
            fingerprint(&baseline),
            fingerprint(&run),
            "adaptive decisions must not depend on thread count (threads={threads})"
        );
        assert_eq!(baseline.evals, run.evals);
    }
}

#[test]
fn adaptive_resume_from_truncated_checkpoint_is_bit_identical() {
    let study = df_study(2);
    let policy = loose_policy();
    let c = calib();
    let baseline = study
        .run(&c, &plan(&policy, None), &CancelToken::new(), None)
        .map(adaptive)
        .expect("uninterrupted adaptive run");

    let spec = study.checkpoint_spec(&calib(), &plan(&policy, None));
    let path = fresh_ckpt("adaptive");
    {
        let ck = Checkpoint::create(&path, spec).expect("create checkpoint");
        let full = study
            .run(&c, &plan(&policy, None), &CancelToken::new(), Some(&ck))
            .map(adaptive)
            .expect("checkpointed adaptive run");
        assert_eq!(
            fingerprint(&baseline),
            fingerprint(&full),
            "writing a checkpoint must not change the run"
        );
    }
    // Kill mid-curve: keep only a byte prefix of the checkpoint, so the
    // resumed run restores some samples and recomputes the rest.
    let bytes = std::fs::read(&path).expect("read checkpoint");
    for cut_permille in [0usize, 250, 500, 900] {
        let cut = bytes.len() * cut_permille / 1000;
        std::fs::write(&path, &bytes[..cut]).expect("truncate checkpoint");
        let ck = Checkpoint::open(&path, spec).expect("reopen truncated checkpoint");
        let resumed = study
            .run(&c, &plan(&policy, None), &CancelToken::new(), Some(&ck))
            .map(adaptive)
            .expect("resumed adaptive run");
        assert_eq!(
            fingerprint(&baseline),
            fingerprint(&resumed),
            "resume must replay the same stopping decisions (cut={cut_permille}‰)"
        );
        assert_eq!(baseline.evals, resumed.evals, "eval accounting is replayed");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unreachable_precision_reduces_to_the_fixed_budget_study() {
    // A half-width target of 0 can never be met, so every column runs to
    // max_samples, nothing is saved, and nothing refines: the curves must
    // equal the fixed-budget estimator sample for sample.
    let study = df_study(2);
    let policy = AdaptivePolicy {
        min_samples: 4,
        chunk: 4,
        ..AdaptivePolicy::new(0.0, 12)
    };
    let c = calib();
    let adaptive = study
        .run(&c, &plan(&policy, None), &CancelToken::new(), None)
        .map(adaptive)
        .expect("exhaustive adaptive run");
    let fixed = study.coverage(&c, &RS, &FACTORS).expect("fixed-budget run");
    assert_eq!(adaptive.curves.len(), fixed.len());
    for (a, f) in adaptive.curves.iter().zip(&fixed) {
        assert_eq!(a.factor, f.factor);
        let a_bits: Vec<u64> = a.coverage.iter().map(|v| v.to_bits()).collect();
        let f_bits: Vec<u64> = f.coverage.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            a_bits, f_bits,
            "estimator must not change at factor {}",
            a.factor
        );
    }
    assert_eq!(adaptive.evals, adaptive.fixed_budget_evals);
    assert_eq!(adaptive.refine_evals, 0);
    assert!(adaptive.points.iter().all(|p| !p.accuracy.stopped_early));
}

#[test]
fn early_stops_save_evals_and_honestly_report_achieved_precision() {
    let study = df_study(2);
    let policy = loose_policy();
    let report = study
        .run(&calib(), &plan(&policy, None), &CancelToken::new(), None)
        .map(adaptive)
        .expect("adaptive run");
    assert!(
        report.evals - report.refine_evals < report.fixed_budget_evals,
        "a loose target must stop at least one column early ({} vs {})",
        report.evals - report.refine_evals,
        report.fixed_budget_evals
    );
    assert!(
        report.evals <= report.fixed_budget_evals,
        "refinement may only reinvest what early stopping saved ({} vs {})",
        report.evals,
        report.fixed_budget_evals
    );
    // On a grid with no crossover in sight (coverage ≈ 1 everywhere) the
    // refinement pass has nothing to spend on and the saving is net.
    let high_rs = [30e3, 60e3, 100e3];
    let high = study
        .run(
            &calib(),
            &Plan::adaptive(&high_rs, &FACTORS, policy),
            &CancelToken::new(),
            None,
        )
        .map(adaptive)
        .expect("all-high adaptive run");
    assert_eq!(high.refine_evals, 0, "no crossover, no refinement");
    assert!(
        high.evals < high.fixed_budget_evals,
        "away from the crossover the saving must be net ({} vs {})",
        high.evals,
        high.fixed_budget_evals
    );
    for p in &report.points {
        assert!(p.accuracy.samples_spent >= policy.min_samples as u64);
        assert!(
            p.accuracy.achieved_halfwidth > 0.0 && p.accuracy.achieved_halfwidth <= 0.5,
            "half-width must be a real interval measurement"
        );
        if p.accuracy.stopped_early && !p.refined {
            assert!(
                p.accuracy.achieved_halfwidth <= p.accuracy.requested_halfwidth,
                "an early stop must have met its target"
            );
        }
    }
    // Manifest block mirrors the in-memory report.
    let manifest = report.to_manifest();
    assert_eq!(manifest.points.len(), report.points.len());
    assert_eq!(manifest.evals, report.evals);
    assert_eq!(manifest.fixed_budget_evals, report.fixed_budget_evals);
}

#[test]
fn rendered_manifest_keeps_every_achieved_halfwidth_to_the_bit() {
    let report = df_study(2)
        .run(
            &calib(),
            &plan(&loose_policy(), None),
            &CancelToken::new(),
            None,
        )
        .map(adaptive)
        .expect("adaptive run");
    assert!(
        report.points.iter().any(|p| p.accuracy.stopped_early),
        "the grid must exercise an early stop"
    );
    // The record an operator reads: rendered, then parsed back.
    let mut manifest = RunManifest::new("study", 0);
    manifest.adaptive = Some(report.to_manifest());
    let doc = json::parse(&manifest.render_json()).expect("manifest parses");
    let Some(Json::Arr(points)) = doc.get("adaptive").and_then(|a| a.get("points")) else {
        panic!("manifest lost the adaptive points block");
    };
    assert_eq!(points.len(), report.points.len());
    for (j, (rendered, point)) in points.iter().zip(&report.points).enumerate() {
        let num = |key: &str| rendered.get(key).and_then(Json::as_num).expect(key);
        let requested = num("requested_halfwidth");
        let achieved = num("achieved_halfwidth");
        // f64 `Display` round-trips exactly.
        assert_eq!(
            achieved.to_bits(),
            point.accuracy.achieved_halfwidth.to_bits(),
            "manifest diverged from the report at point {j}"
        );
        let stopped = matches!(rendered.get("stopped_early"), Some(Json::Bool(true)));
        assert_eq!(stopped, point.accuracy.stopped_early, "point {j}");
        if stopped {
            assert!(
                achieved <= requested,
                "point {j} claims an early stop at {achieved} > requested {requested}"
            );
        }
    }
}

#[test]
fn mismatched_crossover_and_deadline_are_rejected() {
    let study = df_study(1);
    let alien = [CoverageCurve {
        factor: 1.0,
        resistance: vec![1e3, 2e3],
        coverage: vec![0.5, 0.5],
        unresolved: 0.0,
        completeness: pulsar_core::Completeness::full(12),
    }];
    let err = study
        .run(
            &calib(),
            &plan(&loose_policy(), Some(&alien)),
            &CancelToken::new(),
            None,
        )
        .map(adaptive)
        .expect_err("crossover reference on a different grid");
    assert!(matches!(err, CoreError::Unsupported { .. }), "{err:?}");

    let mut study = df_study(1);
    study.mc.resilience.deadline = Some(Duration::from_secs(60));
    let err = study
        .run(
            &calib(),
            &plan(&loose_policy(), None),
            &CancelToken::new(),
            None,
        )
        .map(adaptive)
        .expect_err("the report has no completeness to carry a deadline cut");
    assert!(matches!(err, CoreError::Unsupported { .. }), "{err:?}");
}

#[test]
fn adaptive_run_contains_a_planned_panic() {
    let mut study = df_study(2);
    study.mc.resilience = ResilienceConfig {
        contain_panics: true,
        ..ResilienceConfig::tolerant(1, 0.5)
    };
    study.mc.fault_plan =
        Some(FaultPlan::new().fail_sample(2, FaultKind::Panic, FaultPlan::ALWAYS));
    let report = study
        .run(
            &calib(),
            &plan(&loose_policy(), None),
            &CancelToken::new(),
            None,
        )
        .map(adaptive)
        .expect("a contained panic is one failed sample inside the budget");
    assert!(
        report
            .failures
            .by_kind
            .iter()
            .any(|&(kind, _)| kind == "panic"),
        "{:?}",
        report.failures.by_kind
    );
}

#[test]
fn checkpoint_spec_must_reserve_the_refinement_record_space() {
    let study = df_study(1);
    let policy = loose_policy();
    let spec = study.checkpoint_spec(&calib(), &plan(&policy, None));
    assert_eq!(spec.samples, 3 * policy.max_samples);
    // A spec sized like a plain fixed-budget run is refused outright.
    let bad = CheckpointSpec {
        samples: policy.max_samples,
        ..spec
    };
    let path = fresh_ckpt("bad-spec");
    let ck = Checkpoint::create(&path, bad).expect("create undersized checkpoint");
    let err = study
        .run(
            &calib(),
            &plan(&policy, None),
            &CancelToken::new(),
            Some(&ck),
        )
        .map(adaptive)
        .expect_err("undersized record space");
    assert!(matches!(err, CoreError::Checkpoint { .. }), "{err:?}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn pulse_adaptive_with_crossover_reference_runs_and_refines_near_crossings() {
    // A reference curve engineered to cross the pulse coverage somewhere
    // inside the sweep: refinement must mark at least the crossing
    // neighbourhood and spend its extra budget there.
    let put = put();
    let mc = McConfig {
        threads: Some(2),
        ..McConfig::paper(8, 77)
    };
    let mut study = PulseStudy::new(put, mc, Polarity::PositiveGoing);
    let policy = AdaptivePolicy {
        min_samples: 4,
        chunk: 4,
        ..AdaptivePolicy::new(0.3, 8)
    };
    let calib = study.calibrate().expect("pulse calibration");
    let reference: Vec<CoverageCurve> = FACTORS
        .iter()
        .map(|&f| CoverageCurve {
            factor: f,
            resistance: RS.to_vec(),
            // Descends through 0.5 across the sweep, the shape of a DF
            // curve heading the other way.
            coverage: vec![1.0, 0.4, 0.0],
            unresolved: 0.0,
            completeness: pulsar_core::Completeness::full(8),
        })
        .collect();
    study.mc.obs = Recorder::enabled();
    let report = study
        .run(
            &calib,
            &plan(&policy, Some(&reference)),
            &CancelToken::new(),
            None,
        )
        .map(adaptive)
        .expect("pulse adaptive run");
    assert_eq!(report.curves.len(), FACTORS.len());
    assert_eq!(report.points.len(), FACTORS.len() * RS.len());
    for p in &report.points {
        if p.refined {
            assert_eq!(p.accuracy.requested_halfwidth, policy.precision / 2.0);
        }
    }

    // The sample journal: phase-1 events sit at their stream index,
    // refinement events at `max_samples + i`, and every seed is the
    // stream seed of `i` — never of the offset record index.
    assert!(report.refine_evals > 0, "the crossover must be refined");
    let stream = MonteCarlo::new(study.mc.samples, study.mc.seed);
    let events = study.mc.obs.events();
    let samples: Vec<_> = events.iter().filter(|e| e.kind == "sample").collect();
    assert_eq!(
        samples.len(),
        report.failures.samples,
        "one event per stream sample"
    );
    let mut refine_events = 0;
    for e in &samples {
        let i = match e.label.as_deref() {
            Some("pulse-adaptive") => e.index,
            Some("pulse-adaptive-refine") => {
                refine_events += 1;
                e.index - policy.max_samples
            }
            other => panic!("unexpected sample label {other:?}"),
        };
        assert!(i < policy.refine_cap(), "stream index {i} out of range");
        assert_eq!(
            e.seed,
            Some(stream.stream_seed(i)),
            "seed of stream sample {i}"
        );
    }
    assert!(refine_events > 0, "refinement samples are journalled");
    study.mc.obs = Recorder::disabled();
    // The same run twice is bit-identical (covers the crossover path).
    let again = study
        .run(
            &calib,
            &plan(&policy, Some(&reference)),
            &CancelToken::new(),
            None,
        )
        .map(adaptive)
        .expect("repeat run");
    assert_eq!(fingerprint(&report), fingerprint(&again));
}
