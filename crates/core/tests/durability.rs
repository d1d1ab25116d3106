//! Chaos soak for the durable-campaign machinery: kill/resume cycles,
//! truncated checkpoints (a kill can land on any byte), injected stalls
//! against per-sample timeouts, and panic storms with and without
//! containment. The invariants under test are always the same two:
//! **resume-equivalence** (a resumed run is bit-identical to an
//! uninterrupted one) and **no-lost-samples** (whatever was reported done
//! stays done, and everything requested is eventually done).

use proptest::prelude::*;
use pulsar_analog::{FaultKind, FaultPlan, Polarity};
use pulsar_cells::{PathSpec, Tech};
use pulsar_core::{
    AdaptivePolicy, AdaptiveReport, CancelReason, CancelToken, Checkpoint, CheckpointSpec,
    CoreError, CoverageCurve, DefectKind, DfCalibration, DfStudy, McConfig, PathUnderTest, Plan,
    PulseCalibration, PulseStudy, ResilienceConfig, StudyReport,
};
use pulsar_mc::SampleOutcome;
use rand::rngs::StdRng;
use rand::RngExt;
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

const RS: [f64; 2] = [1e3, 100e3];
const W_IN: f64 = 500e-12;

static FILE_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh (non-existent) checkpoint path, unique per call.
fn fresh_ckpt(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pulsar-durability-tests");
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

/// Deterministic synthetic per-sample value: depends only on the sample's
/// seeded RNG stream, like a real measurement.
fn synth(rng: &mut StdRng) -> f64 {
    rng.random::<f64>()
}

fn synth_spec(samples: usize, seed: u64) -> CheckpointSpec {
    CheckpointSpec {
        config_digest: 0x51AB_C0DE_D00D_F00Du64,
        seed,
        samples,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A kill can land on any byte of the checkpoint file. Whatever
    /// prefix survives, the resumed run must reproduce the uninterrupted
    /// result bit for bit and finish everything.
    #[test]
    fn resume_from_any_truncated_prefix_is_bit_identical(cut_permille in 0u32..=1000) {
        let mc = McConfig { threads: Some(2), ..McConfig::paper(16, 99) };
        let spec = synth_spec(16, 99);

        let baseline = mc
            .try_run_samples_durable("soak", &CancelToken::new(), None, |_, _, rng, _, _| {
                Ok(synth(rng))
            })
            .expect("clean synthetic run");
        let base_bits: Vec<(usize, u64)> = baseline
            .resolved_indexed()
            .map(|(i, v)| (i, v.to_bits()))
            .collect();

        // Write a full checkpoint, then keep only a byte prefix of it.
        let path = fresh_ckpt("prefix");
        {
            let ck = Checkpoint::create(&path, spec).expect("create");
            mc.try_run_samples_durable("soak", &CancelToken::new(), Some(&ck), |_, _, rng, _, _| {
                Ok(synth(rng))
            })
            .expect("checkpointed run");
        }
        let bytes = std::fs::read(&path).expect("read checkpoint");
        let cut = bytes.len() * cut_permille as usize / 1000;
        std::fs::write(&path, &bytes[..cut]).expect("truncate checkpoint");

        let ck = Checkpoint::open(&path, spec).expect("reopen truncated");
        let restored = ck.resumed_count();
        let resumed = mc
            .try_run_samples_durable("soak", &CancelToken::new(), Some(&ck), |_, _, rng, _, _| {
                Ok(synth(rng))
            })
            .expect("resumed run");

        let resumed_bits: Vec<(usize, u64)> = resumed
            .resolved_indexed()
            .map(|(i, v)| (i, v.to_bits()))
            .collect();
        prop_assert_eq!(&base_bits, &resumed_bits, "resume-equivalence");
        prop_assert!(resumed.is_complete(), "no lost samples");
        prop_assert_eq!(resumed.completeness.resumed, restored);
        prop_assert!(restored <= 16);
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn kill_resume_cycles_lose_no_samples_and_converge() {
    let mc = McConfig {
        threads: Some(2),
        ..McConfig::paper(24, 7)
    };
    let spec = synth_spec(24, 7);
    let baseline = mc
        .try_run_samples_durable("soak", &CancelToken::new(), None, |_, _, rng, _, _| {
            Ok(synth(rng))
        })
        .expect("clean run");
    let base_bits: Vec<(usize, u64)> = baseline
        .resolved_indexed()
        .map(|(i, v)| (i, v.to_bits()))
        .collect();

    // Operator kills the run after ~6 fresh samples, over and over, always
    // resuming from the same checkpoint file.
    let path = fresh_ckpt("cycles");
    let mut cycles = 0;
    let mut last_restored = 0;
    let finished = loop {
        cycles += 1;
        assert!(cycles <= 24, "kill/resume must converge, not thrash");
        let ck = Checkpoint::open(&path, spec).expect("open checkpoint");
        assert!(
            ck.resumed_count() >= last_restored,
            "done samples must never be lost across cycles"
        );
        last_restored = ck.resumed_count();
        let token = CancelToken::new();
        let fresh = AtomicUsize::new(0);
        let run = mc
            .try_run_samples_durable("soak", &token, Some(&ck), |_, _, rng, _, _| {
                if fresh.fetch_add(1, Ordering::Relaxed) >= 5 {
                    token.cancel(CancelReason::User); // the simulated kill
                }
                Ok(synth(rng))
            })
            .expect("cycle run");
        if run.is_complete() {
            break run;
        }
        assert_eq!(run.completeness.truncated, Some("interrupted"));
    };

    assert!(cycles >= 2, "the kill must actually truncate at least once");
    let final_bits: Vec<(usize, u64)> = finished
        .resolved_indexed()
        .map(|(i, v)| (i, v.to_bits()))
        .collect();
    assert_eq!(base_bits, final_bits, "resume-equivalence after the soak");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn electrical_kill_resume_matches_uninterrupted_run() {
    let mc = McConfig {
        threads: Some(2),
        ..McConfig::paper(8, 11)
    };
    let study = PulseStudy::new(put(), mc, Polarity::PositiveGoing);
    let calib = study.calibrate().expect("pulse calibration");
    let plan = Plan::fixed(&RS, &FACTORS);
    let baseline = study
        .run(&calib, &plan, &CancelToken::new(), None)
        .expect("clean electrical run");

    let path = fresh_ckpt("electrical");
    let spec = study.checkpoint_spec(&calib, &plan);
    {
        let ck = Checkpoint::create(&path, spec).expect("create");
        study
            .run(&calib, &plan, &CancelToken::new(), Some(&ck))
            .expect("checkpointed electrical run");
    }
    let base_rows = record_bits(&path, spec);
    // Kill mid-file, then resume to completion.
    let bytes = std::fs::read(&path).expect("read");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
    let ck = Checkpoint::open(&path, spec).expect("reopen");
    let resumed = study
        .run(&calib, &plan, &CancelToken::new(), Some(&ck))
        .expect("resumed electrical run");
    drop(ck);
    assert_eq!(curve_bits(baseline.curves()), curve_bits(resumed.curves()));
    assert_eq!(base_rows, record_bits(&path, spec));
    assert!(resumed.curves()[0].completeness.is_complete());
    let _ = std::fs::remove_file(&path);
}

/// The rows a checkpoint holds, in record order.
fn record_bits(path: &std::path::Path, spec: CheckpointSpec) -> Vec<Vec<u64>> {
    let ck = Checkpoint::<Vec<f64>>::open(path, spec).expect("reopen");
    ck.prior()
        .values()
        .map(|o| {
            let row = o.value().expect("a resolved row");
            row.iter().map(|x| x.to_bits()).collect()
        })
        .collect()
}

#[test]
fn injected_stall_trips_the_sample_timeout_and_recovers_on_retry() {
    // Sample 3 stalls 2 s per accepted time point on its first attempt
    // only; the 500 ms per-sample timeout cuts it loose, the retry (fresh
    // timeout budget, no stall planned) recovers it. The margins are wide
    // on purpose: the retry must finish inside the timeout even on a
    // loaded CI machine running the whole suite in parallel (an idle
    // debug-build sample is ~40 ms).
    let mc = McConfig {
        threads: Some(2),
        resilience: ResilienceConfig {
            sample_timeout: Some(Duration::from_millis(500)),
            ..ResilienceConfig::tolerant(3, 0.3)
        },
        fault_plan: Some(FaultPlan::new().fail_sample(3, FaultKind::Stall { millis: 2000 }, 1)),
        ..McConfig::paper(8, 11)
    };
    let study = PulseStudy::new(put(), mc, Polarity::PositiveGoing);
    let run = study
        .try_faulty_wouts(W_IN, &RS)
        .expect("timeout must be recoverable");

    assert_eq!(
        run.failures.samples, 8,
        "a sample timeout never truncates the run"
    );
    assert!(
        matches!(
            &run.outcomes[3],
            SampleOutcome::Recovered { attempts: 2, .. }
        ),
        "sample 3 must recover on its second attempt: {:?}",
        run.outcomes[3].value().is_some()
    );
    assert_eq!(run.failures.recovered, 1);
    assert_eq!(run.failures.failed, 0);
    assert!(
        run.outcomes[3].value().is_some(),
        "the recovered sample carries a real measurement"
    );

    // The plain entry points honour the run budget too: a zero deadline
    // trips before any sample starts.
    let mut study = study;
    study.mc.fault_plan = None;
    study.mc.resilience.deadline = Some(Duration::ZERO);
    let calib = PulseCalibration {
        w_in: W_IN,
        w_th: W_IN,
    };
    let (curves, report) = study
        .run(&calib, &Plan::fixed(&RS, &[1.0]), &CancelToken::new(), None)
        .expect("a deadline truncates the curves, it does not fail them")
        .into_parts();
    assert_eq!(curves[0].completeness.truncated, Some("deadline"));
    assert_eq!(curves[0].completeness.done, 0);
    assert_eq!(report.samples, 0);
    let err = study
        .try_faulty_wouts(W_IN, &RS)
        .expect_err("a plain report cannot carry a partial run");
    assert!(pulsar_core::is_run_cancelled(&err), "{err:?}");
}

#[test]
fn panic_storm_is_contained_into_failed_samples() {
    let mc = McConfig {
        threads: Some(2),
        resilience: ResilienceConfig {
            contain_panics: true,
            ..ResilienceConfig::tolerant(1, 0.25)
        },
        fault_plan: Some(
            FaultPlan::new()
                .fail_sample(1, FaultKind::Panic, FaultPlan::ALWAYS)
                .fail_sample(6, FaultKind::Panic, FaultPlan::ALWAYS)
                .fail_sample(9, FaultKind::Panic, FaultPlan::ALWAYS),
        ),
        ..McConfig::paper(16, 5)
    };
    let study = PulseStudy::new(put(), mc, Polarity::PositiveGoing);
    let run = study
        .try_faulty_wouts(W_IN, &RS)
        .expect("3/16 contained panics are inside a 25 % budget");

    assert_eq!(
        run.failures.samples, 16,
        "contained panics do not truncate the run"
    );
    assert_eq!(run.failures.failed, 3);
    for i in [1usize, 6, 9] {
        match &run.outcomes[i] {
            SampleOutcome::Failed { error, .. } => {
                assert_eq!(pulsar_core::error_kind(error), "panic");
                match error {
                    CoreError::Panic { message } => {
                        assert!(message.contains("injected panic"), "{message}");
                    }
                    other => panic!("expected CoreError::Panic, got {other:?}"),
                }
            }
            other => panic!("sample {i} must fail: {:?}", other.value().is_some()),
        }
    }
    // Every other sample resolved normally.
    assert_eq!(run.resolved().count(), 13);
}

#[test]
fn panic_storm_unwinds_by_default() {
    let mc = McConfig {
        threads: Some(2),
        fault_plan: Some(FaultPlan::new().fail_sample(2, FaultKind::Panic, FaultPlan::ALWAYS)),
        ..McConfig::paper(8, 5)
    };
    let study = PulseStudy::new(put(), mc, Polarity::PositiveGoing);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        study.try_faulty_wouts(W_IN, &RS)
    }));
    assert!(
        result.is_err(),
        "without contain_panics a worker panic must unwind the caller"
    );
}

/// A sweep wide enough that the critical-resistance search skips columns.
const SWEEP: [f64; 6] = [300.0, 2e3, 10e3, 40e3, 120e3, 400e3];
const FACTORS: [f64; 3] = [0.9, 1.0, 1.1];

fn is_checkpoint_error<T: std::fmt::Debug>(r: Result<T, CoreError>) -> bool {
    matches!(r, Err(CoreError::Checkpoint { .. }))
}

fn curve_bits(curves: &[CoverageCurve]) -> Vec<u64> {
    curves
        .iter()
        .flat_map(|c| c.coverage.iter().map(|v| v.to_bits()))
        .collect()
}

fn pulse_study(samples: usize) -> (PulseStudy, PulseCalibration) {
    let mc = McConfig {
        threads: Some(2),
        ..McConfig::paper(samples, 11)
    };
    let study = PulseStudy::new(put(), mc, Polarity::PositiveGoing);
    let calib = study.calibrate().expect("pulse calibration");
    (study, calib)
}

fn df_study(samples: usize) -> (DfStudy, DfCalibration) {
    let mc = McConfig {
        threads: Some(2),
        ..McConfig::paper(samples, 11)
    };
    let study = DfStudy::new(put(), mc);
    let calib = study.calibrate().expect("DF calibration");
    (study, calib)
}

/// A fixed-sample plan over the shared sweep.
fn fixed() -> Plan {
    Plan::fixed(&SWEEP, &FACTORS)
}

/// An adaptive plan over the shared sweep.
fn adaptive_plan() -> Plan {
    Plan::adaptive(&SWEEP, &FACTORS, policy())
}

/// The report of an adaptive plan's run.
fn adaptive(run: Result<StudyReport, CoreError>) -> Result<AdaptiveReport, CoreError> {
    run.map(|report| match report {
        StudyReport::Adaptive(r) => r,
        other => panic!("an adaptive plan reported {other:?}"),
    })
}

/// A checkpoint written by one plan kind is refused by the other, both
/// when opened with the other's spec and when handed to the other's run.
fn plans_refuse_each_other(
    name: &str,
    spec: impl Fn(&Plan) -> CheckpointSpec,
    run: impl Fn(&Plan, &Checkpoint<Vec<f64>>) -> Result<StudyReport, CoreError>,
) {
    let plans = [fixed(), adaptive_plan()];
    assert_ne!(spec(&plans[0]), spec(&plans[1]));
    for (writer, reader) in [(&plans[0], &plans[1]), (&plans[1], &plans[0])] {
        let path = fresh_ckpt(name);
        {
            let ck = Checkpoint::create(&path, spec(writer)).expect("create");
            run(writer, &ck).expect("own plan");
        }
        assert!(is_checkpoint_error(Checkpoint::<Vec<f64>>::open(
            &path,
            spec(reader)
        )));
        let ck = Checkpoint::open(&path, spec(writer)).expect("reopen");
        assert!(is_checkpoint_error(run(reader, &ck)));
        drop(ck);
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn fixed_and_adaptive_checkpoints_refuse_each_other() {
    let (study, calib) = pulse_study(6);
    plans_refuse_each_other(
        "pulse-plans",
        |plan| study.checkpoint_spec(&calib, plan),
        |plan, ck| study.run(&calib, plan, &CancelToken::new(), Some(ck)),
    );
    let (df, t0) = df_study(4);
    plans_refuse_each_other(
        "df-plans",
        |plan| df.checkpoint_spec(&t0, plan),
        |plan, ck| df.run(&t0, plan, &CancelToken::new(), Some(ck)),
    );
}

fn policy() -> AdaptivePolicy {
    AdaptivePolicy {
        min_samples: 2,
        chunk: 2,
        ..AdaptivePolicy::new(0.34, 6)
    }
}

fn report_bits(r: &AdaptiveReport) -> Vec<u64> {
    let mut bits = curve_bits(&r.curves);
    bits.extend([r.evals, r.fixed_budget_evals, r.refine_evals]);
    bits.extend(r.points.iter().map(|p| p.accuracy.samples_spent));
    bits
}

#[test]
fn adaptive_checkpoint_from_another_calibration_is_refused() {
    let (study, calib) = pulse_study(6);
    let other = PulseCalibration {
        w_th: 0.8 * calib.w_th,
        ..calib
    };
    let plan = adaptive_plan();
    let spec = study.checkpoint_spec(&calib, &plan);
    let other_spec = study.checkpoint_spec(&other, &plan);
    assert_ne!(spec, other_spec, "the pulse digest covers ω_th⁰");
    let path = fresh_ckpt("pulse-adaptive");
    {
        let ck = Checkpoint::create(&path, spec).expect("create");
        study
            .run(&calib, &plan, &CancelToken::new(), Some(&ck))
            .expect("adaptive");
    }
    assert!(is_checkpoint_error(Checkpoint::<Vec<f64>>::open(
        &path, other_spec
    )));
    let ck = Checkpoint::open(&path, spec).expect("reopen");
    assert!(is_checkpoint_error(study.run(
        &other,
        &plan,
        &CancelToken::new(),
        Some(&ck)
    )));
    drop(ck);
    let _ = std::fs::remove_file(&path);

    // DF's adaptive spec takes no T₀, so the fold is the guard: a record
    // searched against another T₀ is refused when it cannot decide a
    // column, and otherwise yields exactly a fresh run's report.
    let (df, t0) = df_study(6);
    let spec = df.checkpoint_spec(&t0, &plan);
    for scale in [0.8, 0.97, 1.03, 1.25] {
        let path = fresh_ckpt("df-adaptive");
        {
            let ck = Checkpoint::create(&path, spec).expect("create");
            df.run(&t0, &plan, &CancelToken::new(), Some(&ck))
                .expect("adaptive");
        }
        let moved = DfCalibration { t0: scale * t0.t0 };
        assert_eq!(df.checkpoint_spec(&moved, &plan), spec);
        let fresh = adaptive(df.run(&moved, &plan, &CancelToken::new(), None)).expect("fresh run");
        let ck = Checkpoint::open(&path, spec).expect("reopen");
        match adaptive(df.run(&moved, &plan, &CancelToken::new(), Some(&ck))) {
            Ok(resumed) => assert_eq!(report_bits(&resumed), report_bits(&fresh), "T₀ × {scale}"),
            Err(e) => assert!(
                matches!(e, CoreError::Checkpoint { .. }),
                "T₀ × {scale}: {e:?}"
            ),
        }
        drop(ck);
        let _ = std::fs::remove_file(&path);
    }
}

/// The hazard the verdict bound must never hide (DESIGN.md §5.13). A DF
/// adaptive checkpoint written under `T₀` holds needs censored at `T₀`'s
/// bound, and at least one of them has a full-window need between the
/// old largest test period (`1.1·T₀`) and the one of `T₀ × 1.25`. Read
/// as "fails every period", that need would flip a verdict under the
/// longer periods, so resuming there must be refused. A checkpoint in
/// the row format from before censoring is refused as well.
#[test]
fn censored_needs_refuse_a_resume_under_longer_periods() {
    let (df, t0) = df_study(6);
    let policy = policy();
    let plan = adaptive_plan();
    let spec = df.checkpoint_spec(&t0, &plan);
    let bounded_path = fresh_ckpt("df-bounded");
    let exact_path = fresh_ckpt("df-exact");
    {
        let bounded = Checkpoint::create(&bounded_path, spec).expect("create");
        let exact = Checkpoint::create(&exact_path, spec).expect("create");
        let a =
            adaptive(df.run(&t0, &plan, &CancelToken::new(), Some(&bounded))).expect("bounded run");
        let b = adaptive(df.run_full_grid(&t0, &plan, &CancelToken::new(), Some(&exact)))
            .expect("full-window run");
        assert_eq!(report_bits(&a), report_bits(&b));
    }
    // Both runs took the same decisions, so record `i` of each holds the
    // same columns: pair every censored need with its full-window need.
    let rows = |path| {
        let ck = Checkpoint::<Vec<f64>>::open(path, spec).expect("reopen");
        ck.prior()
            .iter()
            .map(|(&i, o)| (i, o.value().cloned().expect("a resolved row")))
            .collect::<Vec<_>>()
    };
    let (bounded, exact) = (rows(&bounded_path), rows(&exact_path));
    let (old_top, new_top) = (1.1 * t0.t0, 1.1 * 1.25 * t0.t0);
    let mut hazards = 0;
    for ((i, b), (j, e)) in bounded.iter().zip(&exact) {
        assert_eq!((i, b.len()), (j, e.len()), "record {i}");
        for (&v, &need) in b.iter().zip(e) {
            if v < 0.0 {
                assert!(old_top < -v && -v <= need, "record {i}: {v:e} vs {need:e}");
                hazards += usize::from(need <= new_top);
            }
        }
    }
    assert!(
        hazards > 0,
        "no censored need falls between the two periods"
    );
    let longer = DfCalibration { t0: 1.25 * t0.t0 };
    let ck = Checkpoint::open(&bounded_path, spec).expect("reopen");
    match df.run(&longer, &plan, &CancelToken::new(), Some(&ck)) {
        Err(CoreError::Checkpoint { reason }) => {
            assert!(reason.contains("censored"), "refused for {reason}")
        }
        other => panic!("a censored need decided a longer period: {other:?}"),
    }
    drop(ck);

    // The same exact rows under the digest a checkpoint had before needs
    // could be censored: its header no longer matches the study's spec.
    let old_format = CheckpointSpec {
        config_digest: pulsar_obs::config_digest(&format!(
            "df-adaptive put={:?} variation={:?} ff={:?} margin={:016x} policy={:?} \
             factors={:?} r={:?} crossover={:?}",
            df.put,
            df.mc.variation,
            df.ff,
            df.clock_margin.to_bits(),
            policy,
            FACTORS.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            SWEEP.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            Vec::<Vec<u64>>::new(),
        )),
        ..spec
    };
    assert_ne!(old_format, spec);
    let old_path = fresh_ckpt("df-old-format");
    {
        let ck = Checkpoint::create(&old_path, old_format).expect("create");
        for (i, row) in &exact {
            ck.record(*i, 0, &SampleOutcome::Ok(row.clone()));
        }
    }
    let ck = Checkpoint::open(&old_path, old_format).expect("reopen old format");
    assert_eq!(ck.resumed_count(), exact.len());
    assert!(is_checkpoint_error(df.run(
        &t0,
        &plan,
        &CancelToken::new(),
        Some(&ck)
    )));
    drop(ck);
    for p in [bounded_path, exact_path, old_path] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn coverage_killed_mid_run_resumes_to_the_uninterrupted_curves() {
    let (study, calib) = pulse_study(8);
    let clean = study
        .coverage(&calib, &SWEEP, &FACTORS)
        .expect("uninterrupted");
    let spec = study.checkpoint_spec(&calib, &fixed());
    let path = fresh_ckpt("pulse-coverage");
    {
        let ck = Checkpoint::create(&path, spec).expect("create");
        study
            .run(&calib, &fixed(), &CancelToken::new(), Some(&ck))
            .expect("checkpointed");
    }
    // Kill mid-file, then resume to completion.
    let bytes = std::fs::read(&path).expect("read");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
    let ck = Checkpoint::<Vec<f64>>::open(&path, spec).expect("reopen");
    let restored = ck.resumed_count();
    assert!(restored > 0 && restored < 8, "{restored} of 8 restored");
    // Sparse rows really were checkpointed: the restored ones skip columns.
    assert!(ck
        .prior()
        .values()
        .filter_map(|o| o.value())
        .any(|row| row.iter().any(|v| v.is_nan())));
    let (resumed, _) = study
        .run(&calib, &fixed(), &CancelToken::new(), Some(&ck))
        .expect("resumed")
        .into_parts();
    assert_eq!(curve_bits(&resumed), curve_bits(&clean));
    assert!(resumed[0].completeness.is_complete());
    assert_eq!(resumed[0].completeness.resumed, restored);
    drop(ck);
    let _ = std::fs::remove_file(&path);

    let (df, t0) = df_study(8);
    let clean = df.coverage(&t0, &SWEEP, &FACTORS).expect("uninterrupted");
    let spec = df.checkpoint_spec(&t0, &fixed());
    let path = fresh_ckpt("df-coverage");
    {
        let ck = Checkpoint::create(&path, spec).expect("create");
        df.run(&t0, &fixed(), &CancelToken::new(), Some(&ck))
            .expect("checkpointed");
    }
    let bytes = std::fs::read(&path).expect("read");
    std::fs::write(&path, &bytes[..bytes.len() * 2 / 5]).expect("truncate");
    let ck = Checkpoint::open(&path, spec).expect("reopen");
    let (resumed, _) = df
        .run(&t0, &fixed(), &CancelToken::new(), Some(&ck))
        .expect("resumed")
        .into_parts();
    assert_eq!(curve_bits(&resumed), curve_bits(&clean));
    drop(ck);
    let _ = std::fs::remove_file(&path);
}

/// A campaign checkpoint written under the fixed 48-halving `R_min`
/// bisection, whose digest named no search, is refused: its plans'
/// `R_min` differ from this search's in their low bits, and one resumed
/// report must not mix the two.
#[test]
fn campaign_checkpoint_from_the_bisection_search_is_refused() {
    use pulsar_core::{Campaign, SitePlanRecord};
    use pulsar_logic::{c17, collapsed_fault_sites};
    use pulsar_timing::TimingLibrary;

    let nl = c17();
    let lib = TimingLibrary::generic();
    let campaign = Campaign {
        threads: Some(1),
        ..Campaign::default()
    };
    let spec = campaign.checkpoint_spec(&nl);
    let sites: Vec<_> = collapsed_fault_sites(&nl)
        .into_iter()
        .map(|g| g.representative)
        .step_by(campaign.stride.max(1))
        .collect();
    let bisection = CheckpointSpec {
        config_digest: pulsar_obs::config_digest(&format!(
            "campaign cfg={:?} stride={} collapse={} sites={:?}",
            campaign.cfg, campaign.stride, campaign.collapse, sites
        )),
        ..spec
    };
    assert_ne!(bisection, spec, "the search is not in the digest");

    // An uninterrupted run under this search, recorded under the old spec.
    let reference = campaign.run(&nl, &lib).expect("run");
    let path = fresh_ckpt("campaign-bisection");
    {
        let ck = Checkpoint::create(&path, bisection).expect("create");
        ck.record(0, 0, &SampleOutcome::Ok(SitePlanRecord::Unsensitizable));
    }
    let ck = Checkpoint::<SitePlanRecord>::open(&path, bisection).expect("reopen old spec");
    assert!(is_checkpoint_error(campaign.run_durable(
        &nl,
        &lib,
        &CancelToken::new(),
        Some(&ck)
    )));
    drop(ck);
    assert!(is_checkpoint_error(Checkpoint::open(&path, spec).and_then(
        |ck| campaign.run_durable(&nl, &lib, &CancelToken::new(), Some(&ck))
    )));

    // A checkpoint of this search resumes to the uninterrupted report.
    let fresh = fresh_ckpt("campaign-illinois");
    let run = || {
        let ck = Checkpoint::open(&fresh, spec)?;
        campaign.run_durable(&nl, &lib, &CancelToken::new(), Some(&ck))
    };
    let first = run().expect("first run");
    let resumed = run().expect("resume");
    assert_eq!(resumed.completeness.resumed, reference.sites.len());
    for r in [&first, &resumed] {
        assert_eq!(format!("{:?}", r.sites), format!("{:?}", reference.sites));
    }
    for p in [path, fresh] {
        let _ = std::fs::remove_file(p);
    }
}

/// A contained panic at one probed site fails that site after a single
/// attempt — a site is planned once, whatever retry budget the studies
/// have — and leaves every other site as a clean run plans it.
#[test]
fn campaign_contains_a_panicking_site_in_one_attempt() {
    use pulsar_core::{Campaign, SiteOutcome};
    use std::sync::Arc;

    let nl = pulsar_logic::c17();
    let lib = pulsar_timing::TimingLibrary::generic();
    // One thread: sites plan on this thread, where the hook counts panics.
    let clean = Campaign {
        threads: Some(1),
        ..Campaign::default()
    };
    let reference = clean.run(&nl, &lib).expect("clean run");
    let k = reference
        .sites
        .iter()
        .position(|(_, o)| matches!(o, SiteOutcome::Planned(_)))
        .expect("c17 has a planned site");
    let chaos = Campaign {
        fault_plan: Some(FaultPlan::new().fail_sample(k, FaultKind::Panic, FaultPlan::ALWAYS)),
        resilience: ResilienceConfig {
            contain_panics: true,
            ..ResilienceConfig::default()
        },
        ..clean.clone()
    };
    assert_eq!(chaos.resilience.max_attempts, 3, "studies would retry");

    let me = std::thread::current().id();
    let panics = Arc::new(AtomicUsize::new(0));
    let prev: Arc<dyn Fn(&std::panic::PanicHookInfo<'_>) + Send + Sync> =
        Arc::from(std::panic::take_hook());
    {
        let (panics, prev) = (Arc::clone(&panics), Arc::clone(&prev));
        std::panic::set_hook(Box::new(move |info| {
            if std::thread::current().id() == me {
                panics.fetch_add(1, Ordering::Relaxed);
            } else {
                prev(info);
            }
        }));
    }
    let report = chaos.run(&nl, &lib);
    drop(std::panic::take_hook());
    std::panic::set_hook(Box::new(move |info| prev(info)));
    let report = report.expect("a contained panic is a failed site");

    assert_eq!(panics.load(Ordering::Relaxed), 1, "one attempt, no retry");
    assert_eq!(report.failed, 1);
    assert_eq!(report.sites.len(), reference.sites.len());
    for (j, (got, want)) in report.sites.iter().zip(&reference.sites).enumerate() {
        if j == k {
            assert_eq!(got.0, want.0);
            match &got.1 {
                SiteOutcome::Failed(CoreError::Panic { message }) => {
                    assert!(message.contains("injected panic"), "{message}");
                }
                other => panic!("site {k} must fail with a panic, got {other:?}"),
            }
        } else {
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "site {j}");
        }
    }
}

/// A zero deadline over a complete campaign checkpoint restores every
/// site and truncates nothing: the deadline trips before any site runs,
/// but no site is left to run.
#[test]
fn zero_deadline_campaign_over_a_complete_checkpoint_is_complete() {
    use pulsar_core::Campaign;

    let nl = pulsar_logic::c17();
    let lib = pulsar_timing::TimingLibrary::generic();
    let campaign = Campaign {
        threads: Some(1),
        ..Campaign::default()
    };
    let path = fresh_ckpt("campaign-complete");
    let full = {
        let ck = Checkpoint::open(&path, campaign.checkpoint_spec(&nl)).expect("create");
        campaign
            .run_durable(&nl, &lib, &CancelToken::new(), Some(&ck))
            .expect("full run")
    };
    assert!(full.completeness.is_complete());

    let zero = Campaign {
        resilience: ResilienceConfig {
            deadline: Some(Duration::ZERO),
            ..ResilienceConfig::default()
        },
        ..campaign
    };
    let ck = Checkpoint::open(&path, zero.checkpoint_spec(&nl)).expect("reopen");
    let token = CancelToken::new();
    let resumed = zero
        .run_durable(&nl, &lib, &token, Some(&ck))
        .expect("resumed run");
    assert_eq!(token.cancelled(), Some(CancelReason::Deadline));
    let c = resumed.completeness;
    assert_eq!(c.requested, full.sites.len());
    assert_eq!(c.done, c.requested);
    assert_eq!(c.resumed, c.requested);
    assert_eq!(c.truncated, None);
    assert_eq!(format!("{:?}", resumed.sites), format!("{:?}", full.sites));
    drop(ck);
    let _ = std::fs::remove_file(&path);
}

/// A record nested deeper than any parser stack could follow is a torn
/// tail: the records before it load, and the run redoes the rest.
#[test]
fn deeply_nested_record_is_a_torn_tail() {
    let mc = McConfig {
        threads: Some(1),
        ..McConfig::paper(8, 11)
    };
    let spec = synth_spec(8, 11);
    let path = fresh_ckpt("nested");
    {
        let ck = Checkpoint::create(&path, spec).expect("create");
        mc.try_run_samples_durable("soak", &CancelToken::new(), Some(&ck), |_, _, rng, _, _| {
            Ok(synth(rng))
        })
        .expect("checkpointed run");
    }
    let clean = std::fs::read_to_string(&path).expect("read");
    let lines: Vec<&str> = clean.lines().collect();
    let kept = 3;
    let text = format!(
        "{}\n{{\"kind\":\"sample-done\",\"value\":{}\n{}\n",
        lines[..=kept].join("\n"),
        "[".repeat(1_000_000),
        lines[kept + 1..].join("\n")
    );
    std::fs::write(&path, text).expect("write");
    let ck = Checkpoint::open(&path, spec).expect("open");
    assert_eq!(
        ck.resumed_count(),
        kept,
        "the records before the nested one"
    );
    let resumed = mc
        .try_run_samples_durable("soak", &CancelToken::new(), Some(&ck), |_, _, rng, _, _| {
            Ok(synth(rng))
        })
        .expect("resumed run");
    assert!(resumed.is_complete());
    assert_eq!(resumed.completeness.resumed, kept);
    let _ = std::fs::remove_file(&path);
}

/// Resuming compacts the file only when compaction changes its bytes. A
/// clean checkpoint keeps its inode and leaves no temporary file; a torn
/// tail, swapped records or a torn header are still rewritten (a rename
/// gives the file a new inode) into the canonical form.
#[test]
fn resume_rewrites_only_a_checkpoint_that_is_not_compact() {
    use std::os::unix::fs::MetadataExt;
    let inode = |p: &std::path::Path| std::fs::metadata(p).expect("stat").ino();
    let mc = McConfig {
        threads: Some(1),
        ..McConfig::paper(8, 7)
    };
    let spec = synth_spec(8, 7);
    let path = fresh_ckpt("compact");
    let tmp = path.with_extension("ckpt.tmp");
    {
        let ck = Checkpoint::create(&path, spec).expect("create");
        mc.try_run_samples_durable("soak", &CancelToken::new(), Some(&ck), |_, _, rng, _, _| {
            Ok(synth(rng))
        })
        .expect("checkpointed run");
    }
    // One resume puts the file in canonical form; the next must not touch it.
    drop(Checkpoint::<f64>::resume(&path, spec).expect("first resume"));
    let clean = std::fs::read_to_string(&path).expect("read");
    let ino = inode(&path);
    let ck = Checkpoint::<f64>::resume(&path, spec).expect("clean resume");
    assert_eq!(ck.resumed_count(), 8);
    drop(ck);
    assert_eq!(std::fs::read_to_string(&path).expect("read"), clean);
    assert_eq!(inode(&path), ino, "a compact checkpoint is not rewritten");
    assert!(!tmp.exists(), "no temporary file is left behind");

    let lines: Vec<&str> = clean.lines().collect();
    let mut swapped: Vec<&str> = lines.clone();
    swapped.swap(1, 2);
    let header_only = format!("{}\n", lines[0]);
    for (what, text, want) in [
        (
            "torn tail",
            format!("{clean}{}", &lines[1][..lines[1].len() / 2]),
            clean.clone(),
        ),
        ("swapped records", swapped.join("\n") + "\n", clean.clone()),
        (
            "torn header",
            lines[0][..lines[0].len() / 2].to_owned(),
            header_only,
        ),
    ] {
        std::fs::write(&path, &text).expect("write");
        let ino = inode(&path);
        drop(Checkpoint::<f64>::resume(&path, spec).expect(what));
        assert_eq!(
            std::fs::read_to_string(&path).expect("read"),
            want,
            "{what}"
        );
        assert_ne!(inode(&path), ino, "{what}: rewritten");
        assert!(!tmp.exists(), "{what}: no temporary file is left behind");
    }
    let _ = std::fs::remove_file(&path);
}
