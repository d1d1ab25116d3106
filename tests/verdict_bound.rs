//! Verdict-bound audit: under a coverage grid, a DF delay query stops
//! once the delay is proven to fail every test period, and the row stores
//! the need censored at its proven floor (DESIGN.md §5.13). This suite
//! checks each sample's bounded rows against the full-window needs of
//! `DfStudy::try_faulty_needs`:
//!
//! * an uncensored value equals the full-window need bit for bit;
//! * a censored value `−L` has every threshold `< L ≤` the full need;
//! * the fixed-sample curves equal those of the full-window rows, and
//!   the adaptive report equals the forced full-grid, full-window arm's,
//!   bit for bit;
//! * the `delays_censored` counter counts the censored values.
//!
//! It covers the Fig. 6 sweep for the external and the internal ROP and
//! the Fig. 8 bridge sweep. Tier 1 runs 8 samples × 2 seeds; the full
//! scale (N = 200, seed 2007) is `#[ignore]`d and runs in CI with
//! `-- --ignored`.

use pulsar_analog::Recorder;
use pulsar_bench::{bridge_put, internal_rop_put, log_sweep, rop_put};
use pulsar_core::{
    AdaptivePolicy, AdaptiveReport, CancelToken, Checkpoint, CoverageCurve, DefectKind, DfStudy,
    McConfig, PathUnderTest, Plan,
};
use pulsar_obs::Counter;
use std::sync::atomic::{AtomicUsize, Ordering};

const FACTORS: [f64; 3] = [0.9, 1.0, 1.1];

fn sweep(put: &PathUnderTest) -> Vec<f64> {
    match put.defect {
        DefectKind::Bridge { .. } => log_sweep(800.0, 60e3, 13),
        _ => log_sweep(300.0, 400e3, 13),
    }
}

/// A fresh checkpoint path of this process, one per call.
fn scratch(name: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("pulsar-verdict-bound");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join(format!(
        "{name}-{}-{}.ckpt",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn policy(samples: usize) -> AdaptivePolicy {
    if samples <= 16 {
        AdaptivePolicy {
            min_samples: 2,
            chunk: 2,
            ..AdaptivePolicy::new(0.34, samples)
        }
    } else {
        AdaptivePolicy::new(0.1, samples)
    }
}

/// Every record of a checkpoint, by record index.
fn records(path: &std::path::Path, spec: pulsar_core::CheckpointSpec) -> Vec<(usize, Vec<f64>)> {
    let ck = Checkpoint::<Vec<f64>>::open(path, spec).expect("reopen");
    ck.prior()
        .iter()
        .map(|(&i, o)| (i, o.value().cloned().expect("a resolved row")))
        .collect()
}

fn curve_bits(curves: &[CoverageCurve]) -> Vec<u64> {
    curves
        .iter()
        .flat_map(|c| c.coverage.iter().map(|v| v.to_bits()))
        .collect()
}

fn report_bits(r: &AdaptiveReport) -> Vec<u64> {
    let mut bits = curve_bits(&r.curves);
    bits.extend([r.evals, r.fixed_budget_evals, r.refine_evals]);
    for p in &r.points {
        bits.extend([
            p.coverage.to_bits(),
            p.interval.lo.to_bits(),
            p.interval.hi.to_bits(),
            p.accuracy.achieved_halfwidth.to_bits(),
            p.accuracy.samples_spent,
            u64::from(p.accuracy.stopped_early),
            u64::from(p.refined),
        ]);
    }
    bits
}

/// Checks one bounded row against the full-window needs at the same
/// columns; returns how many of its values are censored.
fn check_row(at: &str, thresholds: &[f64], bounded: &[f64], full: &[f64]) -> u64 {
    assert_eq!(bounded.len(), full.len(), "{at}: row length");
    let mut censored = 0;
    for (c, (&v, &need)) in bounded.iter().zip(full).enumerate() {
        assert!(!need.is_nan() && need >= 0.0, "{at}: full need {need:e}");
        if v.is_nan() {
            // A column the critical-resistance search skipped.
        } else if v < 0.0 {
            let floor = -v;
            assert!(
                thresholds.iter().all(|&th| th < floor) && floor <= need,
                "{at} column {c}: censored floor {floor:e}, full need {need:e}, \
                 thresholds {thresholds:?}"
            );
            censored += 1;
        } else {
            assert_eq!(v.to_bits(), need.to_bits(), "{at} column {c}");
        }
    }
    censored
}

/// The whole audit of one defect class at one seed; returns the number
/// of censored values the fixed run stored.
fn audit(put: &PathUnderTest, samples: usize, seed: u64) -> u64 {
    let label = format!("{:?} seed {seed}", put.defect);
    let rs = sweep(put);
    let obs = Recorder::enabled();
    let mc = McConfig {
        obs: obs.clone(),
        ..McConfig::paper(samples, seed)
    };
    let study = DfStudy::new(put.clone(), mc);
    let calib = study.calibrate().expect("calibration");
    let thresholds: Vec<f64> = FACTORS.iter().map(|f| f * calib.t0).collect();
    let full = study
        .try_faulty_needs(&rs)
        .expect("full-window needs")
        .into_resolved();
    assert_eq!(full.len(), samples, "{label}: every need row resolves");

    // Fixed: the durable run's rows, read back from its checkpoint.
    let path = scratch("fixed");
    let plan = Plan::fixed(&rs, &FACTORS);
    let spec = study.checkpoint_spec(&calib, &plan);
    let before = obs.snapshot();
    let (curves, _) = {
        let ck = Checkpoint::create(&path, spec).expect("checkpoint");
        study
            .run(&calib, &plan, &CancelToken::new(), Some(&ck))
            .expect("bounded coverage")
            .into_parts()
    };
    let after = obs.snapshot();
    let rows = records(&path, spec);
    let _ = std::fs::remove_file(&path);
    assert_eq!(rows.len(), samples, "{label}: every row checkpointed");
    let mut censored = 0;
    for (i, row) in &rows {
        censored += check_row(&format!("{label} sample {i}"), &thresholds, row, &full[*i]);
    }
    let delta = |c: Counter| after.counter(c) - before.counter(c);
    assert_eq!(delta(Counter::DelaysCensored), censored, "{label}: counter");
    assert!(
        delta(Counter::EdgesSkipped) <= censored,
        "{label}: skipped edges"
    );
    let full_bits: Vec<u64> = thresholds
        .iter()
        .flat_map(|&th| {
            let full = &full;
            (0..rs.len()).map(move |c| {
                let hit = full.iter().filter(|row| th < row[c]).count();
                (hit as f64 / samples as f64).to_bits()
            })
        })
        .collect();
    assert_eq!(curve_bits(&curves), full_bits, "{label}: fixed curves");

    // Adaptive: the bounded run against the full-grid, full-window arm.
    // Equal reports mean equal stopping decisions, so record `i` of both
    // holds the same active columns.
    let plan = Plan::adaptive(&rs, &FACTORS, policy(samples));
    let spec = study.checkpoint_spec(&calib, &plan);
    let (bounded_path, exact_path) = (scratch("adaptive"), scratch("adaptive-exact"));
    let bounded = study
        .run(
            &calib,
            &plan,
            &CancelToken::new(),
            Some(&Checkpoint::create(&bounded_path, spec).expect("checkpoint")),
        )
        .expect("bounded adaptive");
    let exact = study
        .run_full_grid(
            &calib,
            &plan,
            &CancelToken::new(),
            Some(&Checkpoint::create(&exact_path, spec).expect("checkpoint")),
        )
        .expect("full-window adaptive");
    assert_eq!(
        report_bits(bounded.adaptive().expect("adaptive report")),
        report_bits(exact.adaptive().expect("adaptive report")),
        "{label}: adaptive report"
    );
    let (b, e) = (records(&bounded_path, spec), records(&exact_path, spec));
    let _ = std::fs::remove_file(&bounded_path);
    let _ = std::fs::remove_file(&exact_path);
    assert_eq!(b.len(), e.len(), "{label}: adaptive records");
    for ((i, row), (j, exact_row)) in b.iter().zip(&e) {
        assert_eq!(i, j, "{label}: record indices");
        assert!(
            exact_row.iter().all(|v| *v >= 0.0),
            "{label}: the full-window arm stores exact needs"
        );
        check_row(
            &format!("{label} adaptive record {i}"),
            &thresholds,
            row,
            exact_row,
        );
    }
    eprintln!(
        "{label}: {censored} of {} needs censored, {} second edges skipped",
        samples * rs.len(),
        delta(Counter::EdgesSkipped)
    );
    censored
}

fn audit_all(put: PathUnderTest, samples: usize, seeds: &[u64]) {
    let censored: u64 = seeds.iter().map(|&s| audit(&put, samples, s)).sum();
    assert!(censored > 0, "{:?}: the bound censored no need", put.defect);
}

const TIER1_SAMPLES: usize = 8;
const TIER1_SEEDS: [u64; 2] = [2007, 11];

#[test]
fn external_rop_bounded_rows_match_full_window() {
    audit_all(rop_put(), TIER1_SAMPLES, &TIER1_SEEDS);
}

#[test]
fn internal_rop_bounded_rows_match_full_window() {
    audit_all(internal_rop_put(), TIER1_SAMPLES, &TIER1_SEEDS);
}

#[test]
fn bridge_bounded_rows_match_full_window() {
    audit_all(bridge_put(), TIER1_SAMPLES, &TIER1_SEEDS);
}

// The full-scale audit, one test per defect so they run in parallel.
const FULL_SAMPLES: usize = 200;
const FULL_SEEDS: [u64; 1] = [2007];

#[test]
#[ignore = "full scale: run with -- --ignored"]
fn full_scale_external_rop_bounded_rows_match_full_window() {
    audit_all(rop_put(), FULL_SAMPLES, &FULL_SEEDS);
}

#[test]
#[ignore = "full scale: run with -- --ignored"]
fn full_scale_internal_rop_bounded_rows_match_full_window() {
    audit_all(internal_rop_put(), FULL_SAMPLES, &FULL_SEEDS);
}

#[test]
#[ignore = "full scale: run with -- --ignored"]
fn full_scale_bridge_bounded_rows_match_full_window() {
    audit_all(bridge_put(), FULL_SAMPLES, &FULL_SEEDS);
}
