//! Critical-resistance search audit: a coverage row simulates only the
//! resistances that decide its instance's verdicts, and infers the rest
//! from the declared direction of the measured value along R (DESIGN.md
//! §5.12). This suite is the evidence each declaration rests on.
//!
//! Per defect class of the Fig. 6–9 sweeps (external ROP, internal ROP
//! and bridge, the bridge with its aggressor low and high; pulse tests at
//! both polarities), every Monte Carlo
//! instance is rebuilt from its seeded stream and measured at every
//! resistance — the full-grid arm. Then:
//!
//! * the full-grid verdicts at every threshold are monotone in the
//!   class's declared direction;
//! * the searched coverage curves equal the full-grid arm's bit for bit,
//!   every value the search simulated (read back from the run's
//!   checkpoint) equals the full-grid value — or, for a DF need censored
//!   at the verdict bound, has a floor above every threshold and no
//!   larger than the full need — and the skipped columns are what the
//!   `columns_inferred` counter says;
//! * the adaptive report equals the forced full-grid adaptive arm's;
//! * DF bridges declare no direction and keep the full grid — their
//!   counterexample is pinned below.
//!
//! Tier 1 runs 8 samples × 2 seeds. The full-scale audit (N = 200,
//! seed 2007) is `#[ignore]`d and runs in CI with `-- --ignored`.

use pulsar_analog::{Polarity, Recorder};
use pulsar_bench::{bridge_put, internal_rop_put, log_sweep, rop_put};
use pulsar_core::{
    AdaptivePolicy, AdaptiveReport, CancelToken, Checkpoint, CoreError, CoverageCurve, DefectKind,
    DfStudy, McConfig, PathInstance, PathUnderTest, Plan, PulseStudy, StudyReport,
};
use pulsar_mc::MonteCarlo;
use pulsar_obs::Counter;
use std::sync::atomic::{AtomicUsize, Ordering};

const FACTORS: [f64; 3] = [0.9, 1.0, 1.1];

fn sweep(put: &PathUnderTest) -> Vec<f64> {
    match put.defect {
        DefectKind::Bridge { .. } => log_sweep(800.0, 60e3, 13),
        _ => log_sweep(300.0, 400e3, 13),
    }
}

/// The audited direction table: does detection switch on as R grows
/// (`Some(true)`), switch off (`Some(false)`), or is no direction
/// declared (`None`)? Pulse tests detect a width below the threshold,
/// DF tests a slack need above it.
fn declared(pulse: bool, defect: DefectKind) -> Option<bool> {
    match (pulse, defect) {
        // Opens dampen the pulse (width falls) and slow the path (need rises).
        (_, DefectKind::ExternalRop | DefectKind::InternalRop { .. }) => Some(true),
        // A weakening bridge fights the pulse less: the width rises.
        (true, DefectKind::Bridge { .. }) => Some(false),
        // The DF bridge need is not monotone (see the pinned fixture).
        (false, DefectKind::Bridge { .. }) => None,
    }
}

/// Both arms of one class at one seed: the full-grid values rebuilt per
/// instance, the thresholds, and what the searched run returned.
struct Arms {
    label: String,
    rs: Vec<f64>,
    thresholds: Vec<f64>,
    detect_below: bool,
    full: Vec<Vec<f64>>,
    searched: Vec<CoverageCurve>,
    /// Sparse rows of the searched run, from its checkpoint.
    rows: Vec<Vec<f64>>,
    simulated: u64,
    inferred: u64,
    adaptive: AdaptiveReport,
    adaptive_full: AdaptiveReport,
}

/// A fresh checkpoint path of this process. The tests run in parallel and
/// several arms share a study and seed, so each call gets its own file.
fn scratch(name: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("pulsar-critical-r");
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

fn checkpoint_rows(ck: &Checkpoint<Vec<f64>>, samples: usize) -> Vec<Vec<f64>> {
    (0..samples)
        .map(|i| {
            ck.prior()
                .get(&i)
                .and_then(|o| o.value().cloned())
                .expect("every searched row is checkpointed")
        })
        .collect()
}

fn pulse_arms(put: &PathUnderTest, polarity: Polarity, samples: usize, seed: u64) -> Arms {
    let rs = sweep(put);
    let obs = Recorder::enabled();
    let mc = McConfig {
        obs: obs.clone(),
        ..McConfig::paper(samples, seed)
    };
    let study = PulseStudy::new(put.clone(), mc, polarity);
    let calib = study.calibrate().expect("calibration");
    let draws = MonteCarlo::new(samples, seed);
    let full: Vec<Vec<f64>> = (0..samples)
        .map(|i| {
            // The study's draw order: stage techs, then the generator factor.
            let mut rng = draws.rng_for(i);
            let techs = study
                .mc
                .variation
                .sample_techs(&put.tech, put.spec.len(), &mut rng);
            let w = calib.w_in * study.mc.variation.sample_sensor(1.0, &mut rng);
            let mut p = put.instantiate(&techs, rs[0]);
            rs.iter()
                .map(|&r| {
                    p.set_resistance(r).expect("resistance");
                    p.pulse_width_out(w, polarity).expect("width")
                })
                .collect()
        })
        .collect();

    let label = format!("pulse {:?} {polarity:?} seed {seed}", put.defect);
    let path = scratch(&format!("pulse-{seed}"));
    let plan = Plan::fixed(&rs, &FACTORS);
    let spec = study.checkpoint_spec(&calib, &plan);
    let ck = Checkpoint::create(&path, spec).expect("checkpoint");
    let before = obs.snapshot();
    let (searched, _) = study
        .run(&calib, &plan, &CancelToken::new(), Some(&ck))
        .expect("searched coverage")
        .into_parts();
    let after = obs.snapshot();
    drop(ck);
    let rows = checkpoint_rows(&Checkpoint::open(&path, spec).expect("reopen"), samples);
    let _ = std::fs::remove_file(&path);
    let plan = Plan::adaptive(&rs, &FACTORS, policy(samples));
    Arms {
        label,
        thresholds: FACTORS.iter().map(|f| f * calib.w_th).collect(),
        detect_below: true,
        full,
        searched,
        rows,
        simulated: after.counter(Counter::ColumnsSimulated)
            - before.counter(Counter::ColumnsSimulated),
        inferred: after.counter(Counter::ColumnsInferred)
            - before.counter(Counter::ColumnsInferred),
        adaptive: adaptive(study.run(&calib, &plan, &CancelToken::new(), None)),
        adaptive_full: adaptive(study.run_full_grid(&calib, &plan, &CancelToken::new(), None)),
        rs,
    }
}

fn df_arms(put: &PathUnderTest, samples: usize, seed: u64) -> Arms {
    let rs = sweep(put);
    let obs = Recorder::enabled();
    let mc = McConfig {
        obs: obs.clone(),
        ..McConfig::paper(samples, seed)
    };
    let study = DfStudy::new(put.clone(), mc);
    let calib = study.calibrate().expect("calibration");
    let full = df_full_rows(&study, &rs, samples, seed);

    let label = format!("DF {:?} seed {seed}", put.defect);
    let path = scratch(&format!("df-{seed}"));
    let plan = Plan::fixed(&rs, &FACTORS);
    let spec = study.checkpoint_spec(&calib, &plan);
    let ck = Checkpoint::create(&path, spec).expect("checkpoint");
    let before = obs.snapshot();
    let (searched, _) = study
        .run(&calib, &plan, &CancelToken::new(), Some(&ck))
        .expect("searched coverage")
        .into_parts();
    let after = obs.snapshot();
    drop(ck);
    let rows = checkpoint_rows(&Checkpoint::open(&path, spec).expect("reopen"), samples);
    let _ = std::fs::remove_file(&path);
    let plan = Plan::adaptive(&rs, &FACTORS, policy(samples));
    Arms {
        label,
        thresholds: FACTORS.iter().map(|f| f * calib.t0).collect(),
        detect_below: false,
        full,
        searched,
        rows,
        simulated: after.counter(Counter::ColumnsSimulated)
            - before.counter(Counter::ColumnsSimulated),
        inferred: after.counter(Counter::ColumnsInferred)
            - before.counter(Counter::ColumnsInferred),
        adaptive: adaptive(study.run(&calib, &plan, &CancelToken::new(), None)),
        adaptive_full: adaptive(study.run_full_grid(&calib, &plan, &CancelToken::new(), None)),
        rs,
    }
}

/// The report of an adaptive plan's run.
fn adaptive(run: Result<StudyReport, CoreError>) -> AdaptiveReport {
    match run.expect("adaptive run") {
        StudyReport::Adaptive(report) => report,
        other => panic!("an adaptive plan reported {other:?}"),
    }
}

/// Slack needs of instances `0..samples` at every resistance, each
/// instance rebuilt from its seeded stream.
fn df_full_rows(study: &DfStudy, rs: &[f64], samples: usize, seed: u64) -> Vec<Vec<f64>> {
    let put = &study.put;
    let draws = MonteCarlo::new(samples, seed);
    (0..samples)
        .map(|i| {
            // The study's draw order: stage techs, then the flop timing.
            let mut rng = draws.rng_for(i);
            let techs = study
                .mc
                .variation
                .sample_techs(&put.tech, put.spec.len(), &mut rng);
            let ff = study.mc.variation.sample_ff(study.ff, &mut rng);
            let mut p = put.instantiate(&techs, rs[0]);
            rs.iter()
                .map(|&r| {
                    p.set_resistance(r).expect("resistance");
                    p.worst_delay().expect("delay") + ff.overhead()
                })
                .collect()
        })
        .collect()
}

impl Arms {
    fn detects(&self, v: f64, th: f64) -> bool {
        if self.detect_below {
            v < th
        } else {
            th < v
        }
    }

    /// Instances whose full-grid verdicts switch against `rises` along
    /// the (ascending) sweep at some threshold.
    fn violations(&self, rises: bool) -> Vec<usize> {
        (0..self.full.len())
            .filter(|&i| {
                self.thresholds.iter().any(|&th| {
                    let v: Vec<bool> = self.full[i].iter().map(|&w| self.detects(w, th)).collect();
                    v.windows(2)
                        .any(|p| if rises { p[0] && !p[1] } else { !p[0] && p[1] })
                })
            })
            .collect()
    }

    fn full_curves_bits(&self) -> Vec<u64> {
        let n = self.full.len() as f64;
        self.thresholds
            .iter()
            .flat_map(|&th| {
                (0..self.rs.len()).map(move |c| {
                    let hit = self
                        .full
                        .iter()
                        .filter(|row| self.detects(row[c], th))
                        .count();
                    (hit as f64 / n).to_bits()
                })
            })
            .collect()
    }

    fn check(&self, declared: Option<bool>) {
        let l = &self.label;
        let samples = self.full.len();
        let cells = (samples * self.rs.len()) as u64;
        // The declaration holds on every full-grid row.
        if let Some(rises) = declared {
            let bad = self.violations(rises);
            assert!(
                bad.is_empty(),
                "{l}: verdicts not monotone on instances {bad:?}"
            );
        }
        // Curves: searched == full grid, bit for bit.
        let searched: Vec<u64> = self
            .searched
            .iter()
            .flat_map(|c| c.coverage.iter().map(|v| v.to_bits()))
            .collect();
        assert_eq!(searched, self.full_curves_bits(), "{l}: curves");
        // Every simulated value is the full grid's, or a DF need censored
        // at the verdict bound (DESIGN.md §5.13) whose floor clears every
        // threshold and does not pass the full need; NaN marks the rest.
        let mut skipped = 0u64;
        for (i, (row, full)) in self.rows.iter().zip(&self.full).enumerate() {
            assert_eq!(row.len(), full.len(), "{l}: row {i} length");
            for (c, (&v, &w)) in row.iter().zip(full).enumerate() {
                if v.is_nan() {
                    skipped += 1;
                } else if v < 0.0 && !self.detect_below {
                    let floor = -v;
                    assert!(
                        self.thresholds.iter().all(|&th| th < floor) && floor <= w,
                        "{l}: sample {i} column {c}: censored floor {floor:e}, full need {w:e}"
                    );
                } else {
                    assert_eq!(v.to_bits(), w.to_bits(), "{l}: sample {i} column {c}");
                }
            }
        }
        assert_eq!(skipped, self.inferred, "{l}: columns_inferred counter");
        assert_eq!(
            self.simulated + self.inferred,
            cells,
            "{l}: column counters"
        );
        if declared.is_some() {
            assert!(skipped > 0, "{l}: the search skipped no column");
        } else {
            assert_eq!(
                skipped, 0,
                "{l}: an undeclared class must keep the full grid"
            );
        }
        // Adaptive: searched report == forced full-grid report.
        assert_eq!(
            report_bits(&self.adaptive),
            report_bits(&self.adaptive_full),
            "{l}: adaptive report"
        );
        eprintln!(
            "{l}: {} of {cells} columns simulated ({:.2} per instance)",
            self.simulated,
            self.simulated as f64 / samples as f64
        );
    }
}

fn report_bits(r: &AdaptiveReport) -> Vec<u64> {
    let mut bits: Vec<u64> = r
        .curves
        .iter()
        .flat_map(|c| c.coverage.iter().map(|v| v.to_bits()))
        .collect();
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

/// The Fig. 8/9 bridge and its mirror with the aggressor steady high.
fn bridges() -> [PathUnderTest; 2] {
    let high = PathUnderTest {
        defect: DefectKind::Bridge {
            aggressor_high: true,
        },
        ..bridge_put()
    };
    [bridge_put(), high]
}

fn audit_pulse(put: PathUnderTest, samples: usize, seeds: &[u64]) {
    for &seed in seeds {
        for polarity in [Polarity::PositiveGoing, Polarity::NegativeGoing] {
            pulse_arms(&put, polarity, samples, seed).check(declared(true, put.defect));
        }
    }
}

fn audit_df(put: PathUnderTest, samples: usize, seeds: &[u64]) {
    for &seed in seeds {
        df_arms(&put, samples, seed).check(declared(false, put.defect));
    }
}

const TIER1_SAMPLES: usize = 8;
const TIER1_SEEDS: [u64; 2] = [2007, 11];

#[test]
fn external_rop_pulse_search_matches_full_grid() {
    audit_pulse(rop_put(), TIER1_SAMPLES, &TIER1_SEEDS);
}

#[test]
fn internal_rop_pulse_search_matches_full_grid() {
    audit_pulse(internal_rop_put(), TIER1_SAMPLES, &TIER1_SEEDS);
}

#[test]
fn bridge_pulse_search_matches_full_grid() {
    for put in bridges() {
        audit_pulse(put, TIER1_SAMPLES, &TIER1_SEEDS);
    }
}

#[test]
fn external_rop_df_search_matches_full_grid() {
    audit_df(rop_put(), TIER1_SAMPLES, &TIER1_SEEDS);
}

#[test]
fn internal_rop_df_search_matches_full_grid() {
    audit_df(internal_rop_put(), TIER1_SAMPLES, &TIER1_SEEDS);
}

#[test]
fn bridge_df_keeps_the_full_grid() {
    for put in bridges() {
        audit_df(put, TIER1_SAMPLES, &TIER1_SEEDS);
    }
}

/// Why DF bridges declare no direction: the slack need of a bridged path
/// falls as the bridge weakens, but not all the way — near the top of the
/// Fig. 8 sweep it bottoms out and climbs again by a picosecond or two.
/// A threshold inside that dip (the calibrated `0.9·T₀` lands there for
/// some instances at other seeds) detects at low R, misses in the dip and
/// detects again at high R, so no direction makes the verdict monotone.
/// Pinned: instance 16 of seed 1, whose need bottoms out at 42 kΩ.
const DF_BRIDGE_SEED: u64 = 1;
const DF_BRIDGE_SAMPLE: usize = 16;

#[test]
fn df_bridge_counterexample_is_not_monotone() {
    let study = DfStudy::new(
        bridge_put(),
        McConfig::paper(DF_BRIDGE_SAMPLE + 1, DF_BRIDGE_SEED),
    );
    let rs = sweep(&study.put);
    let rows = df_full_rows(&study, &rs, DF_BRIDGE_SAMPLE + 1, DF_BRIDGE_SEED);
    let row = &rows[DF_BRIDGE_SAMPLE];
    let n = row.len();
    let m = (0..n)
        .min_by(|&a, &b| row[a].total_cmp(&row[b]))
        .expect("non-empty row");
    assert_eq!(
        m,
        n - 2,
        "the need bottoms out one step below the top: {row:?}"
    );
    let rise = row[n - 1] - row[m];
    assert!(
        rise > 1e-12,
        "the climb back is over a picosecond: {rise:e}"
    );
    let th = row[m] + 0.5 * rise;
    let v: Vec<bool> = row.iter().map(|&need| th < need).collect();
    let off = v.windows(2).any(|p| p[0] && !p[1]);
    let on = v.windows(2).any(|p| !p[0] && p[1]);
    assert!(off && on, "detection must switch off and back on: {v:?}");
}

// The full-scale audit, one test per defect so they run in parallel.
const FULL_SAMPLES: usize = 200;
const FULL_SEEDS: [u64; 1] = [2007];

#[test]
#[ignore = "full scale: run with -- --ignored"]
fn full_scale_external_rop_search_matches_full_grid() {
    audit_pulse(rop_put(), FULL_SAMPLES, &FULL_SEEDS);
    audit_df(rop_put(), FULL_SAMPLES, &FULL_SEEDS);
}

#[test]
#[ignore = "full scale: run with -- --ignored"]
fn full_scale_internal_rop_search_matches_full_grid() {
    audit_pulse(internal_rop_put(), FULL_SAMPLES, &FULL_SEEDS);
    audit_df(internal_rop_put(), FULL_SAMPLES, &FULL_SEEDS);
}

#[test]
#[ignore = "full scale: run with -- --ignored"]
fn full_scale_bridge_search_matches_full_grid() {
    for put in bridges() {
        audit_pulse(put.clone(), FULL_SAMPLES, &FULL_SEEDS);
        audit_df(put, FULL_SAMPLES, &FULL_SEEDS);
    }
}
