//! Early-stop equivalence: the pulse-width and delay queries end each
//! transient as soon as their measurement is fixed ([`Until`]). Every
//! output of the Fig. 6–9 sweep queries must equal a forced full-window
//! run bit for bit, per Monte Carlo instance: the output width, the stage
//! widths under the settle rule (also at twice the shipped tolerance),
//! and the delay and DF slack need of the transition queries. The study
//! rows come from the real study entry points; the full-window arm
//! rebuilds each instance from the same seeded stream.
//!
//! Tier 1 runs 8 samples × 2 seeds. The full-scale check (N = 200,
//! seed 2007) is `#[ignore]`d and runs in CI with `-- --ignored`.

use pulsar_analog::{Edge, Polarity, TranConfig, Until};
use pulsar_bench::{bridge_put, internal_rop_put, log_sweep, rop_put};
use pulsar_cells::{BuiltPath, PulseOutcome};
use pulsar_core::{DfStudy, McConfig, PathUnderTest, PulseStudy};
use pulsar_mc::MonteCarlo;

/// The calibrated Fig. 7 injection width ω_in⁰ (about 278 ps).
const W_IN: f64 = 278e-12;

/// Counts that prove the rule fired: transients compared, how many of
/// them the rule cut, and their points against the full window's. A run
/// may legitimately go the full window, e.g. when a high-resistance open
/// is still charging at `stop`.
#[derive(Default)]
struct Tally {
    transients: usize,
    stopped: usize,
    early_points: usize,
    full_points: usize,
}

impl Tally {
    fn add(&mut self, stopped: bool, early_points: usize, full_points: usize) {
        self.transients += 1;
        self.stopped += usize::from(stopped);
        self.early_points += early_points;
        self.full_points += full_points;
    }

    fn merge(&mut self, other: Tally) {
        self.transients += other.transients;
        self.stopped += other.stopped;
        self.early_points += other.early_points;
        self.full_points += other.full_points;
    }
}

fn sweep(put: &PathUnderTest) -> Vec<f64> {
    match put.defect {
        pulsar_core::DefectKind::Bridge { .. } => log_sweep(800.0, 60e3, 13),
        _ => log_sweep(300.0, 400e3, 13),
    }
}

/// Accepted points of the last stimulus rerun under `cfg` (the rerun is
/// bit-identical to the query's own run).
fn points(p: &mut BuiltPath, cfg: &TranConfig) -> (usize, bool) {
    let res = p.run_transient(Some(cfg)).expect("rerun");
    (res.len(), res.stats().stopped_early)
}

fn widths(o: &PulseOutcome) -> Vec<u64> {
    let stages = o.stage_widths.iter().map(|w| w.to_bits());
    std::iter::once(o.output_width.to_bits())
        .chain(stages)
        .collect()
}

/// Pulse queries (Figs. 7 and 9): the study's `try_faulty_wouts` rows,
/// `pulse_width_only`, and the stage widths under the settle rule
/// against the full window. (`propagate_pulse` itself keeps the full
/// window, so its peak fraction is the full window's by construction.)
fn check_pulse(put: &PathUnderTest, polarity: Polarity, samples: usize, seed: u64) -> Tally {
    let rs = sweep(put);
    let study = PulseStudy::new(put.clone(), McConfig::paper(samples, seed), polarity);
    let rows = study
        .try_faulty_wouts(W_IN, &rs)
        .expect("study rows")
        .into_resolved();
    assert_eq!(rows.len(), samples, "every instance must resolve");
    let mc = MonteCarlo::new(samples, seed);
    let mut tally = Tally::default();
    for (i, row) in rows.iter().enumerate() {
        // The study's draw order: stage techs, then the generator factor.
        let mut rng = mc.rng_for(i);
        let techs = study
            .mc
            .variation
            .sample_techs(&put.tech, put.spec.len(), &mut rng);
        let w = W_IN * study.mc.variation.sample_sensor(1.0, &mut rng);
        let mut inst = put.instantiate(&techs, rs[0]);
        let p = inst.built_path();
        for (k, &r) in rs.iter().enumerate() {
            p.set_fault_resistance(r).expect("resistance");
            let full_cfg = p.default_config(w);
            let settled = |tol: f64| TranConfig {
                until: Until::Settled { tol },
                ..full_cfg.clone()
            };
            let (full, full_run) = p
                .propagate_pulse_traced(w, polarity, Some(&full_cfg))
                .expect("full");
            let at = format!("{polarity:?} sample {i} R {r:e}");
            assert_eq!(
                row[k].to_bits(),
                full.output_width.to_bits(),
                "study row, {at}"
            );
            let width = p.pulse_width_only(w, polarity, None).expect("width");
            assert_eq!(width.to_bits(), full.output_width.to_bits(), "width, {at}");
            // Widths, per stage too, are fixed at the shipped settle
            // tolerance and at twice it.
            let tol = p.settle_tolerance();
            for t in [tol, 2.0 * tol] {
                let (o, run) = p
                    .propagate_pulse_traced(w, polarity, Some(&settled(t)))
                    .expect("settled");
                assert_eq!(widths(&o), widths(&full), "widths at tol {t}, {at}");
                if t == tol {
                    tally.add(run.stats().stopped_early, run.len(), full_run.len());
                }
            }
        }
    }
    tally
}

/// Transition queries (Figs. 6 and 8): the study's `try_faulty_needs` rows
/// and both edges' delays against the full window.
fn check_df(put: &PathUnderTest, samples: usize, seed: u64) -> Tally {
    let rs = sweep(put);
    let study = DfStudy::new(put.clone(), McConfig::paper(samples, seed));
    let rows = study
        .try_faulty_needs(&rs)
        .expect("study rows")
        .into_resolved();
    assert_eq!(rows.len(), samples, "every instance must resolve");
    let mc = MonteCarlo::new(samples, seed);
    let mut tally = Tally::default();
    for (i, row) in rows.iter().enumerate() {
        // The study's draw order: stage techs, then the flop timing.
        let mut rng = mc.rng_for(i);
        let techs = study
            .mc
            .variation
            .sample_techs(&put.tech, put.spec.len(), &mut rng);
        let ff = study.mc.variation.sample_ff(study.ff, &mut rng);
        let mut inst = put.instantiate(&techs, rs[0]);
        let p = inst.built_path();
        // Every transition run of an instance has the same full window.
        let full_cfg = p.default_config(0.0);
        let mut window = None;
        for (k, &r) in rs.iter().enumerate() {
            p.set_fault_resistance(r).expect("resistance");
            let mut need = f64::NEG_INFINITY;
            for edge in [Edge::Rising, Edge::Falling] {
                let full = p.propagate_transition(edge, Some(&full_cfg)).expect("full");
                let full_points = *window.get_or_insert_with(|| points(p, &full_cfg).0);
                let early = p.propagate_transition(edge, None).expect("early");
                let crossed = Until::Crossed {
                    input: p.input(),
                    in_edge: edge,
                    output: p.output(),
                    out_edge: early.output_edge,
                    threshold: p.vdd() / 2.0,
                    after: 0.5 * p.stimulus_start(),
                    within: f64::INFINITY,
                };
                let (early_points, stopped) = points(
                    p,
                    &TranConfig {
                        until: crossed,
                        ..full_cfg.clone()
                    },
                );
                let at = format!("{edge:?} sample {i} R {r:e}");
                assert_eq!(stopped, early.delay.is_some(), "stop iff delay, {at}");
                assert_eq!(
                    early.delay.map(f64::to_bits),
                    full.delay.map(f64::to_bits),
                    "delay, {at}"
                );
                tally.add(stopped, early_points, full_points);
                need = need.max(full.delay.unwrap_or(f64::INFINITY));
            }
            assert_eq!(
                row[k].to_bits(),
                (need + ff.overhead()).to_bits(),
                "DF need, sample {i} R {r:e}"
            );
        }
    }
    tally
}

fn assert_saves(label: &str, t: &Tally) {
    assert!(t.transients > 0);
    let early = t.early_points as f64 / t.transients as f64;
    let full = t.full_points as f64 / t.transients as f64;
    eprintln!(
        "{label}: {} of {} transients stopped early; {early:.0} of {full:.0} points per transient",
        t.stopped, t.transients
    );
    assert!(
        early < 0.5 * full,
        "{label}: early stop saves too little ({early:.0} of {full:.0} points)"
    );
}

fn pulse_sweeps(put: PathUnderTest, label: &str, samples: usize, seeds: &[u64]) {
    let mut all = Tally::default();
    for &seed in seeds {
        for polarity in [Polarity::PositiveGoing, Polarity::NegativeGoing] {
            all.merge(check_pulse(&put, polarity, samples, seed));
        }
    }
    assert_saves(label, &all);
}

fn df_sweeps(put: PathUnderTest, label: &str, samples: usize, seeds: &[u64]) {
    let mut all = Tally::default();
    for &seed in seeds {
        all.merge(check_df(&put, samples, seed));
    }
    assert_saves(label, &all);
}

const TIER1_SAMPLES: usize = 8;
const TIER1_SEEDS: [u64; 2] = [2007, 11];

#[test]
fn external_rop_pulse_sweep_matches_full_window() {
    pulse_sweeps(rop_put(), "external ROP", TIER1_SAMPLES, &TIER1_SEEDS);
}

#[test]
fn internal_rop_pulse_sweep_matches_full_window() {
    pulse_sweeps(
        internal_rop_put(),
        "internal ROP",
        TIER1_SAMPLES,
        &TIER1_SEEDS,
    );
}

#[test]
fn bridge_pulse_sweep_matches_full_window() {
    pulse_sweeps(bridge_put(), "bridge", TIER1_SAMPLES, &TIER1_SEEDS);
}

#[test]
fn external_rop_df_sweep_matches_full_window() {
    df_sweeps(rop_put(), "DF external ROP", TIER1_SAMPLES, &TIER1_SEEDS);
}

#[test]
fn internal_rop_df_sweep_matches_full_window() {
    df_sweeps(
        internal_rop_put(),
        "DF internal ROP",
        TIER1_SAMPLES,
        &TIER1_SEEDS,
    );
}

#[test]
fn bridge_df_sweep_matches_full_window() {
    df_sweeps(bridge_put(), "DF bridge", TIER1_SAMPLES, &TIER1_SEEDS);
}

// The full-scale check, one test per defect so they run in parallel.
const FULL_SAMPLES: usize = 200;
const FULL_SEEDS: [u64; 1] = [2007];

#[test]
#[ignore = "full scale: run with -- --ignored"]
fn full_scale_external_rop_sweeps_match_full_window() {
    pulse_sweeps(rop_put(), "external ROP", FULL_SAMPLES, &FULL_SEEDS);
    df_sweeps(rop_put(), "DF external ROP", FULL_SAMPLES, &FULL_SEEDS);
}

#[test]
#[ignore = "full scale: run with -- --ignored"]
fn full_scale_internal_rop_sweeps_match_full_window() {
    pulse_sweeps(
        internal_rop_put(),
        "internal ROP",
        FULL_SAMPLES,
        &FULL_SEEDS,
    );
    df_sweeps(
        internal_rop_put(),
        "DF internal ROP",
        FULL_SAMPLES,
        &FULL_SEEDS,
    );
}

#[test]
#[ignore = "full scale: run with -- --ignored"]
fn full_scale_bridge_sweeps_match_full_window() {
    pulse_sweeps(bridge_put(), "bridge", FULL_SAMPLES, &FULL_SEEDS);
    df_sweeps(bridge_put(), "DF bridge", FULL_SAMPLES, &FULL_SEEDS);
}
