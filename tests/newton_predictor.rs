//! Predicted Newton starts (DESIGN.md §5.15): each transient step's
//! Newton solve starts from a linear extrapolation of the last two
//! accepted points, and every Newton loop accepts its first update when
//! that update already passes the convergence test. Only the initial
//! guess moved; these checks pin what that may and may not change:
//!
//! * accuracy: over the Fig. 7 sweep, the shipped 4 ps widths and delays
//!   stay within 2 ps of fixed 1 ps steps;
//! * the rule itself: a linear deck needs about one iteration per step.
//!
//! The DC half of the rule (a Newton solve seeded with a converged point
//! is accepted on its first iteration and lands within 10 µV of the cold
//! solve) is a `pulsar-analog` unit test in `analysis/dcop.rs`, because
//! only the crate itself can seed that loop.

use pulsar_analog::{Circuit, Edge, Polarity, SolverWorkspace, TraceCapture, TranConfig, Waveform};
use pulsar_bench::{log_sweep, rop_put};
use pulsar_cells::BuiltPath;
use pulsar_obs::{Counter, Recorder};

/// The calibrated Fig. 7 injection width ω_in⁰ (about 278 ps).
const W_IN: f64 = 278e-12;

/// Largest disagreement between the shipped step and the 1 ps reference.
const STEP_TOL: f64 = 2e-12;

/// Output width and rising-edge delay of `p` at each resistance of `rs`.
fn sweep(p: &mut BuiltPath, rs: &[f64]) -> Vec<(f64, Option<f64>)> {
    rs.iter()
        .map(|&r| {
            p.set_fault_resistance(r).expect("resistance");
            let width = p
                .pulse_width_only(W_IN, Polarity::PositiveGoing, None)
                .expect("width");
            let delay = p
                .propagate_transition(Edge::Rising, None)
                .expect("delay")
                .delay;
            (width, delay)
        })
        .collect()
}

#[test]
fn fig7_sweep_matches_one_picosecond_steps() {
    // External ROP at stage 1, the 13-point Fig. 7 sweep: the widths fall
    // through the crossover band near 10 kΩ to a swallowed pulse.
    let rs = log_sweep(300.0, 400e3, 13);
    let put = rop_put();
    let mut shipped = put.instantiate_nominal(rs[0]);
    let mut fine = put.instantiate_nominal(rs[0]);
    fine.built_path().set_step(1e-12);
    let coarse = sweep(shipped.built_path(), &rs);
    let reference = sweep(fine.built_path(), &rs);

    let mut passing = 0;
    for ((&r, (w4, d4)), (w1, d1)) in rs.iter().zip(&coarse).zip(&reference) {
        assert!(
            (w4 - w1).abs() <= STEP_TOL,
            "width at {r:e} Ω: {w4:e} at 4 ps vs {w1:e} at 1 ps"
        );
        match (d4, d1) {
            (Some(d4), Some(d1)) => assert!(
                (d4 - d1).abs() <= STEP_TOL,
                "delay at {r:e} Ω: {d4:e} at 4 ps vs {d1:e} at 1 ps"
            ),
            (None, None) => {}
            _ => panic!("delay at {r:e} Ω: {d4:?} at 4 ps vs {d1:?} at 1 ps"),
        }
        passing += usize::from(*w1 > 0.0);
    }
    // The sweep must cover both sides of the crossover to mean anything.
    assert!(
        0 < passing && passing < rs.len(),
        "{passing} of {} resistances pass the pulse",
        rs.len()
    );
}

/// Newton iterations and accepted steps of one transient (its DC solve
/// included).
fn transient_work(ckt: &Circuit, cfg: &TranConfig) -> (u64, u64) {
    let rec = Recorder::enabled();
    let mut ws = SolverWorkspace::new();
    ws.set_recorder(rec.clone());
    ckt.transient_with(cfg, &mut ws, &TraceCapture::All)
        .expect("linear deck converges");
    let snap = rec.snapshot();
    (
        snap.counter(Counter::NewtonIterations),
        snap.counter(Counter::StepsAccepted),
    )
}

#[test]
fn linear_deck_takes_about_one_iteration_per_step() {
    // An RC low-pass (τ = 1 ns) under a single pulse. Its four pulse
    // corners are the only steps after the first that start without a
    // prediction. The predictor's error is about h²·v'', so a step passes
    // on its first update while (h/τ)² stays under RELTOL (1e-4); here
    // h/τ = 0.004.
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let out = ckt.node("out");
    ckt.vsource(
        vin,
        Circuit::GROUND,
        Waveform::single_pulse(0.0, 1.0, 0.5e-9, 50e-12, 50e-12, 3e-9),
    );
    ckt.resistor(vin, out, 1e3);
    ckt.capacitor(out, Circuit::GROUND, 1e-12);
    let step = 4e-12;
    let (iters, steps) = transient_work(&ckt, &TranConfig::new(step, 10e-9));
    // The DC solve and the first step, alone: a run is causal, so this is
    // exactly the full run's prefix.
    let (first_iters, first_steps) = transient_work(&ckt, &TranConfig::new(step, step));
    assert_eq!(first_steps, 1);
    let per_step = (iters - first_iters) as f64 / (steps - first_steps) as f64;
    assert!(
        per_step <= 1.1,
        "{per_step:.3} Newton iterations per step over {} steps",
        steps - first_steps
    );
}
