//! Sparse-vs-dense engine agreement.
//!
//! The sparse engine is an *optimization*: on every circuit it handles it
//! must agree with the dense partial-pivot engine to solver tolerance
//! (both iterate Newton to the same `VNTOL`-scale convergence test), and
//! on circuits it cannot handle it must produce the *identical* error.
//! The engine follows the matrix dimension alone, so these tests force
//! each engine on one circuit through the workspace's test-only override,
//! and so exercise the sparse engine below the crossover too.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use proptest::strategy::Just;

use crate::{
    Circuit, MosType, Mosfet, MosfetParams, NodeId, SolverWorkspace, TraceCapture, TranConfig,
    Waveform,
};

const VDD: f64 = 1.8;

fn nmos_params() -> MosfetParams {
    MosfetParams {
        vt0: 0.45,
        kp: 120e-6,
        lambda: 0.04,
        w: 2e-6,
        l: 0.18e-6,
        cgs: 2e-15,
        cgd: 1e-15,
        cdb: 2e-15,
    }
}

fn pmos_params() -> MosfetParams {
    MosfetParams {
        vt0: -0.45,
        kp: 60e-6,
        lambda: 0.04,
        w: 4e-6,
        l: 0.18e-6,
        cgs: 2e-15,
        cgd: 1e-15,
        cdb: 2e-15,
    }
}

/// An `n`-stage CMOS inverter chain with output shunt capacitors, driven
/// by `input_wave`. Returns the circuit and the stage-output nodes.
fn inverter_chain(n: usize, input_wave: Waveform) -> (Circuit, Vec<NodeId>) {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.vsource(vdd, Circuit::GROUND, Waveform::dc(VDD));
    let input = ckt.node("in");
    ckt.vsource(input, Circuit::GROUND, input_wave);
    let mut prev = input;
    let mut outs = Vec::with_capacity(n);
    for i in 0..n {
        let out = ckt.node(format!("s{i}"));
        ckt.add_mosfet(Mosfet {
            kind: MosType::Pmos,
            d: out,
            g: prev,
            s: vdd,
            params: pmos_params(),
        });
        ckt.add_mosfet(Mosfet {
            kind: MosType::Nmos,
            d: out,
            g: prev,
            s: Circuit::GROUND,
            params: nmos_params(),
        });
        ckt.capacitor(out, Circuit::GROUND, 6e-15);
        outs.push(out);
        prev = out;
    }
    (ckt, outs)
}

/// A workspace whose solves all run on the sparse engine when `sparse` is
/// set, on the dense one otherwise.
fn workspace(sparse: bool) -> SolverWorkspace {
    let mut ws = SolverWorkspace::new();
    ws.force_engine(sparse);
    ws
}

#[test]
fn dc_operating_points_agree_to_solver_tolerance() {
    for bias in [0.0, 0.9, VDD] {
        let (ckt, outs) = inverter_chain(11, Waveform::dc(bias));
        let dense = ckt
            .dc_op_with(0.0, &mut workspace(false))
            .expect("dense DC");
        let sparse = ckt
            .dc_op_with(0.0, &mut workspace(true))
            .expect("sparse DC");
        for &n in &outs {
            let (vd, vs) = (dense.voltage(n), sparse.voltage(n));
            assert!(
                (vd - vs).abs() < 5e-6,
                "bias {bias}: node {n:?} dense {vd:e} vs sparse {vs:e}"
            );
        }
    }
}

#[test]
fn transient_traces_agree_to_solver_tolerance() {
    let wave = Waveform::single_pulse(0.0, VDD, 0.3e-9, 60e-12, 60e-12, 500e-12);
    let (ckt, outs) = inverter_chain(9, wave);
    let cfg = TranConfig::new(5e-12, 4e-9);
    let run = |sparse| {
        ckt.transient_with(&cfg, &mut workspace(sparse), &TraceCapture::All)
            .expect("transient")
    };
    let dense = run(false);
    let sparse = run(true);
    assert_eq!(dense.times(), sparse.times(), "identical fixed time grid");
    for &n in &outs {
        for (td, ts) in dense.trace(n).values().iter().zip(sparse.trace(n).values()) {
            assert!(
                (td - ts).abs() < 2e-4,
                "node {n:?}: dense {td:e} vs sparse {ts:e}"
            );
        }
    }
}

#[test]
fn singular_circuit_reports_the_identical_error_under_both_engines() {
    // A voltage source shorted to its own positive terminal: structural
    // rank deficit, certified by lint (PL0101) and reported by the dense
    // engine as SingularMatrix. The sparse engine detects the deficit in
    // the symbolic analysis and must hand the solve to the dense engine
    // so the reported error (and its row) never depends on the engine.
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.vsource(a, a, Waveform::dc(1.0));
    ckt.resistor(a, Circuit::GROUND, 1e3);
    let dense_err = ckt
        .dc_op_with(0.0, &mut workspace(false))
        .expect_err("shorted source must be singular");
    let sparse_err = ckt
        .dc_op_with(0.0, &mut workspace(true))
        .expect_err("shorted source must be singular");
    assert_eq!(dense_err, sparse_err);
}

#[test]
fn workspace_survives_switching_between_circuits_and_modes() {
    // One workspace, alternating topologies and engines: the cached
    // structure must be validated against the topology key and the
    // engine, never blindly reused.
    let mut ws = workspace(true);
    let (big, big_outs) = inverter_chain(11, Waveform::dc(0.0));
    let (small, small_outs) = inverter_chain(3, Waveform::dc(0.0));
    let b1 = big.dc_op_with(0.0, &mut ws).expect("big #1");
    let s1 = small.dc_op_with(0.0, &mut ws).expect("small #1");
    ws.force_engine(false);
    let s2 = small.dc_op_with(0.0, &mut ws).expect("small dense");
    ws.force_engine(true);
    let b2 = big.dc_op_with(0.0, &mut ws).expect("big #2");
    let last_big = *big_outs.last().expect("non-empty");
    let last_small = *small_outs.last().expect("non-empty");
    assert!((b1.voltage(last_big) - b2.voltage(last_big)).abs() < 5e-6);
    assert!((s1.voltage(last_small) - s2.voltage(last_small)).abs() < 5e-6);
}

/// A randomized RC-ladder deck: series resistors with shunt capacitors,
/// driven by a pulse, optionally loaded by a CMOS inverter.
#[derive(Debug, Clone)]
struct DeckSpec {
    /// Per-stage (series ohms, shunt farads).
    stages: Vec<(f64, f64)>,
    /// Input pulse width, seconds.
    width: f64,
    /// Extra coupling capacitor between first and last tap, farads
    /// (`0.0` = none), to break the pure-ladder structure.
    c_couple: f64,
    /// Output load of a CMOS inverter driven by the last tap, farads
    /// (`None` = no inverter, a linear deck).
    inverter: Option<f64>,
}

fn build(spec: &DeckSpec) -> (Circuit, Vec<NodeId>) {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    ckt.vsource(
        vin,
        Circuit::GROUND,
        Waveform::single_pulse(0.0, 1.8, 0.2e-9, 60e-12, 60e-12, spec.width),
    );
    let mut taps = vec![vin];
    let mut prev = vin;
    for (i, &(r, c)) in spec.stages.iter().enumerate() {
        let n = ckt.node(format!("t{i}"));
        ckt.resistor(prev, n, r);
        ckt.capacitor(n, Circuit::GROUND, c);
        taps.push(n);
        prev = n;
    }
    if spec.c_couple > 0.0 && taps.len() > 2 {
        ckt.capacitor(taps[1], *taps.last().expect("non-empty"), spec.c_couple);
    }
    if let Some(c_load) = spec.inverter {
        let vdd = ckt.node("vdd");
        ckt.vsource(vdd, Circuit::GROUND, Waveform::dc(1.8));
        let out = ckt.node("inv");
        for (kind, rail, params) in [
            (MosType::Pmos, vdd, pmos_params()),
            (MosType::Nmos, Circuit::GROUND, nmos_params()),
        ] {
            ckt.add_mosfet(Mosfet {
                kind,
                d: out,
                g: prev,
                s: rail,
                params,
            });
        }
        ckt.capacitor(out, Circuit::GROUND, c_load);
        taps.push(out);
    }
    (ckt, taps)
}

fn deck_strategy() -> impl Strategy<Value = DeckSpec> {
    let stage = (100.0f64..20e3, 10e-15f64..400e-15);
    (
        proptest::collection::vec(stage, 2..6),
        (150e-12f64..900e-12),
        prop_oneof![Just(0.0f64), (5e-15f64..50e-15)],
        prop_oneof![Just(None), (2e-15f64..20e-15).prop_map(Some)],
    )
        .prop_map(|(stages, width, c_couple, inverter)| DeckSpec {
            stages,
            width,
            c_couple,
            inverter,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The sparse engine, forced on, reproduces the dense engine within
    /// solver tolerance on random decks — same time grid, every trace
    /// pointwise close. These decks sit below the crossover, so a
    /// workspace left to choose solves them dense, which is what keeps the
    /// `workspace_equivalence` tests bitwise; forcing sparse here proves
    /// the other engine solves them too.
    #[test]
    fn forced_sparse_matches_dense_within_tolerance(spec in deck_strategy()) {
        let (ckt, taps) = build(&spec);
        let cfg = TranConfig::new(10e-12, 3e-9);
        let dense = ckt.transient(&cfg).expect("deck converges");
        let sparse = ckt
            .transient_with(&cfg, &mut workspace(true), &TraceCapture::All)
            .expect("sparse engine");
        prop_assert_eq!(dense.times(), sparse.times());
        for &n in &taps {
            for (d, s) in dense.trace(n).values().iter().zip(sparse.trace(n).values()) {
                prop_assert!((d - s).abs() < 1e-6, "node {:?}: {:e} vs {:e}", n, d, s);
            }
        }
    }
}
