//! Sparse-vs-dense engine agreement on transistor circuits.
//!
//! The sparse engine is an *optimization*: on every circuit it handles it
//! must agree with the dense partial-pivot engine to solver tolerance
//! (both iterate Newton to the same `VNTOL`-scale convergence test), and
//! on circuits it cannot handle it must produce the *identical* error.
//! These tests force each engine explicitly, so they exercise the sparse
//! path even below the `Auto` crossover dimension.

use pulsar_analog::{
    Circuit, MosType, Mosfet, MosfetParams, NodeId, SolverMode, SolverWorkspace, TraceCapture,
    TranConfig, Waveform,
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

fn workspace(mode: SolverMode) -> SolverWorkspace {
    let mut ws = SolverWorkspace::new();
    ws.set_solver_mode(mode);
    ws
}

#[test]
fn dc_operating_points_agree_to_solver_tolerance() {
    for bias in [0.0, 0.9, VDD] {
        let (ckt, outs) = inverter_chain(11, Waveform::dc(bias));
        let dense = ckt
            .dc_op_with(0.0, &mut workspace(SolverMode::ForceDense))
            .expect("dense DC");
        let sparse = ckt
            .dc_op_with(0.0, &mut workspace(SolverMode::ForceSparse))
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
    let run = |mode| {
        ckt.transient_with(&cfg, &mut workspace(mode), &TraceCapture::All)
            .expect("transient")
    };
    let dense = run(SolverMode::ForceDense);
    let sparse = run(SolverMode::ForceSparse);
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
    // so the reported error (and its row) never depends on the mode.
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.vsource(a, a, Waveform::dc(1.0));
    ckt.resistor(a, Circuit::GROUND, 1e3);
    let dense_err = ckt
        .dc_op_with(0.0, &mut workspace(SolverMode::ForceDense))
        .expect_err("shorted source must be singular");
    let sparse_err = ckt
        .dc_op_with(0.0, &mut workspace(SolverMode::ForceSparse))
        .expect_err("shorted source must be singular");
    assert_eq!(dense_err, sparse_err);
}

#[test]
fn workspace_survives_switching_between_circuits_and_modes() {
    // One workspace, alternating topologies and modes: the cached
    // symbolic object must be validated against the topology key, never
    // blindly reused.
    let mut ws = SolverWorkspace::new();
    ws.set_solver_mode(SolverMode::ForceSparse);
    let (big, big_outs) = inverter_chain(11, Waveform::dc(0.0));
    let (small, small_outs) = inverter_chain(3, Waveform::dc(0.0));
    let b1 = big.dc_op_with(0.0, &mut ws).expect("big #1");
    let s1 = small.dc_op_with(0.0, &mut ws).expect("small #1");
    ws.set_solver_mode(SolverMode::ForceDense);
    let s2 = small.dc_op_with(0.0, &mut ws).expect("small dense");
    ws.set_solver_mode(SolverMode::ForceSparse);
    let b2 = big.dc_op_with(0.0, &mut ws).expect("big #2");
    let last_big = *big_outs.last().expect("non-empty");
    let last_small = *small_outs.last().expect("non-empty");
    assert!((b1.voltage(last_big) - b2.voltage(last_big)).abs() < 5e-6);
    assert!((s1.voltage(last_small) - s2.voltage(last_small)).abs() < 5e-6);
}
