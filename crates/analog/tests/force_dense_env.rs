//! `PULSAR_FORCE_DENSE=1` — the field escape hatch.
//!
//! The environment flag must beat *every* other engine selection,
//! including an explicit `ForceSparse`, so a deployment can neutralize
//! the sparse path without touching code. The flag is read once per
//! process, so this file holds exactly one test and runs as its own
//! binary.

use pulsar_analog::{
    Circuit, ObsCounter, Recorder, SolverMode, SolverWorkspace, TraceCapture, TranConfig, Waveform,
};

#[test]
fn env_flag_overrides_even_force_sparse() {
    // Set before the first solve: the flag is latched on first read.
    std::env::set_var("PULSAR_FORCE_DENSE", "1");

    // An RC ladder big enough that Auto (and certainly ForceSparse)
    // would otherwise route it through the sparse engine.
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    ckt.vsource(
        vin,
        Circuit::GROUND,
        Waveform::single_pulse(0.0, 1.8, 0.2e-9, 60e-12, 60e-12, 400e-12),
    );
    let mut prev = vin;
    for i in 0..30 {
        let n = ckt.node(format!("t{i}"));
        ckt.resistor(prev, n, 1e3);
        ckt.capacitor(n, Circuit::GROUND, 20e-15);
        prev = n;
    }

    let mut ws = SolverWorkspace::new();
    ws.set_solver_mode(SolverMode::ForceSparse);
    let rec = Recorder::enabled();
    ws.set_recorder(rec.clone());
    ckt.transient_with(&TranConfig::new(10e-12, 2e-9), &mut ws, &TraceCapture::All)
        .expect("transient");
    ckt.dc_op_with(0.0, &mut ws).expect("dc");
    let snap = rec.snapshot();
    let count = |c: ObsCounter| snap.counter(c);

    assert_eq!(
        count(ObsCounter::SparseSolves),
        0,
        "PULSAR_FORCE_DENSE=1 must keep the sparse engine cold"
    );
    assert_eq!(count(ObsCounter::SymbolicAnalyses), 0, "no analysis either");
    assert!(count(ObsCounter::DenseSolves) > 0, "solves must still run");
    assert_eq!(
        count(ObsCounter::DenseFallbacks),
        0,
        "dense-by-choice, not fallback"
    );
}
