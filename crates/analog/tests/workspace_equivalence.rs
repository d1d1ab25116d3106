//! Property tests: solver-workspace reuse and slim trace capture are
//! allocation-level optimizations only — on random decks, every observable
//! (time grid, node traces, threshold crossings, DC operating points) is
//! bit-for-bit identical across
//!
//! * a fresh internal workspace ([`Circuit::transient`]),
//! * a caller-owned workspace reused across runs and across *different*
//!   circuits ([`Circuit::transient_with`]),
//! * the preserved allocation-per-step baseline engine
//!   ([`Circuit::transient_baseline`]), and
//! * [`TraceCapture::Nodes`] vs [`TraceCapture::All`] for the captured
//!   columns.
//!
//! The decks are RC ladders, and about half of them end in a CMOS
//! inverter. A linear deck's Newton solve lands on `A⁻¹b` whatever its
//! starting point, so only the inverter's multi-iteration solves show
//! that the workspace and baseline engines share the step predictor and
//! the acceptance rule (DESIGN.md §5.15), not just the linear algebra.

use proptest::prelude::*;
use proptest::strategy::Just;
use pulsar_analog::{
    Circuit, Edge, MosType, Mosfet, MosfetParams, NodeId, SolverMode, SolverWorkspace,
    TraceCapture, TranConfig, Waveform,
};

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

fn mos_params(kind: MosType) -> MosfetParams {
    let nmos = matches!(kind, MosType::Nmos);
    MosfetParams {
        vt0: if nmos { 0.45 } else { -0.45 },
        kp: if nmos { 120e-6 } else { 60e-6 },
        lambda: 0.04,
        w: if nmos { 2e-6 } else { 4e-6 },
        l: 0.18e-6,
        cgs: 2e-15,
        cgd: 1e-15,
        cdb: 2e-15,
    }
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
        for (kind, rail) in [(MosType::Pmos, vdd), (MosType::Nmos, Circuit::GROUND)] {
            ckt.add_mosfet(Mosfet {
                kind,
                d: out,
                g: prev,
                s: rail,
                params: mos_params(kind),
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

fn config() -> TranConfig {
    TranConfig::new(10e-12, 3e-9)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fresh workspace ≡ reused workspace (twice, to prove no state leaks
    /// between runs) ≡ the allocation-per-step baseline engine.
    #[test]
    fn workspace_reuse_is_bit_identical(spec in deck_strategy()) {
        let (ckt, taps) = build(&spec);
        let cfg = config();
        let fresh = ckt.transient(&cfg).expect("deck converges");

        let mut ws = SolverWorkspace::new();
        let first = ckt
            .transient_with(&cfg, &mut ws, &TraceCapture::All)
            .expect("reused workspace");
        // Dirty the workspace with a different circuit before re-running.
        let mut other = Circuit::new();
        let a = other.node("a");
        other.vsource(a, Circuit::GROUND, Waveform::dc(1.0));
        other.resistor(a, Circuit::GROUND, 50.0);
        other
            .transient_with(&TranConfig::new(2e-12, 0.05e-9), &mut ws, &TraceCapture::All)
            .expect("interleaved deck");
        let again = ckt
            .transient_with(&cfg, &mut ws, &TraceCapture::All)
            .expect("workspace survives topology changes");
        let baseline = ckt.transient_baseline(&cfg).expect("baseline engine");

        for res in [&first, &again, &baseline] {
            prop_assert_eq!(fresh.times(), res.times());
            for &n in &taps {
                prop_assert_eq!(fresh.trace(n).values(), res.trace(n).values());
            }
        }
    }

    /// `TraceCapture::Nodes` returns the same time grid and, for every
    /// captured column, bit-identical samples and therefore identical
    /// derived measurements (threshold crossings).
    #[test]
    fn slim_capture_matches_full_capture(spec in deck_strategy()) {
        let (ckt, taps) = build(&spec);
        let cfg = config();
        let all = ckt.transient(&cfg).expect("deck converges");

        let last = *taps.last().expect("non-empty");
        let subset = vec![last, taps[0]];
        let mut ws = SolverWorkspace::new();
        let slim = ckt
            .transient_with(&cfg, &mut ws, &TraceCapture::Nodes(subset.clone()))
            .expect("slim capture");

        prop_assert_eq!(all.times(), slim.times());
        for &n in &subset {
            prop_assert_eq!(all.trace(n).values(), slim.trace(n).values());
            let th = 0.9;
            prop_assert_eq!(
                all.trace(n).crossings(th, Edge::Rising),
                slim.trace(n).crossings(th, Edge::Rising)
            );
            prop_assert_eq!(
                all.trace(n).crossings(th, Edge::Falling),
                slim.trace(n).crossings(th, Edge::Falling)
            );
        }
    }

    /// DC solves through a reused workspace match the per-call-workspace
    /// path exactly, across a ladder of decks.
    #[test]
    fn dc_reuse_is_bit_identical(spec in deck_strategy()) {
        let (ckt, taps) = build(&spec);
        let mut ws = SolverWorkspace::new();
        let cold = ckt.dc_op().expect("dc");
        let reused = ckt.dc_op_with(0.0, &mut ws).expect("reused dc");
        let reused2 = ckt.dc_op_with(0.0, &mut ws).expect("reused dc again");
        for &n in &taps {
            prop_assert_eq!(cold.voltage(n), reused.voltage(n));
            prop_assert_eq!(cold.voltage(n), reused2.voltage(n));
        }
    }

    /// The sparse engine, forced on, reproduces the dense engine within
    /// solver tolerance on the same random decks — same time grid, every
    /// trace pointwise close. (These decks sit below the `Auto` crossover
    /// dimension, which is exactly why the bitwise tests above stay
    /// bitwise: `Auto` routes them dense. Forcing sparse here proves the
    /// other engine solves them too.)
    #[test]
    fn forced_sparse_matches_dense_within_tolerance(spec in deck_strategy()) {
        let (ckt, taps) = build(&spec);
        let cfg = config();
        let dense = ckt.transient(&cfg).expect("deck converges");
        let mut ws = SolverWorkspace::new();
        ws.set_solver_mode(SolverMode::ForceSparse);
        let sparse = ckt
            .transient_with(&cfg, &mut ws, &TraceCapture::All)
            .expect("sparse engine");
        prop_assert_eq!(dense.times(), sparse.times());
        for &n in &taps {
            for (d, s) in dense.trace(n).values().iter().zip(sparse.trace(n).values()) {
                prop_assert!((d - s).abs() < 1e-6, "node {:?}: {:e} vs {:e}", n, d, s);
            }
        }
    }
}
