//! Property tests: solver-workspace reuse and slim trace capture are
//! allocation-level optimizations only — on random decks, every observable
//! (time grid, node traces, threshold crossings, DC operating points) is
//! bit-for-bit identical across
//!
//! * a fresh internal workspace ([`Circuit::transient`]),
//! * a caller-owned workspace reused across runs and across *different*
//!   circuits ([`Circuit::transient_with`]), and
//! * [`TraceCapture::Nodes`] vs [`TraceCapture::All`] for the captured
//!   columns.
//!
//! The decks are RC ladders, and about half of them end in a CMOS
//! inverter, so the comparisons cover multi-iteration Newton solves and
//! not just the linear algebra. What the engine computes is pinned
//! separately: the shipped nonlinear example decks must reproduce
//! committed FNV-1a digests of their bits, recorded when a second,
//! independently written engine still agreed with this one. A change that
//! moves the bits on purpose re-pins them, as it regenerates `results/`.

use proptest::prelude::*;
use proptest::strategy::Just;
use pulsar_analog::{
    Circuit, DcSolution, Edge, MosType, Mosfet, MosfetParams, NodeId, SolverWorkspace,
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

/// Bit patterns of `v`: "bit-identical" is compared on these, since `==`
/// on `f64` equates `-0.0` with `0.0` and fails on equal NaNs.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fresh workspace ≡ reused workspace (twice, to prove no state leaks
    /// between runs).
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

        for res in [&first, &again] {
            prop_assert_eq!(bits(fresh.times()), bits(res.times()));
            for &n in &taps {
                prop_assert_eq!(bits(fresh.trace(n).values()), bits(res.trace(n).values()));
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

        prop_assert_eq!(bits(all.times()), bits(slim.times()));
        for &n in &subset {
            prop_assert_eq!(bits(all.trace(n).values()), bits(slim.trace(n).values()));
            let th = 0.9;
            for edge in [Edge::Rising, Edge::Falling] {
                prop_assert_eq!(
                    bits(&all.trace(n).crossings(th, edge)),
                    bits(&slim.trace(n).crossings(th, edge))
                );
            }
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
        let volts = |op: &DcSolution| bits(&taps.iter().map(|&n| op.voltage(n)).collect::<Vec<_>>());
        prop_assert_eq!(volts(&cold), volts(&reused));
        prop_assert_eq!(volts(&cold), volts(&reused2));
    }
}

/// FNV-1a digest of the bit patterns of a run's time grid and of every
/// node's trace, in node order.
fn run_digest(ckt: &Circuit, res: &pulsar_analog::TranResult) -> u64 {
    let mut all = bits(res.times());
    for n in ckt.nodes() {
        all.extend(bits(res.trace(n).values()));
    }
    pulsar_obs::config_digest(&format!("{all:x?}"))
}

/// The shipped nonlinear example decks, run through a fresh and a reused
/// workspace, reproduce their pinned digests (see the module docs).
#[test]
fn example_decks_match_pinned_digests() {
    let decks = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/decks");
    let mut ws = SolverWorkspace::new();
    for (file, pinned) in [
        ("cmos_inverter.sp", 10_225_632_495_872_235_694),
        ("pulse_chain.sp", 3_865_716_625_628_743_621),
    ] {
        let text = std::fs::read_to_string(format!("{decks}/{file}")).expect("deck on disk");
        let deck = pulsar_analog::parse_deck(&text).expect("deck parses");
        let cfg = deck.tran.clone().expect("deck has a .tran card");
        let fresh = deck.circuit.transient(&cfg).expect("deck converges");
        let reused = deck
            .circuit
            .transient_with(&cfg, &mut ws, &TraceCapture::All)
            .expect("reused workspace");
        assert_eq!(run_digest(&deck.circuit, &fresh), pinned, "{file}");
        assert_eq!(run_digest(&deck.circuit, &reused), pinned, "{file} reused");
    }
}
