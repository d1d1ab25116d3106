//! DC operating-point analysis with gmin stepping and a source-stepping
//! fallback for stubborn circuits.

use crate::circuit::{Circuit, NodeId};
use crate::elements::Element;
use crate::error::Error;
use crate::solver::mna::System;
use crate::solver::workspace::{SolverWorkspace, SysScratch};

/// Solved DC operating point of a circuit.
///
/// Produced by [`Circuit::dc_op`]; exposes node voltages and (internally)
/// the full MNA solution vector used to seed transient analysis.
#[derive(Debug, Clone)]
pub struct DcSolution {
    pub(crate) x: Vec<f64>,
}

impl DcSolution {
    /// Voltage of `node` relative to ground.
    pub fn voltage(&self, node: NodeId) -> f64 {
        System::node_voltage(&self.x, node)
    }

    /// Current flowing *out of the positive terminal* of the voltage
    /// source at element index `idx`, amperes. For a supply rail this is
    /// the quiescent current the circuit draws (I_DDQ), a classic bridge
    /// detector: a resistive short between fighting drivers shows up as
    /// elevated static current.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] if `idx` is not a voltage source of
    /// `circuit`.
    pub fn source_current(&self, circuit: &Circuit, idx: usize) -> Result<f64, Error> {
        match circuit.elements().get(idx) {
            Some(Element::Vsource { .. }) => {}
            _ => {
                return Err(Error::InvalidParameter {
                    element: "vsource",
                    parameter: "index",
                    value: idx as f64,
                })
            }
        }
        // Branch variables follow the node voltages, in vsource order.
        let nn = circuit.node_count() - 1;
        let branch = circuit.elements()[..idx]
            .iter()
            .filter(|e| matches!(e, Element::Vsource { .. }))
            .count();
        // MNA's branch current is defined flowing p → n *through the
        // source*; the current delivered out of the positive terminal is
        // its negation.
        Ok(-self.x[nn + branch])
    }
}

impl Circuit {
    /// Computes the DC operating point with all sources at their `t = 0`
    /// values (capacitors open).
    ///
    /// The solver first tries plain Newton–Raphson, then gmin stepping
    /// (shunting every node with a decreasing conductance), then source
    /// stepping (ramping all sources from zero). This three-stage strategy
    /// converges for all static-CMOS structures used in this project.
    ///
    /// # Errors
    ///
    /// [`Error::NoConvergence`] if all strategies fail, or
    /// [`Error::SingularMatrix`] for structurally defective circuits.
    pub fn dc_op(&self) -> Result<DcSolution, Error> {
        self.dc_op_at(0.0)
    }

    /// DC operating point with sources evaluated at time `t`.
    pub fn dc_op_at(&self, t: f64) -> Result<DcSolution, Error> {
        self.dc_op_with(t, &mut SolverWorkspace::new())
    }

    /// DC operating point reusing a caller-owned [`SolverWorkspace`].
    ///
    /// Numerically identical to [`Circuit::dc_op_at`]: workspace reuse
    /// only recycles allocations.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Circuit::dc_op`].
    pub fn dc_op_with(&self, t: f64, ws: &mut SolverWorkspace) -> Result<DcSolution, Error> {
        let mut x = Vec::new();
        self.dc_into(t, &mut ws.sys, &mut x)?;
        Ok(DcSolution { x })
    }

    /// DC solve into a caller-owned solution vector, using `scratch` for
    /// all intermediate storage.
    pub(crate) fn dc_into(
        &self,
        t: f64,
        scratch: &mut SysScratch,
        x: &mut Vec<f64>,
    ) -> Result<(), Error> {
        let mut sys = System::new(self, scratch);
        x.clear();
        x.resize(sys.unknowns(), 0.0);
        dc_cold(&mut sys, x, t)
    }
}

/// The three-stage cold DC strategy: direct Newton, then gmin stepping,
/// then source stepping. `x` must be zeroed on entry.
fn dc_cold(sys: &mut System<'_, '_>, x: &mut [f64], t: f64) -> Result<(), Error> {
    // 1. Direct attempt.
    if sys
        .solve_newton(x, t, None, 1.0, 0.0, 100, "dc operating point")
        .is_ok()
    {
        return Ok(());
    }

    // 2. Gmin stepping: solve with a large shunt conductance and relax
    // it geometrically, warm-starting each stage.
    x.fill(0.0);
    let mut gmin = 1e-2;
    let mut ok = true;
    while gmin > 1e-13 {
        if sys
            .solve_newton(x, t, None, 1.0, gmin, 100, "dc operating point (gmin)")
            .is_err()
        {
            ok = false;
            break;
        }
        gmin /= 10.0;
    }
    if ok {
        // Final solve with only the built-in gmin floor.
        if sys
            .solve_newton(x, t, None, 1.0, 0.0, 100, "dc operating point")
            .is_ok()
        {
            return Ok(());
        }
    }

    // 3. Source stepping.
    x.fill(0.0);
    let mut scale = 0.0_f64;
    while scale < 1.0 {
        scale = (scale + 0.1).min(1.0);
        sys.solve_newton(x, t, None, scale, 0.0, 100, "dc operating point (source)")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::elements::{MosType, Mosfet, MosfetParams, Waveform};
    use pulsar_obs::{Counter, Recorder};

    /// Largest seeded-vs-cold DC disagreement on any node, volts.
    const SEEDED_TOL: f64 = 10e-6;

    fn params(kind: MosType, w: f64) -> MosfetParams {
        MosfetParams {
            vt0: if matches!(kind, MosType::Nmos) {
                0.4
            } else {
                -0.42
            },
            kp: if matches!(kind, MosType::Nmos) {
                170e-6
            } else {
                60e-6
            },
            lambda: 0.06,
            w,
            l: 0.18e-6,
            cgs: 1e-15,
            cgd: 1e-15,
            cdb: 1e-15,
        }
    }

    /// Builds a CMOS inverter; returns (circuit, in, out).
    fn inverter(vin: f64) -> (Circuit, NodeId, NodeId) {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource(vdd, Circuit::GROUND, Waveform::dc(1.8));
        ckt.vsource(inp, Circuit::GROUND, Waveform::dc(vin));
        ckt.add_mosfet(Mosfet {
            kind: MosType::Pmos,
            d: out,
            g: inp,
            s: vdd,
            params: params(MosType::Pmos, 2.0e-6),
        });
        ckt.add_mosfet(Mosfet {
            kind: MosType::Nmos,
            d: out,
            g: inp,
            s: Circuit::GROUND,
            params: params(MosType::Nmos, 1.0e-6),
        });
        (ckt, inp, out)
    }

    /// Seeds the shared Newton loop with the cold DC solution of `ckt`. It
    /// must accept on its first iteration and land within [`SEEDED_TOL`] of
    /// the cold solve on every node. Returns the cold solve's iterations.
    fn check_seeded_dc(what: &str, ckt: &Circuit) -> u64 {
        let rec = Recorder::enabled();
        let iters = || rec.snapshot().counter(Counter::NewtonIterations);
        let mut scratch = SysScratch {
            recorder: rec.clone(),
            ..SysScratch::default()
        };
        let mut cold = Vec::new();
        ckt.dc_into(0.0, &mut scratch, &mut cold).unwrap();
        let cold_iters = iters();
        let mut x = cold.clone();
        System::new(ckt, &mut scratch)
            .solve_newton(&mut x, 0.0, None, 1.0, 0.0, 100, "seeded dc")
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let seeded_iters = iters() - cold_iters;
        assert_eq!(
            seeded_iters, 1,
            "{what}: the seeded solve took {seeded_iters} iterations"
        );
        for n in ckt.nodes() {
            let seeded = System::node_voltage(&x, n);
            let cold = System::node_voltage(&cold, n);
            assert!(
                (seeded - cold).abs() <= SEEDED_TOL,
                "{what}: node {} seeded {seeded} vs cold {cold}",
                n.index()
            );
        }
        cold_iters
    }

    #[test]
    fn newton_seeded_with_the_dc_solution_accepts_its_first_update() {
        // Inverters along the transfer curve: their cold solves iterate from
        // zero, so the single seeded iteration is checked against a
        // genuinely iterated point.
        for vin in [0.0, 0.7, 0.9, 1.8] {
            let (ckt, _, _) = inverter(vin);
            assert!(check_seeded_dc(&format!("inverter at {vin} V"), &ckt) > 1);
        }
        let decks = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/decks");
        let mut seen = 0;
        for entry in std::fs::read_dir(decks).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "sp") {
                let text = std::fs::read_to_string(&path).unwrap();
                let deck = crate::parse_deck(&text).unwrap();
                check_seeded_dc(&path.display().to_string(), &deck.circuit);
                seen += 1;
            }
        }
        assert!(seen >= 3, "only {seen} example decks found");
    }

    #[test]
    fn inverter_logic_levels() {
        let (ckt, _, out) = inverter(0.0);
        let dc = ckt.dc_op().unwrap();
        assert!(
            dc.voltage(out) > 1.75,
            "low input → high output, got {}",
            dc.voltage(out)
        );

        let (ckt, _, out) = inverter(1.8);
        let dc = ckt.dc_op().unwrap();
        assert!(
            dc.voltage(out) < 0.05,
            "high input → low output, got {}",
            dc.voltage(out)
        );
    }

    #[test]
    fn inverter_vtc_is_monotonic_decreasing() {
        let mut last = f64::INFINITY;
        for i in 0..=18 {
            let vin = i as f64 * 0.1;
            let (ckt, _, out) = inverter(vin);
            let v = ckt.dc_op().unwrap().voltage(out);
            assert!(
                v <= last + 1e-6,
                "VTC not monotonic at vin={vin}: {v} > {last}"
            );
            last = v;
        }
    }

    #[test]
    fn inverter_switching_threshold_is_midish() {
        // Find the input where out crosses VDD/2; for this sizing it must
        // be somewhere inside the middle third of the supply.
        let mut cross = None;
        let mut prev = None;
        for i in 0..=90 {
            let vin = i as f64 * 0.02;
            let (ckt, _, out) = inverter(vin);
            let v = ckt.dc_op().unwrap().voltage(out);
            if let Some((pvin, pv)) = prev {
                if pv >= 0.9 && v < 0.9 {
                    cross = Some((pvin + vin) / 2.0);
                    break;
                }
                let _ = pvin;
            }
            prev = Some((vin, v));
        }
        let vm = cross.expect("VTC must cross VDD/2");
        assert!(
            vm > 0.6 && vm < 1.2,
            "switching threshold {vm} out of range"
        );
    }

    #[test]
    fn source_current_matches_ohms_law() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let src = ckt.vsource(a, Circuit::GROUND, Waveform::dc(2.0));
        ckt.resistor(a, Circuit::GROUND, 2e3);
        let dc = ckt.dc_op().unwrap();
        let i = dc.source_current(&ckt, src).unwrap();
        assert!(
            (i - 1e-3).abs() < 1e-9,
            "2 V into 2 kΩ must deliver 1 mA, got {i:e}"
        );
    }

    #[test]
    fn quiescent_cmos_draws_almost_nothing() {
        let (ckt, _, _) = inverter(0.0);
        let dc = ckt.dc_op().unwrap();
        // Element 0 is the VDD source in `inverter`.
        let iddq = dc.source_current(&ckt, 0).unwrap();
        assert!(
            iddq.abs() < 1e-6,
            "static CMOS leaks microamps at most, got {iddq:e}"
        );
    }

    #[test]
    fn source_current_rejects_non_sources() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource(a, Circuit::GROUND, Waveform::dc(1.0));
        let r = ckt.resistor(a, Circuit::GROUND, 1e3);
        let dc = ckt.dc_op().unwrap();
        assert!(dc.source_current(&ckt, r).is_err());
        assert!(dc.source_current(&ckt, 99).is_err());
    }

    #[test]
    fn resistive_ladder_matches_analytic() {
        // 5-resistor ladder from a 1 V source: taps at i/5 volts.
        let mut ckt = Circuit::new();
        let mut nodes = vec![Circuit::GROUND];
        for i in 1..=5 {
            nodes.push(ckt.node(format!("n{i}")));
        }
        ckt.vsource(nodes[5], Circuit::GROUND, Waveform::dc(1.0));
        for i in 0..5 {
            ckt.resistor(nodes[i], nodes[i + 1], 100.0);
        }
        let dc = ckt.dc_op().unwrap();
        for (i, n) in nodes.iter().enumerate() {
            assert!((dc.voltage(*n) - i as f64 / 5.0).abs() < 1e-6);
        }
    }
}
