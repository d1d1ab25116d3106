//! Deterministic benchmark-circuit generation.
//!
//! The paper's Fig. 11 experiment runs on ISCAS-85 C432 (a 36-input,
//! 7-output, ~160-gate interrupt controller). The original netlist file is
//! not bundled here; [`c432_like`] generates a structurally comparable
//! stand-in — same interface width, gate count, gate-kind mix and logic
//! depth — which is all the experiment needs: a population of diverse
//! sensitizable paths through fault sites (see `DESIGN.md`,
//! substitutions). Real ISCAS-85 files can be used instead via
//! [`parse_iscas85`](crate::parse_iscas85).

use crate::netlist::{GateKind, Netlist, SignalId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Parameters for [`random_netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchParams {
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of gates.
    pub gates: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of logic layers the gates are spread over (≥ 1); the
    /// realized depth is close to this for connected layers.
    pub layers: usize,
}

impl BenchParams {
    /// The C432-like profile: 36 inputs, 160 gates, 7 outputs, depth ≈ 17.
    pub fn c432_like() -> Self {
        BenchParams {
            inputs: 36,
            gates: 160,
            outputs: 7,
            layers: 17,
        }
    }

    /// A C880-class profile (the 8-bit ALU benchmark's shape): 60 inputs,
    /// 383 gates, 26 outputs, depth ≈ 24. Used for scaling studies.
    pub fn c880_like() -> Self {
        BenchParams {
            inputs: 60,
            gates: 383,
            outputs: 26,
            layers: 24,
        }
    }
}

/// Generates a random layered combinational netlist.
///
/// Layer `k` gates always take their first input from layer `k − 1`
/// (creating long sensitizable paths); remaining pins come from any
/// earlier layer. The gate-kind mix is NAND/NOR-heavy with occasional
/// AND/OR/NOT/XOR, echoing the ISCAS-85 benchmarks.
///
/// # Panics
///
/// Panics if any count is zero or `outputs > gates`.
pub fn random_netlist(params: &BenchParams, seed: u64) -> Netlist {
    assert!(
        params.inputs > 0 && params.gates > 0 && params.outputs > 0,
        "counts must be positive"
    );
    assert!(
        params.outputs <= params.gates,
        "cannot have more outputs than gates"
    );
    assert!(params.layers > 0, "need at least one layer");

    let mut rng = StdRng::seed_from_u64(seed);
    let mut nl = Netlist::new();
    let pis: Vec<SignalId> = (0..params.inputs)
        .map(|i| nl.add_input(format!("i{i}")))
        .collect();

    // Spread gates over layers (at least one per layer).
    let layers = params.layers.min(params.gates);
    let mut per_layer = vec![params.gates / layers; layers];
    for extra in per_layer.iter_mut().take(params.gates % layers) {
        *extra += 1;
    }

    let mut prev_layer: Vec<SignalId> = pis.clone();
    let mut all_signals: Vec<SignalId> = pis;
    let mut gate_no = 0usize;
    let mut last_layer: Vec<SignalId> = Vec::new();

    for count in per_layer {
        let mut this_layer = Vec::with_capacity(count);
        for _ in 0..count {
            let kind = pick_kind(&mut rng);
            let pins = match kind {
                GateKind::Not | GateKind::Buf => 1,
                GateKind::Xor | GateKind::Xnor => 2,
                _ => 2 + usize::from(rng.random::<f64>() < 0.25),
            };
            // Distinct pins cannot exceed the available signal pool
            // (tiny circuits would otherwise livelock the sampler).
            let pins = pins.min(all_signals.len());
            let mut inputs = Vec::with_capacity(pins);
            // First pin from the previous layer to stretch the depth.
            inputs.push(prev_layer[rng.random_range(0..prev_layer.len())]);
            while inputs.len() < pins {
                let cand = all_signals[rng.random_range(0..all_signals.len())];
                if !inputs.contains(&cand) {
                    inputs.push(cand);
                }
            }
            let out = nl
                .add_gate(kind, &inputs, format!("g{gate_no}"))
                .expect("generated arity is always valid");
            gate_no += 1;
            this_layer.push(out);
        }
        all_signals.extend_from_slice(&this_layer);
        last_layer = this_layer.clone();
        prev_layer = this_layer;
    }

    // Outputs: prefer the deepest layer, fall back to earlier gates.
    let mut out_pool = last_layer;
    let mut k = all_signals.len();
    while out_pool.len() < params.outputs {
        k -= 1;
        let cand = all_signals[k];
        if nl.driver(cand).is_some() && !out_pool.contains(&cand) {
            out_pool.push(cand);
        }
    }
    for &o in out_pool.iter().take(params.outputs) {
        nl.mark_output(o);
    }
    nl
}

fn pick_kind(rng: &mut StdRng) -> GateKind {
    // NAND/NOR-heavy mix like the ISCAS-85 set.
    let r: f64 = rng.random();
    if r < 0.35 {
        GateKind::Nand
    } else if r < 0.55 {
        GateKind::Nor
    } else if r < 0.70 {
        GateKind::And
    } else if r < 0.82 {
        GateKind::Or
    } else if r < 0.94 {
        GateKind::Not
    } else {
        GateKind::Xor
    }
}

/// The deterministic C432-compatible stand-in used by the Fig. 11
/// experiment: 36 PIs, 7 POs, 160 gates, logic depth ≈ 17. The same
/// netlist is produced on every call.
pub fn c432_like() -> Netlist {
    random_netlist(&BenchParams::c432_like(), 0xC432)
}

/// The genuine ISCAS-85 **c17** benchmark (5 inputs, 2 outputs, 6 NAND2
/// gates) — small enough to ship verbatim, and a handy smoke target for
/// the whole flow.
pub fn c17() -> Netlist {
    crate::iscas::parse_iscas85(
        "# ISCAS-85 c17\n\
         INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\n\
         OUTPUT(22)\nOUTPUT(23)\n\
         10 = NAND(1, 3)\n\
         11 = NAND(3, 6)\n\
         16 = NAND(2, 11)\n\
         19 = NAND(11, 7)\n\
         22 = NAND(10, 16)\n\
         23 = NAND(16, 19)\n",
    )
    .expect("embedded c17 netlist is well-formed")
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::sim::simulate;

    #[test]
    fn c432_like_has_the_right_shape() {
        let nl = c432_like();
        assert_eq!(nl.inputs().len(), 36);
        assert_eq!(nl.outputs().len(), 7);
        assert_eq!(nl.gate_count(), 160);
        let (_, depth) = nl.depths();
        assert!(
            (12..=22).contains(&depth),
            "depth {depth} outside the C432-like band"
        );
    }

    #[test]
    fn c432_like_is_deterministic() {
        let a = c432_like();
        let b = c432_like();
        assert_eq!(a.gate_count(), b.gate_count());
        let wa: Vec<u64> = (0..36)
            .map(|i| 0x9E3779B97F4A7C15u64.wrapping_mul(i + 1))
            .collect();
        let va = simulate(&a, &wa);
        let vb = simulate(&b, &wa);
        assert_eq!(va, vb);
    }

    #[test]
    fn c880_like_profile_scales_up() {
        let nl = random_netlist(&BenchParams::c880_like(), 0x880);
        assert_eq!(nl.inputs().len(), 60);
        assert_eq!(nl.outputs().len(), 26);
        assert_eq!(nl.gate_count(), 383);
        let (_, depth) = nl.depths();
        assert!((18..=30).contains(&depth), "depth {depth}");
    }

    #[test]
    fn c17_matches_its_truth_table() {
        use crate::sim::simulate_bool;
        let nl = c17();
        assert_eq!(nl.inputs().len(), 5);
        assert_eq!(nl.outputs().len(), 2);
        assert_eq!(nl.gate_count(), 6);
        let o22 = nl.find_signal("22").unwrap();
        let o23 = nl.find_signal("23").unwrap();
        // Exhaustive check against the gate equations.
        for pat in 0..32u32 {
            let bit = |k: u32| (pat >> k) & 1 == 1;
            let (i1, i2, i3, i6, i7) = (bit(0), bit(1), bit(2), bit(3), bit(4));
            let n10 = !(i1 && i3);
            let n11 = !(i3 && i6);
            let n16 = !(i2 && n11);
            let n19 = !(n11 && i7);
            let e22 = !(n10 && n16);
            let e23 = !(n16 && n19);
            let vals = simulate_bool(&nl, &[i1, i2, i3, i6, i7]);
            assert_eq!(vals[o22.index()], e22, "pattern {pat:05b}");
            assert_eq!(vals[o23.index()], e23, "pattern {pat:05b}");
        }
    }

    #[test]
    fn random_netlists_are_acyclic_and_simulable() {
        for seed in 0..10 {
            let nl = random_netlist(
                &BenchParams {
                    inputs: 8,
                    gates: 40,
                    outputs: 4,
                    layers: 6,
                },
                seed,
            );
            assert!(crate::netlist::tests::gate_order_is_topological(&nl));
            let words = vec![seed.wrapping_mul(0xABCD); 8];
            let vals = simulate(&nl, &words);
            assert_eq!(vals.len(), nl.signal_count());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_netlist(
            &BenchParams {
                inputs: 4,
                gates: 10,
                outputs: 2,
                layers: 3,
            },
            1,
        );
        let b = random_netlist(
            &BenchParams {
                inputs: 4,
                gates: 10,
                outputs: 2,
                layers: 3,
            },
            2,
        );
        let ka: Vec<_> = a.gates().iter().map(|g| g.kind).collect();
        let kb: Vec<_> = b.gates().iter().map(|g| g.kind).collect();
        assert_ne!(ka, kb, "seeds should shuffle the structure");
    }

    #[test]
    fn tiny_pools_do_not_livelock_the_sampler() {
        // Regression: with 2 PIs a 3-pin draw used to rejection-sample
        // forever. Every seed must terminate (quickly).
        for seed in 0..64 {
            let nl = random_netlist(
                &BenchParams {
                    inputs: 2,
                    gates: 3,
                    outputs: 1,
                    layers: 1,
                },
                seed,
            );
            assert!(crate::netlist::tests::gate_order_is_topological(&nl));
        }
        // Even a single-input pool works.
        let nl = random_netlist(
            &BenchParams {
                inputs: 1,
                gates: 2,
                outputs: 1,
                layers: 1,
            },
            7,
        );
        assert_eq!(nl.inputs().len(), 1);
    }

    #[test]
    #[should_panic(expected = "counts must be positive")]
    fn zero_inputs_panics() {
        random_netlist(
            &BenchParams {
                inputs: 0,
                gates: 1,
                outputs: 1,
                layers: 1,
            },
            0,
        );
    }
}
