//! Property test: sensitization soundness on random circuits.
//!
//! For random layered netlists, every vector the justifier returns must —
//! when simulated — actually hold every side input of the path at its
//! non-controlling value. (Completeness is not tested: `Ok(None)` may be
//! conservative under the hazard-aware blocking rule.)

use proptest::prelude::*;
use pulsar_logic::{
    enumerate_paths, random_netlist, sensitize, simulate_bool, BenchParams, Netlist, Path,
};

fn verify_sensitized(nl: &Netlist, path: &Path, pi: &[bool]) {
    let vals = simulate_bool(nl, pi);
    for step in &path.steps {
        let gate = nl.gate(step.gate);
        for (pin, &sig) in gate.inputs.iter().enumerate() {
            if pin != step.pin {
                assert_eq!(
                    vals[sig.index()],
                    gate.kind.side_input_value(),
                    "side input {} of {:?} not at its non-controlling value",
                    nl.signal_name(sig),
                    gate.kind,
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn returned_vectors_really_sensitize(seed in 0u64..10_000,
                                         inputs in 3usize..8,
                                         gates in 6usize..28,
                                         layers in 2usize..6) {
        let nl = random_netlist(
            &BenchParams { inputs, gates, outputs: 2.min(gates), layers },
            seed,
        );
        // Bounded enumeration; skip pathological cases.
        let Ok(paths) = enumerate_paths(&nl, None, 300) else {
            return Ok(());
        };
        let mut checked = 0;
        for path in paths.iter().take(40) {
            match sensitize(&nl, path, 50_000) {
                Ok(Some(vec)) => {
                    verify_sensitized(&nl, path, &vec.to_pi_bools(&nl));
                    checked += 1;
                }
                Ok(None) => {}       // conservative rejection is fine
                Err(_) => {}         // budget blown: fine
            }
        }
        // Not every random circuit yields sensitizable paths, but across
        // the corpus most do; nothing to assert when none did.
        let _ = checked;
    }

    /// Don't-care inputs really are don't-cares: flipping them keeps the
    /// sensitization valid.
    #[test]
    fn dont_cares_do_not_matter(seed in 0u64..5_000) {
        let nl = random_netlist(
            &BenchParams { inputs: 6, gates: 16, outputs: 2, layers: 4 },
            seed,
        );
        let Ok(paths) = enumerate_paths(&nl, None, 200) else {
            return Ok(());
        };
        for path in paths.iter().take(10) {
            if let Ok(Some(vec)) = sensitize(&nl, path, 50_000) {
                // All don't-cares at 0 and all at 1 must both sensitize.
                let zeros = vec.to_pi_bools(&nl);
                let ones: Vec<bool> = nl
                    .inputs()
                    .iter()
                    .map(|s| vec.value(*s).unwrap_or(true))
                    .collect();
                verify_sensitized(&nl, path, &zeros);
                verify_sensitized(&nl, path, &ones);
            }
        }
    }
}
