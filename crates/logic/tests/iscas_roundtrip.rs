//! Property test: the ISCAS-85 writer/parser round-trip preserves circuit
//! function on random netlists.

use proptest::prelude::*;
use pulsar_logic::{parse_iscas85, random_netlist, simulate, write_iscas85, BenchParams};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn write_then_parse_preserves_function(seed in 0u64..20_000,
                                           inputs in 2usize..10,
                                           gates in 3usize..40,
                                           layers in 1usize..6) {
        let nl = random_netlist(
            &BenchParams { inputs, gates, outputs: 2.min(gates), layers },
            seed,
        );
        let text = write_iscas85(&nl);
        let back = parse_iscas85(&text).expect("own output must parse");

        prop_assert_eq!(back.inputs().len(), nl.inputs().len());
        prop_assert_eq!(back.outputs().len(), nl.outputs().len());
        prop_assert_eq!(back.gate_count(), nl.gate_count());

        // 64 random patterns per case: all primary outputs must agree.
        let words: Vec<u64> = (0..inputs as u64)
            .map(|i| seed.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(i as u32 * 7) ^ i)
            .collect();
        let va = simulate(&nl, &words);
        let vb = simulate(&back, &words);
        for (oa, ob) in nl.outputs().iter().zip(back.outputs()) {
            // Outputs correspond by name, not necessarily by index.
            let name = nl.signal_name(*oa);
            let ob_by_name = back.find_signal(name).expect("name preserved");
            prop_assert_eq!(
                va[oa.index()],
                vb[ob_by_name.index()],
                "output {} diverged",
                name
            );
            let _ = ob;
        }
    }
}
