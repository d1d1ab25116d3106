//! Bit-parallel logic simulation (64 patterns per pass).

use crate::netlist::Netlist;

/// Simulates the netlist over 64 parallel patterns, gate by gate in
/// index order, which is topological ([`Netlist::gates`]).
///
/// `pi_words[k]` carries 64 values of primary input `k` (bit `j` = pattern
/// `j`). Returns one word per *signal*, indexed by [`SignalId::index`](crate::SignalId::index)
/// so both intermediate nets and outputs can be
/// observed.
///
/// # Panics
///
/// Panics if `pi_words.len()` differs from the number of primary inputs.
pub fn simulate(nl: &Netlist, pi_words: &[u64]) -> Vec<u64> {
    assert_eq!(
        pi_words.len(),
        nl.inputs().len(),
        "one input word per primary input"
    );
    let mut values = vec![0u64; nl.signal_count()];
    for (w, s) in pi_words.iter().zip(nl.inputs()) {
        values[s.index()] = *w;
    }
    let mut ins: Vec<u64> = Vec::new();
    for gate in nl.gates() {
        ins.clear();
        ins.extend(gate.inputs.iter().map(|s| values[s.index()]));
        values[gate.output.index()] = gate.kind.eval_words(&ins);
    }
    values
}

/// Single-pattern convenience wrapper over [`simulate`]: plain booleans in,
/// one boolean per signal out.
///
/// # Panics
///
/// Panics on input-count mismatch.
pub fn simulate_bool(nl: &Netlist, pi: &[bool]) -> Vec<bool> {
    let words: Vec<u64> = pi.iter().map(|&b| if b { 1 } else { 0 }).collect();
    let vals = simulate(nl, &words);
    vals.into_iter().map(|w| w & 1 == 1).collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::netlist::GateKind;
    use proptest::prelude::*;

    #[test]
    fn and_of_not_matches_hand_truth_table() {
        // y = AND(NOT(a), b)
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let na = nl.add_gate(GateKind::Not, &[a], "na").unwrap();
        let y = nl.add_gate(GateKind::And, &[na, b], "y").unwrap();
        nl.mark_output(y);

        for (av, bv, want) in [
            (false, false, false),
            (false, true, true),
            (true, false, false),
            (true, true, false),
        ] {
            let vals = simulate_bool(&nl, &[av, bv]);
            assert_eq!(vals[y.index()], want, "a={av} b={bv}");
        }
    }

    #[test]
    fn bit_parallel_matches_sequential() {
        // y = XOR(NAND(a,b), NOR(a,c))
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let g1 = nl.add_gate(GateKind::Nand, &[a, b], "g1").unwrap();
        let g2 = nl.add_gate(GateKind::Nor, &[a, c], "g2").unwrap();
        let y = nl.add_gate(GateKind::Xor, &[g1, g2], "y").unwrap();
        nl.mark_output(y);

        // All 8 patterns in one word.
        let wa = 0b10101010u64;
        let wb = 0b11001100u64;
        let wc = 0b11110000u64;
        let words = simulate(&nl, &[wa, wb, wc]);
        for p in 0..8 {
            let bit = |w: u64| (w >> p) & 1 == 1;
            let seq = simulate_bool(&nl, &[bit(wa), bit(wb), bit(wc)]);
            assert_eq!(bit(words[y.index()]), seq[y.index()], "pattern {p}");
        }
    }

    proptest! {
        /// De Morgan: NAND(a,b) == OR(NOT a, NOT b), on random words.
        #[test]
        fn de_morgan_holds(wa: u64, wb: u64) {
            let mut nl = Netlist::new();
            let a = nl.add_input("a");
            let b = nl.add_input("b");
            let nand = nl.add_gate(GateKind::Nand, &[a, b], "nand").unwrap();
            let na = nl.add_gate(GateKind::Not, &[a], "na").unwrap();
            let nb = nl.add_gate(GateKind::Not, &[b], "nb").unwrap();
            let or = nl.add_gate(GateKind::Or, &[na, nb], "or").unwrap();
            nl.mark_output(nand);
            nl.mark_output(or);
            let vals = simulate(&nl, &[wa, wb]);
            prop_assert_eq!(vals[nand.index()], vals[or.index()]);
        }

        /// XOR chain associativity on random words.
        #[test]
        fn xor_chain_is_parity(wa: u64, wb: u64, wc: u64) {
            let mut nl = Netlist::new();
            let a = nl.add_input("a");
            let b = nl.add_input("b");
            let c = nl.add_input("c");
            let x1 = nl.add_gate(GateKind::Xor, &[a, b], "x1").unwrap();
            let x2 = nl.add_gate(GateKind::Xor, &[x1, c], "x2").unwrap();
            let flat = nl.add_gate(GateKind::Xor, &[a, b, c], "flat").unwrap();
            nl.mark_output(x2);
            nl.mark_output(flat);
            let vals = simulate(&nl, &[wa, wb, wc]);
            prop_assert_eq!(vals[x2.index()], vals[flat.index()]);
        }
    }
}
