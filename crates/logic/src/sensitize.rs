//! Path sensitization: find primary-input values that hold every side
//! input of a path at its non-controlling value.
//!
//! This is the structural prerequisite of the paper's method (§3): with
//! side inputs non-controlling, the injected pulse is the only activity on
//! the path, and its survival at the output depends only on the path's
//! electrical health. The justifier below is a small branch-and-bound
//! engine in the D-algorithm tradition: requirements are pushed backward
//! through gate functions toward the primary inputs, branching where a
//! controlled output admits several input explanations, with conflict
//! detection on reconvergent fan-out.
//!
//! On-path signals are additionally *blocked* from static justification:
//! a vector that needs an on-path net at a constant value cannot carry the
//! pulse robustly, so such branches are rejected (hazard-conscious
//! sensitization).

use crate::error::LogicError;
use crate::netlist::{GateKind, Netlist, SignalId};
use crate::paths::Path;

/// A (partial) primary-input assignment produced by [`sensitize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputVector {
    /// Per-signal assignment, indexed by [`SignalId::index`](crate::SignalId::index); only primary
    /// inputs are populated. `None` means don't-care.
    pub values: Vec<Option<bool>>,
}

impl InputVector {
    /// The assignment of one signal (meaningful for primary inputs).
    pub fn value(&self, s: SignalId) -> Option<bool> {
        self.values[s.index()]
    }

    /// Full boolean PI vector with don't-cares filled as `false`, in the
    /// netlist's PI order — directly usable with
    /// [`simulate_bool`](crate::simulate_bool).
    pub fn to_pi_bools(&self, nl: &Netlist) -> Vec<bool> {
        nl.inputs()
            .iter()
            .map(|s| self.values[s.index()].unwrap_or(false))
            .collect()
    }
}

/// Searches for an input vector sensitizing `path`.
///
/// Returns `Ok(Some(vector))` when found, `Ok(None)` when the path is
/// provably unsensitizable (conflicting side-input requirements).
///
/// # Errors
///
/// [`LogicError::PathLimit`] when the search exceeds `max_backtracks`
/// failed branches — the result is then unknown, and callers typically
/// skip the path.
pub fn sensitize(
    nl: &Netlist,
    path: &Path,
    max_backtracks: usize,
) -> Result<Option<InputVector>, LogicError> {
    // Signals carrying the pulse: may not be statically justified.
    let mut blocked = vec![false; nl.signal_count()];
    for s in path.signals(nl) {
        blocked[s.index()] = true;
    }

    // Side-input requirements.
    let mut requirements: Vec<(SignalId, bool)> = Vec::new();
    for step in &path.steps {
        let gate = nl.gate(step.gate);
        let on_path = gate.inputs[step.pin];
        let side_val = gate.kind.side_input_value();
        for (pin, &sig) in gate.inputs.iter().enumerate() {
            if pin == step.pin {
                continue;
            }
            if sig == on_path || blocked[sig.index()] {
                // The side input is electrically the pulse carrier (or
                // another on-path net): no static value can sensitize it.
                return Ok(None);
            }
            requirements.push((sig, side_val));
        }
    }

    let mut engine = Justify {
        nl,
        assigned: vec![None; nl.signal_count()],
        trail: Vec::new(),
        blocked,
        backtracks: 0,
        max_backtracks,
    };

    for &(sig, val) in &requirements {
        if !engine.justify(sig, val) {
            return if engine.budget_exhausted() {
                Err(LogicError::PathLimit {
                    limit: max_backtracks,
                })
            } else {
                Ok(None)
            };
        }
    }

    let values = nl
        .inputs()
        .iter()
        .fold(vec![None; nl.signal_count()], |mut acc, &s| {
            acc[s.index()] = engine.assigned[s.index()];
            acc
        });
    Ok(Some(InputVector { values }))
}

struct Justify<'a> {
    nl: &'a Netlist,
    assigned: Vec<Option<bool>>,
    trail: Vec<SignalId>,
    blocked: Vec<bool>,
    backtracks: usize,
    max_backtracks: usize,
}

impl<'a> Justify<'a> {
    fn budget_exhausted(&self) -> bool {
        self.backtracks >= self.max_backtracks
    }

    fn savepoint(&self) -> usize {
        self.trail.len()
    }

    fn rollback(&mut self, sp: usize) {
        while self.trail.len() > sp {
            let s = self.trail.pop().expect("trail length checked");
            self.assigned[s.index()] = None;
        }
    }

    /// Tries to make signal `s` take value `v`; true on success. On
    /// failure the assignment state is unchanged.
    fn justify(&mut self, s: SignalId, v: bool) -> bool {
        if self.blocked[s.index()] {
            return false;
        }
        match self.assigned[s.index()] {
            Some(cur) => return cur == v,
            None => {
                self.assigned[s.index()] = Some(v);
                self.trail.push(s);
            }
        }
        // Borrowed through the `&'a Netlist`, not through `self`, so the
        // recursion below can take `&mut self`.
        let nl: &'a Netlist = self.nl;
        let Some(gate) = nl.driver(s) else {
            return true; // primary input: freely assignable
        };
        let inputs = gate.inputs.as_slice();
        let ok = match gate.kind {
            GateKind::Not => self.justify(inputs[0], !v),
            GateKind::Buf => self.justify(inputs[0], v),
            GateKind::And => self.gate_and(inputs, v, false),
            GateKind::Nand => self.gate_and(inputs, !v, false),
            GateKind::Or => self.gate_and(inputs, !v, true),
            GateKind::Nor => self.gate_and(inputs, v, true),
            GateKind::Xor => self.gate_parity(inputs, v),
            GateKind::Xnor => self.gate_parity(inputs, !v),
        };
        if !ok {
            // Undo this signal's own assignment (children rolled back by
            // the helpers).
            let popped = self.trail.pop().expect("assigned above");
            debug_assert_eq!(popped, s);
            self.assigned[s.index()] = None;
        }
        ok
    }

    /// AND-family justification with optional input negation (`neg` turns
    /// the AND view into the OR view by De Morgan): `want_all` = the gate
    /// output (pre-inversion) is the non-controlled value, requiring every
    /// input; otherwise one controlling input suffices (branch point).
    ///
    /// Concretely: for `neg = false`, output 1 ⇔ all inputs 1;
    /// for `neg = true` (OR via De Morgan), output 0 ⇔ all inputs 0.
    fn gate_and(&mut self, inputs: &[SignalId], want_all: bool, neg: bool) -> bool {
        let all_val = !neg; // value every input needs in the "all" case
        if want_all {
            let sp = self.savepoint();
            for &i in inputs {
                if !self.justify(i, all_val) {
                    self.rollback(sp);
                    return false;
                }
            }
            true
        } else {
            // One input at the controlling value: try each.
            for &i in inputs {
                if self.budget_exhausted() {
                    return false;
                }
                let sp = self.savepoint();
                if self.justify(i, !all_val) {
                    return true;
                }
                self.rollback(sp);
                self.backtracks += 1;
            }
            false
        }
    }

    /// Parity justification: inputs must XOR to `target`. Branches on the
    /// first input's value and recurses on the rest.
    fn gate_parity(&mut self, inputs: &[SignalId], target: bool) -> bool {
        match inputs {
            [] => !target, // empty parity is 0
            [one] => self.justify(*one, target),
            [first, rest @ ..] => {
                for b in [false, true] {
                    if self.budget_exhausted() {
                        return false;
                    }
                    let sp = self.savepoint();
                    if self.justify(*first, b) && self.gate_parity(rest, target ^ b) {
                        return true;
                    }
                    self.rollback(sp);
                    self.backtracks += 1;
                }
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::netlist::{GateKind, Netlist};
    use crate::paths::enumerate_paths;
    use crate::sim::simulate_bool;

    /// Checks by simulation that every side input of `path` really sits at
    /// its non-controlling value under `vec`.
    fn verify(nl: &Netlist, path: &Path, vec: &InputVector) {
        let vals = simulate_bool(nl, &vec.to_pi_bools(nl));
        for step in &path.steps {
            let gate = nl.gate(step.gate);
            for (pin, &sig) in gate.inputs.iter().enumerate() {
                if pin != step.pin {
                    assert_eq!(
                        vals[sig.index()],
                        gate.kind.side_input_value(),
                        "side input {} of gate {:?} not sensitized",
                        nl.signal_name(sig),
                        gate.kind
                    );
                }
            }
        }
    }

    #[test]
    fn simple_nand_side_input() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(GateKind::Nand, &[a, b], "y").unwrap();
        nl.mark_output(y);
        let paths = enumerate_paths(&nl, None, 10).unwrap();
        let p = paths.iter().find(|p| p.from == a).unwrap();
        let v = sensitize(&nl, p, 1000).unwrap().expect("sensitizable");
        assert_eq!(v.value(b), Some(true));
        verify(&nl, p, &v);
    }

    #[test]
    fn nor_side_inputs_need_zero() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let y = nl.add_gate(GateKind::Nor, &[a, b, c], "y").unwrap();
        nl.mark_output(y);
        let paths = enumerate_paths(&nl, None, 10).unwrap();
        let p = paths.iter().find(|p| p.from == b).unwrap();
        let v = sensitize(&nl, p, 1000).unwrap().expect("sensitizable");
        assert_eq!(v.value(a), Some(false));
        assert_eq!(v.value(c), Some(false));
        verify(&nl, p, &v);
    }

    #[test]
    fn side_value_justified_through_logic() {
        // Side input of the output NAND is itself a NAND: needs value 1,
        // justified by driving one of its inputs to 0.
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let side = nl.add_gate(GateKind::Nand, &[b, c], "side").unwrap();
        let y = nl.add_gate(GateKind::Nand, &[a, side], "y").unwrap();
        nl.mark_output(y);
        let paths = enumerate_paths(&nl, None, 10).unwrap();
        let p = paths.iter().find(|p| p.from == a && p.len() == 1).unwrap();
        let v = sensitize(&nl, p, 1000).unwrap().expect("sensitizable");
        verify(&nl, p, &v);
        // At least one of b/c must be 0 to make `side` = 1.
        assert!(
            v.value(b) == Some(false) || v.value(c) == Some(false),
            "justification must drive side to 1: {v:?}"
        );
    }

    #[test]
    fn reconvergence_conflict_is_unsensitizable() {
        // y = AND(a, NOT(a)): the path through pin 0 needs NOT(a) = 1,
        // i.e. a = 0 — but `a` is the pulse carrier (blocked).
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let na = nl.add_gate(GateKind::Not, &[a], "na").unwrap();
        let y = nl.add_gate(GateKind::And, &[a, na], "y").unwrap();
        nl.mark_output(y);
        let paths = enumerate_paths(&nl, None, 10).unwrap();
        let direct = paths.iter().find(|p| p.len() == 1).unwrap();
        assert_eq!(sensitize(&nl, direct, 1000).unwrap(), None);
    }

    #[test]
    fn conflicting_requirements_detected() {
        // Two NANDs on the path share side input s, but one is a NAND
        // (needs s=1) and the other a NOR (needs s=0).
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let s = nl.add_input("s");
        let g1 = nl.add_gate(GateKind::Nand, &[a, s], "g1").unwrap();
        let g2 = nl.add_gate(GateKind::Nor, &[g1, s], "g2").unwrap();
        nl.mark_output(g2);
        let paths = enumerate_paths(&nl, None, 10).unwrap();
        let p = paths.iter().find(|p| p.from == a).unwrap();
        assert_eq!(sensitize(&nl, p, 1000).unwrap(), None);
    }

    #[test]
    fn xor_side_input_sensitized_to_zero() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(GateKind::Xor, &[a, b], "y").unwrap();
        nl.mark_output(y);
        let paths = enumerate_paths(&nl, None, 10).unwrap();
        let p = paths.iter().find(|p| p.from == a).unwrap();
        let v = sensitize(&nl, p, 1000).unwrap().expect("xor path");
        assert_eq!(v.value(b), Some(false));
        verify(&nl, p, &v);
    }

    #[test]
    fn dont_cares_stay_none() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let unused = nl.add_input("unused");
        let y = nl.add_gate(GateKind::Nand, &[a, b], "y").unwrap();
        let z = nl.add_gate(GateKind::Not, &[unused], "z").unwrap();
        nl.mark_output(y);
        nl.mark_output(z);
        let paths = enumerate_paths(&nl, Some(y), 10).unwrap();
        let p = paths.iter().find(|p| p.from == a).unwrap();
        let v = sensitize(&nl, p, 1000).unwrap().expect("sensitizable");
        assert_eq!(v.value(unused), None);
    }

    #[test]
    fn backtracking_explores_alternatives() {
        // side = AND(m, n); m = NOT(a) is blocked (a on path), so the
        // justifier must find side=1 impossible... actually side needs 1:
        // both m and n must be 1, but m = NOT(a) is blocked → None.
        // Variant where OR gives an alternative: side2 = OR(m, n) needs 1,
        // branch m fails (blocked), branch n succeeds.
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let n = nl.add_input("n");
        let m = nl.add_gate(GateKind::Not, &[a], "m").unwrap();
        let side = nl.add_gate(GateKind::Or, &[m, n], "side").unwrap();
        let y = nl.add_gate(GateKind::Nand, &[a, side], "y").unwrap();
        nl.mark_output(y);

        let paths = enumerate_paths(&nl, None, 10).unwrap();
        let p = paths
            .iter()
            .find(|p| p.from == a && p.len() == 1)
            .expect("direct a→y path");
        let v = sensitize(&nl, p, 1000)
            .unwrap()
            .expect("second OR branch works");
        assert_eq!(v.value(n), Some(true));
        verify(&nl, p, &v);
    }
}
