//! Structural path enumeration.
//!
//! A path is a pin-accurate chain PI → gate → … → PO. The test-generation
//! flow enumerates the paths through a fault site and then asks the
//! sensitizer (crate::sensitize) for an input vector that activates one.

use crate::error::LogicError;
use crate::netlist::{GateId, Netlist, SignalId};
use std::convert::Infallible;

/// One step of a path: a gate entered through a specific input pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathStep {
    /// The gate traversed.
    pub gate: GateId,
    /// Which of its input pins the path enters through.
    pub pin: usize,
}

/// A structural path from a primary input to a primary output.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    /// The launching primary input.
    pub from: SignalId,
    /// Traversed gates, input side first.
    pub steps: Vec<PathStep>,
}

impl Path {
    /// The signal at the path's end (the last gate's output, or `from`
    /// for a degenerate gate-less path).
    pub fn terminal(&self, nl: &Netlist) -> SignalId {
        match self.steps.last() {
            Some(s) => nl.gate(s.gate).output,
            None => self.from,
        }
    }

    /// Number of gates on the path.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True for a path with no gates.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Whether the path inverts end to end under side-input
    /// sensitization (parity of inverting stages).
    pub fn inverts(&self, nl: &Netlist) -> bool {
        self.steps
            .iter()
            .filter(|s| nl.gate(s.gate).kind.inverts())
            .count()
            % 2
            == 1
    }

    /// All signals along the path: `from`, then each gate output.
    pub fn signals(&self, nl: &Netlist) -> Vec<SignalId> {
        let mut v = vec![self.from];
        v.extend(self.steps.iter().map(|s| nl.gate(s.gate).output));
        v
    }

    /// True if the path passes through `signal` (as the launching input or
    /// any traversed gate output).
    pub fn passes_through(&self, nl: &Netlist, signal: SignalId) -> bool {
        self.signals(nl).contains(&signal)
    }
}

/// Enumerates full PI→PO paths, optionally restricted to those passing
/// through `through`. Stops with [`LogicError::PathLimit`] once more than
/// `limit` paths have been produced — path counts are exponential in the
/// worst case, so a cap is mandatory.
///
/// The forward walk ends because a [`Netlist`] is acyclic by
/// construction.
///
/// # Errors
///
/// [`LogicError::PathLimit`] when the cap is exceeded.
pub fn enumerate_paths(
    nl: &Netlist,
    through: Option<SignalId>,
    limit: usize,
) -> Result<Vec<Path>, LogicError> {
    let fanouts = nl.fanouts();
    let output_set: Vec<bool> = {
        let mut v = vec![false; nl.signal_count()];
        for &o in nl.outputs() {
            v[o.index()] = true;
        }
        v
    };

    let mut result = Vec::new();
    let mut stack: Vec<PathStep> = Vec::new();

    // DFS forward from each PI.
    #[allow(clippy::too_many_arguments)]
    fn dfs(
        nl: &Netlist,
        fanouts: &[Vec<(GateId, usize)>],
        output_set: &[bool],
        from: SignalId,
        at: SignalId,
        stack: &mut Vec<PathStep>,
        result: &mut Vec<Path>,
        limit: usize,
    ) -> Result<(), LogicError> {
        if output_set[at.index()] {
            if result.len() >= limit {
                return Err(LogicError::PathLimit { limit });
            }
            result.push(Path {
                from,
                steps: stack.clone(),
            });
        }
        for &(g, pin) in &fanouts[at.index()] {
            stack.push(PathStep { gate: g, pin });
            let out = nl.gate(g).output;
            dfs(nl, fanouts, output_set, from, out, stack, result, limit)?;
            stack.pop();
        }
        Ok(())
    }

    for &pi in nl.inputs() {
        dfs(
            nl,
            fanouts,
            &output_set,
            pi,
            pi,
            &mut stack,
            &mut result,
            limit,
        )?;
    }

    if let Some(site) = through {
        result.retain(|p| p.passes_through(nl, site));
    }
    Ok(result)
}

/// Enumerates paths that pass through `site`, capped at `limit`, without
/// failing when the *global* path count explodes: it walks backward from
/// the site to PIs and forward to POs and combines the segments.
///
/// Unlike [`enumerate_paths`], exceeding the cap is not an error: the
/// result is **silently truncated** to at most `limit` paths (check
/// `len() == limit` to detect truncation). Test generation prefers *some*
/// candidate paths over none on fan-out-heavy circuits.
///
/// The collecting form of [`visit_paths_from_fanin`]: same paths, same
/// order, same cap.
pub fn paths_from_fanin(nl: &Netlist, site: SignalId, limit: usize) -> Vec<Path> {
    let mut result = Vec::new();
    let Ok(()) = visit_paths_from_fanin(nl, site, limit, |path| {
        result.push(path.clone());
        Ok::<(), Infallible>(())
    });
    result
}

/// Calls `visit` on each path [`paths_from_fanin`] returns, in its order
/// and under its cap, without building the list: every path is composed
/// in one reused buffer, so a caller that keeps only some paths clones
/// only those. The first error `visit` returns stops the walk and is
/// returned.
///
/// The walk does not check the netlist for loops: [`Netlist`]'s
/// append-only construction cannot make one.
///
/// # Errors
///
/// Whatever `visit` returns.
pub fn visit_paths_from_fanin<E>(
    nl: &Netlist,
    site: SignalId,
    limit: usize,
    mut visit: impl FnMut(&Path) -> Result<(), E>,
) -> Result<(), E> {
    // Backward segments: site ← … ← PI, stored PI side first one after
    // another in one flat list; `(pi, end)` ends a segment at `end`, and
    // the segment starts where the one before it ended.
    let mut back: Vec<(SignalId, usize)> = Vec::new();
    let mut back_steps: Vec<PathStep> = Vec::new();
    let mut stack: Vec<PathStep> = Vec::new();
    fn back_dfs(
        nl: &Netlist,
        at: SignalId,
        stack: &mut Vec<PathStep>,
        out: &mut Vec<(SignalId, usize)>,
        steps: &mut Vec<PathStep>,
        limit: usize,
    ) {
        if out.len() >= limit {
            return;
        }
        match nl.driver_id(at) {
            None => {
                steps.extend(stack.iter().rev());
                out.push((at, steps.len()));
            }
            Some(g) => {
                for (pin, &inp) in nl.gate(g).inputs.iter().enumerate() {
                    stack.push(PathStep { gate: g, pin });
                    back_dfs(nl, inp, stack, out, steps, limit);
                    stack.pop();
                }
            }
        }
    }
    back_dfs(nl, site, &mut stack, &mut back, &mut back_steps, limit);

    // Forward segments: site → … → PO, flat in the same way.
    let output_set: Vec<bool> = {
        let mut v = vec![false; nl.signal_count()];
        for &o in nl.outputs() {
            v[o.index()] = true;
        }
        v
    };
    let mut fwd: Vec<usize> = Vec::new();
    let mut fwd_steps: Vec<PathStep> = Vec::new();
    fn fwd_dfs(
        nl: &Netlist,
        output_set: &[bool],
        at: SignalId,
        stack: &mut Vec<PathStep>,
        out: &mut Vec<usize>,
        steps: &mut Vec<PathStep>,
        limit: usize,
    ) {
        if out.len() >= limit {
            return;
        }
        if output_set[at.index()] {
            steps.extend_from_slice(stack);
            out.push(steps.len());
        }
        for &(g, pin) in &nl.fanouts()[at.index()] {
            stack.push(PathStep { gate: g, pin });
            fwd_dfs(nl, output_set, nl.gate(g).output, stack, out, steps, limit);
            stack.pop();
        }
    }
    stack.clear();
    fwd_dfs(
        nl,
        &output_set,
        site,
        &mut stack,
        &mut fwd,
        &mut fwd_steps,
        limit,
    );

    // Cartesian product, capped, composed in one buffer.
    let mut path = Path {
        from: site,
        steps: Vec::new(),
    };
    let mut visited = 0;
    let mut b_start = 0;
    for &(pi, b_end) in &back {
        let mut f_start = 0;
        for &f_end in &fwd {
            if visited >= limit {
                return Ok(());
            }
            path.from = pi;
            path.steps.clear();
            path.steps.extend_from_slice(&back_steps[b_start..b_end]);
            path.steps.extend_from_slice(&fwd_steps[f_start..f_end]);
            visit(&path)?;
            visited += 1;
            f_start = f_end;
        }
        b_start = b_end;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::netlist::GateKind;

    /// y = NAND(NAND(a, b), NOT(a)) — reconvergent fan-out on `a`.
    fn reconvergent() -> (Netlist, SignalId, SignalId, SignalId) {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_gate(GateKind::Nand, &[a, b], "g1").unwrap();
        let g2 = nl.add_gate(GateKind::Not, &[a], "g2").unwrap();
        let y = nl.add_gate(GateKind::Nand, &[g1, g2], "y").unwrap();
        nl.mark_output(y);
        (nl, a, b, g1)
    }

    #[test]
    fn enumerates_all_pi_po_paths() {
        let (nl, ..) = reconvergent();
        let paths = enumerate_paths(&nl, None, 100).unwrap();
        // a→g1→y, a→g2→y, b→g1→y
        assert_eq!(paths.len(), 3);
        for p in &paths {
            assert_eq!(p.terminal(&nl), nl.outputs()[0]);
        }
    }

    #[test]
    fn through_filter_keeps_site_paths() {
        let (nl, _a, _b, g1) = reconvergent();
        let paths = enumerate_paths(&nl, Some(g1), 100).unwrap();
        assert_eq!(paths.len(), 2, "two paths pass through g1's output");
        for p in &paths {
            assert!(p.passes_through(&nl, g1));
        }
    }

    #[test]
    fn fanin_enumeration_matches_filtered_global() {
        let (nl, _a, _b, g1) = reconvergent();
        let via = paths_from_fanin(&nl, g1, 100);
        let filt = enumerate_paths(&nl, Some(g1), 100).unwrap();
        assert_eq!(via.len(), filt.len());
        for p in &via {
            assert!(
                filt.contains(p),
                "segment-composed path missing from global set"
            );
        }
    }

    #[test]
    fn inversion_parity() {
        let (nl, ..) = reconvergent();
        let paths = enumerate_paths(&nl, None, 100).unwrap();
        for p in &paths {
            // Every path here crosses exactly two inverting gates.
            assert_eq!(p.len(), 2);
            assert!(!p.inverts(&nl));
        }
    }

    #[test]
    fn limit_is_enforced() {
        let (nl, ..) = reconvergent();
        assert!(matches!(
            enumerate_paths(&nl, None, 2),
            Err(LogicError::PathLimit { limit: 2 })
        ));
    }

    #[test]
    fn signals_lists_every_stop() {
        let (nl, a, _b, g1) = reconvergent();
        let paths = enumerate_paths(&nl, Some(g1), 100).unwrap();
        let p = paths.iter().find(|p| p.from == a).unwrap();
        let sigs = p.signals(&nl);
        assert_eq!(sigs.len(), 3); // a, g1, y
        assert_eq!(sigs[0], a);
        assert_eq!(sigs[1], g1);
    }
}
