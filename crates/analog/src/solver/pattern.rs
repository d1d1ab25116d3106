//! Symbolic MNA stamp pattern: the set of matrix cells the assembly *may*
//! write for a given circuit topology.
//!
//! The pattern is the shared source of truth between two consumers:
//!
//! * **`pulsar-lint`** uses the DC pattern's *structural rank* (maximum
//!   row↔column matching) as a sound singularity certificate: if the
//!   matching leaves a row uncovered, every matrix with support inside the
//!   pattern is singular in exact arithmetic (diagnostics PL0101/PL0102).
//! * **The sparse solver** ([`crate::solver::sparse`]) uses the transient
//!   pattern to drive compressed assembly and a cached symbolic
//!   factorization, so numeric refactorization touches only true nonzeros.
//!
//! Both views must agree on what the assembly stamps, which is why the
//! construction lives here in `analog` next to the stamping code rather
//! than being re-derived in the lint crate.
//!
//! ## Construction rules (mirroring `mna::Newton::assemble`)
//!
//! The gmin floor puts every node diagonal in the pattern unconditionally.
//! Resistors stamp their 2×2 conductance block. Voltage sources stamp ±1
//! incidence pairs against their branch row/column. MOSFETs *may* stamp
//! drain/source rows against the drain/gate/source columns (cutoff devices
//! stamp nothing, so the MOSFET entries are a safe over-approximation). In
//! the DC pattern capacitors and current sources contribute nothing; the
//! transient pattern additionally holds the capacitor companion blocks and
//! the MOSFET lumped-capacitance companions (gate–source, gate–drain,
//! drain–bulk, with the bulk pinned to ground for NMOS and to the source
//! for PMOS, exactly as the assembly does).
//!
//! One refinement keeps the superset exact where it matters: a voltage
//! source whose two terminals collapse to the same MNA variable accumulates
//! `+1 − 1 = 0` exactly, so it contributes *no* pattern entries — its empty
//! branch row/column is precisely what the matching must see.

use crate::circuit::{Circuit, NodeId};
use crate::elements::Element;
use crate::solver::mna::mos_bulk;

/// Which assembly the pattern describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternMode {
    /// Capacitors and current sources open (operating-point assembly).
    Dc,
    /// Capacitive companion conductances included (transient assembly).
    /// A superset of [`PatternMode::Dc`] for the same circuit.
    Transient,
}

/// Row-major sparsity pattern of the MNA system of one circuit topology.
#[derive(Debug, Clone)]
pub struct StampPattern {
    /// `rows[r]` = sorted, deduplicated columns that may hold a nonzero in
    /// row `r`.
    rows: Vec<Vec<usize>>,
}

/// MNA variable index of a node (ground has none).
#[inline]
fn var(node: NodeId) -> Option<usize> {
    if node.is_ground() {
        None
    } else {
        Some(node.index() - 1)
    }
}

impl StampPattern {
    /// Builds the DC stamp pattern of `ckt` (capacitors and current
    /// sources open), including the gmin-floor diagonal. This is the
    /// pattern the lint singularity verdict is computed over.
    pub fn build_dc(ckt: &Circuit) -> Self {
        Self::build(ckt, PatternMode::Dc)
    }

    /// Builds the transient stamp pattern of `ckt`: the DC pattern plus
    /// every capacitive companion block. This is the pattern the sparse
    /// solver factorizes; being a superset of the DC pattern, one symbolic
    /// analysis serves both operating-point and transient solves.
    pub fn build_transient(ckt: &Circuit) -> Self {
        Self::build(ckt, PatternMode::Transient)
    }

    /// Builds the stamp pattern of `ckt` for the given assembly mode.
    pub fn build(ckt: &Circuit, mode: PatternMode) -> Self {
        let nn = ckt.node_count() - 1;
        let nv = ckt
            .elements()
            .iter()
            .filter(|e| matches!(e, Element::Vsource { .. }))
            .count();
        let n = nn + nv;
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); n];
        fn push(rows: &mut [Vec<usize>], r: usize, c: usize) {
            if !rows[r].contains(&c) {
                rows[r].push(c);
            }
        }
        // A two-terminal conductance block between `a` and `b`.
        fn push_g(rows: &mut [Vec<usize>], a: NodeId, b: NodeId) {
            let (ia, ib) = (var(a), var(b));
            if let Some(i) = ia {
                push(rows, i, i);
            }
            if let Some(j) = ib {
                push(rows, j, j);
            }
            if let (Some(i), Some(j)) = (ia, ib) {
                push(rows, i, j);
                push(rows, j, i);
            }
        }
        // Gmin floor: every node diagonal, unconditionally.
        for d in 0..nn {
            push(&mut rows, d, d);
        }
        let dynamic = mode == PatternMode::Transient;
        let mut next_branch = nn;
        for e in ckt.elements() {
            match e {
                Element::Resistor { a, b, .. } => push_g(&mut rows, *a, *b),
                Element::Capacitor { a, b, .. } => {
                    if dynamic {
                        push_g(&mut rows, *a, *b);
                    }
                }
                Element::Vsource { p, n, .. } => {
                    let br = next_branch;
                    next_branch += 1;
                    // Same-variable terminals cancel exactly; see module doc.
                    if var(*p) != var(*n) {
                        if let Some(i) = var(*p) {
                            push(&mut rows, i, br);
                            push(&mut rows, br, i);
                        }
                        if let Some(j) = var(*n) {
                            push(&mut rows, j, br);
                            push(&mut rows, br, j);
                        }
                    }
                }
                Element::Mosfet(m) => {
                    // Drain and source rows may see the d/g/s columns; the
                    // gate row sees nothing in DC (zero gate current).
                    let cols = [var(m.d), var(m.g), var(m.s)];
                    for row in [var(m.d), var(m.s)].into_iter().flatten() {
                        for col in cols.into_iter().flatten() {
                            push(&mut rows, row, col);
                        }
                    }
                    if dynamic {
                        // Lumped device capacitances as companion blocks.
                        push_g(&mut rows, m.g, m.s);
                        push_g(&mut rows, m.g, m.d);
                        push_g(&mut rows, m.d, mos_bulk(m));
                    }
                }
                // Current sources touch the RHS only.
                Element::Isource { .. } => {}
            }
        }
        for row in &mut rows {
            row.sort_unstable();
        }
        StampPattern { rows }
    }

    /// A pattern from explicit rows (each sorted and deduplicated), for
    /// tests that draw patterns rather than circuits.
    #[cfg(test)]
    pub(crate) fn from_rows(rows: Vec<Vec<usize>>) -> Self {
        StampPattern { rows }
    }

    /// Matrix dimension (node-voltage unknowns + voltage-source branches).
    pub fn dim(&self) -> usize {
        self.rows.len()
    }

    /// Number of potentially-nonzero cells.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// The sorted columns that may hold a nonzero in row `r`.
    pub fn row(&self, r: usize) -> &[usize] {
        &self.rows[r]
    }

    /// Maximum row↔column matching via Kuhn's augmenting-path algorithm;
    /// returns `col_match` (`col_match[c]` = row matched to column `c`)
    /// plus the rows left unmatched. The matching is empty-deficit iff the
    /// pattern has full structural rank, and doubles as the transversal
    /// (diagonal-securing row permutation) of the sparse factorization.
    pub(crate) fn matching(&self) -> (Vec<Option<usize>>, Vec<usize>) {
        let n = self.dim();
        let mut col_match: Vec<Option<usize>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut unmatched = Vec::new();
        // Seed with diagonal entries before augmenting. Node rows always
        // carry their gmin-floored diagonal, which is numerically nonzero
        // in *every* solve regime — whereas an arbitrary maximum matching
        // may route a node row through a capacitor-only entry, a pivot
        // that is exactly zero in DC (the transient pattern is a superset
        // of DC; see `build_transient`). Seeding changes only which
        // maximum matching is found, never its size, so the lint sprank
        // verdict is unaffected.
        for (r, cm) in col_match.iter_mut().enumerate() {
            if self.rows[r].binary_search(&r).is_ok() {
                *cm = Some(r);
            }
        }
        for r in 0..n {
            if col_match[r] == Some(r) {
                continue;
            }
            visited.fill(false);
            if !self.augment(r, &mut visited, &mut col_match) {
                unmatched.push(r);
            }
        }
        (col_match, unmatched)
    }

    /// Rows no maximum matching can cover (empty iff the pattern has full
    /// structural rank). A non-empty result proves every matrix with
    /// support inside the pattern is singular in exact arithmetic.
    pub fn unmatched_rows(&self) -> Vec<usize> {
        self.matching().1
    }

    fn augment(&self, r: usize, visited: &mut [bool], col_match: &mut [Option<usize>]) -> bool {
        for &c in &self.rows[r] {
            if visited[c] {
                continue;
            }
            visited[c] = true;
            if col_match[c].is_none()
                || self.augment(
                    match col_match[c] {
                        Some(prev) => prev,
                        None => unreachable!("guarded by is_none"),
                    },
                    visited,
                    col_match,
                )
            {
                col_match[c] = Some(r);
                return true;
            }
        }
        false
    }
}

/// A cheap structural fingerprint of a circuit: element kinds and terminal
/// indices (FNV-1a), *excluding every parameter value*. Two circuits share
/// a key exactly when they produce the same stamp pattern and unknown
/// layout, so a symbolic factorization cached under this key stays valid
/// across resistance sweeps, source-waveform changes and Monte Carlo
/// parameter fluctuation — the invariance the whole caching scheme rests
/// on. (Value-dependent stamping guards such as the `c > 0` companion
/// check only ever *skip* writes, which a superset pattern tolerates.)
pub fn topology_key(ckt: &Circuit) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    eat(ckt.node_count() as u64);
    for e in ckt.elements() {
        match e {
            Element::Resistor { a, b, .. } => {
                eat(1);
                eat(a.index() as u64);
                eat(b.index() as u64);
            }
            Element::Capacitor { a, b, .. } => {
                eat(2);
                eat(a.index() as u64);
                eat(b.index() as u64);
            }
            Element::Vsource { p, n, .. } => {
                eat(3);
                eat(p.index() as u64);
                eat(n.index() as u64);
            }
            Element::Isource { p, n, .. } => {
                eat(4);
                eat(p.index() as u64);
                eat(n.index() as u64);
            }
            Element::Mosfet(m) => {
                eat(5);
                eat(match m.kind {
                    crate::elements::MosType::Nmos => 0,
                    crate::elements::MosType::Pmos => 1,
                });
                eat(m.d.index() as u64);
                eat(m.g.index() as u64);
                eat(m.s.index() as u64);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::elements::{MosType, Mosfet, MosfetParams, Waveform};

    fn mos(d: NodeId, g: NodeId, s: NodeId) -> Mosfet {
        Mosfet {
            kind: MosType::Nmos,
            d,
            g,
            s,
            params: MosfetParams {
                vt0: 0.4,
                kp: 170e-6,
                lambda: 0.05,
                w: 1e-6,
                l: 0.18e-6,
                cgs: 1e-15,
                cgd: 1e-15,
                cdb: 1e-15,
            },
        }
    }

    #[test]
    fn transient_pattern_is_superset_of_dc() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource(vdd, Circuit::GROUND, Waveform::dc(1.8));
        ckt.resistor(vdd, a, 1e3);
        ckt.capacitor(a, b, 1e-15);
        ckt.add_mosfet(mos(b, a, Circuit::GROUND));
        let dc = StampPattern::build_dc(&ckt);
        let tr = StampPattern::build_transient(&ckt);
        assert_eq!(dc.dim(), tr.dim());
        for r in 0..dc.dim() {
            for c in dc.row(r) {
                assert!(tr.row(r).contains(c), "({r},{c}) missing from transient");
            }
        }
        // The cap block (a,b) appears only in the transient pattern.
        let (ia, ib) = (a.index() - 1, b.index() - 1);
        assert!(!dc.row(ia).contains(&ib));
        assert!(tr.row(ia).contains(&ib));
    }

    #[test]
    fn rows_are_sorted_and_unique() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource(a, Circuit::GROUND, Waveform::dc(1.0));
        ckt.resistor(a, b, 1e3);
        ckt.resistor(a, b, 2e3); // duplicate block must dedupe
        let p = StampPattern::build_transient(&ckt);
        for r in 0..p.dim() {
            let row = p.row(r);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row {r} not strict");
        }
    }

    #[test]
    fn topology_key_ignores_values_but_sees_structure() {
        let mut a = Circuit::new();
        let n1 = a.node("x");
        a.vsource(n1, Circuit::GROUND, Waveform::dc(1.0));
        let r = a.resistor(n1, Circuit::GROUND, 1e3);
        let mut b = a.clone();
        let k_a = topology_key(&a);
        // Value change: same key.
        b.set_resistance(r, 9e9).unwrap();
        assert_eq!(k_a, topology_key(&b));
        // Structural change: different key.
        let mut c = a.clone();
        c.resistor(n1, Circuit::GROUND, 1e3);
        assert_ne!(k_a, topology_key(&c));
    }
}
