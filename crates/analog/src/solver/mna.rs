//! MNA assembly and Newton–Raphson solution of the (possibly nonlinear)
//! circuit equations at one time point.
//!
//! Unknown ordering: node voltages for nodes `1..node_count` (ground is
//! eliminated), followed by one branch current per voltage source in
//! element order.

use crate::circuit::{Circuit, NodeId};
use crate::elements::{Element, MosType, Mosfet, MosfetParams};
use crate::error::Error;
use crate::solver::matrix::DenseMatrix;
use crate::solver::sparse::SymbolicLu;
use crate::solver::workspace::{SparseScratch, Structure, SysScratch};
use pulsar_obs::{Counter, Phase, Recorder};

/// Absolute node-voltage convergence tolerance (V).
const VNTOL: f64 = 1e-6;
/// Relative convergence tolerance.
const RELTOL: f64 = 1e-4;
/// Per-iteration clamp on node-voltage updates (V); classic NR damping.
const VSTEP_LIMIT: f64 = 0.6;
/// Leakage conductance from every node to ground keeping matrices
/// well-posed even with all transistors cut off.
const GMIN_FLOOR: f64 = 1e-12;

/// Dynamic (companion-model) state of one capacitor.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CapState {
    /// Voltage across the capacitor at the previous accepted time point.
    pub v_prev: f64,
    /// Current through the capacitor at the previous accepted time point
    /// (used by the trapezoidal rule).
    pub i_prev: f64,
}

/// Integration method for the capacitor companion models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Method {
    /// Backward Euler: L-stable, first order. Used for DC-to-transient
    /// hand-off and right after waveform breakpoints.
    BackwardEuler,
    /// Trapezoidal: A-stable, second order. The default inside smooth
    /// intervals.
    Trapezoidal,
}

/// One assembled+solvable view of the circuit.
///
/// All heap storage lives in the borrowed [`SysScratch`], so constructing
/// a `System` against a warm workspace performs no allocation: `new` only
/// re-derives the symbolic stamp layout (branch-index map and matrix
/// dimension) into the existing buffers.
pub(crate) struct System<'c, 'w> {
    ckt: &'c Circuit,
    /// Number of node-voltage unknowns.
    nn: usize,
    /// Total unknowns (nodes + vsource branch currents).
    nu: usize,
    scratch: &'w mut SysScratch,
}

impl<'c, 'w> System<'c, 'w> {
    pub fn new(ckt: &'c Circuit, scratch: &'w mut SysScratch) -> Self {
        let nn = ckt.node_count() - 1;
        scratch.branch_index.clear();
        scratch.branch_index.resize(ckt.elements().len(), None);
        let mut next = nn;
        let mut ncaps = 0usize;
        for (i, e) in ckt.elements().iter().enumerate() {
            match e {
                Element::Vsource { .. } => {
                    scratch.branch_index[i] = Some(next);
                    next += 1;
                }
                Element::Capacitor { .. } => ncaps += 1,
                Element::Mosfet(_) => ncaps += MOS_CAPS,
                _ => {}
            }
        }
        scratch.cap_geq.clear();
        scratch.cap_geq.resize(ncaps, 0.0);
        scratch.cap_ieq.clear();
        scratch.cap_ieq.resize(ncaps, 0.0);
        let nu = next;
        scratch.matrix.reset(nu);
        scratch.rhs.clear();
        scratch.rhs.resize(nu, 0.0);
        scratch.delta.clear();
        scratch.delta.resize(nu, 0.0);
        // The companion-conductance cache is keyed by step size and method;
        // a rebuilt system may describe a different circuit, so drop it.
        scratch.cap_geq_key = None;
        // The topology's structure decides the engine. The dense matrix
        // plans over its pattern, also behind the sparse engine, which
        // falls back to it.
        let structure = scratch.structure_for(ckt, nu);
        scratch.matrix.use_structure(&structure);
        System {
            ckt,
            nn,
            nu,
            scratch,
        }
    }

    pub fn unknowns(&self) -> usize {
        self.nu
    }

    /// Hoists every value that is constant across the Newton iterations of
    /// one solve call: `1/R` per resistor, the scaled source values at time
    /// `t`, and the capacitor companion pairs `(geq, ieq)` in stamping
    /// order. `geq` additionally survives *across* solve calls while the
    /// step size and method are unchanged (`cap_geq_key`), so the `c/h`
    /// divisions are paid once per step-size change, not once per
    /// iteration.
    ///
    /// Every value is bit-identical to computing it from scratch (`1/R`,
    /// `src_scale·value_at(t)`, `companion(c, h, method, state)`), which
    /// the `hoisted_values_match_from_scratch` property test checks over
    /// call sequences that keep or change `(h, method)`.
    fn hoist_step_values(
        &mut self,
        t: f64,
        dynamics: Option<(&[CapState], f64, Method)>,
        src_scale: f64,
    ) {
        let ne = self.ckt.elements().len();
        self.scratch.elem_val.resize(ne, 0.0);
        let refresh_geq = if let Some((_, h, method)) = dynamics {
            let key = (h.to_bits(), method);
            let stale = self.scratch.cap_geq_key != Some(key);
            if stale {
                self.scratch.cap_geq_key = Some(key);
            }
            stale
        } else {
            false
        };
        let mut cap_idx = 0usize;
        for (ei, e) in self.ckt.elements().iter().enumerate() {
            match e {
                Element::Resistor { ohms, .. } => {
                    self.scratch.elem_val[ei] = 1.0 / ohms;
                }
                Element::Vsource { wave, .. } | Element::Isource { wave, .. } => {
                    self.scratch.elem_val[ei] = src_scale * wave.value_at(t);
                }
                Element::Capacitor { farads, .. } => {
                    if let Some((states, h, method)) = dynamics {
                        hoist_companion(
                            &mut self.scratch.cap_geq,
                            &mut self.scratch.cap_ieq,
                            cap_idx,
                            *farads,
                            h,
                            method,
                            states[cap_idx],
                            refresh_geq,
                        );
                    }
                    cap_idx += 1;
                }
                Element::Mosfet(m) => {
                    if let Some((states, h, method)) = dynamics {
                        for (k, c) in [m.params.cgs, m.params.cgd, m.params.cdb]
                            .into_iter()
                            .enumerate()
                        {
                            hoist_companion(
                                &mut self.scratch.cap_geq,
                                &mut self.scratch.cap_ieq,
                                cap_idx + k,
                                c,
                                h,
                                method,
                                states[cap_idx + k],
                                refresh_geq,
                            );
                        }
                    }
                    cap_idx += MOS_CAPS;
                }
            }
        }
    }

    /// Companion conductances from the last hoist, one per capacitive
    /// branch in stamping order; the transient engine shares them with its
    /// cap-state update so the `c/h` divisions are not repeated per point.
    pub fn cap_geq(&self) -> &[f64] {
        &self.scratch.cap_geq
    }

    /// Newton–Raphson solve. `x` holds the initial guess and, on success,
    /// the solution.
    ///
    /// Every iteration applies the clamped update and then tests it
    /// ([`damped_update`]): the solve is accepted once no node update was
    /// clamped and each is within `VNTOL + RELTOL·|x|`. That holds for the
    /// first iteration too, so a good initial guess (a converged DC point,
    /// the transient predictor) costs one assembly and one LU solve.
    ///
    /// Routing: when the topology's structure carries a sparse analysis
    /// (see [`Structure`]) the solve runs on the sparse engine; a numeric
    /// pivot failure or non-convergence there reruns the solve on the dense
    /// engine, which also serves every below-crossover solve. Both run the
    /// one loop, [`Newton::run`], monomorphised over the engine.
    #[allow(clippy::too_many_arguments)] // one call site per analysis
    pub fn solve_newton(
        &mut self,
        x: &mut [f64],
        t: f64,
        dynamics: Option<(&[CapState], f64, Method)>,
        src_scale: f64,
        gmin: f64,
        max_iter: usize,
        context: &'static str,
    ) -> Result<(), Error> {
        debug_assert_eq!(x.len(), self.nu);
        let _span = self.scratch.recorder.span(Phase::NewtonSolve);
        self.hoist_step_values(t, dynamics, src_scale);
        let SysScratch {
            matrix,
            rhs,
            delta,
            branch_index,
            elem_val,
            cap_geq,
            cap_ieq,
            structure,
            sparse,
            recorder,
            ..
        } = &mut *self.scratch;
        let newton = Newton {
            ckt: self.ckt,
            branch_index,
            elem_val,
            cap_geq,
            cap_ieq,
            nn: self.nn,
            dynamic: dynamics.is_some(),
            gmin,
            max_iter,
        };
        if let Some(sym) = structure.as_deref().and_then(Structure::symbolic) {
            sparse.x_save.clear();
            sparse.x_save.extend_from_slice(x);
            recorder.add(Counter::SparseSolves, 1);
            let engine = &mut SparseEngine {
                sym,
                s: sparse,
                rec: recorder,
            };
            let (iters, exit) = newton.run(engine, rhs, delta, x);
            match exit {
                Exit::Converged => {
                    recorder.newton_solve_done(iters);
                    return Ok(());
                }
                Exit::NoConvergence => recorder.newton_solve_done(iters),
                Exit::Solve(_) => recorder.add(Counter::NewtonIterations, iters),
                Exit::Assembly(_) => {}
            }
            // Vanishing numeric pivot or Newton non-convergence: restore
            // the initial guess and re-run this solve on the dense
            // partial-pivot engine. Pivoting is sturdier on badly scaled
            // systems (mΩ wire shorts next to gmin floors), and on a
            // genuinely singular matrix the dense engine reports the
            // SingularMatrix error. The solver is therefore never *less*
            // robust than the dense engine alone, only faster.
            x.copy_from_slice(&sparse.x_save);
            recorder.add(Counter::DenseFallbacks, 1);
        }
        recorder.add(Counter::DenseSolves, 1);
        let (iters, exit) = newton.run(matrix, rhs, delta, x);
        recorder.add(Counter::DenseIterations, iters);
        recorder.newton_solve_done(iters);
        match exit {
            Exit::Converged => Ok(()),
            Exit::NoConvergence => Err(Error::NoConvergence {
                context,
                iterations: max_iter,
                time: t,
            }),
            Exit::Assembly(e) | Exit::Solve(e) => Err(e),
        }
    }

    /// Collects the capacitive branches in stamping order into `out`,
    /// yielding `(node_a, node_b, farads)`.
    #[cfg(test)]
    pub fn cap_branches(&self) -> Vec<(NodeId, NodeId, f64)> {
        let mut out = Vec::new();
        collect_cap_branches(self.ckt, &mut out);
        out
    }

    pub fn node_voltage(x: &[f64], node: NodeId) -> f64 {
        volt(x, node)
    }
}

/// Applies one damped Newton update `x += clamp(delta)` and reports
/// convergence. Node-voltage updates (the first `nn` unknowns) are clamped
/// to `±VSTEP_LIMIT`; the update converges when none was clamped and each
/// is within `VNTOL + RELTOL·|x|` of the point it was taken from. Branch
/// currents move unclamped and untested, except that a non-finite update
/// anywhere never converges (every comparison with NaN is false, so the
/// tests above would pass it). The Newton loop accepts through here on
/// either engine, so the dense and sparse engines share one acceptance
/// rule.
#[inline]
fn damped_update(x: &mut [f64], delta: &[f64], nn: usize) -> bool {
    let mut converged = true;
    for (i, (xi, &d)) in x.iter_mut().zip(delta).enumerate() {
        let mut d = d;
        if !d.is_finite() {
            converged = false;
        }
        if i < nn {
            if d > VSTEP_LIMIT {
                d = VSTEP_LIMIT;
                converged = false;
            } else if d < -VSTEP_LIMIT {
                d = -VSTEP_LIMIT;
                converged = false;
            }
            if d.abs() > VNTOL + RELTOL * xi.abs() {
                converged = false;
            }
        }
        *xi += d;
    }
    converged
}

/// A linear engine of the Newton loop: where one assembly writes its
/// matrix entries, and how the Newton update is solved from them.
/// [`Newton::assemble`] and [`Newton::run`] are generic over it, so each
/// engine gets its own monomorphised copy of the one element traversal and
/// the one loop, with no runtime switch.
trait LinearEngine {
    /// Zeroes every entry before an assembly.
    fn clear(&mut self);
    /// Accumulates `v` into entry `(r, c)`.
    fn add(&mut self, r: usize, c: usize, v: f64);
    /// Solves the assembled system `A·x' = b` (`b` is `rhs`) for the
    /// Newton update `delta = x' − x`.
    fn solve_update(&mut self, rhs: &[f64], x: &[f64], delta: &mut [f64]) -> Result<(), Error>;
}

impl LinearEngine for DenseMatrix {
    #[inline]
    fn clear(&mut self) {
        DenseMatrix::clear(self);
    }

    #[inline]
    fn add(&mut self, r: usize, c: usize, v: f64) {
        DenseMatrix::add(self, r, c, v);
    }

    /// `A⁻¹b − x`, the subtraction taken element by element before any of
    /// `x` moves.
    #[inline]
    fn solve_update(&mut self, rhs: &[f64], x: &[f64], delta: &mut [f64]) -> Result<(), Error> {
        delta.copy_from_slice(rhs);
        self.solve_in_place(delta)?;
        for (d, &xi) in delta.iter_mut().zip(x) {
            *d -= xi;
        }
        Ok(())
    }
}

/// The sparse engine: the value arrays over `sym`'s stamp pattern and
/// filled factors, booking its refactorizations on `rec`.
struct SparseEngine<'a> {
    sym: &'a SymbolicLu,
    s: &'a mut SparseScratch,
    rec: &'a Recorder,
}

impl LinearEngine for SparseEngine<'_> {
    #[inline]
    fn clear(&mut self) {
        self.sym.clear_values(&mut self.s.a_vals);
    }

    #[inline]
    fn add(&mut self, r: usize, c: usize, v: f64) {
        self.sym.add(&mut self.s.a_vals, r, c, v);
    }

    /// Delta form: the residual `r = b − A·x`, a numeric refactorization
    /// `LU = A` (no per-iteration symbolic work) and `LU⁻¹·r`, the exact
    /// Newton step. A vanishing numeric pivot is a `SingularMatrix` error.
    #[inline]
    fn solve_update(&mut self, rhs: &[f64], x: &[f64], delta: &mut [f64]) -> Result<(), Error> {
        let rec = self.rec;
        let SparseScratch {
            a_vals,
            lu_vals,
            w,
            y,
            resid,
            ..
        } = &mut *self.s;
        self.sym.residual(a_vals, x, rhs, resid);
        {
            let _span = rec.span(Phase::NumericRefactorize);
            rec.add(Counter::NumericFactorizations, 1);
            self.sym
                .factor(a_vals, lu_vals, w)
                .map_err(|row| Error::SingularMatrix { row })?;
        }
        self.sym.solve(lu_vals, resid, delta, y);
        Ok(())
    }
}

/// How one engine's Newton loop ended.
enum Exit {
    Converged,
    /// `max_iter` iterations without convergence.
    NoConvergence,
    /// Assembly failed (broken branch bookkeeping).
    Assembly(Error),
    /// The linear solve failed (a singular matrix or, on the sparse
    /// engine, a vanishing numeric pivot).
    Solve(Error),
}

/// What one Newton solve reads besides its engine and candidate solution:
/// the element → branch-current map, the values
/// [`System::hoist_step_values`] left for this solve, and the solve's
/// settings.
struct Newton<'a> {
    ckt: &'a Circuit,
    branch_index: &'a [Option<usize>],
    elem_val: &'a [f64],
    cap_geq: &'a [f64],
    cap_ieq: &'a [f64],
    /// Node-voltage unknowns (the clamped, tested part of an update).
    nn: usize,
    /// Stamp the capacitor companions (a DC solve opens them).
    dynamic: bool,
    /// Added to the gmin floor, for gmin stepping.
    gmin: f64,
    max_iter: usize,
}

impl Newton<'_> {
    /// The Newton loop on `engine`: assemble about `x` into `engine` and
    /// `rhs`, solve for the update into `delta`, apply it. Returns the
    /// iterations run and how the loop ended; the caller books them.
    #[inline]
    fn run<E: LinearEngine>(
        &self,
        engine: &mut E,
        rhs: &mut [f64],
        delta: &mut [f64],
        x: &mut [f64],
    ) -> (u64, Exit) {
        for iter in 1..=self.max_iter as u64 {
            if let Err(e) = self.assemble(engine, rhs, x) {
                return (iter, Exit::Assembly(e));
            }
            if let Err(e) = engine.solve_update(rhs, x, delta) {
                return (iter, Exit::Solve(e));
            }
            if damped_update(x, delta, self.nn) {
                return (iter, Exit::Converged);
            }
        }
        (self.max_iter as u64, Exit::NoConvergence)
    }

    /// Assembles the linearized system about candidate solution `x` into
    /// `target` and `rhs`: the gmin floor on every node, then each element
    /// in order. Everything that does not depend on `x` was hoisted. Stamp
    /// order and values are the same for both engines.
    fn assemble<T: LinearEngine>(
        &self,
        target: &mut T,
        rhs: &mut [f64],
        x: &[f64],
    ) -> Result<(), Error> {
        let Newton {
            ckt,
            branch_index,
            elem_val,
            cap_geq,
            cap_ieq,
            dynamic,
            gmin,
            ..
        } = *self;
        target.clear();
        rhs.fill(0.0);

        let g_floor = GMIN_FLOOR + gmin;
        for n in 0..ckt.node_count() - 1 {
            target.add(n, n, g_floor);
        }

        let mut cap_idx = 0usize;
        for (ei, e) in ckt.elements().iter().enumerate() {
            match e {
                Element::Resistor { a, b, .. } => stamp_g(target, *a, *b, elem_val[ei]),
                Element::Capacitor { a, b, .. } => {
                    if dynamic {
                        stamp_g(target, *a, *b, cap_geq[cap_idx]);
                        // ieq models the history: a current source pushing
                        // ieq into node a (and out of b).
                        stamp_i(rhs, *a, *b, cap_ieq[cap_idx]);
                    }
                    cap_idx += 1;
                }
                Element::Vsource { p, n, .. } => {
                    let br = branch_var(branch_index, ei)?;
                    if let Some(i) = var(*p) {
                        target.add(i, br, 1.0);
                        target.add(br, i, 1.0);
                    }
                    if let Some(j) = var(*n) {
                        target.add(j, br, -1.0);
                        target.add(br, j, -1.0);
                    }
                    rhs[br] = elem_val[ei];
                }
                Element::Isource { p, n, .. } => stamp_i(rhs, *p, *n, elem_val[ei]),
                Element::Mosfet(m) => {
                    stamp_mosfet(target, rhs, m, x);
                    // Lumped device capacitances as dynamic companions.
                    if dynamic {
                        let caps = [
                            (m.g, m.s, m.params.cgs),
                            (m.g, m.d, m.params.cgd),
                            (m.d, mos_bulk(m), m.params.cdb),
                        ];
                        for (k, (a, b, c)) in caps.into_iter().enumerate() {
                            if c > 0.0 {
                                stamp_g(target, a, b, cap_geq[cap_idx + k]);
                                stamp_i(rhs, a, b, cap_ieq[cap_idx + k]);
                            }
                        }
                    }
                    cap_idx += MOS_CAPS;
                }
            }
        }
        Ok(())
    }
}

/// MNA row/column of a node, or `None` for ground.
#[inline]
fn var(node: NodeId) -> Option<usize> {
    if node.is_ground() {
        None
    } else {
        Some(node.index() - 1)
    }
}

/// Node voltage under the MNA unknown ordering (ground reads 0).
#[inline]
fn volt(x: &[f64], node: NodeId) -> f64 {
    match var(node) {
        Some(i) => x[i],
        None => 0.0,
    }
}

/// Stamps conductance `g` between `a` and `b`.
#[inline]
fn stamp_g<T: LinearEngine>(target: &mut T, a: NodeId, b: NodeId, g: f64) {
    let ia = var(a);
    let ib = var(b);
    if let Some(i) = ia {
        target.add(i, i, g);
    }
    if let Some(j) = ib {
        target.add(j, j, g);
    }
    if let (Some(i), Some(j)) = (ia, ib) {
        target.add(i, j, -g);
        target.add(j, i, -g);
    }
}

/// Injects current `i` into node `into` and removes it from `from`.
#[inline]
fn stamp_i(rhs: &mut [f64], into: NodeId, from: NodeId, i: f64) {
    if let Some(r) = var(into) {
        rhs[r] += i;
    }
    if let Some(r) = var(from) {
        rhs[r] -= i;
    }
}

/// Linearizes and stamps one MOSFET about candidate solution `x`.
fn stamp_mosfet<T: LinearEngine>(target: &mut T, rhs: &mut [f64], m: &Mosfet, x: &[f64]) {
    let vd = volt(x, m.d);
    let vg = volt(x, m.g);
    let vs = volt(x, m.s);
    let lin = linearize(m, vd, vg, vs);

    let (deff, seff) = if lin.swapped { (m.s, m.d) } else { (m.d, m.s) };
    let id_ = var(deff);
    let is_ = var(seff);
    let ig_ = var(m.g);

    // i(deff→seff) ≈ ieq + gm·vg + gds·vdeff − (gm+gds)·vseff
    if let Some(r) = id_ {
        if let Some(c) = ig_ {
            target.add(r, c, lin.gm);
        }
        target.add(r, r, lin.gds);
        if let Some(c) = is_ {
            target.add(r, c, -(lin.gm + lin.gds));
        }
    }
    if let Some(r) = is_ {
        if let Some(c) = ig_ {
            target.add(r, c, -lin.gm);
        }
        if let Some(c) = id_ {
            target.add(r, c, -lin.gds);
        }
        target.add(r, r, lin.gm + lin.gds);
    }

    let vgs_eff = vg - volt(x, seff);
    let vds_eff = volt(x, deff) - volt(x, seff);
    let ieq = lin.i - lin.gm * vgs_eff - lin.gds * vds_eff;
    // ieq leaves deff and enters seff.
    stamp_i(rhs, seff, deff, ieq);
}

/// Branch-current unknown of the voltage source at element index `ei`,
/// reported as a typed [`Error::Internal`] instead of a panic when the
/// bookkeeping is broken (malformed element list or corrupted scratch
/// state): one bad sample then journals as an ordinary failure instead of
/// unwinding past an entire Monte Carlo campaign.
#[inline]
fn branch_var(branch_index: &[Option<usize>], ei: usize) -> Result<usize, Error> {
    branch_index
        .get(ei)
        .copied()
        .flatten()
        .ok_or(Error::Internal {
            context: "vsource without a branch-current unknown during assembly",
        })
}

/// Collects capacitive branches in stamping order into `out` (cleared
/// first), yielding `(node_a, node_b, farads)`. Order is identical to the
/// `cap_idx` order used during assembly; the transient engine relies on
/// this to maintain its companion-state vector, and takes a caller-owned
/// buffer so a reused workspace performs no allocation here.
pub(crate) fn collect_cap_branches(ckt: &Circuit, out: &mut Vec<(NodeId, NodeId, f64)>) {
    out.clear();
    for e in ckt.elements() {
        match e {
            Element::Capacitor { a, b, farads } => out.push((*a, *b, *farads)),
            Element::Mosfet(m) => {
                out.push((m.g, m.s, m.params.cgs));
                out.push((m.g, m.d, m.params.cgd));
                out.push((m.d, mos_bulk(m), m.params.cdb));
            }
            _ => {}
        }
    }
}

/// Number of companion-model slots a MOSFET occupies (cgs, cgd, cdb).
const MOS_CAPS: usize = 3;

/// Bulk/junction reference node for `cdb`: ground for NMOS, the source for
/// PMOS (whose source normally sits at VDD). This keeps junction charge
/// referenced to the correct rail without an explicit bulk terminal.
pub(crate) fn mos_bulk(m: &Mosfet) -> NodeId {
    match m.kind {
        MosType::Nmos => Circuit::GROUND,
        MosType::Pmos => m.s,
    }
}

/// One hoisted companion pair: writes `ieq[idx]` (history-dependent,
/// refreshed every solve) and, when `refresh` is set, `geq[idx]` (a
/// function of the step size and method only). The expressions are the
/// textbook companion model's, so the cached values are bit-identical to
/// recomputing them.
#[allow(clippy::too_many_arguments)] // plain data plumbing, two call sites
fn hoist_companion(
    geq_v: &mut [f64],
    ieq_v: &mut [f64],
    idx: usize,
    c: f64,
    h: f64,
    method: Method,
    st: CapState,
    refresh: bool,
) {
    let geq = if refresh {
        let geq = match method {
            Method::BackwardEuler => c / h,
            Method::Trapezoidal => 2.0 * c / h,
        };
        geq_v[idx] = geq;
        geq
    } else {
        geq_v[idx]
    };
    ieq_v[idx] = match method {
        Method::BackwardEuler => geq * st.v_prev,
        Method::Trapezoidal => geq * st.v_prev + st.i_prev,
    };
}

/// Linearization of a MOSFET for stamping: current from the *effective*
/// drain to the *effective* source, with conductances w.r.t. the effective
/// gate-source / drain-source voltages.
#[derive(Debug, Clone, Copy)]
struct MosLin {
    /// Current flowing from the effective drain to the effective source.
    i: f64,
    gm: f64,
    gds: f64,
    /// True if the effective drain is the instance's `s` terminal.
    swapped: bool,
}

fn linearize(m: &Mosfet, vd: f64, vg: f64, vs: f64) -> MosLin {
    match m.kind {
        MosType::Nmos => linearize_n(vd, vg, vs, &m.params),
        MosType::Pmos => {
            // Mirror: evaluate the NMOS equations at negated voltages and
            // |vt0|; the current flips sign, the conductances carry over
            // (d/d(-v) of -f is +df/dv).
            let p = MosfetParams {
                vt0: -m.params.vt0,
                ..m.params
            };
            let lin = linearize_n(-vd, -vg, -vs, &p);
            MosLin { i: -lin.i, ..lin }
        }
    }
}

fn linearize_n(vd: f64, vg: f64, vs: f64, p: &MosfetParams) -> MosLin {
    let (vd_e, vs_e, swapped) = if vd >= vs {
        (vd, vs, false)
    } else {
        (vs, vd, true)
    };
    let vgs = vg - vs_e;
    let vds = vd_e - vs_e;
    let beta = p.kp * p.w / p.l;
    let vov = vgs - p.vt0;

    let (i, gm, gds) = if vov <= 0.0 {
        (0.0, 0.0, 0.0)
    } else if vds < vov {
        let clm = 1.0 + p.lambda * vds;
        (
            beta * (vov * vds - 0.5 * vds * vds) * clm,
            beta * vds * clm,
            beta * ((vov - vds) * clm + (vov * vds - 0.5 * vds * vds) * p.lambda),
        )
    } else {
        let clm = 1.0 + p.lambda * vds;
        (
            0.5 * beta * vov * vov * clm,
            beta * vov * clm,
            0.5 * beta * vov * vov * p.lambda,
        )
    };

    MosLin {
        i,
        gm,
        gds,
        swapped,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::elements::Waveform;
    use proptest::prelude::*;

    #[test]
    fn voltage_divider_dc() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource(a, Circuit::GROUND, Waveform::dc(2.0));
        ckt.resistor(a, b, 1e3);
        ckt.resistor(b, Circuit::GROUND, 1e3);

        let mut ws = SysScratch::default();
        let mut sys = System::new(&ckt, &mut ws);
        let mut x = vec![0.0; sys.unknowns()];
        sys.solve_newton(&mut x, 0.0, None, 1.0, 0.0, 50, "test")
            .unwrap();
        assert!((System::node_voltage(&x, a) - 2.0).abs() < 1e-9);
        assert!((System::node_voltage(&x, b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn non_finite_updates_never_converge() {
        // Two node voltages and one branch current; each update below
        // would pass the clamp and tolerance tests if it were finite.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in 0..3 {
                let mut x = vec![1.0, 0.5, 1e-3];
                let mut delta = vec![0.0; 3];
                delta[at] = bad;
                assert!(!damped_update(&mut x, &delta, 2), "{bad} at {at}");
            }
        }
        let mut x = vec![1.0, 0.5, 1e-3];
        assert!(damped_update(&mut x, &[1e-9, -1e-9, 5.0], 2));
    }

    #[test]
    fn clobbered_branch_index_is_a_typed_error_not_a_panic() {
        // A vsource whose branch-current slot has been wiped (malformed
        // element list / corrupted scratch) must surface Error::Internal
        // from both stamp targets instead of panicking mid-campaign.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource(a, Circuit::GROUND, Waveform::dc(2.0));
        ckt.resistor(a, b, 1e3);
        ckt.resistor(b, Circuit::GROUND, 1e3);

        let mut ws = SysScratch::default();
        let mut sys = System::new(&ckt, &mut ws);
        for slot in sys.scratch.branch_index.iter_mut() {
            *slot = None;
        }

        let mut x = vec![0.0; sys.unknowns()];
        let err = sys
            .solve_newton(&mut x, 0.0, None, 1.0, 0.0, 50, "test")
            .unwrap_err();
        assert!(matches!(err, Error::Internal { .. }), "dense: {err:?}");

        // The sparse assembly hits the same slot first, then its dense
        // fallback reports it.
        let mut ws = SysScratch {
            force_sparse: Some(true),
            ..SysScratch::default()
        };
        let mut sys = System::new(&ckt, &mut ws);
        assert!(sys
            .scratch
            .structure
            .as_deref()
            .and_then(Structure::symbolic)
            .is_some());
        for slot in sys.scratch.branch_index.iter_mut() {
            *slot = None;
        }
        let mut x = vec![0.0; sys.unknowns()];
        let err = sys
            .solve_newton(&mut x, 0.0, None, 1.0, 0.0, 50, "test")
            .unwrap_err();
        assert!(matches!(err, Error::Internal { .. }), "sparse: {err:?}");
    }

    #[test]
    fn branch_var_reports_truncated_table_too() {
        // Element index past the end of the table is the same invariant
        // violation as a cleared slot.
        assert!(matches!(branch_var(&[], 3), Err(Error::Internal { .. })));
        assert_eq!(branch_var(&[Some(7)], 0).unwrap(), 7);
    }

    #[test]
    fn isource_into_resistor() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.isource(a, Circuit::GROUND, Waveform::dc(1e-3));
        ckt.resistor(a, Circuit::GROUND, 1e3);

        let mut ws = SysScratch::default();
        let mut sys = System::new(&ckt, &mut ws);
        let mut x = vec![0.0; sys.unknowns()];
        sys.solve_newton(&mut x, 0.0, None, 1.0, 0.0, 50, "test")
            .unwrap();
        // 1 mA into 1 kΩ → 1 V
        assert!((System::node_voltage(&x, a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn floating_node_is_held_by_gmin_floor() {
        // A node connected only through a capacitor is floating in DC; the
        // gmin floor keeps the matrix solvable and parks it at 0 V.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource(a, Circuit::GROUND, Waveform::dc(1.0));
        ckt.capacitor(a, b, 1e-15);

        let mut ws = SysScratch::default();
        let mut sys = System::new(&ckt, &mut ws);
        let mut x = vec![0.0; sys.unknowns()];
        sys.solve_newton(&mut x, 0.0, None, 1.0, 0.0, 50, "test")
            .unwrap();
        assert!(System::node_voltage(&x, b).abs() < 1e-6);
    }

    #[test]
    fn nmos_pulldown_dc() {
        // NMOS with gate at VDD pulling a 10 kΩ-loaded node low.
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let out = ckt.node("out");
        ckt.vsource(vdd, Circuit::GROUND, Waveform::dc(1.8));
        ckt.resistor(vdd, out, 10e3);
        ckt.add_mosfet(Mosfet {
            kind: MosType::Nmos,
            d: out,
            g: vdd,
            s: Circuit::GROUND,
            params: MosfetParams {
                vt0: 0.4,
                kp: 170e-6,
                lambda: 0.05,
                w: 2e-6,
                l: 0.18e-6,
                cgs: 0.0,
                cgd: 0.0,
                cdb: 0.0,
            },
        });

        let mut ws = SysScratch::default();
        let mut sys = System::new(&ckt, &mut ws);
        let mut x = vec![0.0; sys.unknowns()];
        sys.solve_newton(&mut x, 0.0, None, 1.0, 0.0, 100, "test")
            .unwrap();
        let vout = System::node_voltage(&x, out);
        // Strong pulldown: output well below VDD/2, and KCL must hold:
        // resistor current equals transistor current.
        assert!(vout < 0.2, "expected strong pulldown, got {vout}");
        let ir = (1.8 - vout) / 10e3;
        let m = match ckt.elements().iter().find_map(|e| match e {
            Element::Mosfet(m) => Some(*m),
            _ => None,
        }) {
            Some(m) => m,
            None => unreachable!(),
        };
        let id = m.eval(vout, 1.8, 0.0).id;
        assert!((ir - id).abs() < 1e-6, "KCL violated: ir={ir:e}, id={id:e}");
    }

    #[test]
    fn cap_branch_order_matches_assembly() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.capacitor(a, Circuit::GROUND, 5e-15);
        ckt.add_mosfet(Mosfet {
            kind: MosType::Nmos,
            d: a,
            g: a,
            s: Circuit::GROUND,
            params: MosfetParams {
                vt0: 0.4,
                kp: 170e-6,
                lambda: 0.05,
                w: 1e-6,
                l: 0.18e-6,
                cgs: 1e-15,
                cgd: 2e-15,
                cdb: 3e-15,
            },
        });
        let mut ws = SysScratch::default();
        let sys = System::new(&ckt, &mut ws);
        let caps = sys.cap_branches();
        assert_eq!(caps.len(), 1 + MOS_CAPS);
        assert_eq!(caps[0].2, 5e-15);
        assert_eq!(caps[1].2, 1e-15); // cgs
        assert_eq!(caps[2].2, 2e-15); // cgd
        assert_eq!(caps[3].2, 3e-15); // cdb
    }

    /// The textbook companion model of capacitor `c` over a step `h`:
    /// the `(geq, ieq)` pair [`System::hoist_step_values`] must reproduce.
    fn companion(c: f64, h: f64, method: Method, st: CapState) -> (f64, f64) {
        match method {
            Method::BackwardEuler => {
                let geq = c / h;
                (geq, geq * st.v_prev)
            }
            Method::Trapezoidal => {
                let geq = 2.0 * c / h;
                (geq, geq * st.v_prev + st.i_prev)
            }
        }
    }

    /// One hoist call: time, step, method, and a seed for the states.
    type HoistCall = (f64, f64, bool, u64);

    proptest! {
        /// The hoisted values equal the same quantities computed from
        /// scratch, bit for bit, over call sequences whose `(h, method)`
        /// repeats (the cached `geq` is reused), changes only the method,
        /// changes only the step, or drops the dynamics (a DC solve).
        #[test]
        fn hoisted_values_match_from_scratch(
            ohms in 1.0f64..1e6,
            farads in 1e-16f64..1e-12,
            mos_c in prop::collection::vec(0.0f64..5e-15, 3..4),
            src_scale in 0.0f64..1.0,
            calls in prop::collection::vec(
                (0.0f64..3e-9, 1e-13f64..1e-11, any::<bool>(), 0u64..1000),
                1..12,
            ),
        ) {
            let mut ckt = Circuit::new();
            let a = ckt.node("a");
            let b = ckt.node("b");
            ckt.vsource(a, Circuit::GROUND, Waveform::single_pulse(0.0, 1.8, 0.5e-9, 50e-12, 50e-12, 1e-9));
            ckt.isource(b, Circuit::GROUND, Waveform::step(0.0, 1e-4, 1e-9, 20e-12));
            ckt.resistor(a, b, ohms);
            ckt.capacitor(b, Circuit::GROUND, farads);
            ckt.add_mosfet(Mosfet {
                kind: MosType::Pmos,
                d: b,
                g: a,
                s: a,
                params: MosfetParams {
                    vt0: -0.4,
                    kp: 60e-6,
                    lambda: 0.05,
                    w: 2e-6,
                    l: 0.18e-6,
                    cgs: mos_c[0],
                    cgd: mos_c[1],
                    cdb: mos_c[2],
                },
            });
            let mut ws = SysScratch::default();
            let mut sys = System::new(&ckt, &mut ws);
            let branches = sys.cap_branches();
            // Repeat each call with the same (h, method) and then with only
            // the method flipped, on top of the drawn sequence.
            let mut seq: Vec<(HoistCall, bool)> = Vec::new();
            for &(t, h, trap, seed) in &calls {
                seq.push(((t, h, trap, seed), true));
                seq.push(((t + h, h, trap, seed + 1), true));
                seq.push(((t + h, h, !trap, seed + 2), true));
                seq.push(((t, h, trap, seed + 3), seed % 4 != 0));
            }
            for ((t, h, trap, seed), dynamic) in seq {
                let method = if trap { Method::Trapezoidal } else { Method::BackwardEuler };
                let states: Vec<CapState> = (0..branches.len() as u64)
                    .map(|k| CapState {
                        v_prev: ((seed * 7 + k * 13) % 37) as f64 * 0.05 - 0.9,
                        i_prev: ((seed * 11 + k * 5) % 29) as f64 * 1e-6 - 1.4e-5,
                    })
                    .collect();
                let dynamics = dynamic.then_some((states.as_slice(), h, method));
                sys.hoist_step_values(t, dynamics, src_scale);
                for (ei, e) in ckt.elements().iter().enumerate() {
                    let want = match e {
                        Element::Resistor { ohms, .. } => 1.0 / ohms,
                        Element::Vsource { wave, .. } | Element::Isource { wave, .. } => {
                            src_scale * wave.value_at(t)
                        }
                        _ => continue,
                    };
                    prop_assert_eq!(sys.scratch.elem_val[ei].to_bits(), want.to_bits());
                }
                if dynamic {
                    for (k, &(_, _, c)) in branches.iter().enumerate() {
                        let (geq, ieq) = companion(c, h, method, states[k]);
                        prop_assert_eq!(sys.scratch.cap_geq[k].to_bits(), geq.to_bits(), "geq {}", k);
                        prop_assert_eq!(sys.scratch.cap_ieq[k].to_bits(), ieq.to_bits(), "ieq {}", k);
                    }
                }
            }
        }
    }
}
