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
use crate::solver::workspace::{SparseScratch, SysScratch};
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

/// Books the end of one dense Newton solve on the per-run recorder: the
/// iteration spend and the iterations-per-solve histogram.
fn dense_solve_done(rec: &Recorder, iters: u64) {
    rec.add(Counter::DenseIterations, iters);
    rec.newton_solve_done(iters);
}

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
        scratch.newton.clear();
        scratch.newton.resize(nu, 0.0);
        // The companion-conductance cache is keyed by step size only; a
        // rebuilt system may describe a different circuit, so drop it.
        scratch.cap_geq_key = None;
        // Engine decision (and symbolic-cache validation) for this system.
        {
            let SysScratch {
                sparse, recorder, ..
            } = &mut *scratch;
            sparse.prepare(ckt, nu, recorder);
        }
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

    /// MNA row/column of a node, or `None` for ground.
    #[inline]
    fn var(node: NodeId) -> Option<usize> {
        dense_var(node)
    }

    #[inline]
    fn volt(x: &[f64], node: NodeId) -> f64 {
        match Self::var(node) {
            Some(i) => x[i],
            None => 0.0,
        }
    }

    #[inline]
    fn stamp_g(&mut self, a: NodeId, b: NodeId, g: f64) {
        dense_stamp_g(&mut self.scratch.matrix, a, b, g);
    }

    /// Injects current `i` into node `into` and removes it from `from`.
    #[inline]
    fn stamp_i(&mut self, into: NodeId, from: NodeId, i: f64) {
        dense_stamp_i(&mut self.scratch.rhs, into, from, i);
    }

    /// Hoists every value that is constant across the Newton iterations of
    /// one solve call: `1/R` per resistor, the scaled source values at time
    /// `t`, and the capacitor companion pairs `(geq, ieq)` in stamping
    /// order. `geq` additionally survives *across* solve calls while the
    /// step size and method are unchanged (`cap_geq_key`), so the `c/h`
    /// divisions are paid once per step-size change, not once per
    /// iteration.
    ///
    /// Every value is computed by the same expression as the baseline
    /// assembly, so [`System::assemble_fast`] stamps bit-identical numbers
    /// in the identical order.
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

    /// Assembles the linearized system about candidate solution `x`, using
    /// the values hoisted by [`System::hoist_step_values`] for everything
    /// that does not depend on `x`. Stamp order and stamped values are
    /// bit-identical to [`System::assemble_baseline`] (asserted by the
    /// `workspace_equivalence` property tests and the transient baseline
    /// cross-checks); only where the constants are computed differs.
    fn assemble_fast(&mut self, x: &[f64], dynamic: bool, gmin: f64) -> Result<(), Error> {
        self.scratch.matrix.clear();
        self.scratch.rhs.fill(0.0);

        let g_floor = GMIN_FLOOR + gmin;
        for n in 0..self.nn {
            self.scratch.matrix.add(n, n, g_floor);
        }

        let mut cap_idx = 0usize;
        for (ei, e) in self.ckt.elements().iter().enumerate() {
            match e {
                Element::Resistor { a, b, .. } => {
                    let g = self.scratch.elem_val[ei];
                    self.stamp_g(*a, *b, g);
                }
                Element::Capacitor { a, b, .. } => {
                    if dynamic {
                        let geq = self.scratch.cap_geq[cap_idx];
                        let ieq = self.scratch.cap_ieq[cap_idx];
                        self.stamp_g(*a, *b, geq);
                        self.stamp_i(*a, *b, ieq);
                    }
                    cap_idx += 1;
                }
                Element::Vsource { p, n, .. } => {
                    let br = branch_var(&self.scratch.branch_index, ei)?;
                    if let Some(i) = Self::var(*p) {
                        self.scratch.matrix.add(i, br, 1.0);
                        self.scratch.matrix.add(br, i, 1.0);
                    }
                    if let Some(j) = Self::var(*n) {
                        self.scratch.matrix.add(j, br, -1.0);
                        self.scratch.matrix.add(br, j, -1.0);
                    }
                    self.scratch.rhs[br] = self.scratch.elem_val[ei];
                }
                Element::Isource { p, n, .. } => {
                    let i = self.scratch.elem_val[ei];
                    self.stamp_i(*p, *n, i);
                }
                Element::Mosfet(m) => {
                    self.stamp_mosfet(m, x);
                    if dynamic {
                        let caps = [
                            (m.g, m.s, m.params.cgs),
                            (m.g, m.d, m.params.cgd),
                            (m.d, mos_bulk(m), m.params.cdb),
                        ];
                        for (k, (a, b, c)) in caps.into_iter().enumerate() {
                            if c > 0.0 {
                                let geq = self.scratch.cap_geq[cap_idx + k];
                                let ieq = self.scratch.cap_ieq[cap_idx + k];
                                self.stamp_g(a, b, geq);
                                self.stamp_i(a, b, ieq);
                            }
                        }
                    }
                    cap_idx += MOS_CAPS;
                }
            }
        }
        Ok(())
    }

    /// Assembles the linearized system about candidate solution `x` at time
    /// `t`, using `cap_states`/`dt` for the dynamic companions (DC analysis
    /// passes `None` which opens all capacitors), `src_scale` for source
    /// stepping and `gmin` for gmin stepping.
    ///
    /// This is the pre-workspace assembly, preserved verbatim for the
    /// benchmark baseline engine: every companion pair and source value is
    /// recomputed inside each Newton iteration. The live engine runs
    /// [`System::hoist_step_values`] + [`System::assemble_fast`] instead.
    #[allow(clippy::too_many_arguments)]
    fn assemble_baseline(
        &mut self,
        x: &[f64],
        t: f64,
        dynamics: Option<(&[CapState], f64, Method)>,
        src_scale: f64,
        gmin: f64,
    ) -> Result<(), Error> {
        self.scratch.matrix.clear();
        self.scratch.rhs.fill(0.0);

        let g_floor = GMIN_FLOOR + gmin;
        for n in 0..self.nn {
            self.scratch.matrix.add(n, n, g_floor);
        }

        let mut cap_idx = 0usize;
        for (ei, e) in self.ckt.elements().iter().enumerate() {
            match e {
                Element::Resistor { a, b, ohms } => {
                    self.stamp_g(*a, *b, 1.0 / ohms);
                }
                Element::Capacitor { a, b, farads } => {
                    if let Some((states, h, method)) = dynamics {
                        let st = states[cap_idx];
                        let (geq, ieq) = companion(*farads, h, method, st);
                        self.stamp_g(*a, *b, geq);
                        // ieq models the history: a current source pushing
                        // ieq into node a (and out of b).
                        self.stamp_i(*a, *b, ieq);
                    }
                    cap_idx += 1;
                }
                Element::Vsource { p, n, wave } => {
                    let br = branch_var(&self.scratch.branch_index, ei)?;
                    if let Some(i) = Self::var(*p) {
                        self.scratch.matrix.add(i, br, 1.0);
                        self.scratch.matrix.add(br, i, 1.0);
                    }
                    if let Some(j) = Self::var(*n) {
                        self.scratch.matrix.add(j, br, -1.0);
                        self.scratch.matrix.add(br, j, -1.0);
                    }
                    self.scratch.rhs[br] = src_scale * wave.value_at(t);
                }
                Element::Isource { p, n, wave } => {
                    self.stamp_i(*p, *n, src_scale * wave.value_at(t));
                }
                Element::Mosfet(m) => {
                    self.stamp_mosfet(m, x);
                    // Lumped device capacitances as dynamic companions.
                    if let Some((states, h, method)) = dynamics {
                        let caps = [
                            (m.g, m.s, m.params.cgs),
                            (m.g, m.d, m.params.cgd),
                            (m.d, mos_bulk(m), m.params.cdb),
                        ];
                        for (k, (a, b, c)) in caps.into_iter().enumerate() {
                            if c > 0.0 {
                                let st = states[cap_idx + k];
                                let (geq, ieq) = companion(c, h, method, st);
                                self.stamp_g(a, b, geq);
                                self.stamp_i(a, b, ieq);
                            }
                        }
                    }
                    cap_idx += MOS_CAPS;
                }
            }
        }
        Ok(())
    }

    fn stamp_mosfet(&mut self, m: &Mosfet, x: &[f64]) {
        dense_stamp_mosfet(&mut self.scratch.matrix, &mut self.scratch.rhs, m, x);
    }

    /// Newton–Raphson loop. `x` holds the initial guess and, on success,
    /// the solution.
    ///
    /// Every iteration applies the clamped update and then tests it: the
    /// solve is accepted once no node update was clamped and each is
    /// within `VNTOL + RELTOL·|x|`. That holds for the first iteration
    /// too, so a good initial guess (a converged DC point, the transient
    /// predictor) costs one assembly and one LU solve.
    ///
    /// Routing: when the workspace's sparse engine is engaged (see
    /// [`SparseScratch::prepare`]) the solve runs the sparse Newton loop;
    /// a numeric pivot failure there falls back to the dense loop, which
    /// also serves every below-crossover and force-dense solve with
    /// arithmetic bit-identical to the pre-sparse engine.
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
        if self.scratch.sparse.active {
            self.scratch.sparse.x_save.clear();
            self.scratch.sparse.x_save.extend_from_slice(x);
            match self.try_newton_sparse(x, t, dynamics, gmin, max_iter, context) {
                Some(Ok(())) => return Ok(()),
                // Vanishing numeric pivot (None) or Newton non-convergence
                // (Some(Err)): restore the initial guess and re-run this
                // solve on the dense partial-pivot engine. Pivoting is
                // sturdier on badly scaled systems (mΩ wire shorts next to
                // gmin floors), and on a genuinely singular matrix the
                // dense engine reproduces the baseline SingularMatrix
                // error exactly. The solver can therefore never be *less*
                // robust than the dense baseline, only faster.
                Some(Err(_)) | None => {
                    let SysScratch {
                        sparse, recorder, ..
                    } = &mut *self.scratch;
                    x.copy_from_slice(&sparse.x_save);
                    recorder.add(Counter::DenseFallbacks, 1);
                }
            }
        }
        self.scratch.recorder.add(Counter::DenseSolves, 1);
        let mut iters: u64 = 0;
        for _ in 0..max_iter {
            iters += 1;
            if let Err(e) = self.assemble_fast(x, dynamics.is_some(), gmin) {
                dense_solve_done(&self.scratch.recorder, iters);
                return Err(e);
            }
            // Split-borrow the scratch so the hoisted Newton vector can be
            // solved against the matrix without re-allocating per call.
            let SysScratch {
                matrix,
                rhs,
                newton,
                recorder,
                ..
            } = &mut *self.scratch;
            newton.copy_from_slice(rhs);
            if let Err(e) = matrix.solve_in_place(newton) {
                dense_solve_done(recorder, iters);
                return Err(e);
            }

            // Damped update + convergence test on node voltages.
            let mut converged = true;
            for i in 0..self.nu {
                let mut delta = newton[i] - x[i];
                if i < self.nn {
                    if delta > VSTEP_LIMIT {
                        delta = VSTEP_LIMIT;
                        converged = false;
                    } else if delta < -VSTEP_LIMIT {
                        delta = -VSTEP_LIMIT;
                        converged = false;
                    }
                    if delta.abs() > VNTOL + RELTOL * x[i].abs() {
                        converged = false;
                    }
                }
                x[i] += delta;
            }
            if converged {
                dense_solve_done(recorder, iters);
                return Ok(());
            }
        }
        dense_solve_done(&self.scratch.recorder, iters);
        Err(Error::NoConvergence {
            context,
            iterations: max_iter,
            time: t,
        })
    }

    /// The sparse Newton loop, in delta form: each iteration assembles
    /// `A(x)` and `b(x)` over the stamp pattern (cheap, O(nnz)), forms the
    /// residual `r = b − A·x`, refactors `LU = A(x)` and takes the exact
    /// Newton step `x += clamp(LU⁻¹·r)`.
    ///
    /// Returns `None` when a numeric pivot vanishes, in which case the
    /// caller reruns the solve on the dense partial-pivot engine.
    fn try_newton_sparse(
        &mut self,
        x: &mut [f64],
        t: f64,
        dynamics: Option<(&[CapState], f64, Method)>,
        gmin: f64,
        max_iter: usize,
        context: &'static str,
    ) -> Option<Result<(), Error>> {
        self.scratch.recorder.add(Counter::SparseSolves, 1);
        let nn = self.nn;
        let nu = self.nu;
        let dyn_on = dynamics.is_some();
        for iter in 0..max_iter {
            if let Err(e) = self.assemble_sparse(x, dyn_on, gmin) {
                return Some(Err(e));
            }
            let SysScratch {
                rhs,
                sparse,
                recorder,
                ..
            } = &mut *self.scratch;
            let SparseScratch {
                symbolic,
                a_vals,
                lu_vals,
                w,
                y,
                resid,
                delta,
                ..
            } = sparse;
            let sym = match symbolic.as_deref() {
                Some(s) => s,
                None => unreachable!("sparse engine active without a symbolic object"),
            };
            sym.residual(a_vals, x, rhs, resid);
            {
                let _span = recorder.span(Phase::NumericRefactorize);
                recorder.add(Counter::NumericFactorizations, 1);
                if sym.factor(a_vals, lu_vals, w).is_err() {
                    recorder.add(Counter::NewtonIterations, iter as u64 + 1);
                    return None;
                }
            }
            delta.clear();
            delta.resize(nu, 0.0);
            sym.solve(lu_vals, resid, delta, y);

            // Damped update + convergence test, same semantics as the
            // dense loop (whose delta is `A⁻¹b − x`, identical to `A⁻¹r`).
            let mut converged = true;
            for i in 0..nu {
                let mut d = delta[i];
                if i < nn {
                    if d > VSTEP_LIMIT {
                        d = VSTEP_LIMIT;
                        converged = false;
                    } else if d < -VSTEP_LIMIT {
                        d = -VSTEP_LIMIT;
                        converged = false;
                    }
                    if d.abs() > VNTOL + RELTOL * x[i].abs() {
                        converged = false;
                    }
                }
                x[i] += d;
            }
            if converged {
                recorder.newton_solve_done(iter as u64 + 1);
                return Some(Ok(()));
            }
        }
        self.scratch.recorder.newton_solve_done(max_iter as u64);
        Some(Err(Error::NoConvergence {
            context,
            iterations: max_iter,
            time: t,
        }))
    }

    /// Sparse counterpart of [`System::assemble_fast`]: identical element
    /// traversal and stamp values (from the same hoisted buffers), writing
    /// into the pattern-compressed value array instead of the dense
    /// matrix. Kept as a separate copy so the dense assembly stays
    /// untouched — and bit-identical to baseline.
    fn assemble_sparse(&mut self, x: &[f64], dynamic: bool, gmin: f64) -> Result<(), Error> {
        let ckt = self.ckt;
        let nn = self.nn;
        let SysScratch {
            rhs,
            branch_index,
            elem_val,
            cap_geq,
            cap_ieq,
            sparse,
            ..
        } = &mut *self.scratch;
        let SparseScratch {
            symbolic, a_vals, ..
        } = sparse;
        let sym = match symbolic.as_deref() {
            Some(s) => s,
            None => unreachable!("sparse assembly without a symbolic object"),
        };
        sym.clear_values(a_vals);
        rhs.fill(0.0);

        let g_floor = GMIN_FLOOR + gmin;
        for n in 0..nn {
            sym.add(a_vals, n, n, g_floor);
        }

        let mut cap_idx = 0usize;
        for (ei, e) in ckt.elements().iter().enumerate() {
            match e {
                Element::Resistor { a, b, .. } => {
                    sparse_stamp_g(sym, a_vals, *a, *b, elem_val[ei]);
                }
                Element::Capacitor { a, b, .. } => {
                    if dynamic {
                        sparse_stamp_g(sym, a_vals, *a, *b, cap_geq[cap_idx]);
                        sparse_stamp_i(rhs, *a, *b, cap_ieq[cap_idx]);
                    }
                    cap_idx += 1;
                }
                Element::Vsource { p, n, .. } => {
                    let br = branch_var(branch_index, ei)?;
                    if let Some(i) = Self::var(*p) {
                        sym.add(a_vals, i, br, 1.0);
                        sym.add(a_vals, br, i, 1.0);
                    }
                    if let Some(j) = Self::var(*n) {
                        sym.add(a_vals, j, br, -1.0);
                        sym.add(a_vals, br, j, -1.0);
                    }
                    rhs[br] = elem_val[ei];
                }
                Element::Isource { p, n, .. } => {
                    sparse_stamp_i(rhs, *p, *n, elem_val[ei]);
                }
                Element::Mosfet(m) => {
                    sparse_stamp_mosfet(sym, a_vals, rhs, m, x);
                    if dynamic {
                        let caps = [
                            (m.g, m.s, m.params.cgs),
                            (m.g, m.d, m.params.cgd),
                            (m.d, mos_bulk(m), m.params.cdb),
                        ];
                        for (k, (a, b, c)) in caps.into_iter().enumerate() {
                            if c > 0.0 {
                                sparse_stamp_g(sym, a_vals, a, b, cap_geq[cap_idx + k]);
                                sparse_stamp_i(rhs, a, b, cap_ieq[cap_idx + k]);
                            }
                        }
                    }
                    cap_idx += MOS_CAPS;
                }
            }
        }
        Ok(())
    }

    /// The pre-workspace Newton kernel, preserved verbatim for the
    /// benchmark baseline engine: allocates its update vector per call and
    /// runs the preserved scalar LU. Numerically identical to
    /// [`System::solve_newton`] (asserted bitwise by the transient-engine
    /// baseline tests); only the allocation behavior and inner-loop code
    /// generation differ.
    #[allow(clippy::too_many_arguments)] // mirrors solve_newton
    pub fn solve_newton_baseline(
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
        let mut xnew = vec![0.0; self.nu];
        for _ in 0..max_iter {
            self.assemble_baseline(x, t, dynamics, src_scale, gmin)?;
            xnew.copy_from_slice(&self.scratch.rhs);
            self.scratch.matrix.solve_in_place_baseline(&mut xnew)?;

            let mut converged = true;
            for i in 0..self.nu {
                let mut delta = xnew[i] - x[i];
                if i < self.nn {
                    if delta > VSTEP_LIMIT {
                        delta = VSTEP_LIMIT;
                        converged = false;
                    } else if delta < -VSTEP_LIMIT {
                        delta = -VSTEP_LIMIT;
                        converged = false;
                    }
                    if delta.abs() > VNTOL + RELTOL * x[i].abs() {
                        converged = false;
                    }
                }
                x[i] += delta;
            }
            if converged {
                return Ok(());
            }
        }
        Err(Error::NoConvergence {
            context,
            iterations: max_iter,
            time: t,
        })
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
        Self::volt(x, node)
    }
}

/// Sparse twin of [`System::stamp_g`]: a conductance block between `a`
/// and `b`, accumulated into the pattern-compressed values.
#[inline]
fn sparse_stamp_g(sym: &SymbolicLu, vals: &mut [f64], a: NodeId, b: NodeId, g: f64) {
    let ia = System::var(a);
    let ib = System::var(b);
    if let Some(i) = ia {
        sym.add(vals, i, i, g);
    }
    if let Some(j) = ib {
        sym.add(vals, j, j, g);
    }
    if let (Some(i), Some(j)) = (ia, ib) {
        sym.add(vals, i, j, -g);
        sym.add(vals, j, i, -g);
    }
}

/// Sparse twin of [`System::stamp_i`]: injects current `i` into node
/// `into` and removes it from `from` (RHS only).
#[inline]
fn sparse_stamp_i(rhs: &mut [f64], into: NodeId, from: NodeId, i: f64) {
    if let Some(r) = System::var(into) {
        rhs[r] += i;
    }
    if let Some(r) = System::var(from) {
        rhs[r] -= i;
    }
}

/// Sparse twin of [`System::stamp_mosfet`]: same linearization, same
/// effective-terminal handling, writing through the stamp pattern.
fn sparse_stamp_mosfet(sym: &SymbolicLu, vals: &mut [f64], rhs: &mut [f64], m: &Mosfet, x: &[f64]) {
    let vd = System::volt(x, m.d);
    let vg = System::volt(x, m.g);
    let vs = System::volt(x, m.s);
    let lin = linearize(m, vd, vg, vs);

    let (deff, seff) = if lin.swapped { (m.s, m.d) } else { (m.d, m.s) };
    let id_ = System::var(deff);
    let is_ = System::var(seff);
    let ig_ = System::var(m.g);

    if let Some(r) = id_ {
        if let Some(c) = ig_ {
            sym.add(vals, r, c, lin.gm);
        }
        sym.add(vals, r, r, lin.gds);
        if let Some(c) = is_ {
            sym.add(vals, r, c, -(lin.gm + lin.gds));
        }
    }
    if let Some(r) = is_ {
        if let Some(c) = ig_ {
            sym.add(vals, r, c, -lin.gm);
        }
        if let Some(c) = id_ {
            sym.add(vals, r, c, -lin.gds);
        }
        sym.add(vals, r, r, lin.gm + lin.gds);
    }

    let vgs_eff = vg - System::volt(x, seff);
    let vds_eff = System::volt(x, deff) - System::volt(x, seff);
    let ieq = lin.i - lin.gm * vgs_eff - lin.gds * vds_eff;
    sparse_stamp_i(rhs, seff, deff, ieq);
}

/// MNA row/column of a node, or `None` for ground. Free-function twin of
/// [`System::var`] for the dense stamp helpers below.
#[inline]
fn dense_var(node: NodeId) -> Option<usize> {
    if node.is_ground() {
        None
    } else {
        Some(node.index() - 1)
    }
}

/// Node voltage under the MNA unknown ordering (ground reads 0).
#[inline]
fn dense_volt(x: &[f64], node: NodeId) -> f64 {
    match dense_var(node) {
        Some(i) => x[i],
        None => 0.0,
    }
}

/// Stamps conductance `g` between `a` and `b` into the dense matrix.
#[inline]
fn dense_stamp_g(matrix: &mut DenseMatrix, a: NodeId, b: NodeId, g: f64) {
    let ia = dense_var(a);
    let ib = dense_var(b);
    if let Some(i) = ia {
        matrix.add(i, i, g);
    }
    if let Some(j) = ib {
        matrix.add(j, j, g);
    }
    if let (Some(i), Some(j)) = (ia, ib) {
        matrix.add(i, j, -g);
        matrix.add(j, i, -g);
    }
}

/// Injects current `i` into node `into` and removes it from `from`.
#[inline]
fn dense_stamp_i(rhs: &mut [f64], into: NodeId, from: NodeId, i: f64) {
    if let Some(r) = dense_var(into) {
        rhs[r] += i;
    }
    if let Some(r) = dense_var(from) {
        rhs[r] -= i;
    }
}

/// Linearizes and stamps one MOSFET about candidate solution `x`.
fn dense_stamp_mosfet(matrix: &mut DenseMatrix, rhs: &mut [f64], m: &Mosfet, x: &[f64]) {
    let vd = dense_volt(x, m.d);
    let vg = dense_volt(x, m.g);
    let vs = dense_volt(x, m.s);
    let lin = linearize(m, vd, vg, vs);

    let (deff, seff) = if lin.swapped { (m.s, m.d) } else { (m.d, m.s) };
    let id_ = dense_var(deff);
    let is_ = dense_var(seff);
    let ig_ = dense_var(m.g);

    // i(deff→seff) ≈ ieq + gm·vg + gds·vdeff − (gm+gds)·vseff
    if let Some(r) = id_ {
        if let Some(c) = ig_ {
            matrix.add(r, c, lin.gm);
        }
        matrix.add(r, r, lin.gds);
        if let Some(c) = is_ {
            matrix.add(r, c, -(lin.gm + lin.gds));
        }
    }
    if let Some(r) = is_ {
        if let Some(c) = ig_ {
            matrix.add(r, c, -lin.gm);
        }
        if let Some(c) = id_ {
            matrix.add(r, c, -lin.gds);
        }
        matrix.add(r, r, lin.gm + lin.gds);
    }

    let vgs_eff = vg - dense_volt(x, seff);
    let vds_eff = dense_volt(x, deff) - dense_volt(x, seff);
    let ieq = lin.i - lin.gm * vgs_eff - lin.gds * vds_eff;
    // ieq leaves deff and enters seff.
    dense_stamp_i(rhs, seff, deff, ieq);
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
/// refreshed every solve) and, when `refresh` is set, `geq[idx]`
/// (step-size-dependent only). The expressions mirror [`companion`]
/// exactly, so the cached values are bit-identical to recomputing.
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
    fn clobbered_branch_index_is_a_typed_error_not_a_panic() {
        // A vsource whose branch-current slot has been wiped (malformed
        // element list / corrupted scratch) must surface Error::Internal
        // from every assembly path instead of panicking mid-campaign.
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
        assert!(matches!(err, Error::Internal { .. }), "fast path: {err:?}");

        let mut x = vec![0.0; sys.unknowns()];
        let err = sys
            .solve_newton_baseline(&mut x, 0.0, None, 1.0, 0.0, 50, "test")
            .unwrap_err();
        assert!(matches!(err, Error::Internal { .. }), "baseline: {err:?}");
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
}
