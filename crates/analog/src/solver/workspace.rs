//! Reusable per-thread solver scratch memory.
//!
//! Every analysis in this crate solves the same MNA topology over and over:
//! a resistance sweep re-solves one circuit at dozens of operating points,
//! and a Monte Carlo study multiplies that by thousands of samples. A
//! [`SolverWorkspace`] owns every buffer those solves need — the MNA
//! matrix, RHS, Newton scratch, capacitor companion states, breakpoint
//! list and the transient double-buffers — and the [`Structure`] of the
//! topology it solves, so repeated solves reuse both the allocations and
//! the symbolic stamp layout instead of rebuilding them per call.
//!
//! Reuse is allocation-only: the arithmetic performed with a warm
//! workspace is bit-for-bit identical to a fresh one (asserted by the
//! `workspace_equivalence` property tests). The linear engine follows the
//! matrix dimension alone: dense below `SPARSE_CROSSOVER` unknowns,
//! sparse from it on (a different elimination order, so different
//! rounding; the `sparse_vs_dense` tests bound the drift).

use std::sync::Arc;

use crate::circuit::{Circuit, NodeId};
use crate::solver::matrix::DenseMatrix;
use crate::solver::mna::{CapState, Method};
use crate::solver::pattern::{topology_key, StampPattern};
use crate::solver::sparse::SymbolicLu;
use pulsar_obs::{CancelToken, Counter, Phase, Recorder};

/// Below this many MNA unknowns a system solves on the dense engine: the
/// dense LU replays a structural plan of the stamp pattern
/// (`matrix::LuPlan`), and for small matrices its linear memory layout
/// beats the sparse engine's indirection (measured in BENCH_pr4.json). The
/// paper-scale 7-gate path is 12 unknowns fault-free and 13 under an
/// external ROP (dense); a 32-stage inverter chain is 36 (sparse).
const SPARSE_CROSSOVER: usize = 24;

/// What one circuit topology fixes for every solve of it, built once and
/// shared through an `Arc` by every workspace that solves the topology
/// (see [`SymbolicCache`]).
#[derive(Debug)]
pub(crate) struct Structure {
    /// Structural fingerprint of the circuit ([`topology_key`]).
    pub key: u64,
    /// The transient stamp pattern, a superset of the DC one, so one
    /// pattern serves both kinds of solve. The dense LU plans over it.
    pub pattern: StampPattern,
    /// The linear engine the topology's solves run on.
    pub engine: Engine,
}

/// The linear engine of one topology, decided by its dimension.
#[derive(Debug)]
pub(crate) enum Engine {
    /// Below the crossover: the dense LU.
    Dense,
    /// The sparse LU over this symbolic analysis of the pattern.
    Sparse(Box<SymbolicLu>),
    /// Above the crossover, but the pattern is structurally singular: the
    /// dense LU solves, and reports the `SingularMatrix` error.
    Singular,
}

impl Structure {
    /// Builds the structure of `ckt` (topology `key`), running the sparse
    /// symbolic analysis when `sparse` is set. Only that analysis is booked
    /// on `rec`, as one `SymbolicAnalyses` tick under a `SymbolicAnalysis`
    /// span; a structurally singular pattern also books a dense fallback.
    fn build(ckt: &Circuit, key: u64, sparse: bool, rec: &Recorder) -> Self {
        let _span = sparse.then(|| rec.span(Phase::SymbolicAnalysis));
        let pattern = StampPattern::build_transient(ckt);
        let engine = if !sparse {
            Engine::Dense
        } else {
            rec.add(Counter::SymbolicAnalyses, 1);
            match SymbolicLu::analyze(&pattern) {
                Ok(sym) => Engine::Sparse(Box::new(sym)),
                Err(_) => {
                    rec.add(Counter::DenseFallbacks, 1);
                    Engine::Singular
                }
            }
        };
        Structure {
            key,
            pattern,
            engine,
        }
    }

    /// Whether this structure serves a topology `key` of `nu` unknowns
    /// whose solves want the sparse engine when `sparse` is set.
    fn fits(&self, key: u64, nu: usize, sparse: bool) -> bool {
        self.key == key
            && self.pattern.dim() == nu
            && sparse != matches!(self.engine, Engine::Dense)
    }

    /// The sparse engine's analysis, when the topology's solves run on it.
    pub fn symbolic(&self) -> Option<&SymbolicLu> {
        match &self.engine {
            Engine::Sparse(sym) => Some(sym),
            Engine::Dense | Engine::Singular => None,
        }
    }
}

/// An opaque, shareable handle to one topology's cached structure: its
/// stamp pattern and, above the crossover, its sparse symbolic analysis.
///
/// Obtained from [`SolverWorkspace::prime_symbolic`] on one instance of a
/// circuit topology and installed into sibling workspaces with
/// [`SolverWorkspace::adopt_symbolic`], so a Monte Carlo study builds the
/// structure exactly once per topology, whichever engine solves it.
/// Cloning shares (never recomputes) it. The handle remembers the
/// structural fingerprint of the circuit it was built for; adopting it
/// into a workspace that then solves a *different* topology is safe — the
/// mismatch is detected and a fresh structure is built.
#[derive(Debug, Clone)]
pub struct SymbolicCache(pub(crate) Arc<Structure>);

/// The sparse engine's value buffers for assembly and factors.
#[derive(Debug, Default)]
pub(crate) struct SparseScratch {
    /// Assembled matrix values over the stamp pattern.
    pub a_vals: Vec<f64>,
    /// Numeric `L+U` values over the filled pattern.
    pub lu_vals: Vec<f64>,
    /// Factorization work vector.
    pub w: Vec<f64>,
    /// Triangular-solve work vector.
    pub y: Vec<f64>,
    /// Newton residual `b − A·x`.
    pub resid: Vec<f64>,
    /// Initial guess saved across a sparse attempt, so a dense retry
    /// after sparse non-convergence starts from the same point.
    pub x_save: Vec<f64>,
}

/// Scratch for one assembled MNA system: matrix, RHS, Newton update and
/// the element→branch-current map (the symbolic stamp layout).
#[derive(Debug, Default)]
pub(crate) struct SysScratch {
    pub matrix: DenseMatrix,
    pub rhs: Vec<f64>,
    /// Newton update vector of either engine, hoisted out of
    /// `solve_newton`.
    pub delta: Vec<f64>,
    /// Element index → branch-current unknown index, for voltage sources.
    pub branch_index: Vec<Option<usize>>,
    /// Per-element hoisted value, indexed by element position: `1/R` for
    /// resistors, the scaled source value at the current time for sources.
    /// Refreshed once per Newton *solve* instead of once per iteration.
    pub elem_val: Vec<f64>,
    /// Companion conductance per capacitive branch (stamping order).
    /// Depends only on `(farads, h, method)`, so it survives across solve
    /// calls while the step size is unchanged — `cap_geq_key` tracks
    /// validity. Invalidated whenever a `System` is rebuilt.
    pub cap_geq: Vec<f64>,
    /// Companion history current per capacitive branch, refreshed every
    /// solve call (it depends on the previous accepted point).
    pub cap_ieq: Vec<f64>,
    /// `(h.to_bits(), method)` that `cap_geq` was computed for.
    pub cap_geq_key: Option<(u64, Method)>,
    /// Structure of the topology last solved or adopted.
    pub structure: Option<Arc<Structure>>,
    /// Sparse-engine assembly and factor values.
    pub sparse: SparseScratch,
    /// Per-run observability handle; disabled by default, so every
    /// instrumentation call is one `Option` branch.
    pub recorder: Recorder,
    /// Cooperative cancellation token, checked once per accepted point in
    /// the transient step loop. `None` (the default) skips the check
    /// entirely, so uncancellable runs pay one `Option` branch per point.
    pub cancel: Option<CancelToken>,
    /// Engine override for the tests that compare the two engines on one
    /// circuit: `Some(true)` solves sparse, `Some(false)` dense.
    #[cfg(test)]
    pub force_sparse: Option<bool>,
}

impl SysScratch {
    /// The structure of `ckt`, a topology of `nu` unknowns: the installed
    /// one when it fits, else a new one, which is installed. Called once per
    /// `System` construction.
    pub fn structure_for(&mut self, ckt: &Circuit, nu: usize) -> Arc<Structure> {
        let key = topology_key(ckt);
        let sparse = self.wants_sparse(nu);
        match &self.structure {
            Some(s) if s.fits(key, nu, sparse) => Arc::clone(s),
            _ => {
                let s = Arc::new(Structure::build(ckt, key, sparse, &self.recorder));
                self.structure = Some(Arc::clone(&s));
                s
            }
        }
    }

    /// Whether a system of `nu` unknowns solves on the sparse engine.
    fn wants_sparse(&self, nu: usize) -> bool {
        #[cfg(test)]
        if let Some(sparse) = self.force_sparse {
            return sparse;
        }
        nu >= SPARSE_CROSSOVER
    }
}

/// Scratch for the transient engine: companion states, the capacitive
/// branch list, breakpoints and the three solution buffers.
#[derive(Debug, Default)]
pub(crate) struct TranScratch {
    pub caps: Vec<CapState>,
    pub cap_branches: Vec<(NodeId, NodeId, f64)>,
    pub breakpoints: Vec<f64>,
    /// Accepted solution at the current time point.
    pub x: Vec<f64>,
    /// Candidate solution for the step being attempted, seeded by the
    /// step predictor (buffer partner of `x`; rotated on acceptance
    /// instead of cloned).
    pub xn: Vec<f64>,
    /// Solution at the accepted point before `x`, the step predictor's
    /// history.
    pub x_prev: Vec<f64>,
    /// Node voltages of the operating point a `Settled` stop rule
    /// compares against.
    pub rest: Vec<f64>,
}

/// Reusable scratch memory for repeated solves of the same (or similar)
/// circuit topology.
///
/// Create one per thread — or one per [`crate::Circuit`]-owning object such
/// as a built path — and pass it to [`crate::Circuit::transient_with`] /
/// [`crate::Circuit::dc_op_with`]. Buffers are resized on entry, so a
/// workspace may be shared across circuits of different sizes; reuse only
/// pays off when the topology size is stable.
///
/// A default-constructed workspace is empty and allocates lazily on first
/// use; [`crate::Circuit::transient`] and [`crate::Circuit::dc_op`] create
/// one internally per call.
#[derive(Debug, Default)]
pub struct SolverWorkspace {
    pub(crate) sys: SysScratch,
    pub(crate) tran: TranScratch,
}

impl SolverWorkspace {
    /// Creates an empty workspace; buffers are allocated on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds (or reuses) the structure of `ckt` — its stamp pattern and,
    /// above the sparse crossover, the sparse symbolic analysis — and
    /// returns a shareable handle to it. Install the handle into sibling
    /// workspaces with [`SolverWorkspace::adopt_symbolic`] so a whole study
    /// builds exactly one structure per topology.
    pub fn prime_symbolic(&mut self, ckt: &Circuit) -> SymbolicCache {
        SymbolicCache(self.sys.structure_for(ckt, ckt.unknown_count()))
    }

    /// Installs a structure primed elsewhere (see
    /// [`SolverWorkspace::prime_symbolic`]). Safe against mismatches: the
    /// handle's structural fingerprint is revalidated before every use, so
    /// adopting a cache for a different topology merely costs a fresh
    /// structure.
    pub fn adopt_symbolic(&mut self, cache: &SymbolicCache) {
        self.sys.structure = Some(Arc::clone(&cache.0));
    }

    /// Forces the linear engine of every later solve: sparse when `sparse`
    /// is set, dense otherwise, whatever the dimension.
    #[cfg(test)]
    pub(crate) fn force_engine(&mut self, sparse: bool) {
        self.sys.force_sparse = Some(sparse);
    }

    /// Installs a per-run [`Recorder`]; every solve through this workspace
    /// then records counters, spans, and histograms there. The default
    /// recorder is disabled, in which case each instrumentation point
    /// costs a single `Option` branch and never reads the clock.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.sys.recorder = rec;
    }

    /// The per-run recorder installed on this workspace.
    pub fn recorder(&self) -> &Recorder {
        &self.sys.recorder
    }

    /// Installs a cooperative [`CancelToken`]; the transient step loop
    /// then checks it once per accepted point and bails out with
    /// [`Error::Cancelled`](crate::Error::Cancelled) when it trips. The
    /// check is one (for a child token, two) relaxed atomic loads, so it
    /// never contends with other workers on the hot path.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.sys.cancel = Some(token);
    }

    /// The cancellation token installed on this workspace, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.sys.cancel.as_ref()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::{TraceCapture, TranConfig, Waveform};

    /// A pulse-driven RC ladder of `stages` sections: `stages + 2` MNA
    /// unknowns.
    fn ladder(stages: usize) -> Circuit {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        ckt.vsource(
            vin,
            Circuit::GROUND,
            Waveform::single_pulse(0.0, 1.8, 0.1e-9, 50e-12, 50e-12, 200e-12),
        );
        let mut prev = vin;
        for i in 0..stages {
            let n = ckt.node(format!("t{i}"));
            ckt.resistor(prev, n, 1e3);
            ckt.capacitor(n, Circuit::GROUND, 20e-15);
            prev = n;
        }
        ckt
    }

    /// A primed topology adopted by two workspaces is built once, on either
    /// engine: both solve on the primed structure, and each one's dense LU
    /// plans over its shared pattern, so neither builds a pattern of its
    /// own. Only the sparse analysis is booked.
    #[test]
    fn adopted_structure_is_built_once_for_both_engines() {
        for (stages, sparse) in [(6, false), (30, true)] {
            let ckt = ladder(stages);
            assert_eq!(ckt.unknown_count() >= SPARSE_CROSSOVER, sparse);
            let rec = Recorder::enabled();
            let mut primer = SolverWorkspace::new();
            primer.set_recorder(rec.clone());
            let cache = primer.prime_symbolic(&ckt);
            assert_eq!(cache.0.symbolic().is_some(), sparse);
            let workspaces: Vec<SolverWorkspace> = (0..2)
                .map(|_| {
                    let mut ws = SolverWorkspace::new();
                    ws.set_recorder(rec.clone());
                    ws.adopt_symbolic(&cache);
                    ckt.transient_with(
                        &TranConfig::new(10e-12, 0.5e-9),
                        &mut ws,
                        &TraceCapture::All,
                    )
                    .unwrap();
                    ws
                })
                .collect();
            for ws in &workspaces {
                assert!(Arc::ptr_eq(ws.sys.structure.as_ref().unwrap(), &cache.0));
            }
            // The handle, the primer's slot, and each workspace's slot and
            // dense plan: nothing else was built.
            assert_eq!(Arc::strong_count(&cache.0), 2 + 2 * workspaces.len());
            let snap = rec.snapshot();
            assert_eq!(snap.counter(Counter::SymbolicAnalyses), u64::from(sparse));
            assert_eq!(snap.counter(Counter::SparseSolves) > 0, sparse);
            assert_eq!(snap.counter(Counter::DenseFallbacks), 0);
        }
    }
}
