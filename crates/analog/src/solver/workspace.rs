//! Reusable per-thread solver scratch memory.
//!
//! Every analysis in this crate solves the same MNA topology over and over:
//! a resistance sweep re-solves one circuit at dozens of operating points,
//! and a Monte Carlo study multiplies that by thousands of samples. A
//! [`SolverWorkspace`] owns every buffer those solves need — the MNA
//! matrix, RHS, Newton scratch, capacitor companion states, breakpoint
//! list and the transient double-buffers — so repeated solves reuse both
//! the allocations and the symbolic stamp layout instead of rebuilding
//! them per call.
//!
//! Reuse is allocation-only: the arithmetic performed with a warm
//! workspace is bit-for-bit identical to a fresh one (asserted by the
//! `workspace_equivalence` property tests). The one exception trades
//! bitwise identity for speed, within solver tolerances: the sparse linear
//! engine, which [`SolverMode`] engages above a crossover dimension
//! (different elimination order ⇒ different rounding; the `sparse_solver`
//! tests bound the drift).

use std::sync::Arc;
use std::sync::OnceLock;

use crate::circuit::{Circuit, NodeId};
use crate::solver::matrix::DenseMatrix;
use crate::solver::mna::{CapState, Method};
use crate::solver::pattern::{topology_key, StampPattern};
use crate::solver::sparse::SymbolicLu;
use pulsar_obs::{CancelToken, Counter, Phase, Recorder};

/// Linear-engine selection for a [`SolverWorkspace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverMode {
    /// Sparse above the crossover dimension (24 unknowns), dense below
    /// (the default). Small systems fit the dense kernel's cache
    /// behavior; large chain-structured systems win from the sparse
    /// path.
    #[default]
    Auto,
    /// Always dense — the preserved, bit-identical-to-baseline engine.
    ForceDense,
    /// Always sparse (when the pattern is structurally sound); used by
    /// equivalence tests and benchmarks.
    ForceSparse,
}

/// Below this many MNA unknowns `SolverMode::Auto` stays dense: the dense
/// LU already skips structural zeros, and for small matrices its linear
/// memory layout beats the sparse engine's indirection (measured in
/// BENCH_pr4.json). The paper-scale 7-gate path is
/// 12 unknowns (dense); a 32-stage inverter chain is 36 (sparse).
const SPARSE_CROSSOVER: usize = 24;

/// `PULSAR_FORCE_DENSE=1` routes every solve through the dense engine
/// regardless of [`SolverMode`] — the field escape hatch if the sparse
/// path ever misbehaves. Read once per process.
fn force_dense_env() -> bool {
    static FLAG: OnceLock<bool> = OnceLock::new();
    *FLAG.get_or_init(|| {
        std::env::var("PULSAR_FORCE_DENSE")
            .map(|v| v == "1")
            .unwrap_or(false)
    })
}

/// An opaque, shareable handle to a cached symbolic factorization.
///
/// Obtained from [`SolverWorkspace::prime_symbolic`] on one instance of a
/// circuit topology and installed into sibling workspaces with
/// [`SolverWorkspace::adopt_symbolic`], so a Monte Carlo study pays for
/// exactly one symbolic analysis per topology. Cloning shares (never
/// recomputes) the analysis. The handle remembers the structural
/// fingerprint of the circuit it was computed for; adopting it into a
/// workspace that then solves a *different* topology is safe — the
/// mismatch is detected and a fresh analysis runs.
#[derive(Debug, Clone)]
pub struct SymbolicCache(pub(crate) Arc<SymbolicLu>);

impl SymbolicCache {
    /// Matrix dimension the analysis was computed for.
    pub fn dim(&self) -> usize {
        self.0.dim()
    }

    /// Nonzero count of the assembly (stamp) pattern.
    pub fn nnz(&self) -> usize {
        self.0.nnz()
    }

    /// Nonzero count of the filled `L+U` pattern (≥ `nnz`; the difference
    /// is the fill the ordering could not avoid).
    pub fn lu_nnz(&self) -> usize {
        self.0.lu_nnz()
    }

    /// Structural fingerprint of the circuit this analysis belongs to.
    pub fn topology_key(&self) -> u64 {
        self.0.topo_key
    }

    /// The fill-reducing row permutation (permuted row → original row).
    pub fn row_permutation(&self) -> &[usize] {
        self.0.row_permutation()
    }

    /// The fill-reducing column permutation (permuted col → original col).
    pub fn col_permutation(&self) -> &[usize] {
        self.0.col_permutation()
    }
}

/// Sparse-engine state carried by [`SysScratch`]: the cached symbolic
/// object and the value buffers for assembly and factors.
#[derive(Debug, Default)]
pub(crate) struct SparseScratch {
    /// Engine selection for this workspace.
    pub mode: SolverMode,
    /// Cached symbolic factorization (shared across samples via `Arc`).
    pub symbolic: Option<Arc<SymbolicLu>>,
    /// Topology key whose symbolic analysis failed (structural-rank
    /// deficit); cached so a singular topology is analyzed once, not per
    /// solve.
    pub failed_key: Option<u64>,
    /// Decision for the current `System`: sparse engine engaged.
    pub active: bool,
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
    /// Newton update `A⁻¹·resid`.
    pub delta: Vec<f64>,
    /// Initial guess saved across a sparse attempt, so a dense retry
    /// after sparse non-convergence starts from the same point.
    pub x_save: Vec<f64>,
}

impl SparseScratch {
    /// Decides whether the sparse engine handles the next solves of `ckt`
    /// (`nu` MNA unknowns) and, if so, ensures a matching symbolic
    /// factorization is cached. Called once per `System` construction.
    /// `rec` is the per-run recorder of the owning workspace.
    pub fn prepare(&mut self, ckt: &Circuit, nu: usize, rec: &Recorder) -> bool {
        self.active = false;
        if force_dense_env() {
            return false;
        }
        let want = match self.mode {
            SolverMode::ForceDense => false,
            SolverMode::ForceSparse => true,
            SolverMode::Auto => nu >= SPARSE_CROSSOVER,
        };
        if !want {
            return false;
        }
        let key = topology_key(ckt);
        let cached = matches!(&self.symbolic, Some(s) if s.topo_key == key && s.dim() == nu);
        if !cached {
            if self.failed_key == Some(key) {
                return false;
            }
            let _span = rec.span(Phase::SymbolicAnalysis);
            let pattern = StampPattern::build_transient(ckt);
            rec.add(Counter::SymbolicAnalyses, 1);
            match SymbolicLu::analyze(&pattern, key) {
                Ok(sym) => self.symbolic = Some(Arc::new(sym)),
                Err(_) => {
                    // Structural-rank deficit: remember and let the dense
                    // engine report the identical SingularMatrix error.
                    self.failed_key = Some(key);
                    rec.add(Counter::DenseFallbacks, 1);
                    return false;
                }
            }
        }
        self.active = true;
        true
    }
}

/// Scratch for one assembled MNA system: matrix, RHS, Newton update and
/// the element→branch-current map (the symbolic stamp layout).
#[derive(Debug, Default)]
pub(crate) struct SysScratch {
    pub matrix: DenseMatrix,
    pub rhs: Vec<f64>,
    /// Newton update vector, hoisted out of `solve_newton`.
    pub newton: Vec<f64>,
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
    /// Sparse-engine state (symbolic cache, assembly and factor values).
    pub sparse: SparseScratch,
    /// Per-run observability handle; disabled by default, so every
    /// instrumentation call is one `Option` branch.
    pub recorder: Recorder,
    /// Cooperative cancellation token, checked once per accepted point in
    /// the transient step loop. `None` (the default) skips the check
    /// entirely, so uncancellable runs pay one `Option` branch per point.
    pub cancel: Option<CancelToken>,
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

    /// Selects the linear engine for this workspace. The default,
    /// [`SolverMode::Auto`], switches from dense to sparse at a measured
    /// crossover dimension. `PULSAR_FORCE_DENSE=1` in the environment
    /// overrides every mode.
    pub fn set_solver_mode(&mut self, mode: SolverMode) {
        self.sys.sparse.mode = mode;
    }

    /// The currently selected [`SolverMode`].
    pub fn solver_mode(&self) -> SolverMode {
        self.sys.sparse.mode
    }

    /// Runs (or reuses) the symbolic analysis of `ckt` under this
    /// workspace's engine selection and returns a shareable handle, or
    /// `None` when the sparse engine would not be used for this circuit
    /// (mode/crossover/escape hatch) or the pattern is structurally
    /// singular. Install the handle into sibling workspaces with
    /// [`SolverWorkspace::adopt_symbolic`] so a whole study performs
    /// exactly one analysis per topology.
    pub fn prime_symbolic(&mut self, ckt: &Circuit) -> Option<SymbolicCache> {
        let rec = self.sys.recorder.clone();
        if self.sys.sparse.prepare(ckt, ckt.unknown_count(), &rec) {
            self.sys.sparse.symbolic.clone().map(SymbolicCache)
        } else {
            None
        }
    }

    /// Installs a symbolic factorization primed elsewhere (see
    /// [`SolverWorkspace::prime_symbolic`]). Safe against mismatches: the
    /// handle's structural fingerprint is revalidated before every use, so
    /// adopting a cache for a different topology merely costs a fresh
    /// analysis.
    pub fn adopt_symbolic(&mut self, cache: &SymbolicCache) {
        self.sys.sparse.symbolic = Some(Arc::clone(&cache.0));
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
