//! Hot-path micro-benchmark: workspace-reusing solver vs the preserved
//! allocation-per-step baseline engine, plus the sparse MNA engine vs the
//! dense reuse engine, all measured in the same process.
//!
//! Nine kernels are timed (median wall-clock ns/op plus a heap-allocation
//! count from a counting global allocator):
//!
//! 1. **single_transient** — one pulse propagation through the paper's
//!    7-gate external-ROP path.
//! 2. **transfer_point** — one transfer-curve point: retune the defect
//!    resistance, re-run the pulse. The workspace (and, in a separate
//!    variant, the DC warm start) amortizes across the sweep.
//! 3. **mc_coverage_point** — one 64-sample Monte Carlo coverage point
//!    at threads = 1 / 2 / 4.
//! 4. **sparse_single_transient** — one pulse transient through 8-, 16-
//!    and 32-gate inverter chains: the PR2 dense reuse engine
//!    (`ForceDense`) vs the sparse engine with cached symbolic
//!    factorization (`ForceSparse`, exact Newton — Jacobian reuse is an
//!    opt-in robustness escalation and is exercised by the test suite,
//!    not the timing arms).
//! 5. **sparse_mc_coverage** — the Monte Carlo coverage point on the
//!    32-gate chain at 1 thread, symbolic analysis primed once and
//!    adopted by every sample.
//! 6. **obs_overhead** — the 7-gate MC coverage point with the
//!    observability recorder absent, installed-but-disabled, and
//!    enabled (per-sample fork + retire, the `McConfig` wiring). All
//!    three arms are asserted bit-identical before timing: recording
//!    never changes arithmetic. Written to `BENCH_pr5.json`
//!    (`--obs-only` runs just this kernel and writes only that file).
//! 7. **checkpoint_overhead** — the 7-gate MC coverage point through the
//!    durable entry point with no checkpoint vs a live checkpoint file
//!    (create + one fsync-free append-and-flush per sample). Both arms
//!    are asserted bit-identical before timing: durability never changes
//!    arithmetic. Written to `BENCH_pr6.json` (`--durable-only` runs
//!    just this kernel and writes only that file).
//! 8. *(retired)* — the lock-step batched-MC scoreboard, deleted with
//!    the batch engine; `BENCH_pr7.json` keeps its last measurement.
//! 9. **adaptive_mc_coverage** — the PR9 scoreboard: a full
//!    `DfStudy` coverage-curve sweep (12 log-spaced resistances × 3
//!    clock factors on the 8-gate chain), fixed N=200 samples per grid
//!    point vs the adaptive early-stopping engine asked for the same
//!    worst-case Wilson half-width a fixed run guarantees. The adaptive
//!    arm is asserted bit-identical across 1 vs 2 threads before
//!    timing, and every per-point `{requested, achieved}` half-width is
//!    asserted from the *rendered obs manifest* (parsed back with the
//!    crate's own JSON parser), not from in-memory state. Written to
//!    `BENCH_pr9.json` (`--adaptive-only` runs just this kernel and
//!    writes only that file).
//! 10. **serve_submission** — the PR10 scoreboard: an in-process
//!     `pulsar-serve` daemon answering repeated study submissions over
//!     its Unix socket. The *cold* arm submits a fresh config digest per
//!     round (every cache misses, the study computes); the *warm* arm
//!     resubmits an identical digest (whole-result cache hit, zero
//!     transient solves — asserted from the daemon's own stats
//!     counters). The daemon's answer is asserted byte-identical to the
//!     one-shot `pulsar study` CLI before timing. Written to
//!     `BENCH_pr10.json` (`--serve-only` runs just this kernel and
//!     writes only that file).
//!
//! The baseline is not a guess: `BuiltPath::set_workspace_reuse(false)`
//! routes every simulation through `Circuit::transient_baseline`, the
//! pre-optimization engine preserved verbatim (per-call allocations,
//! indexed scalar LU). Dense arms are asserted **bit-identical** to that
//! baseline before any timing; the sparse arm is asserted to agree within
//! solver tolerance (measured pulse widths within 2 ps), because the
//! permuted factorization legitimately stops at a slightly different
//! point inside the Newton convergence ball.
//!
//! Baseline and optimized ops are *interleaved* within one measurement
//! loop (A, B, A, B, ...) and summarized by their medians: on a shared
//! host, machine speed drifts more between two back-to-back phases than
//! the effect under measurement, and interleaving makes both engines see
//! the same drift.
//!
//! `--smoke` runs a tiny configuration for CI (no JSON output); the full
//! run writes `BENCH_pr4.json` at the repository root and records whether
//! the speedup targets (PR2's ≥2× MC aspiration; PR4's ≥2× on the
//! 32-gate transient and ≥1.5× on the sparse MC kernel) were met on this
//! machine (the measured numbers are reported either way). With
//! `PULSAR_FORCE_DENSE=1` in the environment the sparse arms silently run
//! dense; the kernels then assert bitwise identity instead of a speedup.

// Kernel 5 deliberately reads the process-wide legacy counter view: it
// asserts totals across an MC fan-out whose samples never share a
// workspace, which is exactly what the shim still exists for.
#[allow(deprecated)]
use pulsar_analog::solver_counters;
use pulsar_analog::{ObsCounter, Polarity, Recorder, SolverMode, SymbolicCache};
use pulsar_bench::{log_sweep, rop_put};
use pulsar_cells::{PathSpec, PulseOutcome, Tech};
use pulsar_core::{
    AdaptivePolicy, CancelToken, Checkpoint, CheckpointSpec, DefectKind, DfStudy, IntervalRule,
    McConfig, PathInstance, PathUnderTest, VariationModel,
};
use pulsar_mc::MonteCarlo;
use pulsar_obs::{json::Json, RunManifest};
use pulsar_serve::{
    Client as ServeClient, Daemon as ServeDaemon, JobSpec as ServeJobSpec, ServeConfig,
    StudyKind as ServeStudyKind,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts heap allocations (alloc + realloc calls) as an allocation-rate
/// proxy; timing-neutral enough for a relative comparison since both
/// engines run under the same allocator.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation unchanged to the system allocator;
// the counter is a relaxed atomic with no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // ordering: Relaxed — pure event counter read on the same
        // thread that drove the measured ops; no publication.
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // ordering: Relaxed — same single-threaded event counter.
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn median(mut ns: Vec<u64>) -> u64 {
    ns.sort_unstable();
    ns[ns.len() / 2]
}

/// Allocation calls made by one invocation of `f` (deterministic per op
/// once warm, so a single sample suffices).
fn allocs_per_op(mut f: impl FnMut()) -> u64 {
    // ordering: Relaxed — both reads are on the thread that ran `f`.
    let a0 = ALLOC_CALLS.load(Ordering::Relaxed);
    f();
    ALLOC_CALLS.load(Ordering::Relaxed) - a0 // ordering: see above
}

/// Times `baseline` and `reuse` *interleaved* (one of each per round) for
/// `iters` rounds and returns the medians. Interleaving is what makes the
/// ratio trustworthy on a drifting shared host: both engines sample the
/// same machine-speed trajectory.
fn measure_pair(iters: usize, mut baseline: impl FnMut(), mut reuse: impl FnMut()) -> KernelResult {
    assert!(iters >= 1);
    // Warm-up round: page in code, fill the workspace buffers.
    baseline();
    reuse();
    let baseline_allocs = allocs_per_op(&mut baseline);
    let reuse_allocs = allocs_per_op(&mut reuse);
    let mut bns = Vec::with_capacity(iters);
    let mut rns = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        baseline();
        bns.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        reuse();
        rns.push(t.elapsed().as_nanos() as u64);
    }
    KernelResult {
        baseline_ns: median(bns),
        baseline_allocs,
        reuse_ns: median(rns),
        reuse_allocs,
    }
}

fn bits(outcome: &PulseOutcome) -> (u64, u64, Vec<u64>) {
    (
        outcome.output_width.to_bits(),
        outcome.peak_fraction.to_bits(),
        outcome.stage_widths.iter().map(|w| w.to_bits()).collect(),
    )
}

const W_IN: f64 = 450e-12;
const R_POINT: f64 = 8e3;
const SWEEP: [f64; 4] = [1e3, 3e3, 8e3, 20e3];

/// Agreement bound between the sparse and dense engines on a measured
/// pulse width. Both engines converge every Newton solve to VNTOL, but a
/// chord (Jacobian-reuse) step stops at a different point inside the
/// convergence ball; the resulting vdd/2 crossing shift is well under a
/// picosecond (see `crates/analog/tests/sparse_solver.rs`).
const TOL_WIDTH: f64 = 2e-12;

struct KernelResult {
    baseline_ns: u64,
    baseline_allocs: u64,
    reuse_ns: u64,
    reuse_allocs: u64,
}

impl KernelResult {
    fn speedup(&self) -> f64 {
        self.baseline_ns as f64 / self.reuse_ns as f64
    }
}

/// Kernel 1: one pulse-propagation transient, baseline vs reuse, outputs
/// asserted bit-identical.
fn single_transient(put: &PathUnderTest, iters: usize) -> KernelResult {
    let mut base = put.instantiate_nominal(R_POINT);
    base.built_path().set_workspace_reuse(false);
    let mut fast = put.instantiate_nominal(R_POINT);

    let run = |p: &mut pulsar_core::AnalogPath| {
        p.built_path()
            .propagate_pulse(W_IN, Polarity::PositiveGoing, None)
            .expect("pulse run")
    };
    let ob = run(&mut base);
    let of = run(&mut fast);
    assert_eq!(
        bits(&ob),
        bits(&of),
        "engines disagree on the single-transient kernel"
    );

    measure_pair(
        iters,
        || {
            run(&mut base);
        },
        || {
            run(&mut fast);
        },
    )
}

/// Kernel 2: one transfer-curve point — set the defect resistance, run the
/// pulse — cycling through a resistance sweep so the workspace amortizes.
/// Also times the opt-in DC warm start (tolerance-equal, not bit-equal,
/// so it is compared within solver tolerance instead).
fn transfer_point(put: &PathUnderTest, iters: usize) -> (KernelResult, u64, f64) {
    let mut base = put.instantiate_nominal(SWEEP[0]);
    base.built_path().set_workspace_reuse(false);
    let mut fast = put.instantiate_nominal(SWEEP[0]);
    let mut warm = put.instantiate_nominal(SWEEP[0]);
    warm.built_path().set_dc_warm_start(true);

    let point = |p: &mut pulsar_core::AnalogPath, k: usize| {
        let r = SWEEP[k % SWEEP.len()];
        p.set_resistance(r).expect("sweep resistance");
        p.pulse_width_out(W_IN, Polarity::PositiveGoing)
            .expect("sweep point")
    };
    for k in 0..SWEEP.len() {
        let wb = point(&mut base, k);
        let wf = point(&mut fast, k);
        let ww = point(&mut warm, k);
        assert_eq!(
            wb.to_bits(),
            wf.to_bits(),
            "engines disagree on transfer point {k}"
        );
        assert!(
            (ww - wb).abs() < 2e-12,
            "warm start off-tolerance at point {k}: {ww} vs {wb}"
        );
    }

    // Three arms interleaved per round (the warm-start arm rides in the
    // same loop so its ratio shares the baseline's drift too).
    let (mut kb, mut kf, mut kw) = (0usize, 0usize, 0usize);
    let baseline_allocs = allocs_per_op(|| {
        point(&mut base, kb);
        kb += 1;
    });
    let reuse_allocs = allocs_per_op(|| {
        point(&mut fast, kf);
        kf += 1;
    });
    let mut bns = Vec::with_capacity(iters);
    let mut rns = Vec::with_capacity(iters);
    let mut wns = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        point(&mut base, kb);
        kb += 1;
        bns.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        point(&mut fast, kf);
        kf += 1;
        rns.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        point(&mut warm, kw);
        kw += 1;
        wns.push(t.elapsed().as_nanos() as u64);
    }
    let baseline_ns = median(bns);
    let warm_ns = median(wns);
    (
        KernelResult {
            baseline_ns,
            baseline_allocs,
            reuse_ns: median(rns),
            reuse_allocs,
        },
        warm_ns,
        baseline_ns as f64 / warm_ns as f64,
    )
}

/// One Monte Carlo coverage-point run: `samples` instances of the path at
/// resistance [`R_POINT`], each drawn exactly like
/// `PulseStudy::try_faulty_wouts` draws it, returning output pulse widths.
fn mc_point(
    put: &PathUnderTest,
    variation: &VariationModel,
    samples: usize,
    threads: usize,
    reuse: bool,
) -> Vec<f64> {
    MonteCarlo::new(samples, 2007)
        .with_threads(threads)
        .run(|_, rng| {
            let techs = variation.sample_techs(&put.tech, put.spec.len(), rng);
            let gen_factor = variation.sample_sensor(1.0, rng);
            let mut p = put.instantiate(&techs, R_POINT);
            if !reuse {
                p.built_path().set_workspace_reuse(false);
            }
            p.pulse_width_out(W_IN * gen_factor, Polarity::PositiveGoing)
                .expect("mc sample")
        })
}

struct McThreadResult {
    threads: usize,
    result: KernelResult,
}

/// Kernel 3: the 64-sample coverage point at each thread count, baseline
/// vs reuse, with every sample's output width asserted bit-identical
/// across engines *and* across thread counts.
fn mc_coverage_point(
    put: &PathUnderTest,
    variation: &VariationModel,
    samples: usize,
    thread_counts: &[usize],
    iters: usize,
) -> Vec<McThreadResult> {
    let reference = mc_point(put, variation, samples, 1, true);
    let ref_bits: Vec<u64> = reference.iter().map(|w| w.to_bits()).collect();

    thread_counts
        .iter()
        .map(|&t| {
            for reuse in [false, true] {
                let wouts = mc_point(put, variation, samples, t, reuse);
                let got: Vec<u64> = wouts.iter().map(|w| w.to_bits()).collect();
                assert_eq!(
                    ref_bits, got,
                    "mc kernel diverged (threads={t}, reuse={reuse})"
                );
            }
            let result = measure_pair(
                iters,
                || {
                    mc_point(put, variation, samples, t, false);
                },
                || {
                    mc_point(put, variation, samples, t, true);
                },
            );
            McThreadResult { threads: t, result }
        })
        .collect()
}

/// A straight `n`-stage inverter chain with the paper's external-ROP
/// defect at stage 1 — the scaling axis for the sparse-vs-dense
/// comparison. MNA dimension grows with `n`: 8 gates = 12 unknowns
/// (below the `Auto` crossover), 32 gates = 36 (above it).
fn chain_put(n: usize) -> PathUnderTest {
    PathUnderTest {
        spec: PathSpec::inverter_chain(n),
        defect: DefectKind::ExternalRop,
        stage: 1,
        tech: Tech::generic_180nm(),
    }
}

/// Asserts the sparse arm agrees with the dense arm: bitwise when
/// `PULSAR_FORCE_DENSE=1` collapsed both arms onto the dense engine,
/// within [`TOL_WIDTH`] otherwise.
fn assert_sparse_agrees(dense: &PulseOutcome, sparse: &PulseOutcome, forced: bool, what: &str) {
    if forced {
        assert_eq!(
            bits(dense),
            bits(sparse),
            "PULSAR_FORCE_DENSE=1: both {what} arms ran dense and must agree bitwise"
        );
        return;
    }
    assert!(
        (dense.output_width - sparse.output_width).abs() < TOL_WIDTH,
        "sparse engine off-tolerance on {what}: {} vs {}",
        sparse.output_width,
        dense.output_width
    );
    for (d, s) in dense.stage_widths.iter().zip(&sparse.stage_widths) {
        assert!(
            (d - s).abs() < TOL_WIDTH,
            "sparse stage width off-tolerance on {what}: {s} vs {d}"
        );
    }
}

/// Kernel 4: one pulse transient through an `n`-gate chain, PR2 dense
/// reuse engine vs the sparse engine (exact Newton). The dense arm
/// is first asserted bit-identical to the preserved baseline engine, and
/// the sparse arm asserted within tolerance of the dense arm, before any
/// timing runs. Here "baseline" in the result means the *dense reuse*
/// engine — the thing PR4 claims to beat.
fn sparse_transient(n: usize, iters: usize, forced_dense: bool) -> KernelResult {
    let put = chain_put(n);
    let mut check = put.instantiate_nominal(R_POINT);
    check.built_path().set_workspace_reuse(false);
    let mut dense = put.instantiate_nominal(R_POINT);
    dense.built_path().set_solver_mode(SolverMode::ForceDense);
    // Timed in the default exact-Newton configuration: Jacobian reuse is
    // an opt-in robustness escalation, and at these dimensions (zero-fill
    // factorizations of ~170 nonzeros) the chord iterations it adds cost
    // more than the refactorizations it saves.
    let mut sparse = put.instantiate_nominal(R_POINT);
    sparse.built_path().set_solver_mode(SolverMode::ForceSparse);

    let run = |p: &mut pulsar_core::AnalogPath| {
        p.built_path()
            .propagate_pulse(W_IN, Polarity::PositiveGoing, None)
            .expect("pulse run")
    };
    let oc = run(&mut check);
    let od = run(&mut dense);
    let os = run(&mut sparse);
    assert!(
        od.output_width > 0.0,
        "pulse died in the {n}-gate chain; the kernel would time nothing"
    );
    assert_eq!(
        bits(&oc),
        bits(&od),
        "dense reuse engine diverged from the baseline engine at {n} gates"
    );
    assert_sparse_agrees(&od, &os, forced_dense, &format!("{n}-gate transient"));

    measure_pair(
        iters,
        || {
            run(&mut dense);
        },
        || {
            run(&mut sparse);
        },
    )
}

/// One Monte Carlo coverage-point run on a chain path, with the linear
/// engine per sample chosen by `arm`.
#[derive(Clone, Copy, PartialEq)]
enum McArm {
    /// Preserved allocation-per-step engine (always dense).
    Baseline,
    /// PR2 workspace-reuse engine, pinned dense.
    DenseReuse,
    /// Sparse engine (exact Newton), adopting the primed symbolic.
    Sparse,
}

fn chain_mc_point(
    put: &PathUnderTest,
    variation: &VariationModel,
    symbolic: &Option<SymbolicCache>,
    samples: usize,
    threads: usize,
    arm: McArm,
) -> Vec<f64> {
    MonteCarlo::new(samples, 2007)
        .with_threads(threads)
        .run(|_, rng| {
            let techs = variation.sample_techs(&put.tech, put.spec.len(), rng);
            let gen_factor = variation.sample_sensor(1.0, rng);
            let mut p = put.instantiate(&techs, R_POINT);
            match arm {
                McArm::Baseline => p.built_path().set_workspace_reuse(false),
                McArm::DenseReuse => p.built_path().set_solver_mode(SolverMode::ForceDense),
                McArm::Sparse => {
                    p.built_path().set_solver_mode(SolverMode::ForceSparse);
                    if let Some(c) = symbolic {
                        p.built_path().adopt_symbolic(c);
                    }
                }
            }
            p.pulse_width_out(W_IN * gen_factor, Polarity::PositiveGoing)
                .expect("mc sample")
        })
}

/// Kernel 5: the Monte Carlo coverage point on the 32-gate chain at one
/// thread, dense reuse engine vs sparse + adopted symbolic. Before
/// timing: the dense arm is asserted bit-identical to the baseline
/// engine *and* across 1 vs 2 threads; every sparse sample is asserted
/// within tolerance of its dense twin; and the timed sparse arm is
/// asserted to run **zero** fresh symbolic analyses (the adopted cache
/// covers the whole point) and zero dense fallbacks.
#[allow(deprecated)] // process-wide `solver_counters` view; see the import note
fn sparse_mc_coverage(
    n: usize,
    variation: &VariationModel,
    samples: usize,
    iters: usize,
    forced_dense: bool,
) -> KernelResult {
    let put = chain_put(n);
    // One symbolic analysis for the whole kernel, primed on a nominal
    // instance and shared with every sample.
    let mut nominal = put.instantiate_nominal(R_POINT);
    nominal
        .built_path()
        .set_solver_mode(SolverMode::ForceSparse);
    let symbolic = nominal.built_path().prime_symbolic();
    assert_eq!(
        symbolic.is_none(),
        forced_dense,
        "prime_symbolic must yield a cache exactly when the sparse engine is live"
    );

    let base = chain_mc_point(&put, variation, &symbolic, samples, 1, McArm::Baseline);
    let d1 = chain_mc_point(&put, variation, &symbolic, samples, 1, McArm::DenseReuse);
    let d2 = chain_mc_point(&put, variation, &symbolic, samples, 2, McArm::DenseReuse);
    let base_bits: Vec<u64> = base.iter().map(|w| w.to_bits()).collect();
    let d1_bits: Vec<u64> = d1.iter().map(|w| w.to_bits()).collect();
    let d2_bits: Vec<u64> = d2.iter().map(|w| w.to_bits()).collect();
    assert_eq!(
        base_bits, d1_bits,
        "dense reuse diverged from baseline in MC"
    );
    assert_eq!(
        d1_bits, d2_bits,
        "dense MC arm diverged across thread counts"
    );

    let before = solver_counters();
    let s1 = chain_mc_point(&put, variation, &symbolic, samples, 1, McArm::Sparse);
    let delta = solver_counters().since(&before);
    for (k, (d, s)) in d1.iter().zip(&s1).enumerate() {
        if forced_dense {
            assert_eq!(
                d.to_bits(),
                s.to_bits(),
                "forced-dense MC sample {k} diverged"
            );
        } else {
            assert!(
                (d - s).abs() < TOL_WIDTH,
                "sparse MC sample {k} off-tolerance: {s} vs {d}"
            );
        }
    }
    if !forced_dense {
        assert_eq!(
            delta.symbolic_analyses, 0,
            "adopted symbolic cache must cover every MC sample: {delta:?}"
        );
        assert!(
            delta.sparse_solves > 0,
            "sparse arm never ran sparse: {delta:?}"
        );
        assert_eq!(
            delta.dense_fallbacks, 0,
            "sparse arm fell back to dense: {delta:?}"
        );
    }

    measure_pair(
        iters,
        || {
            chain_mc_point(&put, variation, &symbolic, samples, 1, McArm::DenseReuse);
        },
        || {
            chain_mc_point(&put, variation, &symbolic, samples, 1, McArm::Sparse);
        },
    )
}

/// The MC coverage point with an explicit observability recorder: one
/// fork per sample installed on the instance before the pulse run, every
/// shard retired afterwards — the same wiring `McConfig::obs` uses.
fn mc_point_obs(
    put: &PathUnderTest,
    variation: &VariationModel,
    samples: usize,
    rec: &Recorder,
) -> Vec<f64> {
    let sample_recs: Vec<Recorder> = (0..samples).map(|_| rec.fork()).collect();
    let wouts = MonteCarlo::new(samples, 2007)
        .with_threads(1)
        .run(|i, rng| {
            let techs = variation.sample_techs(&put.tech, put.spec.len(), rng);
            let gen_factor = variation.sample_sensor(1.0, rng);
            let mut p = put.instantiate(&techs, R_POINT);
            p.built_path().set_recorder(sample_recs[i].clone());
            p.pulse_width_out(W_IN * gen_factor, Polarity::PositiveGoing)
                .expect("mc sample")
        });
    for r in &sample_recs {
        r.retire();
    }
    wouts
}

struct ObsOverheadResult {
    plain_ns: u64,
    plain_allocs: u64,
    disabled_ns: u64,
    disabled_allocs: u64,
    enabled_ns: u64,
    enabled_allocs: u64,
}

impl ObsOverheadResult {
    /// Cost of carrying the disabled recorder (fork/clone/retire plus one
    /// `Option` branch per instrumentation site) over the plain kernel.
    fn disabled_overhead(&self) -> f64 {
        self.disabled_ns as f64 / self.plain_ns as f64 - 1.0
    }

    /// Cost of actually recording (atomics, clock reads, shard merges)
    /// over the disabled path.
    fn enabled_overhead(&self) -> f64 {
        self.enabled_ns as f64 / self.disabled_ns as f64 - 1.0
    }
}

/// Kernel 6: observability overhead on the 7-gate MC coverage point.
/// Three arms, interleaved per round like the other kernels: *plain*
/// (recorder never touched — the PR2/PR4 hot path), *disabled* (per-sample
/// fork + install + retire of a disabled recorder), *enabled* (same wiring,
/// recorder live). Bit-identity across all three arms is asserted before
/// timing; the enabled arm is additionally asserted to have recorded real
/// solver work, so the timing can't silently measure a no-op.
fn obs_overhead(
    put: &PathUnderTest,
    variation: &VariationModel,
    samples: usize,
    iters: usize,
) -> ObsOverheadResult {
    let plain = mc_point(put, variation, samples, 1, true);
    let disabled = mc_point_obs(put, variation, samples, &Recorder::disabled());
    let live = Recorder::enabled();
    let enabled = mc_point_obs(put, variation, samples, &live);
    let plain_bits: Vec<u64> = plain.iter().map(|w| w.to_bits()).collect();
    let disabled_bits: Vec<u64> = disabled.iter().map(|w| w.to_bits()).collect();
    let enabled_bits: Vec<u64> = enabled.iter().map(|w| w.to_bits()).collect();
    assert_eq!(
        plain_bits, disabled_bits,
        "disabled recorder changed the MC results"
    );
    assert_eq!(
        plain_bits, enabled_bits,
        "enabled recorder changed the MC results"
    );
    let snap = live.snapshot();
    assert!(
        snap.counter(ObsCounter::NewtonIterations) > 0,
        "enabled recorder saw no Newton work; the kernel would time a no-op"
    );

    let mut run_plain = || {
        mc_point(put, variation, samples, 1, true);
    };
    let mut run_disabled = || {
        mc_point_obs(put, variation, samples, &Recorder::disabled());
    };
    let mut run_enabled = || {
        mc_point_obs(put, variation, samples, &Recorder::enabled());
    };
    // Warm-up round.
    run_plain();
    run_disabled();
    run_enabled();
    let plain_allocs = allocs_per_op(&mut run_plain);
    let disabled_allocs = allocs_per_op(&mut run_disabled);
    let enabled_allocs = allocs_per_op(&mut run_enabled);
    let mut pns = Vec::with_capacity(iters);
    let mut dns = Vec::with_capacity(iters);
    let mut ens = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        run_plain();
        pns.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        run_disabled();
        dns.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        run_enabled();
        ens.push(t.elapsed().as_nanos() as u64);
    }
    ObsOverheadResult {
        plain_ns: median(pns),
        plain_allocs,
        disabled_ns: median(dns),
        disabled_allocs,
        enabled_ns: median(ens),
        enabled_allocs,
    }
}

/// Prints the kernel-6 summary line and, unless `smoke`, writes
/// `BENCH_pr5.json` with the measured numbers and an honest MET / NOT MET
/// verdict on the ≤ 2 % disabled-path overhead contract.
fn report_obs_overhead(k6: &ObsOverheadResult, samples: usize, iters: usize, smoke: bool) {
    eprintln!(
        "obs_overhead: plain {} ns, disabled {} ns ({:+.2}%), enabled {} ns \
         ({:+.2}% vs disabled), allocs {} / {} / {}",
        k6.plain_ns,
        k6.disabled_ns,
        100.0 * k6.disabled_overhead(),
        k6.enabled_ns,
        100.0 * k6.enabled_overhead(),
        k6.plain_allocs,
        k6.disabled_allocs,
        k6.enabled_allocs
    );
    if smoke {
        return;
    }
    let disabled_met = k6.disabled_overhead() <= 0.02;
    let json = format!(
        "{{\n  \"pr\": 5,\n  \"description\": \"observability overhead on the 7-gate MC \
coverage kernel: plain hot path (recorder never touched) vs a per-sample installed-but-disabled \
recorder vs an enabled recorder (fork + retire per sample, the McConfig wiring); all three arms \
asserted bit-identical before timing\",\n  \
\"config\": {{\"w_in_s\": {W_IN:e}, \"r_point_ohm\": {R_POINT}, \"samples\": {samples}, \
\"iters\": {iters}, \"threads\": 1}},\n  \
\"mc_coverage_point_obs\": {{\"plain_median_ns\": {}, \"disabled_median_ns\": {}, \
\"enabled_median_ns\": {}, \"plain_allocs_per_op\": {}, \"disabled_allocs_per_op\": {}, \
\"enabled_allocs_per_op\": {}}},\n  \
\"disabled_overhead\": {{\"target_max\": 0.02, \"measured\": {:.4}, \"met\": {disabled_met}, \
\"note\": \"disabled recorder vs the plain hot path; one Option branch per instrumentation \
site plus per-sample fork/retire\"}},\n  \
\"enabled_overhead_vs_disabled\": {{\"measured\": {:.4}, \"note\": \"no target: the enabled \
recorder pays for atomics, monotonic clock reads and journal assembly by design\"}}\n}}\n",
        k6.plain_ns,
        k6.disabled_ns,
        k6.enabled_ns,
        k6.plain_allocs,
        k6.disabled_allocs,
        k6.enabled_allocs,
        k6.disabled_overhead(),
        k6.enabled_overhead()
    );
    std::fs::write("BENCH_pr5.json", &json).expect("write BENCH_pr5.json");
    eprintln!("wrote BENCH_pr5.json");
    if !disabled_met {
        eprintln!(
            "note: disabled-recorder overhead target (<= 2%) was not met on this \
             machine ({:+.2}%); the JSON records the measured value honestly rather \
             than failing the run",
            100.0 * k6.disabled_overhead()
        );
    }
}

/// One durable MC coverage-point run ([`McConfig::try_run_samples_durable`]),
/// optionally checkpointed, returning every sample's output width.
fn durable_mc_point(
    mc: &McConfig,
    put: &PathUnderTest,
    variation: &VariationModel,
    checkpoint: Option<&Checkpoint<f64>>,
) -> Vec<f64> {
    let run = mc
        .try_run_samples_durable(
            "bench",
            &CancelToken::new(),
            checkpoint,
            |_, _, rng, _, _| {
                let techs = variation.sample_techs(&put.tech, put.spec.len(), rng);
                let gen_factor = variation.sample_sensor(1.0, rng);
                let mut p = put.instantiate(&techs, R_POINT);
                p.pulse_width_out(W_IN * gen_factor, Polarity::PositiveGoing)
            },
        )
        .expect("durable mc point");
    assert!(run.is_complete(), "bench kernel must finish every sample");
    run.resolved_indexed().map(|(_, w)| *w).collect()
}

/// Kernel 7: checkpoint overhead on the 7-gate durable MC coverage point.
/// The checkpointed arm pays for one file creation plus one
/// append-and-flush per sample; each op writes a fresh file so every round
/// measures the worst case (nothing to resume, everything recorded). Both
/// arms are asserted bit-identical — to each other *and* to the plain
/// kernel-3 hot path — before timing.
fn checkpoint_overhead(
    put: &PathUnderTest,
    variation: &VariationModel,
    samples: usize,
    iters: usize,
) -> KernelResult {
    let mc = McConfig {
        threads: Some(1),
        ..McConfig::paper(samples, 2007)
    };
    let spec = CheckpointSpec {
        config_digest: 0xBE7C_0007,
        seed: 2007,
        samples,
    };
    let dir = std::env::temp_dir().join("pulsar-bench-ckpt");
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let mut seq = 0usize;
    let mut ckpt_op = || {
        seq += 1;
        let path = dir.join(format!("{}-{seq}.ckpt", std::process::id()));
        let ck = Checkpoint::create(&path, spec).expect("create checkpoint");
        let wouts = durable_mc_point(&mc, put, variation, Some(&ck));
        let _ = std::fs::remove_file(&path);
        wouts
    };

    let plain = mc_point(put, variation, samples, 1, true);
    let off = durable_mc_point(&mc, put, variation, None);
    let on = ckpt_op();
    let plain_bits: Vec<u64> = plain.iter().map(|w| w.to_bits()).collect();
    let off_bits: Vec<u64> = off.iter().map(|w| w.to_bits()).collect();
    let on_bits: Vec<u64> = on.iter().map(|w| w.to_bits()).collect();
    assert_eq!(
        plain_bits, off_bits,
        "durable entry point changed the MC results"
    );
    assert_eq!(off_bits, on_bits, "checkpointing changed the MC results");

    measure_pair(
        iters,
        || {
            durable_mc_point(&mc, put, variation, None);
        },
        || {
            ckpt_op();
        },
    )
}

/// Prints the kernel-7 summary line and, unless `smoke`, writes
/// `BENCH_pr6.json` with the measured numbers and an honest MET / NOT MET
/// verdict on the ≤ 2 % checkpoint-overhead contract.
fn report_checkpoint_overhead(k7: &KernelResult, samples: usize, iters: usize, smoke: bool) {
    // For this kernel the `KernelResult` arms are: baseline = durable run
    // without a checkpoint, reuse = durable run with a live checkpoint.
    let overhead = k7.reuse_ns as f64 / k7.baseline_ns as f64 - 1.0;
    eprintln!(
        "checkpoint_overhead: off {} ns, on {} ns ({:+.2}%), allocs {} -> {}",
        k7.baseline_ns,
        k7.reuse_ns,
        100.0 * overhead,
        k7.baseline_allocs,
        k7.reuse_allocs
    );
    if smoke {
        return;
    }
    let met = overhead <= 0.02;
    let json = format!(
        "{{\n  \"pr\": 6,\n  \"description\": \"checkpoint overhead on the 7-gate durable MC \
coverage kernel: the durable entry point with no checkpoint vs a live checkpoint file (create \
plus one append-and-flush per completed sample, fresh file per op so nothing resumes); both \
arms asserted bit-identical to each other and to the plain kernel-3 hot path before timing\",\n  \
\"config\": {{\"w_in_s\": {W_IN:e}, \"r_point_ohm\": {R_POINT}, \"samples\": {samples}, \
\"iters\": {iters}, \"threads\": 1}},\n  \
\"mc_coverage_point_durable\": {{\"checkpoint_off_median_ns\": {}, \
\"checkpoint_on_median_ns\": {}, \"checkpoint_off_allocs_per_op\": {}, \
\"checkpoint_on_allocs_per_op\": {}}},\n  \
\"checkpoint_overhead\": {{\"target_max\": 0.02, \"measured\": {:.4}, \"met\": {met}, \
\"note\": \"worst case: every sample is computed and recorded; a resumed run only gets \
cheaper as restored samples skip both the solve and the append\"}}\n}}\n",
        k7.baseline_ns, k7.reuse_ns, k7.baseline_allocs, k7.reuse_allocs, overhead
    );
    std::fs::write("BENCH_pr6.json", &json).expect("write BENCH_pr6.json");
    eprintln!("wrote BENCH_pr6.json");
    if !met {
        eprintln!(
            "note: checkpoint overhead target (<= 2%) was not met on this machine \
             ({:+.2}%); the JSON records the measured value honestly rather than \
             failing the run",
            100.0 * overhead
        );
    }
}

/// The kernel-9 scoreboard: wall clock plus the evaluation-count and
/// achieved-precision accounting pulled from the adaptive report.
struct AdaptiveKernel {
    /// Arms: baseline = fixed-budget sweep, reuse = adaptive engine.
    result: KernelResult,
    /// Requested CI half-width — what fixed N guarantees worst-case.
    precision: f64,
    /// `(sample, grid-point)` transient evaluations of the fixed arm.
    fixed_evals: u64,
    /// Evaluations the adaptive arm actually spent (both phases).
    adaptive_evals: u64,
    /// Of those, evaluations spent by the crossover-refinement pass.
    refine_evals: u64,
    /// Worst per-point achieved half-width of the fixed arm.
    worst_fixed_hw: f64,
    /// Worst per-point achieved half-width of the adaptive arm.
    worst_adaptive_hw: f64,
    /// Grid size and how its points stopped.
    points: usize,
    stopped_early: usize,
    refined: usize,
}

/// Kernel 9: the PR9 scoreboard — a full `DfStudy` coverage-curve sweep
/// over `r_points` log-spaced resistances × 3 clock factors on the dense
/// 8-gate chain, fixed `fixed_samples` per grid point vs the adaptive
/// engine asked for the worst-case (p̂ = 1/2) Wilson half-width the fixed
/// budget guarantees — so the adaptive arm cannot buy its savings with a
/// looser interval. Before timing: the adaptive sweep is asserted
/// bit-identical across 1 vs 2 threads, and every per-point
/// `{requested, achieved}` half-width is asserted from the *rendered*
/// obs manifest, parsed back with the crate's own JSON parser — the
/// record an operator actually sees, not in-memory state.
fn adaptive_mc_coverage(fixed_samples: usize, r_points: usize, iters: usize) -> AdaptiveKernel {
    let put = chain_put(8);
    let rs = log_sweep(1e3, 200e3, r_points);
    let factors = [0.9, 1.0, 1.1];
    let study = |threads: usize| {
        DfStudy::new(
            put.clone(),
            McConfig {
                threads: Some(threads),
                ..McConfig::paper(fixed_samples, 2007)
            },
        )
    };
    let s1 = study(1);
    let calib = s1.calibrate().expect("calibration");
    let n = fixed_samples as u64;
    let precision = IntervalRule::Wilson { z: 1.96 }
        .interval(n / 2, n)
        .halfwidth();
    // Reinvest only a slice of the phase-1 savings into refinement: the
    // full-savings default is budget-neutral (precision upgrade, no
    // speedup), while a small fraction keeps the crossover region
    // refined and banks the rest as a net solve reduction.
    let policy = AdaptivePolicy {
        refine_fraction: 0.15,
        ..AdaptivePolicy::new(precision, fixed_samples)
    };

    let report = s1
        .coverage_adaptive(&calib, &rs, &factors, &policy, None)
        .expect("adaptive sweep");
    // Determinism guard: stopping decisions are taken on ordered stream
    // prefixes, so the thread count must not change a single bit.
    let r2 = study(2)
        .coverage_adaptive(&calib, &rs, &factors, &policy, None)
        .expect("adaptive sweep at 2 threads");
    let fp = |r: &pulsar_core::AdaptiveReport| -> Vec<(u64, u64, u64, u64, bool)> {
        r.points
            .iter()
            .map(|p| {
                (
                    p.coverage.to_bits(),
                    p.interval.lo.to_bits(),
                    p.interval.hi.to_bits(),
                    p.accuracy.samples_spent,
                    p.accuracy.stopped_early,
                )
            })
            .collect()
    };
    assert_eq!(
        fp(&report),
        fp(&r2),
        "adaptive sweep diverged across thread counts"
    );

    // Fixed-budget reference arm: same grid, N samples everywhere; its
    // achieved half-width per point comes from the same interval rule.
    let fixed = s1.coverage(&calib, &rs, &factors).expect("fixed sweep");
    let mut worst_fixed_hw = 0.0f64;
    for c in &fixed {
        assert_eq!(c.unresolved, 0.0, "bench kernel must resolve every sample");
        for &cov in &c.coverage {
            let k = (cov * fixed_samples as f64).round() as u64;
            worst_fixed_hw = worst_fixed_hw.max(policy.interval(k, n).halfwidth());
        }
    }

    // Per-point achieved precision, asserted from the rendered manifest.
    let mut manifest = RunManifest::new("study", 0);
    manifest.adaptive = Some(report.to_manifest());
    let doc = pulsar_obs::json::parse(&manifest.render_json()).expect("manifest parses");
    let pts = match doc.get("adaptive").and_then(|a| a.get("points")) {
        Some(Json::Arr(pts)) => pts,
        _ => panic!("manifest lost the adaptive points block"),
    };
    assert_eq!(
        pts.len(),
        report.points.len(),
        "manifest must carry one record per grid point"
    );
    let mut worst_adaptive_hw = 0.0f64;
    for (j, p) in pts.iter().enumerate() {
        let req = p
            .get("requested_halfwidth")
            .and_then(Json::as_num)
            .expect("requested_halfwidth");
        let ach = p
            .get("achieved_halfwidth")
            .and_then(Json::as_num)
            .expect("achieved_halfwidth");
        let stopped = matches!(p.get("stopped_early"), Some(Json::Bool(true)));
        // f64 `Display` round-trips exactly, so the manifest must agree
        // with the in-memory report to the bit.
        assert_eq!(
            ach.to_bits(),
            report.points[j].accuracy.achieved_halfwidth.to_bits(),
            "manifest diverged from the report at point {j}"
        );
        if stopped {
            assert!(
                ach <= req,
                "point {j} claims an early stop at {ach} > requested {req}"
            );
        }
        worst_adaptive_hw = worst_adaptive_hw.max(ach);
    }

    let result = measure_pair(
        iters,
        || {
            s1.coverage(&calib, &rs, &factors).expect("fixed sweep");
        },
        || {
            s1.coverage_adaptive(&calib, &rs, &factors, &policy, None)
                .expect("adaptive sweep");
        },
    );

    AdaptiveKernel {
        result,
        precision,
        fixed_evals: report.fixed_budget_evals,
        adaptive_evals: report.evals,
        refine_evals: report.refine_evals,
        worst_fixed_hw,
        worst_adaptive_hw,
        points: report.points.len(),
        stopped_early: report
            .points
            .iter()
            .filter(|p| p.accuracy.stopped_early)
            .count(),
        refined: report.points.iter().filter(|p| p.refined).count(),
    }
}

/// Prints the kernel-9 summary lines and, unless `smoke`, writes
/// `BENCH_pr9.json` with the measured numbers and honest MET / NOT MET
/// verdicts on the ≥ 2× solve-reduction target at matched precision.
fn report_adaptive_mc(
    k9: &AdaptiveKernel,
    fixed_samples: usize,
    r_points: usize,
    iters: usize,
    smoke: bool,
) {
    let reduction = k9.fixed_evals as f64 / k9.adaptive_evals as f64;
    let speedup = k9.result.speedup();
    eprintln!(
        "adaptive_mc_coverage[{r_points}x3 grid, N={fixed_samples}]: fixed {} ns, adaptive {} ns \
         ({speedup:.2}x), evals {} -> {} ({reduction:.2}x fewer, {} spent refining)",
        k9.result.baseline_ns,
        k9.result.reuse_ns,
        k9.fixed_evals,
        k9.adaptive_evals,
        k9.refine_evals
    );
    eprintln!(
        "adaptive precision: requested hw {:.4}, worst achieved {:.4} (fixed arm {:.4}); \
         {} of {} points stopped early, {} refined",
        k9.precision,
        k9.worst_adaptive_hw,
        k9.worst_fixed_hw,
        k9.stopped_early,
        k9.points,
        k9.refined
    );
    if smoke {
        return;
    }
    let met_solves = reduction >= 2.0;
    let matched = k9.worst_adaptive_hw <= k9.precision;
    let json = format!(
        "{{\n  \"pr\": 9,\n  \"description\": \"adaptive sequential sampling: a full DfStudy \
coverage-curve sweep (log-spaced resistance grid x 3 clock factors on the dense 8-gate chain), \
fixed N samples per grid point vs Wilson early stopping over ordered stream prefixes with \
crossover refinement, at matched worst-case CI half-width; the adaptive arm asserted \
bit-identical across 1 vs 2 threads and every per-point achieved half-width asserted from the \
rendered obs manifest before timing\",\n  \
\"config\": {{\"chain_gates\": 8, \"r_points\": {r_points}, \"r_lo_ohm\": 1e3, \
\"r_hi_ohm\": 2e5, \"factors\": [0.9, 1.0, 1.1], \"fixed_samples\": {fixed_samples}, \
\"requested_halfwidth\": {:.6}, \"refine_fraction\": 0.15, \"iters\": {iters}, \
\"threads\": 1, \"seed\": 2007}},\n  \
\"coverage_curve_sweep\": {},\n  \
\"transient_solves\": {{\"fixed\": {}, \"adaptive\": {}, \"refinement\": {}, \
\"reduction\": {reduction:.3}, \"target_min\": 2.0, \"met\": {met_solves}}},\n  \
\"achieved_precision\": {{\"requested_halfwidth\": {:.6}, \
\"worst_adaptive_halfwidth\": {:.6}, \"worst_fixed_halfwidth\": {:.6}, \
\"matched_or_better\": {matched}, \"points\": {}, \"stopped_early\": {}, \
\"refined\": {}}},\n  \
\"note\": \"the requested half-width is the worst-case (p-hat = 1/2) Wilson interval a fixed \
N-sample estimate guarantees, so the adaptive arm is held to the fixed arm's precision \
contract; extreme-coverage points stop within a few chunks, attenuation-region points run to \
the cap, and the refinement pass reinvests refine_fraction of the savings into points \
straddling the coverage threshold or neighboring a crossover, at half the requested width\"\n}}\n",
        k9.precision,
        json_ab(&k9.result, "fixed", "adaptive"),
        k9.fixed_evals,
        k9.adaptive_evals,
        k9.refine_evals,
        k9.precision,
        k9.worst_adaptive_hw,
        k9.worst_fixed_hw,
        k9.points,
        k9.stopped_early,
        k9.refined
    );
    std::fs::write("BENCH_pr9.json", &json).expect("write BENCH_pr9.json");
    eprintln!("wrote BENCH_pr9.json");
    if !met_solves {
        eprintln!(
            "note: adaptive solve-reduction target (>= 2.0x) was not met on this machine \
             ({reduction:.2}x); the JSON records the measured value honestly rather than \
             failing the run"
        );
    }
}

/// The kernel-10 scoreboard: daemon round-trip latencies plus the
/// cache-effect evidence read back from the daemon's stats counters.
struct ServeKernel {
    /// baseline = cold submission (fresh digest, full compute);
    /// reuse = warm submission (identical digest, whole-result hit).
    result: KernelResult,
    /// Median one-shot `pulsar study` dispatch, for context.
    one_shot_ns: u64,
    /// Transient solves the daemon performed across the post-timing
    /// warm resubmissions (must be zero).
    warm_solves: u64,
    /// Whole-result cache hits the daemon reported at shutdown.
    result_cache_hits: u64,
}

/// Reads one counter out of the daemon's `stats` payload (absent means
/// the counter never fired, i.e. zero).
fn serve_stat(payload: &str, name: &str) -> u64 {
    let doc = pulsar_obs::json::parse(payload).expect("daemon stats must be valid JSON");
    doc.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_num)
        .unwrap_or(0.0) as u64
}

fn serve_solves(payload: &str) -> u64 {
    serve_stat(payload, "sparse_solves") + serve_stat(payload, "dense_solves")
}

fn df_spec(samples: usize, seed: u64) -> ServeJobSpec {
    ServeJobSpec::Study {
        kind: ServeStudyKind::Df,
        samples,
        seed,
        rs: vec![1e3, 30e3, 100e3],
        factors: vec![0.9, 1.1],
    }
}

/// Submits `spec` and blocks for the result text; panics on any
/// non-`done` outcome (a bench must not time a failure).
fn serve_round_trip(client: &mut ServeClient, spec: &ServeJobSpec) -> String {
    let (job, _digest, _cached) = client.submit(spec).expect("serve submit");
    let outcome = client.wait(job).expect("serve wait");
    assert_eq!(outcome.state, "done", "serve job {job} did not complete");
    outcome.result.expect("done job carries its result")
}

/// Kernel 10: cold vs warm repeated submission against an in-process
/// serve daemon, with the one-shot CLI as the bit-identity reference.
fn serve_submission(samples: usize, iters: usize) -> ServeKernel {
    const SEED: u64 = 2007;
    let dir = std::env::temp_dir().join(format!("pulsar-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("serve bench temp dir");
    let mut cfg = ServeConfig::new(dir.join("bench.sock"));
    cfg.workers = 2;
    let daemon = ServeDaemon::start(cfg).expect("start serve daemon");

    // One-shot CLI arm: the whole `pulsar study` dispatch, recomputing
    // everything per call — the workflow the daemon replaces.
    let cli_args: Vec<String> = [
        "study",
        "df",
        "--samples",
        &samples.to_string(),
        "--seed",
        "2007",
        "--r",
        "1e3,30e3,100e3",
        "--factors",
        "0.9,1.1",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let reference = pulsar_cli::dispatch(&cli_args).expect("one-shot study");
    let mut one_ns = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        let out = pulsar_cli::dispatch(&cli_args).expect("one-shot study");
        one_ns.push(t.elapsed().as_nanos() as u64);
        assert_eq!(out, reference, "one-shot study is not deterministic");
    }

    // Bit-identity gate before any daemon timing: the daemon's cold
    // answer for the same flags must equal the one-shot CLI byte for
    // byte (shared digest ⇒ same experiment ⇒ same bytes).
    let mut probe = ServeClient::connect(daemon.socket()).expect("connect probe client");
    let served = serve_round_trip(&mut probe, &df_spec(samples, SEED));
    assert_eq!(
        served, reference,
        "served result differs from the one-shot CLI"
    );

    // Cold arm: a fresh digest per round (seed varies), so every cache
    // misses and the study computes. Warm arm: the identical digest,
    // answered from the whole-result cache. Interleaved like every
    // other kernel.
    let mut cold_client = ServeClient::connect(daemon.socket()).expect("connect cold client");
    let mut warm_client = ServeClient::connect(daemon.socket()).expect("connect warm client");
    let mut next_seed = 31_000u64;
    let result = measure_pair(
        iters,
        move || {
            next_seed += 1;
            let _ = serve_round_trip(&mut cold_client, &df_spec(samples, next_seed));
        },
        move || {
            let text = serve_round_trip(&mut warm_client, &df_spec(samples, SEED));
            assert_eq!(text, reference, "warm hit returned different bytes");
        },
    );

    // Zero-solve evidence, from the daemon's own counters: three more
    // warm resubmissions may not add a single transient solve.
    let before = probe.stats().expect("stats before warm probes");
    for _ in 0..3 {
        let _ = serve_round_trip(&mut probe, &df_spec(samples, SEED));
    }
    let after = probe.stats().expect("stats after warm probes");
    let warm_solves = serve_solves(&after) - serve_solves(&before);
    let result_cache_hits = serve_stat(&after, "serve_result_cache_hits");

    probe.shutdown().expect("daemon shutdown");
    let summary = daemon.join().expect("daemon join");
    assert_eq!(summary.jobs_failed, 0, "bench jobs may not fail");
    let _ = std::fs::remove_dir_all(&dir);

    ServeKernel {
        result,
        one_shot_ns: median(one_ns),
        warm_solves,
        result_cache_hits,
    }
}

/// Prints the kernel-10 summary lines and, unless `smoke`, writes
/// `BENCH_pr10.json`.
fn report_serve(k: &ServeKernel, samples: usize, iters: usize, smoke: bool) {
    let speedup = k.result.speedup();
    let met = speedup >= 1.5;
    eprintln!(
        "serve_submission: cold {} ns, warm {} ns ({speedup:.2}x), one-shot CLI {} ns, \
         warm solves added {} (hits {})",
        k.result.baseline_ns, k.result.reuse_ns, k.one_shot_ns, k.warm_solves, k.result_cache_hits
    );
    assert_eq!(
        k.warm_solves, 0,
        "a warm identical-digest submission performed transient solves"
    );
    eprintln!(
        "serve warm-submission speedup: {speedup:.2}x (target >= 1.5x: {})",
        if met { "MET" } else { "NOT MET" }
    );
    if smoke {
        eprintln!("smoke run: skipping BENCH_pr10.json");
        return;
    }
    let json = format!(
        "{{\n  \"pr\": 10,\n  \"description\": \"serve daemon repeated-submission latency: an \
in-process pulsar-serve daemon over its Unix socket, cold submissions (fresh config digest per \
round, every cache misses) vs warm submissions (identical digest, whole-result cache hit), \
with the daemon's answer asserted byte-identical to the one-shot pulsar study CLI before \
timing and the warm arm asserted to add zero transient solves from the daemon's own stats \
counters\",\n  \
\"config\": {{\"kind\": \"df\", \"samples\": {samples}, \"r_points\": 3, \"factors\": 2, \
\"seed\": 2007, \"iters\": {iters}, \"workers\": 2}},\n  \
\"serve_submission\": {},\n  \
\"one_shot_cli\": {{\"median_ns\": {}}},\n  \
\"warm_zero_solves\": {{\"solves_added\": {}, \"result_cache_hits\": {}, \
\"bit_identical_to_cli\": true}},\n  \
\"speedup_target\": {{\"target\": 1.5, \"measured\": {speedup:.3}, \"met\": {met}}},\n  \
\"note\": \"cold pays the full study (lint preflight, calibration, N-sample Monte Carlo per \
grid point); warm pays one JSONL round trip over the socket plus a cache lookup, so the \
speedup is bounded by compute cost over socket latency and grows with job size; the honest \
one-shot CLI median is recorded for the end-to-end comparison the daemon replaces\"\n}}\n",
        json_ab(&k.result, "cold", "warm"),
        k.one_shot_ns,
        k.warm_solves,
        k.result_cache_hits
    );
    std::fs::write("BENCH_pr10.json", &json).expect("write BENCH_pr10.json");
    eprintln!("wrote BENCH_pr10.json");
    if !met {
        eprintln!(
            "note: serve warm-submission target (>= 1.5x) was not met on this machine \
             ({speedup:.2}x); the JSON records the measured value honestly rather than \
             failing the run"
        );
    }
}

/// Serializes one A/B kernel result with caller-chosen arm names.
fn json_ab(r: &KernelResult, a: &str, b: &str) -> String {
    format!(
        "{{\"{a}_median_ns\": {}, \"{b}_median_ns\": {}, \
         \"speedup\": {:.3}, \"{a}_allocs_per_op\": {}, \
         \"{b}_allocs_per_op\": {}}}",
        r.baseline_ns,
        r.reuse_ns,
        r.speedup(),
        r.baseline_allocs,
        r.reuse_allocs
    )
}

fn json_kernel(r: &KernelResult) -> String {
    json_ab(r, "baseline", "reuse")
}

/// A smoke regression guard on a ratio that must stay above `floor`:
/// prints the measured ratio and its bound whether it passes or not, so a
/// failed run says by how much.
fn guard_above(what: &str, ratio: f64, floor: f64) {
    eprintln!("smoke guard: {what} = {ratio:.3} (bound: > {floor})");
    assert!(
        ratio > floor,
        "smoke guard failed: {what} = {ratio:.3}, bound > {floor}"
    );
}

/// A smoke regression guard on a ratio that must stay below `ceiling`;
/// prints like [`guard_above`].
fn guard_below(what: &str, ratio: f64, ceiling: f64) {
    eprintln!("smoke guard: {what} = {ratio:.3} (bound: < {ceiling})");
    assert!(
        ratio < ceiling,
        "smoke guard failed: {what} = {ratio:.3}, bound < {ceiling}"
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let obs_only = std::env::args().any(|a| a == "--obs-only");
    let durable_only = std::env::args().any(|a| a == "--durable-only");
    let adaptive_only = std::env::args().any(|a| a == "--adaptive-only");
    let serve_only = std::env::args().any(|a| a == "--serve-only");
    let (samples, iters, mc_iters, thread_counts): (usize, usize, usize, Vec<usize>) = if smoke {
        (8, 3, 1, vec![1, 2])
    } else {
        (64, 15, 3, vec![1, 2, 4])
    };

    let put = rop_put();
    let variation = VariationModel::paper();

    // Kernel 6 gets its own iteration count: its per-op cost is small
    // enough that the shared `mc_iters` would leave the median noisy.
    let obs_iters = if smoke { 3 } else { 7 };

    // Kernel 9's own scale: the ISSUE's fixed N=200 reference on the full
    // 12-point sweep for the recorded run, a small grid for CI smoke.
    let (adaptive_samples, adaptive_r_points) = if smoke { (24, 4) } else { (200, 12) };

    if adaptive_only {
        eprintln!(
            "# kernel 9 only: adaptive vs fixed {adaptive_samples}-sample coverage sweep, \
             {adaptive_r_points}x3 grid ({mc_iters} iters)"
        );
        let k9 = adaptive_mc_coverage(adaptive_samples, adaptive_r_points, mc_iters);
        report_adaptive_mc(&k9, adaptive_samples, adaptive_r_points, mc_iters, smoke);
        if smoke {
            guard_above("adaptive vs fixed-budget speedup", k9.result.speedup(), 0.8);
        }
        return;
    }

    // Kernel 10's own scale: the cold arm recomputes a full 3x2-grid
    // study per round, so a handful of rounds is plenty of signal.
    let (serve_samples, serve_iters) = if smoke { (4, 2) } else { (24, 5) };

    if serve_only {
        eprintln!(
            "# kernel 10 only: serve cold vs warm {serve_samples}-sample submission \
             ({serve_iters} iters)"
        );
        let k10 = serve_submission(serve_samples, serve_iters);
        report_serve(&k10, serve_samples, serve_iters, smoke);
        if smoke {
            guard_above("warm vs cold serve speedup", k10.result.speedup(), 0.8);
        }
        return;
    }

    if obs_only {
        eprintln!("# kernel 6 only: observability overhead, {samples}-sample MC point ({obs_iters} iters)");
        let k6 = obs_overhead(&put, &variation, samples, obs_iters);
        report_obs_overhead(&k6, samples, obs_iters, smoke);
        return;
    }

    if durable_only {
        eprintln!("# kernel 7 only: checkpoint overhead, {samples}-sample durable MC point ({obs_iters} iters)");
        let k7 = checkpoint_overhead(&put, &variation, samples, obs_iters);
        report_checkpoint_overhead(&k7, samples, obs_iters, smoke);
        return;
    }

    eprintln!("# kernel 1: single transient ({iters} iters)");
    let k1 = single_transient(&put, iters);
    eprintln!(
        "single_transient: baseline {} ns, reuse {} ns ({:.2}x), allocs {} -> {}",
        k1.baseline_ns,
        k1.reuse_ns,
        k1.speedup(),
        k1.baseline_allocs,
        k1.reuse_allocs
    );

    eprintln!("# kernel 2: transfer-curve point ({iters} iters)");
    let (k2, warm_ns, warm_speedup) = transfer_point(&put, iters);
    eprintln!(
        "transfer_point: baseline {} ns, reuse {} ns ({:.2}x), warm {} ns ({:.2}x), allocs {} -> {}",
        k2.baseline_ns,
        k2.reuse_ns,
        k2.speedup(),
        warm_ns,
        warm_speedup,
        k2.baseline_allocs,
        k2.reuse_allocs
    );

    eprintln!("# kernel 3: {samples}-sample MC coverage point ({mc_iters} iters/thread-count)");
    let k3 = mc_coverage_point(&put, &variation, samples, &thread_counts, mc_iters);
    for t in &k3 {
        eprintln!(
            "mc_coverage_point[threads={}]: baseline {} ns, reuse {} ns ({:.2}x)",
            t.threads,
            t.result.baseline_ns,
            t.result.reuse_ns,
            t.result.speedup()
        );
    }

    let single_thread_speedup = k3
        .iter()
        .find(|t| t.threads == 1)
        .map(|t| t.result.speedup())
        .unwrap_or(0.0);
    let meets_target = single_thread_speedup >= 2.0;
    eprintln!(
        "mc coverage kernel speedup at 1 thread: {single_thread_speedup:.2}x \
         (target >= 2.0x: {})",
        if meets_target { "MET" } else { "NOT MET" }
    );

    // PULSAR_FORCE_DENSE=1 collapses the sparse arms onto the dense
    // engine (same check the solver latches on first read); the kernels
    // still run — asserting bitwise identity — but speedups are ~1.0 and
    // the ratio asserts/targets are skipped.
    let forced_dense = std::env::var("PULSAR_FORCE_DENSE")
        .map(|v| v == "1")
        .unwrap_or(false);
    if forced_dense {
        eprintln!("PULSAR_FORCE_DENSE=1: sparse arms run dense; asserting identity, not speed");
    }

    // 64 gates is past the ISSUE's 32-gate target point; it is measured
    // anyway because it shows where the sparse engine's win actually
    // starts (the 32-gate matrix factors with zero fill, so shared
    // device evaluation dominates both arms there — see DESIGN.md §5.4).
    let chain_sizes: [usize; 4] = [8, 16, 32, 64];
    eprintln!("# kernel 4: sparse vs dense single transient ({iters} iters)");
    let k4: Vec<(usize, KernelResult)> = chain_sizes
        .iter()
        .map(|&n| (n, sparse_transient(n, iters, forced_dense)))
        .collect();
    for (n, r) in &k4 {
        eprintln!(
            "sparse_single_transient[{n} gates]: dense {} ns, sparse {} ns ({:.2}x), allocs {} -> {}",
            r.baseline_ns,
            r.reuse_ns,
            r.speedup(),
            r.baseline_allocs,
            r.reuse_allocs
        );
    }

    let mc_chain = 32;
    eprintln!("# kernel 5: sparse {samples}-sample MC coverage point, {mc_chain}-gate chain, 1 thread ({mc_iters} iters)");
    let k5 = sparse_mc_coverage(mc_chain, &variation, samples, mc_iters, forced_dense);
    eprintln!(
        "sparse_mc_coverage[1 thread]: dense {} ns, sparse {} ns ({:.2}x)",
        k5.baseline_ns,
        k5.reuse_ns,
        k5.speedup()
    );

    let sparse32_speedup = k4
        .iter()
        .find(|(n, _)| *n == mc_chain)
        .map(|(_, r)| r.speedup())
        .unwrap_or(0.0);
    let sparse32_met = sparse32_speedup >= 2.0;
    let sparse_mc_speedup = k5.speedup();
    let sparse_mc_met = sparse_mc_speedup >= 1.5;
    if !forced_dense {
        eprintln!(
            "sparse 32-gate transient speedup: {sparse32_speedup:.2}x (target >= 2.0x: {})",
            if sparse32_met { "MET" } else { "NOT MET" }
        );
        eprintln!(
            "sparse MC coverage speedup at 1 thread: {sparse_mc_speedup:.2}x \
             (target >= 1.5x: {})",
            if sparse_mc_met { "MET" } else { "NOT MET" }
        );
    }

    eprintln!("# kernel 6: observability overhead, {samples}-sample MC point ({obs_iters} iters)");
    let k6 = obs_overhead(&put, &variation, samples, obs_iters);
    report_obs_overhead(&k6, samples, obs_iters, smoke);

    eprintln!(
        "# kernel 7: checkpoint overhead, {samples}-sample durable MC point ({obs_iters} iters)"
    );
    let k7 = checkpoint_overhead(&put, &variation, samples, obs_iters);
    report_checkpoint_overhead(&k7, samples, obs_iters, smoke);

    eprintln!(
        "# kernel 9: adaptive vs fixed {adaptive_samples}-sample coverage sweep, \
         {adaptive_r_points}x3 grid ({mc_iters} iters)"
    );
    let k9 = adaptive_mc_coverage(adaptive_samples, adaptive_r_points, mc_iters);
    report_adaptive_mc(&k9, adaptive_samples, adaptive_r_points, mc_iters, smoke);

    eprintln!(
        "# kernel 10: serve cold vs warm {serve_samples}-sample submission ({serve_iters} iters)"
    );
    let k10 = serve_submission(serve_samples, serve_iters);
    report_serve(&k10, serve_samples, serve_iters, smoke);

    if smoke {
        eprintln!("smoke run: skipping BENCH_pr4.json");
        // Regression guards, not the speedup aspirations: neither
        // optimized engine may be materially *slower* than what it
        // replaces. (The slack below 1.0 absorbs scheduler noise on
        // loaded CI runners; the full run records the real numbers in
        // the JSON.)
        guard_above(
            "workspace vs baseline engine speedup",
            single_thread_speedup,
            0.8,
        );
        if !forced_dense {
            guard_above(
                "sparse vs dense speedup on the 32-gate chain",
                sparse32_speedup,
                0.8,
            );
        }
        // Disabled-recorder overhead must stay within noise of the PR2/PR4
        // hot path (full runs record the real number in BENCH_pr5.json; the
        // slack absorbs scheduler noise on loaded CI runners), and an
        // enabled recorder must not blow past any reasonable bound.
        guard_below(
            "disabled-recorder / plain hot path time",
            k6.disabled_ns as f64 / k6.plain_ns as f64,
            1.25,
        );
        guard_below(
            "enabled / disabled recorder time",
            k6.enabled_ns as f64 / k6.disabled_ns as f64,
            2.0,
        );
        // Checkpointing must stay within noise of the checkpoint-free
        // durable run (the full run records the real number in
        // BENCH_pr6.json).
        guard_below(
            "checkpointed / checkpoint-free durable run time",
            k7.reuse_ns as f64 / k7.baseline_ns as f64,
            1.25,
        );
        // The adaptive engine saves whole samples, so even a smoke-sized
        // sweep must not run materially slower than the fixed budget.
        guard_above("adaptive vs fixed-budget speedup", k9.result.speedup(), 0.8);
        // A warm whole-result hit is a socket round trip; it must never
        // lose to a full recompute (the full run records the number in
        // BENCH_pr10.json).
        guard_above("warm vs cold serve speedup", k10.result.speedup(), 0.8);
        return;
    }

    let threads_json: Vec<String> = k3
        .iter()
        .map(|t| format!("\"{}\": {}", t.threads, json_kernel(&t.result)))
        .collect();
    let sparse_json: Vec<String> = k4
        .iter()
        .map(|(n, r)| format!("\"{}\": {}", n, json_ab(r, "dense", "sparse")))
        .collect();
    let json = format!(
        "{{\n  \"pr\": 4,\n  \"description\": \"hot-path solver benchmark: workspace-reusing \
engine vs preserved allocation-per-step baseline (bit-identical), and sparse MNA engine with \
cached symbolic factorization vs the dense reuse engine (within solver \
tolerance), same process, agreement asserted before timing\",\n  \
\"config\": {{\"w_in_s\": {W_IN:e}, \"r_point_ohm\": {R_POINT}, \"samples\": {samples}, \
\"iters\": {iters}, \"mc_iters\": {mc_iters}, \"forced_dense\": {forced_dense}}},\n  \
\"single_transient\": {},\n  \
\"transfer_point\": {},\n  \
\"transfer_point_warm_start\": {{\"median_ns\": {warm_ns}, \"speedup_vs_baseline\": {warm_speedup:.3}, \
\"note\": \"opt-in; equals cold solves within solver tolerance, not bitwise\"}},\n  \
\"mc_coverage_point\": {{\n    {}\n  }},\n  \
\"mc_speedup_target\": {{\"target\": 2.0, \"measured_1_thread\": {single_thread_speedup:.3}, \
\"met\": {meets_target}, \"note\": \"PR2 aspiration on the 7-gate paper path, dense reuse vs \
baseline; re-measured here\"}},\n  \
\"sparse_single_transient\": {{\n    {}\n  }},\n  \
\"sparse_mc_coverage_1_thread\": {},\n  \
\"sparse_speedup_targets\": {{\n    \
\"single_transient_32_gates\": {{\"target\": 2.0, \"measured\": {sparse32_speedup:.3}, \"met\": {sparse32_met}}},\n    \
\"mc_coverage_1_thread\": {{\"target\": 1.5, \"measured\": {sparse_mc_speedup:.3}, \"met\": {sparse_mc_met}}},\n    \
\"note\": \"the 32-gate chain (36 unknowns) factors with zero fill, so both engines are \
dominated by the shared device-evaluation/assembly cost and the dense zero-skipping LU is \
already near-optimal there; the sparse win starts at the 64-gate point (see \
sparse_single_transient) and grows with dimension\"\n  }}\n}}\n",
        json_kernel(&k1),
        json_kernel(&k2),
        threads_json.join(",\n    "),
        sparse_json.join(",\n    "),
        json_ab(&k5, "dense", "sparse")
    );
    std::fs::write("BENCH_pr4.json", &json).expect("write BENCH_pr4.json");
    eprintln!("wrote BENCH_pr4.json");
    for (name, met, measured) in [
        ("PR2 mc 2.0x", meets_target, single_thread_speedup),
        ("sparse 32-gate 2.0x", sparse32_met, sparse32_speedup),
        ("sparse mc 1.5x", sparse_mc_met, sparse_mc_speedup),
    ] {
        if !met && !forced_dense {
            eprintln!(
                "note: target {name} was not met on this machine ({measured:.2}x); \
                 the JSON records the measured value honestly rather than \
                 failing the run"
            );
        }
    }
}
