//! Sharded metrics: named counters, log2-bucket histograms, and span totals.
//!
//! A [`Shard`](crate::recorder::Recorder) owner increments relaxed atomics;
//! snapshots sum shards in arbitrary order, so a merged
//! [`MetricsSnapshot`] is independent of how work was split across threads
//! (addition is commutative and every increment is a plain `+=`).

use shard_proto::{add as proto_add, fold_slice, load_slice, SHARD_ORDERINGS};
use std::sync::atomic::AtomicU64;

/// The shard merge protocol, shared with the `pulsar-check` model checker.
///
/// A `Shard` owner bumps relaxed counters; retiring folds a shard into
/// an accumulator under the registry mutex; snapshots sum shards in
/// arbitrary order. These free functions — generic over the atomics
/// family — *are* that protocol: production calls them with real
/// `std` atomics (below), `pulsar-check` calls them with modeled atomics
/// and explores the interleavings bounded-exhaustively (DESIGN.md §5.8,
/// protocol model P1). The orderings live in one shared
/// [`SHARD_ORDERINGS`] value so the explorer checks what ships.
pub mod shard_proto {
    use crate::sync::AtomicU64Like;
    use std::sync::atomic::Ordering;

    /// The memory orderings the shard protocol ships with.
    #[derive(Debug, Clone, Copy)]
    pub struct ShardOrderings {
        /// Ordering of an owner's counter increment.
        pub add: Ordering,
        /// Ordering of the source-side load when folding a retired shard.
        pub merge_read: Ordering,
        /// Ordering of the destination-side add when folding.
        pub merge_add: Ordering,
        /// Ordering of a snapshot's read of a live shard.
        pub snapshot_read: Ordering,
    }

    /// Shipped orderings: everything `Relaxed`.
    ///
    /// Cross-thread visibility of counts is provided by the registry
    /// mutex (retire and snapshot both run under it), so the cells
    /// themselves need only atomicity: increments are RMWs that can
    /// never lose updates, and sums are commutative, which makes merged
    /// snapshots independent of thread count. The `pulsar-check`
    /// mutation self-test proves the explorer catches the protocol
    /// breaking when that lock synchronization is weakened.
    pub const SHARD_ORDERINGS: ShardOrderings = ShardOrderings {
        add: Ordering::Relaxed, // ordering: atomic RMW; mutex publishes, sums commute
        merge_read: Ordering::Relaxed, // ordering: runs under the registry mutex
        merge_add: Ordering::Relaxed, // ordering: runs under the registry mutex
        snapshot_read: Ordering::Relaxed, // ordering: runs under the registry mutex
    };

    /// One owner-side counter increment.
    #[inline]
    pub fn add<A: AtomicU64Like>(cell: &A, n: u64, ord: &ShardOrderings) {
        cell.fetch_add(n, ord.add);
    }

    /// Folds `src` into `dst` cell-by-cell (retiring a shard). Totals are
    /// preserved exactly because both sides are atomic adds.
    pub fn fold_slice<A: AtomicU64Like>(src: &[A], dst: &[A], ord: &ShardOrderings) {
        for (s, d) in src.iter().zip(dst) {
            d.fetch_add(s.load(ord.merge_read), ord.merge_add);
        }
    }

    /// Adds `src`'s current values into a plain snapshot buffer.
    pub fn load_slice<A: AtomicU64Like>(src: &[A], dst: &mut [u64], ord: &ShardOrderings) {
        for (s, d) in src.iter().zip(dst) {
            *d += s.load(ord.snapshot_read);
        }
    }
}

/// Number of log2 buckets per histogram. Bucket `b > 0` covers values in
/// `[2^(b-1), 2^b)`; bucket `0` covers `{0, 1}` (values of 0 and 1 both
/// land there). 32 buckets cover every nanosecond duration up to ~2 s and
/// every iteration count the solver can produce.
pub const HIST_BUCKETS: usize = 32;

/// Scalar event counters, in canonical rendering order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Newton solves dispatched to the sparse engine.
    SparseSolves,
    /// Newton solves run by the dense engine (including fallbacks).
    DenseSolves,
    /// Newton iterations executed by the dense engine.
    DenseIterations,
    /// Newton iterations executed by any engine.
    NewtonIterations,
    /// Fresh symbolic analyses (maximum transversal + ordering + pattern).
    SymbolicAnalyses,
    /// Numeric LU refactorizations on a cached symbolic pattern.
    NumericFactorizations,
    /// Sparse attempts abandoned to the dense engine.
    DenseFallbacks,
    /// Transient time points accepted (step-budget spend).
    StepsAccepted,
    /// Transient steps rejected by local-truncation-error control. No
    /// engine has one since the step controller was removed, so it reads
    /// 0; it stays only because the benchmark's `analog.lte_reject_ratio`
    /// still reads it, and goes with that metric.
    LteRejections,
    /// Transient steps retried after a Newton failure.
    NewtonRetries,
    /// Monte Carlo samples that succeeded on the first attempt.
    SamplesOk,
    /// Monte Carlo samples that succeeded after at least one retry.
    SamplesRecovered,
    /// Monte Carlo samples that exhausted their attempts.
    SamplesFailed,
    /// Extra Monte Carlo attempts beyond the first, across all samples.
    RetryAttempts,
    /// Campaign sites that produced a test plan.
    SitesPlanned,
    /// Campaign sites with no sensitizable path.
    SitesUnsensitizable,
    /// Campaign sites whose electrical analysis failed.
    SitesFailed,
    /// Per-point sample evaluations the adaptive stopping rule *skipped*
    /// relative to the fixed budget (fixed-budget evals − evals spent).
    AdaptiveSamplesSaved,
    /// Sample evaluations spent in the crossover-refinement pass.
    AdaptiveRefineSamples,
    /// Coverage-row columns a Monte Carlo instance was simulated at.
    ColumnsSimulated,
    /// Coverage-row columns whose verdict was inferred from the simulated
    /// columns on both sides instead of simulated.
    ColumnsInferred,
    /// Delay queries that stopped at their verdict bound, the delay
    /// proven to fail every test period instead of measured.
    DelaysCensored,
    /// Second transition edges not simulated because the first one's
    /// censored delay already decided the slack need's verdicts.
    EdgesSkipped,
    /// Jobs accepted into the serve daemon's queue.
    ServeJobsSubmitted,
    /// Serve jobs that ran to completion.
    ServeJobsCompleted,
    /// Serve jobs that failed (budget exceeded, lint rejection, ...).
    ServeJobsFailed,
    /// Serve jobs cancelled before or during execution.
    ServeJobsCancelled,
    /// Submissions rejected with `busy` because the queue was full.
    ServeBusyRejections,
    /// Submissions rejected because the tenant's failure budget ran out.
    ServeTenantRejections,
    /// Submissions answered from the whole-result cache (zero solves).
    ServeResultCacheHits,
    /// Submissions that had to execute (result-cache miss).
    ServeResultCacheMisses,
    /// Jobs that adopted a cached calibration instead of re-calibrating.
    ServeCalibCacheHits,
}

impl Counter {
    /// Number of counters.
    pub const COUNT: usize = 32;

    /// Every counter, in canonical order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::SparseSolves,
        Counter::DenseSolves,
        Counter::DenseIterations,
        Counter::NewtonIterations,
        Counter::SymbolicAnalyses,
        Counter::NumericFactorizations,
        Counter::DenseFallbacks,
        Counter::StepsAccepted,
        Counter::LteRejections,
        Counter::NewtonRetries,
        Counter::SamplesOk,
        Counter::SamplesRecovered,
        Counter::SamplesFailed,
        Counter::RetryAttempts,
        Counter::SitesPlanned,
        Counter::SitesUnsensitizable,
        Counter::SitesFailed,
        Counter::AdaptiveSamplesSaved,
        Counter::AdaptiveRefineSamples,
        Counter::ColumnsSimulated,
        Counter::ColumnsInferred,
        Counter::DelaysCensored,
        Counter::EdgesSkipped,
        Counter::ServeJobsSubmitted,
        Counter::ServeJobsCompleted,
        Counter::ServeJobsFailed,
        Counter::ServeJobsCancelled,
        Counter::ServeBusyRejections,
        Counter::ServeTenantRejections,
        Counter::ServeResultCacheHits,
        Counter::ServeResultCacheMisses,
        Counter::ServeCalibCacheHits,
    ];

    /// Stable snake_case name used in JSON output and journal events.
    pub fn name(self) -> &'static str {
        match self {
            Counter::SparseSolves => "sparse_solves",
            Counter::DenseSolves => "dense_solves",
            Counter::DenseIterations => "dense_iterations",
            Counter::NewtonIterations => "newton_iterations",
            Counter::SymbolicAnalyses => "symbolic_analyses",
            Counter::NumericFactorizations => "numeric_factorizations",
            Counter::DenseFallbacks => "dense_fallbacks",
            Counter::StepsAccepted => "steps_accepted",
            Counter::LteRejections => "lte_rejections",
            Counter::NewtonRetries => "newton_retries",
            Counter::SamplesOk => "samples_ok",
            Counter::SamplesRecovered => "samples_recovered",
            Counter::SamplesFailed => "samples_failed",
            Counter::RetryAttempts => "retry_attempts",
            Counter::SitesPlanned => "sites_planned",
            Counter::SitesUnsensitizable => "sites_unsensitizable",
            Counter::SitesFailed => "sites_failed",
            Counter::AdaptiveSamplesSaved => "adaptive_samples_saved",
            Counter::AdaptiveRefineSamples => "adaptive_refine_samples",
            Counter::ColumnsSimulated => "columns_simulated",
            Counter::ColumnsInferred => "columns_inferred",
            Counter::DelaysCensored => "delays_censored",
            Counter::EdgesSkipped => "edges_skipped",
            Counter::ServeJobsSubmitted => "serve_jobs_submitted",
            Counter::ServeJobsCompleted => "serve_jobs_completed",
            Counter::ServeJobsFailed => "serve_jobs_failed",
            Counter::ServeJobsCancelled => "serve_jobs_cancelled",
            Counter::ServeBusyRejections => "serve_busy_rejections",
            Counter::ServeTenantRejections => "serve_tenant_rejections",
            Counter::ServeResultCacheHits => "serve_result_cache_hits",
            Counter::ServeResultCacheMisses => "serve_result_cache_misses",
            Counter::ServeCalibCacheHits => "serve_calib_cache_hits",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Hot phases timed by spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Fresh symbolic analysis of the MNA pattern.
    SymbolicAnalysis,
    /// Numeric refactorization on a cached symbolic pattern.
    NumericRefactorize,
    /// One full Newton solve (any engine).
    NewtonSolve,
    /// The transient time-step loop of one simulation.
    TransientStepLoop,
    /// One Monte Carlo sample body (all attempts).
    McSample,
    /// Study or campaign setup (lint preflight, site enumeration).
    StudySetup,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 6;

    /// Every phase, in canonical order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::SymbolicAnalysis,
        Phase::NumericRefactorize,
        Phase::NewtonSolve,
        Phase::TransientStepLoop,
        Phase::McSample,
        Phase::StudySetup,
    ];

    /// Stable snake_case name used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Phase::SymbolicAnalysis => "symbolic_analysis",
            Phase::NumericRefactorize => "numeric_refactorize",
            Phase::NewtonSolve => "newton_solve",
            Phase::TransientStepLoop => "transient_step_loop",
            Phase::McSample => "mc_sample",
            Phase::StudySetup => "study_setup",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Histogram identifier: one duration histogram per phase plus the Newton
/// iterations-per-solve distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HistId {
    /// Span duration in nanoseconds for a phase.
    PhaseNs(Phase),
    /// Newton iterations per solve (any engine).
    NewtonItersPerSolve,
}

/// Total number of histograms.
pub(crate) const HIST_COUNT: usize = Phase::COUNT + 1;

impl HistId {
    /// Every histogram, in canonical order.
    pub const ALL: [HistId; HIST_COUNT] = [
        HistId::PhaseNs(Phase::SymbolicAnalysis),
        HistId::PhaseNs(Phase::NumericRefactorize),
        HistId::PhaseNs(Phase::NewtonSolve),
        HistId::PhaseNs(Phase::TransientStepLoop),
        HistId::PhaseNs(Phase::McSample),
        HistId::PhaseNs(Phase::StudySetup),
        HistId::NewtonItersPerSolve,
    ];

    /// Stable snake_case name used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            HistId::PhaseNs(Phase::SymbolicAnalysis) => "symbolic_analysis_ns",
            HistId::PhaseNs(Phase::NumericRefactorize) => "numeric_refactorize_ns",
            HistId::PhaseNs(Phase::NewtonSolve) => "newton_solve_ns",
            HistId::PhaseNs(Phase::TransientStepLoop) => "transient_step_loop_ns",
            HistId::PhaseNs(Phase::McSample) => "mc_sample_ns",
            HistId::PhaseNs(Phase::StudySetup) => "study_setup_ns",
            HistId::NewtonItersPerSolve => "newton_iters_per_solve",
        }
    }

    fn index(self) -> usize {
        match self {
            HistId::PhaseNs(p) => p.index(),
            HistId::NewtonItersPerSolve => Phase::COUNT,
        }
    }
}

/// Log2 bucket for a value: 0 and 1 land in bucket 0, otherwise
/// `floor(log2(v)) + 1`, saturating at the last bucket.
pub(crate) fn bucket_of(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// One thread's (or one sample's) private slice of the registry: plain
/// relaxed atomics, no locks on the increment path.
pub(crate) struct Shard {
    counters: [AtomicU64; Counter::COUNT],
    hist: [AtomicU64; HIST_COUNT * HIST_BUCKETS],
    span_ns: [AtomicU64; Phase::COUNT],
    span_count: [AtomicU64; Phase::COUNT],
}

impl Shard {
    pub(crate) fn new() -> Shard {
        Shard {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hist: std::array::from_fn(|_| AtomicU64::new(0)),
            span_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            span_count: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    pub(crate) fn add(&self, c: Counter, n: u64) {
        proto_add(&self.counters[c.index()], n, &SHARD_ORDERINGS);
    }

    pub(crate) fn record(&self, h: HistId, value: u64) {
        let slot = h.index() * HIST_BUCKETS + bucket_of(value);
        proto_add(&self.hist[slot], 1, &SHARD_ORDERINGS);
    }

    pub(crate) fn span_done(&self, p: Phase, ns: u64) {
        proto_add(&self.span_ns[p.index()], ns, &SHARD_ORDERINGS);
        proto_add(&self.span_count[p.index()], 1, &SHARD_ORDERINGS);
        self.record(HistId::PhaseNs(p), ns);
    }

    /// Adds this shard's totals into `dst` (used when retiring a shard).
    /// Runs under the registry mutex, which provides the cross-thread
    /// visibility edge (see [`shard_proto`]).
    pub(crate) fn fold_into(&self, dst: &Shard) {
        fold_slice(&self.counters, &dst.counters, &SHARD_ORDERINGS);
        fold_slice(&self.hist, &dst.hist, &SHARD_ORDERINGS);
        fold_slice(&self.span_ns, &dst.span_ns, &SHARD_ORDERINGS);
        fold_slice(&self.span_count, &dst.span_count, &SHARD_ORDERINGS);
    }

    /// Adds this shard's totals into a snapshot. Runs under the registry
    /// mutex (see [`shard_proto`]).
    pub(crate) fn load_into(&self, snap: &mut MetricsSnapshot) {
        load_slice(&self.counters, &mut snap.counters, &SHARD_ORDERINGS);
        load_slice(&self.hist, &mut snap.hist, &SHARD_ORDERINGS);
        load_slice(&self.span_ns, &mut snap.span_ns, &SHARD_ORDERINGS);
        load_slice(&self.span_count, &mut snap.span_count, &SHARD_ORDERINGS);
    }
}

/// A point-in-time sum over every shard of a registry. Plain values; safe
/// to hold, diff, and render after the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: [u64; Counter::COUNT],
    hist: [u64; HIST_COUNT * HIST_BUCKETS],
    span_ns: [u64; Phase::COUNT],
    span_count: [u64; Phase::COUNT],
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot {
            counters: [0; Counter::COUNT],
            hist: [0; HIST_COUNT * HIST_BUCKETS],
            span_ns: [0; Phase::COUNT],
            span_count: [0; Phase::COUNT],
        }
    }
}

impl MetricsSnapshot {
    /// Value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// The 32 log2 buckets of one histogram.
    pub fn histogram(&self, h: HistId) -> [u64; HIST_BUCKETS] {
        let base = h.index() * HIST_BUCKETS;
        std::array::from_fn(|b| self.hist[base + b])
    }

    /// Total observations recorded in one histogram.
    pub fn histogram_count(&self, h: HistId) -> u64 {
        self.histogram(h).iter().sum()
    }

    /// Total nanoseconds spent in a phase across all spans.
    pub fn span_ns(&self, p: Phase) -> u64 {
        self.span_ns[p.index()]
    }

    /// Number of spans recorded for a phase.
    pub fn span_count(&self, p: Phase) -> u64 {
        self.span_count[p.index()]
    }

    /// Counters with non-zero values, in canonical order — the compact
    /// form embedded in journal events.
    pub fn nonzero_counters(&self) -> Vec<(&'static str, u64)> {
        Counter::ALL
            .iter()
            .filter(|c| self.counter(**c) > 0)
            .map(|c| (c.name(), self.counter(*c)))
            .collect()
    }

    /// Element-wise difference (`self - earlier`), saturating at zero.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for (d, e) in out.counters.iter_mut().zip(&earlier.counters) {
            *d = d.saturating_sub(*e);
        }
        for (d, e) in out.hist.iter_mut().zip(&earlier.hist) {
            *d = d.saturating_sub(*e);
        }
        for (d, e) in out.span_ns.iter_mut().zip(&earlier.span_ns) {
            *d = d.saturating_sub(*e);
        }
        for (d, e) in out.span_count.iter_mut().zip(&earlier.span_count) {
            *d = d.saturating_sub(*e);
        }
        out
    }

    /// Renders the snapshot as a single-line JSON object with a fixed key
    /// order: every counter (zeros included, so the key set is stable for
    /// schema validation), then per-phase span totals, then histograms as
    /// full 32-bucket arrays.
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\"counters\":{");
        for (i, c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", c.name(), self.counter(*c));
        }
        out.push_str("},\"spans\":{");
        for (i, p) in Phase::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"total_ns\":{}}}",
                p.name(),
                self.span_count(*p),
                self.span_ns(*p)
            );
        }
        out.push_str("},\"histograms\":{");
        for (i, h) in HistId::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":[", h.name());
            for (b, v) in self.histogram(*h).iter().enumerate() {
                if b > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{v}");
            }
            out.push(']');
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn counter_names_match_canonical_order() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{}", c.name());
        }
        for (i, h) in HistId::ALL.iter().enumerate() {
            assert_eq!(h.index(), i, "{}", h.name());
        }
    }

    #[test]
    fn fold_equals_load() {
        let a = Shard::new();
        let b = Shard::new();
        a.add(Counter::SparseSolves, 3);
        a.record(HistId::NewtonItersPerSolve, 5);
        a.span_done(Phase::NewtonSolve, 1200);
        b.add(Counter::SparseSolves, 4);
        let mut direct = MetricsSnapshot::default();
        a.load_into(&mut direct);
        b.load_into(&mut direct);
        let folded = Shard::new();
        a.fold_into(&folded);
        b.fold_into(&folded);
        let mut via_fold = MetricsSnapshot::default();
        folded.load_into(&mut via_fold);
        assert_eq!(direct, via_fold);
        assert_eq!(direct.counter(Counter::SparseSolves), 7);
        assert_eq!(direct.span_count(Phase::NewtonSolve), 1);
    }
}
