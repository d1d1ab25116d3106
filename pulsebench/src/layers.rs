//! Per-layer totals read from the program's own recorder
//! (`McConfig.obs` / `Campaign.obs`) over the traced ops, host-normalised
//! with each op's reference sample, and turned into per-op metrics.

use pulsar_obs::{Counter, MetricsSnapshot, Phase};

/// Sums over the traced ops. Times are normalised nanoseconds.
#[derive(Default)]
pub struct LayerTotals {
    pub ops: f64,
    /// The traced ops' wall clock.
    pub op_ns: f64,
    /// Self time of the benchmark-side public-call spans (the op's time
    /// inside the program that no program span covers).
    pub call_self_ns: f64,
    /// Op time outside any public call.
    pub unattributed_ns: f64,
    pub transients: f64,
    pub steps: f64,
    pub lte_rejections: f64,
    pub newton_iters: f64,
    pub newton_solves: f64,
    pub newton_retries: f64,
    pub factorizations: f64,
    pub symbolic: f64,
    pub step_loop_ns: f64,
    pub newton_ns: f64,
    pub refactor_ns: f64,
    pub symbolic_ns: f64,
    pub sample_ns: f64,
    pub setup_ns: f64,
    pub samples: f64,
    pub retries: f64,
    pub saved: f64,
    pub refine: f64,
    pub sites_planned: f64,
    pub events: f64,
}

impl LayerTotals {
    /// Adds one traced op: its recorder snapshot, its normalisation
    /// `scale`, the wall clock and self time of its op span (raw
    /// nanoseconds; the self time is what no public-call span covers), and
    /// its journal event count.
    ///
    /// Fails if the recorder's phases do not fit inside the benchmark's
    /// spans: the outermost program phases (samples, study/campaign
    /// set-up) must fit in the public calls, and the step loops and Newton
    /// solves in those outermost phases. The op is not added then.
    pub fn add(
        &mut self,
        snap: &MetricsSnapshot,
        scale: f64,
        op_ns: u64,
        op_self_ns: u64,
        events: usize,
    ) -> Result<(), String> {
        let raw = |p: Phase| snap.span_ns(p);
        let calls = op_ns - op_self_ns;
        let outer = raw(Phase::McSample) + raw(Phase::StudySetup);
        if outer > calls {
            return Err(format!(
                "recorder phases mc_sample + study_setup ({outer} ns) exceed the public calls' \
                 spans ({calls} ns)"
            ));
        }
        for inner in [Phase::TransientStepLoop, Phase::NewtonSolve] {
            if raw(inner) > outer {
                return Err(format!(
                    "recorder phase {} ({} ns) exceeds mc_sample + study_setup ({outer} ns)",
                    inner.name(),
                    raw(inner)
                ));
            }
        }
        let c = |k: Counter| snap.counter(k) as f64;
        let ns = |p: Phase| raw(p) as f64 * scale;
        self.ops += 1.0;
        self.op_ns += op_ns as f64 * scale;
        self.unattributed_ns += op_self_ns as f64 * scale;
        // The calls' self time: what the outermost program phases leave
        // uncovered.
        self.call_self_ns += (calls - outer) as f64 * scale;
        self.transients += snap.span_count(Phase::TransientStepLoop) as f64;
        self.steps += c(Counter::StepsAccepted);
        self.lte_rejections += c(Counter::LteRejections);
        self.newton_iters += c(Counter::NewtonIterations);
        self.newton_solves += snap.span_count(Phase::NewtonSolve) as f64;
        self.newton_retries += c(Counter::NewtonRetries);
        // The dense engine factors once per Newton iteration; the sparse
        // one counts its numeric refactorisations.
        self.factorizations += c(Counter::DenseIterations) + c(Counter::NumericFactorizations);
        self.symbolic += c(Counter::SymbolicAnalyses);
        self.step_loop_ns += ns(Phase::TransientStepLoop);
        self.newton_ns += ns(Phase::NewtonSolve);
        self.refactor_ns += ns(Phase::NumericRefactorize);
        self.symbolic_ns += ns(Phase::SymbolicAnalysis);
        self.sample_ns += ns(Phase::McSample);
        self.setup_ns += ns(Phase::StudySetup);
        self.samples +=
            c(Counter::SamplesOk) + c(Counter::SamplesRecovered) + c(Counter::SamplesFailed);
        self.retries += c(Counter::RetryAttempts);
        self.saved += c(Counter::AdaptiveSamplesSaved);
        self.refine += c(Counter::AdaptiveRefineSamples);
        self.sites_planned += c(Counter::SitesPlanned);
        self.events += events as f64;
        Ok(())
    }

    /// The per-layer metrics, per op.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let per_op = |v: f64| v / self.ops.max(1.0);
        let ms = |ns: f64| per_op(ns) / 1e6;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        // Newton solves nest inside the step loop (transient points) or
        // sit beside it in the sample body (DC operating points); the
        // step loop's own share is what is left after its points' solves.
        let loop_newton_ns = self.newton_ns
            * ratio(
                self.steps + self.lte_rejections + self.newton_retries,
                self.newton_solves,
            )
            .min(1.0);
        let step_loop_ms = ms(self.step_loop_ns);
        let sample_self_ms = ms(self.sample_ns - self.step_loop_ns);
        let driver_self_ms = ms(self.call_self_ns);
        let unattributed_ms = ms(self.unattributed_ns);
        vec![
            ("analog.transients_per_op", per_op(self.transients)),
            (
                "analog.steps_per_transient",
                ratio(self.steps, self.transients),
            ),
            (
                "analog.lte_reject_ratio",
                ratio(self.lte_rejections, self.steps + self.lte_rejections),
            ),
            (
                "analog.newton_iters_per_step",
                ratio(self.newton_iters, self.newton_solves),
            ),
            ("analog.newton_retries_per_op", per_op(self.newton_retries)),
            ("analog.factorizations_per_op", per_op(self.factorizations)),
            ("analog.symbolic_analyses_per_op", per_op(self.symbolic)),
            ("analog.step_loop_ms", step_loop_ms),
            (
                "analog.step_loop_self_ms",
                ms((self.step_loop_ns - loop_newton_ns).max(0.0)),
            ),
            (
                "analog.newton_self_ms",
                ms((self.newton_ns - self.refactor_ns - self.symbolic_ns).max(0.0)),
            ),
            ("analog.refactor_ms", ms(self.refactor_ns)),
            ("cells.sample_self_ms", sample_self_ms),
            ("mc.samples_per_op", per_op(self.samples)),
            ("mc.retry_ratio", ratio(self.retries, self.samples)),
            ("mc.samples_saved_per_op", per_op(self.saved)),
            ("mc.refine_samples_per_op", per_op(self.refine)),
            ("mc.driver_self_ms", driver_self_ms),
            ("logic.sites_planned", per_op(self.sites_planned)),
            ("logic.site_enum_ms", ms(self.setup_ns)),
            ("obs.journal_events_per_op", per_op(self.events)),
            ("trace.unattributed_ms", unattributed_ms),
            ("trace.op_ms", ms(self.op_ns)),
        ]
    }
}
