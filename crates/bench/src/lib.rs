#![warn(missing_docs)]
// Library code must surface failures as typed errors or documented
// panics, never ad-hoc unwraps; #[cfg(test)] modules opt back in.
#![warn(clippy::unwrap_used)]

//! # pulsar-bench
//!
//! Experiment harness regenerating every figure of *Favalli & Metra,
//! DATE 2007*, plus Criterion benches for the simulator kernels.
//!
//! Each `fig*` binary prints one figure's data as CSV to stdout (series
//! per column), with the experiment's parameters on `#`-prefixed header
//! lines. Sample counts are scaled by the `PULSAR_SAMPLES` environment
//! variable (or `--samples N`) so the same binaries serve quick smoke
//! runs and publication-scale sweeps. See `EXPERIMENTS.md` at the
//! repository root for the recorded paper-vs-measured comparison.

use pulsar_analog::Polarity;
use pulsar_cells::RopSite;
use pulsar_core::{DefectKind, McConfig, ModelFault, ModelPulseStudy, PathUnderTest};
use pulsar_logic::GateKind;
use pulsar_timing::{PathElement, PathTimingModel, TimingLibrary};

/// Shared experiment parameters, resolved from the environment/CLI.
#[derive(Debug, Clone, Copy)]
pub struct ExpParams {
    /// Monte Carlo sample count.
    pub samples: usize,
    /// Master seed.
    pub seed: u64,
}

impl ExpParams {
    /// Resolves parameters: `--samples N` / `--seed S` CLI flags override
    /// `PULSAR_SAMPLES` / `PULSAR_SEED`, which override the defaults.
    pub fn from_env(default_samples: usize) -> Self {
        let mut samples = std::env::var("PULSAR_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default_samples);
        let mut seed = std::env::var("PULSAR_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2007);
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i + 1 < args.len() {
            match args[i].as_str() {
                "--samples" => samples = args[i + 1].parse().unwrap_or(samples),
                "--seed" => seed = args[i + 1].parse().unwrap_or(seed),
                _ => {}
            }
            i += 1;
        }
        ExpParams { samples, seed }
    }

    /// Monte Carlo configuration at the paper's 10 % sigma.
    pub fn mc(&self) -> McConfig {
        McConfig::paper(self.samples, self.seed)
    }
}

/// The paper's §4 path: 7 gates, fan-out branch at the faulted stage.
pub fn paper_put(defect: DefectKind) -> PathUnderTest {
    PathUnderTest::paper(defect)
}

/// The external-ROP path under test used by Figs. 6/7 (the worst case for
/// the pulse method per §4).
pub fn rop_put() -> PathUnderTest {
    paper_put(DefectKind::ExternalRop)
}

/// The internal-ROP variant (Fig. 2 waveforms, ablations).
pub fn internal_rop_put() -> PathUnderTest {
    paper_put(DefectKind::InternalRop {
        site: RopSite::PullUp,
    })
}

/// The bridge path under test used by Figs. 8/9 (aggressor steady low).
pub fn bridge_put() -> PathUnderTest {
    paper_put(DefectKind::Bridge {
        aggressor_high: false,
    })
}

/// The logic-level counterpart of [`rop_put`] for a Fig. 7 pulse study
/// (the `ext_engine_ablation` model arm): seven inverters from `lib`, the
/// faulted stage also driving the dummy load, and an external ROP after
/// stage 1 charging a 13 fF branch.
pub fn model_rop_study(lib: &TimingLibrary, mc: McConfig) -> ModelPulseStudy {
    let gate = |fanout: usize| PathElement::Gate {
        model: lib.model(GateKind::Not, fanout),
        inverting: true,
        slow_rise: 0.0,
        slow_fall: 0.0,
    };
    let mut elements = vec![gate(1); 7];
    elements[1] = gate(2);
    ModelPulseStudy::new(
        PathTimingModel::new(elements),
        ModelFault::RcAfter {
            stage: 1,
            c_branch: 13e-15,
        },
        mc,
        Polarity::PositiveGoing,
    )
}

/// Logarithmic resistance sweep: `n` points from `lo` to `hi` inclusive.
pub fn log_sweep(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2 && lo > 0.0 && hi > lo, "need a non-degenerate sweep");
    (0..n)
        .map(|k| (lo.ln() + (hi.ln() - lo.ln()) * k as f64 / (n - 1) as f64).exp())
        .collect()
}

/// Prints one CSV row of floats with a leading label column.
pub fn csv_row(label: impl std::fmt::Display, values: &[f64]) {
    print!("{label}");
    for v in values {
        print!(",{v:.6e}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn log_sweep_endpoints_and_monotonicity() {
        let s = log_sweep(100.0, 10_000.0, 5);
        assert_eq!(s.len(), 5);
        assert!((s[0] - 100.0).abs() < 1e-9);
        assert!((s[4] - 10_000.0).abs() < 1e-6);
        for w in s.windows(2) {
            assert!(w[1] > w[0]);
        }
        // Log spacing: constant ratio.
        let r1 = s[1] / s[0];
        let r2 = s[3] / s[2];
        assert!((r1 - r2).abs() < 1e-9);
    }

    #[test]
    fn puts_have_the_paper_shape() {
        let p = rop_put();
        assert_eq!(p.spec.len(), 7);
        assert_eq!(p.stage, 1);
        assert_eq!(p.spec.fanout_loads[1], 1);
    }

    #[test]
    #[should_panic(expected = "non-degenerate")]
    fn degenerate_sweep_panics() {
        log_sweep(10.0, 10.0, 5);
    }
}
