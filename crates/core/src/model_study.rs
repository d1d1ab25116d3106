//! The pulse-coverage study on the **logic-level engine** — the same
//! methodology as [`PulseStudy`](crate::PulseStudy) but with
//! [`ModelPath`] instances instead of transistor-level transients.
//! Orders of magnitude faster, so whole-circuit campaigns can afford
//! Monte Carlo; `tests/cross_engine.rs` and the `ext_engine_ablation`
//! experiment check it tracks the electrical reference.

use crate::adaptive::AdaptiveGrid;
use crate::calib::{calibrate_pulse, PulseCalibration};
use crate::durable::Completeness;
use crate::engine::{ModelFault, ModelPath, PathInstance};
use crate::error::CoreError;
use crate::study::{CoverageCurve, McConfig};
use crate::transfer::TransferCurve;
use pulsar_analog::Polarity;
use pulsar_mc::Gaussian;
use pulsar_timing::{PathElement, PathTimingModel};
use rand::rngs::StdRng;

/// Pulse study on the logic-level engine.
#[derive(Debug, Clone)]
pub struct ModelPulseStudy {
    /// Healthy path model (per-stage Monte Carlo scaling is applied to
    /// its gate elements).
    pub healthy: PathTimingModel,
    /// Defect mapping swept by the study.
    pub fault: ModelFault,
    /// Monte Carlo setup.
    pub mc: McConfig,
    /// Injected pulse polarity.
    pub polarity: Polarity,
    /// Slope tolerance for the region-3 knee.
    pub region_tol: f64,
    /// Relative guard above the knee for `ω_in`. [`ModelPulseStudy::new`]
    /// sets `1 / f_min − 1`, where `f_min = max(1 − 4σ, 0.05)` is the
    /// narrowest generator-width factor a Monte Carlo instance can draw:
    /// every drawn pulse, `f·ω_in ≥ knee`, then starts at or past the
    /// nominal knee (2/3 at the paper's σ = 10 %).
    pub guard: f64,
    /// Sensor-variation margin for `ω_th⁰`.
    pub sensor_margin: f64,
    /// Transfer sweep `(w_lo, w_hi, points)`.
    pub sweep: (f64, f64, usize),
}

/// The smallest factor the model studies' draws can produce at `sigma`:
/// the lower end of their ±4σ clamp.
fn factor_floor(sigma: f64) -> f64 {
    (1.0 - 4.0 * sigma).max(0.05)
}

impl ModelPulseStudy {
    /// A study with the paper's margins.
    pub fn new(
        healthy: PathTimingModel,
        fault: ModelFault,
        mc: McConfig,
        polarity: Polarity,
    ) -> Self {
        let sigma = mc.variation.sigma;
        ModelPulseStudy {
            healthy,
            fault,
            mc,
            polarity,
            region_tol: 0.08,
            // The model's filtering knee is sharper than the electrical
            // one (per-stage attenuation compounds linearly), so a pulse
            // drawn narrower than the knee is dampened outright and the
            // calibration has no threshold left.
            guard: 1.0 / factor_floor(sigma) - 1.0,
            sensor_margin: 1.1,
            sweep: (60e-12, 1.6e-9, 60),
        }
    }

    fn gate_count(&self) -> usize {
        self.healthy
            .elements()
            .iter()
            .filter(|e| matches!(e, PathElement::Gate { .. }))
            .count()
    }

    /// One Monte Carlo instance of the healthy model plus the generator
    /// width factor — same draw order for calibration and coverage runs.
    fn draw(&self, rng: &mut StdRng) -> (PathTimingModel, f64) {
        let sigma = self.mc.variation.sigma;
        let g = Gaussian::new(1.0, sigma);
        let lo = factor_floor(sigma);
        let hi = 1.0 + 4.0 * sigma;
        let factors: Vec<f64> = (0..self.gate_count())
            .map(|_| g.sample_clamped(rng, lo, hi))
            .collect();
        let gen_factor = g.sample_clamped(rng, lo, hi);
        (self.healthy.with_stage_factors(&factors), gen_factor)
    }

    /// The nominal fault-free transfer curve.
    ///
    /// # Errors
    ///
    /// Rejects degenerate sweeps.
    pub fn nominal_curve(&self) -> Result<TransferCurve, CoreError> {
        let mut p = ModelPath::new(self.healthy.clone(), None, 0.0);
        let (lo, hi, n) = self.sweep;
        TransferCurve::measure(&mut p, self.polarity, lo, hi, n)
    }

    /// Fault-free output widths over the Monte Carlo sample at `w_in`.
    ///
    /// # Errors
    ///
    /// Propagates engine failures.
    pub fn fault_free_wouts(&self, w_in: f64) -> Result<Vec<f64>, CoreError> {
        let mc = self.mc.driver();
        mc.run(move |_, rng| {
            let (inst, gen_factor) = self.draw(rng);
            let mut p = ModelPath::new(inst, None, 0.0);
            p.pulse_width_out(w_in * gen_factor, self.polarity)
        })
        .into_iter()
        .collect()
    }

    /// Calibrates `(ω_in⁰, ω_th⁰)` per the paper's rule.
    ///
    /// # Errors
    ///
    /// Fails when no asymptotic region exists or a fault-free instance
    /// dampens the pulse.
    pub fn calibrate(&self) -> Result<PulseCalibration, CoreError> {
        let curve = self.nominal_curve()?;
        let w_in = curve.region3_start(self.region_tol, self.guard).ok_or(
            CoreError::EmptyCalibration {
                what: "transfer curve asymptotic region",
            },
        )?;
        let wouts = self.fault_free_wouts(w_in)?;
        calibrate_pulse(
            &curve,
            &wouts,
            self.region_tol,
            self.guard,
            self.sensor_margin,
        )
    }

    /// Faulty output widths `wouts[sample][r_index]`.
    ///
    /// # Errors
    ///
    /// Propagates engine failures.
    pub fn faulty_wouts(&self, w_in: f64, r_values: &[f64]) -> Result<Vec<Vec<f64>>, CoreError> {
        let r_values = r_values.to_vec();
        let mc = self.mc.driver();
        mc.run(move |_, rng| {
            let (inst, gen_factor) = self.draw(rng);
            let mut p = ModelPath::new(inst, Some(self.fault), r_values[0]);
            let mut row = Vec::with_capacity(r_values.len());
            for &r in &r_values {
                p.set_resistance(r)?;
                row.push(p.pulse_width_out(w_in * gen_factor, self.polarity)?);
            }
            Ok(row)
        })
        .into_iter()
        .collect()
    }

    /// `C_pulse(R)` curves at each `ω_th = factor × ω_th⁰`.
    ///
    /// # Errors
    ///
    /// Propagates engine failures.
    pub fn coverage(
        &self,
        calib: &PulseCalibration,
        r_values: &[f64],
        th_factors: &[f64],
    ) -> Result<Vec<CoverageCurve>, CoreError> {
        let wouts = self.faulty_wouts(calib.w_in, r_values)?;
        // The closed-form timing model cannot fail per sample.
        let grid = AdaptiveGrid::new(r_values, th_factors, calib.w_th, true, None);
        grid.curves(&wouts, 0.0, Completeness::full(wouts.len()))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::variation::VariationModel;
    use pulsar_timing::GateTimingModel;

    fn healthy() -> PathTimingModel {
        let inv = GateTimingModel::new(95e-12, 75e-12, 70e-12, 260e-12);
        PathTimingModel::new(vec![
            PathElement::Gate {
                model: inv,
                inverting: true,
                slow_rise: 0.0,
                slow_fall: 0.0
            };
            7
        ])
    }

    fn study() -> ModelPulseStudy {
        ModelPulseStudy::new(
            healthy(),
            ModelFault::RcAfter {
                stage: 1,
                c_branch: 13e-15,
            },
            McConfig {
                variation: VariationModel::paper(),
                ..McConfig::paper(40, 9)
            },
            Polarity::PositiveGoing,
        )
    }

    #[test]
    fn calibration_has_no_false_positives() {
        let s = study();
        let cal = s.calibrate().unwrap();
        for w in s.fault_free_wouts(cal.w_in).unwrap() {
            assert!(w >= s.sensor_margin * cal.w_th - 1e-18);
        }
    }

    #[test]
    fn coverage_curve_is_sigmoidal_in_r() {
        let s = study();
        let cal = s.calibrate().unwrap();
        let rs = [500.0, 5e3, 20e3, 60e3, 200e3];
        let curves = s.coverage(&cal, &rs, &[1.0]).unwrap();
        let c = &curves[0].coverage;
        assert!(c[0] < 0.2, "benign resistance must mostly pass: {c:?}");
        assert!(c[4] > 0.9, "a 200 kΩ open must be caught: {c:?}");
        for w in c.windows(2) {
            assert!(w[1] >= w[0] - 0.15, "roughly monotone coverage: {c:?}");
        }
    }

    #[test]
    fn model_study_runs_are_reproducible() {
        let s = study();
        let a = s.fault_free_wouts(300e-12).unwrap();
        let b = s.fault_free_wouts(300e-12).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn model_study_is_fast_enough_for_big_samples() {
        // 2000 MC instances in well under a second — the point of the
        // logic-level engine.
        let mut s = study();
        s.mc.samples = 2000;
        let t0 = std::time::Instant::now();
        let wouts = s.fault_free_wouts(300e-12).unwrap();
        assert_eq!(wouts.len(), 2000);
        assert!(t0.elapsed().as_secs_f64() < 5.0, "took {:?}", t0.elapsed());
    }
}
