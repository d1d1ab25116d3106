//! The test-quality vs yield trade-off (paper §4).
//!
//! Both methods pick an operating point under uncertainty: lowering the
//! DF clock `T` or raising the sensing threshold `ω_th` widens the range
//! of detectable resistances but starts rejecting *fault-free* circuits
//! whose parameters drifted the wrong way. The paper calibrates
//! conservatively ("giving priority to yield") and notes that "different
//! strategies can be used to enhance test quality" — this module maps the
//! whole frontier so those strategies can be compared quantitatively.

use crate::error::CoreError;
use crate::study::{DfStudy, PulseStudy};
use pulsar_mc::Gaussian;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One operating point on the quality/yield frontier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TradeoffPoint {
    /// The calibration margin this point was computed at (clock margin
    /// for DF, sensor margin for the pulse test; 1.0 = no guard band).
    pub margin: f64,
    /// Fraction of *fault-free* Monte Carlo instances rejected once the
    /// method's own parameter fluctuates (yield loss).
    pub yield_loss: f64,
    /// Smallest sweep resistance at which fault coverage reaches the
    /// requested target, `None` if never reached inside the sweep.
    pub r_at_target: Option<f64>,
}

/// Instrument-side fluctuation draws, one per Monte Carlo instance,
/// deterministic in the study's seed (offset so they do not alias the
/// circuit-instance streams).
fn instrument_factors(seed: u64, n: usize, sigma: f64) -> Vec<f64> {
    // Salted so the instrument stream never aliases the circuit streams.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1235_7ADD_900D_5EED);
    let g = Gaussian::new(1.0, sigma);
    (0..n)
        .map(|_| g.sample_clamped(&mut rng, 0.5, 1.5))
        .collect()
}

impl DfStudy {
    /// Maps the DF-testing frontier: for each clock `margin` (the applied
    /// `T` is `worst_fault_free_need / margin`; larger margin = more
    /// aggressive clock), computes the yield loss under per-instance
    /// clock-distribution fluctuation and the smallest resistance whose
    /// coverage reaches `coverage_target`.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures; fails on an empty sweep.
    pub fn tradeoff(
        &self,
        margins: &[f64],
        r_values: &[f64],
        coverage_target: f64,
    ) -> Result<Vec<TradeoffPoint>, CoreError> {
        if r_values.is_empty() || margins.is_empty() {
            return Err(CoreError::EmptyCalibration {
                what: "tradeoff sweep",
            });
        }
        let needs = self.fault_free_needs()?;
        let worst = needs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let faulty = self.try_faulty_needs(r_values)?.into_resolved();
        // Per-instance clock factor: the actually-applied period is
        // factor × T.
        let clock = instrument_factors(self.mc.seed, needs.len(), self.mc.variation.sigma);

        Ok(margins
            .iter()
            .map(|&m| {
                let t = worst / m;
                let yield_loss = needs
                    .iter()
                    .zip(&clock)
                    .filter(|(need, f)| t * **f < **need)
                    .count() as f64
                    / needs.len() as f64;
                let r_at_target = (0..r_values.len())
                    .find(|&ri| {
                        let detected = faulty
                            .iter()
                            .zip(&clock)
                            .filter(|(row, f)| t * **f < row[ri])
                            .count() as f64
                            / faulty.len() as f64;
                        detected >= coverage_target
                    })
                    .map(|ri| r_values[ri]);
                TradeoffPoint {
                    margin: m,
                    yield_loss,
                    r_at_target,
                }
            })
            .collect())
    }
}

impl PulseStudy {
    /// Maps the pulse-test frontier: for each sensor `margin` the
    /// threshold is `margin × weakest_fault_free_width`, so — like the DF
    /// frontier — **larger margin = more aggressive test**. Margin 1.0
    /// puts the threshold right at the weakest fault-free instance; the
    /// paper's conservative calibration corresponds to
    /// `margin = 1 / sensor_margin ≈ 0.91`. Computes yield loss under
    /// per-instance sensor fluctuation and the smallest resistance whose
    /// coverage reaches `coverage_target`.
    ///
    /// # Errors
    ///
    /// Propagates simulation and calibration failures.
    pub fn tradeoff(
        &self,
        margins: &[f64],
        r_values: &[f64],
        coverage_target: f64,
    ) -> Result<Vec<TradeoffPoint>, CoreError> {
        if r_values.is_empty() || margins.is_empty() {
            return Err(CoreError::EmptyCalibration {
                what: "tradeoff sweep",
            });
        }
        let curve = self.nominal_curve()?;
        let w_in = curve.region3_start(self.region_tol, self.guard).ok_or(
            CoreError::EmptyCalibration {
                what: "transfer curve asymptotic region",
            },
        )?;
        let healthy = self.fault_free_wouts(w_in)?;
        let weakest = healthy.iter().copied().fold(f64::INFINITY, f64::min);
        let faulty = self.try_faulty_wouts(w_in, r_values)?.into_resolved();
        // Per-instance sensor threshold factor.
        let sensor = instrument_factors(self.mc.seed, healthy.len(), self.mc.variation.sigma);

        Ok(margins
            .iter()
            .map(|&m| {
                let th = weakest * m;
                let yield_loss = healthy
                    .iter()
                    .zip(&sensor)
                    .filter(|(w, f)| **w < th * **f)
                    .count() as f64
                    / healthy.len() as f64;
                let r_at_target = (0..r_values.len())
                    .find(|&ri| {
                        let detected = faulty
                            .iter()
                            .zip(&sensor)
                            .filter(|(row, f)| row[ri] < th * **f)
                            .count() as f64
                            / faulty.len() as f64;
                        detected >= coverage_target
                    })
                    .map(|ri| r_values[ri]);
                TradeoffPoint {
                    margin: m,
                    yield_loss,
                    r_at_target,
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::engine::{DefectKind, PathUnderTest};
    use crate::study::McConfig;
    use pulsar_analog::Polarity;
    use pulsar_cells::{PathSpec, Tech};

    fn put() -> PathUnderTest {
        PathUnderTest {
            spec: PathSpec::paper_chain(),
            defect: DefectKind::ExternalRop,
            stage: 1,
            tech: Tech::generic_180nm(),
        }
    }

    #[test]
    fn df_frontier_is_monotone() {
        let study = DfStudy::new(put(), McConfig::paper(8, 31));
        let rs = [2e3, 8e3, 25e3, 80e3];
        let pts = study.tradeoff(&[0.85, 0.95, 1.05], &rs, 0.75).unwrap();
        assert_eq!(pts.len(), 3);
        // More aggressive clock (larger margin) ⇒ at least as much yield
        // loss and at most as large an r-at-target.
        for w in pts.windows(2) {
            assert!(w[1].yield_loss >= w[0].yield_loss - 1e-12);
            match (w[0].r_at_target, w[1].r_at_target) {
                (Some(a), Some(b)) => assert!(b <= a + 1e-9),
                (None, Some(_)) | (None, None) => {}
                (Some(_), None) => panic!("quality must not collapse as the clock tightens"),
            }
        }
    }

    #[test]
    fn pulse_frontier_is_monotone() {
        let study = PulseStudy::new(put(), McConfig::paper(8, 31), Polarity::PositiveGoing);
        let rs = [2e3, 8e3, 25e3, 80e3];
        let pts = study.tradeoff(&[0.9, 1.0, 1.1], &rs, 0.75).unwrap();
        for w in pts.windows(2) {
            assert!(w[1].yield_loss >= w[0].yield_loss - 1e-12);
            match (w[0].r_at_target, w[1].r_at_target) {
                (Some(a), Some(b)) => assert!(b <= a + 1e-9),
                (None, Some(_)) | (None, None) => {}
                (Some(_), None) => panic!("quality must not collapse as the sensor sharpens"),
            }
        }
    }

    #[test]
    fn conservative_points_have_zero_yield_loss_and_aggressive_points_lose() {
        // A margin far on the safe side must reject no fault-free
        // instance; one far on the aggressive side must reject some.
        // (Deterministic for a fixed seed.)
        let df = DfStudy::new(put(), McConfig::paper(8, 31));
        let pts = df.tradeoff(&[0.6, 1.4], &[50e3], 0.5).unwrap();
        assert_eq!(pts[0].yield_loss, 0.0, "conservative DF point loses yield");
        assert!(
            pts[1].yield_loss > 0.0,
            "a 1.4x-aggressive clock must cost yield"
        );

        let pulse = PulseStudy::new(put(), McConfig::paper(8, 31), Polarity::PositiveGoing);
        let pts = pulse.tradeoff(&[0.6, 1.4], &[50e3], 0.5).unwrap();
        assert_eq!(
            pts[0].yield_loss, 0.0,
            "conservative pulse point loses yield"
        );
        assert!(pts[1].yield_loss > 0.0, "a 1.4x sensor must cost yield");
    }

    #[test]
    fn empty_sweeps_are_rejected() {
        let df = DfStudy::new(put(), McConfig::paper(2, 1));
        assert!(df.tradeoff(&[], &[1e3], 0.5).is_err());
        assert!(df.tradeoff(&[0.9], &[], 0.5).is_err());
    }
}
