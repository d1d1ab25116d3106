//! The I_DDQ baseline for bridging faults.
//!
//! The paper's §2 taxonomy notes that bridges change "the static and
//! dynamic current" — the classic I_DDQ observable. This module
//! implements a realistic deep-submicron I_DDQ test: the measured supply
//! current is the fault's drive-fight current **plus a large fluctuating
//! background leakage** (the reason I_DDQ lost resolution as processes
//! scaled — exactly the era of this paper). The threshold is calibrated
//! on the fault-free Monte Carlo sample with the usual zero-false-positive
//! rule; what the background noise swallows is the method's blind spot.

use crate::durable::Completeness;
use crate::engine::{DefectKind, PathInstance, PathUnderTest};
use crate::error::CoreError;
use crate::study::{CoverageCurve, McConfig};
use pulsar_mc::Gaussian;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The I_DDQ study on a bridge-carrying path.
#[derive(Debug, Clone)]
pub struct IddqStudy {
    /// The path + defect under study (must carry a bridge; opens draw no
    /// static current and make the study trivially blind).
    pub put: PathUnderTest,
    /// Monte Carlo setup.
    pub mc: McConfig,
    /// Mean background leakage of the surrounding chip, amperes. The
    /// default (2 mA) emulates a large digital die of the paper's era;
    /// set to 0 for the idealized single-path measurement.
    pub background_mean: f64,
    /// Threshold guard above the worst fault-free measurement (1.0 =
    /// exactly at it).
    pub guard: f64,
}

impl IddqStudy {
    /// A study with a large-die background model and a 5 % guard.
    ///
    /// # Panics
    ///
    /// Panics if `put` does not carry a bridge defect.
    pub fn new(put: PathUnderTest, mc: McConfig) -> Self {
        assert!(
            matches!(put.defect, DefectKind::Bridge { .. }),
            "IDDQ study needs a bridge defect (opens draw no static current)"
        );
        IddqStudy {
            put,
            mc,
            background_mean: 2e-3,
            guard: 1.05,
        }
    }

    /// Per-instance background leakage draws (independent salted stream).
    fn backgrounds(&self) -> Vec<f64> {
        let sigma = self.mc.variation.sigma;
        let mut rng = StdRng::seed_from_u64(self.mc.seed ^ 0x1DD0_0B5E_55AA_1234);
        let g = Gaussian::relative(self.background_mean, sigma);
        (0..self.mc.samples)
            .map(|_| g.sample_clamped(&mut rng, 0.0, f64::INFINITY))
            .collect()
    }

    /// Measured I_DDQ (worst over both input vectors) of every fault-free
    /// instance, background included.
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures.
    pub fn fault_free_currents(&self) -> Result<Vec<f64>, CoreError> {
        let bg = self.backgrounds();
        let raw: Vec<Result<f64, CoreError>> = self.mc.driver().run(|_, rng| {
            let techs = self
                .mc
                .variation
                .sample_techs(&self.put.tech, self.put.spec.len(), rng);
            let mut p = self.put.instantiate_fault_free(&techs);
            let a = p.built_path().quiescent_current(false)?;
            let b = p.built_path().quiescent_current(true)?;
            Ok(a.max(b))
        });
        raw.into_iter()
            .zip(bg)
            .map(|(r, bg)| r.map(|i| i + bg))
            .collect()
    }

    /// Calibrated detection threshold: `guard × max(fault-free I_DDQ)`.
    ///
    /// # Errors
    ///
    /// Propagates measurement failures; fails on an empty sample.
    pub fn calibrate(&self) -> Result<f64, CoreError> {
        let currents = self.fault_free_currents()?;
        if currents.is_empty() {
            return Err(CoreError::EmptyCalibration {
                what: "fault-free iddq sample",
            });
        }
        Ok(self.guard * currents.iter().copied().fold(f64::NEG_INFINITY, f64::max))
    }

    /// `C_iddq(R)`: fraction of instances whose measured current (worst
    /// vector, background included) exceeds the threshold.
    ///
    /// # Errors
    ///
    /// Propagates measurement failures.
    pub fn coverage(&self, threshold: f64, r_values: &[f64]) -> Result<CoverageCurve, CoreError> {
        let bg = self.backgrounds();
        let r_vec = r_values.to_vec();
        let rows: Vec<Result<Vec<f64>, CoreError>> = self.mc.driver().run(move |_, rng| {
            let techs = self
                .mc
                .variation
                .sample_techs(&self.put.tech, self.put.spec.len(), rng);
            let mut p = self.put.instantiate(&techs, r_vec[0]);
            let mut row = Vec::with_capacity(r_vec.len());
            for &r in &r_vec {
                p.set_resistance(r)?;
                let a = p.built_path().quiescent_current(false)?;
                let b = p.built_path().quiescent_current(true)?;
                row.push(a.max(b));
            }
            Ok(row)
        });
        let rows: Vec<Vec<f64>> = rows.into_iter().collect::<Result<_, _>>()?;

        let coverage = (0..r_values.len())
            .map(|ri| {
                let detected = rows
                    .iter()
                    .zip(&bg)
                    .filter(|(row, b)| row[ri] + **b > threshold)
                    .count();
                detected as f64 / rows.len().max(1) as f64
            })
            .collect();
        Ok(CoverageCurve {
            factor: 1.0,
            resistance: r_values.to_vec(),
            coverage,
            // This study still aborts on the first solver error, so a
            // returned curve always covers every sample.
            unresolved: 0.0,
            completeness: Completeness::full(rows.len()),
        })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use pulsar_cells::{PathSpec, Tech};

    fn put() -> PathUnderTest {
        PathUnderTest {
            spec: PathSpec::paper_chain(),
            defect: DefectKind::Bridge {
                aggressor_high: false,
            },
            stage: 1,
            tech: Tech::generic_180nm(),
        }
    }

    #[test]
    fn iddq_catches_hard_bridges_and_misses_soft_ones() {
        let study = IddqStudy::new(put(), McConfig::paper(6, 77));
        let th = study.calibrate().unwrap();
        // Fault-free sample never trips (by construction).
        for i in study.fault_free_currents().unwrap() {
            assert!(i <= th);
        }
        let curve = study.coverage(th, &[800.0, 300e3]).unwrap();
        assert!(
            curve.coverage[0] > 0.9,
            "a hard bridge draws milliamps: {:?}",
            curve.coverage
        );
        assert!(
            curve.coverage[1] < 0.3,
            "a 300 kΩ bridge hides under the background: {:?}",
            curve.coverage
        );
    }

    #[test]
    fn ideal_measurement_extends_the_range() {
        let mut study = IddqStudy::new(put(), McConfig::paper(6, 77));
        study.background_mean = 0.0;
        let th = study.calibrate().unwrap();
        let curve = study.coverage(th, &[100e3]).unwrap();
        // Without background noise even a weak fight is visible.
        assert!(
            curve.coverage[0] > 0.9,
            "ideal IDDQ sees 100 kΩ bridges: {:?}",
            curve.coverage
        );
    }

    #[test]
    #[should_panic(expected = "needs a bridge defect")]
    fn opens_are_rejected() {
        let p = PathUnderTest {
            defect: DefectKind::ExternalRop,
            ..put()
        };
        IddqStudy::new(p, McConfig::paper(2, 1));
    }
}
