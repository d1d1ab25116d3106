//! The self-timed **output-ordering** DF baseline (the paper's ref.\[7\],
//! A. Singh, ITC 2005), implemented for comparison.
//!
//! Instead of an absolute clock, the method observes the *order* in which
//! two outputs of the block switch after a common launch event: "a DF is
//! detected if the switching order of any two outputs is opposite to that
//! evaluated by means of fault-free simulation". No clock distribution is
//! involved — but, as the paper argues in §1, the usable output pairs
//! "must use signal transitions which are not too close: a too fine
//! ordering may be impaired by timing fluctuations". This module makes
//! that limitation measurable: the reference path must be structurally
//! slower than the monitored path by enough margin that process
//! variation never flips the fault-free order, and that margin is
//! precisely the delay defect the method cannot see.

use crate::durable::Completeness;
use crate::engine::{PathInstance, PathUnderTest};
use crate::error::CoreError;
use crate::study::{CoverageCurve, McConfig};
use pulsar_analog::Edge;
use pulsar_cells::{PathFault, PathSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The output-ordering study: the monitored (possibly faulty) path of
/// [`PathUnderTest`] raced against a fault-free reference path in the
/// same block.
#[derive(Debug, Clone)]
pub struct OrderingStudy {
    /// The monitored path + defect.
    pub put: PathUnderTest,
    /// Monte Carlo setup (same instance streams as the other studies).
    pub mc: McConfig,
    /// Largest reference chain length the calibration may pick.
    pub max_ref_stages: usize,
}

impl OrderingStudy {
    /// A study with a generous reference-length budget.
    pub fn new(put: PathUnderTest, mc: McConfig) -> Self {
        OrderingStudy {
            put,
            mc,
            max_ref_stages: 24,
        }
    }

    /// Monitored-path instance techs for sample `i`'s RNG.
    fn draw_mon(&self, rng: &mut StdRng) -> Vec<pulsar_cells::Tech> {
        self.mc
            .variation
            .sample_techs(&self.put.tech, self.put.spec.len(), rng)
    }

    /// Reference-path techs: an independent stream (salted), since the
    /// reference is a physically different path on the same die.
    fn draw_ref(&self, i: usize, n_ref: usize) -> Vec<pulsar_cells::Tech> {
        let mut rng = StdRng::seed_from_u64(self.mc.seed ^ order_salt(i as u64));
        self.mc
            .variation
            .sample_techs(&self.put.tech, n_ref, &mut rng)
    }

    /// Per-sample delays of a fault-free reference chain of `n_ref`
    /// stages.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn reference_delays(&self, n_ref: usize) -> Result<Vec<f64>, CoreError> {
        self.mc
            .driver()
            .run(move |i, _| {
                let techs = self.draw_ref(i, n_ref);
                let spec = PathSpec::inverter_chain(n_ref);
                let mut p = pulsar_cells::BuiltPath::new(&spec, &PathFault::None, &techs);
                let out = p.propagate_transition(Edge::Rising, None)?;
                Ok(out.delay.unwrap_or(f64::INFINITY))
            })
            .into_iter()
            .collect()
    }

    /// Per-sample delays of the monitored path, fault-free.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn monitored_fault_free_delays(&self) -> Result<Vec<f64>, CoreError> {
        self.mc
            .driver()
            .run(move |_, rng| {
                let techs = self.draw_mon(rng);
                let mut p = self.put.instantiate_fault_free(&techs);
                p.delay(Edge::Rising)
            })
            .into_iter()
            .collect()
    }

    /// Calibration: the shortest reference chain (longer than the
    /// monitored path) whose delay exceeds *every* fault-free monitored
    /// instance's delay — i.e. zero false order flips over the sample.
    ///
    /// The returned margin (`min_s(ref_s − mon_s)`) is the blind spot:
    /// delay defects smaller than the per-instance separation go
    /// undetected by construction.
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptyCalibration`] when no chain up to
    /// `max_ref_stages` achieves zero fault-free flips.
    pub fn calibrate(&self) -> Result<OrderingCalibration, CoreError> {
        let mon = self.monitored_fault_free_delays()?;
        for n_ref in (self.put.spec.len() + 1)..=self.max_ref_stages {
            let reference = self.reference_delays(n_ref)?;
            let ok = mon.iter().zip(&reference).all(|(m, r)| m < r);
            if ok {
                let margin = mon
                    .iter()
                    .zip(&reference)
                    .map(|(m, r)| r - m)
                    .fold(f64::INFINITY, f64::min);
                return Ok(OrderingCalibration {
                    ref_stages: n_ref,
                    min_margin: margin,
                });
            }
        }
        Err(CoreError::EmptyCalibration {
            what: "ordering reference (no flip-free length)",
        })
    }

    /// `C_order(R)`: the fraction of instances whose faulty monitored
    /// path now switches *after* its reference — an order flip.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn coverage(
        &self,
        calib: &OrderingCalibration,
        r_values: &[f64],
    ) -> Result<CoverageCurve, CoreError> {
        let reference = self.reference_delays(calib.ref_stages)?;
        let r_vec = r_values.to_vec();
        let faulty: Vec<Vec<f64>> = self
            .mc
            .driver()
            .run(move |_, rng| {
                let techs = self.draw_mon(rng);
                let mut p = self.put.instantiate(&techs, r_vec[0]);
                let mut row = Vec::with_capacity(r_vec.len());
                for &r in &r_vec {
                    p.set_resistance(r)?;
                    row.push(p.delay(Edge::Rising)?);
                }
                Ok(row)
            })
            .into_iter()
            .collect::<Result<_, CoreError>>()?;

        let coverage = (0..r_values.len())
            .map(|ri| {
                let flips = faulty
                    .iter()
                    .zip(&reference)
                    .filter(|(row, r)| row[ri] >= **r)
                    .count();
                flips as f64 / faulty.len().max(1) as f64
            })
            .collect();
        Ok(CoverageCurve {
            factor: 1.0,
            resistance: r_values.to_vec(),
            coverage,
            // This study still aborts on the first solver error, so a
            // returned curve always covers every sample.
            unresolved: 0.0,
            completeness: Completeness::full(faulty.len()),
        })
    }
}

/// Calibrated ordering-test configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderingCalibration {
    /// Reference chain length chosen by calibration.
    pub ref_stages: usize,
    /// Smallest fault-free separation `ref − monitored` over the sample —
    /// the method's structural blind spot, seconds.
    pub min_margin: f64,
}

/// Salt for the reference path's independent RNG stream.
fn order_salt(i: u64) -> u64 {
    0x0D0E_0F10_1112_1314u64 ^ i.wrapping_mul(0x9E3779B97F4A7C15)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::engine::DefectKind;
    use pulsar_cells::Tech;

    fn put() -> PathUnderTest {
        PathUnderTest {
            spec: PathSpec::paper_chain(),
            defect: DefectKind::ExternalRop,
            stage: 1,
            tech: Tech::generic_180nm(),
        }
    }

    fn study() -> OrderingStudy {
        OrderingStudy::new(put(), McConfig::paper(6, 55))
    }

    #[test]
    fn calibration_finds_a_flip_free_reference() {
        let s = study();
        let cal = s.calibrate().unwrap();
        assert!(
            cal.ref_stages > 7,
            "reference must be longer than the monitored path"
        );
        assert!(cal.min_margin > 0.0);
        // No fault-free flips by construction.
        let mon = s.monitored_fault_free_delays().unwrap();
        let reference = s.reference_delays(cal.ref_stages).unwrap();
        assert!(mon.iter().zip(&reference).all(|(m, r)| m < r));
    }

    #[test]
    fn ordering_coverage_rises_with_resistance() {
        let s = study();
        let cal = s.calibrate().unwrap();
        let curve = s.coverage(&cal, &[500.0, 200e3]).unwrap();
        assert!(
            curve.coverage[0] < 0.5,
            "small defects hide below the margin"
        );
        assert!(curve.coverage[1] > 0.9, "a 200 kΩ open must flip the order");
    }

    #[test]
    fn blind_spot_matches_the_margin() {
        // A defect adding less delay than the calibrated margin cannot be
        // detected: verify at the nominal instance.
        let s = study();
        let cal = s.calibrate().unwrap();
        let mut clean = s.put.instantiate_fault_free(&vec![s.put.tech; 7]);
        let d0 = clean.delay(Edge::Rising).unwrap();
        // Find a resistance whose *nominal* extra delay is half the margin.
        let mut p = s.put.instantiate_nominal(1e3);
        let mut r_small = 1e3;
        for r in [1e3, 2e3, 4e3, 8e3] {
            p.set_resistance(r).unwrap();
            if p.delay(Edge::Rising).unwrap() - d0 < 0.5 * cal.min_margin {
                r_small = r;
            }
        }
        let curve = s.coverage(&cal, &[r_small]).unwrap();
        assert!(
            curve.coverage[0] < 0.5,
            "defects below the ordering margin must mostly escape: {:?}",
            curve.coverage
        );
    }
}
