//! The measurement abstraction shared by the electrical and logic-level
//! engines, plus the fault-site description the studies run on.

use crate::error::CoreError;
use pulsar_analog::{Edge, Polarity};
use pulsar_cells::{BuiltPath, PathFault, PathSpec, RopSite, Tech};
use pulsar_obs::{CancelToken, Recorder};
use pulsar_timing::{PathElement, PathTimingModel};

/// The defect class injected into a path under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefectKind {
    /// Internal resistive open in the pull-up or pull-down network of the
    /// faulted stage (paper Fig. 1a).
    InternalRop {
        /// Which network carries the defect.
        site: RopSite,
    },
    /// External resistive open on the stage's on-path fan-out branch
    /// (paper Fig. 1b) — "expected to represent the worst case for our
    /// method" (§4), hence the default in the coverage studies.
    ExternalRop,
    /// Resistive bridge to a steady aggressor (paper Fig. 4).
    Bridge {
        /// Steady logic value at the aggressor output.
        aggressor_high: bool,
    },
}

/// A path structure plus a defect site: everything needed to instantiate
/// measurable path instances, nominal or Monte Carlo.
#[derive(Debug, Clone)]
pub struct PathUnderTest {
    /// The gate chain (the paper uses [`PathSpec::paper_chain`]).
    pub spec: PathSpec,
    /// The defect class.
    pub defect: DefectKind,
    /// Faulted stage index (0-based).
    pub stage: usize,
    /// Nominal technology.
    pub tech: Tech,
}

impl PathUnderTest {
    /// Maps the defect onto a [`PathFault`] at resistance `ohms`.
    pub fn fault(&self, ohms: f64) -> PathFault {
        match self.defect {
            DefectKind::InternalRop { site } => PathFault::InternalRop {
                stage: self.stage,
                site,
                ohms,
            },
            DefectKind::ExternalRop => PathFault::ExternalRop {
                stage: self.stage,
                ohms,
            },
            DefectKind::Bridge { aggressor_high } => PathFault::Bridge {
                stage: self.stage,
                ohms,
                aggressor_high,
            },
        }
    }

    /// Builds the electrical instance with per-stage technologies
    /// (the Monte Carlo hook) and initial defect resistance `r0`.
    ///
    /// # Panics
    ///
    /// Panics if `techs.len()` differs from the number of stages.
    pub fn instantiate(&self, techs: &[Tech], r0: f64) -> AnalogPath {
        AnalogPath {
            inner: BuiltPath::new(&self.spec, &self.fault(r0), techs),
        }
    }

    /// Builds the nominal electrical instance (all stages at `self.tech`).
    pub fn instantiate_nominal(&self, r0: f64) -> AnalogPath {
        self.instantiate(&vec![self.tech; self.spec.len()], r0)
    }

    /// Builds the *fault-free* electrical instance for calibration runs.
    pub fn instantiate_fault_free(&self, techs: &[Tech]) -> AnalogPath {
        AnalogPath {
            inner: BuiltPath::new(&self.spec, &PathFault::None, techs),
        }
    }

    /// Statically verifies this configuration before any sample runs.
    ///
    /// The stage index is checked against the path structure (`PL0302`),
    /// and — when a resistance sweep is supplied — every sweep point must
    /// be finite and strictly positive, and the sweep non-empty
    /// (`PL0301`). Studies run this as a preflight so a structurally
    /// broken configuration is rejected with
    /// [`CoreError::LintRejected`](crate::CoreError::LintRejected) before
    /// a single sample builds, keeping the failure budget untouched.
    pub fn lint(&self, r_values: Option<&[f64]>) -> pulsar_lint::LintReport {
        use pulsar_lint::{Code, Diagnostic};
        let mut diags = Vec::new();
        // Probe the stage range with a unit (in-domain) resistance so only
        // structural problems surface here.
        if let Err(pulsar_analog::Error::InvalidParameter {
            parameter: "stage", ..
        }) = self.fault(1.0).validate(self.spec.len())
        {
            let need = match self.defect {
                DefectKind::ExternalRop => "a downstream stage (stage + 1 < stages)",
                _ => "stage < stages",
            };
            diags.push(Diagnostic::new(
                Code::FaultStage,
                format!("stage {}", self.stage),
                format!(
                    "fault stage {} is out of range for a {}-stage path (needs {need})",
                    self.stage,
                    self.spec.len()
                ),
                "move the fault onto an existing stage",
            ));
        }
        if let Some(rs) = r_values {
            if rs.is_empty() {
                diags.push(Diagnostic::new(
                    Code::FaultResistance,
                    "resistance sweep",
                    "the defect-resistance sweep is empty",
                    "provide at least one resistance point",
                ));
            }
            for (i, &r) in rs.iter().enumerate() {
                if !(r.is_finite() && r > 0.0) {
                    diags.push(Diagnostic::new(
                        Code::FaultResistance,
                        format!("resistance sweep [{i}]"),
                        format!("defect resistance must be finite and > 0, got {r}"),
                        "keep the sweep inside the physical domain",
                    ));
                }
            }
        }
        pulsar_lint::LintReport::new(diags)
    }
}

/// One measurable path instance: the paper's two observables plus the
/// defect-resistance sweep.
///
/// Implementations: [`AnalogPath`] (transistor-level, the reference) and
/// [`ModelPath`] (logic-level timing model, for large-circuit test
/// generation).
pub trait PathInstance {
    /// Propagation delay for a single input transition, seconds. An
    /// output that never switches (inside the electrical engine's
    /// simulation window) is not an error: its delay is `f64::INFINITY`,
    /// so slack arithmetic stays total.
    ///
    /// # Errors
    ///
    /// Engine-specific simulation failures.
    fn delay(&mut self, input_edge: Edge) -> Result<f64, CoreError>;

    /// Output pulse width for an injected input pulse; `0.0` = dampened.
    ///
    /// # Errors
    ///
    /// Engine-specific simulation failures.
    fn pulse_width_out(&mut self, w_in: f64, polarity: Polarity) -> Result<f64, CoreError>;

    /// Changes the defect resistance.
    ///
    /// # Errors
    ///
    /// If the instance carries no defect or `ohms` is out of domain.
    fn set_resistance(&mut self, ohms: f64) -> Result<(), CoreError>;

    /// Worst (slowest) delay over both input transition directions.
    ///
    /// # Errors
    ///
    /// Propagates [`PathInstance::delay`] failures.
    fn worst_delay(&mut self) -> Result<f64, CoreError> {
        let r = self.delay(Edge::Rising)?;
        let f = self.delay(Edge::Falling)?;
        Ok(r.max(f))
    }

    /// Tightens the engine's numerical configuration for a retry at
    /// escalation `level` (1 = first retry), with time steps additionally
    /// scaled by `step_scale` ∈ [0.5, 1.0] to de-alias pathological
    /// breakpoint spacing. `level = 0` restores the default behaviour.
    ///
    /// Default: no-op — engines without numerical knobs (the logic-level
    /// model) simply re-run unchanged.
    fn harden(&mut self, level: u32, step_scale: f64) {
        let _ = (level, step_scale);
    }

    /// Installs a per-run observability recorder so this instance's
    /// solver-level counters, histograms, and spans land in the caller's
    /// registry. Recording never changes arithmetic: with a disabled
    /// recorder (the default) every instrumentation call is a single
    /// branch.
    ///
    /// Default: no-op — engines without instrumentation drop the handle.
    fn set_recorder(&mut self, rec: Recorder) {
        let _ = rec;
    }

    /// Installs a cooperative cancellation token: a cancelled token makes
    /// the engine's next (or current, for the electrical engine's step
    /// loop) measurement abort with a cancellation error instead of
    /// running to completion. Used by the durable study entry points to
    /// honor deadlines and per-sample timeouts mid-solve.
    ///
    /// Default: no-op — engines with no interruptible inner loop finish
    /// their (fast) measurement and are cancelled at the next sample
    /// boundary instead.
    fn set_cancel(&mut self, token: CancelToken) {
        let _ = token;
    }
}

/// Transistor-level path instance (wraps [`BuiltPath`]).
#[derive(Debug)]
pub struct AnalogPath {
    inner: BuiltPath,
}

impl AnalogPath {
    /// Direct access to the underlying electrical path (waveform probing,
    /// custom stimuli).
    pub fn built_path(&mut self) -> &mut BuiltPath {
        &mut self.inner
    }

    /// [`PathInstance::delay`] for a caller that only compares it against
    /// thresholds: the query may stop once the delay is proven to exceed
    /// `within` seconds ([`BuiltPath::propagate_transition_within`],
    /// DESIGN.md §5.13).
    pub(crate) fn delay_within(
        &mut self,
        input_edge: Edge,
        within: f64,
    ) -> Result<BoundedDelay, CoreError> {
        let out = self.inner.propagate_transition_within(input_edge, within)?;
        Ok(match (out.delay, out.floor) {
            (None, Some(floor)) => BoundedDelay::Beyond(floor),
            (delay, _) => BoundedDelay::Exact(delay.unwrap_or(f64::INFINITY)),
        })
    }
}

/// A delay query's answer under a verdict bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum BoundedDelay {
    /// The delay, bit-identical to the full window's.
    Exact(f64),
    /// The delay is proven to exceed the bound: this lower bound, which
    /// is above it.
    Beyond(f64),
}

impl PathInstance for AnalogPath {
    fn delay(&mut self, input_edge: Edge) -> Result<f64, CoreError> {
        let out = self.inner.propagate_transition(input_edge, None)?;
        // A swallowed transition means unbounded delay for DF purposes.
        Ok(out.delay.unwrap_or(f64::INFINITY))
    }

    fn pulse_width_out(&mut self, w_in: f64, polarity: Polarity) -> Result<f64, CoreError> {
        // Width-only query: capture just the output column (the
        // measurements-only policy). Same solve, so the width is
        // bit-identical to a full-capture run.
        Ok(self.inner.pulse_width_only(w_in, polarity, None)?)
    }

    fn set_resistance(&mut self, ohms: f64) -> Result<(), CoreError> {
        self.inner
            .set_fault_resistance(ohms)
            .map_err(CoreError::from)
    }

    fn harden(&mut self, level: u32, step_scale: f64) {
        self.inner.set_robustness(level, step_scale);
    }

    fn set_recorder(&mut self, rec: Recorder) {
        self.inner.set_recorder(rec);
    }

    fn set_cancel(&mut self, token: CancelToken) {
        self.inner.set_cancel(token);
    }
}

/// How a defect resistance maps onto the logic-level timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelFault {
    /// External ROP: an RC stage after `stage` with `tau = R × c_branch`.
    RcAfter {
        /// Faulted stage.
        stage: usize,
        /// Effective branch capacitance, farads.
        c_branch: f64,
    },
    /// Internal ROP: the named output edge of `stage` slows by
    /// `R × c_load`.
    EdgeSlow {
        /// Faulted stage.
        stage: usize,
        /// Slowed output edge.
        edge: Edge,
        /// Effective load capacitance, farads.
        c_load: f64,
    },
    /// External ROP on the primary input's own fan-out branch: an RC
    /// stage before the first gate.
    RcAtInput {
        /// Effective branch capacitance, farads.
        c_branch: f64,
    },
}

/// Logic-level path instance: a healthy [`PathTimingModel`] plus a fault
/// mapping. The fault's element is placed once, by [`ModelPath::new`];
/// `set_resistance` then rewrites that one value in place (cheap).
///
/// Bridges are *not* supported at this level (their delay depends on a
/// drive fight the abstraction cannot see); use [`AnalogPath`] for them.
#[derive(Debug, Clone)]
pub struct ModelPath {
    /// The healthy chain with the fault element (if any) at the current
    /// resistance.
    current: PathTimingModel,
    fault: Option<FaultSlot>,
}

/// Where a [`ModelFault`] lives inside [`ModelPath::current`].
#[derive(Debug, Clone, Copy)]
struct FaultSlot {
    fault: ModelFault,
    /// Index of the element the resistance writes.
    at: usize,
    /// The healthy value of the written field: an edge slow-down adds to
    /// it (an RC element has none).
    base: f64,
}

impl ModelPath {
    /// Wraps a healthy model with an optional fault mapping, initially at
    /// resistance `r0` (ignored when `fault` is `None`).
    ///
    /// # Panics
    ///
    /// Panics if the fault's stage does not index a gate element.
    pub fn new(healthy: PathTimingModel, fault: Option<ModelFault>, r0: f64) -> Self {
        let mut current = healthy;
        let fault = fault.map(|fault| match fault {
            ModelFault::RcAfter { stage, .. } => {
                current.inject_rc_after(stage, 0.0);
                FaultSlot {
                    fault,
                    at: current.gate_position(stage) + 1,
                    base: 0.0,
                }
            }
            ModelFault::RcAtInput { .. } => {
                current.inject_rc_at_front(0.0);
                FaultSlot {
                    fault,
                    at: 0,
                    base: 0.0,
                }
            }
            ModelFault::EdgeSlow { stage, edge, .. } => {
                let at = current.gate_position(stage);
                let base = match current.elements()[at] {
                    PathElement::Gate {
                        slow_rise,
                        slow_fall,
                        ..
                    } => match edge {
                        Edge::Rising => slow_rise,
                        Edge::Falling => slow_fall,
                    },
                    PathElement::RcNet { .. } => unreachable!("gate_position finds gates"),
                };
                FaultSlot { fault, at, base }
            }
        });
        let mut mp = ModelPath { current, fault };
        mp.apply(r0);
        mp
    }

    /// The currently active (possibly faulty) model.
    pub fn model(&self) -> &PathTimingModel {
        &self.current
    }

    /// Writes resistance `ohms` into the fault's element: the same value
    /// as injecting `ohms × c` into a fresh copy of the healthy model.
    fn apply(&mut self, ohms: f64) {
        let Some(slot) = self.fault else { return };
        match (slot.fault, &mut self.current.elements_mut()[slot.at]) {
            (
                ModelFault::RcAfter { c_branch, .. } | ModelFault::RcAtInput { c_branch },
                PathElement::RcNet { tau },
            ) => *tau = ohms * c_branch,
            (
                ModelFault::EdgeSlow { edge, c_load, .. },
                PathElement::Gate {
                    slow_rise,
                    slow_fall,
                    ..
                },
            ) => {
                let slow = match edge {
                    Edge::Rising => slow_rise,
                    Edge::Falling => slow_fall,
                };
                *slow = slot.base + ohms * c_load;
            }
            _ => unreachable!("ModelPath::new places each fault on its element kind"),
        }
    }
}

impl PathInstance for ModelPath {
    fn delay(&mut self, input_edge: Edge) -> Result<f64, CoreError> {
        Ok(self.current.delay(input_edge))
    }

    fn pulse_width_out(&mut self, w_in: f64, polarity: Polarity) -> Result<f64, CoreError> {
        Ok(self.current.pulse_out(w_in, polarity))
    }

    fn set_resistance(&mut self, ohms: f64) -> Result<(), CoreError> {
        if self.fault.is_none() {
            return Err(CoreError::Unsupported {
                what: "set_resistance on a fault-free model path",
            });
        }
        if !(ohms.is_finite() && ohms > 0.0) {
            return Err(CoreError::Analog(pulsar_analog::Error::InvalidParameter {
                element: "model fault",
                parameter: "ohms",
                value: ohms,
            }));
        }
        self.apply(ohms);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use pulsar_timing::GateTimingModel;

    fn healthy_chain(n: usize) -> PathTimingModel {
        let inv = GateTimingModel::new(95e-12, 75e-12, 70e-12, 260e-12);
        PathTimingModel::new(vec![
            PathElement::Gate {
                model: inv,
                inverting: true,
                slow_rise: 0.0,
                slow_fall: 0.0
            };
            n
        ])
    }

    #[test]
    fn analog_engine_detects_dampening() {
        let put = PathUnderTest {
            spec: PathSpec::paper_chain(),
            defect: DefectKind::ExternalRop,
            stage: 1,
            tech: Tech::generic_180nm(),
        };
        let mut p = put.instantiate_nominal(1e3);
        let clean = p.pulse_width_out(450e-12, Polarity::PositiveGoing).unwrap();
        p.set_resistance(40e3).unwrap();
        let bad = p.pulse_width_out(450e-12, Polarity::PositiveGoing).unwrap();
        assert!(clean > 0.0);
        assert!(bad < clean);
    }

    #[test]
    fn analog_worst_delay_covers_both_edges() {
        let put = PathUnderTest {
            spec: PathSpec::inverter_chain(3),
            defect: DefectKind::InternalRop {
                site: RopSite::PullUp,
            },
            stage: 1,
            tech: Tech::generic_180nm(),
        };
        let mut p = put.instantiate_nominal(25e3);
        let worst = p.worst_delay().unwrap();
        let fast = p.delay(Edge::Falling).unwrap();
        assert!(worst >= fast);
        assert!(worst > fast + 50e-12, "one-edge ROP must split the edges");
    }

    #[test]
    fn model_engine_sweeps_resistance() {
        let mf = ModelFault::RcAfter {
            stage: 1,
            c_branch: 13e-15,
        };
        let mut p = ModelPath::new(healthy_chain(7), Some(mf), 1e3);
        let w1 = p.pulse_width_out(400e-12, Polarity::PositiveGoing).unwrap();
        p.set_resistance(60e3).unwrap();
        let w2 = p.pulse_width_out(400e-12, Polarity::PositiveGoing).unwrap();
        assert!(w2 < w1, "more resistance, more dampening: {w1:e} → {w2:e}");
    }

    #[test]
    fn model_engine_edge_slow_matches_injection() {
        let mf = ModelFault::EdgeSlow {
            stage: 1,
            edge: Edge::Rising,
            c_load: 30e-15,
        };
        let mut p = ModelPath::new(healthy_chain(5), Some(mf), 10e3);
        // Delay for the input edge that exercises stage 1's rising output
        // (two inversions upstream of stage 1's output → Rising input).
        let slow = p.delay(Edge::Rising).unwrap();
        let fast = p.delay(Edge::Falling).unwrap();
        assert!(
            slow > fast + 200e-12,
            "300 ps edge slow must show: {slow:e} vs {fast:e}"
        );
    }

    #[test]
    fn fault_free_model_rejects_resistance() {
        let mut p = ModelPath::new(healthy_chain(3), None, 0.0);
        assert!(p.set_resistance(1e3).is_err());
        // But measurements work.
        assert!(p.delay(Edge::Rising).unwrap() > 0.0);
    }

    #[test]
    fn model_rejects_unphysical_resistance() {
        let mf = ModelFault::RcAfter {
            stage: 0,
            c_branch: 1e-15,
        };
        let mut p = ModelPath::new(healthy_chain(3), Some(mf), 1e3);
        assert!(p.set_resistance(-1.0).is_err());
        assert!(p.set_resistance(f64::NAN).is_err());
    }

    #[test]
    fn put_fault_mapping() {
        let put = PathUnderTest {
            spec: PathSpec::paper_chain(),
            defect: DefectKind::Bridge {
                aggressor_high: true,
            },
            stage: 2,
            tech: Tech::generic_180nm(),
        };
        match put.fault(5e3) {
            PathFault::Bridge {
                stage: 2,
                ohms,
                aggressor_high: true,
            } => {
                assert_eq!(ohms, 5e3)
            }
            other => panic!("wrong mapping: {other:?}"),
        }
    }
}
