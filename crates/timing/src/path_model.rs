//! Folding pulses and edges through a chain of timing elements.

use crate::library::TimingLibrary;
use crate::model::GateTimingModel;
use pulsar_analog::{Edge, Polarity};
use pulsar_logic::{Netlist, Path};

/// One element of a path-level timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PathElement {
    /// A logic gate.
    Gate {
        /// The gate's timing model.
        model: GateTimingModel,
        /// Whether the gate logically inverts under sensitization.
        inverting: bool,
        /// Extra delay on rising output edges (internal pull-up ROP).
        slow_rise: f64,
        /// Extra delay on falling output edges (internal pull-down ROP).
        slow_fall: f64,
    },
    /// A degraded interconnect segment modeled as a first-order RC low
    /// pass (external ROP: defect resistance × branch capacitance).
    RcNet {
        /// RC time constant, seconds.
        tau: f64,
    },
}

/// RC stage behaviour: an RC low-pass of constant τ delays a full-swing
/// edge by ln(2)·τ at the 50 % threshold, rejects pulses much shorter
/// than τ, and passes pulses much longer than τ intact. The two knees
/// below bracket the analog behaviour.
const RC_DELAY_FACTOR: f64 = std::f64::consts::LN_2;
const RC_WMIN_FACTOR: f64 = 0.7;
const RC_WPASS_FACTOR: f64 = 2.5;

impl PathElement {
    /// Delay added to an edge that leaves this element with direction
    /// `output_edge`.
    pub fn edge_delay(&self, output_edge: Edge) -> f64 {
        match self {
            PathElement::Gate {
                model,
                slow_rise,
                slow_fall,
                ..
            } => model.edge_delay(output_edge, *slow_rise, *slow_fall),
            PathElement::RcNet { tau } => RC_DELAY_FACTOR * tau,
        }
    }

    /// Whether the polarity flips across this element.
    pub fn inverts(&self) -> bool {
        matches!(
            self,
            PathElement::Gate {
                inverting: true,
                ..
            }
        )
    }

    /// Width transfer. `out_polarity` is the pulse polarity at this
    /// element's *output*.
    pub fn width_out(&self, w_in: f64, out_polarity: Polarity) -> f64 {
        match self {
            PathElement::Gate {
                model,
                slow_rise,
                slow_fall,
                ..
            } => model.width_out(w_in, out_polarity.leading_edge(), *slow_rise, *slow_fall),
            PathElement::RcNet { tau } => {
                let w_min = RC_WMIN_FACTOR * tau;
                let w_pass = RC_WPASS_FACTOR * tau;
                if w_in <= w_min {
                    0.0
                } else if w_in >= w_pass {
                    w_in
                } else {
                    // Ramp (w_min, 0) → (w_pass, w_pass).
                    (w_in - w_min) / (w_pass - w_min) * w_pass
                }
            }
        }
    }
}

/// Timing model of a full sensitized path: an ordered chain of elements.
///
/// # Example
///
/// ```
/// use pulsar_timing::{GateTimingModel, PathElement, PathTimingModel};
/// use pulsar_analog::{Edge, Polarity};
///
/// let inv = GateTimingModel::new(100e-12, 80e-12, 60e-12, 200e-12);
/// let chain = PathTimingModel::new(vec![
///     PathElement::Gate { model: inv, inverting: true, slow_rise: 0.0, slow_fall: 0.0 };
///     7
/// ]);
/// let w = chain.pulse_out(500e-12, Polarity::PositiveGoing);
/// assert!(w > 0.0, "a wide pulse crosses a healthy chain");
/// let d = chain.delay(Edge::Rising);
/// assert!(d > 0.5e-9, "seven stages of ~90 ps each");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PathTimingModel {
    elements: Vec<PathElement>,
}

impl PathTimingModel {
    /// Builds a model from elements in input-to-output order.
    pub fn new(elements: Vec<PathElement>) -> Self {
        PathTimingModel { elements }
    }

    /// Derives the model of a structural [`Path`] in `nl` using per-kind
    /// models from `lib` (fan-out-aware).
    pub fn from_netlist_path(nl: &Netlist, path: &Path, lib: &TimingLibrary) -> Self {
        let fanouts = nl.fanouts();
        let elements = path
            .steps
            .iter()
            .map(|step| {
                let gate = nl.gate(step.gate);
                let fo = fanouts[gate.output.index()].len().max(1);
                PathElement::Gate {
                    model: lib.model(gate.kind, fo),
                    inverting: gate.kind.inverts(),
                    slow_rise: 0.0,
                    slow_fall: 0.0,
                }
            })
            .collect();
        PathTimingModel { elements }
    }

    /// The elements of this model.
    pub fn elements(&self) -> &[PathElement] {
        &self.elements
    }

    /// Mutable access for fault injection.
    pub fn elements_mut(&mut self) -> &mut Vec<PathElement> {
        &mut self.elements
    }

    /// Injects an internal ROP: slows the given output edge of the
    /// `stage`-th gate element by `extra` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `stage` does not index a gate element.
    pub fn inject_edge_slow(&mut self, stage: usize, edge: Edge, extra: f64) {
        let idx = self.gate_position(stage);
        match &mut self.elements[idx] {
            PathElement::Gate {
                slow_rise,
                slow_fall,
                ..
            } => match edge {
                Edge::Rising => *slow_rise += extra,
                Edge::Falling => *slow_fall += extra,
            },
            PathElement::RcNet { .. } => unreachable!("filtered to gates"),
        }
    }

    /// Injects an RC element of constant `tau` at the very front of the
    /// chain — an external ROP on the primary input's fan-out branch.
    pub fn inject_rc_at_front(&mut self, tau: f64) {
        self.elements.insert(0, PathElement::RcNet { tau });
    }

    /// Injects an external ROP: inserts an RC element of constant `tau`
    /// right after the `stage`-th gate element.
    ///
    /// # Panics
    ///
    /// Panics if `stage` does not index a gate element.
    pub fn inject_rc_after(&mut self, stage: usize, tau: f64) {
        let idx = self.gate_position(stage);
        self.elements.insert(idx + 1, PathElement::RcNet { tau });
    }

    /// Index into [`PathTimingModel::elements`] of the `stage`-th *gate*
    /// element (RC elements are not stages).
    ///
    /// # Panics
    ///
    /// Panics if `stage` does not index a gate element.
    pub fn gate_position(&self, stage: usize) -> usize {
        self.elements
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, PathElement::Gate { .. }))
            .nth(stage)
            .map(|(i, _)| i)
            .unwrap_or_else(|| panic!("stage {stage} does not index a gate element"))
    }

    /// Returns a copy whose `i`-th *gate* element is scaled by
    /// `factors[i]` (see [`GateTimingModel::scaled`]) — one Monte Carlo
    /// instance of the path. RC elements are unaffected (the defect is
    /// not part of the process variation).
    ///
    /// # Panics
    ///
    /// Panics if `factors.len()` differs from the number of gate
    /// elements.
    pub fn with_stage_factors(&self, factors: &[f64]) -> PathTimingModel {
        let n_gates = self
            .elements
            .iter()
            .filter(|e| matches!(e, PathElement::Gate { .. }))
            .count();
        assert_eq!(factors.len(), n_gates, "one factor per gate element");
        let mut fi = 0usize;
        let elements = self
            .elements
            .iter()
            .map(|e| match e {
                PathElement::Gate {
                    model,
                    inverting,
                    slow_rise,
                    slow_fall,
                } => {
                    let f = factors[fi];
                    fi += 1;
                    PathElement::Gate {
                        model: model.scaled(f),
                        inverting: *inverting,
                        slow_rise: *slow_rise,
                        slow_fall: *slow_fall,
                    }
                }
                rc => *rc,
            })
            .collect();
        PathTimingModel { elements }
    }

    /// Whether the whole path inverts.
    pub fn inverts(&self) -> bool {
        self.elements.iter().filter(|e| e.inverts()).count() % 2 == 1
    }

    /// Propagation delay of a single transition entering with
    /// `input_edge`.
    pub fn delay(&self, input_edge: Edge) -> f64 {
        let mut edge = input_edge;
        let mut d = 0.0;
        for e in &self.elements {
            if e.inverts() {
                edge = edge.inverted();
            }
            d += e.edge_delay(edge);
        }
        d
    }

    /// Output pulse width for an input pulse of width `w_in` and the given
    /// polarity; 0.0 when dampened anywhere along the chain.
    pub fn pulse_out(&self, w_in: f64, polarity: Polarity) -> f64 {
        self.fold_pulse(0..self.elements.len(), w_in, polarity)
            .map_or(0.0, |(w, _)| w)
    }

    /// The fold behind [`PathTimingModel::pulse_out`] over the elements in
    /// `range`, for a pulse of width `w` and `polarity` entering element
    /// `range.start`: the width and polarity leaving the range, or `None`
    /// once an element dampens it (width 0).
    ///
    /// Folding `0..k` and then `k..len` from its result is the whole
    /// fold, bit for bit, so a caller that varies only elements from `k`
    /// on can fold the prefix once.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    pub fn fold_pulse(
        &self,
        range: std::ops::Range<usize>,
        w: f64,
        polarity: Polarity,
    ) -> Option<(f64, Polarity)> {
        let (mut w, mut pol) = (w, polarity);
        for e in &self.elements[range] {
            if e.inverts() {
                pol = pol.inverted();
            }
            w = e.width_out(w, pol);
            if w == 0.0 {
                return None;
            }
        }
        Some((w, pol))
    }

    /// The smallest input width that still yields a non-zero output width,
    /// found by bisection to `tol`; `None` if even `w_hi` is dampened.
    ///
    /// This is the path's own sensing threshold — the quantity the
    /// `(ω_in, ω_th)` selection rule of the paper's §5 is built on.
    pub fn min_passing_width(&self, polarity: Polarity, w_hi: f64, tol: f64) -> Option<f64> {
        if self.pulse_out(w_hi, polarity) == 0.0 {
            return None;
        }
        let mut lo = 0.0;
        let mut hi = w_hi;
        while hi - lo > tol {
            let mid = 0.5 * (lo + hi);
            if self.pulse_out(mid, polarity) == 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(hi)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use proptest::prelude::*;

    fn inv() -> PathElement {
        PathElement::Gate {
            model: GateTimingModel::new(100e-12, 80e-12, 60e-12, 200e-12),
            inverting: true,
            slow_rise: 0.0,
            slow_fall: 0.0,
        }
    }

    fn chain(n: usize) -> PathTimingModel {
        PathTimingModel::new(vec![inv(); n])
    }

    #[test]
    fn delay_alternates_edges() {
        let c = chain(2);
        // Rising input → stage 1 output falls (80 ps) → stage 2 output
        // rises (100 ps).
        assert!((c.delay(Edge::Rising) - 180e-12).abs() < 1e-15);
        assert!((c.delay(Edge::Falling) - 180e-12).abs() < 1e-15);
        let c3 = chain(3);
        // R→F(80)→R(100)→F(80) = 260; F→R(100)→F(80)→R(100) = 280.
        assert!((c3.delay(Edge::Rising) - 260e-12).abs() < 1e-15);
        assert!((c3.delay(Edge::Falling) - 280e-12).abs() < 1e-15);
    }

    #[test]
    fn wide_pulse_survives_chain() {
        let c = chain(7);
        let w = c.pulse_out(600e-12, Polarity::PositiveGoing);
        assert!(w > 400e-12, "got {w:e}");
    }

    #[test]
    fn narrow_pulse_dies() {
        let c = chain(7);
        assert_eq!(c.pulse_out(50e-12, Polarity::PositiveGoing), 0.0);
    }

    #[test]
    fn injected_edge_slow_dampens() {
        let mut c = chain(7);
        let healthy = c.pulse_out(400e-12, Polarity::PositiveGoing);
        assert!(healthy > 0.0);
        c.inject_edge_slow(1, Edge::Rising, 500e-12);
        // Stage 1's output pulse may be rising- or falling-led depending
        // on polarity; one of the two polarities must die.
        let a = c.pulse_out(400e-12, Polarity::PositiveGoing);
        let b = c.pulse_out(400e-12, Polarity::NegativeGoing);
        assert!(
            a == 0.0 || b == 0.0,
            "a strong one-edge ROP kills one pulse kind: {a:e}/{b:e}"
        );
    }

    #[test]
    fn injected_rc_dampens_both_polarities() {
        let mut c = chain(7);
        c.inject_rc_after(1, 400e-12);
        assert_eq!(c.pulse_out(250e-12, Polarity::PositiveGoing), 0.0);
        assert_eq!(c.pulse_out(250e-12, Polarity::NegativeGoing), 0.0);
        // And adds delay for plain transitions instead.
        let clean = chain(7).delay(Edge::Rising);
        assert!(c.delay(Edge::Rising) > clean + 200e-12);
    }

    #[test]
    fn min_passing_width_brackets_the_transfer() {
        let c = chain(5);
        let w = c
            .min_passing_width(Polarity::PositiveGoing, 2e-9, 1e-13)
            .expect("passes at 2 ns");
        assert!(c.pulse_out(w * 1.01, Polarity::PositiveGoing) > 0.0);
        assert_eq!(c.pulse_out(w * 0.99, Polarity::PositiveGoing), 0.0);
    }

    #[test]
    fn min_passing_width_none_when_blocked() {
        let mut c = chain(3);
        c.inject_rc_after(1, 1e-7); // absurd tau kills everything up to w_hi
        assert_eq!(
            c.min_passing_width(Polarity::PositiveGoing, 1e-9, 1e-13),
            None
        );
    }

    #[test]
    fn stage_factors_scale_delay_proportionally() {
        let c = chain(4);
        let slow = c.with_stage_factors(&[1.2; 4]);
        let d0 = c.delay(Edge::Rising);
        let d1 = slow.delay(Edge::Rising);
        assert!(
            (d1 / d0 - 1.2).abs() < 1e-12,
            "uniform 1.2x scaling: {d0:e} -> {d1:e}"
        );
        // Slower gates also filter more.
        let w = 150e-12;
        assert!(
            slow.pulse_out(w, Polarity::PositiveGoing)
                <= c.pulse_out(w, Polarity::PositiveGoing) + 1e-18
        );
    }

    #[test]
    fn stage_factors_skip_rc_elements() {
        let mut c = chain(3);
        c.inject_rc_after(1, 100e-12);
        // 3 gate elements even though there are 4 path elements.
        let scaled = c.with_stage_factors(&[1.5, 1.5, 1.5]);
        assert_eq!(scaled.elements().len(), 4);
        let tau_kept = scaled
            .elements()
            .iter()
            .any(|e| matches!(e, PathElement::RcNet { tau } if (*tau - 100e-12).abs() < 1e-18));
        assert!(tau_kept, "the defect RC must not be scaled");
    }

    #[test]
    #[should_panic(expected = "one factor per gate element")]
    fn stage_factor_count_mismatch_panics() {
        chain(3).with_stage_factors(&[1.0, 1.0]);
    }

    #[test]
    fn parity_bookkeeping() {
        assert!(chain(7).inverts());
        assert!(!chain(6).inverts());
        let mut c = chain(2);
        c.inject_rc_after(0, 1e-12);
        assert!(!c.inverts(), "rc nets do not invert");
        assert_eq!(c.elements().len(), 3);
    }

    proptest! {
        /// Path-level transfer inherits monotonicity from the elements.
        #[test]
        fn path_transfer_monotonic(w1 in 0.0f64..1.5e-9, w2 in 0.0f64..1.5e-9, n in 1usize..9) {
            let c = chain(n);
            let (lo, hi) = if w1 <= w2 { (w1, w2) } else { (w2, w1) };
            for pol in [Polarity::PositiveGoing, Polarity::NegativeGoing] {
                prop_assert!(c.pulse_out(lo, pol) <= c.pulse_out(hi, pol) + 1e-18);
            }
        }

        /// Folding the prefix `0..k` and then the rest from its result is
        /// `pulse_out` bit for bit, at every split `k`, on chains mixing
        /// gates (inverting or not, slowed or not), RC elements and
        /// zero-width cutoffs (a zero-τ RC passes everything; a huge one
        /// kills the pulse, after which the suffix must not run).
        #[test]
        fn split_fold_is_pulse_out(
            spec in proptest::collection::vec((0u8..4, 0.3f64..1.8, 0.0f64..4e-10), 0..10),
            w_in in 0.0f64..1.5e-9,
        ) {
            let elements: Vec<PathElement> = spec
                .iter()
                .map(|&(kind, k, x)| match kind {
                    0 | 1 => PathElement::Gate {
                        model: GateTimingModel::new(100e-12 * k, 80e-12 * k, 60e-12 * k, 200e-12 * k),
                        inverting: kind == 0,
                        slow_rise: x * 0.25,
                        slow_fall: 0.0,
                    },
                    2 => PathElement::RcNet { tau: x },
                    _ => PathElement::RcNet { tau: if k < 1.0 { 0.0 } else { 1e-6 } },
                })
                .collect();
            let c = PathTimingModel::new(elements);
            let n = c.elements().len();
            for pol in [Polarity::PositiveGoing, Polarity::NegativeGoing] {
                let whole = c.pulse_out(w_in, pol);
                for k in 0..=n {
                    let split = c
                        .fold_pulse(0..k, w_in, pol)
                        .and_then(|(w, p)| c.fold_pulse(k..n, w, p))
                        .map_or(0.0, |(w, _)| w);
                    prop_assert_eq!(split.to_bits(), whole.to_bits());
                }
            }
        }

        /// A fault (edge slow-down or RC) never *increases* the minimum
        /// passing width... i.e. the faulty path never passes a pulse the
        /// healthy one filters.
        #[test]
        fn faults_never_help(w in 0.0f64..1.0e-9, tau in 1e-12f64..5e-10, stage in 0usize..5) {
            let healthy = chain(5);
            let mut faulty = healthy.clone();
            faulty.inject_rc_after(stage, tau);
            for pol in [Polarity::PositiveGoing, Polarity::NegativeGoing] {
                prop_assert!(faulty.pulse_out(w, pol) <= healthy.pulse_out(w, pol) + 1e-18);
            }
        }
    }
}
