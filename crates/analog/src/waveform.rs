//! Waveform traces and the measurements the pulse-propagation experiments
//! are built on: threshold crossings, propagation delays and pulse widths.
//!
//! A pulse that a faulty path "dampens" shows up here as either no
//! threshold crossing at all (fully filtered) or a much narrower width
//! between its two crossings (incomplete pulse) — exactly the phenomena of
//! Figs. 2, 3 and 5 of the paper.

/// Signal edge direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Edge {
    /// Low-to-high crossing.
    Rising,
    /// High-to-low crossing.
    Falling,
}

impl Edge {
    /// The opposite edge.
    pub fn inverted(self) -> Edge {
        match self {
            Edge::Rising => Edge::Falling,
            Edge::Falling => Edge::Rising,
        }
    }
}

/// Polarity of a pulse relative to its resting level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// Rests low, pulses high (`0 → 1 → 0`); the paper's kind *l*.
    PositiveGoing,
    /// Rests high, pulses low (`1 → 0 → 1`); the paper's kind *h*.
    NegativeGoing,
}

impl Polarity {
    /// Leading edge of a pulse of this polarity.
    pub fn leading_edge(self) -> Edge {
        match self {
            Polarity::PositiveGoing => Edge::Rising,
            Polarity::NegativeGoing => Edge::Falling,
        }
    }

    /// Polarity after passing through an inverting stage.
    pub fn inverted(self) -> Polarity {
        match self {
            Polarity::PositiveGoing => Polarity::NegativeGoing,
            Polarity::NegativeGoing => Polarity::PositiveGoing,
        }
    }
}

/// A measured pulse: the interval a signal spends beyond a threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pulse {
    /// Time of the leading threshold crossing.
    pub t_start: f64,
    /// Time of the trailing threshold crossing.
    pub t_end: f64,
    /// Extreme value reached inside the pulse (max for positive-going,
    /// min for negative-going).
    pub peak: f64,
}

impl Pulse {
    /// Pulse width measured at the threshold, seconds.
    pub fn width(&self) -> f64 {
        self.t_end - self.t_start
    }
}

/// Borrowed view of a sampled waveform `(t[i], v[i])`.
///
/// Time points must be non-decreasing. All measurements interpolate
/// linearly between samples.
///
/// # Example
///
/// ```
/// use pulsar_analog::{Polarity, Trace};
///
/// // A triangular bump: the kind of degraded pulse a defect produces.
/// let t = [0.0, 1e-9, 2e-9];
/// let v = [0.0, 1.8, 0.0];
/// let trace = Trace::new(&t, &v);
/// let width = trace.widest_pulse_width(0.9, Polarity::PositiveGoing);
/// assert!((width - 1e-9).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Trace<'a> {
    t: &'a [f64],
    v: &'a [f64],
}

impl<'a> Trace<'a> {
    /// Wraps borrowed sample arrays.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or are empty.
    pub fn new(t: &'a [f64], v: &'a [f64]) -> Self {
        assert_eq!(t.len(), v.len(), "time/value slices must have equal length");
        assert!(!t.is_empty(), "a trace needs at least one sample");
        Trace { t, v }
    }

    /// Time points.
    pub fn times(&self) -> &'a [f64] {
        self.t
    }

    /// Sample values.
    pub fn values(&self) -> &'a [f64] {
        self.v
    }

    /// Linear interpolation at time `time`, clamped to the trace ends.
    pub fn value_at(&self, time: f64) -> f64 {
        if time <= self.t[0] {
            return self.v[0];
        }
        // hot-path: `t`/`v` are non-empty by the constructor's contract
        // (the `self.t[0]` read above already enforces it), so these
        // `last()` calls cannot fail.
        if time >= *self.t.last().expect("non-empty") {
            return *self.v.last().expect("non-empty"); // hot-path: see above
        }
        // Binary search for the bracketing interval.
        let idx = self.t.partition_point(|&x| x < time);
        let (t0, t1) = (self.t[idx - 1], self.t[idx]);
        let (v0, v1) = (self.v[idx - 1], self.v[idx]);
        if t1 == t0 {
            return v1;
        }
        v0 + (v1 - v0) * (time - t0) / (t1 - t0)
    }

    /// Last sampled value.
    pub fn last_value(&self) -> f64 {
        // hot-path: non-empty by the constructor's contract.
        *self.v.last().expect("non-empty")
    }

    /// Maximum sampled value.
    pub fn max_value(&self) -> f64 {
        self.v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum sampled value.
    pub fn min_value(&self) -> f64 {
        self.v.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// All times at which the trace crosses `threshold` with the given
    /// `edge` direction, interpolated between samples.
    ///
    /// A crossing is a strict side change: the signal must have been
    /// strictly on one side of the threshold and later be strictly on the
    /// other. Samples *exactly at* the threshold carry no side of their
    /// own — a flat segment sitting on the threshold yields no crossing
    /// (and therefore no zero-width phantom pulse) unless the signal
    /// continues through to the other side, in which case the crossing
    /// time is the *first touch* of the threshold. Consecutive duplicate
    /// time points interpolate to their shared time. A trace that starts
    /// at the threshold takes its initial side from the first off-threshold
    /// sample without producing a crossing.
    ///
    /// Rising and falling crossings of one threshold always strictly
    /// alternate; pulse pairing in [`Trace::pulses`] relies on this.
    pub fn crossings(&self, threshold: f64, edge: Edge) -> Vec<f64> {
        let mut detector = CrossingDetector::new(threshold, edge);
        self.t
            .iter()
            .zip(self.v)
            .filter_map(|(&t, &v)| detector.push(t, v))
            .collect()
    }

    /// First crossing of `threshold` with direction `edge` at or after
    /// time `after`.
    pub fn first_crossing_after(&self, threshold: f64, edge: Edge, after: f64) -> Option<f64> {
        self.crossings(threshold, edge)
            .into_iter()
            .find(|&t| t >= after)
    }

    /// Extracts every pulse of the given `polarity` with respect to
    /// `threshold`: maximal intervals during which the signal stays beyond
    /// the threshold, with the peak excursion reached inside each.
    ///
    /// A fully dampened pulse produces no entry — the signal never crosses
    /// the threshold — which is precisely the paper's detection condition.
    ///
    /// # Truncation semantics
    ///
    /// Only *complete* pulses — a leading crossing matched by a later
    /// trailing crossing — are reported:
    ///
    /// * a trace that starts beyond the threshold contributes a trailing
    ///   crossing with no leading partner; it is skipped, never paired
    ///   with a later pulse's leading edge;
    /// * a trace that ends beyond the threshold (trailing edge truncated
    ///   at `stop`) has a final leading crossing with no partner; it is
    ///   dropped. Callers that must account for such pulses can compare
    ///   the counts of leading and trailing [`Trace::crossings`].
    ///
    /// Because crossings of one threshold strictly alternate (see
    /// [`Trace::crossings`]), every reported pulse has positive width;
    /// flat segments resting exactly on the threshold yield no zero-width
    /// pulses.
    pub fn pulses(&self, threshold: f64, polarity: Polarity) -> Vec<Pulse> {
        let lead = polarity.leading_edge();
        let trail = lead.inverted();
        let starts = self.crossings(threshold, lead);
        let ends = self.crossings(threshold, trail);
        let mut out = Vec::new();
        let mut ei = 0usize;
        for s in starts {
            // Skip unmatched trailing crossings before this leading edge
            // (e.g. the trace started beyond the threshold).
            while ei < ends.len() && ends[ei] <= s {
                ei += 1;
            }
            if ei >= ends.len() {
                // Leading edge with no trailing partner: truncated pulse.
                break;
            }
            let e = ends[ei];
            ei += 1;
            // Peak within [s, e]: samples are time-ordered, so the window
            // is a contiguous index range.
            let lo = self.t.partition_point(|&tt| tt < s);
            let mut peak = self.value_at(s);
            for i in lo..self.t.len() {
                if self.t[i] > e {
                    break;
                }
                peak = match polarity {
                    Polarity::PositiveGoing => peak.max(self.v[i]),
                    Polarity::NegativeGoing => peak.min(self.v[i]),
                };
            }
            out.push(Pulse {
                t_start: s,
                t_end: e,
                peak,
            });
        }
        out
    }

    /// Width of the widest pulse of `polarity` around `threshold`, or 0.0
    /// when the signal never completes a pulse (fully dampened).
    pub fn widest_pulse_width(&self, threshold: f64, polarity: Polarity) -> f64 {
        self.pulses(threshold, polarity)
            .iter()
            .map(Pulse::width)
            .fold(0.0, f64::max)
    }

    /// Transition (slew) time of the first `edge` after `after`: the time
    /// spent between the `lo` and `hi` thresholds (e.g. 10 %/90 % of
    /// VDD). Returns `None` when the trace never completes such a
    /// transition — which is itself a signal: a resistive open that
    /// degrades a slope may keep the node from ever reaching `hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn transition_time(&self, lo: f64, hi: f64, edge: Edge, after: f64) -> Option<f64> {
        assert!(lo < hi, "thresholds must be ordered: lo {lo} >= hi {hi}");
        match edge {
            Edge::Rising => {
                let t_lo = self.first_crossing_after(lo, Edge::Rising, after)?;
                let t_hi = self.first_crossing_after(hi, Edge::Rising, t_lo)?;
                Some(t_hi - t_lo)
            }
            Edge::Falling => {
                let t_hi = self.first_crossing_after(hi, Edge::Falling, after)?;
                let t_lo = self.first_crossing_after(lo, Edge::Falling, t_hi)?;
                Some(t_lo - t_hi)
            }
        }
    }

    /// Peak excursion from `rest` in the direction of `polarity`, in volts.
    ///
    /// Useful to quantify *partial* dampening: an incomplete pulse may still
    /// move the node without crossing the threshold.
    pub fn peak_excursion(&self, rest: f64, polarity: Polarity) -> f64 {
        match polarity {
            Polarity::PositiveGoing => self.max_value() - rest,
            Polarity::NegativeGoing => rest - self.min_value(),
        }
    }
}

/// [`Trace::crossings`] computed one sample at a time: feed the samples
/// in time order and each call returns the crossing that sample
/// completes, if any. A crossing, once returned, is final: later samples
/// never move or retract it, which is what lets a transient stop as soon
/// as the crossings it needs have appeared.
#[derive(Debug, Clone)]
pub(crate) struct CrossingDetector {
    threshold: f64,
    edge: Edge,
    /// Last strict side (`true` = above); `None` while every sample so
    /// far sits exactly on the threshold.
    side: Option<bool>,
    /// The last strictly off-threshold sample (the first sample, until
    /// one is off-threshold) and the sample right after it, between which
    /// the next crossing is interpolated.
    last_off: Option<(f64, f64)>,
    after_off: Option<(f64, f64)>,
}

impl CrossingDetector {
    pub(crate) fn new(threshold: f64, edge: Edge) -> Self {
        CrossingDetector {
            threshold,
            edge,
            side: None,
            last_off: None,
            after_off: None,
        }
    }

    /// Feeds the next sample; returns the crossing it completes.
    pub(crate) fn push(&mut self, t: f64, v: f64) -> Option<f64> {
        let Some((t0, v0)) = self.last_off else {
            // First sample: sets the side (or none, when on the
            // threshold) without producing a crossing.
            self.side = self.side_of(v);
            self.last_off = Some((t, v));
            return None;
        };
        let (t1, v1) = *self.after_off.get_or_insert((t, v));
        // Exactly at the threshold: hold the previous side.
        let above = self.side_of(v)?;
        let wanted = match self.edge {
            Edge::Rising => above,
            Edge::Falling => !above,
        };
        let crossing = match self.side {
            // Strict side change. Since the samples between the last
            // off-threshold one and this one (if any) sit exactly on the
            // threshold, the signal first reaches the threshold in the
            // segment right after the last off-threshold sample. There
            // v0 is strictly off-threshold and v1 is at or beyond it, so
            // v1 != v0; the clamp only guards against float round-off on
            // extreme segments.
            Some(prev) if prev != above && wanted => {
                let f = ((self.threshold - v0) / (v1 - v0)).clamp(0.0, 1.0);
                Some(t0 + f * (t1 - t0))
            }
            _ => None,
        };
        self.side = Some(above);
        self.last_off = Some((t, v));
        self.after_off = None;
        crossing
    }

    /// A time no later crossing can precede: each is interpolated inside
    /// the segment that starts at the last strictly off-threshold sample.
    fn not_before(&self) -> Option<f64> {
        self.last_off.map(|(t, _)| t)
    }

    fn side_of(&self, v: f64) -> Option<bool> {
        if v > self.threshold {
            Some(true)
        } else if v < self.threshold {
            Some(false)
        } else {
            None
        }
    }
}

/// [`propagation_delay`] computed one time point at a time: returns the
/// delay as soon as the samples fed so far fix it. Because crossings are
/// final once found ([`CrossingDetector`]), the delay of any longer trace
/// with these samples as a prefix is the same value.
#[derive(Debug, Clone)]
pub(crate) struct DelayDetector {
    input: CrossingDetector,
    output: CrossingDetector,
    after: f64,
    /// First input crossing at or after `after`, once seen.
    t_in: Option<f64>,
    /// Output crossings that may still follow `t_in` (all of them until
    /// `t_in` is known: an input edge resting on the threshold is timed
    /// at its first touch but confirmed only later).
    t_outs: Vec<f64>,
}

impl DelayDetector {
    pub(crate) fn new(in_edge: Edge, out_edge: Edge, threshold: f64, after: f64) -> Self {
        DelayDetector {
            input: CrossingDetector::new(threshold, in_edge),
            output: CrossingDetector::new(threshold, out_edge),
            after,
            t_in: None,
            t_outs: Vec::new(),
        }
    }

    /// Feeds one time point of both traces; returns the delay once known.
    pub(crate) fn push(&mut self, t: f64, v_in: f64, v_out: f64) -> Option<f64> {
        if let Some(c) = self.input.push(t, v_in) {
            if self.t_in.is_none() && c >= self.after {
                self.t_in = Some(c);
            }
        }
        if let Some(c) = self.output.push(t, v_out) {
            self.t_outs.push(c);
        }
        let t_in = self.t_in?;
        self.t_outs.retain(|&c| c >= t_in);
        self.t_outs.first().map(|&t_out| t_out - t_in)
    }

    /// A lower bound on the delay of every continuation of the samples fed
    /// so far, while the input has crossed and the output has not: the
    /// output's crossing can come no earlier than its last sample strictly
    /// off the threshold. That sample is the latest one, unless the latest
    /// one touches the threshold. `None` before the input crossing, or once
    /// [`DelayDetector::push`] has returned the delay.
    pub(crate) fn floor(&self) -> Option<f64> {
        let t_in = self.t_in?;
        if !self.t_outs.is_empty() {
            return None;
        }
        Some(self.output.not_before()? - t_in)
    }
}

/// A lower bound these samples prove on the delay that
/// [`propagation_delay`] would report for any continuation of them; `None`
/// when the input has not crossed yet, or the output already has (the
/// delay itself is then known). Both traces must share their time points,
/// as the traces of one transient run do.
///
/// A run that a verdict bound stopped ([`crate::Until::Crossed`]'s
/// `within`) reads its censored delay back through here: the stop rule
/// fired on this floor, so it exceeds `within`.
pub fn delay_floor(
    input: &Trace<'_>,
    in_edge: Edge,
    output: &Trace<'_>,
    out_edge: Edge,
    threshold: f64,
    after: f64,
) -> Option<f64> {
    let mut detector = DelayDetector::new(in_edge, out_edge, threshold, after);
    for ((&t, &v_in), &v_out) in input.t.iter().zip(input.v).zip(output.v) {
        if detector.push(t, v_in, v_out).is_some() {
            return None;
        }
    }
    detector.floor()
}

/// Propagation delay from an edge on `input` to the corresponding edge on
/// `output`, both measured at `threshold`. Returns `None` if either edge
/// is missing (e.g. the transition was swallowed by the fault).
///
/// `after` restricts the search to edges at or after that time, which lets
/// callers skip initial settling.
pub fn propagation_delay(
    input: &Trace<'_>,
    in_edge: Edge,
    output: &Trace<'_>,
    out_edge: Edge,
    threshold: f64,
    after: f64,
) -> Option<f64> {
    let t_in = input.first_crossing_after(threshold, in_edge, after)?;
    let t_out = output.first_crossing_after(threshold, out_edge, t_in)?;
    Some(t_out - t_in)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use proptest::prelude::*;

    fn triangle() -> (Vec<f64>, Vec<f64>) {
        // 0 → 1 → 0 triangle over t in [0, 2].
        (vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 0.0])
    }

    #[test]
    fn value_at_interpolates_and_clamps() {
        let (t, v) = triangle();
        let tr = Trace::new(&t, &v);
        assert_eq!(tr.value_at(-1.0), 0.0);
        assert_eq!(tr.value_at(0.5), 0.5);
        assert_eq!(tr.value_at(1.5), 0.5);
        assert_eq!(tr.value_at(99.0), 0.0);
    }

    #[test]
    fn crossings_both_directions() {
        let (t, v) = triangle();
        let tr = Trace::new(&t, &v);
        let rise = tr.crossings(0.5, Edge::Rising);
        let fall = tr.crossings(0.5, Edge::Falling);
        assert_eq!(rise, vec![0.5]);
        assert_eq!(fall, vec![1.5]);
    }

    #[test]
    fn pulse_extraction_positive() {
        let (t, v) = triangle();
        let tr = Trace::new(&t, &v);
        let pulses = tr.pulses(0.5, Polarity::PositiveGoing);
        assert_eq!(pulses.len(), 1);
        let p = pulses[0];
        assert!((p.width() - 1.0).abs() < 1e-12);
        assert_eq!(p.peak, 1.0);
    }

    #[test]
    fn dampened_pulse_yields_no_crossing() {
        // A bump that stays below threshold: fully dampened.
        let t = vec![0.0, 1.0, 2.0];
        let v = vec![0.0, 0.3, 0.0];
        let tr = Trace::new(&t, &v);
        assert!(tr.pulses(0.5, Polarity::PositiveGoing).is_empty());
        assert_eq!(tr.widest_pulse_width(0.5, Polarity::PositiveGoing), 0.0);
        assert!((tr.peak_excursion(0.0, Polarity::PositiveGoing) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn negative_going_pulse() {
        let t = vec![0.0, 1.0, 2.0, 3.0];
        let v = vec![1.8, 0.0, 0.0, 1.8];
        let tr = Trace::new(&t, &v);
        let pulses = tr.pulses(0.9, Polarity::NegativeGoing);
        assert_eq!(pulses.len(), 1);
        assert_eq!(pulses[0].peak, 0.0);
        assert!(pulses[0].width() > 1.0);
    }

    #[test]
    fn pulse_train_counts_each_pulse() {
        let t: Vec<f64> = (0..9).map(|i| i as f64).collect();
        let v = vec![0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.2, 0.0];
        let tr = Trace::new(&t, &v);
        let pulses = tr.pulses(0.5, Polarity::PositiveGoing);
        assert_eq!(pulses.len(), 3, "the 0.2 bump must not count");
    }

    #[test]
    fn incomplete_trailing_pulse_is_ignored() {
        // Rises but never falls back: not a pulse.
        let t = vec![0.0, 1.0, 2.0];
        let v = vec![0.0, 1.0, 1.0];
        let tr = Trace::new(&t, &v);
        assert!(tr.pulses(0.5, Polarity::PositiveGoing).is_empty());
    }

    #[test]
    fn transition_time_measures_slew() {
        // Ramp from 0 to 1 over [0, 1]: 10–90 % takes 0.8.
        let t = vec![0.0, 1.0, 2.0];
        let v = vec![0.0, 1.0, 1.0];
        let tr = Trace::new(&t, &v);
        let slew = tr.transition_time(0.1, 0.9, Edge::Rising, 0.0).unwrap();
        assert!((slew - 0.8).abs() < 1e-12);
        // Falling version on the mirrored ramp.
        let v = vec![1.0, 0.0, 0.0];
        let tr = Trace::new(&t, &v);
        let slew = tr.transition_time(0.1, 0.9, Edge::Falling, 0.0).unwrap();
        assert!((slew - 0.8).abs() < 1e-12);
    }

    #[test]
    fn incomplete_transition_has_no_slew() {
        // Never reaches 0.9: a degraded edge.
        let t = vec![0.0, 1.0, 2.0];
        let v = vec![0.0, 0.5, 0.5];
        let tr = Trace::new(&t, &v);
        assert_eq!(tr.transition_time(0.1, 0.9, Edge::Rising, 0.0), None);
    }

    #[test]
    fn propagation_delay_measures_edge_to_edge() {
        let t = vec![0.0, 1.0, 2.0, 3.0, 4.0];
        let vin = vec![0.0, 0.0, 1.0, 1.0, 1.0];
        let vout = vec![1.0, 1.0, 1.0, 0.0, 0.0];
        let ti = Trace::new(&t, &vin);
        let to = Trace::new(&t, &vout);
        let d = propagation_delay(&ti, Edge::Rising, &to, Edge::Falling, 0.5, 0.0)
            .expect("both edges present");
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn propagation_delay_none_when_output_never_switches() {
        let t = vec![0.0, 1.0, 2.0];
        let vin = vec![0.0, 1.0, 1.0];
        let vout = vec![0.0, 0.0, 0.0];
        let ti = Trace::new(&t, &vin);
        let to = Trace::new(&t, &vout);
        assert!(propagation_delay(&ti, Edge::Rising, &to, Edge::Rising, 0.5, 0.0).is_none());
    }

    #[test]
    fn polarity_and_edge_helpers() {
        assert_eq!(Polarity::PositiveGoing.leading_edge(), Edge::Rising);
        assert_eq!(Polarity::NegativeGoing.leading_edge(), Edge::Falling);
        assert_eq!(Polarity::PositiveGoing.inverted(), Polarity::NegativeGoing);
        assert_eq!(Edge::Rising.inverted(), Edge::Falling);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_slices_panic() {
        let _ = Trace::new(&[0.0, 1.0], &[0.0]);
    }

    #[test]
    fn dip_to_exact_threshold_does_not_split_the_pulse() {
        // A pulse that dips to *exactly* the threshold mid-flight: the dip
        // must not end the pulse (the signal never goes strictly below).
        // The old sample-pair rule fired a falling crossing at the dip but
        // no matching rising one, truncating the measured width to 1.5.
        let t = vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let v = vec![0.0, 1.0, 0.5, 0.5, 1.0, 0.0];
        let tr = Trace::new(&t, &v);
        assert_eq!(tr.crossings(0.5, Edge::Rising), vec![0.5]);
        assert_eq!(tr.crossings(0.5, Edge::Falling), vec![4.5]);
        let pulses = tr.pulses(0.5, Polarity::PositiveGoing);
        assert_eq!(pulses.len(), 1);
        assert!((pulses[0].width() - 4.0).abs() < 1e-12);
        assert!((tr.widest_pulse_width(0.5, Polarity::PositiveGoing) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn touching_the_threshold_is_not_a_crossing() {
        // Touch from below without going through: no crossings in either
        // direction, no phantom zero-width pulse. The old rule yielded a
        // rising crossing with no falling partner.
        let t = vec![0.0, 1.0, 2.0];
        let v = vec![0.0, 0.5, 0.0];
        let tr = Trace::new(&t, &v);
        assert!(tr.crossings(0.5, Edge::Rising).is_empty());
        assert!(tr.crossings(0.5, Edge::Falling).is_empty());
        assert!(tr.pulses(0.5, Polarity::PositiveGoing).is_empty());
        assert_eq!(tr.widest_pulse_width(0.5, Polarity::PositiveGoing), 0.0);
    }

    #[test]
    fn flat_run_on_threshold_crosses_at_first_touch() {
        // Ride along the threshold, then continue to the other side: one
        // crossing, timed at the first touch — not one per flat sample.
        let t = vec![0.0, 1.0, 2.0, 3.0, 4.0];
        let v = vec![0.0, 0.5, 0.5, 0.5, 1.0];
        let tr = Trace::new(&t, &v);
        assert_eq!(tr.crossings(0.5, Edge::Rising), vec![1.0]);
        assert!(tr.crossings(0.5, Edge::Falling).is_empty());
    }

    #[test]
    fn duplicate_time_points_interpolate_cleanly() {
        // A vertical edge recorded as two samples at the same time (e.g. a
        // breakpoint snap): the crossing lands exactly on that time and is
        // reported once.
        let t = vec![0.0, 1.0, 1.0, 2.0];
        let v = vec![0.0, 0.0, 1.0, 1.0];
        let tr = Trace::new(&t, &v);
        assert_eq!(tr.crossings(0.5, Edge::Rising), vec![1.0]);
        assert!(tr.crossings(0.5, Edge::Falling).is_empty());
    }

    #[test]
    fn trace_starting_above_threshold_does_not_mispair() {
        // Starts above: the initial falling crossing has no leading
        // partner and must not pair with the later pulse's edges.
        let t = vec![0.0, 1.0, 2.0, 3.0];
        let v = vec![1.0, 0.0, 1.0, 0.0];
        let tr = Trace::new(&t, &v);
        let pulses = tr.pulses(0.5, Polarity::PositiveGoing);
        assert_eq!(pulses.len(), 1);
        assert!((pulses[0].t_start - 1.5).abs() < 1e-12);
        assert!((pulses[0].t_end - 2.5).abs() < 1e-12);
    }

    #[test]
    fn truncated_trailing_pulse_dropped_after_complete_one() {
        // One complete pulse, then a rise cut off by the end of the trace:
        // only the complete pulse is reported (documented truncation
        // semantics), and its edges are its own.
        let t = vec![0.0, 1.0, 1.0, 2.0, 3.0];
        let v = vec![0.2, 0.8, 0.8, 0.4, 0.9];
        let tr = Trace::new(&t, &v);
        let pulses = tr.pulses(0.5, Polarity::PositiveGoing);
        assert_eq!(pulses.len(), 1);
        assert!((pulses[0].t_start - 0.5).abs() < 1e-12);
        assert!((pulses[0].t_end - 1.75).abs() < 1e-12);
        assert!((tr.widest_pulse_width(0.5, Polarity::PositiveGoing) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn trace_starting_exactly_on_threshold_sets_state_without_crossing() {
        // First sample exactly at the threshold: the first off-threshold
        // sample establishes the side silently.
        let t = vec![0.0, 1.0, 2.0];
        let v = vec![0.5, 1.0, 0.0];
        let tr = Trace::new(&t, &v);
        assert!(tr.crossings(0.5, Edge::Rising).is_empty());
        assert_eq!(tr.crossings(0.5, Edge::Falling), vec![1.5]);
    }

    #[test]
    fn final_segment_terminating_exactly_on_threshold_is_truncated() {
        // A pulse whose trailing edge reaches the threshold exactly at the
        // last sample and stops there (a width-only capture clipped at
        // `stop` can legitimately end this way): the signal never gets
        // *strictly* past the threshold, so no trailing crossing exists
        // and the pulse is truncated — dropped, exactly like a trace that
        // ends beyond the threshold. Pinned so a width-only solve can
        // never silently report a phantom completed pulse.
        let t = vec![0.0, 1.0, 2.0, 3.0];
        let v = vec![0.0, 1.0, 1.0, 0.5];
        let tr = Trace::new(&t, &v);
        assert_eq!(tr.crossings(0.5, Edge::Rising), vec![0.5]);
        assert!(tr.crossings(0.5, Edge::Falling).is_empty());
        assert!(tr.pulses(0.5, Polarity::PositiveGoing).is_empty());
        assert_eq!(tr.widest_pulse_width(0.5, Polarity::PositiveGoing), 0.0);
    }

    #[test]
    fn final_flat_run_on_threshold_is_also_truncated() {
        // Same clipping, but the trace *rests* on the threshold for its
        // final samples instead of touching it once: still no strict side
        // change, still truncated, and crucially no zero-width phantom
        // pulse from the flat run.
        let t = vec![0.0, 1.0, 2.0, 3.0, 4.0];
        let v = vec![0.0, 1.0, 0.5, 0.5, 0.5];
        let tr = Trace::new(&t, &v);
        assert!(tr.crossings(0.5, Edge::Falling).is_empty());
        assert!(tr.pulses(0.5, Polarity::PositiveGoing).is_empty());
        assert_eq!(tr.widest_pulse_width(0.5, Polarity::PositiveGoing), 0.0);
    }

    #[test]
    fn threshold_touch_completing_later_ends_pulse_at_first_touch() {
        // Contrast case: the same at-threshold touch, but the trace then
        // continues strictly below. Now the crossing exists and lands at
        // the *first touch*, so the pulse completes there — the touch
        // itself decides nothing until the far side confirms it.
        let t = vec![0.0, 1.0, 2.0, 3.0];
        let v = vec![0.0, 1.0, 0.5, 0.2];
        let tr = Trace::new(&t, &v);
        assert_eq!(tr.crossings(0.5, Edge::Falling), vec![2.0]);
        let pulses = tr.pulses(0.5, Polarity::PositiveGoing);
        assert_eq!(pulses.len(), 1);
        assert!((pulses[0].t_start - 0.5).abs() < 1e-12);
        assert!((pulses[0].t_end - 2.0).abs() < 1e-12);
        assert!((tr.widest_pulse_width(0.5, Polarity::PositiveGoing) - 1.5).abs() < 1e-12);
    }

    /// The batch crossing rule as first written, kept as an independent
    /// oracle for the incremental [`CrossingDetector`].
    fn reference_crossings(t: &[f64], v: &[f64], threshold: f64, edge: Edge) -> Vec<f64> {
        let side = |v: f64| (v != threshold).then_some(v > threshold);
        let mut out = Vec::new();
        let mut state = side(v[0]);
        let mut last_off = 0usize;
        for i in 1..t.len() {
            let Some(above) = side(v[i]) else { continue };
            if state.is_some_and(|prev| prev != above) && above == (edge == Edge::Rising) {
                let (t0, t1) = (t[last_off], t[last_off + 1]);
                let (v0, v1) = (v[last_off], v[last_off + 1]);
                let f = ((threshold - v0) / (v1 - v0)).clamp(0.0, 1.0);
                out.push(t0 + f * (t1 - t0));
            }
            state = Some(above);
            last_off = i;
        }
        out
    }

    const TH: f64 = 0.5;

    /// A random trace around the threshold `TH`: `(dt, level, value)`
    /// per sample, where `dt == 0` repeats the time point, level 0 sits
    /// exactly on the threshold and level 1 repeats the previous value
    /// (plateaus, also on the threshold).
    fn trace_strategy() -> BoxedStrategy<Vec<(u8, u8, f64)>> {
        prop::collection::vec((0u8..4, 0u8..4, -1.0f64..1.0), 1..40).boxed()
    }

    fn build(spec: &[(u8, u8, f64)]) -> (Vec<f64>, Vec<f64>) {
        let (mut t, mut v) = (Vec::new(), Vec::new());
        let (mut now, mut last) = (0.0, TH);
        for &(dt, level, x) in spec {
            if !t.is_empty() {
                now += 0.5 * f64::from(dt);
            }
            last = match level {
                0 => TH,
                1 => last,
                _ => TH + x,
            };
            t.push(now);
            v.push(last);
        }
        (t, v)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The incremental detector behind `Trace::crossings` reproduces
        /// the batch rule on plateaus, duplicate times and at-threshold
        /// samples.
        #[test]
        fn crossings_match_the_batch_rule(spec in trace_strategy()) {
            let (t, v) = build(&spec);
            let tr = Trace::new(&t, &v);
            for edge in [Edge::Rising, Edge::Falling] {
                let want: Vec<u64> =
                    reference_crossings(&t, &v, TH, edge).iter().map(|c| c.to_bits()).collect();
                let got: Vec<u64> = tr.crossings(TH, edge).iter().map(|c| c.to_bits()).collect();
                prop_assert_eq!(got, want);
            }
        }

        /// The `Crossed` stop detector returns exactly `propagation_delay`
        /// of the whole trace, at the first point that fixes it, and the
        /// trace cut there measures the same delay.
        #[test]
        fn delay_detector_matches_propagation_delay(
            a in trace_strategy(),
            b in trace_strategy(),
            after_frac in 0.0f64..1.0,
            rising: bool,
            out_rising: bool,
        ) {
            let n = a.len().min(b.len());
            let (t, vin) = build(&a[..n]);
            // The output shares the input's time points.
            let (_, vout) = build(&b[..n]);
            let after = after_frac * t[n - 1];
            let edge = |r: bool| if r { Edge::Rising } else { Edge::Falling };
            let (ie, oe) = (edge(rising), edge(out_rising));
            let mut det = DelayDetector::new(ie, oe, TH, after);
            let stop = (0..n).find_map(|i| det.push(t[i], vin[i], vout[i]).map(|d| (i, d)));
            let whole = propagation_delay(
                &Trace::new(&t, &vin), ie, &Trace::new(&t, &vout), oe, TH, after,
            );
            prop_assert_eq!(stop.map(|(_, d)| d.to_bits()), whole.map(f64::to_bits));
            if let Some((i, d)) = stop {
                let cut = propagation_delay(
                    &Trace::new(&t[..=i], &vin[..=i]),
                    ie,
                    &Trace::new(&t[..=i], &vout[..=i]),
                    oe,
                    TH,
                    after,
                );
                prop_assert_eq!(cut.map(f64::to_bits), Some(d.to_bits()));
            }
        }

        /// The verdict-bound premise: whatever floor a prefix proves, the
        /// delay of the whole trace is at least that large — also where
        /// the prefix ends on samples that touch the threshold.
        #[test]
        fn delay_floor_bounds_every_continuation(
            a in trace_strategy(),
            b in trace_strategy(),
            after_frac in 0.0f64..1.0,
            rising: bool,
            out_rising: bool,
        ) {
            let n = a.len().min(b.len());
            let (t, vin) = build(&a[..n]);
            let (_, vout) = build(&b[..n]);
            let after = after_frac * t[n - 1];
            let edge = |r: bool| if r { Edge::Rising } else { Edge::Falling };
            let (ie, oe) = (edge(rising), edge(out_rising));
            let whole = propagation_delay(
                &Trace::new(&t, &vin), ie, &Trace::new(&t, &vout), oe, TH, after,
            );
            for i in 0..n {
                let input = Trace::new(&t[..=i], &vin[..=i]);
                let output = Trace::new(&t[..=i], &vout[..=i]);
                let floor = delay_floor(&input, ie, &output, oe, TH, after);
                let known = propagation_delay(&input, ie, &output, oe, TH, after);
                prop_assert!(floor.is_none() || known.is_none());
                if let (Some(f), Some(d)) = (floor, whole) {
                    prop_assert!(f <= d, "prefix {} floor {} above the delay {}", i, f, d);
                }
            }
        }

        /// The `Settled` premise at trace level: once the signal stays on
        /// its resting side, cutting the trace at the first resting sample
        /// leaves every pulse width unchanged.
        #[test]
        fn widths_are_fixed_once_the_trace_rests(
            head in trace_strategy(),
            tail in prop::collection::vec(0.0f64..0.4, 1..20),
        ) {
            let (mut t, mut v) = build(&head);
            let cut = t.len() + 1;
            let mut now = t[t.len() - 1];
            for x in tail {
                now += 0.5;
                t.push(now);
                v.push(x);
            }
            for polarity in [Polarity::PositiveGoing, Polarity::NegativeGoing] {
                let whole = Trace::new(&t, &v).widest_pulse_width(TH, polarity);
                let head = Trace::new(&t[..cut], &v[..cut]).widest_pulse_width(TH, polarity);
                prop_assert_eq!(head.to_bits(), whole.to_bits());
            }
        }
    }
}
