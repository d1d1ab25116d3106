//! Sequential early-stopping policy for adaptive Monte Carlo coverage.
//!
//! A coverage study evaluates a grid of points (one per fault resistance
//! × test-condition factor). The fixed-budget engine spends the same N on
//! every point; the adaptive engine instead consumes the `stream_seed`-
//! ordered sample stream in rounds and stops a point as soon as a
//! binomial confidence interval on its coverage estimate is narrower
//! than the requested precision.
//!
//! Determinism is the design constraint: stopping decisions are taken
//! **only on ordered prefixes** of the sample stream. Workers may compute
//! a round's samples in parallel (fixed-size chunks fanned out by the
//! [`crate::MonteCarlo`] driver), but the decision loop consumes rounds
//! in stream order, so the decided per-point sample count — and with it
//! every reported number — is bit-identical across thread counts.
//!
//! This module is pure policy/arithmetic (no I/O, no clocks) and is on
//! the lint-src hot-path list: the per-round decision arithmetic runs
//! between every round of transient solves.

use crate::interval::{clopper_pearson, wilson, BinomialInterval};

/// Which interval construction the stopping rule uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IntervalRule {
    /// Wilson score interval at critical value `z`.
    Wilson {
        /// Normal critical value (1.96 ⇒ 95 %).
        z: f64,
    },
    /// Exact Clopper–Pearson interval at two-sided level `alpha`.
    ClopperPearson {
        /// Two-sided miss probability (0.05 ⇒ 95 %).
        alpha: f64,
    },
}

impl IntervalRule {
    /// The interval for `k` successes in `n` trials under this rule.
    pub fn interval(&self, k: u64, n: u64) -> BinomialInterval {
        match *self {
            IntervalRule::Wilson { z } => wilson(k, n, z),
            IntervalRule::ClopperPearson { alpha } => clopper_pearson(k, n, alpha),
        }
    }
}

/// The adaptive sampling policy: requested precision, interval rule, and
/// the budget/granularity knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptivePolicy {
    /// Requested CI half-width: a point stops once every factor's
    /// interval is at least this tight.
    pub precision: f64,
    /// Interval construction used by the stopping rule.
    pub rule: IntervalRule,
    /// Minimum samples before any stop decision — guards against
    /// freak early prefixes stopping a point at n = chunk.
    pub min_samples: usize,
    /// Hard per-point budget for the first pass; refinement may extend a
    /// point to at most [`AdaptivePolicy::refine_cap`].
    pub max_samples: usize,
    /// Round size: decisions happen only at multiples of this many
    /// samples, so the parallel workers always have full chunks.
    pub chunk: usize,
    /// Coverage threshold for crossover refinement: points whose
    /// interval straddles it get a share of the saved budget.
    pub threshold: f64,
    /// Fraction of the phase-1 savings the refinement pass may
    /// reinvest, clamped to `[0, 1]`. `1.0` (the default) hands the
    /// crossover columns everything the early stops saved — a
    /// budget-neutral precision upgrade; smaller values bank the rest
    /// of the savings as net speedup; `0.0` disables refinement.
    pub refine_fraction: f64,
}

impl AdaptivePolicy {
    /// A policy with the workspace defaults: Wilson at 95 %, minimum 16
    /// samples (clamped to the budget), rounds of 16, threshold 0.5,
    /// full savings reinvestment.
    pub fn new(precision: f64, max_samples: usize) -> AdaptivePolicy {
        AdaptivePolicy {
            precision,
            rule: IntervalRule::Wilson { z: 1.96 },
            min_samples: 16.min(max_samples),
            max_samples,
            chunk: 16.min(max_samples.max(1)),
            threshold: 0.5,
            refine_fraction: 1.0,
        }
    }

    /// The interval for `k` successes in `n` trials under this policy.
    pub fn interval(&self, k: u64, n: u64) -> BinomialInterval {
        self.rule.interval(k, n)
    }

    /// Does a half-width of `hw` after `n` trials satisfy the stop rule?
    pub fn met(&self, hw: f64, n: usize) -> bool {
        n >= self.min_samples && hw <= self.precision
    }

    /// Length of the next round for a point that has consumed `done`
    /// samples of a `budget`-sample allowance (0 when exhausted).
    pub fn round_len(&self, done: usize, budget: usize) -> usize {
        self.chunk.min(budget.saturating_sub(done))
    }

    /// Hard ceiling for refined points: twice the first-pass budget.
    pub fn refine_cap(&self) -> usize {
        2 * self.max_samples
    }

    /// How much of the `saved` phase-1 budget refinement may spend.
    pub fn refine_budget(&self, saved: u64) -> u64 {
        let f = self.refine_fraction.clamp(0.0, 1.0);
        // The product of two finite non-negative values is non-negative,
        // and `saved` fits f64 exactly at any realistic sample count.
        (saved as f64 * f) as u64
    }

    /// Refined points aim for a tighter target than the first pass.
    pub fn refined_precision(&self) -> f64 {
        self.precision / 2.0
    }
}

/// Running success counts for one grid column (one fault resistance),
/// tracking every test-condition factor's detections over a shared
/// sample prefix.
#[derive(Debug, Clone)]
pub struct SequentialTally {
    trials: u64,
    successes: Vec<u64>,
}

impl SequentialTally {
    /// A tally over `factors` test conditions with no samples yet.
    pub fn new(factors: usize) -> SequentialTally {
        SequentialTally {
            trials: 0,
            successes: vec![0; factors],
        }
    }

    /// Accounts one sample: `detected[f]` is whether factor `f` detected
    /// the fault on this instance. Failed samples are simply not pushed —
    /// they contribute to neither numerator nor denominator.
    ///
    /// # Panics
    ///
    /// Panics if `detected` does not match the factor count.
    pub fn push(&mut self, detected: &[bool]) {
        assert_eq!(detected.len(), self.successes.len());
        self.trials += 1;
        for (s, &d) in self.successes.iter_mut().zip(detected) {
            *s += d as u64;
        }
    }

    /// Samples accounted so far.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Detections for factor `f`.
    pub fn successes(&self, f: usize) -> u64 {
        self.successes[f]
    }

    /// Number of factors tracked.
    pub fn factors(&self) -> usize {
        self.successes.len()
    }

    /// The interval for factor `f` under `policy`.
    pub fn interval(&self, policy: &AdaptivePolicy, f: usize) -> BinomialInterval {
        policy.interval(self.successes[f], self.trials)
    }

    /// The widest per-factor half-width — the column stops only when its
    /// loosest factor meets the precision.
    pub fn worst_halfwidth(&self, policy: &AdaptivePolicy) -> f64 {
        let mut worst = 0.0f64;
        for f in 0..self.successes.len() {
            worst = worst.max(self.interval(policy, f).halfwidth());
        }
        // No factors (or no trials): the interval is [0, 1].
        if self.successes.is_empty() || self.trials == 0 {
            0.5
        } else {
            worst
        }
    }

    /// Point estimate for factor `f` (0 when no trials resolved).
    pub fn coverage(&self, f: usize) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes[f] as f64 / self.trials as f64
        }
    }
}

/// Measured (not promised) accuracy of one grid point, as reported in
/// the journal and manifest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointAccuracy {
    /// The precision the stop rule was asked for.
    pub requested_halfwidth: f64,
    /// The half-width actually achieved when the point stopped.
    pub achieved_halfwidth: f64,
    /// Samples consumed by the point (phase 1 + refinement).
    pub samples_spent: u64,
    /// True when the point stopped before exhausting its budget.
    pub stopped_early: bool,
}

/// Marks the grid columns adjacent to a sign change of `diffs` (e.g.
/// `C_pulse − C_del` along the resistance axis): both endpoints of every
/// adjacent pair with opposite signs — or touching zero — are flagged.
/// These are the paper's crossover points, first in line for refinement.
pub fn sign_change_neighbors(diffs: &[f64]) -> Vec<bool> {
    let mut mark = vec![false; diffs.len()];
    for i in 1..diffs.len() {
        if diffs[i - 1] * diffs[i] <= 0.0 && !(diffs[i - 1] == 0.0 && diffs[i] == 0.0) {
            mark[i - 1] = true;
            mark[i] = true;
        }
    }
    mark
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn policy_defaults() {
        let p = AdaptivePolicy::new(0.05, 200);
        assert_eq!(p.min_samples, 16);
        assert_eq!(p.chunk, 16);
        assert_eq!(p.refine_cap(), 400);
        assert!((p.refined_precision() - 0.025).abs() < 1e-15);
        assert!(matches!(p.rule, IntervalRule::Wilson { z } if (z - 1.96).abs() < 1e-12));
    }

    #[test]
    fn policy_clamps_to_tiny_budgets() {
        let p = AdaptivePolicy::new(0.05, 6);
        assert_eq!(p.min_samples, 6);
        assert_eq!(p.chunk, 6);
        assert_eq!(p.round_len(0, 6), 6);
        assert_eq!(p.round_len(6, 6), 0);
    }

    #[test]
    fn round_len_clips_final_round() {
        let p = AdaptivePolicy::new(0.05, 200);
        assert_eq!(p.round_len(0, 200), 16);
        assert_eq!(p.round_len(192, 200), 8);
        assert_eq!(p.round_len(200, 200), 0);
        assert_eq!(p.round_len(300, 200), 0);
    }

    #[test]
    fn met_requires_min_samples() {
        let p = AdaptivePolicy::new(0.05, 200);
        assert!(!p.met(0.0, 8));
        assert!(p.met(0.05, 16));
        assert!(!p.met(0.0501, 16));
    }

    #[test]
    fn tally_tracks_per_factor_counts() {
        let p = AdaptivePolicy::new(0.069, 200);
        let mut t = SequentialTally::new(2);
        assert!((t.worst_halfwidth(&p) - 0.5).abs() < 1e-15);
        for i in 0..32 {
            t.push(&[true, i % 2 == 0]);
        }
        assert_eq!(t.trials(), 32);
        assert_eq!(t.successes(0), 32);
        assert_eq!(t.successes(1), 16);
        assert!((t.coverage(1) - 0.5).abs() < 1e-15);
        // Factor 0 is saturated (hw ≈ 0.054 at k=n=32); factor 1 sits at
        // p̂=0.5, the widest point — the worst drives the stop rule.
        let w0 = t.interval(&p, 0).halfwidth();
        let w1 = t.interval(&p, 1).halfwidth();
        assert!(w1 > w0);
        assert!((t.worst_halfwidth(&p) - w1).abs() < 1e-15);
        assert!(!p.met(t.worst_halfwidth(&p), 32));
    }

    #[test]
    fn saturated_point_stops_at_32() {
        // The bench's headline arithmetic: all-detected (or none) points
        // meet ε = 0.069 after exactly two rounds of 16.
        let p = AdaptivePolicy::new(0.069, 200);
        let mut t = SequentialTally::new(1);
        for _ in 0..16 {
            t.push(&[true]);
        }
        assert!(!p.met(t.worst_halfwidth(&p), 16));
        for _ in 0..16 {
            t.push(&[true]);
        }
        assert!(p.met(t.worst_halfwidth(&p), 32));
    }

    #[test]
    fn sign_changes_mark_both_neighbors() {
        assert_eq!(
            sign_change_neighbors(&[1.0, 0.5, -0.5, -1.0]),
            vec![false, true, true, false]
        );
        assert_eq!(
            sign_change_neighbors(&[1.0, 0.0, 1.0]),
            vec![true, true, true]
        );
        assert_eq!(sign_change_neighbors(&[1.0, 1.0]), vec![false, false]);
        assert_eq!(sign_change_neighbors(&[0.0, 0.0]), vec![false, false]);
        assert_eq!(sign_change_neighbors(&[]), Vec::<bool>::new());
        assert_eq!(sign_change_neighbors(&[-3.0]), vec![false]);
    }

    #[test]
    #[should_panic(expected = "assertion")]
    fn tally_push_checks_factor_count() {
        SequentialTally::new(2).push(&[true]);
    }
}
