use std::sync::Arc;

use crate::error::Error;
use crate::solver::workspace::Structure;

/// Dense row-major square matrix with in-place LU solution.
///
/// MNA matrices for the circuits in this project (CMOS paths of a dozen
/// gates) have a few dozen unknowns; dense partial-pivot LU is both simple
/// and fast at that scale, and avoids an external linear-algebra dependency.
/// The elimination skips exact zeros, so the near-banded structure of a
/// gate chain is exploited without a symbolic phase — and skipping is
/// bit-exact: subtracting `factor * 0.0` never changes an entry because
/// stamped MNA entries are never `-0.0` (stamps accumulate from `+0.0`,
/// and IEEE subtraction of equal finite values rounds to `+0.0`).
///
/// Given the structure of its topology ([`DenseMatrix::use_structure`]),
/// the matrix also keeps a [`LuPlan`]: the cells the partial-pivot
/// elimination can fill under the pivot order it chose last time. A
/// factorization whose pivots follow that order replays only the planned
/// cells, with the same results bit for bit (see [`LuPlan`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
    plan: LuPlan,
}

/// The structural replay plan of one topology's dense LU.
///
/// Learned from the topology's shared stamp pattern and the pivot rows the
/// dense loop chose, the plan lists per column `k`, closed under fill: the
/// rows below `k` that may hold a pivot candidate, the rows below `k` to
/// eliminate after the row swap, and the pivot row's columns right of
/// `k`. A replay searches only the candidates (first strictly greater
/// magnitude wins, as in the dense loop) and updates only planned cells.
/// That is exact:
///
/// * every cell outside the plan is `+0.0` — assembly writes only pattern
///   cells (debug-asserted), and no entry is ever `-0.0` (see
///   [`DenseMatrix`]) — so it can never win a pivot search, is skipped as
///   a zero multiplier, and `x − factor·(+0.0)` leaves `x` as it is;
/// * a non-finite multiplier would turn those zeros into NaN, so its row
///   takes the full-width update and the dense loop factors the remaining
///   columns;
/// * the first pivot that differs from the plan hands the factorization,
///   at that column and in identical state, to the dense loop, which then
///   re-learns the plan;
/// * back substitution sums only the planned terms, in column order. The
///   skipped terms are `±0.0` while the solution entries are finite, and
///   they can change the sum only in the sign of a zero result, which
///   matters only when subtracted from a zero. So a row whose planned sum
///   and right-hand side are both zero, or that follows a non-finite
///   solution entry (`0.0·∞` is NaN), takes the full dot product.
///
/// The `planned_lu_matches_baseline_bitwise` property test compares
/// solutions, factors and errors against the dense loop bit for bit.
#[derive(Debug, Clone, Default)]
struct LuPlan {
    /// Structure of the installed topology, whose stamp pattern holds the
    /// cells assembly may write; `None` factors every matrix on the dense
    /// loop.
    structure: Option<Arc<Structure>>,
    /// Pivot row per column, recorded by the dense loop.
    pivots: Vec<usize>,
    /// Whether the lists below describe the pattern under `pivots`.
    learned: bool,
    /// `cand[cand_ptr[k]..cand_ptr[k + 1]]`: rows below `k` that may hold
    /// a nonzero in column `k` before the swap (ascending).
    cand_ptr: Vec<usize>,
    cand: Vec<usize>,
    /// Rows below `k` that may hold a nonzero in column `k` after the swap.
    elim_ptr: Vec<usize>,
    elim: Vec<usize>,
    /// Columns right of `k` that may hold a nonzero in pivot row `k`; after
    /// the factorization, the structure of row `k` of `U`.
    ucol_ptr: Vec<usize>,
    ucols: Vec<usize>,
    /// Symbolic elimination scratch for [`DenseMatrix::learn_plan`].
    fill: Vec<bool>,
    /// Structures installed and plans learned, for the tests that check a
    /// workspace keeps its plan.
    #[cfg(test)]
    builds: (usize, usize),
}

impl LuPlan {
    /// The list range of column `k` under offsets `ptr`.
    #[inline]
    fn span(ptr: &[usize], k: usize) -> std::ops::Range<usize> {
        ptr[k]..ptr[k + 1]
    }

    /// The shape `learn_plan` gives a plan of dimension `n`.
    fn debug_assert_shape(&self, n: usize) {
        debug_assert!(self.learned && self.pivots.len() == n);
        for (ptr, list) in [
            (&self.cand_ptr, &self.cand),
            (&self.elim_ptr, &self.elim),
            (&self.ucol_ptr, &self.ucols),
        ] {
            debug_assert_eq!(ptr.len(), n + 1);
            debug_assert_eq!(ptr.last().copied(), Some(list.len()));
            debug_assert!(list.iter().all(|&i| i < n));
        }
    }
}

/// Where [`DenseMatrix::factor_planned`] left the factorization.
enum Replay {
    /// Every column factored on the plan.
    Complete,
    /// Columns before this one factored; the dense loop continues here.
    DenseFrom(usize),
}

impl DenseMatrix {
    /// Creates an `n x n` zero matrix.
    #[cfg_attr(not(test), allow(dead_code))] // exercised by unit tests
    pub fn zeros(n: usize) -> Self {
        let mut m = DenseMatrix::default();
        m.reset(n);
        m
    }

    /// Resizes to `n x n` and zeroes every entry, reusing the existing
    /// allocation when capacity allows (the workspace-reuse hook). A new
    /// dimension drops the installed structure and its plan.
    pub fn reset(&mut self, n: usize) {
        if n != self.n {
            self.plan.structure = None;
            self.plan.learned = false;
        }
        self.n = n;
        self.data.clear();
        self.data.resize(n * n, 0.0);
        self.plan.pivots.resize(n, 0);
    }

    /// Installs the structure of a topology for structural replay. A
    /// structure of the installed topology keeps the plan, so a workspace
    /// keeps it across the solves, sweeps and samples of one topology.
    pub fn use_structure(&mut self, structure: &Arc<Structure>) {
        if matches!(&self.plan.structure, Some(s) if s.key == structure.key) {
            return;
        }
        self.plan.learned = false;
        self.plan.structure = None;
        if structure.pattern.dim() != self.n {
            return;
        }
        self.plan.structure = Some(Arc::clone(structure));
        #[cfg(test)]
        {
            self.plan.builds.0 += 1;
        }
    }

    /// Resets all entries to zero without reallocating.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    #[cfg_attr(not(test), allow(dead_code))] // exercised by unit tests
    pub fn n(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.n && c < self.n);
        // SAFETY: callers stamp MNA variables, all `< n` (debug-asserted
        // above); skipping the release bounds check keeps the assembly
        // loops branch-free.
        unsafe {
            *self.data.get_unchecked_mut(r * self.n + c) += v;
        }
    }

    #[inline]
    #[cfg_attr(not(test), allow(dead_code))] // exercised by unit tests
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.n + c]
    }

    /// Solves `A x = b` in place: on success `rhs` holds `x` and the matrix
    /// holds its LU factors.
    ///
    /// With a learned plan the factorization replays it
    /// ([`DenseMatrix::factor_planned`]); otherwise, or from the column
    /// where the replay stops, it runs the dense loop, which records its
    /// pivots and re-learns the plan. Either way the solution, the stored
    /// factors and the error are those of the dense loop alone.
    ///
    /// # Errors
    ///
    /// [`Error::SingularMatrix`] when no usable pivot exists in a column,
    /// which for MNA means a floating node or an ideal-source loop.
    pub fn solve_in_place(&mut self, rhs: &mut [f64]) -> Result<(), Error> {
        assert_eq!(rhs.len(), self.n, "rhs length must match matrix dimension");
        let from = if self.plan.learned {
            match self.factor_planned(rhs)? {
                Replay::Complete => {
                    self.back_substitute_planned(rhs);
                    return Ok(());
                }
                Replay::DenseFrom(k) => k,
            }
        } else {
            0
        };
        self.solve_dense_from(from, rhs)
    }

    /// The dense loop from column `k` on, the re-learned plan and the full
    /// back substitution. Out of line: with a learned plan about one
    /// factorization in a hundred comes here.
    #[cold]
    #[inline(never)]
    fn solve_dense_from(&mut self, k: usize, rhs: &mut [f64]) -> Result<(), Error> {
        // The dense loop overwrites the recorded pivots from `k` on; the
        // plan describes them again only once it is re-learned.
        self.plan.learned = false;
        self.factor_dense(k, rhs)?;
        if let Some(structure) = self.plan.structure.clone() {
            self.learn_plan(&structure);
        }
        self.back_substitute_dense(rhs);
        Ok(())
    }

    /// LU with partial pivoting over columns `k0..n`, applying row swaps
    /// to `rhs` directly and recording each pivot row in the plan.
    ///
    /// The elimination is written over disjoint row slices (pivot row
    /// split from the rows below it) so the compiler can drop bounds
    /// checks and vectorize the row update. Operation order is identical
    /// to the scalar formulation, so results are bit-exact — asserted
    /// against the preserved pre-optimization kernel by the
    /// `optimized_lu_matches_baseline_bitwise` property test below.
    fn factor_dense(&mut self, k0: usize, rhs: &mut [f64]) -> Result<(), Error> {
        let n = self.n;
        for k in k0..n {
            // Pivot search in column k.
            let mut piv = k;
            let mut max = self.data[k * n + k].abs();
            for r in (k + 1)..n {
                let v = self.data[r * n + k].abs();
                if v > max {
                    max = v;
                    piv = r;
                }
            }
            if max < 1e-300 {
                return Err(Error::SingularMatrix { row: k });
            }
            self.plan.pivots[k] = piv;
            if piv != k {
                for c in 0..n {
                    self.data.swap(k * n + c, piv * n + c);
                }
                rhs.swap(k, piv);
            }
            let pivot = self.data[k * n + k];
            let (upper, lower) = self.data.split_at_mut((k + 1) * n);
            let pivot_row = &upper[k * n + k + 1..(k + 1) * n];
            let (rhs_head, rhs_tail) = rhs.split_at_mut(k + 1);
            let rhs_k = rhs_head[k];
            for (row, rhs_r) in lower.chunks_exact_mut(n).zip(rhs_tail.iter_mut()) {
                // Test the entry before dividing: a structural zero would
                // divide to ±0.0 and be skipped anyway, and the early test
                // keeps the (serializing) division off the sparse rows. (A
                // NaN pivot is the exception: the scalar reference kernel
                // divides those zeros into NaN rows, this loop keeps them.)
                if row[k] == 0.0 {
                    continue;
                }
                let factor = row[k] / pivot;
                if factor == 0.0 {
                    // Underflow: the scalar reference kernel leaves the
                    // tiny entry unfactored and skips the update; do the
                    // same.
                    continue;
                }
                row[k] = factor;
                for (a, &b) in row[k + 1..].iter_mut().zip(pivot_row) {
                    *a -= factor * b;
                }
                *rhs_r -= factor * rhs_k;
            }
        }
        Ok(())
    }

    /// Factors on the learned plan (see [`LuPlan`]) until every column is
    /// done, a pivot leaves the plan, or a non-finite multiplier appears.
    fn factor_planned(&mut self, rhs: &mut [f64]) -> Result<Replay, Error> {
        debug_assert!(self.outside_pattern_is_zero());
        let DenseMatrix { n, data, plan } = self;
        let n = *n;
        plan.debug_assert_shape(n);
        let a = data.as_mut_ptr();
        let b = rhs.as_mut_ptr();
        // SAFETY: `data` holds `n·n` entries and `rhs` `n` (asserted by
        // the caller). `learn_plan` built every list for this `n`: the
        // `*_ptr` arrays have `n + 1` ascending offsets into their lists,
        // every listed row or column lies in `k + 1..n`, and each pivot
        // lies in `k..n` (`reset` and `use_structure` unlearn the plan
        // when `n` or the topology changes). Every offset below is
        // therefore in bounds, and rows `k` and `piv != k` do not overlap.
        unsafe {
            for k in 0..n {
                let cand = plan.cand.get_unchecked(LuPlan::span(&plan.cand_ptr, k));
                let mut piv = k;
                let mut max = (*a.add(k * n + k)).abs();
                for &r in cand {
                    let v = (*a.add(r * n + k)).abs();
                    if v > max {
                        max = v;
                        piv = r;
                    }
                }
                if max < 1e-300 {
                    return Err(Error::SingularMatrix { row: k });
                }
                if piv != *plan.pivots.get_unchecked(k) {
                    return Ok(Replay::DenseFrom(k));
                }
                if piv != k {
                    std::ptr::swap_nonoverlapping(a.add(k * n), a.add(piv * n), n);
                    std::ptr::swap(b.add(k), b.add(piv));
                }
                let pivot_row = a.add(k * n);
                let pivot = *pivot_row.add(k);
                let b_k = *b.add(k);
                let ucols = plan.ucols.get_unchecked(LuPlan::span(&plan.ucol_ptr, k));
                let mut non_finite = false;
                for &r in plan.elim.get_unchecked(LuPlan::span(&plan.elim_ptr, k)) {
                    let row = a.add(r * n);
                    let x = *row.add(k);
                    if x == 0.0 {
                        continue;
                    }
                    let factor = x / pivot;
                    if factor == 0.0 {
                        continue;
                    }
                    *row.add(k) = factor;
                    if factor.is_finite() {
                        for &c in ucols {
                            *row.add(c) -= factor * *pivot_row.add(c);
                        }
                    } else {
                        // `factor·0.0` is NaN: update the whole row, as the
                        // dense loop does, and leave it the later columns.
                        for c in k + 1..n {
                            *row.add(c) -= factor * *pivot_row.add(c);
                        }
                        non_finite = true;
                    }
                    *b.add(r) -= factor * b_k;
                }
                if non_finite {
                    return Ok(Replay::DenseFrom(k + 1));
                }
            }
        }
        Ok(Replay::Complete)
    }

    /// Back substitution over every column right of the diagonal.
    fn back_substitute_dense(&self, rhs: &mut [f64]) {
        let n = self.n;
        for k in (0..n).rev() {
            let tail: f64 = self.data[k * n + k + 1..k * n + n]
                .iter()
                .zip(&rhs[k + 1..n])
                .map(|(a, b)| a * b)
                .sum();
            rhs[k] = (rhs[k] - tail) / self.data[k * n + k];
        }
    }

    /// Back substitution over the planned columns of `U`, falling back to
    /// the full dot product where zero terms could change the sum (see
    /// [`LuPlan`]).
    fn back_substitute_planned(&self, rhs: &mut [f64]) {
        let n = self.n;
        let plan = &self.plan;
        plan.debug_assert_shape(n);
        let a = self.data.as_ptr();
        let x = rhs.as_mut_ptr();
        let mut finite = true;
        // SAFETY: as in `factor_planned`: `n·n` entries, `n` right-hand
        // sides, and planned columns in `k + 1..n`.
        unsafe {
            for k in (0..n).rev() {
                let row = a.add(k * n);
                let mut tail: f64 = plan
                    .ucols
                    .get_unchecked(LuPlan::span(&plan.ucol_ptr, k))
                    .iter()
                    .map(|&c| *row.add(c) * *x.add(c))
                    .sum();
                if !finite || (tail == 0.0 && *x.add(k) == 0.0) {
                    tail = (k + 1..n).map(|c| *row.add(c) * *x.add(c)).sum();
                }
                *x.add(k) = (*x.add(k) - tail) / *row.add(k);
                finite &= (*x.add(k)).is_finite();
            }
        }
    }

    /// Learns the plan of `structure`'s pattern under the recorded pivots:
    /// a symbolic run of the elimination that swaps rows as the pivots
    /// did and fills every cell a row update can reach. Reuses the plan's
    /// buffers, so re-learning allocates nothing once they have grown.
    fn learn_plan(&mut self, structure: &Structure) {
        let n = self.n;
        let p = &mut self.plan;
        p.fill.clear();
        p.fill.resize(n * n, false);
        for r in 0..n {
            for &c in structure.pattern.row(r) {
                p.fill[r * n + c] = true;
            }
        }
        for v in [&mut p.cand_ptr, &mut p.elim_ptr, &mut p.ucol_ptr] {
            v.clear();
            v.push(0);
        }
        p.cand.clear();
        p.elim.clear();
        p.ucols.clear();
        for k in 0..n {
            let fill = &mut p.fill;
            p.cand.extend((k + 1..n).filter(|&r| fill[r * n + k]));
            p.cand_ptr.push(p.cand.len());
            let piv = p.pivots[k];
            if piv != k {
                for c in 0..n {
                    fill.swap(k * n + c, piv * n + c);
                }
            }
            let u0 = p.ucols.len();
            p.ucols.extend((k + 1..n).filter(|&c| fill[k * n + c]));
            p.ucol_ptr.push(p.ucols.len());
            for r in k + 1..n {
                if fill[r * n + k] {
                    p.elim.push(r);
                    for &c in &p.ucols[u0..] {
                        fill[r * n + c] = true;
                    }
                }
            }
            p.elim_ptr.push(p.elim.len());
        }
        p.learned = true;
        #[cfg(test)]
        {
            p.builds.1 += 1;
        }
    }

    /// Whether every cell outside the installed pattern holds `+0.0`, the
    /// premise of a replay.
    fn outside_pattern_is_zero(&self) -> bool {
        let Some(s) = &self.plan.structure else {
            return false;
        };
        let n = self.n;
        (0..n * n).all(|i| {
            self.data[i].to_bits() == 0 || s.pattern.row(i / n).binary_search(&(i % n)).is_ok()
        })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::solver::pattern::StampPattern;
    use crate::solver::workspace::Engine;
    use proptest::prelude::*;

    impl DenseMatrix {
        /// The pre-optimization LU kernel, preserved verbatim (indexed scalar
        /// loops, per-element bounds checks) as the reference the
        /// bit-exactness tests compare [`DenseMatrix::solve_in_place`] against.
        pub fn solve_in_place_baseline(&mut self, rhs: &mut [f64]) -> Result<(), Error> {
            let n = self.n;
            assert_eq!(rhs.len(), n, "rhs length must match matrix dimension");
            for k in 0..n {
                let mut piv = k;
                let mut max = self.data[k * n + k].abs();
                for r in (k + 1)..n {
                    let v = self.data[r * n + k].abs();
                    if v > max {
                        max = v;
                        piv = r;
                    }
                }
                if max < 1e-300 {
                    return Err(Error::SingularMatrix { row: k });
                }
                if piv != k {
                    for c in 0..n {
                        self.data.swap(k * n + c, piv * n + c);
                    }
                    rhs.swap(k, piv);
                }
                let pivot = self.data[k * n + k];
                for r in (k + 1)..n {
                    let factor = self.data[r * n + k] / pivot;
                    if factor == 0.0 {
                        continue;
                    }
                    self.data[r * n + k] = factor;
                    for c in (k + 1)..n {
                        self.data[r * n + c] -= factor * self.data[k * n + c];
                    }
                    rhs[r] -= factor * rhs[k];
                }
            }
            for k in (0..n).rev() {
                let tail: f64 = self.data[k * n + k + 1..k * n + n]
                    .iter()
                    .zip(&rhs[k + 1..n])
                    .map(|(a, b)| a * b)
                    .sum();
                rhs[k] = (rhs[k] - tail) / self.data[k * n + k];
            }
            Ok(())
        }
    }

    #[test]
    fn solves_identity() {
        let mut m = DenseMatrix::zeros(3);
        for i in 0..3 {
            m.add(i, i, 1.0);
        }
        let mut b = vec![1.0, 2.0, 3.0];
        m.solve_in_place(&mut b).unwrap();
        assert_eq!(b, vec![1.0, 2.0, 3.0]);
    }

    /// Shrink-then-regrow through `reset` must never resurrect stale
    /// values from the larger earlier use. `reset` clears *and* resizes
    /// (so the seed implementation was already correct — `data.clear()`
    /// before `resize` discards every old entry); this test pins that
    /// contract against a tempting future "optimization" that resizes
    /// without clearing and would leak a previous circuit's stamps into
    /// the freshly grown tail.
    #[test]
    fn reset_shrink_then_regrow_leaves_no_stale_values() {
        let mut m = DenseMatrix::zeros(4);
        for r in 0..4 {
            for c in 0..4 {
                m.add(r, c, (1 + r * 4 + c) as f64);
            }
        }
        m.reset(2);
        assert_eq!(m.n(), 2);
        for r in 0..2 {
            for c in 0..2 {
                assert_eq!(m.get(r, c), 0.0, "stale entry at ({r},{c})");
            }
        }
        m.reset(4);
        assert_eq!(m.n(), 4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(m.get(r, c), 0.0, "stale entry at ({r},{c})");
            }
        }
    }

    #[test]
    fn solves_2x2_with_pivoting() {
        // [[0, 1], [2, 0]] x = [3, 4]  →  x = [2, 3]
        let mut m = DenseMatrix::zeros(2);
        m.add(0, 1, 1.0);
        m.add(1, 0, 2.0);
        let mut b = vec![3.0, 4.0];
        m.solve_in_place(&mut b).unwrap();
        assert!((b[0] - 2.0).abs() < 1e-12);
        assert!((b[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn detects_singular() {
        let mut m = DenseMatrix::zeros(2);
        m.add(0, 0, 1.0);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        m.add(1, 1, 1.0);
        let mut b = vec![1.0, 1.0];
        assert!(matches!(
            m.solve_in_place(&mut b),
            Err(Error::SingularMatrix { .. })
        ));
    }

    #[test]
    fn clear_resets_entries() {
        let mut m = DenseMatrix::zeros(2);
        m.add(0, 0, 5.0);
        m.clear();
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.n(), 2);
    }

    proptest! {
        /// The slice-based elimination must reproduce the preserved scalar
        /// kernel bit for bit: solution vector AND stored LU factors (and
        /// the same error on a singular draw). `n` spans every dimension
        /// the dense kernel serves below the sparse crossover (24) and
        /// beyond, for sparse fallbacks. `pivoting` 0 draws diagonally
        /// dominant matrices, which rarely swap rows; 1 zeroes and 2
        /// shrinks to ~1e-12 the diagonal of some rows, which forces the
        /// pivot search to swap.
        #[test]
        fn optimized_lu_matches_baseline_bitwise(seed: u64, n in 1usize..49, pivoting in 0u8..3) {
            use rand_like::*;
            let mut rng = Lcg::new(seed);
            let mut a = DenseMatrix::zeros(n);
            for r in 0..n {
                let mut row_sum = 0.0;
                for c in 0..n {
                    if r != c {
                        // Sprinkle structural zeros to exercise the skip.
                        let v = if rng.next_f64() < 0.4 {
                            0.0
                        } else {
                            rng.next_f64() * 2.0 - 1.0
                        };
                        a.add(r, c, v);
                        row_sum += v.abs();
                    }
                }
                let weak = rng.next_f64() < 0.5;
                let diag = match pivoting {
                    1 if weak => 0.0,
                    2 if weak => (rng.next_f64() - 0.5) * 1e-12,
                    _ => row_sum + 0.5 + rng.next_f64(),
                };
                a.add(r, r, diag);
            }
            let b: Vec<f64> = (0..n).map(|_| rng.next_f64() * 10.0 - 5.0).collect();
            let mut a2 = a.clone();
            let mut x1 = b.clone();
            let mut x2 = b;
            let r1 = a.solve_in_place(&mut x1);
            let r2 = a2.solve_in_place_baseline(&mut x2);
            prop_assert_eq!(format!("{r1:?}"), format!("{r2:?}"));
            // Bit patterns: `==` on `f64` equates -0.0 with 0.0 and fails
            // on equal NaNs.
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&x1), bits(&x2));
            prop_assert_eq!(bits(&a.data), bits(&a2.data));
        }

        /// The planned replay must reproduce the dense loop bit for bit:
        /// solution, stored factors and `Result`. Each case draws MNA-like
        /// matrices over one stamp pattern (a gmin-floored node diagonal,
        /// random node couplings, ±1 voltage-source branch entries) and
        /// solves three of them through one `DenseMatrix`, so the first
        /// learns the plan and the later ones replay it. Each cell keeps
        /// its magnitude (node diagonals span six decades either side of
        /// the branch entries) and moves by up to 1 % per draw, so most
        /// replays keep the pivot order. `mode` 1 zeroes one node's row and
        /// column in the later draws (a vanishing pivot), 2 shrinks one
        /// node's row by 1e-9 (a pivot order that changes part-way), and 3
        /// and 4 put ±inf or NaN in one pattern cell of the last draw. The
        /// reference is the dense loop on a copy without a pattern, and for
        /// finite draws the scalar kernel too.
        #[test]
        fn planned_lu_matches_baseline_bitwise(
            seed: u64,
            nodes in 1usize..16,
            branches in 0usize..3,
            mode in 0u8..5,
        ) {
            use rand_like::*;
            let mut rng = Lcg::new(seed);
            let (n, pattern) = mna_like_pattern(&mut rng, nodes, branches);
            let base: Vec<Vec<f64>> = pattern
                .iter()
                .enumerate()
                .map(|(r, cols)| {
                    cols.iter()
                        .map(|&c| {
                            let u = rng.next_f64();
                            if r >= nodes || c >= nodes {
                                if u < 0.5 { 1.0 } else { -1.0 }
                            } else if r == c {
                                10f64.powf(u * 12.0 - 6.0)
                            } else {
                                (u * 2.0 - 1.0) * 10f64.powf(rng.next_f64() * 6.0 - 3.0)
                            }
                        })
                        .collect()
                })
                .collect();
            let mut m = DenseMatrix::zeros(n);
            m.use_structure(&Arc::new(Structure {
                key: 7,
                pattern: StampPattern::from_rows(pattern.clone()),
                engine: Engine::Dense,
            }));
            let odd = (rng.next_f64() * nodes as f64) as usize;
            for draw in 0..3 {
                let mut a = DenseMatrix::zeros(n);
                for (r, cols) in pattern.iter().enumerate() {
                    for (&c, &v) in cols.iter().zip(&base[r]) {
                        let v = if r < nodes && c < nodes {
                            v * (0.99 + 0.02 * rng.next_f64())
                        } else {
                            v
                        };
                        let v = match mode {
                            1 if draw > 0 && (r == odd || c == odd) => 0.0,
                            2 if draw > 0 && r == odd => v * 1e-9,
                            3 if draw == 2 && r == odd && c == cols[0] => {
                                if rng.next_f64() < 0.5 {
                                    f64::INFINITY
                                } else {
                                    f64::NEG_INFINITY
                                }
                            }
                            4 if draw == 2 && r == odd && c == cols[0] => f64::NAN,
                            _ => v,
                        };
                        a.add(r, c, if r == c && r < nodes { 1e-12 + v } else { v });
                    }
                }
                let b: Vec<f64> = (0..n).map(|_| rng.next_f64() * 10.0 - 5.0).collect();
                m.data.copy_from_slice(&a.data);
                let mut x = b.clone();
                let replayed = m.solve_in_place(&mut x);
                // `a` has no pattern, so this is the dense loop alone.
                let mut dense = a.clone();
                let mut xd = b.clone();
                let reference = dense.solve_in_place(&mut xd);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let outcome = |r: &Result<(), Error>, x: &[f64], lu: &[f64]| {
                    (format!("{r:?}"), bits(x), bits(lu))
                };
                let got = outcome(&replayed, &x, &m.data);
                prop_assert_eq!(&got, &outcome(&reference, &xd, &dense.data), "draw {}", draw);
                if mode < 3 {
                    // The scalar kernel divides zeros by a NaN pivot that the
                    // dense loop skips, so it is the reference for finite
                    // draws only.
                    let mut xb = b;
                    let scalar = a.solve_in_place_baseline(&mut xb);
                    prop_assert_eq!(&got, &outcome(&scalar, &xb, &a.data), "draw {}", draw);
                }
            }
        }

        /// A x = b solved then multiplied back must reproduce b, for random
        /// diagonally-dominant systems (always nonsingular).
        #[test]
        fn solve_roundtrip(seed in 0u64..1000, n in 1usize..8) {
            use rand_like::*;
            let mut rng = Lcg::new(seed);
            let mut a = DenseMatrix::zeros(n);
            let mut orig = vec![0.0; n * n];
            for r in 0..n {
                let mut row_sum = 0.0;
                for c in 0..n {
                    if r != c {
                        let v = rng.next_f64() * 2.0 - 1.0;
                        a.add(r, c, v);
                        orig[r * n + c] = v;
                        row_sum += v.abs();
                    }
                }
                let d = row_sum + 1.0 + rng.next_f64();
                a.add(r, r, d);
                orig[r * n + r] = d;
            }
            let b: Vec<f64> = (0..n).map(|_| rng.next_f64() * 10.0 - 5.0).collect();
            let mut x = b.clone();
            a.solve_in_place(&mut x).unwrap();
            for r in 0..n {
                let mut acc = 0.0;
                for c in 0..n {
                    acc += orig[r * n + c] * x[c];
                }
                prop_assert!((acc - b[r]).abs() < 1e-9, "row {} residual {}", r, acc - b[r]);
            }
        }
    }

    /// A random MNA-like stamp pattern: `nodes` node rows with their
    /// diagonal and random symmetric couplings, then `branches` voltage
    /// sources, each tying one or two distinct nodes to its branch row and
    /// column. Returns the dimension and the sorted rows.
    fn mna_like_pattern(
        rng: &mut rand_like::Lcg,
        nodes: usize,
        branches: usize,
    ) -> (usize, Vec<Vec<usize>>) {
        let n = nodes + branches;
        let mut rows: Vec<Vec<usize>> = (0..n)
            .map(|r| if r < nodes { vec![r] } else { vec![] })
            .collect();
        for i in 0..nodes {
            for j in i + 1..nodes {
                if rng.next_f64() < 0.3 {
                    rows[i].push(j);
                    rows[j].push(i);
                }
            }
        }
        for br in nodes..n {
            let p = (rng.next_f64() * nodes as f64) as usize;
            let q = (rng.next_f64() * nodes as f64) as usize;
            let two = p != q && rng.next_f64() < 0.5;
            for t in [Some(p), two.then_some(q)].into_iter().flatten() {
                rows[t].push(br);
                rows[br].push(t);
            }
        }
        for row in &mut rows {
            row.sort_unstable();
        }
        (n, rows)
    }

    /// A resistance sweep re-solves one topology on one workspace: the
    /// structure is installed once and the plan survives the sweep, so only
    /// the first factorization of each pivot order re-learns it.
    #[test]
    fn resistance_sweep_keeps_the_plan() {
        use crate::elements::{MosType, Mosfet, MosfetParams, Waveform};
        use crate::{Circuit, SolverWorkspace, TraceCapture, TranConfig};
        use pulsar_obs::{Counter, Recorder};
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let load = ckt.node("load");
        ckt.vsource(vdd, Circuit::GROUND, Waveform::dc(1.8));
        ckt.vsource(
            vin,
            Circuit::GROUND,
            Waveform::Pwl(vec![(0.0, 0.0), (0.1e-9, 0.0), (0.2e-9, 1.8)]),
        );
        for (kind, rail, vt0, kp, w) in [
            (MosType::Pmos, vdd, -0.42, 60e-6, 2e-6),
            (MosType::Nmos, Circuit::GROUND, 0.4, 170e-6, 1e-6),
        ] {
            let params = MosfetParams {
                vt0,
                kp,
                lambda: 0.06,
                w,
                l: 0.18e-6,
                cgs: 1e-15,
                cgd: 1e-15,
                cdb: 1e-15,
            };
            ckt.add_mosfet(Mosfet {
                kind,
                d: out,
                g: vin,
                s: rail,
                params,
            });
        }
        let r = ckt.resistor(out, load, 1e3);
        ckt.capacitor(load, Circuit::GROUND, 5e-15);
        let rec = Recorder::enabled();
        let mut ws = SolverWorkspace::new();
        ws.set_recorder(rec.clone());
        let cfg = TranConfig::new(4e-12, 0.6e-9);
        let ohms = [1e3, 3e3, 10e3, 30e3, 100e3];
        for &o in &ohms {
            ckt.set_resistance(r, o).unwrap();
            ckt.transient_with(&cfg, &mut ws, &TraceCapture::All)
                .unwrap();
        }
        let (patterns, learns) = ws.sys.matrix.plan.builds;
        let factorizations = rec.snapshot().counter(Counter::DenseIterations) as usize;
        assert_eq!(patterns, 1, "the pattern is built once per topology");
        assert!(ws.sys.matrix.plan.learned);
        // Each transient may switch between its DC and transient pivot
        // orders, never more.
        assert!(
            learns <= 2 * ohms.len() && learns * 20 < factorizations,
            "{learns} plans learned over {factorizations} factorizations"
        );
    }

    /// Minimal deterministic generator for the property test, so the test
    /// does not depend on proptest's internal value trees for float matrices.
    mod rand_like {
        pub struct Lcg(u64);
        impl Lcg {
            pub fn new(seed: u64) -> Self {
                Lcg(seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407))
            }
            pub fn next_f64(&mut self) -> f64 {
                self.0 = self
                    .0
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((self.0 >> 11) as f64) / ((1u64 << 53) as f64)
            }
        }
    }
}
