use crate::error::Error;

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
#[derive(Debug, Clone, Default)]
pub(crate) struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates an `n x n` zero matrix.
    #[cfg_attr(not(test), allow(dead_code))] // exercised by unit tests
    pub fn zeros(n: usize) -> Self {
        DenseMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Resizes to `n x n` and zeroes every entry, reusing the existing
    /// allocation when capacity allows (the workspace-reuse hook).
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.data.clear();
        self.data.resize(n * n, 0.0);
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
    /// # Errors
    ///
    /// [`Error::SingularMatrix`] when no usable pivot exists in a column,
    /// which for MNA means a floating node or an ideal-source loop.
    pub fn solve_in_place(&mut self, rhs: &mut [f64]) -> Result<(), Error> {
        let n = self.n;
        assert_eq!(rhs.len(), n, "rhs length must match matrix dimension");

        // LU with partial pivoting, applying row swaps to rhs directly.
        // The elimination is written over disjoint row slices (pivot row
        // split from the rows below it) so the compiler can drop bounds
        // checks and vectorize the row update. Operation order is
        // identical to the scalar formulation, so results are bit-exact —
        // asserted against the preserved pre-optimization kernel by the
        // `optimized_lu_matches_baseline_bitwise` property test below.
        for k in 0..n {
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
                // keeps the (serializing) division off the sparse rows.
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

        // Back substitution.
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

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
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
