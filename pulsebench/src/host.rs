//! The host-speed reference: a fixed kernel owned by the benchmark, timed
//! just before and just after every op so that the op's wall clock can be
//! re-expressed at a reference host speed (see [`crate::stats::normalise`]).
//!
//! The shared 2-vCPU hosts this runs on drift by up to 2x within a
//! minute (contention for the CPU, not descheduling). The drift hits
//! floating-point and integer code differently, so each workload is
//! normalised by the kernel that resembles its dominant code: a dense LU
//! solve for the analog workloads (Newton steps are small dense solves)
//! and a backtracking search for the logic-level campaign.

use std::hint::black_box;
use std::time::Instant;

/// Matrix order of the dense reference solve.
const N: usize = 24;

/// Which reference kernel a workload is normalised by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// One LU factorisation with partial pivoting of a fixed 24×24
    /// system, plus its two triangular solves.
    Dense,
    /// Counting the 92 solutions of 8-queens by bitmask backtracking:
    /// integer, branch-heavy work with no floating point.
    Branchy,
}

impl Kind {
    /// Microseconds one rep takes at the reference host speed: the
    /// constant that makes normalised timings read as milliseconds on
    /// that host. Changing it rescales every timing, so it is fixed here.
    pub fn nominal_us(self) -> f64 {
        match self {
            Kind::Dense => 8.0,
            Kind::Branchy => 11.0,
        }
    }
}

/// A reference kernel with the bit pattern its answer must have.
pub struct RefKernel {
    pub kind: Kind,
    /// Threads that run the kernel side by side in one sample.
    width: usize,
    a: Vec<f64>,
    b: Vec<f64>,
    expect: u64,
}

impl RefKernel {
    /// Builds the fixed problem and pins the bits of its answer.
    pub fn new(kind: Kind) -> RefKernel {
        RefKernel::parallel(kind, 1)
    }

    /// A kernel whose samples run it on `width` threads side by side and
    /// time them together, for work that runs on that many threads: its
    /// time is set by the slowest CPU it lands on, which one thread
    /// running alone does not see.
    pub fn parallel(kind: Kind, width: usize) -> RefKernel {
        let mut a = vec![0.0; N * N];
        for i in 0..N {
            for j in 0..N {
                let x = ((i * 7 + j * 13) % 17) as f64 / 17.0 - 0.5;
                a[i * N + j] = if i == j { N as f64 + x } else { x };
            }
        }
        let b = (0..N).map(|i| 1.0 + i as f64 / N as f64).collect();
        let mut k = RefKernel {
            kind,
            width: width.max(1),
            a,
            b,
            expect: 0,
        };
        k.expect = k.once();
        k
    }

    fn once(&self) -> u64 {
        match self.kind {
            Kind::Dense => self.lu_solve(),
            Kind::Branchy => u64::from(queens(black_box(8), 0, 0, 0)),
        }
    }

    /// Returns the bits of the solution's weighted sum.
    fn lu_solve(&self) -> u64 {
        let mut a = black_box(self.a.clone());
        let mut x = black_box(self.b.clone());
        for k in 0..N {
            let p = (k..N)
                .max_by(|&i, &j| a[i * N + k].abs().total_cmp(&a[j * N + k].abs()))
                .unwrap_or(k);
            if p != k {
                for j in 0..N {
                    a.swap(k * N + j, p * N + j);
                }
                x.swap(k, p);
            }
            let pivot = a[k * N + k];
            for i in k + 1..N {
                let f = a[i * N + k] / pivot;
                a[i * N + k] = f;
                for j in k + 1..N {
                    a[i * N + j] -= f * a[k * N + j];
                }
                x[i] -= f * x[k];
            }
        }
        for k in (0..N).rev() {
            let mut s = x[k];
            for j in k + 1..N {
                s -= a[k * N + j] * x[j];
            }
            x[k] = s / a[k * N + k];
        }
        let sum: f64 = x.iter().enumerate().map(|(i, v)| v * (i + 1) as f64).sum();
        black_box(sum).to_bits()
    }

    /// Runs `reps` reps on each of the kernel's threads and returns
    /// microseconds per rep of the whole sample.
    ///
    /// # Panics
    ///
    /// When a rep's answer differs from the pinned bits, which would mean
    /// the reference no longer does the work it is timed for.
    pub fn sample(&self, reps: usize) -> f64 {
        let run = || {
            for _ in 0..reps {
                assert_eq!(self.once(), self.expect, "reference kernel answer changed");
            }
        };
        let t = Instant::now();
        if self.width == 1 {
            run();
        } else {
            std::thread::scope(|s| {
                for _ in 0..self.width {
                    s.spawn(run);
                }
            });
        }
        t.elapsed().as_secs_f64() * 1e6 / reps.max(1) as f64
    }

    /// Multiplier taking a raw duration measured while this kernel ran at
    /// `measured_us` per rep to the reference host speed.
    pub fn scale(&self, measured_us: f64) -> f64 {
        crate::stats::normalise(1.0, self.kind.nominal_us(), measured_us)
    }
}

/// Solutions of the `n`-queens puzzle given the occupied columns and
/// diagonals so far.
fn queens(n: u32, cols: u32, d1: u32, d2: u32) -> u32 {
    let full = (1u32 << n) - 1;
    if cols == full {
        return 1;
    }
    let mut free = !(cols | d1 | d2) & full;
    let mut count = 0;
    while free != 0 {
        let bit = free & free.wrapping_neg();
        free ^= bit;
        count += queens(n, cols | bit, (d1 | bit) << 1, (d2 | bit) >> 1);
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_answers_are_pinned() {
        let dense = RefKernel::new(Kind::Dense);
        assert_eq!(dense.once(), dense.expect);
        assert!(f64::from_bits(dense.expect).is_finite());
        assert!(dense.sample(3) > 0.0);
        let branchy = RefKernel::new(Kind::Branchy);
        assert_eq!(branchy.expect, 92);
        assert!(branchy.sample(3) > 0.0);
        assert!(RefKernel::parallel(Kind::Dense, 2).sample(3) > 0.0);
    }
}
