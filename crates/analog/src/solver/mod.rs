//! Numerical machinery: dense LU factorization, the sparse stamp-pattern
//! solver with cached symbolic factorization, and MNA system assembly with
//! Newton–Raphson linearization of the nonlinear devices.

pub(crate) mod matrix;
pub(crate) mod mna;
pub mod pattern;
pub(crate) mod sparse;
#[cfg(test)]
mod sparse_vs_dense;
pub(crate) mod workspace;
