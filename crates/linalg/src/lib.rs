//! Dense complex linear algebra for numerical Schubert calculus.
//!
//! This crate replaces the linear-algebra layer that PHCpack obtains from
//! its Ada numerics library. Matrices are small (the Pieri homotopies of the
//! ICPP 2004 paper never exceed a few dozen rows), so the implementations
//! favour robustness and clarity over blocked/SIMD kernels:
//!
//! * [`CMat`] — dense row-major complex matrix with the usual constructors
//!   and arithmetic;
//! * [`Lu`] — LU factorisation with partial pivoting: linear solves,
//!   determinants, inverses;
//! * [`Qr`] — Householder QR: least-squares solves and orthonormal bases;
//! * [`eigenvalues`] — Hessenberg reduction followed by the shifted complex
//!   QR iteration (Wilkinson shifts), used to verify closed-loop pole
//!   placement;
//! * [`adjugate`]/[`det_gradient`] — cofactor machinery that differentiates
//!   determinantal intersection conditions without symbolic expansion; this
//!   is the kernel of the Pieri homotopy evaluator;
//! * [`DetCofactor`] — the fused det+cofactor engine behind the homotopy
//!   fast path: closed-form minors up to 4×4 (shared 2×2 minors at 4×4),
//!   and past that one LU factorisation per condition matrix yields the
//!   determinant and every cofactor entry (`O(n³)`), with an automatic
//!   fall-back to the stable minor expansion near singularity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Indexed loops over multiple arrays at once are the clearest way to
// write the dense numeric kernels here; the iterator-chain alternative
// clippy suggests obscures the index coupling.
#![allow(clippy::needless_range_loop)]

mod adjugate;
mod eig;
mod generic;
mod lu;
mod matrix;
mod qr;
mod vector;

pub use adjugate::{
    adjugate, cofactor, cofactor_matrix, det_gradient, det_via_minors, DetCofactor,
    FUSED_PIVOT_RATIO_LIMIT,
};
pub use eig::{eigenvalues, hessenberg, EigError};
pub use generic::det_generic;
pub use lu::{det, try_det, Lu, LuError};
pub use matrix::CMat;
pub use qr::Qr;
pub use vector::{axpy, dot, dot_conj, inf_norm, norm2, normalize, scale_in_place, sub_into, CVec};
