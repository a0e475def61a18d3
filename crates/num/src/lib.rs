//! Complex scalar arithmetic for numerical Schubert calculus.
//!
//! PHCpack carries its own multiprecision and double-precision complex
//! arithmetic; this crate is the Rust equivalent of that bottom layer.
//! Everything above (linear algebra, polynomials, path trackers, Pieri
//! homotopies) is built on [`Complex64`].
//!
//! The crate also hosts the random-constant helpers used by homotopy
//! continuation: the *gamma trick* draws a uniformly random point on the
//! complex unit circle, which with probability one avoids the discriminant
//! variety and keeps every solution path regular for `t ∈ [0,1)`.
//!
//! For a-posteriori certification the crate additionally provides
//! double-double arithmetic ([`Dd`], [`DdComplex`]: ~106-bit significands
//! from error-free [`two_sum`]/[`two_prod`] transforms) and the [`Scalar`]
//! trait that lets numeric kernels run generically over both precisions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod approx;
mod complex;
mod dd;
mod random;
mod scalar;

pub use approx::{approx_eq, approx_eq_tol, ApproxEq, DEFAULT_TOL};
pub use complex::{Complex64, Divisor};
pub use dd::{quick_two_sum, two_prod, two_sum, Dd, DdComplex};
pub use random::{random_complex, random_gamma, random_real_in, seeded_rng, unit_complex};
pub use scalar::Scalar;
