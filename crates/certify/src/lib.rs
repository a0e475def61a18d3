//! A-posteriori certification for tracked endpoints.
//!
//! Path tracking returns whatever Newton converged to; this crate turns
//! that into a machine-checkable statement, the missing quality-of-result
//! layer between the tracker and everything that ships solutions (the
//! Pieri solvers, the control layer, the batch service):
//!
//! * [`certify_endpoint`] — an α-theory-style **Newton certificate** from
//!   two fused Newton steps (reusing the tracker's workspace and the
//!   determinantal fused kernels): the first update norm `β`, the
//!   step-to-step contraction (the computable stand-in for Smale's
//!   `α = β·γ`) and a curvature estimate `γ`, classified into a
//!   [`Verdict`] — `Certified`, `Suspect` or `Failed`;
//! * [`refine_endpoint`] — a **generic-over-scalar Newton refiner**
//!   ([`SystemEval`] abstracts the system over [`pieri_num::Scalar`])
//!   that polishes endpoints beyond `f64` by mixed-precision iterative
//!   refinement: residuals evaluated in double-double
//!   ([`pieri_num::DdComplex`], ~106-bit significands), corrections
//!   solved against the working-precision Jacobian, the best iterate
//!   kept — refining never degrades a residual;
//! * [`CertifyPolicy`] — the knob the solver stack threads through:
//!   [`CertifyPolicy::off`], or [`CertifyPolicy::full`], which
//!   certifies every shipped solution, refines it to [`REFINE_TOL`]
//!   within [`REFINE_MAX_ITERS`] iterations and re-tracks failed paths
//!   on the tracker's fixed schedule
//!   ([`pieri_tracker::TrackSettings::retrack`]).
//!
//! The references are Telen–Van Barel–Verschelde's robust path-tracking
//! paper (a-posteriori step validation) and the certification chapter of
//! Bates et al., *Numerical Nonlinear Algebra* (α-theory, higher-
//! precision refinement).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod certificate;
mod policy;
mod refine;

pub use certificate::{certify_endpoint, Certificate, Verdict, ALPHA_CERTIFIED};
pub use policy::{CertifyPolicy, REFINE_MAX_ITERS, REFINE_TOL};
pub use refine::{refine_endpoint, RefineOutcome, SystemEval};
