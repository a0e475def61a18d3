//! Predictor–corrector path tracking for polynomial homotopies.
//!
//! This crate is the Rust counterpart of PHCpack's `Continuation`
//! packages, the sequential engine that Section II of the ICPP 2004 paper
//! parallelises. The pieces:
//!
//! * [`Homotopy`] — the trait a family `H(x, t)` must implement
//!   (evaluation, Jacobian in `x`, derivative in `t`);
//! * [`LinearHomotopy`] — the convex combination
//!   `H(x,t) = γ·(1−t)·G(x) + t·F(x)` with the gamma trick (eq. (1) of the
//!   paper);
//! * [`newton_correct`] — Newton's method as the corrector;
//! * the predictor — one classical fourth-order Runge–Kutta step on
//!   the Davidenko ODE, four [`tangent`] solves;
//! * [`track_path`] — the adaptive step-size driver producing a
//!   [`PathResult`] (converged / diverged-to-infinity / failed), plus
//!   [`track_all`] and [`TrackStats`] for whole-system runs;
//! * [`TrackSettings`] — the one choice a caller makes: whether a
//!   failed path is re-tracked. Every other continuation parameter
//!   (step lengths and budgets, tolerances, the divergence threshold,
//!   the endgame radius) is a fixed constant of the tracker, as in the
//!   paper's PHCpack runs. Re-tracking follows one fixed schedule: at
//!   most two retries from the start solution, retry `k` with steps
//!   ×0.25^k, step budget ×2^k and `k` more corrector iterations.
//!
//! * [`cancel`] — cooperative cancellation tokens with deadlines,
//!   consulted by continuation drivers at path boundaries;
//! * [`trace`] — the hook through which a tracing layer records the
//!   tracker's `track.path`, `retrack`, `predict` and `correct` spans.
//!
//! Paths that diverge to infinity are first-class citizens: the cyclic
//! 10-roots and RPS experiments of the paper owe their load-balancing
//! behaviour to them, so the tracker reports them (with the `t` reached
//! and time spent) rather than erroring out. A homotopy whose paths all
//! end regular and finite says so through
//! [`Homotopy::regular_endpoints`] (the Pieri homotopies do); its paths
//! skip the geometric endgame and are never reported diverged. On every
//! other homotopy a path whose endgame iterates approach `t = 1`
//! analytically (differences halving with the step) leaves the endgame
//! through a Newton trial at `t = 1`, usually three halvings in; paths
//! to infinity, and paths of cycle number ≥ 2, keep the full endgame.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
mod homotopy;
mod newton;
mod path;
mod predictor;
mod settings;
mod stats;
pub mod trace;
mod workspace;

pub use cancel::CancelToken;
pub use homotopy::{Homotopy, LinearHomotopy};
pub use newton::{newton_correct, newton_correct_with, NewtonOutcome};
pub use path::{track_all, track_path, track_path_with, PathResult, PathStatus};
pub use predictor::{tangent, tangent_into};
pub use settings::TrackSettings;
pub use stats::TrackStats;
pub use workspace::{HomotopyScratch, TrackWorkspace};
