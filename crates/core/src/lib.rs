//! Numerical Schubert calculus: Pieri homotopies for pole placement.
//!
//! This crate is the primary contribution of the ICPP 2004 paper
//! reproduction — the machinery that computes **all** feedback laws of a
//! linear system with `m` inputs, `p` outputs and a degree-`q` (dynamic)
//! compensator by solving the associated problem in enumerative geometry:
//! find all degree-`q` maps `X(s)` of `p`-planes in ℂ^{m+p} meeting `n =
//! mp + q(m+p)` given generic `m`-planes `L_i` at prescribed interpolation
//! points `s_i`,
//!
//! ```text
//! det [ X(s_i) | L_i ] = 0 ,   i = 1..n .
//! ```
//!
//! The pieces, mirroring Section III of the paper:
//!
//! * [`Shape`], [`Pattern`] — localization patterns with fixed top pivots
//!   and the bottom-pivot combinatorics of Fig. 3 (standard, concatenated
//!   and shorthand forms);
//! * [`Poset`] — the bottom-children poset of Fig. 4 with exact (u128)
//!   root counts `d(m,p,q)` and per-level chain counts — the virtue of
//!   Pieri *trees* (Fig. 5) for parallelism is that each chain is an
//!   independent job once its parent solution is known;
//! * [`PieriProblem`] — problem data (planes and interpolation points,
//!   random or supplied by the control layer);
//! * [`PieriHomotopy`] — one instance of homotopy (3) of the paper: the
//!   moving plane `M(t) = (1−t)·γ·M_F + t·L_k` together with the moving
//!   homogenised interpolation point `(ŝ, û)(t) = (1−t)·(1,0) + t·(s_k,1)`;
//! * [`solve_prepared`] / [`PieriSolution`] — the level-by-level (poset)
//!   sequential solver against a pre-built [`Poset`], and verified
//!   solution maps ([`solve`] is the default-settings convenience that
//!   builds the poset itself); [`run_job`] runs one tree edge for the
//!   schedulers in `pieri-parallel`, which own the job order;
//! * [`certify_roots`] — the one certification entry point: α-theory
//!   certificates and double-double refinement of a finished solve's
//!   roots, whichever schedule produced them;
//! * [`StartBundle`] — the reusable shape-level work (poset + generic
//!   start solutions) that [`continue_to_instance`] stretches to any
//!   concrete instance under a [`pieri_certify::CertifyPolicy`]
//!   ([`CertifyPolicy::off`](pieri_certify::CertifyPolicy::off) for a
//!   plain run); the unit the `pieri-service` shape cache stores.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Indexed loops over multiple arrays at once are the clearest way to
// write the dense numeric kernels here; the iterator-chain alternative
// clippy suggests obscures the index coupling.
#![allow(clippy::needless_range_loop)]

mod certified;
mod eval;
mod homotopy;
mod instance;
mod maps;
mod pattern;
mod poset;
mod problem;
mod scratch;
mod solver;
mod start;

pub use certified::{certify_solution_set, TargetConditions};
pub use eval::CoeffLayout;
pub use homotopy::{special_plane, PieriHomotopy};
pub use instance::{continue_to_instance, InstanceContinuation, InstanceHomotopy};
pub use maps::PMap;
pub use pattern::{Pattern, Shape};
pub use poset::{root_count, LevelProfile, Poset};
pub use problem::PieriProblem;
pub use solver::{certify_roots, run_job, solve, solve_prepared, JobRecord, PieriSolution};
pub use start::StartBundle;
