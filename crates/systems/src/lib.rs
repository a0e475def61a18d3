//! Benchmark polynomial systems and start-system constructions.
//!
//! Section II of the ICPP 2004 paper evaluates the parallel path tracker on
//! the cyclic n-roots benchmark and on an RPS serial-chain mechanism-design
//! system. This crate provides:
//!
//! * the classic academic families — [`cyclic`], [`katsura`], [`noon`];
//! * start systems — [`total_degree_start`] with its roots-of-unity start
//!   solutions, and [`linear_product_start`] (the construction used for the
//!   RPS system in the paper, after Su/McCarthy/Watson);
//! * [`bilinear_system`] — the workload-equivalent stand-in for the
//!   unpublished RPS equations: generic bilinear systems are *deficient*
//!   with respect to their total degree, so a large, uniform-cost fraction
//!   of paths diverges, which is exactly the load-balancing regime Table II
//!   of the paper studies (its docs give the substitution argument);
//! * [`solve_by_total_degree`] — the one-call sequential solver used by
//!   tests, examples and benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bezout;
mod families;
mod solve;
mod start;

pub use bezout::{multidegrees, multihomogeneous_bezout, system_bezout};
pub use families::{
    bilinear_root_count, bilinear_system, cyclic, cyclic_root_count, eco, katsura, noon,
};
pub use solve::{solve_by_total_degree, SolveReport};
pub use start::{linear_product_start, total_degree_start, LinearProductStart, TotalDegreeStart};
