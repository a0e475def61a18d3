//! **pieri** — numerical Schubert calculus in Rust: computing all feedback
//! laws for linear systems with (parallel) Pieri homotopies.
//!
//! This facade crate re-exports the whole workspace, a reproduction of
//! *"Computing Feedback Laws for Linear Systems with a Parallel Pieri
//! Homotopy"* (Verschelde & Wang, ICPP 2004):
//!
//! * [`num`] — complex arithmetic and the gamma trick;
//! * [`linalg`] — dense complex LU/QR/eigenvalues/adjugates;
//! * [`poly`] — multivariate, univariate and matrix polynomials;
//! * [`tracker`] — the predictor–corrector path tracker with endgame;
//! * [`systems`] — cyclic-n/katsura/noon benchmarks and start systems;
//! * [`schubert`] — localization patterns, posets, Pieri trees, the Pieri
//!   homotopy and its solver (the paper's core contribution);
//! * [`certify`] — a-posteriori certification: α-theory Newton
//!   certificates, double-double endpoint refinement, the `off`/`full`
//!   certification policy;
//! * [`control`] — plants, pole placement, compensators, verification;
//! * [`parallel`] — static/dynamic schedulers and the Fig. 6 tree master;
//! * [`sim`] — the discrete-event cluster simulator behind the speedup
//!   tables;
//! * [`service`] — the batch pole-placement server: shape-keyed start-
//!   system cache, bounded job engine, JSON-over-HTTP front end.
//!
//! # Quickstart
//!
//! Count and compute all feedback laws for a machine with 2 inputs,
//! 2 outputs and a dynamic compensator with 1 internal state:
//!
//! ```
//! use pieri::schubert::{self, PieriProblem, Shape};
//! use pieri::num::seeded_rng;
//!
//! let shape = Shape::new(2, 2, 1);
//! assert_eq!(schubert::root_count(2, 2, 1), 8);
//!
//! let mut rng = seeded_rng(7);
//! let problem = PieriProblem::random(shape, &mut rng);
//! let solution = schubert::solve(&problem);
//! assert_eq!(solution.maps.len(), 8);
//! assert!(solution.max_residual(&problem) < 1e-7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pieri_certify as certify;
pub use pieri_control as control;
pub use pieri_core as schubert;
pub use pieri_linalg as linalg;
pub use pieri_num as num;
pub use pieri_parallel as parallel;
pub use pieri_poly as poly;
pub use pieri_service as service;
pub use pieri_sim as sim;
pub use pieri_systems as systems;
pub use pieri_tracker as tracker;
