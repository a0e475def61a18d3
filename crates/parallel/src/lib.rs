//! Parallel path tracking: static and dynamic load balancing, and the
//! master/slave Pieri-tree scheduler of Fig. 6.
//!
//! The paper's MPI (C + Ada) implementation maps onto threads and
//! channels: each *slave* is a worker thread, the *master* owns the job
//! queue, and messages travel over `crossbeam` channels. One driver per
//! schedule:
//!
//! * [`track_paths_static`] — the static workload distribution of
//!   Section II.A: paths are split into contiguous blocks, one per
//!   worker, with no further communication (minimal overhead, but the
//!   per-path cost variance lands unevenly);
//! * [`track_paths_dynamic`] — the dynamic master/slave model: one job
//!   per slave at a time, first-come-first-served;
//! * [`track_paths_rayon`] — a work-stealing baseline on the fork-join
//!   pool, as an ablation against the hand-rolled schedulers (which are
//!   the object of study and therefore stay hand-rolled);
//! * [`solve_tree_parallel_prepared`] — the parallel Pieri homotopy of
//!   Fig. 6: the master maintains the virtual tree, a queue of ready jobs
//!   (a job is ready once the solution at its parent node is known), an
//!   idle slave queue for reactivation, and the leaf-count termination
//!   protocol; [`solve_tree_parallel_certified`] adds
//!   [`pieri_core::certify_roots`] under a re-tracking
//!   [`pieri_certify::CertifyPolicy`];
//! * [`solve_by_levels_prepared`] — the poset (level-synchronous)
//!   organisation with a barrier per rank, instrumented for the memory
//!   and idle-time comparison of Section III.C.
//!
//! The Pieri drivers take a pre-built [`pieri_core::Poset`]
//! (`Poset::build(problem.shape())`), exactly like the sequential
//! [`pieri_core::solve_prepared`]; the poset depends only on the shape.
//!
//! All three pool consumers ([`track_paths_rayon`],
//! [`solve_by_levels_prepared`], [`solve_tree_parallel_prepared`])
//! execute on the persistent work-stealing pool of the vendored `rayon`
//! crate — sized by `available_parallelism`, overridable with
//! `PIERI_NUM_THREADS` — and produce order-preserving, run-to-run
//! deterministic output (the tree scheduler sorts by job lineage; the
//! data-parallel maps write results into disjoint slots in input order).
//!
//! Every scheduler returns a [`ParallelReport`] with per-worker busy
//! times and message counts, the observables behind Tables I/II of the
//! paper. Wall-clock *speedups* at cluster scale are produced by the
//! discrete-event simulator in `pieri-sim` (its crate docs give the
//! substitution argument), fed with the per-job costs measured here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod levels;
mod paths;
mod report;
mod tree;
mod workspace;

pub use levels::{solve_by_levels_prepared, LevelRunStats};
pub use paths::{track_paths_dynamic, track_paths_rayon, track_paths_static};
pub use report::{ParallelReport, WorkerStats};
pub use tree::{solve_tree_parallel_certified, solve_tree_parallel_prepared, TreeRunStats};
