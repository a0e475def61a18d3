//! Discrete-event cluster simulator for homotopy workloads.
//!
//! The paper's speedup tables were measured on the 128-CPU Platinum
//! cluster at NCSA; this workspace's build machine has one core, so the
//! cluster is replaced by a faithful discrete-event model:
//!
//! * a **workload** is a list of per-path costs — measured by the real
//!   tracker on this machine, or drawn from the calibrated synthetic
//!   models ([`Workload::cyclic_like`], [`Workload::rps_like`]) matching
//!   the paper's path counts and divergence statistics;
//! * the **static policy** deals the paths out once at the start
//!   (no communication, but the cost variance lands unevenly);
//! * the **dynamic policy** is the master/slave FCFS protocol with a
//!   per-message master overhead — with many processors and small jobs
//!   the master serialises, which is exactly the efficiency loss the
//!   paper observes on the RPS system;
//! * **tree workloads** carry dependencies (one per Pieri-tree edge), so
//!   the simulator also reproduces the level-by-level ramp-up of the
//!   parallel Pieri homotopy (Fig. 6, Tables III/IV).
//!
//! [`speedup_table`] sweeps processor counts and produces the rows of
//! Tables I/II; [`ascii_chart`] renders the speedup curves of Figs. 1/2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Indexed loops over multiple arrays at once are the clearest way to
// write the dense numeric kernels here; the iterator-chain alternative
// clippy suggests obscures the index coupling.
#![allow(clippy::needless_range_loop)]

mod chart;
mod cluster;
mod speedup;
mod tree;
mod workload;

pub use chart::{ascii_chart, ChartSeries};
pub use cluster::{simulate_dynamic, simulate_static, SimOutcome, SimParams};
pub use speedup::{speedup_table, SpeedupRow, SpeedupTable};
pub use tree::{simulate_tree_dynamic, TreeJob, TreeWorkload};
pub use workload::Workload;
