//! Table II — static vs dynamic load balancing on the RPS mechanism
//! system (9,216 paths, more than 8,000 divergent with near-uniform
//! cost).
//!
//! The RPS equations themselves are unpublished CAD output; the measured
//! calibration therefore uses the workload-equivalent deficient bilinear
//! system (`pieri_systems::bilinear_system` documents the substitution),
//! whose divergence fraction and cost uniformity match the paper's
//! description. The paper's "speedup*" convention is reproduced: with no
//! 1-CPU measurement available, it assumes optimal speedup at 8 CPUs and
//! extrapolates the sequential time as `8 × t_dynamic(8)`.

use crate::experiments::common::measure_rps_analog;
use crate::Opts;
use pieri_num::seeded_rng;
use pieri_sim::{simulate_dynamic, simulate_static, SimParams, Workload};

/// Paper values (CPU minutes): (#CPUs, static t, static s*, dyn t, dyn s*).
pub const PAPER_ROWS: [(usize, f64, f64, f64, f64); 5] = [
    (8, 417.5, 7.5, 388.9, 8.0),
    (16, 195.1, 15.9, 183.7, 16.9),
    (32, 94.7, 32.9, 96.1, 32.4),
    (64, 49.8, 62.5, 47.5, 65.5),
    (128, 25.1, 124.0, 22.0, 141.4),
];

/// Row of the RPS table with the extrapolated-speedup convention.
pub struct Row {
    /// CPUs.
    pub cpus: usize,
    /// Static makespan.
    pub static_time: f64,
    /// Static speedup*.
    pub static_speedup: f64,
    /// Dynamic makespan.
    pub dynamic_time: f64,
    /// Dynamic speedup*.
    pub dynamic_speedup: f64,
}

/// Computes the table; returns the calibration header and rows.
pub fn compute(opts: &Opts) -> (String, Vec<Row>) {
    let k = if opts.full { 4 } else { 3 };
    let measured = measure_rps_analog(k, opts.seed);
    let mut header = String::new();
    header.push_str(&format!("calibration — {}\n", measured.summary()));

    // Mean per-path cost pinned to the paper's regime: the extrapolated
    // 3111.2 CPU min over 9,216 paths ≈ 20.3 s per path at 1 GHz.
    let paper_mean = 3111.2 * 60.0 / 9_216.0;
    header.push_str(&format!(
        "measured divergent fraction {:.0}% (paper: 8,192/9,216); per-path mean pinned to {:.1} s\n",
        100.0 * (measured.stats.diverged + measured.stats.failed) as f64
            / measured.stats.total() as f64,
        paper_mean
    ));
    let mut rng = seeded_rng(opts.seed ^ 0x495053);
    let w = Workload::rps_like(9_216, 8_192, paper_mean, &mut rng);
    header.push_str(&format!(
        "synthetic RPS workload: {} paths ({} divergent), cv = {:.2}\n",
        w.len(),
        8_192,
        w.cv()
    ));

    let cpus = [8usize, 16, 32, 64, 128];
    let mut rows = Vec::new();
    // The paper's extrapolation: sequential* := 8 × dynamic time at 8 CPUs.
    let t8 = simulate_dynamic(&w, &SimParams::mpi_like(8)).makespan;
    let sequential_star = 8.0 * t8;
    for &n in &cpus {
        let st = simulate_static(&w, &SimParams::mpi_like(n));
        let dy = simulate_dynamic(&w, &SimParams::mpi_like(n));
        rows.push(Row {
            cpus: n,
            static_time: st.makespan,
            static_speedup: sequential_star / st.makespan,
            dynamic_time: dy.makespan,
            dynamic_speedup: sequential_star / dy.makespan,
        });
    }
    (header, rows)
}

/// Renders the full Table II report.
pub fn run(opts: &Opts) -> String {
    let (header, rows) = compute(opts);
    let mut out = String::new();
    out.push_str("TABLE II — STATIC VS DYNAMIC WORKLOAD BALANCE, RPS MECHANISM SYSTEM\n");
    out.push_str(&"=".repeat(76));
    out.push('\n');
    out.push_str(&header);
    out.push('\n');
    out.push_str(&format!(
        "{:>6} | {:>12} {:>9} | {:>12} {:>9} | {:>12}\n",
        "#CPUs", "static [s]", "speedup*", "dynamic [s]", "speedup*", "improvement"
    ));
    out.push_str(&"-".repeat(76));
    out.push('\n');
    for r in &rows {
        let imp = 100.0 * (r.static_time - r.dynamic_time) / r.static_time;
        out.push_str(&format!(
            "{:>6} | {:>12.2} {:>9.1} | {:>12.2} {:>9.1} | {:>11.2}%\n",
            r.cpus, r.static_time, r.static_speedup, r.dynamic_time, r.dynamic_speedup, imp
        ));
    }
    out.push('\n');
    out.push_str("paper (NCSA Platinum, CPU minutes):\n");
    for (cpus, st, ss, dt, ds) in PAPER_ROWS {
        let imp = 100.0 * (st - dt) / st;
        out.push_str(&format!(
            "{cpus:>6} | {st:>12.1} {ss:>9.1} | {dt:>12.1} {ds:>9.1} | {imp:>11.2}%\n"
        ));
    }
    out.push_str(
        "\nshape checks: the dynamic-over-static improvement is marginal (single\n\
         digits, occasionally negative) because the >8,000 divergent paths all\n\
         cost nearly the same — there is no variance for dynamic balancing to\n\
         exploit, and messaging overhead eats the remainder (Table II of the\n\
         paper, where 32 CPUs even show static ahead by 1.5%).\n",
    );
    out
}
