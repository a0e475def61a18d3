//! Fig. 6 — the parallel Pieri homotopy with the virtual tree: a live
//! run of the master/slave scheduler plus a simulated cluster timeline.

use crate::Opts;
use pieri_core::{PieriProblem, Poset, Shape};
use pieri_num::seeded_rng;
use pieri_parallel::solve_tree_parallel_prepared;
use pieri_sim::{simulate_tree_dynamic, SimParams, TreeWorkload};
use pieri_tracker::TrackSettings;

/// Renders the Fig. 6 report.
pub fn run(opts: &Opts) -> String {
    let mut out = String::new();
    out.push_str("FIG. 6 — PARALLEL PIERI HOMOTOPY WITH A VIRTUAL TREE STRUCTURE\n");
    out.push_str(&"=".repeat(70));
    out.push('\n');
    out.push_str(
        "\n  CPU 0 (master): virtual Pieri tree + job queue [head ... tail]\n\
           |  generates (≤ p) new jobs from every returned target root, which\n\
           |  is used as the start root for the next-level homotopy\n\
           v\n\
          CPU 1..P (slaves): track one path per job, first-come-first-served;\n\
          slaves returning a leaf park on the idle queue and are reactivated\n\
          when new jobs appear; the master terminates the busy-waiting loops\n\
          once all leaves are in.\n\n",
    );

    // Live run on threads.
    let mut rng = seeded_rng(opts.seed);
    let shape = Shape::new(2, 2, 1);
    let problem = PieriProblem::random(shape.clone(), &mut rng);
    let workers = 4;
    let poset = Poset::build(&shape);
    let (solution, stats) =
        solve_tree_parallel_prepared(&problem, &poset, &TrackSettings::default(), workers);
    out.push_str(&format!(
        "live run (threads, {} slaves): {} jobs, {} solutions, {} failures\n",
        workers,
        solution.records.len(),
        solution.maps.len(),
        solution.failures
    ));
    out.push_str(&format!(
        "messages through master: {}; peak queue length: {}; idle parks: {}; reactivations: {}\n",
        stats.report.messages, stats.report.peak_queue, stats.idle_parks, stats.reactivations
    ));
    for (w, ws) in stats.report.workers.iter().enumerate() {
        out.push_str(&format!(
            "  slave {w}: {} jobs, busy {:.1} ms\n",
            ws.jobs,
            1e3 * ws.busy.as_secs_f64()
        ));
    }

    // Simulated schedule from the measured per-level costs.
    let levels = solution.times_by_level(shape.conditions());
    let tree = TreeWorkload::from_levels(&levels);
    out.push_str(&format!(
        "\nsimulated cluster on the measured job tree (critical path {:.1} ms,\ntotal work {:.1} ms):\n",
        1e3 * tree.critical_path(),
        1e3 * tree.total()
    ));
    out.push_str(&format!(
        "{:>7} {:>12} {:>9} {:>12}\n",
        "#CPUs", "makespan", "speedup", "utilisation"
    ));
    for p in [1usize, 2, 4, 8, 16] {
        let sim = simulate_tree_dynamic(&tree, &SimParams::mpi_like(p));
        out.push_str(&format!(
            "{:>7} {:>10.1}ms {:>9.2} {:>11.0}%\n",
            p,
            1e3 * sim.makespan,
            tree.total() / sim.makespan,
            100.0 * sim.utilisation()
        ));
    }
    out.push_str(
        "\nshape checks: speedup saturates near the tree width (8 for (2,2,1)) —\n\
         jobs near the root are few and small, most of the time is spent at\n\
         the last levels, as Section III.D and Table III observe.\n",
    );
    out
}
