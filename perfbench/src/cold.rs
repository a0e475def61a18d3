//! `cold-tree-222`: the paper's computation, in-process.
//!
//! One caller solves fresh generic (2,2,2) instances (n = 12 conditions,
//! 157 tree jobs, 32 roots). Each op builds its poset, runs the
//! master/slave Pieri tree on `nproc` workers and certifies the roots.
//! No service code runs. Each set-up rebuilds the op list and runs
//! warm-up solves before its share of the timed ops.

use crate::spans::Recorder;
use crate::stats::{self, Digest};
use crate::{
    derive_seed, finish_report, trace_overhead_pct, within_certified_bound, within_tol, Config,
    ExactCounts, Outcome, Phase, PhaseTimes, Report, Threads, DISTINCT_TOL, SETUPS,
};
use pieri_certify::CertifyPolicy;
use pieri_core::{
    certify_roots, root_count, solve_prepared, CoeffLayout, PieriHomotopy, PieriProblem,
    PieriSolution, Poset, Shape,
};
use pieri_num::{seeded_rng, Complex64};
use pieri_parallel::{solve_tree_parallel_prepared, TreeRunStats};
use pieri_tracker::{track_path_with, TrackSettings, TrackWorkspace};
use std::collections::HashMap;
use std::time::Instant;

/// Seed streams: timed ops and warm-ups draw distinct instances. The
/// warm-ups ignore the run seed, so every set-up does the same work.
const OPS: u64 = 1;
const WARMUP: u64 = 2;

/// Untimed warm-up solves in each set-up.
const WARMUPS: usize = 2;

/// Interleaved sequential-vs-tree pairs in a traced run.
const SPEEDUP_PAIRS: usize = 4;
/// Instances re-walked with the tracker's own counters in a traced run.
const REPLAYS: usize = 2;

fn shape() -> Shape {
    Shape::new(2, 2, 2)
}

/// Timed op `i` (or warm-up `i`) of the run seeded by `seed`.
fn instance(seed: u64, stream: u64, i: usize) -> PieriProblem {
    let mut rng = seeded_rng(derive_seed(seed, stream, i as u64));
    PieriProblem::random(shape(), &mut rng)
}

/// One solve and the time each public call took.
struct Solved {
    solution: PieriSolution,
    tree: TreeRunStats,
    poset_us: f64,
    certify_ms: f64,
    latency_ms: f64,
    jobs_expected: usize,
}

fn solve(
    problem: &PieriProblem,
    settings: &TrackSettings,
    policy: &CertifyPolicy,
    workers: usize,
    trace: Option<(&Recorder, usize)>,
) -> Solved {
    let t0 = Instant::now();
    let poset = Poset::build(problem.shape());
    let t1 = Instant::now();
    let (mut solution, tree) = solve_tree_parallel_prepared(problem, &poset, settings, workers);
    let t2 = Instant::now();
    certify_roots(problem, &mut solution, policy);
    let t3 = Instant::now();
    if let Some((rec, op)) = trace {
        let root = rec.record("op", op, None, t0, t3);
        rec.record("Poset::build", op, Some(root), t0, t1);
        rec.record("solve_tree_parallel_prepared", op, Some(root), t1, t2);
        rec.record("certify_roots", op, Some(root), t2, t3);
        let busy_ms: f64 = solution
            .records
            .iter()
            .map(|r| r.elapsed.as_secs_f64() * 1e3)
            .sum();
        rec.count("tree.job_ms", busy_ms);
        rec.count("tree.jobs", solution.records.len() as f64);
        rec.count("tree.messages", tree.report.messages as f64);
        rec.count("tree.idle_parks", tree.idle_parks as f64);
        rec.count("tree.reactivations", tree.reactivations as f64);
    }
    Solved {
        jobs_expected: poset.level_profile().total_jobs() as usize,
        solution,
        tree,
        poset_us: (t1 - t0).as_secs_f64() * 1e6,
        certify_ms: (t3 - t2).as_secs_f64() * 1e3,
        latency_ms: (t3 - t0).as_secs_f64() * 1e3,
    }
}

/// The output checks: exactly d(m,p,q) distinct roots from all 157
/// tree jobs, every root certified and under the residual tolerance. A
/// failed job loses its subtree, so fewer jobs and roots are an honest
/// (failed) answer only when the solution counts failures. Two
/// coinciding roots each certify on their own, yet stand for one
/// solution: the answer is incomplete, so the op fails. A certified
/// root is a wrong answer only when its residual exceeds the program's
/// own bound.
fn check(problem: &PieriProblem, s: &Solved) -> Outcome {
    let d = root_count(2, 2, 2) as usize;
    let sol = &s.solution;
    let (roots, jobs) = (sol.coeffs.len(), sol.records.len());
    let missing = roots < d || jobs < s.jobs_expected;
    if roots > d
        || jobs > s.jobs_expected
        || sol.maps.len() != roots
        || sol.certificates.len() != roots
        || (missing && sol.failures == 0)
    {
        return Outcome::Wrong(format!(
            "{roots} roots, {} maps, {} certificates, {jobs} of {} tree jobs, {} failed",
            sol.maps.len(),
            sol.certificates.len(),
            s.jobs_expected,
            sol.failures
        ));
    }
    let mut worst: f64 = 0.0;
    for (map, cert) in sol.maps.iter().zip(&sol.certificates) {
        let residual = map.max_residual(problem);
        if cert.is_certified() && !within_certified_bound(residual) {
            return Outcome::Wrong(format!(
                "certified root has residual {residual:.2e}, beyond the program's own bound"
            ));
        }
        worst = worst.max(residual);
    }
    if missing || sol.failures > 0 {
        return Outcome::Failed(format!(
            "{roots} of {d} roots, {jobs} of {} tree jobs, {} failed",
            s.jobs_expected, sol.failures
        ));
    }
    let distance = sol.min_pairwise_distance();
    if distance <= DISTINCT_TOL {
        return Outcome::Failed(format!(
            "two of {roots} roots coincide: {distance:.2e} apart"
        ));
    }
    let certified = sol.certificates.iter().filter(|c| c.is_certified()).count();
    if certified < d {
        let why = sol.certificates.iter().find(|c| !c.is_certified());
        return Outcome::Failed(format!("{certified} of {d} certified: {why:?}"));
    }
    if !within_tol(worst) {
        return Outcome::Failed(format!("residual {worst:.2e} over the tolerance"));
    }
    Outcome::Good
}

/// Tracker counters of a sequential re-walk of the Pieri tree (the
/// tree scheduler's job records carry steps and times, not Newton
/// iterations or re-track attempts).
#[derive(Default)]
struct Replay {
    steps: u64,
    newton_iters: u64,
    retracked: u64,
    eval_points: Vec<Vec<Complex64>>,
}

fn replay(problem: &PieriProblem, poset: &Poset, settings: &TrackSettings) -> Replay {
    let shape = problem.shape();
    let mut out = Replay::default();
    let mut prev: HashMap<Vec<usize>, Vec<Vec<Complex64>>> = HashMap::new();
    prev.insert(shape.trivial().pivots().to_vec(), vec![Vec::new()]);
    let mut ws = TrackWorkspace::new();
    for k in 1..=shape.conditions() {
        let mut next = HashMap::new();
        for pattern in poset.level(k) {
            let homotopy = PieriHomotopy::new(problem, pattern);
            let mut sols = Vec::new();
            for child in pattern.children() {
                let Some(starts) = prev.get(child.pivots()) else {
                    continue;
                };
                let layout = CoeffLayout::new(&child);
                for y in starts {
                    let x0 = homotopy.layout().embed_child(&layout, y);
                    let r = track_path_with(&homotopy, &x0, settings, &mut ws);
                    out.steps += r.steps as u64;
                    out.newton_iters += r.newton_iters as u64;
                    out.retracked += u64::from(r.attempts > 1);
                    if r.status.is_converged() {
                        sols.push(r.x);
                    }
                }
            }
            if !sols.is_empty() {
                next.insert(pattern.pivots().to_vec(), sols);
            }
        }
        prev = next;
    }
    out.eval_points = prev.remove(shape.root().pivots()).unwrap_or_default();
    out
}

/// Runs the workload.
pub fn run(cfg: &Config, started: Instant) -> Report {
    let mut report = Report::default();
    let workers = crate::sysinfo::nproc();
    let policy = CertifyPolicy::full();
    let settings = policy.effective_settings(&TrackSettings::default());
    let rec = Recorder::default();

    let mut setups = Vec::new();
    let mut problems = Vec::new();
    let mut latencies = Vec::with_capacity(cfg.ops);
    let mut digest = Digest::default();
    let (mut ok, mut busy_ms, mut wall_ms, mut certified, mut refined) = (0, 0.0, 0.0, 0, 0);
    let mut failed_paths = 0;
    let (mut messages, mut parks, mut reactivations, mut peak_queue) = (0, 0, 0, 0);
    let (mut poset_us, mut certify_ms, mut path_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut counts = ExactCounts::default();
    let mut op_steps = Vec::with_capacity(cfg.ops);
    let mut times = PhaseTimes::default();

    'run: for k in 0..SETUPS {
        // Set-up: the op list plus untimed warm-up solves.
        let t0 = if k == 0 { started } else { Instant::now() };
        problems = (0..cfg.ops).map(|i| instance(cfg.seed, OPS, i)).collect();
        for w in k * WARMUPS..(k + 1) * WARMUPS {
            let warm = instance(0, WARMUP, w);
            let solved = solve(&warm, &settings, &policy, workers, None);
            report.outcome(&format!("warm-up {w}"), check(&warm, &solved), false);
        }
        setups.push(t0.elapsed().as_secs_f64());

        let phase = Phase::start(&times);
        for i in cfg.chunk(k) {
            let problem = &problems[i];
            let traced = (cfg.trace && i % 2 == 1).then_some((&rec, i));
            let s = solve(problem, &settings, &policy, workers, traced);
            latencies.push(s.latency_ms);
            let outcome = check(problem, &s);
            ok += usize::from(outcome == Outcome::Good);
            report.outcome(&format!("op {i}"), outcome, true);
            let sol = &s.solution;
            digest.word(Digest::of(&sol.coeffs));

            counts.tree_jobs += sol.records.len() as u64;
            failed_paths += sol.failures;
            op_steps.push(sol.records.iter().map(|r| r.steps as u64).sum::<u64>());
            counts.tracker_steps += op_steps[i];
            let op_certified = sol.certificates.iter().filter(|c| c.is_certified()).count();
            certified += op_certified;
            counts.certified_roots += op_certified as u64;
            refined += sol.certificates.iter().filter(|c| c.refined).count();
            path_ms.extend(sol.records.iter().map(|r| r.elapsed.as_secs_f64() * 1e3));
            busy_ms += s.tree.report.total_busy().as_secs_f64() * 1e3;
            wall_ms += s.tree.report.wall.as_secs_f64() * 1e3 * workers as f64;
            messages += s.tree.report.messages;
            parks += s.tree.idle_parks;
            reactivations += s.tree.reactivations;
            peak_queue = peak_queue.max(s.tree.report.peak_queue);
            poset_us.push(s.poset_us);
            certify_ms.push(s.certify_ms);
            if phase.over(cfg) {
                phase.finish(&mut times);
                break 'run;
            }
        }
        phase.finish(&mut times);
    }
    report.attempted = latencies.len();
    report.digest = digest.value();
    finish_report(
        &mut report,
        cfg,
        &latencies,
        ok,
        &setups,
        &times,
        Threads {
            solvers: ("tree_workers", workers),
            clients: 1,
        },
    );

    let ops = latencies.len().max(1) as f64;
    let d = root_count(2, 2, 2) as f64;
    let track_ms: f64 = path_ms.iter().sum();
    let lat_ms: f64 = latencies.iter().sum();
    let layer = &mut report.per_layer;
    layer.insert("tracker.steps_per_op", counts.tracker_steps as f64 / ops);
    layer.insert("tracker.failed_paths", failed_paths as f64);
    layer.insert("tracker.path_ms_p50", stats::percentile(&mut path_ms, 0.5));
    layer.insert("tracker.path_ms_p90", stats::percentile(&mut path_ms, 0.9));
    layer.insert("tracker.share", track_ms / (workers as f64 * lat_ms));
    layer.insert("core.poset_build_us", stats::median(&mut poset_us));
    layer.insert("core.jobs_per_op", counts.tree_jobs as f64 / ops);
    layer.insert("parallel.efficiency", busy_ms / wall_ms);
    layer.insert("parallel.messages_per_op", messages as f64 / ops);
    layer.insert("parallel.idle_parks_per_op", parks as f64 / ops);
    layer.insert("parallel.reactivations_per_op", reactivations as f64 / ops);
    layer.insert("parallel.peak_queue", peak_queue as f64);
    layer.insert("certify.certified_share", certified as f64 / (ops * d));
    layer.insert("certify.refined_per_op", refined as f64 / ops);
    layer.insert("certify.ms_per_op", stats::median(&mut certify_ms));

    report.counts = counts;
    if cfg.trace {
        let overhead = trace_overhead_pct(&latencies, &op_steps);
        report.per_layer.insert("trace.overhead_pct", overhead);
        traced_extras(&problems, &op_steps, &settings, workers, &rec, &mut report);
        report.spans = Some(rec.to_json());
    }
    report
}

/// Traced-run extras, after the timed phase: interleaved sequential vs
/// tree solves, the tracker's own counters from a re-walk, and timed
/// `eval_and_jacobian` calls on the root homotopy.
fn traced_extras(
    problems: &[PieriProblem],
    op_steps: &[u64],
    settings: &TrackSettings,
    workers: usize,
    rec: &Recorder,
    report: &mut Report,
) {
    // Speedup: solve_prepared vs the tree on the same instances,
    // alternating which goes first.
    let (mut seq_ms, mut tree_ms, mut seq_track_ms, mut tree_busy_ms) = (0.0, 0.0, 0.0, 0.0);
    for (j, problem) in problems.iter().take(SPEEDUP_PAIRS).enumerate() {
        let poset = Poset::build(problem.shape());
        for tree_first in [j % 2 == 1, j % 2 == 0] {
            let t0 = Instant::now();
            if tree_first {
                let (_, stats) = solve_tree_parallel_prepared(problem, &poset, settings, workers);
                let t1 = Instant::now();
                rec.record("solve_tree_parallel_prepared", j, None, t0, t1);
                tree_ms += (t1 - t0).as_secs_f64() * 1e3;
                tree_busy_ms += stats.report.total_busy().as_secs_f64() * 1e3;
            } else {
                let sol = solve_prepared(problem, &poset, settings);
                let t1 = Instant::now();
                rec.record("solve_prepared", j, None, t0, t1);
                seq_ms += (t1 - t0).as_secs_f64() * 1e3;
                seq_track_ms += sol.total_time().as_secs_f64() * 1e3;
            }
        }
    }

    // Re-walk: Newton iterations and re-tracks per op. The walk tracks
    // the same paths as the tree, so its step count must match.
    let (mut newton, mut retracked, mut replayed) = (0, 0, 0usize);
    let mut steps_match = true;
    let mut eval_points = Vec::new();
    for (i, problem) in problems
        .iter()
        .take(REPLAYS.min(op_steps.len()))
        .enumerate()
    {
        let poset = Poset::build(problem.shape());
        let r = replay(problem, &poset, settings);
        steps_match &= r.steps == op_steps[i];
        newton += r.newton_iters;
        retracked += r.retracked;
        replayed += 1;
        if i == 0 {
            eval_points = r.eval_points;
        }
    }

    // Fused kernel on the root homotopy at the tracked root solutions.
    let eval_us = problems.first().map_or(0.0, |problem| {
        let homotopy = PieriHomotopy::new(problem, &shape().root());
        let points: Vec<(Vec<Complex64>, f64)> =
            eval_points.into_iter().map(|x| (x, 1.0)).collect();
        crate::time_eval_jac(&homotopy, &points, rec)
    });

    let replayed_f = replayed.max(1) as f64;
    let layer = &mut report.per_layer;
    layer.insert("parallel.speedup", seq_ms / tree_ms);
    layer.insert("parallel.busy_inflation", tree_busy_ms / seq_track_ms);
    layer.insert("tracker.newton_iters_per_op", newton as f64 / replayed_f);
    layer.insert("tracker.retracked_paths", retracked as f64);
    layer.insert("linalg.calls_per_op", newton as f64 / replayed_f);
    layer.insert("linalg.eval_jac_us", eval_us);
    report.counts.newton_iters = newton;
    report
        .meta
        .push(("replayed_ops", minijson::Value::from(replayed)));
    report
        .meta
        .push(("replay_steps_match", minijson::Value::Bool(steps_match)));
}
