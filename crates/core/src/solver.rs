//! The sequential Pieri solver: level-by-level over the poset.
//!
//! This is the organisation of PHCpack's sequential Pieri code (Fig. 4):
//! solve every pattern of rank `k` from the solutions of its bottom
//! children at rank `k−1`. Each (child-solution, parent-pattern) pair is
//! one path-tracking job; the number of jobs per level is exactly the
//! Pieri-tree width of the level (Table III), and the solutions at the
//! root pattern are the `d(m,p,q)` feedback laws.
//!
//! The tree-parallel master/slave scheduler of Fig. 6 lives in
//! `pieri-parallel`; it runs the same jobs in dependency order and must
//! produce the same solution set (a cross-check in the integration tests).

use crate::certified::certify_solution_set;
use crate::eval::CoeffLayout;
use crate::homotopy::PieriHomotopy;
use crate::maps::PMap;
use crate::pattern::Pattern;
use crate::poset::Poset;
use crate::problem::PieriProblem;
use pieri_certify::{Certificate, CertifyPolicy};
use pieri_num::Complex64;
use pieri_tracker::{track_path_with, PathStatus, TrackSettings, TrackWorkspace};
use std::collections::HashMap;
use std::time::Duration;

/// Record of one path-tracking job (one Pieri-tree edge).
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Level (rank of the solved pattern).
    pub level: usize,
    /// Shorthand of the solved pattern.
    pub pattern: String,
    /// Terminal status of the tracked path.
    pub status: PathStatus,
    /// Accepted steps.
    pub steps: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
}

/// The result of a full Pieri solve.
#[derive(Debug)]
pub struct PieriSolution {
    /// Solution maps at the root pattern (the feedback-law data).
    pub maps: Vec<PMap>,
    /// Raw coefficient vectors at the root pattern.
    pub coeffs: Vec<Vec<Complex64>>,
    /// Per-job records (Table III regenerates from these).
    pub records: Vec<JobRecord>,
    /// Jobs whose path did not converge (empty for generic inputs —
    /// Pieri homotopies are optimal, no path diverges).
    pub failures: usize,
    /// One certificate per root solution, in `coeffs` order — filled by
    /// [`certify_roots`] (which the certified drivers call), empty
    /// otherwise.
    pub certificates: Vec<Certificate>,
}

impl PieriSolution {
    /// Largest intersection-condition residual over all solution maps.
    pub fn max_residual(&self, problem: &PieriProblem) -> f64 {
        self.maps
            .iter()
            .map(|m| m.max_residual(problem))
            .fold(0.0, f64::max)
    }

    /// Smallest pairwise distance between solutions (0 when fewer than 2).
    pub fn min_pairwise_distance(&self) -> f64 {
        let mut min = f64::INFINITY;
        for i in 0..self.maps.len() {
            for j in 0..i {
                min = min.min(self.maps[i].dist(&self.maps[j]));
            }
        }
        if min.is_finite() {
            min
        } else {
            0.0
        }
    }

    /// Total tracking time across all jobs (the sequential cost).
    pub fn total_time(&self) -> Duration {
        self.records.iter().map(|r| r.elapsed).sum()
    }

    /// Job times in seconds grouped by level `1..=n` — the dependency-
    /// structured workload handed to the cluster simulator.
    pub fn times_by_level(&self, n_levels: usize) -> Vec<Vec<f64>> {
        let mut by_level = vec![Vec::new(); n_levels + 1];
        for r in &self.records {
            by_level[r.level].push(r.elapsed.as_secs_f64());
        }
        by_level
    }
}

/// Solves a Pieri problem level by level with default tracking
/// settings.
///
/// Builds the poset for the problem's shape and delegates to
/// [`solve_prepared`]. Callers that solve many instances of the same
/// shape, or need other tracker settings, build the poset once and call
/// [`solve_prepared`] directly — the poset depends only on `(m, p, q)`,
/// not on the problem data.
pub fn solve(problem: &PieriProblem) -> PieriSolution {
    let poset = Poset::build(problem.shape());
    solve_prepared(problem, &poset, &TrackSettings::default())
}

/// Solves a Pieri problem against a pre-built poset.
///
/// Solutions at level `k−1` are dropped as soon as level `k` completes —
/// the poset organisation needs two live levels, whereas the Pieri-tree
/// organisation of the parallel scheduler needs only one chain per worker
/// (the memory argument of Section III.C of the paper).
///
/// # Panics
/// Panics when `poset` was built for a different shape.
pub fn solve_prepared(
    problem: &PieriProblem,
    poset: &Poset,
    settings: &TrackSettings,
) -> PieriSolution {
    let shape = problem.shape();
    assert_eq!(
        poset.shape(),
        shape,
        "poset was built for a different shape"
    );
    let n = shape.conditions();

    // Solutions per pattern at the previous level; trivial level seeds the
    // induction with the empty coefficient vector.
    let trivial = shape.trivial();
    let mut prev: HashMap<Vec<usize>, Vec<Vec<Complex64>>> = HashMap::new();
    prev.insert(trivial.pivots().to_vec(), vec![Vec::new()]);

    let mut records = Vec::new();
    let mut failures = 0usize;
    // One tracking workspace threaded through every job of the solve —
    // buffers grow once per level (ranks increase) and are reused.
    let mut ws = TrackWorkspace::new();

    for k in 1..=n {
        let mut next: HashMap<Vec<usize>, Vec<Vec<Complex64>>> = HashMap::new();
        for pattern in poset.level(k) {
            let homotopy = PieriHomotopy::new(problem, pattern);
            let mut sols: Vec<Vec<Complex64>> = Vec::new();
            for child in pattern.children() {
                let Some(child_sols) = prev.get(child.pivots()) else {
                    continue;
                };
                let child_layout = CoeffLayout::new(&child);
                for y in child_sols {
                    let x0 = homotopy.layout().embed_child(&child_layout, y);
                    let result = track_path_with(&homotopy, &x0, settings, &mut ws);
                    records.push(JobRecord {
                        level: k,
                        pattern: pattern.shorthand(),
                        status: result.status,
                        steps: result.steps,
                        elapsed: result.elapsed,
                    });
                    if result.status.is_converged() {
                        sols.push(result.x);
                    } else {
                        failures += 1;
                    }
                }
            }
            if !sols.is_empty() {
                next.insert(pattern.pivots().to_vec(), sols);
            }
        }
        prev = next;
    }

    let root = shape.root();
    let coeffs = prev.remove(root.pivots()).unwrap_or_default();
    let maps = coeffs.iter().map(|x| PMap::from_coeffs(&root, x)).collect();
    PieriSolution {
        maps,
        coeffs,
        records,
        failures,
        certificates: Vec::new(),
    }
}

/// Certifies (and per policy refines) the root solutions of an
/// already-computed [`PieriSolution`] in place — the one certification
/// entry point, whichever schedule produced the solve (every driver
/// ships the same root coefficient vectors). Track with
/// [`CertifyPolicy::effective_settings`] first, so failed paths are
/// re-tracked per the policy.
pub fn certify_roots(problem: &PieriProblem, solution: &mut PieriSolution, policy: &CertifyPolicy) {
    solution.certificates = certify_solution_set(problem, &mut solution.coeffs, policy);
    if policy.refine {
        let root = problem.shape().root();
        solution.maps = solution
            .coeffs
            .iter()
            .map(|x| PMap::from_coeffs(&root, x))
            .collect();
    }
}

/// Solves one job explicitly — one Pieri-tree edge — against a
/// caller-owned [`TrackWorkspace`]: used by the parallel schedulers,
/// which own the job ordering, each worker holding one workspace that is
/// reused across every job it executes. Returns the converged
/// coefficients, or `None`.
pub fn run_job(
    problem: &PieriProblem,
    pattern: &Pattern,
    child: &Pattern,
    child_solution: &[Complex64],
    settings: &TrackSettings,
    ws: &mut TrackWorkspace,
) -> (Option<Vec<Complex64>>, JobRecord) {
    let homotopy = PieriHomotopy::new(problem, pattern);
    let child_layout = CoeffLayout::new(child);
    let x0 = homotopy.layout().embed_child(&child_layout, child_solution);
    let result = track_path_with(&homotopy, &x0, settings, ws);
    let record = JobRecord {
        level: pattern.rank(),
        pattern: pattern.shorthand(),
        status: result.status,
        steps: result.steps,
        elapsed: result.elapsed,
    };
    let sol = result.status.is_converged().then_some(result.x);
    (sol, record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Shape;
    use pieri_num::seeded_rng;

    fn check_full_solve(m: usize, p: usize, q: usize, seed: u64) -> PieriSolution {
        let mut rng = seeded_rng(seed);
        let shape = Shape::new(m, p, q);
        let problem = PieriProblem::random(shape.clone(), &mut rng);
        let poset = Poset::build(&shape);
        let sol = solve(&problem);
        assert_eq!(sol.failures, 0, "Pieri homotopies have no divergent paths");
        assert_eq!(
            sol.maps.len() as u128,
            poset.root_count(),
            "({m},{p},{q}): expected d(m,p,q) solutions"
        );
        assert_eq!(
            sol.records.len() as u128,
            poset.level_profile().total_jobs()
        );
        let res = sol.max_residual(&problem);
        assert!(res < 1e-7, "({m},{p},{q}): residual {res:.2e}");
        if sol.maps.len() > 1 {
            assert!(
                sol.min_pairwise_distance() > 1e-5,
                "({m},{p},{q}): solutions must be distinct"
            );
        }
        sol
    }

    #[test]
    fn solves_2_2_0_output_feedback() {
        // The classic: 2 static feedback laws for m = p = 2 (Table IV).
        check_full_solve(2, 2, 0, 400);
    }

    #[test]
    fn solves_3_2_0() {
        // 5 solutions.
        check_full_solve(3, 2, 0, 401);
    }

    #[test]
    fn solves_2_2_1_dynamic() {
        // 8 dynamic feedback laws, 37 jobs (Fig 4/5).
        let sol = check_full_solve(2, 2, 1, 402);
        assert_eq!(sol.records.len(), 37);
    }

    #[test]
    fn solves_2_1_2_single_input() {
        // p = 1: single column patterns, hypersurface case.
        check_full_solve(2, 1, 2, 403);
    }

    #[test]
    fn prepared_poset_reproduces_solve_exactly() {
        let shape = Shape::new(2, 2, 1);
        let poset = Poset::build(&shape);
        let make = || {
            let mut rng = seeded_rng(405);
            PieriProblem::random(shape.clone(), &mut rng)
        };
        let fresh = solve(&make());
        let shared = solve_prepared(&make(), &poset, &TrackSettings::default());
        assert_eq!(fresh.coeffs, shared.coeffs, "same path, same bits");
    }

    #[test]
    #[should_panic(expected = "different shape")]
    fn prepared_poset_shape_mismatch_panics() {
        let mut rng = seeded_rng(406);
        let problem = PieriProblem::random(Shape::new(2, 2, 0), &mut rng);
        let poset = Poset::build(&Shape::new(3, 2, 0));
        let _ = solve_prepared(&problem, &poset, &TrackSettings::default());
    }

    #[test]
    fn job_levels_match_tree_profile() {
        let mut rng = seeded_rng(404);
        let shape = Shape::new(2, 2, 1);
        let problem = PieriProblem::random(shape.clone(), &mut rng);
        let sol = solve(&problem);
        let profile = Poset::build(&shape).level_profile();
        for k in 1..=shape.conditions() {
            let jobs_at_k = sol.records.iter().filter(|r| r.level == k).count();
            assert_eq!(jobs_at_k as u128, profile.widths[k], "level {k}");
        }
    }
}
