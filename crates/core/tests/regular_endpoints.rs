//! Pieri paths have regular endpoints: they skip the geometric endgame
//! and retry path jumps instead of calling them divergences.
//!
//! Two checks. Instances whose paths once jumped to a huge norm in one
//! step, and were then declared diverged, now yield every root. And a
//! tree walk with the endgame (a wrapper that keeps the default
//! `Homotopy::regular_endpoints`) finds the same roots and failures as
//! the walk without it, in fewer steps. Pieri paths approach `t = 1`
//! analytically, so the endgame leaves them after a few halvings.

use pieri_certify::CertifyPolicy;
use pieri_core::{
    certify_roots, root_count, solve_prepared, CoeffLayout, PieriHomotopy, PieriProblem, Poset,
    Shape,
};
use pieri_linalg::CMat;
use pieri_num::{seeded_rng, Complex64};
use pieri_tracker::{track_path_with, Homotopy, HomotopyScratch, TrackSettings, TrackWorkspace};
use std::collections::HashMap;

/// The production tracking settings: defaults plus the full
/// certification policy's re-track budget.
fn certified_settings() -> TrackSettings {
    CertifyPolicy::full().effective_settings(&TrackSettings::default())
}

/// Cold (2,2,2) instances on which the level-10 job `[5 8]` took one
/// step to `‖x‖∞ ≈ 1e14` and ended `Diverged { at_t: 0.05 }`, so the
/// solve lost a root.
#[test]
fn path_jumps_are_retried_not_declared_divergent() {
    let d = root_count(2, 2, 2) as usize;
    for seed in [5_477_664_171_424_700, 5_857_327_723_540_288] {
        let problem = PieriProblem::random(Shape::new(2, 2, 2), &mut seeded_rng(seed));
        let poset = Poset::build(problem.shape());
        let mut solution = solve_prepared(&problem, &poset, &certified_settings());
        assert_eq!(solution.failures, 0, "seed {seed}");
        assert_eq!(solution.coeffs.len(), d, "seed {seed}");
        let distance = solution.min_pairwise_distance();
        assert!(
            distance > 1e-5,
            "seed {seed}: two roots {distance:.2e} apart"
        );
        certify_roots(&problem, &mut solution, &CertifyPolicy::full());
        for cert in &solution.certificates {
            assert!(cert.is_certified(), "seed {seed}: {cert:?}");
        }
    }
}

/// A Pieri homotopy that keeps the default `regular_endpoints()`, so
/// its paths run the geometric endgame.
struct WithEndgame(PieriHomotopy);

impl Homotopy for WithEndgame {
    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn eval(&self, x: &[Complex64], t: f64, out: &mut [Complex64]) {
        self.0.eval(x, t, out);
    }

    fn jacobian_x(&self, x: &[Complex64], t: f64, out: &mut CMat) {
        self.0.jacobian_x(x, t, out);
    }

    fn dt(&self, x: &[Complex64], t: f64, out: &mut [Complex64]) {
        self.0.dt(x, t, out);
    }

    fn eval_and_jacobian(
        &self,
        x: &[Complex64],
        t: f64,
        fx: &mut [Complex64],
        jac: &mut CMat,
        scratch: &mut HomotopyScratch,
    ) {
        self.0.eval_and_jacobian(x, t, fx, jac, scratch);
    }

    fn jacobian_and_dt(
        &self,
        x: &[Complex64],
        t: f64,
        jac: &mut CMat,
        ht: &mut [Complex64],
        scratch: &mut HomotopyScratch,
    ) {
        self.0.jacobian_and_dt(x, t, jac, ht, scratch);
    }
}

/// What one sequential walk of the Pieri tree produced.
struct Walk {
    roots: Vec<Vec<Complex64>>,
    failures: usize,
    steps: usize,
    paths: usize,
}

/// Walks the tree level by level, tracking every child solution into
/// every parent pattern through `homotopy(PieriHomotopy)`.
fn walk<H: Homotopy>(problem: &PieriProblem, homotopy: impl Fn(PieriHomotopy) -> H) -> Walk {
    let shape = problem.shape();
    let poset = Poset::build(shape);
    let settings = certified_settings();
    let mut ws = TrackWorkspace::new();
    let mut prev: HashMap<Vec<usize>, Vec<Vec<Complex64>>> = HashMap::new();
    prev.insert(shape.trivial().pivots().to_vec(), vec![Vec::new()]);
    let (mut failures, mut steps, mut paths) = (0, 0, 0);
    for k in 1..=shape.conditions() {
        let mut next = HashMap::new();
        for pattern in poset.level(k) {
            let layout = CoeffLayout::new(pattern);
            let h = homotopy(PieriHomotopy::new(problem, pattern));
            let mut sols = Vec::new();
            for child in pattern.children() {
                let Some(starts) = prev.get(child.pivots()) else {
                    continue;
                };
                let child_layout = CoeffLayout::new(&child);
                for y in starts {
                    let x0 = layout.embed_child(&child_layout, y);
                    let r = track_path_with(&h, &x0, &settings, &mut ws);
                    steps += r.steps;
                    paths += 1;
                    if r.status.is_converged() {
                        sols.push(r.x);
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
    Walk {
        roots: prev.remove(shape.root().pivots()).unwrap_or_default(),
        failures,
        steps,
        paths,
    }
}

/// Pairs every root of `a` with a distinct root of `b` within `tol`
/// relative distance (max norm).
fn same_root_sets(a: &[Vec<Complex64>], b: &[Vec<Complex64>], tol: f64) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} roots vs {}", a.len(), b.len()));
    }
    let dist = |x: &[Complex64], y: &[Complex64]| {
        let scale = x.iter().map(|z| z.norm()).fold(1.0, f64::max);
        x.iter().zip(y).map(|(u, v)| u.dist(*v)).fold(0.0, f64::max) / scale
    };
    let mut left: Vec<&Vec<Complex64>> = b.iter().collect();
    for (i, x) in a.iter().enumerate() {
        let (j, d) = left
            .iter()
            .enumerate()
            .map(|(j, y)| (j, dist(x, y)))
            .min_by(|p, q| p.1.total_cmp(&q.1))
            .expect("roots left to pair");
        if d > tol {
            return Err(format!("root {i} is {d:.2e} from its nearest match"));
        }
        left.swap_remove(j);
    }
    Ok(())
}

#[test]
fn skipping_the_endgame_keeps_the_roots_in_far_fewer_steps() {
    let instances = (0..20)
        .map(|i| (Shape::new(2, 2, 1), 1900 + i))
        .chain((0..3).map(|i| (Shape::new(2, 2, 2), 1950 + i)));
    let (mut skip_steps, mut endgame_steps, mut paths) = (0, 0, 0);
    for (shape, seed) in instances {
        let problem = PieriProblem::random(shape.clone(), &mut seeded_rng(seed));
        let skip = walk(&problem, |h| h);
        let endgame = walk(&problem, WithEndgame);
        assert_eq!(skip.failures, endgame.failures, "{shape:?} seed {seed}");
        if let Err(e) = same_root_sets(&skip.roots, &endgame.roots, 1e-9) {
            panic!("{shape:?} seed {seed}: {e}");
        }
        skip_steps += skip.steps;
        endgame_steps += endgame.steps;
        paths += endgame.paths;
    }
    assert!(
        skip_steps < endgame_steps,
        "{skip_steps} steps without the endgame, {endgame_steps} with it"
    );
    // The endgame's early exit ends an analytic path three halvings in.
    assert!(
        endgame_steps - skip_steps <= 4 * paths,
        "the endgame added {} steps over {paths} paths",
        endgame_steps - skip_steps
    );
}
