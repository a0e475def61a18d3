//! Fused-vs-reference agreement for the determinantal kernels.
//!
//! The fused `eval_and_jacobian` / `jacobian_and_dt` paths of the Pieri
//! homotopy (at patterns of every poset level), the instance homotopy
//! and the certification target (every condition fixed) must reproduce
//! the separate reference calls (`eval` + `jacobian_x` + `dt`,
//! minor-based gradients) to 1e-12 relative accuracy at generic points,
//! across random shapes and points, and must degrade gracefully to the
//! minor-expansion fallback at near-singular points (i.e. at solutions,
//! where every condition matrix is singular by construction).

use pieri_core::{InstanceHomotopy, PieriHomotopy, PieriProblem, Poset, Shape};
use pieri_linalg::CMat;
use pieri_num::{random_complex, seeded_rng, Complex64};
use pieri_tracker::{Homotopy, TrackSettings, TrackWorkspace};
use proptest::prelude::*;

/// Strategy over shapes whose root homotopy stays small enough for a
/// tight test loop (`n = mp + q(m+p) ≤ 16` unknowns).
fn shapes() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..=4, 1usize..=4, 0usize..=2)
        .prop_filter("bounded size", |&(m, p, q)| m * p + q * (m + p) <= 16)
}

/// The Pieri homotopy at a pattern of any poset level: `pick` selects
/// the level, then the pattern within it.
fn pieri_at(problem: &PieriProblem, pick: usize) -> PieriHomotopy {
    let n = problem.shape().conditions();
    let poset = Poset::build(problem.shape());
    let level = poset.level(1 + pick % n);
    PieriHomotopy::new(problem, &level[pick / n % level.len()])
}

/// Max-norm relative agreement of two matrices.
fn mats_agree(a: &CMat, b: &CMat, tol: f64) -> bool {
    let scale = a.max_norm().max(b.max_norm()).max(1.0);
    (a - b).max_norm() <= tol * scale
}

fn vecs_agree(a: &[Complex64], b: &[Complex64], tol: f64) -> bool {
    let scale = a
        .iter()
        .chain(b.iter())
        .map(|z| z.norm())
        .fold(1.0, f64::max);
    a.iter()
        .zip(b.iter())
        .all(|(x, y)| x.dist(*y) <= tol * scale)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `eval_and_jacobian` ≡ `eval` + `jacobian_x` at generic points.
    #[test]
    fn pieri_fused_eval_jacobian_matches_reference(
        (m, p, q) in shapes(),
        seed in 0u64..1 << 16,
        pick in 0usize..1 << 16,
        t in 0.0f64..1.0,
    ) {
        let mut rng = seeded_rng(seed);
        let problem = PieriProblem::random(Shape::new(m, p, q), &mut rng);
        let h = pieri_at(&problem, pick);
        let k = h.dim();
        let x: Vec<Complex64> = (0..k).map(|_| random_complex(&mut rng)).collect();
        let mut fx_ref = vec![Complex64::ZERO; k];
        let mut jac_ref = CMat::zeros(k, k);
        h.eval(&x, t, &mut fx_ref);
        h.jacobian_x(&x, t, &mut jac_ref);
        let mut ws = TrackWorkspace::new();
        ws.ensure(k);
        let (fx, jac, scratch) = ws.eval_buffers();
        h.eval_and_jacobian(&x, t, fx, jac, scratch);
        prop_assert!(vecs_agree(fx, &fx_ref, 1e-12), "residuals differ");
        prop_assert!(mats_agree(jac, &jac_ref, 1e-12), "Jacobians differ");
    }

    /// `jacobian_and_dt` ≡ `jacobian_x` + `dt` at generic points.
    #[test]
    fn pieri_fused_jacobian_dt_matches_reference(
        (m, p, q) in shapes(),
        seed in 0u64..1 << 16,
        pick in 0usize..1 << 16,
        t in 0.0f64..1.0,
    ) {
        let mut rng = seeded_rng(seed);
        let problem = PieriProblem::random(Shape::new(m, p, q), &mut rng);
        let h = pieri_at(&problem, pick);
        let k = h.dim();
        let x: Vec<Complex64> = (0..k).map(|_| random_complex(&mut rng)).collect();
        let mut jac_ref = CMat::zeros(k, k);
        let mut dt_ref = vec![Complex64::ZERO; k];
        h.jacobian_x(&x, t, &mut jac_ref);
        h.dt(&x, t, &mut dt_ref);
        let mut jac = CMat::zeros(k, k);
        let mut ht = vec![Complex64::ZERO; k];
        let mut ws = TrackWorkspace::new();
        ws.ensure(k);
        let (_, _, scratch) = ws.eval_buffers();
        h.jacobian_and_dt(&x, t, &mut jac, &mut ht, scratch);
        prop_assert!(mats_agree(&jac, &jac_ref, 1e-12), "Jacobians differ");
        prop_assert!(vecs_agree(&ht, &dt_ref, 1e-12), "dt rows differ");
    }

    /// The fused kernels of the instance homotopy and of the
    /// certification target (every condition fixed) match their
    /// reference calls.
    #[test]
    fn instance_fused_kernels_match_reference(
        (m, p, q) in shapes(),
        seed in 0u64..1 << 16,
        t in 0.0f64..1.0,
    ) {
        let mut rng = seeded_rng(seed);
        let shape = Shape::new(m, p, q);
        let start = PieriProblem::random(shape.clone(), &mut rng);
        let target = PieriProblem::random(shape.clone(), &mut rng);
        let k = shape.root().rank();
        let x: Vec<Complex64> = (0..k).map(|_| random_complex(&mut rng)).collect();
        let mut ws = TrackWorkspace::new();
        ws.ensure(k);
        for h in [InstanceHomotopy::new(&start, &target), InstanceHomotopy::target(&target)] {
            let mut fx_ref = vec![Complex64::ZERO; k];
            let mut jac_ref = CMat::zeros(k, k);
            let mut dt_ref = vec![Complex64::ZERO; k];
            h.eval(&x, t, &mut fx_ref);
            h.jacobian_x(&x, t, &mut jac_ref);
            h.dt(&x, t, &mut dt_ref);
            let (fx, jac, scratch) = ws.eval_buffers();
            h.eval_and_jacobian(&x, t, fx, jac, scratch);
            prop_assert!(vecs_agree(fx, &fx_ref, 1e-12), "residuals differ");
            prop_assert!(mats_agree(jac, &jac_ref, 1e-12), "Jacobians differ");
            let mut jac2 = CMat::zeros(k, k);
            let mut ht = vec![Complex64::ZERO; k];
            h.jacobian_and_dt(&x, t, &mut jac2, &mut ht, scratch);
            prop_assert!(mats_agree(&jac2, &jac_ref, 1e-12), "Jacobians differ (dt fusion)");
            prop_assert!(vecs_agree(&ht, &dt_ref, 1e-12), "dt rows differ");
        }
    }
}

/// At a solution every condition matrix is singular by construction: the
/// fused path must detect the wild pivot ratios and fall back to the
/// minor expansion, still agreeing with the reference Jacobian.
#[test]
fn near_singular_jacobian_uses_the_stable_fallback() {
    let mut rng = seeded_rng(940);
    let shape = Shape::new(2, 2, 1);
    let problem = PieriProblem::random(shape.clone(), &mut rng);
    let solution = pieri_core::solve(&problem);
    assert_eq!(solution.failures, 0);
    let h = PieriHomotopy::new(&problem, &shape.root());
    let k = h.dim();
    for x in &solution.coeffs {
        // At t = 1 the moving condition is the k-th input plane: the
        // solved coefficients make all k condition matrices singular.
        let mut fx_ref = vec![Complex64::ZERO; k];
        let mut jac_ref = CMat::zeros(k, k);
        h.eval(x, 1.0, &mut fx_ref);
        h.jacobian_x(x, 1.0, &mut jac_ref);
        assert!(
            fx_ref.iter().all(|z| z.norm() < 1e-7),
            "x is a solution at t = 1"
        );
        let mut ws = TrackWorkspace::new();
        ws.ensure(k);
        let (fx, jac, scratch) = ws.eval_buffers();
        h.eval_and_jacobian(x, 1.0, fx, jac, scratch);
        let scale = jac_ref.max_norm().max(1.0);
        assert!(
            (&*jac - &jac_ref).max_norm() <= 1e-9 * scale,
            "near-singular Jacobians must agree through the fallback"
        );
        assert!(vecs_agree(fx, &fx_ref, 1e-12), "residuals agree");
    }
}

/// One workspace migrating between homotopies of different ranks and
/// shapes keeps producing correct results (scratch buffers resize), and
/// reusing a workspace does not change the tracked endpoints.
#[test]
fn workspace_migrates_across_shapes_and_ranks() {
    let mut ws = TrackWorkspace::new();
    let settings = TrackSettings::default();
    for (seed, (m, p, q)) in [(950u64, (2, 2, 0)), (951, (3, 2, 0)), (952, (2, 2, 1))] {
        let mut rng = seeded_rng(seed);
        let shape = Shape::new(m, p, q);
        let start = PieriProblem::random(shape.clone(), &mut rng);
        let target = PieriProblem::random(shape.clone(), &mut rng);
        let solution = pieri_core::solve(&start);
        assert_eq!(solution.failures, 0, "({m},{p},{q})");
        // Instance continuation of every generic root solution through
        // the *shared* workspace, against fresh-workspace references.
        let h = InstanceHomotopy::new(&start, &target);
        for x0 in &solution.coeffs {
            let shared = pieri_tracker::track_path_with(&h, x0, &settings, &mut ws);
            let fresh = pieri_tracker::track_path(&h, x0, &settings);
            assert_eq!(shared.status, fresh.status, "({m},{p},{q})");
            assert_eq!(shared.x, fresh.x, "({m},{p},{q}): bitwise equal endpoints");
        }
    }
}
