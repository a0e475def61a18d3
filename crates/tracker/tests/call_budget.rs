//! Kernel-call budget of the path tracker: each fused evaluation the
//! corrector makes is one billed Newton iteration, and a path that
//! reaches `t = 1` adds exactly one more, for its endpoint residual. The
//! budget holds with and without the geometric endgame.

use pieri_linalg::CMat;
use pieri_num::{random_complex, random_gamma, seeded_rng, Complex64};
use pieri_poly::{Poly, PolySystem};
use pieri_tracker::{
    track_path_with, Homotopy, HomotopyScratch, LinearHomotopy, TrackSettings, TrackWorkspace,
};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards every call to `inner`, counting the fused evaluations.
struct Counting<H> {
    inner: H,
    eval_and_jacobian: AtomicUsize,
}

impl<H: Homotopy> Homotopy for Counting<H> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn eval(&self, x: &[Complex64], t: f64, out: &mut [Complex64]) {
        self.inner.eval(x, t, out);
    }

    fn jacobian_x(&self, x: &[Complex64], t: f64, out: &mut CMat) {
        self.inner.jacobian_x(x, t, out);
    }

    fn dt(&self, x: &[Complex64], t: f64, out: &mut [Complex64]) {
        self.inner.dt(x, t, out);
    }

    fn regular_endpoints(&self) -> bool {
        self.inner.regular_endpoints()
    }

    fn eval_and_jacobian(
        &self,
        x: &[Complex64],
        t: f64,
        fx: &mut [Complex64],
        jac: &mut CMat,
        scratch: &mut HomotopyScratch,
    ) {
        self.eval_and_jacobian.fetch_add(1, Ordering::Relaxed);
        self.inner.eval_and_jacobian(x, t, fx, jac, scratch);
    }

    fn jacobian_and_dt(
        &self,
        x: &[Complex64],
        t: f64,
        jac: &mut CMat,
        ht: &mut [Complex64],
        scratch: &mut HomotopyScratch,
    ) {
        self.inner.jacobian_and_dt(x, t, jac, ht, scratch);
    }
}

/// Forwards every evaluation to the wrapped homotopy and reports
/// regular endpoints, so its paths skip the endgame.
struct Regular<H>(H);

impl<H: Homotopy> Homotopy for Regular<H> {
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

    fn regular_endpoints(&self) -> bool {
        true
    }
}

fn counting<H>(inner: H) -> Counting<H> {
    Counting {
        inner,
        eval_and_jacobian: AtomicUsize::new(0),
    }
}

/// `x² − 1` deformed to `x² − 4`: two regular paths from `±1` to `±2`.
fn quadratic(seed: u64) -> (LinearHomotopy, Vec<Vec<Complex64>>) {
    let x = Poly::var(1, 0);
    let constant = |c: f64| Poly::constant(1, Complex64::real(c));
    let start = PolySystem::new(vec![x.mul(&x).sub(&constant(1.0))]);
    let target = PolySystem::new(vec![x.mul(&x).sub(&constant(4.0))]);
    let h = LinearHomotopy::new(start, target, random_gamma(&mut seeded_rng(seed)));
    let starts = vec![vec![Complex64::real(1.0)], vec![Complex64::real(-1.0)]];
    (h, starts)
}

/// `{x² − 1, y² − 1}` deformed to `{x² + a·y + b, y² + c·x + d}` with
/// random coefficients: four regular paths from `(±1, ±1)`.
fn two_quadrics(seed: u64) -> (LinearHomotopy, Vec<Vec<Complex64>>) {
    let mut rng = seeded_rng(seed);
    let (x, y) = (Poly::var(2, 0), Poly::var(2, 1));
    let one = Poly::constant(2, Complex64::ONE);
    let start = PolySystem::new(vec![x.mul(&x).sub(&one), y.mul(&y).sub(&one)]);
    let mut coeff = || Poly::constant(2, random_complex(&mut rng));
    let target = PolySystem::new(vec![
        x.mul(&x).add(&coeff().mul(&y)).add(&coeff()),
        y.mul(&y).add(&coeff().mul(&x)).add(&coeff()),
    ]);
    let h = LinearHomotopy::new(start, target, random_gamma(&mut rng));
    let starts = [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]
        .iter()
        .map(|&(a, b)| vec![Complex64::real(a), Complex64::real(b)])
        .collect();
    (h, starts)
}

#[test]
fn fused_evaluations_per_path_are_newton_iterations_plus_endpoint_residual() {
    let (inner, starts) = two_quadrics(830);
    let h = counting(inner);
    let mut ws = TrackWorkspace::new();
    let settings = TrackSettings::default();
    for s in &starts {
        let before = h.eval_and_jacobian.load(Ordering::Relaxed);
        let r = track_path_with(&h, s, &settings, &mut ws);
        let calls = h.eval_and_jacobian.load(Ordering::Relaxed) - before;
        assert!(r.status.is_converged(), "{:?}", r.status);
        assert!(r.steps > 0);
        assert_eq!(
            calls,
            r.newton_iters + 1,
            "from {s:?}: {} steps, {} rejections",
            r.steps,
            r.rejections
        );
    }
}

#[test]
fn skipping_the_endgame_keeps_the_budget_in_fewer_steps() {
    let (inner, starts) = quadratic(831);
    let endgame = counting(inner);
    let skip = counting(Regular(quadratic(831).0));
    assert!(!endgame.regular_endpoints() && skip.regular_endpoints());
    let mut ws = TrackWorkspace::new();
    let settings = TrackSettings::default();
    for s in &starts {
        let with = track_path_with(&endgame, s, &settings, &mut ws);
        let before = skip.eval_and_jacobian.load(Ordering::Relaxed);
        let r = track_path_with(&skip, s, &settings, &mut ws);
        let calls = skip.eval_and_jacobian.load(Ordering::Relaxed) - before;
        assert!(r.status.is_converged(), "{:?}", r.status);
        assert!(with.status.is_converged(), "{:?}", with.status);
        assert!((r.x[0].norm() - 2.0).abs() < 1e-10, "{:?}", r.x);
        assert_eq!(
            calls,
            r.newton_iters + 1,
            "from {s:?}: {} steps, {} rejections",
            r.steps,
            r.rejections
        );
        assert!(
            r.steps < with.steps,
            "from {s:?}: {} steps without the endgame, {} with it",
            r.steps,
            with.steps
        );
    }
}
