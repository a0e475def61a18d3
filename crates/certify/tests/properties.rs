//! Property tests for the certification layer.
//!
//! The headline invariant: **refining a `Certified` endpoint never
//! degrades its residual** — the refiner keeps its best iterate, so the
//! double-double-measured residual after refinement is ≤ the residual
//! before, for every target system and every tracked endpoint.

use pieri_certify::{certify_endpoint, refine_endpoint, SystemEval, REFINE_MAX_ITERS, REFINE_TOL};
use pieri_num::{random_gamma, seeded_rng, Complex64, DdComplex, Scalar};
use pieri_poly::{Poly, PolySystem, UniPoly};
use pieri_tracker::{track_path, LinearHomotopy, TrackSettings, TrackWorkspace};
use proptest::prelude::*;

/// A univariate polynomial as a [`SystemEval`] at any precision
/// (Horner evaluation with exactly embedded `f64` coefficients).
struct UniSystem {
    coeffs: Vec<Complex64>,
}

impl<S: Scalar> SystemEval<S> for UniSystem {
    fn dim(&self) -> usize {
        1
    }
    fn eval(&self, x: &[S], out: &mut [S]) {
        let mut acc = S::zero();
        for &c in self.coeffs.iter().rev() {
            acc = acc * x[0] + S::from_c64(c);
        }
        out[0] = acc;
    }
}

fn univar(coeffs: &[Complex64]) -> PolySystem {
    let x = Poly::var(1, 0);
    let mut p = Poly::zero(1);
    for (k, &ck) in coeffs.iter().enumerate() {
        p = p.add(&x.pow(k as u32).scale(ck));
    }
    PolySystem::new(vec![p])
}

/// Start system x^d − 1 with its roots of unity.
fn unity_start(d: usize) -> (PolySystem, Vec<Complex64>) {
    let mut coeffs = vec![Complex64::ZERO; d + 1];
    coeffs[0] = Complex64::real(-1.0);
    coeffs[d] = Complex64::ONE;
    let roots = (0..d)
        .map(|k| Complex64::from_polar(1.0, std::f64::consts::TAU * k as f64 / d as f64))
        .collect();
    (univar(&coeffs), roots)
}

fn dd_residual(sys: &UniSystem, x: Complex64) -> f64 {
    let mut out = [DdComplex::ZERO];
    SystemEval::<DdComplex>::eval(sys, &[DdComplex::from_c64(x)], &mut out);
    out[0].norm()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Track every root of a random well-separated cubic, certify the
    /// endpoints, refine them, and check the monotonicity + target
    /// contracts.
    #[test]
    fn refining_certified_endpoints_never_degrades_residuals(
        seed in 0u64..10_000,
    ) {
        let mut rng = seeded_rng(seed);
        // Random roots kept apart so every endpoint is a simple root.
        let mut roots: Vec<Complex64> = Vec::new();
        while roots.len() < 3 {
            let r = pieri_num::random_complex(&mut rng);
            if roots.iter().all(|s| s.dist(r) > 0.35) {
                roots.push(r);
            }
        }
        let target_uni = UniPoly::from_roots(&roots);
        let sys = UniSystem { coeffs: target_uni.coeffs().to_vec() };
        let (g, starts) = unity_start(3);
        let h = LinearHomotopy::new(g, univar(target_uni.coeffs()), random_gamma(&mut rng));
        let settings = TrackSettings::default();
        let mut ws = TrackWorkspace::new();

        for s in &starts {
            let r = track_path(&h, &[*s], &settings);
            prop_assume!(r.status.is_converged());
            let mut x = r.x.clone();

            let cert = certify_endpoint(&h, &x, 1.0, &mut ws);
            prop_assert!(cert.is_certified(), "tracked simple root certifies: {cert:?}");

            let before = dd_residual(&sys, x[0]);
            let out = refine_endpoint::<DdComplex, _, _>(
                &h, &sys, 1.0, &mut x,
                REFINE_TOL, REFINE_MAX_ITERS, &mut ws,
            );
            let after = dd_residual(&sys, x[0]);

            // Monotonicity: never worse, measured both by the refiner's
            // own report and independently re-evaluated.
            prop_assert!(out.residual <= out.initial_residual, "{out:?}");
            prop_assert!(
                after <= before * (1.0 + 1e-12),
                "independent re-check: {after:e} vs {before:e}"
            );
            // And the production target is actually reached.
            prop_assert!(out.achieved, "refinement to 1e-13 failed: {out:?}");
            prop_assert!(after <= 1e-13, "refined residual {after:e}");
            // The refined point stayed with its root (no root swapping).
            let (i, d) = roots
                .iter()
                .enumerate()
                .map(|(i, s)| (i, s.dist(x[0])))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            prop_assert!(d < 1e-7, "refined point left root {i}: {d:e}");
        }
    }

    /// Refinement is idempotent at the fixed point: a second refinement
    /// pass cannot degrade what the first achieved.
    #[test]
    fn double_refinement_is_monotone_too(seed in 0u64..10_000) {
        let mut rng = seeded_rng(seed);
        let c = pieri_num::random_complex(&mut rng).scale(2.0) + Complex64::real(3.0);
        let sys = UniSystem { coeffs: vec![-c, Complex64::ZERO, Complex64::ONE] };
        let (g, _) = unity_start(2);
        let h = LinearHomotopy::new(
            g,
            univar(&[-c, Complex64::ZERO, Complex64::ONE]),
            random_gamma(&mut rng),
        );
        let mut ws = TrackWorkspace::new();
        let mut x = vec![c.sqrt()];
        let first = refine_endpoint::<DdComplex, _, _>(&h, &sys, 1.0, &mut x, 1e-25, 8, &mut ws);
        let second = refine_endpoint::<DdComplex, _, _>(&h, &sys, 1.0, &mut x, 1e-25, 8, &mut ws);
        prop_assert!(second.residual <= first.residual * (1.0 + 1e-12),
            "second pass degraded: {second:?} after {first:?}");
    }
}
