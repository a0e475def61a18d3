//! Workspace-threaded entry points must be drop-in replacements: same
//! outcomes, bitwise-identical iterates, across reuse and dimension
//! changes.

use pieri_num::{random_gamma, seeded_rng, Complex64};
use pieri_poly::{Poly, PolySystem};
use pieri_tracker::{
    newton_correct, newton_correct_with, track_path, track_path_with, LinearHomotopy,
    TrackSettings, TrackWorkspace,
};

fn c(re: f64, im: f64) -> Complex64 {
    Complex64::new(re, im)
}

/// x^d − 1 deformed to a random degree-d target.
fn setup(d: usize, seed: u64) -> (LinearHomotopy, Vec<Vec<Complex64>>) {
    let mut rng = seeded_rng(seed);
    let x = Poly::var(1, 0);
    let mut start_p = x.pow(d as u32);
    start_p = start_p.sub(&Poly::constant(1, Complex64::ONE));
    let roots: Vec<Complex64> = (0..d)
        .map(|_| pieri_num::random_complex(&mut rng))
        .collect();
    let target_uni = pieri_poly::UniPoly::from_roots(&roots);
    let mut target_p = Poly::zero(1);
    for (k, &ck) in target_uni.coeffs().iter().enumerate() {
        target_p = target_p.add(&x.pow(k as u32).scale(ck));
    }
    let h = LinearHomotopy::new(
        PolySystem::new(vec![start_p]),
        PolySystem::new(vec![target_p]),
        random_gamma(&mut rng),
    );
    let starts = (0..d)
        .map(|k| {
            vec![Complex64::from_polar(
                1.0,
                std::f64::consts::TAU * k as f64 / d as f64,
            )]
        })
        .collect();
    (h, starts)
}

#[test]
fn newton_with_workspace_matches_allocating_form() {
    let (h, _) = setup(4, 800);
    let mut ws = TrackWorkspace::new();
    for (re, im) in [(1.1, 0.2), (-0.3, 0.9), (0.01, -1.4)] {
        let mut xa = [c(re, im)];
        let mut xb = [c(re, im)];
        let a = newton_correct(&h, &mut xa, 0.7, 1e-12, 12);
        let b = newton_correct_with(&h, &mut xb, 0.7, 1e-12, 12, &mut ws);
        assert_eq!(xa, xb, "bitwise identical iterates");
        assert_eq!(a.converged, b.converged);
        assert_eq!(a.iters, b.iters);
        assert_eq!(a.residual, b.residual);
        assert_eq!(a.last_step, b.last_step);
    }
}

#[test]
fn track_path_with_matches_track_path_bitwise() {
    let (h, starts) = setup(5, 801);
    let settings = TrackSettings::default();
    let mut ws = TrackWorkspace::new();
    for s in &starts {
        let fresh = track_path(&h, s, &settings);
        let shared = track_path_with(&h, s, &settings, &mut ws);
        assert_eq!(fresh.x, shared.x, "bitwise identical endpoints");
        assert_eq!(fresh.status, shared.status);
        assert_eq!(fresh.steps, shared.steps);
        assert_eq!(fresh.rejections, shared.rejections);
        assert_eq!(fresh.newton_iters, shared.newton_iters);
        assert_eq!(fresh.residual, shared.residual);
    }
}

#[test]
fn workspace_survives_dimension_changes() {
    // 1-dimensional paths, then a 2-dimensional system, then back, all
    // through one workspace: buffers resize and results stay equal to
    // the fresh-workspace references.
    let settings = TrackSettings::default();
    let mut ws = TrackWorkspace::new();
    let (h1, starts1) = setup(3, 803);
    let x = Poly::var(2, 0);
    let y = Poly::var(2, 1);
    let g2 = PolySystem::new(vec![
        x.mul(&x).sub(&Poly::constant(2, c(1.0, 0.0))),
        y.mul(&y).sub(&Poly::constant(2, c(1.0, 0.0))),
    ]);
    let f2 = PolySystem::new(vec![
        x.mul(&x).sub(&Poly::constant(2, c(4.0, 0.0))),
        y.mul(&y).sub(&Poly::constant(2, c(9.0, 0.0))),
    ]);
    let mut rng = seeded_rng(804);
    let h2 = LinearHomotopy::new(g2, f2, random_gamma(&mut rng));
    let start2 = vec![c(1.0, 0.0), c(-1.0, 0.0)];

    let a1 = track_path_with(&h1, &starts1[0], &settings, &mut ws);
    let a2 = track_path_with(&h2, &start2, &settings, &mut ws);
    let a3 = track_path_with(&h1, &starts1[1], &settings, &mut ws);
    assert_eq!(a1.x, track_path(&h1, &starts1[0], &settings).x);
    assert_eq!(a2.x, track_path(&h2, &start2, &settings).x);
    assert_eq!(a3.x, track_path(&h1, &starts1[1], &settings).x);
    assert!(a2.status.is_converged());
}
