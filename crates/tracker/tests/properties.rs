//! Property-based tests for the path tracker: against univariate targets
//! whose roots are known exactly (companion-matrix cross-check), the
//! tracker must find every root, classify deficiency honestly, and be
//! invariant to the choice of gamma.

use pieri_num::{random_complex, random_gamma, seeded_rng, Complex64};
use pieri_poly::{Poly, PolySystem, UniPoly};
use pieri_tracker::{track_all, LinearHomotopy, PathStatus, TrackSettings};
use proptest::prelude::*;

fn univar_system(coeffs: &[Complex64]) -> PolySystem {
    let x = Poly::var(1, 0);
    let mut p = Poly::zero(1);
    for (k, &c) in coeffs.iter().enumerate() {
        p = p.add(&x.pow(k as u32).scale(c));
    }
    PolySystem::new(vec![p])
}

fn unity_starts(d: usize) -> Vec<Vec<Complex64>> {
    (0..d)
        .map(|k| {
            vec![Complex64::from_polar(
                1.0,
                std::f64::consts::TAU * k as f64 / d as f64,
            )]
        })
        .collect()
}

fn start_system(d: usize) -> PolySystem {
    let mut coeffs = vec![Complex64::ZERO; d + 1];
    coeffs[0] = Complex64::real(-1.0);
    coeffs[d] = Complex64::ONE;
    univar_system(&coeffs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All d roots of a random monic degree-d polynomial are found and
    /// agree with the companion-matrix eigenvalues.
    #[test]
    fn finds_all_roots(d in 2usize..7, seed in 0u64..5_000) {
        let mut rng = seeded_rng(seed);
        let roots: Vec<Complex64> = (0..d).map(|_| random_complex(&mut rng).scale(1.5)).collect();
        let target_uni = UniPoly::from_roots(&roots);
        let h = LinearHomotopy::new(
            start_system(d),
            univar_system(target_uni.coeffs()),
            random_gamma(&mut rng),
        );
        let (results, stats) = track_all(&h, &unity_starts(d), &TrackSettings::default());
        prop_assert_eq!(stats.converged, d, "{:?}", stats);
        // Multiset match against the prescribed roots.
        let mut found: Vec<Complex64> = results.iter().map(|r| r.x[0]).collect();
        for r in &roots {
            let (idx, dist) = found
                .iter()
                .enumerate()
                .map(|(i, f)| (i, f.dist(*r)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty");
            prop_assert!(dist < 1e-6, "root {r:?} missed by {dist:.2e}");
            found.swap_remove(idx);
        }
    }

    /// Deficient targets: a degree-k target tracked from a degree-d > k
    /// start yields exactly k convergent and d − k divergent paths.
    #[test]
    fn deficiency_accounting(d in 3usize..6, k in 1usize..3, seed in 0u64..5_000) {
        prop_assume!(k < d);
        let mut rng = seeded_rng(seed);
        let roots: Vec<Complex64> = (0..k).map(|_| random_complex(&mut rng)).collect();
        let target_uni = UniPoly::from_roots(&roots);
        // Embed as a degree-d system with zero leading coefficients.
        let mut coeffs = target_uni.coeffs().to_vec();
        coeffs.resize(d + 1, Complex64::ZERO);
        // Poly drops the zero coefficients; pair with a degree-d start.
        let h = LinearHomotopy::new(
            start_system(d),
            univar_system(&coeffs),
            random_gamma(&mut rng),
        );
        let (results, stats) = track_all(&h, &unity_starts(d), &TrackSettings::default());
        prop_assert_eq!(stats.converged, k, "{:?}", stats);
        prop_assert_eq!(stats.diverged + stats.failed, d - k);
        for r in results.iter().filter(|r| r.status == PathStatus::Converged) {
            prop_assert!(target_uni.eval(r.x[0]).norm() < 1e-6);
        }
    }

    /// The endpoint set does not depend on gamma (as a multiset).
    #[test]
    fn gamma_invariance(seed_a in 0u64..2_000, seed_b in 2_000u64..4_000) {
        let mut rng = seeded_rng(99);
        let roots: Vec<Complex64> = (0..4).map(|_| random_complex(&mut rng)).collect();
        let target = UniPoly::from_roots(&roots);
        let mut endpoints = Vec::new();
        for seed in [seed_a, seed_b] {
            let mut grng = seeded_rng(seed);
            let h = LinearHomotopy::new(
                start_system(4),
                univar_system(target.coeffs()),
                random_gamma(&mut grng),
            );
            let (results, stats) = track_all(&h, &unity_starts(4), &TrackSettings::default());
            prop_assert_eq!(stats.converged, 4);
            let mut xs: Vec<Complex64> = results.iter().map(|r| r.x[0]).collect();
            xs.sort_by(|a, b| a.re.total_cmp(&b.re).then(a.im.total_cmp(&b.im)));
            endpoints.push(xs);
        }
        for (a, b) in endpoints[0].iter().zip(endpoints[1].iter()) {
            prop_assert!(a.dist(*b) < 1e-6);
        }
    }

    /// The predictor lands every path on its own root — for targets
    /// with well-separated roots (near-colliding roots are a genuine
    /// path-jumping hazard at loose tolerances for any predictor, so the
    /// claim is generic, not universal).
    #[test]
    fn predictor_invariance(seed in 0u64..2_000) {
        let mut rng = seeded_rng(seed);
        let roots: Vec<Complex64> = (0..3).map(|_| random_complex(&mut rng)).collect();
        let min_sep = (0..3)
            .flat_map(|i| (0..i).map(move |j| (i, j)))
            .map(|(i, j)| roots[i].dist(roots[j]))
            .fold(f64::INFINITY, f64::min);
        prop_assume!(min_sep > 0.3);
        let target = UniPoly::from_roots(&roots);
        let gamma = random_gamma(&mut rng);
        let h = LinearHomotopy::new(start_system(3), univar_system(target.coeffs()), gamma);
        let (results, stats) = track_all(&h, &unity_starts(3), &TrackSettings::default());
        prop_assert_eq!(stats.converged, 3);
        for root in &roots {
            let hits = results.iter().filter(|r| r.x[0].dist(*root) < 1e-6).count();
            prop_assert_eq!(hits, 1, "root {:?}", root);
        }
    }
}
