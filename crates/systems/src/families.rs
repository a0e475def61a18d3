//! The benchmark families: cyclic n-roots, katsura, noon, and the generic
//! bilinear (RPS-workload-equivalent) systems.

use pieri_num::{random_complex, Complex64};
use pieri_poly::{Monomial, Poly, PolySystem};
use rand::Rng;

/// The cyclic n-roots system (Björck):
///
/// ```text
/// f_k = Σ_{i=0}^{n−1} ∏_{j=i}^{i+k−1} x_{j mod n}   for k = 1..n−1,
/// f_n = x_0·x_1·…·x_{n−1} − 1.
/// ```
///
/// The standard stress test for polynomial-system solvers; the paper traces
/// 35,940 paths for `n = 10`. For `n = 5` there are 70 isolated solutions,
/// for `n = 6` 156, for `n = 7` 924.
///
/// # Panics
/// Panics for `n < 2`.
pub fn cyclic(n: usize) -> PolySystem {
    assert!(n >= 2, "cyclic-n needs n ≥ 2");
    let mut polys = Vec::with_capacity(n);
    for k in 1..n {
        let mut terms = Vec::with_capacity(n);
        for i in 0..n {
            let mut exps = vec![0u32; n];
            for j in i..i + k {
                exps[j % n] += 1;
            }
            terms.push((Complex64::ONE, Monomial::from_exps(exps)));
        }
        polys.push(Poly::from_terms(n, terms));
    }
    let all = Monomial::from_exps(vec![1; n]);
    polys.push(Poly::from_terms(
        n,
        vec![
            (Complex64::ONE, all),
            (Complex64::real(-1.0), Monomial::one(n)),
        ],
    ));
    PolySystem::new(polys)
}

/// Number of isolated solutions of cyclic-n for the sizes used in tests
/// and benches (`None` when not tabulated here).
pub fn cyclic_root_count(n: usize) -> Option<usize> {
    match n {
        5 => Some(70),
        6 => Some(156),
        7 => Some(924),
        8 => Some(1152),
        10 => Some(34940),
        _ => None,
    }
}

/// The katsura-n system (magnetism):
/// variables `u_0..u_n`;
///
/// ```text
/// Σ_{l=−n}^{n} u_{|l|} = 1,
/// Σ_{l=−n}^{n} u_{|l|}·u_{|m−l|} = u_m     for m = 0..n−1,
/// ```
///
/// with `u_l ≡ 0` for `|l| > n`. Has `2^n` isolated solutions.
///
/// # Panics
/// Panics for `n == 0`.
pub fn katsura(n: usize) -> PolySystem {
    assert!(n >= 1, "katsura-n needs n ≥ 1");
    let nv = n + 1;
    let mut polys = Vec::with_capacity(nv);
    // Quadratic equations for m = 0..n−1.
    for m in 0..n {
        let mut terms: Vec<(Complex64, Monomial)> = Vec::new();
        for l in -(n as i64)..=(n as i64) {
            let a = l.unsigned_abs() as usize;
            let b = (m as i64 - l).unsigned_abs() as usize;
            if a > n || b > n {
                continue;
            }
            let mut exps = vec![0u32; nv];
            exps[a] += 1;
            exps[b] += 1;
            terms.push((Complex64::ONE, Monomial::from_exps(exps)));
        }
        // … − u_m
        terms.push((Complex64::real(-1.0), Monomial::var(nv, m)));
        polys.push(Poly::from_terms(nv, terms));
    }
    // Linear normalisation: u_0 + 2·Σ_{l=1..n} u_l = 1.
    let mut terms = vec![(Complex64::ONE, Monomial::var(nv, 0))];
    for l in 1..=n {
        terms.push((Complex64::real(2.0), Monomial::var(nv, l)));
    }
    terms.push((Complex64::real(-1.0), Monomial::one(nv)));
    polys.push(Poly::from_terms(nv, terms));
    PolySystem::new(polys)
}

/// The Noonburg neural-network system noon-n:
///
/// ```text
/// f_i = x_i·Σ_{j≠i} x_j² − 1.1·x_i + 1.
/// ```
///
/// Dense cubic structure; a classic divergence-heavy workload.
///
/// # Panics
/// Panics for `n < 2`.
pub fn noon(n: usize) -> PolySystem {
    assert!(n >= 2, "noon-n needs n ≥ 2");
    let mut polys = Vec::with_capacity(n);
    for i in 0..n {
        let mut terms: Vec<(Complex64, Monomial)> = Vec::new();
        for j in 0..n {
            if j == i {
                continue;
            }
            let mut exps = vec![0u32; n];
            exps[i] += 1;
            exps[j] += 2;
            terms.push((Complex64::ONE, Monomial::from_exps(exps)));
        }
        terms.push((Complex64::real(-1.1), Monomial::var(n, i)));
        terms.push((Complex64::ONE, Monomial::one(n)));
        polys.push(Poly::from_terms(n, terms));
    }
    PolySystem::new(polys)
}

/// The eco-n economics system (as distributed with PHCpack):
///
/// ```text
/// f_k = (x_k + Σ_{i=1}^{n−k−1} x_i·x_{i+k})·x_n − k ,   k = 1..n−1,
/// f_n = x_1 + x_2 + … + x_{n−1} + 1 .
/// ```
///
/// A sparse, deficient family: the total degree (3^{n−2}·2) far exceeds
/// the root count, so total-degree homotopies send most paths to
/// infinity — another load-imbalance workload in the spirit of
/// Section II.
///
/// # Panics
/// Panics for `n < 3`.
pub fn eco(n: usize) -> PolySystem {
    assert!(n >= 3, "eco-n needs n ≥ 3");
    let mut polys = Vec::with_capacity(n);
    for k in 1..n {
        // (x_k + Σ x_i x_{i+k}) x_n − k
        let mut terms: Vec<(Complex64, Monomial)> = Vec::new();
        let mut xk_xn = vec![0u32; n];
        xk_xn[k - 1] += 1;
        xk_xn[n - 1] += 1;
        terms.push((Complex64::ONE, Monomial::from_exps(xk_xn)));
        for i in 1..n - k {
            let mut exps = vec![0u32; n];
            exps[i - 1] += 1;
            exps[i + k - 1] += 1;
            exps[n - 1] += 1;
            terms.push((Complex64::ONE, Monomial::from_exps(exps)));
        }
        terms.push((Complex64::real(-(k as f64)), Monomial::one(n)));
        polys.push(Poly::from_terms(n, terms));
    }
    let mut terms: Vec<(Complex64, Monomial)> = (0..n - 1)
        .map(|i| (Complex64::ONE, Monomial::var(n, i)))
        .collect();
    terms.push((Complex64::ONE, Monomial::one(n)));
    polys.push(Poly::from_terms(n, terms));
    PolySystem::new(polys)
}

/// A generic bilinear system: `2k` equations in `2k` variables split into
/// groups `x_0..x_{k−1}` and `y_0..y_{k−1}`, each equation of the form
///
/// ```text
/// a + Σ bᵢ·xᵢ + Σ cⱼ·yⱼ + Σᵢⱼ dᵢⱼ·xᵢ·yⱼ ,
/// ```
///
/// with generic random coefficients.
///
/// Its multihomogeneous Bézout number is `C(2k, k)`, far below its total
/// degree `2^{2k}` — so a total-degree homotopy has a large fraction of
/// divergent paths of near-uniform cost. That is precisely the workload
/// statistics of the RPS mechanism system of Table II (9,216 paths, 8,192
/// divergent), whose explicit equations are not published — so this
/// family stands in for it wherever the RPS workload is measured.
pub fn bilinear_system<R: Rng + ?Sized>(k: usize, rng: &mut R) -> PolySystem {
    assert!(k >= 1, "bilinear system needs k ≥ 1");
    let nv = 2 * k;
    let mut polys = Vec::with_capacity(nv);
    for _ in 0..nv {
        let mut terms: Vec<(Complex64, Monomial)> = vec![(random_complex(rng), Monomial::one(nv))];
        for i in 0..k {
            terms.push((random_complex(rng), Monomial::var(nv, i)));
            terms.push((random_complex(rng), Monomial::var(nv, k + i)));
        }
        for i in 0..k {
            for j in 0..k {
                let mut exps = vec![0u32; nv];
                exps[i] = 1;
                exps[k + j] = 1;
                terms.push((random_complex(rng), Monomial::from_exps(exps)));
            }
        }
        polys.push(Poly::from_terms(nv, terms));
    }
    PolySystem::new(polys)
}

/// Multihomogeneous Bézout number of [`bilinear_system`]: `C(2k, k)` —
/// the number of finite solutions of the generic bilinear system.
pub fn bilinear_root_count(k: usize) -> u128 {
    binomial(2 * k as u128, k as u128)
}

fn binomial(n: u128, k: u128) -> u128 {
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc * (n - i) / (i + 1);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use pieri_num::seeded_rng;

    #[test]
    fn cyclic_shapes_and_degrees() {
        for n in 2..=8 {
            let s = cyclic(n);
            assert_eq!(s.len(), n);
            assert_eq!(s.nvars(), n);
            let degs = s.degrees();
            for k in 1..n {
                assert_eq!(degs[k - 1], k as u32, "cyclic-{n} eq {k}");
            }
            assert_eq!(degs[n - 1], n as u32);
        }
    }

    #[test]
    fn cyclic_total_degree_is_factorial() {
        assert_eq!(cyclic(5).total_degree(), 120);
        assert_eq!(cyclic(6).total_degree(), 720);
        assert_eq!(cyclic(7).total_degree(), 5040);
    }

    #[test]
    fn cyclic_known_point_is_root_for_n3() {
        // For cyclic-3, (ω, ω, ω) with ω a primitive cube root of unity:
        // f1 = 3ω ≠ 0 … so instead verify the defining symmetry: evaluating
        // at a permutation of a root stays a root. Use a directly checked
        // root of cyclic-2: {x+y, xy−1} has roots (±i, ∓i)… cyclic-2:
        // f1 = x+y, f2 = xy−1 → x=i, y=−i works.
        let s = cyclic(2);
        let r = [Complex64::I, -Complex64::I];
        assert!(s.residual(&r) < 1e-12);
    }

    #[test]
    fn katsura_shapes() {
        for n in 1..=5 {
            let s = katsura(n);
            assert_eq!(s.len(), n + 1);
            assert_eq!(s.nvars(), n + 1);
            // n quadrics and one linear equation.
            let degs = s.degrees();
            assert_eq!(degs.iter().filter(|&&d| d == 2).count(), n);
            assert_eq!(degs.iter().filter(|&&d| d == 1).count(), 1);
            assert_eq!(s.total_degree(), 1 << n);
        }
    }

    #[test]
    fn katsura_known_trivial_root() {
        // u_0 = 1, u_1 = … = u_n = 0 satisfies katsura-n:
        // quadratic m=0: u_0² = u_0 ✓; m>0: 2·u_0·u_m = u_m → 0 = 0 ✓;
        // linear: u_0 = 1 ✓.
        for n in 1..=4 {
            let s = katsura(n);
            let mut x = vec![Complex64::ZERO; n + 1];
            x[0] = Complex64::ONE;
            assert!(s.residual(&x) < 1e-12, "katsura-{n}");
        }
    }

    #[test]
    fn noon_shape_and_degree() {
        let s = noon(3);
        assert_eq!(s.len(), 3);
        assert_eq!(s.total_degree(), 27);
        assert_eq!(s.degrees(), vec![3, 3, 3]);
    }

    #[test]
    fn eco_shapes_and_known_structure() {
        for n in 3..=6 {
            let s = eco(n);
            assert_eq!(s.len(), n);
            assert_eq!(s.nvars(), n);
            let degs = s.degrees();
            // f_{n−1} = x_{n−1}·x_n − (n−1) has degree 2; earlier ones 3.
            assert_eq!(degs[n - 2], 2, "eco-{n}");
            assert_eq!(*degs.last().unwrap(), 1);
            if n >= 4 {
                assert_eq!(degs[0], 3);
            }
        }
    }

    #[test]
    fn eco_4_known_root() {
        // eco-4 has a root with x4 determined by the linear relation; spot
        // check that the generator produces consistent equations by
        // verifying the residual structure at a solved point via Newton.
        let s = eco(4);
        // f3 = x3·x4 − 3, f4 = x1+x2+x3+1.
        // Choose x1 = x2 = t, x3 = −1−2t and solve the remaining two
        // numerically — here we only check the evaluation structure:
        let x = [
            Complex64::real(1.0),
            Complex64::real(1.0),
            Complex64::real(-3.0),
            Complex64::real(-1.0),
        ];
        let vals = s.eval(&x);
        // f4 = 1 + 1 − 3 + 1 = 0.
        assert!(vals[3].norm() < 1e-12);
        // f3 = x3·x4 − 3 = 3 − 3 = 0.
        assert!(vals[2].norm() < 1e-12);
    }

    #[test]
    fn bilinear_shape_and_counts() {
        let mut rng = seeded_rng(200);
        let s = bilinear_system(2, &mut rng);
        assert_eq!(s.len(), 4);
        assert_eq!(s.nvars(), 4);
        assert_eq!(s.total_degree(), 16);
        assert_eq!(bilinear_root_count(2), 6);
        assert_eq!(bilinear_root_count(5), 252);
        // Degrees are all 2 but no x·x or y·y monomials appear.
        for p in s.polys() {
            assert_eq!(p.degree(), 2);
            for (_, m) in p.terms() {
                let xdeg: u32 = (0..2).map(|i| m.exp(i)).sum();
                let ydeg: u32 = (2..4).map(|i| m.exp(i)).sum();
                assert!(xdeg <= 1 && ydeg <= 1, "monomial {m:?} is not bilinear");
            }
        }
    }

    #[test]
    fn binomial_small_values() {
        assert_eq!(binomial(4, 2), 6);
        assert_eq!(binomial(10, 5), 252);
        assert_eq!(binomial(20, 10), 184_756);
    }
}
