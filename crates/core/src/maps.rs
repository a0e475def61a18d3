//! Solution maps: the polynomial `p`-plane maps produced by the solver.

use crate::eval::CoeffLayout;
use crate::pattern::Pattern;
use crate::problem::PieriProblem;
use pieri_linalg::{det, CMat};
use pieri_num::Complex64;
use pieri_poly::MatrixPoly;

/// A degree-`q` polynomial map `X(s)` of `p`-planes in ℂ^{m+p}, stored as
/// its coefficient matrices (the dehomogenised output of a Pieri solve).
///
/// For the pole-placement application the top `p × p` block is the
/// denominator data and the bottom `m × p` block the numerator data of
/// the compensator (see `pieri-control`).
#[derive(Debug, Clone)]
pub struct PMap {
    /// Coefficient matrices, degree 0 first; each `(m+p) × p`.
    coeffs: Vec<CMat>,
}

impl PMap {
    /// Builds the map from a pattern and its coefficient vector.
    pub fn from_coeffs(pattern: &Pattern, x: &[Complex64]) -> Self {
        let shape = pattern.shape();
        let layout = CoeffLayout::new(pattern);
        debug_assert_eq!(x.len(), layout.dim());
        let big_n = shape.big_n();
        let mut coeffs = vec![CMat::zeros(big_n, shape.p()); shape.q() + 1];
        // Top pivots: concat row j+1, block 0.
        for j in 0..shape.p() {
            coeffs[0][(j, j)] = Complex64::ONE;
        }
        for (k, &(r, j)) in layout.slots().iter().enumerate() {
            let d = (r - 1) / big_n;
            let phys = (r - 1) % big_n;
            coeffs[d][(phys, j)] = x[k];
        }
        PMap { coeffs }
    }

    /// Builds a map directly from coefficient matrices (degree 0 first).
    ///
    /// # Panics
    /// Panics when `coeffs` is empty or shapes disagree.
    pub fn from_coeff_matrices(coeffs: Vec<CMat>) -> Self {
        let first = coeffs.first().expect("at least the degree-0 coefficient");
        let (rows, cols) = (first.rows(), first.cols());
        assert!(
            coeffs.iter().all(|c| c.rows() == rows && c.cols() == cols),
            "coefficient matrices must share a shape"
        );
        PMap { coeffs }
    }

    /// Applies a coordinate change of ℂ^{m+p}: returns `T·X(s)`.
    ///
    /// Used to solve structured (non-generic) problems in general
    /// position: rotate the input planes by `T`, solve, and rotate the
    /// solution maps back by `T⁻¹`.
    pub fn transform(&self, t: &CMat) -> PMap {
        PMap {
            coeffs: self.coeffs.iter().map(|c| t * c).collect(),
        }
    }

    /// Coefficient matrices (degree 0 first).
    pub fn coeffs(&self) -> &[CMat] {
        &self.coeffs
    }

    /// Evaluates `X(s)` (dehomogenised, `u = 1`).
    pub fn eval(&self, s: Complex64) -> CMat {
        let mut acc = self.coeffs.last().expect("q+1 ≥ 1 coefficients").clone();
        for d in (0..self.coeffs.len() - 1).rev() {
            acc = acc.scale(s);
            acc = &acc + &self.coeffs[d];
        }
        acc
    }

    /// The map as a polynomial matrix.
    pub fn to_matrix_poly(&self) -> MatrixPoly {
        MatrixPoly::new(self.coeffs.clone())
    }

    /// Residual of intersection condition `i`:
    /// `|det [X(s_i) | L_i]|`, normalised by the condition matrix scale.
    pub fn condition_residual(&self, problem: &PieriProblem, i: usize) -> f64 {
        let a = self.eval(problem.point(i)).hstack(problem.plane(i));
        let scale = a.fro_norm().max(1.0).powi(a.rows() as i32);
        det(&a).norm() / scale
    }

    /// Largest normalised residual over all `n` intersection conditions —
    /// the verification number reported by EXPERIMENTS.md.
    pub fn max_residual(&self, problem: &PieriProblem) -> f64 {
        (0..problem.shape().conditions())
            .map(|i| self.condition_residual(problem, i))
            .fold(0.0, f64::max)
    }

    /// Distance between two maps' coefficient vectors (∞-norm over all
    /// coefficient entries) — used to check solution distinctness.
    pub fn dist(&self, other: &PMap) -> f64 {
        self.coeffs
            .iter()
            .zip(other.coeffs.iter())
            .map(|(a, b)| (a - b).max_norm())
            .fold(0.0, f64::max)
    }
}

/// Smallest [`PMap::dist`] between two of `maps` (0 when there are fewer
/// than two).
pub(crate) fn min_pairwise_distance(maps: &[PMap]) -> f64 {
    let mut min = f64::INFINITY;
    for i in 0..maps.len() {
        for j in 0..i {
            min = min.min(maps[i].dist(&maps[j]));
        }
    }
    if min.is_finite() {
        min
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Shape;
    use pieri_num::{random_complex, seeded_rng};

    #[test]
    fn from_coeffs_roundtrips_through_layout_eval() {
        let mut rng = seeded_rng(330);
        for &(m, p, q) in &[(2, 2, 0), (2, 2, 1), (3, 2, 1)] {
            let shape = Shape::new(m, p, q);
            let root = shape.root();
            let layout = CoeffLayout::new(&root);
            let x: Vec<Complex64> = (0..layout.dim())
                .map(|_| random_complex(&mut rng))
                .collect();
            let pmap = PMap::from_coeffs(&root, &x);
            let s = random_complex(&mut rng);
            let a = pmap.eval(s);
            let b = layout.eval_map(&x, s, Complex64::ONE);
            assert!((&a - &b).fro_norm() < 1e-12, "({m},{p},{q})");
        }
    }

    #[test]
    fn matrix_poly_conversion_agrees() {
        let mut rng = seeded_rng(331);
        let shape = Shape::new(2, 2, 1);
        let root = shape.root();
        let layout = CoeffLayout::new(&root);
        let x: Vec<Complex64> = (0..layout.dim())
            .map(|_| random_complex(&mut rng))
            .collect();
        let pmap = PMap::from_coeffs(&root, &x);
        let mp = pmap.to_matrix_poly();
        let s = random_complex(&mut rng);
        assert!((&pmap.eval(s) - &mp.eval(s)).fro_norm() < 1e-12);
    }

    #[test]
    fn residual_is_large_for_random_nonsolutions() {
        let mut rng = seeded_rng(332);
        let shape = Shape::new(2, 2, 0);
        let prob = PieriProblem::random(shape.clone(), &mut rng);
        let root = shape.root();
        let x: Vec<Complex64> = (0..4).map(|_| random_complex(&mut rng)).collect();
        let pmap = PMap::from_coeffs(&root, &x);
        assert!(pmap.max_residual(&prob) > 1e-6);
    }

    #[test]
    fn dist_of_identical_maps_is_zero() {
        let mut rng = seeded_rng(333);
        let shape = Shape::new(2, 2, 1);
        let root = shape.root();
        let x: Vec<Complex64> = (0..8).map(|_| random_complex(&mut rng)).collect();
        let a = PMap::from_coeffs(&root, &x);
        let b = PMap::from_coeffs(&root, &x);
        assert_eq!(a.dist(&b), 0.0);
        let mut y = x.clone();
        y[3] += Complex64::ONE;
        let cmap = PMap::from_coeffs(&root, &y);
        assert!(a.dist(&cmap) > 0.5);
    }
}
