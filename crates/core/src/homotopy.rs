//! The Pieri homotopy — equation (3) of the paper.
//!
//! At a node with pattern `b` of rank `k`, the homotopy deforms the
//! special plane `M_F` of the pattern into the `k`-th input plane `L_k`
//! while the homogenised interpolation point moves from `(1, 0)` (i.e.
//! `s = ∞`, where the map meets `M_F`) to `(s_k, 1)`:
//!
//! ```text
//! det [ X(s_i, 1) | L_i ] = 0            i = 1 .. k−1   (fixed)
//! det [ X(ŝ(t), û(t)) | M(t) ] = 0                      (moving)
//!
//! M(t)        = (1−t)·γ·M_F + t·L_k
//! (ŝ, û)(t)   = ((1−t) + t·s_k ,  t)
//! ```
//!
//! `M_F` is spanned by the standard basis vectors complementary to the
//! bottom-pivot residues, so `det [X(1,0) | M_F] = ± ∏_j x_{b_j,j}`: a map
//! meets `M_F` at infinity exactly when one of its bottom pivot entries
//! vanishes — which is how the child solutions (decremented pivot = zero
//! entry) become the start solutions at `t = 0`.
//!
//! Residuals are determinants evaluated by LU; gradients contract the
//! cofactor matrix (Jacobi's formula) against the sparse `∂A/∂x` — one
//! unknown touches exactly one entry of one condition matrix.

use crate::eval::CoeffLayout;
use crate::pattern::Pattern;
use crate::problem::PieriProblem;
use crate::scratch::CondScratch;
use pieri_linalg::{det, det_gradient, CMat};
use pieri_num::Complex64;
use pieri_tracker::{Homotopy, HomotopyScratch};

/// The special plane `M_F` of a pattern: the `m` standard basis vectors of
/// ℂ^{m+p} avoiding the bottom-pivot residues (which are pairwise distinct
/// for valid patterns).
pub fn special_plane(pattern: &Pattern) -> CMat {
    let shape = pattern.shape();
    let big_n = shape.big_n();
    let residues: Vec<usize> = (0..shape.p())
        .map(|j| pattern.pivot_residue(j) - 1)
        .collect();
    let mut cols: Vec<usize> = (0..big_n).filter(|i| !residues.contains(i)).collect();
    cols.truncate(shape.m());
    debug_assert_eq!(cols.len(), shape.m(), "residues are distinct");
    CMat::from_fn(big_n, shape.m(), |i, j| {
        if i == cols[j] {
            Complex64::ONE
        } else {
            Complex64::ZERO
        }
    })
}

/// One Pieri homotopy instance: the square system whose tracking moves a
/// child solution (rank `k−1`) to a solution of rank `k`.
///
/// Everything that does not depend on `(x, t)` is hoisted into the
/// constructor: the fixed conditions' homogenisation weights (their
/// interpolation points never move, so the `powi` ladders are computed
/// once), and the moving plane's derivative `dM/dt = L_k − γ·M_F`.
pub struct PieriHomotopy {
    layout: CoeffLayout,
    /// Fixed conditions `(L_i, s_i)`, `i = 0..k−1` (0-indexed).
    fixed: Vec<(CMat, Complex64)>,
    /// The moving target plane `L_k`.
    target_plane: CMat,
    /// The moving interpolation point target `s_k`.
    target_point: Complex64,
    /// `γ·M_F` (gamma premultiplied).
    gamma_special: CMat,
    /// `dM/dt = L_k − γ·M_F` (loop-invariant of `dt`).
    dm: CMat,
    /// Per fixed condition: slot weights at `(s_i, 1)`.
    fixed_slot_w: Vec<Vec<Complex64>>,
    /// Per fixed condition: top-pivot weights at `(s_i, 1)`.
    fixed_top_w: Vec<Vec<Complex64>>,
}

impl PieriHomotopy {
    /// Builds the homotopy for `pattern` (of rank `k ≥ 1`) using the first
    /// `k` planes/points of `problem`.
    ///
    /// # Panics
    /// Panics for the trivial pattern (nothing to solve).
    pub fn new(problem: &PieriProblem, pattern: &Pattern) -> Self {
        let k = pattern.rank();
        assert!(k >= 1, "trivial pattern has no homotopy");
        let layout = CoeffLayout::new(pattern);
        let fixed: Vec<(CMat, Complex64)> = (0..k - 1)
            .map(|i| (problem.plane(i).clone(), problem.point(i)))
            .collect();
        let gamma_special = special_plane(pattern).scale(problem.gamma());
        let target_plane = problem.plane(k - 1).clone();
        let dm = &target_plane - &gamma_special;
        let p = pattern.shape().p();
        let mut fixed_slot_w = Vec::with_capacity(fixed.len());
        let mut fixed_top_w = Vec::with_capacity(fixed.len());
        for (_, s) in &fixed {
            let mut sw = vec![Complex64::ZERO; layout.dim()];
            let mut tw = vec![Complex64::ZERO; p];
            layout.weights_into(*s, Complex64::ONE, &mut sw, &mut tw);
            fixed_slot_w.push(sw);
            fixed_top_w.push(tw);
        }
        PieriHomotopy {
            layout,
            fixed,
            target_plane,
            target_point: problem.point(k - 1),
            gamma_special,
            dm,
            fixed_slot_w,
            fixed_top_w,
        }
    }

    /// The pattern being solved.
    pub fn pattern(&self) -> &Pattern {
        self.layout.pattern()
    }

    /// The coefficient layout (for embedding child solutions).
    pub fn layout(&self) -> &CoeffLayout {
        &self.layout
    }

    /// Moving point `ŝ(t) = (1−t) + t·s_k` and its derivative.
    #[inline]
    fn moving_point(&self, t: f64) -> (Complex64, Complex64) {
        let s = Complex64::real(1.0 - t) + self.target_point.scale(t);
        (s, Complex64::real(t))
    }

    /// Moving plane `M(t) = (1−t)·γ·M_F + t·L_k`.
    fn moving_plane(&self, t: f64) -> CMat {
        let a = self.gamma_special.scale(Complex64::real(1.0 - t));
        let b = self.target_plane.scale(Complex64::real(t));
        &a + &b
    }

    /// Condition matrix `[X(s,u) | L]`.
    fn condition_matrix(&self, x: &[Complex64], s: Complex64, u: Complex64, plane: &CMat) -> CMat {
        self.layout.eval_map(x, s, u).hstack(plane)
    }

    /// Writes fixed condition `i`'s matrix `[X(s_i, 1) | L_i]` into
    /// `cond` using the precomputed weights — no allocation, no `powi`.
    fn build_fixed_cond(&self, i: usize, x: &[Complex64], cond: &mut CMat) {
        let shape = self.layout.pattern().shape();
        let (n, p, m) = (shape.big_n(), shape.p(), shape.m());
        let plane = self.fixed[i].0.as_slice().chunks_exact(m);
        for (row, plane_row) in cond.as_mut_slice().chunks_exact_mut(n).zip(plane) {
            row[p..].copy_from_slice(plane_row);
        }
        self.layout
            .eval_map_weighted_into(x, &self.fixed_slot_w[i], &self.fixed_top_w[i], cond);
    }

    /// Writes the moving condition matrix `[X(ŝ, û) | M(t)]` into `cond`:
    /// the moving plane `M(t) = (1−t)·γ·M_F + t·L_k` is scale-added
    /// directly into the plane block (no intermediate matrices) and the
    /// moving weights land in the scratch buffers for the caller's
    /// Jacobian row.
    #[allow(clippy::too_many_arguments)] // scratch buffers are split borrows
    fn build_moving_cond(
        &self,
        x: &[Complex64],
        t: f64,
        s: Complex64,
        u: Complex64,
        slot_w: &mut [Complex64],
        top_w: &mut [Complex64],
        cond: &mut CMat,
    ) {
        let shape = self.layout.pattern().shape();
        let (n, p, m) = (shape.big_n(), shape.p(), shape.m());
        let a = Complex64::real(1.0 - t);
        let b = Complex64::real(t);
        let planes = self
            .gamma_special
            .as_slice()
            .chunks_exact(m)
            .zip(self.target_plane.as_slice().chunks_exact(m));
        for (row, (gs, tp)) in cond.as_mut_slice().chunks_exact_mut(n).zip(planes) {
            for ((e, &g), &l) in row[p..].iter_mut().zip(gs).zip(tp) {
                *e = g * a + l * b;
            }
        }
        self.layout.weights_into(s, u, slot_w, top_w);
        self.layout.eval_map_weighted_into(x, slot_w, top_w, cond);
    }
}

impl Homotopy for PieriHomotopy {
    fn dim(&self) -> usize {
        self.layout.dim()
    }

    /// Pieri homotopies are optimal: for generic planes and points every
    /// path ends at a regular solution of the next level.
    fn regular_endpoints(&self) -> bool {
        true
    }

    fn eval(&self, x: &[Complex64], t: f64, out: &mut [Complex64]) {
        debug_assert_eq!(out.len(), self.dim());
        for (i, (plane, s)) in self.fixed.iter().enumerate() {
            out[i] = det(&self.condition_matrix(x, *s, Complex64::ONE, plane));
        }
        let (s, u) = self.moving_point(t);
        let m = self.moving_plane(t);
        out[self.dim() - 1] = det(&self.condition_matrix(x, s, u, &m));
    }

    fn jacobian_x(&self, x: &[Complex64], t: f64, out: &mut CMat) {
        let k = self.dim();
        debug_assert_eq!((out.rows(), out.cols()), (k, k));
        // Row for each fixed condition.
        for (i, (plane, si)) in self.fixed.iter().enumerate() {
            let a = self.condition_matrix(x, *si, Complex64::ONE, plane);
            let cof = det_gradient(&a);
            for slot in 0..k {
                let w = self.layout.weight(slot, *si, Complex64::ONE);
                out[(i, slot)] = cof[(self.layout.phys_row(slot), self.layout.col(slot))] * w;
            }
        }
        // Moving condition row.
        let (s, u) = self.moving_point(t);
        let m = self.moving_plane(t);
        let a = self.condition_matrix(x, s, u, &m);
        let cof = det_gradient(&a);
        for slot in 0..k {
            let w = self.layout.weight(slot, s, u);
            out[(k - 1, slot)] = cof[(self.layout.phys_row(slot), self.layout.col(slot))] * w;
        }
    }

    fn dt(&self, x: &[Complex64], t: f64, out: &mut [Complex64]) {
        let k = self.dim();
        debug_assert_eq!(out.len(), k);
        // Fixed conditions do not depend on t.
        for o in out.iter_mut().take(k - 1) {
            *o = Complex64::ZERO;
        }
        let (s, u) = self.moving_point(t);
        let ds = self.target_point - Complex64::ONE; // dŝ/dt
        let du = Complex64::ONE; // dû/dt
        let m = self.moving_plane(t);
        let a = self.condition_matrix(x, s, u, &m);
        let cof = det_gradient(&a);
        let shape = self.layout.pattern().shape();
        let p = shape.p();
        let mut acc = Complex64::ZERO;
        // d/dt of the X block: top pivots and slots.
        for j in 0..p {
            let wdt = self.layout.top_pivot_weight_dt(j, s, u, du);
            if wdt != Complex64::ZERO {
                acc += cof[(j, j)] * wdt;
            }
        }
        for slot in 0..k {
            if x[slot] == Complex64::ZERO {
                continue;
            }
            let wdt = self.layout.weight_dt(slot, s, u, ds, du);
            if wdt != Complex64::ZERO {
                acc += cof[(self.layout.phys_row(slot), self.layout.col(slot))] * x[slot] * wdt;
            }
        }
        // d/dt of the moving plane block: dM/dt = L_k − γM_F,
        // precomputed at construction.
        for i in 0..shape.big_n() {
            for c in 0..shape.m() {
                let v = self.dm[(i, c)];
                if v != Complex64::ZERO {
                    acc += cof[(i, p + c)] * v;
                }
            }
        }
        out[k - 1] = acc;
    }

    fn eval_and_jacobian(
        &self,
        x: &[Complex64],
        t: f64,
        fx: &mut [Complex64],
        jac: &mut CMat,
        scratch: &mut HomotopyScratch,
    ) {
        let k = self.dim();
        debug_assert_eq!(fx.len(), k);
        debug_assert_eq!((jac.rows(), jac.cols()), (k, k));
        let shape = self.layout.pattern().shape();
        let sc = scratch.get_or_insert_with(CondScratch::new);
        sc.ensure(shape.big_n(), k, shape.p());
        let p = shape.p();
        // Fixed conditions: one matrix build, one factorisation each —
        // the determinant is the residual entry, the cofactor entries
        // contracted with the precomputed weights are the Jacobian row.
        // Only the p X-block cofactor columns are ever read here.
        for i in 0..self.fixed.len() {
            self.build_fixed_cond(i, x, &mut sc.cond);
            fx[i] = sc
                .engine
                .det_and_cofactor_cols_into(&sc.cond, &mut sc.cof, p);
            self.layout
                .contract_row(&sc.cof, &self.fixed_slot_w[i], jac.row_mut(i));
        }
        // Moving condition.
        let (s, u) = self.moving_point(t);
        self.build_moving_cond(x, t, s, u, &mut sc.slot_w, &mut sc.top_w, &mut sc.cond);
        fx[k - 1] = sc
            .engine
            .det_and_cofactor_cols_into(&sc.cond, &mut sc.cof, p);
        self.layout
            .contract_row(&sc.cof, &sc.slot_w, jac.row_mut(k - 1));
    }

    fn jacobian_and_dt(
        &self,
        x: &[Complex64],
        t: f64,
        jac: &mut CMat,
        ht: &mut [Complex64],
        scratch: &mut HomotopyScratch,
    ) {
        let k = self.dim();
        debug_assert_eq!(ht.len(), k);
        debug_assert_eq!((jac.rows(), jac.cols()), (k, k));
        let shape = self.layout.pattern().shape();
        let p = shape.p();
        let sc = scratch.get_or_insert_with(CondScratch::new);
        sc.ensure(shape.big_n(), k, p);
        // Fixed conditions do not depend on t: Jacobian rows only, which
        // read the p X-block cofactor columns and no determinant.
        for i in 0..self.fixed.len() {
            self.build_fixed_cond(i, x, &mut sc.cond);
            sc.engine.cofactor_cols_into(&sc.cond, &mut sc.cof, p);
            self.layout
                .contract_row(&sc.cof, &self.fixed_slot_w[i], jac.row_mut(i));
            ht[i] = Complex64::ZERO;
        }
        // Moving condition: the same cofactor matrix feeds both the
        // Jacobian row and the ∂H/∂t contraction, which reads every
        // column.
        let (s, u) = self.moving_point(t);
        self.build_moving_cond(x, t, s, u, &mut sc.slot_w, &mut sc.top_w, &mut sc.cond);
        let n = shape.big_n();
        sc.engine.cofactor_cols_into(&sc.cond, &mut sc.cof, n);
        self.layout
            .contract_row(&sc.cof, &sc.slot_w, jac.row_mut(k - 1));
        let cof = sc.cof.as_slice();
        let ds = self.target_point - Complex64::ONE; // dŝ/dt
        let du = Complex64::ONE; // dû/dt
        let mut acc = Complex64::ZERO;
        for j in 0..p {
            let wdt = self.layout.top_pivot_weight_dt(j, s, u, du);
            if wdt != Complex64::ZERO {
                acc += cof[j * n + j] * wdt;
            }
        }
        for (slot, (&xs, &off)) in x.iter().zip(self.layout.offsets()).enumerate() {
            if xs == Complex64::ZERO {
                continue;
            }
            let wdt = self.layout.weight_dt(slot, s, u, ds, du);
            if wdt != Complex64::ZERO {
                acc += cof[off] * xs * wdt;
            }
        }
        let dm = self.dm.as_slice().chunks_exact(shape.m());
        for (cof_row, dm_row) in cof.chunks_exact(n).zip(dm) {
            for (&cf, &v) in cof_row[p..].iter().zip(dm_row) {
                if v != Complex64::ZERO {
                    acc += cf * v;
                }
            }
        }
        ht[k - 1] = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Shape;
    use pieri_num::{random_complex, seeded_rng};

    #[test]
    fn special_plane_complements_residues() {
        let shape = Shape::new(2, 2, 1);
        let root = shape.root(); // residues 4, 3
        let m = special_plane(&root);
        assert_eq!((m.rows(), m.cols()), (4, 2));
        // Columns must be e_1, e_2 (0-indexed rows 0 and 1).
        assert_eq!(m[(0, 0)], Complex64::ONE);
        assert_eq!(m[(1, 1)], Complex64::ONE);
        assert_eq!(m[(2, 0)], Complex64::ZERO);
        assert_eq!(m[(3, 1)], Complex64::ZERO);
    }

    #[test]
    fn det_with_special_plane_is_product_of_pivots() {
        // det [X(1,0) | M_F] = ± ∏ pivot entries: zeroing one pivot makes
        // it vanish, generic pivots keep it nonzero.
        let mut rng = seeded_rng(320);
        for &(m, p, q) in &[(2, 2, 1), (3, 2, 1), (2, 2, 2), (3, 3, 1)] {
            let shape = Shape::new(m, p, q);
            let root = shape.root();
            let layout = CoeffLayout::new(&root);
            let mf = special_plane(&root);
            let x: Vec<Complex64> = (0..layout.dim())
                .map(|_| random_complex(&mut rng))
                .collect();
            let a = layout
                .eval_map(&x, Complex64::ONE, Complex64::ZERO)
                .hstack(&mf);
            let d = det(&a);
            assert!(d.norm() > 1e-10, "generic pivots: det ≠ 0 ({m},{p},{q})");
            // Zero the pivot of the last column.
            let pivot_row = root.pivots()[p - 1];
            let slot = layout
                .slots()
                .iter()
                .position(|&(r, j)| r == pivot_row && j == p - 1)
                .unwrap();
            let mut x0 = x.clone();
            x0[slot] = Complex64::ZERO;
            let a0 = layout
                .eval_map(&x0, Complex64::ONE, Complex64::ZERO)
                .hstack(&mf);
            assert!(
                det(&a0).norm() < 1e-12,
                "zeroed pivot: det = 0 ({m},{p},{q})"
            );
        }
    }

    #[test]
    fn homotopy_dims_match_rank() {
        let mut rng = seeded_rng(321);
        let shape = Shape::new(2, 2, 1);
        let prob = PieriProblem::random(shape.clone(), &mut rng);
        let root = shape.root();
        let h = PieriHomotopy::new(&prob, &root);
        assert_eq!(h.dim(), 8);
    }

    #[test]
    fn jacobian_matches_finite_differences() {
        let mut rng = seeded_rng(322);
        let shape = Shape::new(2, 2, 1);
        let prob = PieriProblem::random(shape.clone(), &mut rng);
        let root = shape.root();
        let h = PieriHomotopy::new(&prob, &root);
        let k = h.dim();
        let x: Vec<Complex64> = (0..k).map(|_| random_complex(&mut rng)).collect();
        let t = 0.37;
        let mut jac = CMat::zeros(k, k);
        h.jacobian_x(&x, t, &mut jac);
        let mut f0 = vec![Complex64::ZERO; k];
        h.eval(&x, t, &mut f0);
        let step = 1e-7;
        for col in 0..k {
            let mut xp = x.clone();
            xp[col] += Complex64::real(step);
            let mut f1 = vec![Complex64::ZERO; k];
            h.eval(&xp, t, &mut f1);
            for row in 0..k {
                let fd = (f1[row] - f0[row]) / step;
                assert!(
                    fd.dist(jac[(row, col)]) < 1e-5 * (1.0 + jac[(row, col)].norm()),
                    "J[{row},{col}]: fd={fd:?} an={:?}",
                    jac[(row, col)]
                );
            }
        }
    }

    #[test]
    fn dt_matches_finite_differences() {
        let mut rng = seeded_rng(323);
        for &(m, p, q) in &[(2, 2, 0), (2, 2, 1), (3, 2, 1)] {
            let shape = Shape::new(m, p, q);
            let prob = PieriProblem::random(shape.clone(), &mut rng);
            let root = shape.root();
            let h = PieriHomotopy::new(&prob, &root);
            let k = h.dim();
            let x: Vec<Complex64> = (0..k).map(|_| random_complex(&mut rng)).collect();
            let t = 0.42;
            let mut dt = vec![Complex64::ZERO; k];
            h.dt(&x, t, &mut dt);
            let step = 1e-7;
            let mut fp = vec![Complex64::ZERO; k];
            let mut fm = vec![Complex64::ZERO; k];
            h.eval(&x, t + step, &mut fp);
            h.eval(&x, t - step, &mut fm);
            for row in 0..k {
                let fd = (fp[row] - fm[row]) / (2.0 * step);
                assert!(
                    fd.dist(dt[row]) < 1e-5 * (1.0 + dt[row].norm()),
                    "({m},{p},{q}) row {row}: fd={fd:?} an={:?}",
                    dt[row]
                );
            }
        }
    }

    #[test]
    fn child_embedding_solves_t0_moving_condition() {
        let mut rng = seeded_rng(324);
        let shape = Shape::new(2, 2, 1);
        let prob = PieriProblem::random(shape.clone(), &mut rng);
        let root = shape.root();
        let h = PieriHomotopy::new(&prob, &root);
        // Any vector with the last-column pivot zero satisfies the moving
        // condition at t = 0.
        for child in root.children() {
            let lc = CoeffLayout::new(&child);
            let y: Vec<Complex64> = (0..lc.dim()).map(|_| random_complex(&mut rng)).collect();
            let x0 = h.layout().embed_child(&lc, &y);
            let mut out = vec![Complex64::ZERO; h.dim()];
            h.eval(&x0, 0.0, &mut out);
            assert!(
                out[h.dim() - 1].norm() < 1e-10,
                "moving condition at t=0 for child {child}"
            );
        }
    }
}
