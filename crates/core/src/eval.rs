//! Coefficient layout and homogenised evaluation of localization-pattern
//! maps.
//!
//! A map fitting a pattern with bottom pivots `b` has, in column `j`
//! (0-indexed), free coefficients in concatenated rows `j+2 ..= b_j` plus
//! the normalised top pivot `≡ 1` at row `j+1`. The *homogenised*
//! evaluation at `(s, u)` weights the coefficient at concatenated row `r`
//! by `s^d · u^{d_j − d}` where `d = block(r)` and `d_j = block(b_j)` is
//! the column degree — so `(s, 1)` is the ordinary evaluation of the
//! polynomial map and `(1, 0)` extracts the leading coefficients, the
//! value of the map "at `s = ∞`" where it meets the special plane `M_F`.

use crate::pattern::Pattern;
use pieri_linalg::CMat;
use pieri_num::Complex64;

/// Index layout of a pattern's unknown coefficients.
///
/// Unknowns are ordered column-major: column 0's rows first (top to
/// bottom), then column 1's, etc. The layout also caches per-slot
/// evaluation data (physical row, column, flat offset, degree, column
/// degree).
#[derive(Debug, Clone)]
pub struct CoeffLayout {
    pattern: Pattern,
    /// Per-slot: (concat row 1-indexed, column 0-indexed).
    slots: Vec<(usize, usize)>,
    /// Per-slot physical row (0-indexed) in the (m+p)-row map.
    phys: Vec<usize>,
    /// Per-slot flat offset `phys·(m+p) + col` of the slot's entry in a
    /// row-major `(m+p) × (m+p)` condition matrix `[X | L]`.
    offsets: Vec<usize>,
    /// Per-slot degree `d` (block index of the slot row).
    deg: Vec<usize>,
    /// Per-column degree `d_j` (block index of the bottom pivot).
    col_deg: Vec<usize>,
}

impl CoeffLayout {
    /// Builds the layout for a pattern.
    pub fn new(pattern: &Pattern) -> Self {
        let shape = pattern.shape();
        let big_n = shape.big_n();
        let p = shape.p();
        let mut slots = Vec::with_capacity(pattern.rank());
        let mut phys = Vec::new();
        let mut deg = Vec::new();
        for j in 0..p {
            for r in (j + 2)..=pattern.pivots()[j] {
                slots.push((r, j));
                phys.push((r - 1) % big_n);
                deg.push((r - 1) / big_n);
            }
        }
        let col_deg = (0..p).map(|j| pattern.col_degree(j)).collect();
        let offsets = phys
            .iter()
            .zip(&slots)
            .map(|(&r, &(_, j))| r * big_n + j)
            .collect();
        CoeffLayout {
            pattern: pattern.clone(),
            slots,
            phys,
            offsets,
            deg,
            col_deg,
        }
    }

    /// The pattern this layout belongs to.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Number of unknowns (= pattern rank = conditions satisfied).
    pub fn dim(&self) -> usize {
        self.slots.len()
    }

    /// Per-slot `(concat_row, column)` pairs.
    pub fn slots(&self) -> &[(usize, usize)] {
        &self.slots
    }

    /// Weight `s^d · u^{d_j − d}` of slot `k` at the homogenised point.
    #[inline]
    pub fn weight(&self, k: usize, s: Complex64, u: Complex64) -> Complex64 {
        let d = self.deg[k];
        let dj = self.col_deg[self.slots[k].1];
        s.powi(d as i32) * u.powi((dj - d) as i32)
    }

    /// Derivative of the slot weight along the moving point
    /// `(ŝ(t), û(t))` with `dŝ/dt = ds`, `dû/dt = du`.
    #[inline]
    pub fn weight_dt(
        &self,
        k: usize,
        s: Complex64,
        u: Complex64,
        ds: Complex64,
        du: Complex64,
    ) -> Complex64 {
        let d = self.deg[k] as i32;
        let e = (self.col_deg[self.slots[k].1] - self.deg[k]) as i32;
        let mut acc = Complex64::ZERO;
        if d > 0 {
            acc += s.powi(d - 1).scale(d as f64) * u.powi(e) * ds;
        }
        if e > 0 {
            acc += u.powi(e - 1).scale(e as f64) * s.powi(d) * du;
        }
        acc
    }

    /// Physical (0-indexed) row of slot `k`.
    #[inline]
    pub fn phys_row(&self, k: usize) -> usize {
        self.phys[k]
    }

    /// Per-slot flat offsets `phys·(m+p) + col`: where each unknown sits
    /// in a row-major `(m+p) × (m+p)` condition matrix (or its cofactor
    /// matrix).
    #[inline]
    pub(crate) fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Writes one condition's Jacobian row: `row[k]` is the cofactor of
    /// slot `k`'s entry times the slot weight `weights[k]` (Jacobi's
    /// formula; each unknown touches exactly one entry).
    ///
    /// # Panics
    /// Panics when `cof` is not `(m+p) × (m+p)` or the slices are not
    /// `dim()` long.
    #[inline]
    pub(crate) fn contract_row(&self, cof: &CMat, weights: &[Complex64], row: &mut [Complex64]) {
        let big_n = self.pattern.shape().big_n();
        assert!(
            cof.rows() == big_n && cof.cols() == big_n,
            "contract_row: cofactor shape"
        );
        assert!(
            weights.len() == self.dim() && row.len() == self.dim(),
            "contract_row: slot buffers"
        );
        let cof = cof.as_slice();
        for ((out, &off), &w) in row.iter_mut().zip(&self.offsets).zip(weights) {
            *out = cof[off] * w;
        }
    }

    /// Degree `d` of slot `k` (the block index of its concatenated row):
    /// the slot's weight at a dehomogenised point `(s, 1)` is `s^d`.
    /// Exposed for evaluators that rebuild condition matrices at other
    /// scalar precisions (the double-double refinement layer).
    #[inline]
    pub fn slot_degree(&self, k: usize) -> usize {
        self.deg[k]
    }

    /// Column (0-indexed) of slot `k`.
    #[inline]
    pub fn col(&self, k: usize) -> usize {
        self.slots[k].1
    }

    /// Weight of the (normalised) top pivot of column `j`: the top pivot
    /// sits in block 0, so its weight is `u^{d_j}`.
    #[inline]
    pub fn top_pivot_weight(&self, j: usize, _s: Complex64, u: Complex64) -> Complex64 {
        u.powi(self.col_deg[j] as i32)
    }

    /// Derivative of the top-pivot weight along the moving point.
    #[inline]
    pub fn top_pivot_weight_dt(
        &self,
        j: usize,
        _s: Complex64,
        u: Complex64,
        du: Complex64,
    ) -> Complex64 {
        let e = self.col_deg[j] as i32;
        if e > 0 {
            u.powi(e - 1).scale(e as f64) * du
        } else {
            Complex64::ZERO
        }
    }

    /// Evaluates the map at the homogenised point `(s, u)` as an
    /// `(m+p) × p` matrix.
    pub fn eval_map(&self, x: &[Complex64], s: Complex64, u: Complex64) -> CMat {
        let shape = self.pattern.shape();
        let mut out = CMat::zeros(shape.big_n(), shape.p());
        self.eval_map_into(x, s, u, &mut out);
        out
    }

    /// Evaluates the map at `(s, u)` into the **leading `p` columns** of
    /// `out` (which may be wider — e.g. a full `[X | L]` condition matrix
    /// whose plane block is already in place). Those columns are zeroed
    /// first; nothing else is touched. Produces bitwise the same entries
    /// as [`CoeffLayout::eval_map`], without allocating.
    ///
    /// # Panics
    /// Panics when `out` has fewer than `p` columns or the wrong row
    /// count.
    pub fn eval_map_into(&self, x: &[Complex64], s: Complex64, u: Complex64, out: &mut CMat) {
        debug_assert_eq!(x.len(), self.dim(), "coefficient vector length");
        let shape = self.pattern.shape();
        let (big_n, p) = (shape.big_n(), shape.p());
        assert!(
            out.rows() == big_n && out.cols() >= p,
            "eval_map_into: output shape mismatch"
        );
        for i in 0..big_n {
            for j in 0..p {
                out[(i, j)] = Complex64::ZERO;
            }
        }
        for j in 0..p {
            // Top pivot (concat row j+1, physical row j, block 0).
            out[(j, j)] += self.top_pivot_weight(j, s, u);
        }
        for (k, &xk) in x.iter().enumerate() {
            if xk != Complex64::ZERO {
                out[(self.phys[k], self.slots[k].1)] += xk * self.weight(k, s, u);
            }
        }
    }

    /// Fills `slot_w[k] = weight(k, s, u)` and `top_w[j]` with the
    /// top-pivot weights — the hoisted form of the per-slot `powi` calls,
    /// producing bitwise the values [`CoeffLayout::eval_map`] would
    /// compute inline. For *fixed* interpolation points the caller
    /// computes these once and reuses them across every evaluation.
    ///
    /// # Panics
    /// Panics when the buffer lengths are not `dim()` and `p`.
    pub fn weights_into(
        &self,
        s: Complex64,
        u: Complex64,
        slot_w: &mut [Complex64],
        top_w: &mut [Complex64],
    ) {
        assert_eq!(slot_w.len(), self.dim(), "weights_into: slot buffer");
        assert_eq!(
            top_w.len(),
            self.pattern.shape().p(),
            "weights_into: top-pivot buffer"
        );
        for (k, w) in slot_w.iter_mut().enumerate() {
            *w = self.weight(k, s, u);
        }
        for (j, w) in top_w.iter_mut().enumerate() {
            *w = self.top_pivot_weight(j, s, u);
        }
    }

    /// [`CoeffLayout::eval_map_into`] against precomputed weights (from
    /// [`CoeffLayout::weights_into`]) into the leading `p` columns of a
    /// full `(m+p) × (m+p)` condition matrix: no `powi` in the loop, the
    /// entries addressed through the flat offset table, same bits.
    ///
    /// # Panics
    /// Panics on any buffer/shape mismatch.
    pub fn eval_map_weighted_into(
        &self,
        x: &[Complex64],
        slot_w: &[Complex64],
        top_w: &[Complex64],
        out: &mut CMat,
    ) {
        debug_assert_eq!(x.len(), self.dim(), "coefficient vector length");
        assert_eq!(slot_w.len(), self.dim(), "weighted eval: slot buffer");
        let shape = self.pattern.shape();
        let (big_n, p) = (shape.big_n(), shape.p());
        assert_eq!(top_w.len(), p, "weighted eval: top-pivot buffer");
        assert!(
            out.rows() == big_n && out.cols() == big_n,
            "weighted eval: output shape mismatch"
        );
        let out = out.as_mut_slice();
        for row in out.chunks_exact_mut(big_n) {
            row[..p].fill(Complex64::ZERO);
        }
        for (j, &w) in top_w.iter().enumerate() {
            out[j * big_n + j] += w;
        }
        for ((&xk, &w), &off) in x.iter().zip(slot_w).zip(&self.offsets) {
            if xk != Complex64::ZERO {
                out[off] += xk * w;
            }
        }
    }

    /// Embeds a solution of `child` (a bottom child of this layout's
    /// pattern) into this pattern's coefficient space: the entry at the
    /// decremented pivot is set to zero, every other coefficient carries
    /// over.
    ///
    /// # Panics
    /// Panics when `child` is not a bottom child of the pattern.
    pub fn embed_child(&self, child: &CoeffLayout, y: &[Complex64]) -> Vec<Complex64> {
        debug_assert_eq!(y.len(), child.dim());
        let jstar = self
            .pattern
            .child_column(child.pattern())
            .expect("embed_child: not a bottom child");
        let pivot_row = self.pattern.pivots()[jstar];
        let mut x = Vec::with_capacity(self.dim());
        let mut yi = 0usize;
        for &(r, j) in &self.slots {
            if j == jstar && r == pivot_row {
                x.push(Complex64::ZERO);
            } else {
                x.push(y[yi]);
                yi += 1;
            }
        }
        debug_assert_eq!(yi, y.len(), "all child coefficients consumed");
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Shape;
    use pieri_num::{random_complex, seeded_rng};

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    #[test]
    fn layout_dim_equals_rank() {
        for &(m, p, q) in &[(2, 2, 0), (2, 2, 1), (3, 2, 1), (3, 3, 0)] {
            let shape = Shape::new(m, p, q);
            let root = shape.root();
            let layout = CoeffLayout::new(&root);
            assert_eq!(layout.dim(), root.rank(), "({m},{p},{q})");
            assert_eq!(CoeffLayout::new(&shape.trivial()).dim(), 0);
        }
    }

    #[test]
    fn trivial_pattern_evaluates_to_standard_basis() {
        let shape = Shape::new(2, 2, 0);
        let layout = CoeffLayout::new(&shape.trivial());
        let m = layout.eval_map(&[], c(0.3, 0.7), Complex64::ONE);
        // Columns are e_1, e_2.
        for i in 0..4 {
            for j in 0..2 {
                let expect = if i == j {
                    Complex64::ONE
                } else {
                    Complex64::ZERO
                };
                assert_eq!(m[(i, j)], expect);
            }
        }
    }

    #[test]
    fn q0_evaluation_ignores_s() {
        let shape = Shape::new(2, 2, 0);
        let root = shape.root();
        let layout = CoeffLayout::new(&root);
        let mut rng = seeded_rng(310);
        let x: Vec<Complex64> = (0..layout.dim())
            .map(|_| random_complex(&mut rng))
            .collect();
        let a = layout.eval_map(&x, c(0.1, 0.2), Complex64::ONE);
        let b = layout.eval_map(&x, c(-5.0, 3.0), Complex64::ONE);
        assert!((&a - &b).fro_norm() < 1e-14);
    }

    #[test]
    fn dehomogenised_evaluation_is_polynomial_in_s() {
        // For (2,2,1) root [4 7]: column 1 (0-indexed) has degree 1;
        // evaluating at (s, 1) must be affine in s for that column.
        let shape = Shape::new(2, 2, 1);
        let layout = CoeffLayout::new(&shape.root());
        let mut rng = seeded_rng(311);
        let x: Vec<Complex64> = (0..8).map(|_| random_complex(&mut rng)).collect();
        let s0 = c(0.0, 0.0);
        let s1 = c(1.0, 0.0);
        let s2 = c(2.0, 0.0);
        let m0 = layout.eval_map(&x, s0, Complex64::ONE);
        let m1 = layout.eval_map(&x, s1, Complex64::ONE);
        let m2 = layout.eval_map(&x, s2, Complex64::ONE);
        // Affinity: m2 − m1 == m1 − m0 in the degree-1 column.
        for i in 0..4 {
            let d1 = m1[(i, 1)] - m0[(i, 1)];
            let d2 = m2[(i, 1)] - m1[(i, 1)];
            assert!(d1.dist(d2) < 1e-12, "row {i}");
            // Column 0 has degree 0: constant in s.
            assert!(m0[(i, 0)].dist(m2[(i, 0)]) < 1e-14);
        }
    }

    #[test]
    fn leading_form_at_u_zero() {
        // At (1, 0) only the leading-block coefficients survive; for the
        // (2,2,1) root the pivot residues are 4 and 3, and each column's
        // entries below its residue row vanish.
        let shape = Shape::new(2, 2, 1);
        let root = shape.root();
        let layout = CoeffLayout::new(&root);
        let mut rng = seeded_rng(312);
        let x: Vec<Complex64> = (0..8).map(|_| random_complex(&mut rng)).collect();
        let lead = layout.eval_map(&x, Complex64::ONE, Complex64::ZERO);
        // Column 0: degree 0 → block 0 rows survive: rows 1..=4 (support
        // rows 1..4 = everything).
        // Column 1: degree 1 → only block-1 rows (concat 5..7 → phys 1..3)
        // survive; phys row 4 (0-indexed 3) must be zero.
        assert_eq!(lead[(3, 1)], Complex64::ZERO);
        // The pivot entry of column 1 is x at concat row 7 → phys row 3
        // (0-indexed 2).
        let pivot_slot = layout
            .slots()
            .iter()
            .position(|&(r, j)| r == 7 && j == 1)
            .unwrap();
        assert!(lead[(2, 1)].dist(x[pivot_slot]) < 1e-14);
    }

    #[test]
    fn embed_child_zeroes_exactly_the_pivot() {
        let shape = Shape::new(2, 2, 1);
        let parent = shape.root(); // [4 7]
        let child = crate::pattern::Pattern::new(&shape, vec![4, 6]).unwrap();
        let lp = CoeffLayout::new(&parent);
        let lc = CoeffLayout::new(&child);
        let mut rng = seeded_rng(313);
        let y: Vec<Complex64> = (0..lc.dim()).map(|_| random_complex(&mut rng)).collect();
        let x = lp.embed_child(&lc, &y);
        assert_eq!(x.len(), lp.dim());
        // The embedded solution evaluates to the same plane at any (s, 1).
        let s = random_complex(&mut rng);
        let mp = lp.eval_map(&x, s, Complex64::ONE);
        let mc = lc.eval_map(&y, s, Complex64::ONE);
        assert!((&mp - &mc).fro_norm() < 1e-13);
        // The zeroed slot is the parent pivot (row 7, col 1).
        let pivot_slot = lp
            .slots()
            .iter()
            .position(|&(r, j)| r == 7 && j == 1)
            .unwrap();
        assert_eq!(x[pivot_slot], Complex64::ZERO);
    }

    #[test]
    fn weight_dt_matches_finite_difference() {
        let shape = Shape::new(2, 2, 2);
        let layout = CoeffLayout::new(&shape.root());
        let s = c(0.4, 0.3);
        let u = c(0.8, -0.1);
        let ds = c(0.7, 0.2);
        let du = c(1.0, 0.0);
        let h = 1e-7;
        for k in 0..layout.dim() {
            let w_plus = layout.weight(k, s + ds.scale(h), u + du.scale(h));
            let w_minus = layout.weight(k, s - ds.scale(h), u - du.scale(h));
            let fd = (w_plus - w_minus) / (2.0 * h);
            let an = layout.weight_dt(k, s, u, ds, du);
            assert!(fd.dist(an) < 1e-6 * (1.0 + an.norm()), "slot {k}");
        }
    }
}
