//! The intersection conditions and both homotopies built on them.
//!
//! Every system this crate tracks or certifies is a set of conditions
//! `det [X(σ, u) | P] = 0` on the maps `X` fitting one localization
//! pattern, evaluated at a homogenised interpolation point `(σ, u)`. A
//! condition is either *fixed* (plane `L_i`, point `(s_i, 1)`) or
//! *moving*:
//!
//! ```text
//! P(t) = (1−t)·F + t·L ,   σ(t) = (1−t)·r + t·s ,   u(t) = t  or  u ≡ 1
//! ```
//!
//! with `u(t) = t` only when the point starts at `s = ∞` (`r = 1`).
//! [`ConditionSystem`] holds one list of them; three constructors name
//! the systems of the paper:
//!
//! * [`PieriHomotopy::new`] — homotopy (3) at a pattern `b` of rank `k`.
//!   Conditions `1..k−1` are fixed; condition `k` moves from the special
//!   plane `F = γ·M_F` at `s = ∞` to `(L_k, s_k)`:
//!
//!   ```text
//!   det [ X(s_i, 1) | L_i ] = 0            i = 1 .. k−1   (fixed)
//!   det [ X(ŝ(t), û(t)) | M(t) ] = 0                      (moving)
//!
//!   M(t)        = (1−t)·γ·M_F + t·L_k
//!   (ŝ, û)(t)   = ((1−t) + t·s_k ,  t)
//!   ```
//!
//!   `M_F` is spanned by the standard basis vectors complementary to the
//!   bottom-pivot residues, so `det [X(1,0) | M_F] = ± ∏_j x_{b_j,j}`: a
//!   map meets `M_F` at infinity exactly when one of its bottom pivot
//!   entries vanishes — which is how the child solutions (decremented
//!   pivot = zero entry) become the start solutions at `t = 0`.
//! * [`InstanceHomotopy::new`] — the coefficient-parameter continuation
//!   of Section III: all `n` conditions move from a generic start
//!   instance `(γ·R_i, r_i)` to the target `(L_i, s_i)` (see
//!   [`crate::continue_to_instance`]).
//! * [`InstanceHomotopy::target`] — the target system itself, all `n`
//!   conditions fixed: what certification evaluates.
//!
//! Residuals are determinants; gradients contract the cofactor matrix
//! (Jacobi's formula) against the sparse `∂A/∂x` — one unknown touches
//! exactly one entry of one condition matrix. The reference kernels
//! (`eval`, `jacobian_x`, `dt`) build each matrix the plain way and use
//! minor-based gradients; the fused ones (`eval_and_jacobian`,
//! `jacobian_and_dt`) write it into reusable scratch with hoisted weights
//! and take residual and cofactors from one factorisation.

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

/// One condition `det [X(σ, u) | P] = 0`.
enum Condition {
    /// Plane and point never move: the slot and top-pivot weights at
    /// `(point, 1)` are computed once, at construction.
    Fixed {
        plane: CMat,
        point: Complex64,
        slot_w: Vec<Complex64>,
        top_w: Vec<Complex64>,
    },
    /// Plane and point move with `t`.
    Moving(Motion),
}

/// A moving condition: plane `(1−t)·from + t·to`, point
/// `σ = (1−t)·r + t·s`, homogenised as `(σ, t)` when the point starts at
/// `s = ∞` and as `(σ, 1)` otherwise.
struct Motion {
    from: CMat,
    to: CMat,
    /// `dP/dt = to − from` (loop-invariant of `∂H/∂t`).
    dplane: CMat,
    r: Complex64,
    s: Complex64,
}

impl Condition {
    fn fixed(layout: &CoeffLayout, plane: &CMat, point: Complex64) -> Self {
        let mut slot_w = vec![Complex64::ZERO; layout.dim()];
        let mut top_w = vec![Complex64::ZERO; layout.pattern().shape().p()];
        layout.weights_into(point, Complex64::ONE, &mut slot_w, &mut top_w);
        Condition::Fixed {
            plane: plane.clone(),
            point,
            slot_w,
            top_w,
        }
    }

    fn moving(from: CMat, to: &CMat, r: Complex64, s: Complex64) -> Self {
        Condition::Moving(Motion {
            dplane: to - &from,
            from,
            to: to.clone(),
            r,
            s,
        })
    }

    /// The homogenised point `(σ, u)` at `t` (see [`Motion::point_at`]).
    fn point_at(&self, t: f64, from_infinity: bool) -> (Complex64, Complex64) {
        match self {
            Condition::Fixed { point, .. } => (*point, Complex64::ONE),
            Condition::Moving(mv) => mv.point_at(t, from_infinity),
        }
    }

    /// The plane at `t`, as a new matrix (reference kernels only).
    fn plane_at(&self, t: f64) -> CMat {
        match self {
            Condition::Fixed { plane, .. } => plane.clone(),
            Condition::Moving(mv) => {
                &mv.from.scale(Complex64::real(1.0 - t)) + &mv.to.scale(Complex64::real(t))
            }
        }
    }

    /// The slot weights of the matrix [`ConditionSystem::build`] last
    /// wrote for this condition: the precomputed ones of a fixed
    /// condition, `moving` (the scratch buffer) for a moving one.
    fn slot_weights<'a>(&'a self, moving: &'a [Complex64]) -> &'a [Complex64] {
        match self {
            Condition::Fixed { slot_w, .. } => slot_w,
            Condition::Moving(_) => moving,
        }
    }
}

impl Motion {
    /// The homogenised point `(σ, u)` at `t`; `from_infinity` holds in
    /// the Pieri homotopy, whose moving point starts at `s = ∞`
    /// (`r = 1`, `u = t`).
    fn point_at(&self, t: f64, from_infinity: bool) -> (Complex64, Complex64) {
        let sigma = self.r.scale(1.0 - t) + self.s.scale(t);
        let u = if from_infinity {
            Complex64::real(t)
        } else {
            Complex64::ONE
        };
        (sigma, u)
    }
}

/// A square system of intersection conditions on the maps of one
/// pattern, tracked or certified as a [`Homotopy`] in `t`.
///
/// `PIERI` marks the Pieri homotopy ([`PieriHomotopy`]): its one moving
/// condition starts at `s = ∞`, and its paths all end at regular
/// solutions ([`Homotopy::regular_endpoints`]). The moving points of an
/// [`InstanceHomotopy`] are finite throughout, and its paths may diverge
/// to laws at infinity. Everything that does not depend on `(x, t)` is
/// hoisted into the constructors: a fixed condition's weights (its point
/// never moves, so the `powi` ladders run once) and a moving plane's
/// derivative.
pub struct ConditionSystem<const PIERI: bool> {
    layout: CoeffLayout,
    conds: Vec<Condition>,
}

/// One instance of homotopy (3) of the paper: the square system whose
/// tracking moves a child solution (rank `k−1`) to a solution of rank
/// `k`.
pub type PieriHomotopy = ConditionSystem<true>;

/// The instance homotopy: every condition's plane and interpolation point
/// moves from the generic start instance to the target instance.
pub type InstanceHomotopy = ConditionSystem<false>;

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
        let mut conds: Vec<Condition> = (0..k - 1)
            .map(|i| Condition::fixed(&layout, problem.plane(i), problem.point(i)))
            .collect();
        conds.push(Condition::moving(
            special_plane(pattern).scale(problem.gamma()),
            problem.plane(k - 1),
            Complex64::ONE,
            problem.point(k - 1),
        ));
        ConditionSystem { layout, conds }
    }
}

impl InstanceHomotopy {
    /// Builds the homotopy between two instances of the same shape.
    ///
    /// # Panics
    /// Panics when the shapes differ.
    pub fn new(start: &PieriProblem, target: &PieriProblem) -> Self {
        assert_eq!(
            start.shape(),
            target.shape(),
            "instances must share a shape"
        );
        let conds = (0..start.shape().conditions())
            .map(|i| {
                Condition::moving(
                    start.plane(i).scale(start.gamma()),
                    target.plane(i),
                    start.point(i),
                    target.point(i),
                )
            })
            .collect();
        ConditionSystem {
            layout: CoeffLayout::new(&start.shape().root()),
            conds,
        }
    }

    /// The target system of `problem`: all `n` conditions fixed at its
    /// planes and points, so `H(x, t)` does not depend on `t` and
    /// `∂H/∂t = 0`. It is the system every instance path ends on;
    /// certification evaluates it at `t = 1`.
    pub fn target(problem: &PieriProblem) -> Self {
        let layout = CoeffLayout::new(&problem.shape().root());
        let conds = (0..problem.shape().conditions())
            .map(|i| Condition::fixed(&layout, problem.plane(i), problem.point(i)))
            .collect();
        ConditionSystem { layout, conds }
    }
}

impl<const PIERI: bool> ConditionSystem<PIERI> {
    /// The pattern being solved.
    pub fn pattern(&self) -> &Pattern {
        self.layout.pattern()
    }

    /// The coefficient layout (for embedding child solutions).
    pub fn layout(&self) -> &CoeffLayout {
        &self.layout
    }

    /// Condition `c`'s matrix `[X(σ, u) | P(t)]` built the plain way,
    /// with its point (reference kernels).
    fn matrix(&self, c: &Condition, x: &[Complex64], t: f64) -> (CMat, Complex64, Complex64) {
        let (s, u) = c.point_at(t, PIERI);
        (self.layout.eval_map(x, s, u).hstack(&c.plane_at(t)), s, u)
    }

    /// The fused kernels' scratch from the tracker's slot, sized for this
    /// system.
    fn scratch<'a>(&self, scratch: &'a mut HomotopyScratch) -> &'a mut CondScratch {
        let shape = self.layout.pattern().shape();
        let sc = scratch.get_or_insert_with(CondScratch::new);
        sc.ensure(shape.big_n(), self.layout.dim(), shape.p());
        sc
    }

    /// Writes condition `c`'s matrix `[X(σ, u) | P(t)]` into `sc.cond`
    /// without allocating. A fixed condition copies its plane and reads
    /// its precomputed weights; a moving one scale-adds its plane in
    /// place and leaves its weights in `sc.slot_w`/`sc.top_w` for the
    /// caller's Jacobian row.
    ///
    /// Forced inline, like [`Self::dt_entry`]: each kernel then compiles
    /// its own copy, specialised per system (the instance homotopy's
    /// `u ≡ 1` folds into the weights). Left to the compiler, the
    /// instance homotopy's `jacobian_and_dt` ran 3–11% slower than the
    /// separately written kernel it replaced (2-core Xeon VM).
    #[inline(always)]
    fn build(&self, c: &Condition, x: &[Complex64], t: f64, sc: &mut CondScratch) {
        let shape = self.layout.pattern().shape();
        let (n, p, m) = (shape.big_n(), shape.p(), shape.m());
        let rows = sc.cond.as_mut_slice().chunks_exact_mut(n);
        match c {
            Condition::Fixed {
                plane,
                slot_w,
                top_w,
                ..
            } => {
                for (row, plane_row) in rows.zip(plane.as_slice().chunks_exact(m)) {
                    row[p..].copy_from_slice(plane_row);
                }
                self.layout
                    .eval_map_weighted_into(x, slot_w, top_w, &mut sc.cond);
            }
            Condition::Moving(mv) => {
                let (a, b) = (Complex64::real(1.0 - t), Complex64::real(t));
                let planes = mv
                    .from
                    .as_slice()
                    .chunks_exact(m)
                    .zip(mv.to.as_slice().chunks_exact(m));
                for (row, (from_row, to_row)) in rows.zip(planes) {
                    for ((e, &f), &l) in row[p..].iter_mut().zip(from_row).zip(to_row) {
                        *e = f * a + l * b;
                    }
                }
                let (s, u) = mv.point_at(t, PIERI);
                self.layout
                    .weights_into(s, u, &mut sc.slot_w, &mut sc.top_w);
                self.layout
                    .eval_map_weighted_into(x, &sc.slot_w, &sc.top_w, &mut sc.cond);
            }
        }
    }

    /// `∂H/∂t` of a moving condition at `(x, t)` from the full cofactor
    /// matrix `cof` of its condition matrix: the point's motion through
    /// the X block, then the plane's `dP/dt`.
    #[inline(always)]
    fn dt_entry(&self, mv: &Motion, x: &[Complex64], t: f64, cof: &CMat) -> Complex64 {
        let shape = self.layout.pattern().shape();
        let (n, p) = (shape.big_n(), shape.p());
        let cof = cof.as_slice();
        let (s, u) = mv.point_at(t, PIERI);
        let ds = mv.s - mv.r;
        let du = if PIERI {
            Complex64::ONE
        } else {
            Complex64::ZERO
        };
        let mut acc = Complex64::ZERO;
        // Top pivots carry weight u^{d_j}: they move only when u does.
        if PIERI {
            for j in 0..p {
                let wdt = self.layout.top_pivot_weight_dt(j, s, u, du);
                if wdt != Complex64::ZERO {
                    acc += cof[j * n + j] * wdt;
                }
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
        let dplane = mv.dplane.as_slice().chunks_exact(shape.m());
        for (cof_row, dp_row) in cof.chunks_exact(n).zip(dplane) {
            for (&cf, &v) in cof_row[p..].iter().zip(dp_row) {
                if v != Complex64::ZERO {
                    acc += cf * v;
                }
            }
        }
        acc
    }
}

impl<const PIERI: bool> Homotopy for ConditionSystem<PIERI> {
    fn dim(&self) -> usize {
        self.layout.dim()
    }

    /// `true` for Pieri homotopies, which are optimal: for generic planes
    /// and points every path ends at a regular solution of the next
    /// level.
    fn regular_endpoints(&self) -> bool {
        PIERI
    }

    fn eval(&self, x: &[Complex64], t: f64, out: &mut [Complex64]) {
        debug_assert_eq!(out.len(), self.dim());
        for (o, c) in out.iter_mut().zip(&self.conds) {
            *o = det(&self.matrix(c, x, t).0);
        }
    }

    fn jacobian_x(&self, x: &[Complex64], t: f64, out: &mut CMat) {
        let k = self.dim();
        debug_assert_eq!((out.rows(), out.cols()), (k, k));
        for (i, c) in self.conds.iter().enumerate() {
            let (a, s, u) = self.matrix(c, x, t);
            let cof = det_gradient(&a);
            for slot in 0..k {
                let w = self.layout.weight(slot, s, u);
                out[(i, slot)] = cof[(self.layout.phys_row(slot), self.layout.col(slot))] * w;
            }
        }
    }

    fn dt(&self, x: &[Complex64], t: f64, out: &mut [Complex64]) {
        debug_assert_eq!(out.len(), self.dim());
        for (o, c) in out.iter_mut().zip(&self.conds) {
            *o = match c {
                Condition::Fixed { .. } => Complex64::ZERO,
                Condition::Moving(mv) => {
                    self.dt_entry(mv, x, t, &det_gradient(&self.matrix(c, x, t).0))
                }
            };
        }
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
        let p = self.layout.pattern().shape().p();
        let sc = self.scratch(scratch);
        // One matrix build and one factorisation per condition: the
        // determinant is the residual entry, the cofactors contracted
        // with the slot weights are the Jacobian row. Only the p X-block
        // cofactor columns are ever read here.
        for (i, c) in self.conds.iter().enumerate() {
            self.build(c, x, t, sc);
            fx[i] = sc
                .engine
                .det_and_cofactor_cols_into(&sc.cond, &mut sc.cof, p);
            self.layout
                .contract_row(&sc.cof, c.slot_weights(&sc.slot_w), jac.row_mut(i));
        }
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
        let (n, p) = (shape.big_n(), shape.p());
        let sc = self.scratch(scratch);
        for (i, c) in self.conds.iter().enumerate() {
            self.build(c, x, t, sc);
            match c {
                // A fixed condition does not depend on t: its Jacobian
                // row reads the p X-block cofactor columns and no
                // determinant.
                Condition::Fixed { slot_w, .. } => {
                    sc.engine.cofactor_cols_into(&sc.cond, &mut sc.cof, p);
                    self.layout.contract_row(&sc.cof, slot_w, jac.row_mut(i));
                    ht[i] = Complex64::ZERO;
                }
                // A moving one: the same cofactors feed the Jacobian row
                // and the ∂H/∂t contraction, which reads every column.
                Condition::Moving(mv) => {
                    sc.engine.cofactor_cols_into(&sc.cond, &mut sc.cof, n);
                    self.layout
                        .contract_row(&sc.cof, &sc.slot_w, jac.row_mut(i));
                    ht[i] = self.dt_entry(mv, x, t, &sc.cof);
                }
            }
        }
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
