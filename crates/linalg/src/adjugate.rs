//! Cofactor and adjugate machinery for determinantal conditions.
//!
//! lint:hot-path — evaluation/Jacobian kernels run per Newton iteration
//! on reused buffers; only the one-time constructor allocates.
//!
//! The Pieri intersection conditions are determinants `det A(x,t)` of small
//! matrices whose entries are *affine* in the unknowns. By Jacobi's formula,
//!
//! ```text
//! ∂ det A / ∂ x_k  =  Σ_{r,c}  C_{r,c} · ∂A_{r,c}/∂x_k ,
//! ```
//!
//! where `C` is the cofactor matrix. Evaluating the cofactor matrix
//! numerically therefore differentiates every intersection condition exactly
//! — no symbolic determinant expansion is ever formed.
//!
//! Near a solution the condition matrix is (by construction) nearly
//! singular, so computing `adj(A) = det(A)·A⁻¹` through an LU solve is
//! numerically treacherous exactly where we need it most. The free
//! functions below evaluate every cofactor from its own minor: `O(n⁵)`,
//! but unconditionally stable. They are the reference [`DetCofactor`] is
//! tested against. The engine is what the homotopy kernels call: up to
//! 4×4 it reads closed-form minors straight from the matrix — at 4×4
//! the 18 2×2 minors that its 3×3 minors share are computed once — and
//! past that it takes the cofactors from triangular solves against one
//! LU factorisation (`O(n³)`), falling back to the minors only when the
//! pivots signal near-singularity. Up to 4×4 the residual determinant
//! comes from the LU elimination routine run on a stack buffer; that
//! routine builds one Baudin–Smith divisor per pivot, so a column's
//! multipliers share the divisor-only half of their divisions. The
//! matrices are tiny (`n = m+p ≤ 8` in every experiment of the paper).
//! The `kernels` criterion bench times the engine inside the fused
//! `eval_jacobian` and `tangent` kernels; the `linalg` bench times it
//! alone on a 4×4 matrix.

use crate::lu::{eliminate, pivot_product, Lu, LuError};
use crate::matrix::CMat;
use pieri_num::{Complex64, Divisor};

/// Determinant computed by recursive cofactor expansion.
///
/// Exponential in `n`; intended for `n ≤ 4` cross-checks and for the bases
/// of the minor computations. Falls back to expansion along the first row.
pub fn det_via_minors(a: &CMat) -> Complex64 {
    assert!(a.is_square(), "det of non-square matrix");
    let n = a.rows();
    match n {
        0..=3 => det_closed_form(n, |i, j| a[(i, j)]),
        _ => {
            let mut acc = Complex64::ZERO;
            let mut sign = 1.0;
            for j in 0..n {
                let entry = a[(0, j)];
                if entry != Complex64::ZERO {
                    acc += entry.scale(sign) * det_via_minors(&a.minor(0, j));
                }
                sign = -sign;
            }
            acc
        }
    }
}

/// Closed-form determinant of the `n × n` matrix (`n ≤ 3`) whose entry
/// `(i, j)` is `m(i, j)`. [`det_via_minors`] and the engine's minors both
/// evaluate this one expression, so their results are bitwise equal
/// whether the entries come from a copied minor or are read in place.
#[inline(always)]
fn det_closed_form(n: usize, m: impl Fn(usize, usize) -> Complex64) -> Complex64 {
    match n {
        0 => Complex64::ONE,
        1 => m(0, 0),
        2 => det_2x2(m),
        3 => expand_3x3(|j| m(0, j), |x, y| det_2x2(|i, j| m(1 + i, [x, y][j]))),
        _ => unreachable!("closed form covers n ≤ 3"),
    }
}

/// The 2×2 determinant `m(0,0)·m(1,1) − m(0,1)·m(1,0)`.
#[inline(always)]
fn det_2x2(m: impl Fn(usize, usize) -> Complex64) -> Complex64 {
    m(0, 0) * m(1, 1) - m(0, 1) * m(1, 0)
}

/// First-row expansion of a 3×3 determinant: `first(j)` is entry
/// `(0, j)` and `minor(x, y)` the 2×2 minor of rows 1–2 on columns
/// `x < y`. [`det_closed_form`] and the engine's shared-minor 4×4
/// cofactors both expand through this one expression.
#[inline(always)]
fn expand_3x3(
    first: impl Fn(usize) -> Complex64,
    minor: impl Fn(usize, usize) -> Complex64,
) -> Complex64 {
    first(0) * minor(1, 2) - first(1) * minor(0, 2) + first(2) * minor(0, 1)
}

/// The column pairs `x < y` of a 4×4 matrix, in the order the engine
/// stores its shared 2×2 minors.
const COL_PAIRS: [(usize, usize); 6] = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];

/// Position of the column pair `x < y` in [`COL_PAIRS`].
#[inline(always)]
fn col_pair(x: usize, y: usize) -> usize {
    match (x, y) {
        (0, 1) => 0,
        (0, 2) => 1,
        (0, 3) => 2,
        (1, 2) => 3,
        (1, 3) => 4,
        _ => 5,
    }
}

/// The leading `cols` cofactor columns of a 4×4 matrix from its shared
/// 2×2 minors. The 3×3 minor that drops row `r` expands along its first
/// row into 2×2 minors of its last two rows: rows {2,3} for `r ≤ 1`,
/// {1,3} for `r = 2` and {1,2} for `r = 3`. Those 3 row pairs times the
/// 6 column pairs are computed once — 18 minors instead of three per
/// cofactor (24 for two columns, 48 for four) — and every 3×3 minor
/// expands from them through [`det_2x2`] and [`expand_3x3`], the
/// expressions [`det_closed_form`] evaluates: bitwise the entries of
/// [`cofactor_matrix`].
fn cofactors_4x4(a: &CMat, cof: &mut CMat, cols: usize) {
    const ROW_PAIRS: [(usize, usize); 3] = [(2, 3), (1, 3), (1, 2)];
    // The columns left once column `c` is dropped, in order.
    const OTHER_COLS: [[usize; 3]; 4] = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]];
    let e = |i: usize, j: usize| a[(i, j)];
    let mut minors = [[Complex64::ZERO; 6]; 3];
    for (row, &(r1, r2)) in minors.iter_mut().zip(&ROW_PAIRS) {
        for (minor, &(x, y)) in row.iter_mut().zip(&COL_PAIRS) {
            *minor = det_2x2(|i, j| e([r1, r2][i], [x, y][j]));
        }
    }
    for r in 0..4 {
        // First remaining row of the minor, and its row pair.
        let (first, pair) = match r {
            0 => (1, 0),
            1 => (0, 0),
            2 => (0, 1),
            _ => (0, 2),
        };
        let minors = &minors[pair];
        for c in 0..cols {
            let js = OTHER_COLS[c];
            let d = expand_3x3(|j| e(first, js[j]), |x, y| minors[col_pair(js[x], js[y])]);
            cof[(r, c)] = d.scale(cofactor_sign(r, c));
        }
    }
}

/// Determinant of an at most 4×4 matrix by [`eliminate`], the routine
/// behind [`Lu::factor_into`], on a stack copy: bitwise [`crate::det`],
/// with no heap-backed factorisation slot. Singular input reports `0`.
fn small_det(a: &CMat) -> Complex64 {
    let n = a.rows();
    let mut buf = [Complex64::ZERO; 16];
    let buf = &mut buf[..n * n];
    buf.copy_from_slice(a.as_slice());
    let mut ipiv = [0; 4];
    let mut divs = [Divisor::default(); 4];
    match eliminate(buf, n, &mut ipiv[..n], &mut divs[..n]) {
        Ok(piv) => pivot_product(piv.sign, buf, n),
        // Elimination only ever reports singularity.
        Err(_) => Complex64::ZERO,
    }
}

/// Determinant of an `(n−1)`-sized minor through LU, with a cofactor-
/// expansion fallback when the minor itself is singular (then its
/// determinant is simply zero, which LU reports as an error).
fn minor_det(a: &CMat, r: usize, c: usize) -> Complex64 {
    let m = a.minor(r, c);
    if m.rows() <= 3 {
        return det_via_minors(&m);
    }
    match Lu::factor(&m) {
        Ok(lu) => lu.det(),
        Err(LuError::Singular { .. }) => Complex64::ZERO,
        Err(LuError::NotSquare) => unreachable!("minor of square matrix is square"),
    }
}

/// Single cofactor `C_{r,c} = (−1)^{r+c} · det(minor(a, r, c))`.
pub fn cofactor(a: &CMat, r: usize, c: usize) -> Complex64 {
    minor_det(a, r, c).scale(cofactor_sign(r, c))
}

/// Full cofactor matrix `C` with `C_{r,c}` in position `(r, c)`.
///
/// The adjugate is its transpose: `adj(A) = Cᵀ`, and `A·adj(A) = det(A)·I`
/// holds for *all* square matrices, including singular ones — the property
/// the homotopy Jacobians rely on.
pub fn cofactor_matrix(a: &CMat) -> CMat {
    assert!(a.is_square(), "cofactor matrix of non-square matrix");
    let n = a.rows();
    CMat::from_fn(n, n, |r, c| cofactor(a, r, c))
}

/// Adjugate `adj(A) = Cᵀ` (classical adjoint).
pub fn adjugate(a: &CMat) -> CMat {
    cofactor_matrix(a).transpose()
}

/// Gradient of `det A` with respect to the matrix entries:
/// `∂ det A / ∂ A_{r,c} = C_{r,c}`, returned as the full cofactor matrix.
///
/// This is the quantity the Pieri homotopy evaluator contracts against
/// `∂A/∂x_k` (sparse: each unknown touches exactly one entry) and against
/// `∂A/∂t` (dense in the moving column block).
pub fn det_gradient(a: &CMat) -> CMat {
    cofactor_matrix(a)
}

/// Pivot-ratio guard above which [`DetCofactor`] abandons the LU shortcut
/// for the unconditionally stable minor expansion. The LU cofactor
/// `det(A)·A⁻ᵀ` loses roughly `κ(A)·ε` relative accuracy, so beyond this
/// ratio fewer than ~4 significant digits would survive — too few for a
/// Newton Jacobian near a singular endpoint.
pub const FUSED_PIVOT_RATIO_LIMIT: f64 = 1e12;

/// Fused determinant + cofactor evaluation with reusable storage.
///
/// Two entry points share one cofactor routine, so they write bitwise the
/// same entries: [`DetCofactor::det_and_cofactor_cols_into`] also returns
/// the determinant (the Newton residual), [`DetCofactor::cofactor_cols_into`]
/// computes only the cofactors (the tangent system needs no residual).
/// Both fill only the leading columns their caller reads.
///
/// Up to 4×4 the cofactors are closed-form minors read straight from the
/// matrix: no solves, no copies, unconditionally stable, and `m + p = 4`
/// is the most common condition-matrix size. At 4×4 every 3×3 minor
/// expands from the 2×2 minors of row pairs {2,3}, {1,3} and {1,2}; those
/// 18 shared minors are computed once per call. The determinant at these
/// sizes comes from the LU elimination routine behind
/// [`Lu::factor_into`], run on a 4×4 stack buffer with one hoisted
/// divisor per pivot, so it is bitwise [`crate::det`]. Past that, one LU
/// factorisation yields the determinant (product of pivots) *and* every
/// cofactor entry: column `c` of the cofactor matrix is `det(A) · y`
/// where `Aᵀ·y = e_c`, i.e. two triangular solves per column against the
/// factorisation already in hand — `O(n³)` total versus the `O(n⁵)` of
/// [`cofactor_matrix`]'s per-entry minors. When the pivot ratio signals
/// near-singularity (the regime where `det·A⁻ᵀ` cancels catastrophically
/// — and, by construction, exactly where a Pieri condition matrix sits
/// at a solution) the engine falls back to the minor expansion
/// automatically. Either minor route produces bitwise the same entries as
/// [`cofactor_matrix`]. Every buffer is owned and reused, so steady-state
/// calls perform no heap allocation.
#[derive(Debug)]
pub struct DetCofactor {
    lu: Lu,
    rhs: Vec<Complex64>,
    minor: CMat,
    minor_lu: Lu,
}

impl Default for DetCofactor {
    fn default() -> Self {
        DetCofactor::new()
    }
}

impl DetCofactor {
    /// Creates an engine with empty buffers; they grow on first use and
    /// are reused afterwards.
    pub fn new() -> Self {
        DetCofactor {
            lu: Lu::default(),
            // lint:allow(hot-path-alloc) — empty-capacity constructor;
            // the buffer grows on first use and is reused afterwards.
            rhs: Vec::new(),
            minor: CMat::zeros(0, 0),
            minor_lu: Lu::default(),
        }
    }

    /// Computes `det(a)` and writes the leading `cols` columns of its
    /// cofactor matrix into `cof`; the remaining columns of `cof` are
    /// left untouched. The Newton-corrector kernel only ever contracts
    /// the `p` X-block columns of a condition matrix, so it skips the
    /// plane-block columns entirely.
    ///
    /// The determinant follows the [`crate::try_det`] convention:
    /// numerically singular input reports `0`. The cofactor of a singular
    /// matrix is still well-defined and nonzero for rank `n−1`, which is
    /// what the homotopy Jacobians rely on.
    ///
    /// # Panics
    /// Panics when `a` is not square, `cof` has a different shape, or
    /// `cols > a.rows()`.
    pub fn det_and_cofactor_cols_into(
        &mut self,
        a: &CMat,
        cof: &mut CMat,
        cols: usize,
    ) -> Complex64 {
        if let Some(d) = self.cofactors(a, cof, cols) {
            return d;
        }
        // The closed-form minors computed no determinant. Take it from
        // the LU pivots: near a singularity (= near a solution, where
        // residual accuracy decides whether Newton converges) the pivot
        // product is markedly more accurate than a Laplace expansion,
        // whose four large terms cancel to the tiny value. This also
        // keeps the fused residual bitwise identical to [`crate::det`].
        small_det(a)
    }

    /// Writes the leading `cols` columns of the cofactor matrix of `a`
    /// into `cof`, bitwise equal to the columns
    /// [`DetCofactor::det_and_cofactor_cols_into`] writes, and leaves the
    /// remaining columns untouched. Up to 4×4 it factors nothing: the
    /// Davidenko tangent kernel needs the cofactors but not the residual.
    ///
    /// # Panics
    /// As [`DetCofactor::det_and_cofactor_cols_into`].
    pub fn cofactor_cols_into(&mut self, a: &CMat, cof: &mut CMat, cols: usize) {
        self.cofactors(a, cof, cols);
    }

    /// The cofactor routine behind both entry points. Returns the LU
    /// determinant when the cofactors came from a factorisation of `a`
    /// (past 4×4; `0` for singular input), `None` for the closed-form
    /// minors.
    fn cofactors(&mut self, a: &CMat, cof: &mut CMat, cols: usize) -> Option<Complex64> {
        assert!(a.is_square(), "DetCofactor: non-square matrix");
        assert_eq!(
            (cof.rows(), cof.cols()),
            (a.rows(), a.cols()),
            "DetCofactor: cofactor shape mismatch"
        );
        assert!(cols <= a.rows(), "DetCofactor: column range");
        let n = a.rows();
        if n == 4 {
            cofactors_4x4(a, cof, cols);
            return None;
        }
        if n < 4 {
            for r in 0..n {
                for c in 0..cols {
                    // Minor (r, c) read in place: skip row r and column c.
                    let d = det_closed_form(n - 1, |i, j| {
                        a[(i + usize::from(i >= r), j + usize::from(j >= c))]
                    });
                    cof[(r, c)] = d.scale(cofactor_sign(r, c));
                }
            }
            return None;
        }
        Some(match Lu::factor_into(a, &mut self.lu) {
            Ok(()) if self.lu.pivot_ratio() <= FUSED_PIVOT_RATIO_LIMIT => {
                let d = self.lu.det();
                self.rhs.clear();
                self.rhs.resize(n, Complex64::ZERO);
                for c in 0..cols {
                    self.rhs.fill(Complex64::ZERO);
                    self.rhs[c] = Complex64::ONE;
                    self.lu.solve_transpose_in_place(&mut self.rhs);
                    for r in 0..n {
                        cof[(r, c)] = d * self.rhs[r];
                    }
                }
                d
            }
            Ok(()) => {
                // Factorisation succeeded but the pivots are too spread:
                // keep the LU determinant (the same value `det` reports)
                // but take the cofactors from the stable minor expansion.
                self.cofactor_via_minor_lu(a, cof, cols);
                self.lu.det()
            }
            Err(LuError::Singular { .. }) => {
                self.cofactor_via_minor_lu(a, cof, cols);
                Complex64::ZERO
            }
            Err(LuError::NotSquare) => unreachable!("squareness asserted above"),
        })
    }

    /// Minor-expansion fallback past 4×4, writing the leading `cols`
    /// columns into `cof` — the same arithmetic as [`cofactor_matrix`]
    /// (bitwise identical entries): each minor is copied into the
    /// engine's reusable scratch and factored there.
    fn cofactor_via_minor_lu(&mut self, a: &CMat, cof: &mut CMat, cols: usize) {
        let n = a.rows();
        if (self.minor.rows(), self.minor.cols()) != (n - 1, n - 1) {
            self.minor = CMat::zeros(n - 1, n - 1);
        }
        for r in 0..n {
            for c in 0..cols {
                a.minor_into(r, c, &mut self.minor);
                let d = match Lu::factor_into(&self.minor, &mut self.minor_lu) {
                    Ok(()) => self.minor_lu.det(),
                    Err(LuError::Singular { .. }) => Complex64::ZERO,
                    Err(LuError::NotSquare) => unreachable!("minor is square"),
                };
                cof[(r, c)] = d.scale(cofactor_sign(r, c));
            }
        }
    }
}

/// The checkerboard sign `(−1)^{r+c}` of cofactor `(r, c)`.
#[inline]
fn cofactor_sign(r: usize, c: usize) -> f64 {
    if (r + c).is_multiple_of(2) {
        1.0
    } else {
        -1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu;
    use pieri_num::{random_complex, seeded_rng};

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    #[test]
    fn det_via_minors_matches_lu() {
        let mut rng = seeded_rng(20);
        for n in 1..=6 {
            let a = CMat::random(n, n, &mut rng, random_complex);
            let d1 = det_via_minors(&a);
            let d2 = lu::det(&a);
            assert!(d1.dist(d2) < 1e-9 * (1.0 + d1.norm()), "n={n}");
        }
    }

    #[test]
    fn adjugate_identity_nonsingular() {
        let mut rng = seeded_rng(21);
        for n in 2..=6 {
            let a = CMat::random(n, n, &mut rng, random_complex);
            let adj = adjugate(&a);
            let d = lu::det(&a);
            let prod = &a * &adj;
            let target = CMat::identity(n).scale(d);
            let err = (&prod - &target).fro_norm();
            assert!(err < 1e-8 * (1.0 + d.norm()), "n={n} err={err}");
        }
    }

    #[test]
    fn adjugate_identity_holds_for_singular_matrices() {
        // Rank n−1 matrix: adj(A) is the rank-1 matrix spanning the null
        // space; A·adj(A) must be exactly det(A)·I = 0.
        let a = CMat::from_rows(&[
            vec![c(1.0, 0.0), c(2.0, 0.0), c(3.0, 0.0)],
            vec![c(4.0, 0.0), c(5.0, 0.0), c(6.0, 0.0)],
            vec![c(5.0, 0.0), c(7.0, 0.0), c(9.0, 0.0)], // row0 + row1
        ]);
        let adj = adjugate(&a);
        assert!(
            adj.fro_norm() > 1e-12,
            "adjugate of rank n−1 matrix is nonzero"
        );
        let prod = &a * &adj;
        assert!(prod.fro_norm() < 1e-10, "A·adj(A) = 0 for singular A");
    }

    #[test]
    fn cofactor_gradient_matches_finite_differences() {
        let mut rng = seeded_rng(22);
        let a = CMat::random(5, 5, &mut rng, random_complex);
        let grad = det_gradient(&a);
        let d0 = det_via_minors(&a);
        let h = 1e-7;
        for r in 0..5 {
            for cidx in 0..5 {
                let mut ap = a.clone();
                ap[(r, cidx)] += Complex64::real(h);
                let d1 = det_via_minors(&ap);
                let fd = (d1 - d0) / h;
                assert!(
                    fd.dist(grad[(r, cidx)]) < 1e-5 * (1.0 + grad[(r, cidx)].norm()),
                    "entry ({r},{cidx}): fd={fd:?} grad={:?}",
                    grad[(r, cidx)]
                );
            }
        }
    }

    #[test]
    fn adjugate_of_2x2_closed_form() {
        let a = CMat::from_rows(&[
            vec![c(1.0, 1.0), c(2.0, 0.0)],
            vec![c(0.0, 3.0), c(4.0, -1.0)],
        ]);
        let adj = adjugate(&a);
        assert!(adj[(0, 0)].dist(a[(1, 1)]) < 1e-14);
        assert!(adj[(0, 1)].dist(-a[(0, 1)]) < 1e-14);
        assert!(adj[(1, 0)].dist(-a[(1, 0)]) < 1e-14);
        assert!(adj[(1, 1)].dist(a[(0, 0)]) < 1e-14);
    }

    #[test]
    fn fused_det_cofactor_matches_minors_on_generic_matrices() {
        let mut rng = seeded_rng(23);
        let mut engine = DetCofactor::new();
        for n in 1..=8 {
            let a = CMat::random(n, n, &mut rng, random_complex);
            let mut cof = CMat::zeros(n, n);
            let d = engine.det_and_cofactor_cols_into(&a, &mut cof, n);
            let d_ref = lu::det(&a);
            assert!(d.dist(d_ref) < 1e-10 * (1.0 + d_ref.norm()), "n={n} det");
            let c_ref = cofactor_matrix(&a);
            let scale = c_ref.max_norm().max(1.0);
            for r in 0..n {
                for cc in 0..n {
                    assert!(
                        cof[(r, cc)].dist(c_ref[(r, cc)]) < 1e-12 * scale,
                        "n={n} ({r},{cc}): fused={:?} minors={:?}",
                        cof[(r, cc)],
                        c_ref[(r, cc)]
                    );
                }
            }
        }
    }

    /// Rank n−1 at n = 5 (past the closed-form cutoff): LU factorisation
    /// fails, so the cofactors take the minor fallback.
    fn rank_deficient_5x5() -> CMat {
        CMat::from_rows(&[
            vec![
                c(1.0, 0.0),
                c(2.0, 0.0),
                c(3.0, 0.0),
                c(0.5, 1.0),
                c(1.0, -1.0),
            ],
            vec![
                c(4.0, 0.0),
                c(5.0, 0.0),
                c(6.0, 0.0),
                c(-1.0, 0.25),
                c(0.0, 2.0),
            ],
            vec![
                c(5.0, 0.0),
                c(7.0, 0.0),
                c(9.0, 0.0),
                c(-0.5, 1.25),
                c(1.0, 1.0),
            ], // row0 + row1
            vec![
                c(0.0, 2.0),
                c(1.0, 1.0),
                c(2.0, 0.0),
                c(3.0, 0.0),
                c(-2.0, 0.5),
            ],
            vec![
                c(1.5, 0.0),
                c(0.0, -1.0),
                c(2.5, 2.0),
                c(1.0, 0.0),
                c(0.25, 0.0),
            ],
        ])
    }

    /// diag(1, …, 1, 1e-13) at n = 5: factorisation succeeds but the
    /// pivot ratio exceeds the guard.
    fn wild_pivot_5x5() -> CMat {
        let n = 5;
        CMat::from_fn(n, n, |i, j| {
            if i != j {
                Complex64::ZERO
            } else if i == n - 1 {
                c(1e-13, 0.0)
            } else {
                Complex64::ONE
            }
        })
    }

    /// Rank 1 at n = 3 (closed-form cofactors, singular LU).
    fn rank_one_3x3() -> CMat {
        CMat::from_fn(3, 3, |i, j| c((i + 1) as f64 * (j + 1) as f64, 0.0))
    }

    /// Rank 3 at n = 4 (shared-minor cofactors, singular LU): row 2 is
    /// row 0 + row 1.
    fn rank_deficient_4x4() -> CMat {
        CMat::from_rows(&[
            vec![c(1.0, 0.5), c(2.0, 0.0), c(-1.0, 1.0), c(0.25, 0.0)],
            vec![c(0.0, -1.0), c(1.5, 2.0), c(3.0, 0.0), c(-2.0, 0.5)],
            vec![c(1.0, -0.5), c(3.5, 2.0), c(2.0, 1.0), c(-1.75, 0.5)],
            vec![c(0.5, 0.0), c(-1.0, 1.0), c(0.0, 2.0), c(1.0, 1.0)],
        ])
    }

    #[test]
    fn fused_engine_falls_back_on_singular_input() {
        // The fallback must reproduce the minor-based cofactor bitwise
        // and report det = 0.
        let a = rank_deficient_5x5();
        let mut engine = DetCofactor::new();
        let mut cof = CMat::zeros(5, 5);
        let d = engine.det_and_cofactor_cols_into(&a, &mut cof, 5);
        assert_eq!(d, Complex64::ZERO);
        assert_eq!(cof, cofactor_matrix(&a), "fallback is bitwise the minors");
        assert!(cof.fro_norm() > 1e-10, "rank n−1 cofactor is nonzero");
    }

    #[test]
    fn fused_engine_small_matrices_use_closed_form_minors() {
        // n ≤ 4 takes the closed-form route for the *cofactors*
        // (bitwise the minor expansion) while the determinant still
        // comes from the LU pivots — Laplace expansion loses the
        // cancellation fight near singularity. Singular input reports
        // a zero det without error.
        let mut rng = seeded_rng(25);
        let mut engine = DetCofactor::new();
        for n in 1..=4 {
            let a = CMat::random(n, n, &mut rng, random_complex);
            let mut cof = CMat::zeros(n, n);
            let d = engine.det_and_cofactor_cols_into(&a, &mut cof, n);
            assert_eq!(cof, cofactor_matrix(&a), "n={n}: bitwise minors");
            assert_eq!(d, lu::det(&a), "n={n}: bitwise the LU determinant");
            let d_ref = det_via_minors(&a);
            assert!(d.dist(d_ref) < 1e-12 * (1.0 + d_ref.norm()), "n={n}");
        }
        let mut cof = CMat::zeros(3, 3);
        let d = engine.det_and_cofactor_cols_into(&rank_one_3x3(), &mut cof, 3);
        assert!(d.norm() < 1e-12, "singular det ≈ 0, got {d:?}");
    }

    #[test]
    fn fused_engine_falls_back_on_wild_pivot_ratio() {
        // The cofactors must come from the minors.
        let a = wild_pivot_5x5();
        let mut engine = DetCofactor::new();
        let mut cof = CMat::zeros(5, 5);
        let d = engine.det_and_cofactor_cols_into(&a, &mut cof, 5);
        assert!(d.dist(c(1e-13, 0.0)) < 1e-25, "LU det survives");
        assert_eq!(cof, cofactor_matrix(&a), "cofactors from the fallback");
    }

    /// Both entry points restricted to the leading `cols` columns write
    /// bitwise the columns of a full run and leave the rest untouched.
    fn assert_column_restriction(engine: &mut DetCofactor, a: &CMat, cols: usize) {
        let n = a.rows();
        let mut full = CMat::zeros(n, n);
        let d_full = engine.det_and_cofactor_cols_into(a, &mut full, n);
        assert_eq!(d_full, lu::det(a), "n={n}: bitwise the LU determinant");
        if n <= 4 {
            assert_eq!(full, cofactor_matrix(a), "n={n}: bitwise the minors");
        }
        let sentinel = c(-7.0, 3.0);
        let mut part = CMat::from_fn(n, n, |_, _| sentinel);
        let d_part = engine.det_and_cofactor_cols_into(a, &mut part, cols);
        assert_eq!(d_full, d_part, "n={n} cols={cols}: same det");
        let mut only = CMat::from_fn(n, n, |_, _| sentinel);
        engine.cofactor_cols_into(a, &mut only, cols);
        for (entry, out) in [("det+cofactor", &part), ("cofactor-only", &only)] {
            for r in 0..n {
                for c in 0..cols {
                    assert_eq!(
                        out[(r, c)],
                        full[(r, c)],
                        "{entry} n={n} cols={cols} ({r},{c}): leading columns bitwise equal"
                    );
                }
                for c in cols..n {
                    assert_eq!(
                        out[(r, c)],
                        sentinel,
                        "{entry} n={n} cols={cols}: trailing columns untouched"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_engine_column_restriction_matches_full_run() {
        let mut rng = seeded_rng(26);
        let mut engine = DetCofactor::new();
        for n in 2..=7 {
            for cols in [0, 1, n / 2, n] {
                let a = CMat::random(n, n, &mut rng, random_complex);
                assert_column_restriction(&mut engine, &a, cols);
            }
        }
        // The minor fallbacks: singular and wild-pivot past the
        // closed-form cutoff, singular within it, and the singular and
        // all-zero inputs of the shared-minor 4×4 route.
        for a in [
            rank_deficient_5x5(),
            wild_pivot_5x5(),
            rank_one_3x3(),
            rank_deficient_4x4(),
            CMat::zeros(4, 4),
        ] {
            for cols in 0..=a.rows() {
                assert_column_restriction(&mut engine, &a, cols);
            }
        }
    }

    #[test]
    fn fused_engine_storage_survives_shape_changes() {
        let mut rng = seeded_rng(24);
        let mut engine = DetCofactor::new();
        for &n in &[4usize, 6, 3, 6, 8, 4] {
            let a = CMat::random(n, n, &mut rng, random_complex);
            let mut cof = CMat::zeros(n, n);
            engine.det_and_cofactor_cols_into(&a, &mut cof, n);
            let c_ref = cofactor_matrix(&a);
            let scale = c_ref.max_norm().max(1.0);
            assert!(
                (&cof - &c_ref).max_norm() < 1e-11 * scale,
                "n={n} after resize"
            );
        }
    }

    #[test]
    fn empty_and_1x1_edge_cases() {
        assert_eq!(det_via_minors(&CMat::zeros(0, 0)), Complex64::ONE);
        let a = CMat::from_rows(&[vec![c(7.0, -2.0)]]);
        assert_eq!(det_via_minors(&a), c(7.0, -2.0));
        // adj of 1x1 is [1] (empty minor has det 1).
        assert_eq!(adjugate(&a)[(0, 0)], Complex64::ONE);
    }
}
