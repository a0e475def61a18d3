//! LU factorisation with partial pivoting.
//!
//! lint:hot-path — `factor_into`/`solve_in_place` run inside every
//! Newton iteration; steady state reuses caller buffers, and the
//! allocating constructors/wrappers below are individually justified.
//!
//! One elimination routine, [`eliminate`], works on a row-major slice:
//! [`Lu::factor_into`] runs it on the factorisation's own buffer and
//! [`crate::DetCofactor`] on a 4×4 stack buffer for its residual
//! determinant. It walks rows as slices (`split_at_mut` for the pivot
//! row, `chunks_exact_mut` for the rows below) and builds one
//! [`Divisor`] per pivot: the divisor-only half of the Baudin–Smith
//! division is computed once per column instead of once per multiplier,
//! and [`Lu`] keeps the divisors so the triangular solves reuse them for
//! their diagonal divisions. Every quotient is bitwise the one `/` gives.

use crate::matrix::CMat;
use pieri_num::{Complex64, Divisor};

/// Failure modes of [`Lu::factor`] and its solvers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LuError {
    /// The matrix is not square.
    NotSquare,
    /// A pivot column was numerically zero: the matrix is singular to
    /// working precision.
    Singular {
        /// Elimination step at which no acceptable pivot was found.
        step: usize,
    },
}

impl std::fmt::Display for LuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LuError::NotSquare => write!(f, "LU factorisation requires a square matrix"),
            LuError::Singular { step } => {
                write!(f, "matrix is singular to working precision (step {step})")
            }
        }
    }
}

impl std::error::Error for LuError {}

/// Compact LU factorisation `P·A = L·U` with partial (row) pivoting.
///
/// `L` (unit lower triangular) and `U` are packed into a single matrix;
/// `ipiv` records the row swapped at each elimination step (LAPACK-style
/// swap replay, so permutations apply in place without a gather buffer)
/// and `sign` the permutation parity, so the determinant comes out of
/// [`Lu::det`] for free. The pivot divisors built during elimination are
/// kept for the solves' diagonal divisions. The storage is reusable:
/// [`Lu::factor_into`] refactors a new matrix into an existing `Lu`
/// without allocating.
#[derive(Debug, Clone)]
pub struct Lu {
    lu: CMat,
    ipiv: Vec<usize>,
    /// One divisor per pivot `U[k][k]`, for the solves' diagonal divisions.
    divs: Vec<Divisor>,
    sign: f64,
    /// Largest pivot modulus observed (for condition diagnostics).
    max_pivot: f64,
    /// Smallest pivot modulus observed.
    min_pivot: f64,
}

impl Default for Lu {
    /// An empty (0 × 0) factorisation slot for [`Lu::factor_into`] reuse.
    fn default() -> Self {
        Lu {
            lu: CMat::zeros(0, 0),
            // lint:allow(hot-path-alloc) — empty-capacity constructor in
            // a one-time Default impl; nothing is allocated until use.
            ipiv: Vec::new(),
            // lint:allow(hot-path-alloc) — as `ipiv`: empty capacity in a
            // one-time Default impl, grown on first use.
            divs: Vec::new(),
            sign: 1.0,
            max_pivot: 0.0,
            min_pivot: f64::INFINITY,
        }
    }
}

impl Lu {
    /// Factors `A`; fails on non-square or exactly/numerically singular input.
    ///
    /// Singularity is detected against a threshold scaled by the largest
    /// entry of `A`, so the result does not depend on the overall scale of
    /// the matrix.
    pub fn factor(a: &CMat) -> Result<Lu, LuError> {
        let mut out = Lu::default();
        Lu::factor_into(a, &mut out)?;
        Ok(out)
    }

    /// Factors `A` into `into`, reusing its storage (no allocation once
    /// the slot has seen a matrix of this size).
    ///
    /// On error the contents of `into` are unspecified and must not be
    /// used for solves.
    pub fn factor_into(a: &CMat, into: &mut Lu) -> Result<(), LuError> {
        let n = a.rows();
        if !a.is_square() {
            return Err(LuError::NotSquare);
        }
        if (into.lu.rows(), into.lu.cols()) == (n, n) {
            into.lu.copy_from(a);
        } else {
            // lint:allow(hot-path-alloc) — cold branch: first use (or a
            // dimension change) grows the slot; steady state copies.
            into.lu = a.clone();
        }
        into.ipiv.resize(n, 0);
        into.divs.resize_with(n, Divisor::default);
        let piv = eliminate(into.lu.as_mut_slice(), n, &mut into.ipiv, &mut into.divs)?;
        into.sign = piv.sign;
        into.max_pivot = piv.max;
        into.min_pivot = piv.min;
        Ok(())
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> Complex64 {
        pivot_product(self.sign, self.lu.as_slice(), self.dim())
    }

    /// Ratio of largest to smallest pivot — a cheap (crude) growth-factor
    /// proxy used by the tracker to notice ill-conditioned Jacobians.
    pub fn pivot_ratio(&self) -> f64 {
        if self.min_pivot == 0.0 {
            f64::INFINITY
        } else {
            self.max_pivot / self.min_pivot
        }
    }

    /// Solves `A·x = b`, overwriting and returning `x`.
    ///
    /// # Panics
    /// Panics when `b.len() != self.dim()`.
    pub fn solve(&self, b: &[Complex64]) -> Vec<Complex64> {
        // lint:allow(hot-path-alloc) — allocating convenience wrapper;
        // hot callers use `solve_in_place` on their own buffer.
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// Solves `A·x = b` in place: `b` enters as the right-hand side and
    /// leaves as the solution. No heap allocation.
    ///
    /// # Panics
    /// Panics when `b.len() != self.dim()`.
    pub fn solve_in_place(&self, b: &mut [Complex64]) {
        let n = self.dim();
        assert_eq!(b.len(), n, "solve_in_place: rhs length mismatch");
        // Apply the permutation by replaying the elimination-step swaps.
        for (k, &p) in self.ipiv.iter().enumerate() {
            if p != k {
                b.swap(k, p);
            }
        }
        let lu = self.lu.as_slice();
        // Forward substitution with unit-diagonal L.
        for i in 1..n {
            let (solved, rest) = b.split_at_mut(i);
            let mut acc = rest[0];
            for (l, &x) in lu[i * n..i * n + i].iter().zip(solved.iter()) {
                acc -= *l * x;
            }
            rest[0] = acc;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let (head, solved) = b.split_at_mut(i + 1);
            let mut acc = head[i];
            for (u, &x) in lu[i * n + i + 1..(i + 1) * n].iter().zip(solved.iter()) {
                acc -= *u * x;
            }
            head[i] = self.divs[i].divide(acc);
        }
    }

    /// Solves the transposed system `Aᵀ·y = b` in place (no conjugation).
    ///
    /// With `P·A = L·U` this is `Uᵀ·Lᵀ·P·y = b`: one forward sweep with
    /// `Uᵀ` (lower triangular), one backward sweep with `Lᵀ` (unit upper
    /// triangular), then the swap replay in reverse. This is the
    /// "adjugate row extraction" primitive of the fused determinantal
    /// kernels: column `c` of the cofactor matrix is
    /// `det(A) · (Aᵀ)⁻¹·e_c`.
    ///
    /// # Panics
    /// Panics when `b.len() != self.dim()`.
    pub fn solve_transpose_in_place(&self, b: &mut [Complex64]) {
        let n = self.dim();
        assert_eq!(b.len(), n, "solve_transpose_in_place: length mismatch");
        let lu = self.lu.as_slice();
        // Forward substitution with Uᵀ (diagonal division): column i of
        // U above the diagonal.
        for i in 0..n {
            let (solved, rest) = b.split_at_mut(i);
            let mut acc = rest[0];
            for (u, &x) in lu[i..].iter().step_by(n).zip(solved.iter()) {
                acc -= *u * x;
            }
            rest[0] = self.divs[i].divide(acc);
        }
        // Back substitution with Lᵀ (unit diagonal): column i of L below
        // the diagonal.
        for i in (0..n).rev() {
            let (head, solved) = b.split_at_mut(i + 1);
            let mut acc = head[i];
            for (l, &x) in lu[i * n + i..].iter().step_by(n).skip(1).zip(solved.iter()) {
                acc -= *l * x;
            }
            head[i] = acc;
        }
        // y = Pᵀ·w: replay the swaps in reverse order.
        for (k, &p) in self.ipiv.iter().enumerate().rev() {
            if p != k {
                b.swap(k, p);
            }
        }
    }

    /// Solves `A·X = B` column by column, operating in place on the
    /// output's strided columns (no per-column gather/scatter buffers).
    pub fn solve_mat(&self, b: &CMat) -> CMat {
        let n = self.dim();
        assert_eq!(b.rows(), n, "solve_mat: shape mismatch");
        // lint:allow(hot-path-alloc) — allocating convenience wrapper:
        // the result matrix is the output; hot paths solve column-wise
        // in place.
        let mut out = b.clone();
        for j in 0..out.cols() {
            // The same permutation + substitution sweeps as
            // `solve_in_place`, indexing one column of `out` directly.
            for k in 0..n {
                let p = self.ipiv[k];
                if p != k {
                    let (a, b) = (out[(k, j)], out[(p, j)]);
                    out[(k, j)] = b;
                    out[(p, j)] = a;
                }
            }
            for i in 1..n {
                let mut acc = out[(i, j)];
                for r in 0..i {
                    acc -= self.lu[(i, r)] * out[(r, j)];
                }
                out[(i, j)] = acc;
            }
            for i in (0..n).rev() {
                let mut acc = out[(i, j)];
                for r in i + 1..n {
                    acc -= self.lu[(i, r)] * out[(r, j)];
                }
                out[(i, j)] = self.divs[i].divide(acc);
            }
        }
        out
    }

    /// Inverse of the original matrix.
    pub fn inverse(&self) -> CMat {
        self.solve_mat(&CMat::identity(self.dim()))
    }
}

/// Pivot bookkeeping of one [`eliminate`] run.
pub(crate) struct Pivots {
    /// Permutation parity, `±1`.
    pub sign: f64,
    /// Largest pivot modulus.
    pub max: f64,
    /// Smallest pivot modulus.
    pub min: f64,
}

/// Partial-pivoting elimination `P·A = L·U` of the row-major `n × n`
/// matrix in `a`, in place: the routine behind both [`Lu::factor_into`]
/// and [`crate::DetCofactor`]'s stack-buffer determinant.
///
/// `a` leaves holding the packed `L`/`U` factors, `ipiv[k]` the row
/// swapped into place at step `k` and `divs[k]` the [`Divisor`] of pivot
/// `U[k][k]`. Singularity is detected against a threshold scaled by the
/// largest entry of `A`, so the result does not depend on the overall
/// scale of the matrix. On error the buffers are unspecified.
///
/// # Panics
/// Panics when the buffer lengths are not `n²`, `n` and `n`.
pub(crate) fn eliminate(
    a: &mut [Complex64],
    n: usize,
    ipiv: &mut [usize],
    divs: &mut [Divisor],
) -> Result<Pivots, LuError> {
    assert!(
        a.len() == n * n && ipiv.len() == n && divs.len() == n,
        "eliminate: buffer sizes"
    );
    // Scale for the singularity threshold: one sqrt over the whole
    // matrix instead of `hypot` per entry; fall back to the
    // overflow/underflow-safe per-entry form when squaring leaves the
    // finite range.
    let scale_sq = a.iter().map(|z| z.norm_sqr()).fold(0.0f64, f64::max);
    let scale = if scale_sq > 0.0 && scale_sq.is_finite() {
        scale_sq.sqrt()
    } else {
        a.iter()
            .map(|z| z.norm())
            .fold(0.0, f64::max)
            .max(f64::MIN_POSITIVE)
    };
    let tol = scale * 1e-14 * n as f64;
    let mut piv = Pivots {
        sign: 1.0,
        max: 0.0,
        min: f64::INFINITY,
    };
    for k in 0..n {
        // Partial pivoting: pick the largest modulus in column k (first
        // one on ties). Squared moduli avoid a `hypot` per candidate; the
        // sqrt-based scan below handles the under/overflow regime where
        // squares leave the finite nonzero range.
        let at = |i: usize| a[i * n + k];
        let mut best = k;
        let mut best_sq = at(k).norm_sqr();
        for i in k + 1..n {
            let v = at(i).norm_sqr();
            if v > best_sq {
                best = i;
                best_sq = v;
            }
        }
        let mut best_norm = best_sq.sqrt();
        if best_sq == 0.0 || !best_sq.is_finite() {
            best = k;
            best_norm = at(k).norm();
            for i in k + 1..n {
                let v = at(i).norm();
                if v > best_norm {
                    best = i;
                    best_norm = v;
                }
            }
        }
        if best_norm <= tol {
            return Err(LuError::Singular { step: k });
        }
        ipiv[k] = best;
        if best != k {
            let (upper, lower) = a.split_at_mut(best * n);
            upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
            piv.sign = -piv.sign;
        }
        piv.max = piv.max.max(best_norm);
        piv.min = piv.min.min(best_norm);
        let (upper, lower) = a.split_at_mut((k + 1) * n);
        let pivot_row = &upper[k * n..];
        let div = Divisor::new(pivot_row[k]);
        divs[k] = div;
        let u = &pivot_row[k + 1..];
        for row in lower.chunks_exact_mut(n) {
            let m = div.divide(row[k]);
            row[k] = m;
            if m == Complex64::ZERO {
                continue;
            }
            for (x, &uk) in row[k + 1..].iter_mut().zip(u) {
                *x -= m * uk;
            }
        }
    }
    Ok(piv)
}

/// The determinant `sign · ∏ U[i][i]` of an eliminated row-major
/// `n × n` buffer, multiplied in pivot order.
pub(crate) fn pivot_product(sign: f64, lu: &[Complex64], n: usize) -> Complex64 {
    let mut d = Complex64::real(sign);
    for &u in lu.iter().step_by(n + 1) {
        d *= u;
    }
    d
}

/// Fallible determinant of `A` via LU, returning zero for singular input
/// and `Err(LuError::NotSquare)` for non-square input.
///
/// Intersection-condition *residuals* use the singular-is-zero form: at a
/// solution the condition matrix is exactly singular and the residual is
/// zero, which `Lu::factor`'s error path would otherwise obscure. Long-
/// running callers (the batch service) use this entry point so a
/// malformed matrix surfaces as a recoverable error instead of taking
/// the process down.
pub fn try_det(a: &CMat) -> Result<Complex64, LuError> {
    match Lu::factor(a) {
        Ok(lu) => Ok(lu.det()),
        Err(LuError::Singular { .. }) => Ok(Complex64::ZERO),
        Err(e @ LuError::NotSquare) => Err(e),
    }
}

/// Convenience: determinant of `A` via LU, returning zero for singular input.
///
/// # Panics
/// Panics when `A` is not square — the hot numeric kernels construct
/// their condition matrices square by shape arithmetic, so this is a
/// programming error there. Code that takes matrices across a trust
/// boundary must use [`try_det`] instead.
pub fn det(a: &CMat) -> Complex64 {
    try_det(a).expect("det of non-square matrix (use try_det at trust boundaries)")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pieri_num::{random_complex, seeded_rng, unit_complex};

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    #[test]
    fn solve_roundtrip_random() {
        let mut rng = seeded_rng(10);
        for n in 1..=8 {
            let a = CMat::random(n, n, &mut rng, random_complex);
            let x: Vec<Complex64> = (0..n).map(|_| random_complex(&mut rng)).collect();
            let b = a.mul_vec(&x);
            let lu = Lu::factor(&a).expect("generic matrix is nonsingular");
            let xs = lu.solve(&b);
            for i in 0..n {
                assert!(xs[i].dist(x[i]) < 1e-9, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn det_of_identity_and_permutation() {
        assert!(det(&CMat::identity(5)).dist(Complex64::ONE) < 1e-14);
        // Swapping two rows of I flips the sign.
        let mut p = CMat::identity(4);
        p.swap_rows(0, 3);
        assert!(det(&p).dist(Complex64::real(-1.0)) < 1e-14);
    }

    #[test]
    fn det_of_diagonal() {
        let d = CMat::from_fn(3, 3, |i, j| {
            if i == j {
                c(i as f64 + 1.0, 1.0)
            } else {
                Complex64::ZERO
            }
        });
        let expect = c(1.0, 1.0) * c(2.0, 1.0) * c(3.0, 1.0);
        assert!(det(&d).dist(expect) < 1e-12);
    }

    #[test]
    fn det_is_multiplicative() {
        let mut rng = seeded_rng(11);
        let a = CMat::random(5, 5, &mut rng, random_complex);
        let b = CMat::random(5, 5, &mut rng, random_complex);
        let lhs = det(&(&a * &b));
        let rhs = det(&a) * det(&b);
        assert!(lhs.dist(rhs) < 1e-9 * (1.0 + rhs.norm()));
    }

    #[test]
    fn singular_matrix_detected() {
        // Rank-1 matrix.
        let a = CMat::from_fn(3, 3, |i, j| c((i + 1) as f64 * (j + 1) as f64, 0.0));
        match Lu::factor(&a) {
            Err(LuError::Singular { .. }) => {}
            other => panic!("expected singular, got {other:?}"),
        }
        assert_eq!(det(&a), Complex64::ZERO);
    }

    #[test]
    fn not_square_is_an_error() {
        assert_eq!(
            Lu::factor(&CMat::zeros(2, 3)).unwrap_err(),
            LuError::NotSquare
        );
    }

    #[test]
    fn try_det_reports_non_square_without_panicking() {
        assert_eq!(try_det(&CMat::zeros(2, 3)), Err(LuError::NotSquare));
        let mut rng = seeded_rng(14);
        let a = CMat::random(4, 4, &mut rng, random_complex);
        assert_eq!(try_det(&a), Ok(det(&a)));
        // Singular input is a zero determinant, not an error.
        let s = CMat::from_fn(3, 3, |i, j| c((i + 1) as f64 * (j + 1) as f64, 0.0));
        assert_eq!(try_det(&s), Ok(Complex64::ZERO));
    }

    #[test]
    fn inverse_multiplies_to_identity() {
        let mut rng = seeded_rng(12);
        let a = CMat::random(6, 6, &mut rng, unit_complex);
        let inv = Lu::factor(&a).unwrap().inverse();
        let prod = &a * &inv;
        let err = (&prod - &CMat::identity(6)).fro_norm();
        assert!(err < 1e-9, "‖A·A⁻¹ − I‖ = {err}");
    }

    #[test]
    fn solve_mat_matches_solve() {
        let mut rng = seeded_rng(13);
        let a = CMat::random(4, 4, &mut rng, random_complex);
        let b = CMat::random(4, 2, &mut rng, random_complex);
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve_mat(&b);
        for j in 0..2 {
            let xj = lu.solve(&b.col(j));
            for i in 0..4 {
                assert!(x[(i, j)].dist(xj[i]) < 1e-12);
            }
        }
    }

    #[test]
    fn factor_into_reuses_storage_and_matches_factor() {
        let mut rng = seeded_rng(15);
        let mut slot = Lu::default();
        for n in [3usize, 5, 5, 2, 6] {
            let a = CMat::random(n, n, &mut rng, random_complex);
            Lu::factor_into(&a, &mut slot).expect("generic matrix factors");
            let fresh = Lu::factor(&a).unwrap();
            assert_eq!(slot.det(), fresh.det(), "n={n}: bitwise same det");
            let b: Vec<Complex64> = (0..n).map(|_| random_complex(&mut rng)).collect();
            assert_eq!(slot.solve(&b), fresh.solve(&b), "n={n}: bitwise same solve");
        }
    }

    #[test]
    fn solve_in_place_matches_solve() {
        let mut rng = seeded_rng(16);
        for n in 1..=7 {
            let a = CMat::random(n, n, &mut rng, random_complex);
            let b: Vec<Complex64> = (0..n).map(|_| random_complex(&mut rng)).collect();
            let lu = Lu::factor(&a).unwrap();
            let x = lu.solve(&b);
            let mut y = b.clone();
            lu.solve_in_place(&mut y);
            assert_eq!(x, y, "n={n}: identical bits");
        }
    }

    #[test]
    fn solve_transpose_solves_the_transposed_system() {
        let mut rng = seeded_rng(17);
        for n in 1..=7 {
            let a = CMat::random(n, n, &mut rng, random_complex);
            let x: Vec<Complex64> = (0..n).map(|_| random_complex(&mut rng)).collect();
            let b = a.transpose().mul_vec(&x);
            let lu = Lu::factor(&a).unwrap();
            let mut y = b.clone();
            lu.solve_transpose_in_place(&mut y);
            for i in 0..n {
                assert!(y[i].dist(x[i]) < 1e-9, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn scale_invariant_singularity_threshold() {
        // A tiny but perfectly conditioned matrix must factor.
        let a = CMat::identity(3).scale(c(1e-200, 0.0));
        assert!(Lu::factor(&a).is_ok());
    }
}
