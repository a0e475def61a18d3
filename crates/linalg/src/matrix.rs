//! Dense row-major complex matrices.

use pieri_num::Complex64;
use rand::Rng;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense complex matrix stored in row-major order.
///
/// Indexing is zero-based: `m[(i, j)]` is the entry in row `i`, column `j`.
/// All shape mismatches panic — in this workspace shapes are static
/// properties of the algorithms (a condition matrix is always
/// `(m+p) × (m+p)`), so a mismatch is a programming error, not an input
/// error.
#[derive(Clone, PartialEq)]
pub struct CMat {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl CMat {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMat {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Builds a matrix from a function of the index pair.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        CMat { rows, cols, data }
    }

    /// Builds a matrix from rows given as nested slices (for tests/examples).
    ///
    /// # Panics
    /// Panics when the rows have unequal lengths.
    pub fn from_rows(rows: &[Vec<Complex64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            data.extend_from_slice(row);
        }
        CMat {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds a matrix with independent entries drawn by `gen`.
    pub fn random<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        rng: &mut R,
        mut gen: impl FnMut(&mut R) -> Complex64,
    ) -> Self {
        CMat::from_fn(rows, cols, |_, _| gen(rng))
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True for `n × n` matrices.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of the backing storage (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable view of the backing storage (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[Complex64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [Complex64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a vector.
    pub fn col(&self, j: usize) -> Vec<Complex64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Writes `v` into column `j`.
    ///
    /// # Panics
    /// Panics when `v.len() != self.rows()`.
    pub fn set_col(&mut self, j: usize, v: &[Complex64]) {
        assert_eq!(v.len(), self.rows, "column length mismatch");
        for i in 0..self.rows {
            self[(i, j)] = v[i];
        }
    }

    /// Overwrites `self` with the entries of `src` without reallocating.
    ///
    /// # Panics
    /// Panics when the shapes differ.
    #[inline]
    pub fn copy_from(&mut self, src: &CMat) {
        assert_eq!(
            (self.rows, self.cols),
            (src.rows, src.cols),
            "copy_from: shape mismatch"
        );
        self.data.copy_from_slice(&src.data);
    }

    /// Transpose (no conjugation).
    pub fn transpose(&self) -> CMat {
        CMat::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Conjugate transpose `Aᴴ`.
    pub fn conj_transpose(&self) -> CMat {
        CMat::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// This is the workhorse of intersection conditions: the Pieri condition
    /// on a `p`-plane `X` and an `m`-plane `L` is `det [X | L] = 0`.
    ///
    /// # Panics
    /// Panics when row counts differ.
    pub fn hstack(&self, other: &CMat) -> CMat {
        assert_eq!(self.rows, other.rows, "hstack: row mismatch");
        CMat::from_fn(self.rows, self.cols + other.cols, |i, j| {
            if j < self.cols {
                self[(i, j)]
            } else {
                other[(i, j - self.cols)]
            }
        })
    }

    /// Horizontal concatenation `[self | other]` into an existing matrix,
    /// reusing `out`'s storage — the zero-allocation form of
    /// [`CMat::hstack`] used by the fused determinantal kernels.
    ///
    /// # Panics
    /// Panics when the row counts differ or `out` has the wrong shape.
    pub fn hstack_into(&self, other: &CMat, out: &mut CMat) {
        assert_eq!(self.rows, other.rows, "hstack_into: row mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, self.cols + other.cols),
            "hstack_into: output shape mismatch"
        );
        for i in 0..self.rows {
            let dst = &mut out.data[i * out.cols..(i + 1) * out.cols];
            dst[..self.cols].copy_from_slice(self.row(i));
            dst[self.cols..].copy_from_slice(other.row(i));
        }
    }

    /// Vertical concatenation of `self` on top of `other`.
    ///
    /// # Panics
    /// Panics when column counts differ.
    pub fn vstack(&self, other: &CMat) -> CMat {
        assert_eq!(self.cols, other.cols, "vstack: column mismatch");
        CMat::from_fn(self.rows + other.rows, self.cols, |i, j| {
            if i < self.rows {
                self[(i, j)]
            } else {
                other[(i - self.rows, j)]
            }
        })
    }

    /// Copies the contiguous block with top-left corner `(r0, c0)` and the
    /// given shape.
    pub fn submatrix(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> CMat {
        assert!(
            r0 + rows <= self.rows && c0 + cols <= self.cols,
            "submatrix out of range"
        );
        CMat::from_fn(rows, cols, |i, j| self[(r0 + i, c0 + j)])
    }

    /// The `(n−1) × (n−1)` minor obtained by deleting row `r` and column `c`.
    pub fn minor(&self, r: usize, c: usize) -> CMat {
        assert!(self.rows > 0 && self.cols > 0);
        let mut out = CMat::zeros(self.rows - 1, self.cols - 1);
        self.minor_into(r, c, &mut out);
        out
    }

    /// [`CMat::minor`] into an existing `(n−1) × (n−1)` matrix — the
    /// zero-allocation form used by the near-singular cofactor fallback.
    ///
    /// # Panics
    /// Panics when `out` has the wrong shape.
    pub fn minor_into(&self, r: usize, c: usize, out: &mut CMat) {
        assert!(self.rows > 0 && self.cols > 0);
        assert_eq!(
            (out.rows, out.cols),
            (self.rows - 1, self.cols - 1),
            "minor_into: output shape mismatch"
        );
        for i in 0..self.rows - 1 {
            let ii = if i < r { i } else { i + 1 };
            for j in 0..self.cols - 1 {
                let jj = if j < c { j } else { j + 1 };
                out[(i, j)] = self[(ii, jj)];
            }
        }
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    /// Panics when `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(x.len(), self.cols, "mul_vec: dimension mismatch");
        let mut y = vec![Complex64::ZERO; self.rows];
        for i in 0..self.rows {
            let row = self.row(i);
            let mut acc = Complex64::ZERO;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += *a * *b;
            }
            y[i] = acc;
        }
        y
    }

    /// Scales every entry by `k`.
    pub fn scale(&self, k: Complex64) -> CMat {
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| *z * k).collect(),
        }
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Max-row-sum (infinity) norm.
    pub fn inf_norm(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row(i).iter().map(|z| z.norm()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Largest entry modulus.
    pub fn max_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm()).fold(0.0, f64::max)
    }

    /// True when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|z| z.is_finite())
    }

    /// Trace (sum of diagonal entries).
    ///
    /// # Panics
    /// Panics for non-square matrices.
    pub fn trace(&self) -> Complex64 {
        assert!(self.is_square(), "trace of non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Swaps rows `a` and `b` in place.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(a * self.cols + j, b * self.cols + j);
        }
    }
}

impl Index<(usize, usize)> for CMat {
    type Output = Complex64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Complex64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for CMat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &CMat {
    type Output = CMat;
    fn add(self, rhs: &CMat) -> CMat {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add: shape mismatch"
        );
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &CMat {
    type Output = CMat;
    fn sub(self, rhs: &CMat) -> CMat {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "sub: shape mismatch"
        );
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Neg for &CMat {
    type Output = CMat;
    fn neg(self) -> CMat {
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|a| -*a).collect(),
        }
    }
}

impl Mul for &CMat {
    type Output = CMat;
    fn mul(self, rhs: &CMat) -> CMat {
        assert_eq!(self.cols, rhs.rows, "mul: inner dimension mismatch");
        let mut out = CMat::zeros(self.rows, rhs.cols);
        // i-k-j loop order keeps the inner loop contiguous in both `rhs`
        // and `out` (row-major), which the optimizer vectorises well.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == Complex64::ZERO {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, r) in orow.iter_mut().zip(rrow.iter()) {
                    *o += a * *r;
                }
            }
        }
        out
    }
}

impl fmt::Debug for CMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:?} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pieri_num::{random_complex, seeded_rng};

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let mut rng = seeded_rng(1);
        let a = CMat::random(4, 4, &mut rng, random_complex);
        let i = CMat::identity(4);
        assert_eq!(&a * &i, a);
        assert_eq!(&i * &a, a);
    }

    #[test]
    fn mul_known_values() {
        let a = CMat::from_rows(&[
            vec![c(1.0, 0.0), c(2.0, 0.0)],
            vec![c(0.0, 1.0), c(0.0, 0.0)],
        ]);
        let b = CMat::from_rows(&[
            vec![c(1.0, 0.0), c(0.0, 0.0)],
            vec![c(0.0, 0.0), c(3.0, 0.0)],
        ]);
        let ab = &a * &b;
        assert_eq!(ab[(0, 0)], c(1.0, 0.0));
        assert_eq!(ab[(0, 1)], c(6.0, 0.0));
        assert_eq!(ab[(1, 0)], c(0.0, 1.0));
        assert_eq!(ab[(1, 1)], c(0.0, 0.0));
    }

    #[test]
    fn transpose_involution_and_conj() {
        let mut rng = seeded_rng(2);
        let a = CMat::random(3, 5, &mut rng, random_complex);
        assert_eq!(a.transpose().transpose(), a);
        let h = a.conj_transpose();
        assert_eq!(h.rows(), 5);
        assert_eq!(h[(2, 1)], a[(1, 2)].conj());
    }

    #[test]
    fn hstack_vstack_shapes_and_content() {
        let a = CMat::identity(2);
        let b = CMat::zeros(2, 3);
        let h = a.hstack(&b);
        assert_eq!((h.rows(), h.cols()), (2, 5));
        assert_eq!(h[(1, 1)], Complex64::ONE);
        assert_eq!(h[(1, 4)], Complex64::ZERO);
        let v = a.vstack(&CMat::identity(2));
        assert_eq!((v.rows(), v.cols()), (4, 2));
        assert_eq!(v[(3, 1)], Complex64::ONE);
    }

    #[test]
    fn minor_removes_row_and_col() {
        let a = CMat::from_fn(3, 3, |i, j| c((3 * i + j) as f64, 0.0));
        let m = a.minor(1, 0);
        assert_eq!(m[(0, 0)], c(1.0, 0.0)); // was (0,1)
        assert_eq!(m[(1, 1)], c(8.0, 0.0)); // was (2,2)
    }

    #[test]
    fn mul_vec_matches_matrix_mul() {
        let mut rng = seeded_rng(3);
        let a = CMat::random(4, 3, &mut rng, random_complex);
        let x: Vec<Complex64> = (0..3).map(|_| random_complex(&mut rng)).collect();
        let y = a.mul_vec(&x);
        let xm = CMat::from_fn(3, 1, |i, _| x[i]);
        let ym = &a * &xm;
        for i in 0..4 {
            assert!(y[i].dist(ym[(i, 0)]) < 1e-12);
        }
    }

    #[test]
    fn norms_are_consistent() {
        let a = CMat::from_rows(&[vec![c(3.0, 4.0)]]);
        assert!((a.fro_norm() - 5.0).abs() < 1e-12);
        assert!((a.inf_norm() - 5.0).abs() < 1e-12);
        assert!((a.max_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn trace_sums_diagonal() {
        let a = CMat::from_fn(3, 3, |i, j| {
            if i == j {
                c(i as f64 + 1.0, 1.0)
            } else {
                c(9.0, 9.0)
            }
        });
        assert_eq!(a.trace(), c(6.0, 3.0));
    }

    #[test]
    fn swap_rows_swaps() {
        let mut a = CMat::from_fn(3, 2, |i, _| c(i as f64, 0.0));
        a.swap_rows(0, 2);
        assert_eq!(a[(0, 0)], c(2.0, 0.0));
        assert_eq!(a[(2, 1)], c(0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "hstack")]
    fn hstack_mismatch_panics() {
        let _ = CMat::zeros(2, 2).hstack(&CMat::zeros(3, 2));
    }

    #[test]
    fn copy_from_and_hstack_into_match_allocating_forms() {
        let mut rng = seeded_rng(4);
        let a = CMat::random(3, 2, &mut rng, random_complex);
        let b = CMat::random(3, 4, &mut rng, random_complex);
        let mut out = CMat::zeros(3, 6);
        a.hstack_into(&b, &mut out);
        assert_eq!(out, a.hstack(&b));
        let mut copy = CMat::zeros(3, 6);
        copy.copy_from(&out);
        assert_eq!(copy, out);
    }

    #[test]
    fn minor_into_matches_minor() {
        let mut rng = seeded_rng(5);
        let a = CMat::random(5, 5, &mut rng, random_complex);
        let mut out = CMat::zeros(4, 4);
        for r in 0..5 {
            for c in 0..5 {
                a.minor_into(r, c, &mut out);
                assert_eq!(out, a.minor(r, c), "minor ({r},{c})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "copy_from")]
    fn copy_from_shape_mismatch_panics() {
        let mut a = CMat::zeros(2, 2);
        a.copy_from(&CMat::zeros(3, 2));
    }

    #[test]
    fn set_col_roundtrip() {
        let mut a = CMat::zeros(3, 2);
        let v = vec![c(1.0, 1.0), c(2.0, 2.0), c(3.0, 3.0)];
        a.set_col(1, &v);
        assert_eq!(a.col(1), v);
        assert_eq!(a.col(0), vec![Complex64::ZERO; 3]);
    }
}
