//! The homotopy abstraction and the convex linear homotopy.

use crate::workspace::HomotopyScratch;
use pieri_linalg::CMat;
use pieri_num::Complex64;
use pieri_poly::PolySystem;

/// A continuously deformed square polynomial system `H(x, t)`, `t ∈ [0,1]`,
/// with `H(·, 0)` the start system and `H(·, 1)` the target.
///
/// Implementors must be `Sync`: the parallel drivers of `pieri-parallel`
/// share one homotopy across worker threads.
pub trait Homotopy: Sync {
    /// Number of variables (= number of equations).
    fn dim(&self) -> usize;

    /// Evaluates `H(x, t)` into `out` (length [`Homotopy::dim`]).
    fn eval(&self, x: &[Complex64], t: f64, out: &mut [Complex64]);

    /// Evaluates the Jacobian `∂H/∂x` at `(x, t)` into `out`
    /// (`dim × dim`).
    fn jacobian_x(&self, x: &[Complex64], t: f64, out: &mut CMat);

    /// Evaluates `∂H/∂t` at `(x, t)` into `out`.
    fn dt(&self, x: &[Complex64], t: f64, out: &mut [Complex64]);

    /// Evaluates `H(x, t)` and `∂H/∂x` together — the fused kernel of the
    /// Newton corrector.
    ///
    /// The default implementation is the two separate calls; determinantal
    /// homotopies override it so each condition matrix is built **once**
    /// and a single LU factorisation yields both the residual entry (the
    /// determinant) and the Jacobian row (cofactor entries), with
    /// `scratch` carrying the reusable condition/cofactor storage.
    /// Implementations must agree with `eval` + `jacobian_x` up to
    /// numerical roundoff (the fused-vs-reference property tests pin
    /// this).
    fn eval_and_jacobian(
        &self,
        x: &[Complex64],
        t: f64,
        fx: &mut [Complex64],
        jac: &mut CMat,
        scratch: &mut HomotopyScratch,
    ) {
        let _ = scratch;
        self.eval(x, t, fx);
        self.jacobian_x(x, t, jac);
    }

    /// Evaluates `∂H/∂x` and `∂H/∂t` together — the fused kernel of the
    /// Davidenko tangent system driving every predictor step.
    ///
    /// Same contract as [`Homotopy::eval_and_jacobian`]: the default is
    /// the two separate calls, determinantal homotopies share one
    /// condition-matrix build and one cofactor evaluation between the
    /// Jacobian row and the `∂H/∂t` contraction.
    fn jacobian_and_dt(
        &self,
        x: &[Complex64],
        t: f64,
        jac: &mut CMat,
        ht: &mut [Complex64],
        scratch: &mut HomotopyScratch,
    ) {
        let _ = scratch;
        self.jacobian_x(x, t, jac);
        self.dt(x, t, ht);
    }

    /// True when every path ends at a regular, finite solution at
    /// `t = 1`, as the paths of a generic Pieri homotopy do
    /// (Huber–Sottile–Sturmfels). The tracker then runs no geometric
    /// endgame and never reports [`crate::PathStatus::Diverged`]: a
    /// corrected point beyond the divergence threshold is a path jump
    /// and rejects the step, and a path that still cannot finish ends
    /// [`crate::PathStatus::Failed`], which re-tracking
    /// ([`crate::TrackSettings::retrack`]) retries.
    ///
    /// The default is `false`: homotopies whose paths may diverge or end
    /// singular (the `systems` experiments, continuation to application
    /// data) keep the endgame and its divergence verdicts. Their paths
    /// that approach `t = 1` analytically leave the endgame early (see
    /// [`crate::track_path`]).
    fn regular_endpoints(&self) -> bool {
        false
    }

    /// Residual `‖H(x,t)‖∞`, used for reporting.
    fn residual(&self, x: &[Complex64], t: f64) -> f64 {
        let mut buf = vec![Complex64::ZERO; self.dim()];
        self.eval(x, t, &mut buf);
        buf.iter().map(|z| z.norm()).fold(0.0, f64::max)
    }
}

/// The classical convex homotopy with the gamma trick:
///
/// ```text
/// H(x, t) = γ·(1−t)·G(x) + t·F(x)
/// ```
///
/// For all but finitely many unit-modulus `γ` the solution paths are
/// regular and bounded on `t ∈ [0,1)` (probability one when `γ` is drawn
/// at random), which is eq. (1) of the paper.
pub struct LinearHomotopy {
    start: PolySystem,
    target: PolySystem,
    gamma: Complex64,
}

impl LinearHomotopy {
    /// Builds the homotopy; `gamma` should come from
    /// [`pieri_num::random_gamma`].
    ///
    /// # Panics
    /// Panics when the systems are not square of equal dimensions.
    pub fn new(start: PolySystem, target: PolySystem, gamma: Complex64) -> Self {
        assert!(
            start.is_square() && target.is_square(),
            "homotopy systems must be square"
        );
        assert_eq!(
            start.nvars(),
            target.nvars(),
            "start/target dimension mismatch"
        );
        LinearHomotopy {
            start,
            target,
            gamma,
        }
    }

    /// The start system `G`.
    pub fn start(&self) -> &PolySystem {
        &self.start
    }

    /// The target system `F`.
    pub fn target(&self) -> &PolySystem {
        &self.target
    }

    /// The gamma constant.
    pub fn gamma(&self) -> Complex64 {
        self.gamma
    }
}

impl Homotopy for LinearHomotopy {
    fn dim(&self) -> usize {
        self.start.nvars()
    }

    fn eval(&self, x: &[Complex64], t: f64, out: &mut [Complex64]) {
        let n = self.dim();
        debug_assert_eq!(out.len(), n);
        let g = self.start.eval(x);
        let f = self.target.eval(x);
        let gw = self.gamma.scale(1.0 - t);
        for i in 0..n {
            out[i] = gw * g[i] + f[i].scale(t);
        }
    }

    fn jacobian_x(&self, x: &[Complex64], t: f64, out: &mut CMat) {
        let n = self.dim();
        debug_assert_eq!((out.rows(), out.cols()), (n, n));
        let jg = self.start.jacobian(x);
        let jf = self.target.jacobian(x);
        let gw = self.gamma.scale(1.0 - t);
        for i in 0..n {
            for j in 0..n {
                out[(i, j)] = gw * jg[(i, j)] + jf[(i, j)].scale(t);
            }
        }
    }

    fn dt(&self, x: &[Complex64], _t: f64, out: &mut [Complex64]) {
        let n = self.dim();
        debug_assert_eq!(out.len(), n);
        let g = self.start.eval(x);
        let f = self.target.eval(x);
        for i in 0..n {
            out[i] = f[i] - self.gamma * g[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pieri_poly::Poly;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    fn univar(coeffs: &[f64]) -> PolySystem {
        // Builds the univariate polynomial Σ coeffs[k]·x^k as a 1-d system.
        let x = Poly::var(1, 0);
        let mut p = Poly::zero(1);
        for (k, &ck) in coeffs.iter().enumerate() {
            p = p.add(&x.pow(k as u32).scale(c(ck, 0.0)));
        }
        PolySystem::new(vec![p])
    }

    #[test]
    fn endpoints_interpolate_start_and_target() {
        let g = univar(&[-1.0, 0.0, 1.0]); // x² − 1
        let f = univar(&[-4.0, 0.0, 1.0]); // x² − 4
        let h = LinearHomotopy::new(g, f, Complex64::ONE);
        let x = [c(3.0, 0.0)];
        let mut out = [Complex64::ZERO];
        h.eval(&x, 0.0, &mut out);
        assert!(out[0].dist(c(8.0, 0.0)) < 1e-13); // γ·G(3) = 8
        h.eval(&x, 1.0, &mut out);
        assert!(out[0].dist(c(5.0, 0.0)) < 1e-13); // F(3) = 5
    }

    #[test]
    fn dt_matches_finite_difference() {
        let g = univar(&[-1.0, 0.0, 1.0]);
        let f = univar(&[1.0, 2.0, 3.0]);
        let h = LinearHomotopy::new(g, f, c(0.6, 0.8));
        let x = [c(0.7, -0.2)];
        let mut dt = [Complex64::ZERO];
        h.dt(&x, 0.4, &mut dt);
        let mut a = [Complex64::ZERO];
        let mut b = [Complex64::ZERO];
        h.eval(&x, 0.4 + 1e-7, &mut a);
        h.eval(&x, 0.4 - 1e-7, &mut b);
        let fd = (a[0] - b[0]) / 2e-7;
        assert!(fd.dist(dt[0]) < 1e-6);
    }

    #[test]
    fn jacobian_matches_finite_difference() {
        let g = univar(&[-1.0, 0.0, 0.0, 1.0]);
        let f = univar(&[2.0, -1.0, 0.0, 1.0]);
        let h = LinearHomotopy::new(g, f, c(0.0, 1.0));
        let x = [c(0.3, 0.5)];
        let mut j = CMat::zeros(1, 1);
        h.jacobian_x(&x, 0.25, &mut j);
        let mut a = [Complex64::ZERO];
        let mut b = [Complex64::ZERO];
        h.eval(&[x[0] + c(1e-7, 0.0)], 0.25, &mut a);
        h.eval(&[x[0] - c(1e-7, 0.0)], 0.25, &mut b);
        let fd = (a[0] - b[0]) / 2e-7;
        assert!(fd.dist(j[(0, 0)]) < 1e-6);
    }

    #[test]
    fn residual_zero_at_start_roots() {
        let g = univar(&[-1.0, 0.0, 1.0]);
        let f = univar(&[-4.0, 0.0, 1.0]);
        let h = LinearHomotopy::new(g, f, c(0.3, -0.95));
        assert!(h.residual(&[c(1.0, 0.0)], 0.0) < 1e-14);
        assert!(h.residual(&[c(-1.0, 0.0)], 0.0) < 1e-14);
        assert!(h.residual(&[c(2.0, 0.0)], 1.0) < 1e-14);
    }
}
