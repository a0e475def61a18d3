//! Newton's method as the corrector of the predictor–corrector scheme.
//!
//! lint:hot-path — runs every corrector iteration of every step; all
//! scratch lives in the caller's [`TrackWorkspace`].

use crate::homotopy::Homotopy;
use crate::workspace::TrackWorkspace;
use pieri_linalg::{inf_norm, Lu};
use pieri_num::Complex64;

/// Result of a Newton correction at fixed `t`.
#[derive(Debug, Clone, Copy)]
pub struct NewtonOutcome {
    /// True when the last update step was below the requested tolerance.
    pub converged: bool,
    /// `‖H(x,t)‖∞` at the last evaluated point: the iterate the final
    /// update started from, since the corrector does not evaluate again
    /// after its last update. `∞` when no iteration ran. A caller that
    /// needs the residual at the corrected `x` evaluates it there.
    pub residual: f64,
    /// Size of the last Newton update `‖Δx‖∞`.
    pub last_step: f64,
    /// Iterations actually performed.
    pub iters: usize,
    /// True when a Jacobian was singular to working precision (the
    /// iteration then stops early and reports non-convergence).
    pub singular: bool,
}

/// Runs Newton's method on `x ↦ H(x, t)` at fixed `t`, correcting `x` in
/// place.
///
/// Convergence is declared when the update norm `‖Δx‖∞` falls below `tol`
/// (an error-estimate criterion, which is what PHCpack uses; residual
/// tolerance alone is scale-dependent). The iteration also stops early
/// when the update norm *grows* by more than 4× — that is a diverging
/// Newton iteration and more steps only waste time.
pub fn newton_correct<H: Homotopy + ?Sized>(
    h: &H,
    x: &mut [Complex64],
    t: f64,
    tol: f64,
    max_iters: usize,
) -> NewtonOutcome {
    let mut ws = TrackWorkspace::new();
    newton_correct_with(h, x, t, tol, max_iters, &mut ws)
}

/// [`newton_correct`] against a caller-owned [`TrackWorkspace`] — the
/// zero-allocation form used by the path tracker.
///
/// Each iteration makes one fused [`Homotopy::eval_and_jacobian`] call
/// (one condition-matrix build instead of two for determinantal
/// homotopies), negates the residual directly into the solve buffer and
/// solves in place on the reused LU storage. Convergence is tested on
/// the update just applied, and the routine returns at once: the
/// corrected point is never evaluated again, so `iters` equals the
/// number of fused evaluations. Every iteration applied an update to `x`
/// except a final one that found the Jacobian singular (which still did
/// the evaluation work it is billed for).
pub fn newton_correct_with<H: Homotopy + ?Sized>(
    h: &H,
    x: &mut [Complex64],
    t: f64,
    tol: f64,
    max_iters: usize,
    ws: &mut TrackWorkspace,
) -> NewtonOutcome {
    let n = h.dim();
    debug_assert_eq!(x.len(), n);
    ws.ensure(n);
    let TrackWorkspace {
        fx,
        rhs,
        jac,
        lu,
        scratch,
        ..
    } = ws;
    let mut last_step = f64::INFINITY;

    for iters in 1..=max_iters {
        h.eval_and_jacobian(x, t, fx, jac, scratch);
        if Lu::factor_into(jac, lu).is_err() {
            return NewtonOutcome {
                converged: false,
                residual: inf_norm(fx),
                last_step,
                iters,
                singular: true,
            };
        }
        for (r, f) in rhs.iter_mut().zip(fx.iter()) {
            *r = -*f;
        }
        lu.solve_in_place(rhs);
        for (xi, di) in x.iter_mut().zip(rhs.iter()) {
            *xi += *di;
        }
        let prev_step = last_step;
        last_step = inf_norm(rhs);
        let converged = last_step <= tol * (1.0 + inf_norm(x));
        // A growing update is a diverging iteration (the predictor
        // overshot): more steps only waste time.
        if converged || last_step > 4.0 * prev_step || iters == max_iters {
            return NewtonOutcome {
                converged,
                residual: inf_norm(fx),
                last_step,
                iters,
                singular: false,
            };
        }
    }
    NewtonOutcome {
        converged: false,
        residual: f64::INFINITY,
        last_step,
        iters: 0,
        singular: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::homotopy::LinearHomotopy;
    use pieri_num::Complex64;
    use pieri_poly::{Poly, PolySystem};

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    fn squares_minus(a: f64, b: f64) -> PolySystem {
        // {x² − a, y² − b}
        let x = Poly::var(2, 0);
        let y = Poly::var(2, 1);
        PolySystem::new(vec![
            x.mul(&x).sub(&Poly::constant(2, c(a, 0.0))),
            y.mul(&y).sub(&Poly::constant(2, c(b, 0.0))),
        ])
    }

    fn fixed_t_homotopy() -> LinearHomotopy {
        // At t = 1 this is exactly the target system; Newton at t = 1 is
        // plain root polishing.
        LinearHomotopy::new(
            squares_minus(1.0, 1.0),
            squares_minus(4.0, 9.0),
            Complex64::ONE,
        )
    }

    #[test]
    fn quadratic_convergence_from_close_guess() {
        let h = fixed_t_homotopy();
        let mut x = [c(2.1, 0.05), c(-2.9, -0.1)];
        let out = newton_correct(&h, &mut x, 1.0, 1e-12, 10);
        assert!(out.converged, "{out:?}");
        assert!(
            out.iters <= 6,
            "quadratic convergence expected, got {}",
            out.iters
        );
        assert!(x[0].dist(c(2.0, 0.0)) < 1e-10);
        assert!(x[1].dist(c(-3.0, 0.0)) < 1e-10);
        assert!(out.residual < 1e-10);
    }

    #[test]
    fn reports_failure_from_far_guess_with_few_iters() {
        let h = fixed_t_homotopy();
        let mut x = [c(50.0, 30.0), c(-80.0, 10.0)];
        let out = newton_correct(&h, &mut x, 1.0, 1e-12, 2);
        assert!(!out.converged);
    }

    #[test]
    fn singular_jacobian_detected() {
        let h = fixed_t_homotopy();
        // Jacobian of {x²−4, y²−9} is diag(2x, 2y): singular at x = 0.
        let mut x = [c(0.0, 0.0), c(0.0, 0.0)];
        let out = newton_correct(&h, &mut x, 1.0, 1e-12, 5);
        assert!(out.singular);
        assert!(!out.converged);
    }

    #[test]
    fn converges_at_intermediate_t() {
        let h = fixed_t_homotopy();
        // Solve H(x, 0.5) = 0 starting near the t=0 root (1,1).
        let mut x = [c(1.0, 0.0), c(1.0, 0.0)];
        let out = newton_correct(&h, &mut x, 0.5, 1e-12, 20);
        assert!(out.converged, "{out:?}");
        assert!(h.residual(&x, 0.5) < 1e-10);
    }
}
