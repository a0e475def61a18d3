//! The predictor: one classical fourth-order Runge–Kutta step.
//!
//! lint:hot-path — the `*_into` entry points run once per step and must
//! not allocate; only the documented allocating convenience wrapper
//! [`tangent`] may, and it says so inline.
//!
//! The solution path `x(t)` of `H(x(t), t) = 0` obeys the Davidenko ODE
//!
//! ```text
//! ∂H/∂x · dx/dt = −∂H/∂t ,
//! ```
//!
//! so a predictor is an ODE step; the Newton corrector then pulls the
//! prediction back onto the path. Every path the workspace tracks (Pieri
//! tree jobs, instance continuations, the `systems` experiments) steps
//! with Runge–Kutta, four tangent solves per step. A different step rule
//! replaces [`predict_into`] rather than joining it.

use crate::homotopy::Homotopy;
use crate::workspace::TrackWorkspace;
use pieri_linalg::Lu;
use pieri_num::Complex64;

/// Solves the Davidenko system for the tangent `dx/dt` at `(x, t)`.
///
/// Returns `None` when the Jacobian is singular to working precision.
pub fn tangent<H: Homotopy + ?Sized>(h: &H, x: &[Complex64], t: f64) -> Option<Vec<Complex64>> {
    let mut ws = TrackWorkspace::new();
    // lint:allow(hot-path-alloc) — allocating convenience wrapper; the
    // tracker itself uses `tangent_into` with a reused workspace.
    let mut out = vec![Complex64::ZERO; h.dim()];
    tangent_into(h, x, t, &mut out, &mut ws).then_some(out)
}

/// [`tangent`] against a caller-owned workspace: one fused
/// [`Homotopy::jacobian_and_dt`] call, an in-place solve on the reused LU
/// storage, and no heap allocation. Returns `false` (leaving `out`
/// unspecified) when the Jacobian is singular to working precision.
///
/// # Panics
/// Panics when `out.len() != h.dim()`.
pub fn tangent_into<H: Homotopy + ?Sized>(
    h: &H,
    x: &[Complex64],
    t: f64,
    out: &mut [Complex64],
    ws: &mut TrackWorkspace,
) -> bool {
    let n = h.dim();
    assert_eq!(out.len(), n, "tangent_into: output length mismatch");
    ws.ensure(n);
    let TrackWorkspace {
        ht,
        jac,
        lu,
        scratch,
        ..
    } = ws;
    h.jacobian_and_dt(x, t, jac, ht, scratch);
    if Lu::factor_into(jac, lu).is_err() {
        return false;
    }
    for (o, z) in out.iter_mut().zip(ht.iter()) {
        *o = -*z;
    }
    lu.solve_in_place(out);
    true
}

/// Predicts `x(t + dt)` from `x(t)` into `out` with one classical
/// fourth-order Runge–Kutta step on the Davidenko ODE: four tangent
/// solves, with the stages and the midpoint in the workspace's reused
/// buffers, so steady-state prediction performs no heap allocation.
/// Returns `false` (leaving `out` unspecified) when a Jacobian is
/// singular to working precision; the driver then rejects the step and
/// shrinks `dt`.
///
/// # Panics
/// Panics when `out.len() != h.dim()`.
pub(crate) fn predict_into<H: Homotopy + ?Sized>(
    h: &H,
    x: &[Complex64],
    t: f64,
    dt: f64,
    out: &mut [Complex64],
    ws: &mut TrackWorkspace,
) -> bool {
    let n = h.dim();
    assert_eq!(out.len(), n, "predict_into: output length mismatch");
    ws.ensure(n);
    // The stages leave the workspace while it is lent to the solves.
    let mut stages = std::mem::take(&mut ws.stages);
    let [k1, k2, k3, k4, xmid] = &mut stages;
    let ok = tangent_into(h, x, t, k1, ws)
        && tangent_into(h, offset(xmid, x, k1, dt / 2.0), t + dt / 2.0, k2, ws)
        && tangent_into(h, offset(xmid, x, k2, dt / 2.0), t + dt / 2.0, k3, ws)
        && tangent_into(h, offset(xmid, x, k3, dt), t + dt, k4, ws);
    if ok {
        for i in 0..n {
            out[i] = x[i] + (k1[i] + k2[i].scale(2.0) + k3[i].scale(2.0) + k4[i]).scale(dt / 6.0);
        }
    }
    ws.stages = stages;
    ok
}

/// Sets `xmid = x + s·k` and returns it.
fn offset<'a>(
    xmid: &'a mut [Complex64],
    x: &[Complex64],
    k: &[Complex64],
    s: f64,
) -> &'a [Complex64] {
    for ((m, a), b) in xmid.iter_mut().zip(x).zip(k) {
        *m = *a + b.scale(s);
    }
    xmid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::homotopy::LinearHomotopy;
    use pieri_poly::{Poly, PolySystem};

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    /// Homotopy x² − (1 + 3t) = 0, whose positive path is x(t) = √(1+3t).
    fn sqrt_homotopy() -> LinearHomotopy {
        let x = Poly::var(1, 0);
        let g = PolySystem::new(vec![x.mul(&x).sub(&Poly::constant(1, c(1.0, 0.0)))]);
        let f = PolySystem::new(vec![x.mul(&x).sub(&Poly::constant(1, c(4.0, 0.0)))]);
        // γ = 1 keeps the path real: H = (1−t)(x²−1) + t(x²−4) = x² − (1+3t).
        LinearHomotopy::new(g, f, Complex64::ONE)
    }

    #[test]
    fn tangent_matches_analytic_derivative() {
        let h = sqrt_homotopy();
        let t = 0.3f64;
        let xt = (1.0 + 3.0 * t).sqrt();
        let v = tangent(&h, &[c(xt, 0.0)], t).unwrap();
        // dx/dt = 3 / (2√(1+3t)).
        let expect = 3.0 / (2.0 * xt);
        assert!(v[0].dist(c(expect, 0.0)) < 1e-10);
    }

    #[test]
    fn predictor_orders_rank_correctly() {
        let h = sqrt_homotopy();
        let t = 0.2;
        let dt = 0.2;
        let x0 = [c((1.0f64 + 3.0 * t).sqrt(), 0.0)];
        let exact = (1.0f64 + 3.0 * (t + dt)).sqrt();
        // A first-order (Euler) step along the tangent, against the
        // Runge–Kutta step.
        let euler = x0[0] + tangent(&h, &x0, t).unwrap()[0].scale(dt);
        let mut rk4 = [Complex64::ZERO];
        assert!(predict_into(
            &h,
            &x0,
            t,
            dt,
            &mut rk4,
            &mut TrackWorkspace::new()
        ));
        let e_euler = (euler.re - exact).abs();
        let e_rk4 = (rk4[0].re - exact).abs();
        assert!(
            e_rk4 < e_euler / 20.0,
            "RK4 ({e_rk4:.2e}) ≪ Euler ({e_euler:.2e})"
        );
        assert!(e_rk4 < 1e-3);
    }

    #[test]
    fn singular_jacobian_yields_none() {
        let h = sqrt_homotopy();
        // Jacobian 2x is singular at x = 0.
        assert!(tangent(&h, &[Complex64::ZERO], 0.5).is_none());
        let mut out = [Complex64::ONE];
        let mut ws = TrackWorkspace::new();
        assert!(!predict_into(
            &h,
            &[Complex64::ZERO],
            0.5,
            0.1,
            &mut out,
            &mut ws
        ));
    }
}
