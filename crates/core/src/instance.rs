//! Coefficient-parameter continuation from a generic instance to a
//! specific one.
//!
//! Section III of the paper frames the Pieri homotopies as the way "to
//! find a general start system G(x) = 0 to be used in the homotopy (1) to
//! solve a particular problem F(x) = 0": the Pieri tree is run **once**
//! on random planes and points, and every concrete application instance
//! (e.g. the pole-placement data of an actual plant, whose planes lie on
//! a low-degree curve and are *not* in general position) is then reached
//! by one straight-line parameter homotopy
//!
//! ```text
//! det [ X(σ_i(t)) | (1−t)·γ·R_i + t·L_i ] = 0 ,   σ_i(t) = (1−t)·r_i + t·s_i ,
//! ```
//!
//! tracking the `d(m,p,q)` generic solutions from `t = 0` to `t = 1`.
//! Instance solutions lying outside the coordinate chart (improper
//! feedback laws "at infinity") show up as honestly divergent paths.

use crate::certified::certify_solution_set;
use crate::eval::CoeffLayout;
use crate::maps::PMap;
use crate::problem::PieriProblem;
use crate::scratch::CondScratch;
use pieri_certify::{Certificate, CertifyPolicy};
use pieri_linalg::{det, det_gradient, CMat};
use pieri_num::Complex64;
use pieri_tracker::{
    track_path_with, Homotopy, HomotopyScratch, PathStatus, TrackSettings, TrackStats,
    TrackWorkspace,
};

/// The instance homotopy: every condition's plane and interpolation point
/// moves from the generic start instance to the target instance.
pub struct InstanceHomotopy {
    layout: CoeffLayout,
    /// Per condition: `(γ·R_i, L_i, r_i, s_i)`.
    conditions: Vec<(CMat, CMat, Complex64, Complex64)>,
    /// Per condition: `dP/dt = L_i − γ·R_i` (loop-invariant of `dt`).
    dplanes: Vec<CMat>,
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
        let shape = start.shape();
        let root = shape.root();
        let layout = CoeffLayout::new(&root);
        let gamma = start.gamma();
        let conditions: Vec<(CMat, CMat, Complex64, Complex64)> = (0..shape.conditions())
            .map(|i| {
                (
                    start.plane(i).scale(gamma),
                    target.plane(i).clone(),
                    start.point(i),
                    target.point(i),
                )
            })
            .collect();
        let dplanes = conditions.iter().map(|(gr, l, _, _)| l - gr).collect();
        InstanceHomotopy {
            layout,
            conditions,
            dplanes,
        }
    }

    fn point_at(&self, i: usize, t: f64) -> (Complex64, Complex64) {
        let (_, _, r, s) = &self.conditions[i];
        (r.scale(1.0 - t) + s.scale(t), *s - *r)
    }

    fn plane_at(&self, i: usize, t: f64) -> CMat {
        let (gr, l, _, _) = &self.conditions[i];
        &gr.scale(Complex64::real(1.0 - t)) + &l.scale(Complex64::real(t))
    }

    /// Writes condition `i`'s matrix `[X(σ_i(t), 1) | P_i(t)]` into
    /// `cond`, leaving the homogenisation weights in the scratch buffers
    /// for the caller's Jacobian row. The moving plane is scale-added
    /// directly into the plane block — no intermediate matrices.
    #[allow(clippy::too_many_arguments)] // scratch buffers are split borrows
    fn build_cond(
        &self,
        i: usize,
        x: &[Complex64],
        t: f64,
        sigma: Complex64,
        slot_w: &mut [Complex64],
        top_w: &mut [Complex64],
        cond: &mut CMat,
    ) {
        let shape = self.layout.pattern().shape();
        let (n, p, m) = (shape.big_n(), shape.p(), shape.m());
        let (gr, l, _, _) = &self.conditions[i];
        let a = Complex64::real(1.0 - t);
        let b = Complex64::real(t);
        let planes = gr
            .as_slice()
            .chunks_exact(m)
            .zip(l.as_slice().chunks_exact(m));
        for (row, (gr_row, l_row)) in cond.as_mut_slice().chunks_exact_mut(n).zip(planes) {
            for ((e, &g), &l) in row[p..].iter_mut().zip(gr_row).zip(l_row) {
                *e = g * a + l * b;
            }
        }
        self.layout
            .weights_into(sigma, Complex64::ONE, slot_w, top_w);
        self.layout.eval_map_weighted_into(x, slot_w, top_w, cond);
    }
}

impl Homotopy for InstanceHomotopy {
    fn dim(&self) -> usize {
        self.layout.dim()
    }

    fn eval(&self, x: &[Complex64], t: f64, out: &mut [Complex64]) {
        for i in 0..self.conditions.len() {
            let (sigma, _) = self.point_at(i, t);
            let a = self
                .layout
                .eval_map(x, sigma, Complex64::ONE)
                .hstack(&self.plane_at(i, t));
            out[i] = det(&a);
        }
    }

    fn jacobian_x(&self, x: &[Complex64], t: f64, out: &mut CMat) {
        let k = self.dim();
        for i in 0..self.conditions.len() {
            let (sigma, _) = self.point_at(i, t);
            let a = self
                .layout
                .eval_map(x, sigma, Complex64::ONE)
                .hstack(&self.plane_at(i, t));
            let cof = det_gradient(&a);
            for slot in 0..k {
                let w = self.layout.weight(slot, sigma, Complex64::ONE);
                out[(i, slot)] = cof[(self.layout.phys_row(slot), self.layout.col(slot))] * w;
            }
        }
    }

    fn dt(&self, x: &[Complex64], t: f64, out: &mut [Complex64]) {
        let shape = self.layout.pattern().shape();
        let p = shape.p();
        for i in 0..self.conditions.len() {
            let (sigma, dsigma) = self.point_at(i, t);
            let a = self
                .layout
                .eval_map(x, sigma, Complex64::ONE)
                .hstack(&self.plane_at(i, t));
            let cof = det_gradient(&a);
            let mut acc = Complex64::ZERO;
            // X-block: point motion (u ≡ 1 so top pivots are constant).
            for slot in 0..self.dim() {
                if x[slot] == Complex64::ZERO {
                    continue;
                }
                let wdt =
                    self.layout
                        .weight_dt(slot, sigma, Complex64::ONE, dsigma, Complex64::ZERO);
                if wdt != Complex64::ZERO {
                    acc += cof[(self.layout.phys_row(slot), self.layout.col(slot))] * x[slot] * wdt;
                }
            }
            // Plane motion: dP/dt = L_i − γR_i, precomputed at
            // construction.
            let dm = &self.dplanes[i];
            for r in 0..shape.big_n() {
                for c in 0..shape.m() {
                    let v = dm[(r, c)];
                    if v != Complex64::ZERO {
                        acc += cof[(r, p + c)] * v;
                    }
                }
            }
            out[i] = acc;
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
        let shape = self.layout.pattern().shape();
        let p = shape.p();
        let sc = scratch.get_or_insert_with(CondScratch::new);
        sc.ensure(shape.big_n(), k, p);
        // Only the p X-block cofactor columns are ever read here.
        for i in 0..self.conditions.len() {
            let (sigma, _) = self.point_at(i, t);
            self.build_cond(i, x, t, sigma, &mut sc.slot_w, &mut sc.top_w, &mut sc.cond);
            fx[i] = sc
                .engine
                .det_and_cofactor_cols_into(&sc.cond, &mut sc.cof, p);
            self.layout
                .contract_row(&sc.cof, &sc.slot_w, jac.row_mut(i));
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
        let p = shape.p();
        let sc = scratch.get_or_insert_with(CondScratch::new);
        sc.ensure(shape.big_n(), k, p);
        let n = shape.big_n();
        for i in 0..self.conditions.len() {
            let (sigma, dsigma) = self.point_at(i, t);
            self.build_cond(i, x, t, sigma, &mut sc.slot_w, &mut sc.top_w, &mut sc.cond);
            sc.engine.cofactor_cols_into(&sc.cond, &mut sc.cof, n);
            // Jacobian row and ∂H/∂t entry from the same cofactors.
            self.layout
                .contract_row(&sc.cof, &sc.slot_w, jac.row_mut(i));
            let cof = sc.cof.as_slice();
            let mut acc = Complex64::ZERO;
            for (slot, (&xs, &off)) in x.iter().zip(self.layout.offsets()).enumerate() {
                if xs == Complex64::ZERO {
                    continue;
                }
                let wdt =
                    self.layout
                        .weight_dt(slot, sigma, Complex64::ONE, dsigma, Complex64::ZERO);
                if wdt != Complex64::ZERO {
                    acc += cof[off] * xs * wdt;
                }
            }
            let dm = self.dplanes[i].as_slice().chunks_exact(shape.m());
            for (cof_row, dm_row) in cof.chunks_exact(n).zip(dm) {
                for (&cf, &v) in cof_row[p..].iter().zip(dm_row) {
                    if v != Complex64::ZERO {
                        acc += cf * v;
                    }
                }
            }
            ht[i] = acc;
        }
    }
}

/// Result of continuing a generic solution set to a target instance.
#[derive(Debug)]
pub struct InstanceContinuation {
    /// Solution maps of the target instance.
    pub maps: Vec<PMap>,
    /// Coefficient vectors of the target solutions (root-pattern chart).
    pub coeffs: Vec<Vec<Complex64>>,
    /// Paths that diverged — target solutions at infinity (e.g. improper
    /// feedback laws).
    pub diverged: usize,
    /// Paths that failed numerically.
    pub failed: usize,
    /// Aggregate tracking statistics over all continuation paths (the
    /// per-job diagnostics the batch service reports).
    pub stats: TrackStats,
    /// One certificate per entry of `coeffs`/`maps`, in order — filled
    /// by [`continue_to_instance_certified`], empty otherwise.
    pub certificates: Vec<Certificate>,
    /// The run was cut short by a [`pieri_tracker::cancel`] scope at a
    /// path boundary: `maps`/`coeffs` hold only the paths finished
    /// before the stop (never a half-tracked path) and certification
    /// was skipped. Callers that cannot use a partial set (the service)
    /// turn this into a structured error.
    pub cancelled: bool,
}

/// Tracks all solutions of the generic `start` instance to the `target`
/// instance. `start_coeffs` are the root-pattern coefficient vectors
/// produced by [`crate::solve`] on `start`.
pub fn continue_to_instance(
    start: &PieriProblem,
    start_coeffs: &[Vec<Complex64>],
    target: &PieriProblem,
    settings: &TrackSettings,
) -> InstanceContinuation {
    continue_to_instance_certified(start, start_coeffs, target, settings, &CertifyPolicy::off())
}

/// [`continue_to_instance`] with a [`CertifyPolicy`]: failed paths are
/// re-tracked per `policy.retrack`, converged endpoints are certified
/// against the target conditions and (per policy) double-double-refined
/// in place, with one [`Certificate`] per shipped solution.
///
/// [`CertifyPolicy::off`] reproduces the uncertified behaviour exactly.
pub fn continue_to_instance_certified(
    start: &PieriProblem,
    start_coeffs: &[Vec<Complex64>],
    target: &PieriProblem,
    settings: &TrackSettings,
    policy: &CertifyPolicy,
) -> InstanceContinuation {
    let h = InstanceHomotopy::new(start, target);
    let root = start.shape().root();
    let track_settings = policy.effective_settings(settings);
    let mut coeffs = Vec::new();
    let mut diverged = 0;
    let mut failed = 0;
    let mut stats = TrackStats::default();
    // One workspace across all d(m,p,q) continuation paths. The
    // cancellation check sits at the path boundary: a lapsed deadline
    // stops the run before the next path starts, so a cancelled result
    // never contains a half-tracked solution.
    let mut ws = TrackWorkspace::new();
    let mut cancelled = false;
    for x0 in start_coeffs {
        if pieri_tracker::cancel::active_cancelled() {
            cancelled = true;
            break;
        }
        let r = track_path_with(&h, x0, &track_settings, &mut ws);
        stats.record(&r);
        match r.status {
            PathStatus::Converged => coeffs.push(r.x),
            PathStatus::Diverged { .. } => diverged += 1,
            PathStatus::Failed { .. } => failed += 1,
        }
    }
    // Certify + refine the shipped endpoints (refinement updates the
    // coefficient vectors in place; maps are built from the refined
    // values). A cancelled run is abandoned work — skip certification.
    let certificates = if cancelled {
        Vec::new()
    } else {
        certify_solution_set(target, &mut coeffs, policy)
    };
    let maps = coeffs.iter().map(|x| PMap::from_coeffs(&root, x)).collect();
    InstanceContinuation {
        maps,
        coeffs,
        diverged,
        failed,
        stats,
        certificates,
        cancelled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Shape;
    use crate::problem::PieriProblem;
    use pieri_num::seeded_rng;

    #[test]
    fn generic_to_generic_preserves_solution_count() {
        let mut rng = seeded_rng(350);
        let shape = Shape::new(2, 2, 0);
        let start = PieriProblem::random(shape.clone(), &mut rng);
        let target = PieriProblem::random(shape.clone(), &mut rng);
        let sol = crate::solver::solve(&start);
        assert_eq!(sol.maps.len(), 2);
        let cont = continue_to_instance(&start, &sol.coeffs, &target, &TrackSettings::default());
        assert_eq!(
            cont.maps.len(),
            2,
            "diverged={} failed={}",
            cont.diverged,
            cont.failed
        );
        for m in &cont.maps {
            assert!(m.max_residual(&target) < 1e-7);
        }
        // The two targets are distinct solutions.
        assert!(cont.maps[0].dist(&cont.maps[1]) > 1e-5);
    }

    #[test]
    fn instance_homotopy_derivatives_match_finite_differences() {
        let mut rng = seeded_rng(351);
        let shape = Shape::new(2, 2, 1);
        let start = PieriProblem::random(shape.clone(), &mut rng);
        let target = PieriProblem::random(shape.clone(), &mut rng);
        let h = InstanceHomotopy::new(&start, &target);
        let k = h.dim();
        let x: Vec<Complex64> = (0..k)
            .map(|_| pieri_num::random_complex(&mut rng))
            .collect();
        let t = 0.3;
        // dt check.
        let mut an = vec![Complex64::ZERO; k];
        h.dt(&x, t, &mut an);
        let step = 1e-7;
        let mut fp = vec![Complex64::ZERO; k];
        let mut fm = vec![Complex64::ZERO; k];
        h.eval(&x, t + step, &mut fp);
        h.eval(&x, t - step, &mut fm);
        for i in 0..k {
            let fd = (fp[i] - fm[i]) / (2.0 * step);
            assert!(fd.dist(an[i]) < 1e-5 * (1.0 + an[i].norm()), "row {i}");
        }
        // jacobian check.
        let mut jac = CMat::zeros(k, k);
        h.jacobian_x(&x, t, &mut jac);
        let mut f0 = vec![Complex64::ZERO; k];
        h.eval(&x, t, &mut f0);
        for c in 0..k {
            let mut xp = x.clone();
            xp[c] += Complex64::real(step);
            let mut f1 = vec![Complex64::ZERO; k];
            h.eval(&xp, t, &mut f1);
            for r in 0..k {
                let fd = (f1[r] - f0[r]) / step;
                assert!(
                    fd.dist(jac[(r, c)]) < 1e-5 * (1.0 + jac[(r, c)].norm()),
                    "J[{r},{c}]"
                );
            }
        }
    }

    #[test]
    fn cancelled_scope_stops_between_paths_with_no_partial_results() {
        let mut rng = seeded_rng(353);
        let shape = Shape::new(2, 2, 0);
        let start = PieriProblem::random(shape.clone(), &mut rng);
        let target = PieriProblem::random(shape.clone(), &mut rng);
        let sol = crate::solver::solve(&start);

        // Flag raised before the run: the boundary check fires before
        // path 0, so the solver tracks nothing at all.
        let token = pieri_tracker::CancelToken::new();
        token.cancel();
        let cont = pieri_tracker::cancel::scope(&token, || {
            continue_to_instance(&start, &sol.coeffs, &target, &TrackSettings::default())
        });
        assert!(cont.cancelled);
        assert_eq!(cont.stats.total(), 0, "no path was started");
        assert!(cont.maps.is_empty() && cont.coeffs.is_empty());
        assert!(cont.certificates.is_empty(), "certification skipped");

        // A lapsed deadline behaves identically — and outside any
        // scope the same run is unaffected.
        let expired = pieri_tracker::CancelToken::with_deadline(std::time::Instant::now());
        let cont = pieri_tracker::cancel::scope(&expired, || {
            continue_to_instance(&start, &sol.coeffs, &target, &TrackSettings::default())
        });
        assert!(cont.cancelled && cont.coeffs.is_empty());
        let cont = continue_to_instance(&start, &sol.coeffs, &target, &TrackSettings::default());
        assert!(!cont.cancelled);
        assert_eq!(cont.maps.len(), 2);
    }

    #[test]
    fn reuse_one_start_system_for_many_instances() {
        // The paper's stated workflow: one generic Pieri solve, many
        // parameter continuations.
        let mut rng = seeded_rng(352);
        let shape = Shape::new(2, 2, 0);
        let start = PieriProblem::random(shape.clone(), &mut rng);
        let sol = crate::solver::solve(&start);
        for _ in 0..3 {
            let target = PieriProblem::random(shape.clone(), &mut rng);
            let cont =
                continue_to_instance(&start, &sol.coeffs, &target, &TrackSettings::default());
            assert_eq!(cont.maps.len(), 2);
        }
    }
}
