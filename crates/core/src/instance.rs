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
//! [`continue_to_instance`] runs those paths on an [`InstanceHomotopy`]
//! (whose conditions live with the Pieri homotopy's in `homotopy.rs`)
//! and certifies the endpoints. Instance solutions lying outside the
//! coordinate chart (improper feedback laws "at infinity") show up as
//! honestly divergent paths.

use crate::certified::certify_solution_set;
use crate::homotopy::InstanceHomotopy;
use crate::maps::PMap;
use crate::problem::PieriProblem;
use pieri_certify::{Certificate, CertifyPolicy};
use pieri_num::Complex64;
use pieri_tracker::{track_path_with, PathStatus, TrackSettings, TrackStats, TrackWorkspace};

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
    /// when [`continue_to_instance`] runs with a certifying policy, empty
    /// otherwise.
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
/// produced by [`crate::solve`] on `start` (or a [`crate::StartBundle`]'s
/// [`coeffs`](crate::StartBundle::coeffs)).
///
/// `policy` governs the shipped endpoints: under [`CertifyPolicy::full`]
/// failed paths are re-tracked, and converged endpoints are certified
/// against the target conditions and double-double-refined in place,
/// with one [`Certificate`] per shipped solution.
/// [`CertifyPolicy::off`] is the plain uncertified continuation.
pub fn continue_to_instance(
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
    use pieri_linalg::CMat;
    use pieri_num::seeded_rng;
    use pieri_tracker::Homotopy;

    fn continue_plain(
        start: &PieriProblem,
        start_coeffs: &[Vec<Complex64>],
        target: &PieriProblem,
    ) -> InstanceContinuation {
        let settings = TrackSettings::default();
        continue_to_instance(
            start,
            start_coeffs,
            target,
            &settings,
            &CertifyPolicy::off(),
        )
    }

    #[test]
    fn generic_to_generic_preserves_solution_count() {
        let mut rng = seeded_rng(350);
        let shape = Shape::new(2, 2, 0);
        let start = PieriProblem::random(shape.clone(), &mut rng);
        let target = PieriProblem::random(shape.clone(), &mut rng);
        let sol = crate::solver::solve(&start);
        assert_eq!(sol.maps.len(), 2);
        let cont = continue_plain(&start, &sol.coeffs, &target);
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
        let cont =
            pieri_tracker::cancel::scope(&token, || continue_plain(&start, &sol.coeffs, &target));
        assert!(cont.cancelled);
        assert_eq!(cont.stats.total(), 0, "no path was started");
        assert!(cont.maps.is_empty() && cont.coeffs.is_empty());
        assert!(cont.certificates.is_empty(), "certification skipped");

        // A lapsed deadline behaves identically — and outside any
        // scope the same run is unaffected.
        let expired = pieri_tracker::CancelToken::with_deadline(std::time::Instant::now());
        let cont =
            pieri_tracker::cancel::scope(&expired, || continue_plain(&start, &sol.coeffs, &target));
        assert!(cont.cancelled && cont.coeffs.is_empty());
        let cont = continue_plain(&start, &sol.coeffs, &target);
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
            let cont = continue_plain(&start, &sol.coeffs, &target);
            assert_eq!(cont.maps.len(), 2);
        }
    }
}
