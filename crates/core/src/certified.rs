//! Certification and double-double refinement of Pieri solutions.
//!
//! The solutions a Pieri solve ships are the coefficient vectors at the
//! root pattern; each must satisfy every intersection condition
//! `det [X(s_i) | L_i] = 0`. This module evaluates exactly that target
//! system at **any scalar precision** ([`TargetConditions`], generic
//! over [`pieri_num::Scalar`]) and uses it to
//!
//! 1. produce an α-theory Newton certificate per solution (through
//!    [`pieri_certify::certify_endpoint`] on the target system
//!    [`InstanceHomotopy::target`], whose `n` fixed conditions share the
//!    homotopies' fused `DetCofactor` kernels: residual and Jacobian in
//!    one factorisation per condition), and
//! 2. polish `Certified`/`Suspect` endpoints in double-double with the
//!    mixed-precision refiner ([`pieri_certify::refine_endpoint`]),
//!    pushing residuals well below what `f64` tracking can reach.

use crate::eval::CoeffLayout;
use crate::homotopy::InstanceHomotopy;
use crate::problem::PieriProblem;
use pieri_certify::{
    certify_endpoint, refine_endpoint, Certificate, CertifyPolicy, SystemEval, REFINE_MAX_ITERS,
    REFINE_TOL,
};
use pieri_linalg::{det_generic, CMat};
use pieri_num::{Complex64, DdComplex, Scalar};
use pieri_tracker::TrackWorkspace;

/// The target intersection conditions of a Pieri problem at the root
/// pattern, evaluable at any scalar precision.
///
/// Condition `i` is `det [X(s_i) | L_i]` with the map evaluated at the
/// dehomogenised point `(s_i, 1)`; the plane data and interpolation
/// points embed exactly into the wider scalar (`f64 → Dd` is lossless),
/// so evaluating at [`DdComplex`] measures the true residual of the
/// shipped `f64` solution to ~32 significant digits.
pub struct TargetConditions {
    layout: CoeffLayout,
    planes: Vec<CMat>,
    points: Vec<Complex64>,
}

impl TargetConditions {
    /// Builds the evaluator for `problem`'s root pattern.
    pub fn new(problem: &PieriProblem) -> Self {
        let root = problem.shape().root();
        TargetConditions {
            layout: CoeffLayout::new(&root),
            planes: problem.planes().to_vec(),
            points: problem.points().to_vec(),
        }
    }
}

impl<S: Scalar> SystemEval<S> for TargetConditions {
    fn dim(&self) -> usize {
        self.layout.dim()
    }

    fn eval(&self, x: &[S], out: &mut [S]) {
        let shape = self.layout.pattern().shape();
        let (bn, p, m) = (shape.big_n(), shape.p(), shape.m());
        let k = self.layout.dim();
        debug_assert_eq!(x.len(), k);
        debug_assert_eq!(out.len(), self.planes.len());
        let max_deg = (0..k)
            .map(|s| self.layout.slot_degree(s))
            .max()
            .unwrap_or(0);
        let mut a = vec![S::zero(); bn * bn];
        let mut pow = vec![S::one(); max_deg + 1];
        for (i, (plane, &s)) in self.planes.iter().zip(self.points.iter()).enumerate() {
            for v in a.iter_mut() {
                *v = S::zero();
            }
            // Plane block: columns p..p+m, exact embedding of L_i.
            for r in 0..bn {
                for c in 0..m {
                    a[r * bn + p + c] = S::from_c64(plane[(r, c)]);
                }
            }
            // Powers of the interpolation point for the slot weights.
            let sv = S::from_c64(s);
            for d in 1..=max_deg {
                pow[d] = pow[d - 1] * sv;
            }
            // Top pivots: weight u^{d_j} = 1 at the dehomogenised point.
            for j in 0..p {
                a[j * bn + j] = a[j * bn + j] + S::one();
            }
            // Free coefficients: weight s^d, accumulated per physical
            // entry exactly as `CoeffLayout::eval_map` does.
            for ((slot, &xs), &idx) in x.iter().enumerate().zip(self.layout.offsets()) {
                let w = pow[self.layout.slot_degree(slot)];
                a[idx] = a[idx] + xs * w;
            }
            out[i] = det_generic(&mut a, bn);
        }
    }
}

/// Certifies and double-double-refines **in place** a set of
/// root-pattern solution vectors of `problem`, when `policy.certify` is
/// set.
///
/// Returns one [`Certificate`] per vector, in order. Under
/// [`CertifyPolicy::off`] this is a no-op returning an empty vector, and
/// the coefficients are untouched.
pub fn certify_solution_set(
    problem: &PieriProblem,
    coeffs: &mut [Vec<Complex64>],
    policy: &CertifyPolicy,
) -> Vec<Certificate> {
    if !policy.certify {
        return Vec::new();
    }
    // The n fixed target conditions: the fused kernels supply residual
    // and Jacobian for the Newton certificate and the refiner.
    let h = InstanceHomotopy::target(problem);
    let sys = TargetConditions::new(problem);
    let mut ws = TrackWorkspace::new();
    coeffs
        .iter_mut()
        .map(|x| {
            let mut cert = certify_endpoint(&h, x, 1.0, &mut ws);
            if !cert.is_failed() {
                let out = refine_endpoint::<DdComplex, _, _>(
                    &h,
                    &sys,
                    1.0,
                    x,
                    REFINE_TOL,
                    REFINE_MAX_ITERS,
                    &mut ws,
                );
                cert.record_refinement(&out);
            }
            cert
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Shape;
    use crate::solver::solve;
    use pieri_num::seeded_rng;
    use pieri_tracker::Homotopy;

    fn dd_residual(sys: &TargetConditions, x: &[Complex64]) -> f64 {
        let xs: Vec<DdComplex> = x.iter().map(|&z| DdComplex::from_c64(z)).collect();
        let mut out = vec![DdComplex::ZERO; sys.planes.len()];
        SystemEval::<DdComplex>::eval(sys, &xs, &mut out);
        out.iter().map(|z| z.norm()).fold(0.0, f64::max)
    }

    #[test]
    fn target_conditions_match_instance_homotopy_at_t1() {
        for &(m, p, q) in &[(2usize, 2usize, 0usize), (2, 2, 1), (3, 2, 1)] {
            let mut rng = seeded_rng(600 + (m * 10 + p + q) as u64);
            let problem = PieriProblem::random(Shape::new(m, p, q), &mut rng);
            let sys = TargetConditions::new(&problem);
            let k = SystemEval::<Complex64>::dim(&sys);
            let x: Vec<Complex64> = (0..k)
                .map(|_| pieri_num::random_complex(&mut rng))
                .collect();
            let mut via_sys = vec![Complex64::ZERO; k];
            SystemEval::<Complex64>::eval(&sys, &x, &mut via_sys);
            // The fixed target certification evaluates, and the instance
            // continuation from the problem to itself, which ends there.
            let fixed = InstanceHomotopy::target(&problem);
            let moving = InstanceHomotopy::new(&problem, &problem);
            for h in [fixed, moving] {
                let mut via_h = vec![Complex64::ZERO; k];
                h.eval(&x, 1.0, &mut via_h);
                for i in 0..k {
                    assert!(
                        via_h[i].dist(via_sys[i]) < 1e-10 * (1.0 + via_h[i].norm()),
                        "({m},{p},{q}) condition {i}: {:?} vs {:?}",
                        via_h[i],
                        via_sys[i]
                    );
                }
            }
        }
    }

    #[test]
    fn solved_roots_certify_and_refine_below_1e13() {
        let mut rng = seeded_rng(610);
        let problem = PieriProblem::random(Shape::new(2, 2, 1), &mut rng);
        let solution = solve(&problem);
        let mut coeffs = solution.coeffs.clone();
        let certs = certify_solution_set(&problem, &mut coeffs, &CertifyPolicy::full());
        assert_eq!(certs.len(), 8);
        let sys = TargetConditions::new(&problem);
        for (i, cert) in certs.iter().enumerate() {
            assert!(cert.is_certified(), "root {i}: {cert:?}");
            assert!(cert.refined);
            assert!(
                cert.residual() <= 1e-13,
                "root {i} residual {:e}",
                cert.residual()
            );
            // The refined coefficients really do satisfy the conditions
            // at double-double precision.
            assert!(dd_residual(&sys, &coeffs[i]) <= 1e-13, "root {i}");
        }
    }

    #[test]
    fn off_policy_is_a_no_op() {
        let mut rng = seeded_rng(611);
        let problem = PieriProblem::random(Shape::new(2, 2, 0), &mut rng);
        let solution = solve(&problem);
        let mut coeffs = solution.coeffs.clone();
        let certs = certify_solution_set(&problem, &mut coeffs, &CertifyPolicy::off());
        assert!(certs.is_empty());
        assert_eq!(coeffs, solution.coeffs, "coefficients untouched");
    }

    #[test]
    fn garbage_vectors_fail_certification() {
        let mut rng = seeded_rng(612);
        let problem = PieriProblem::random(Shape::new(2, 2, 0), &mut rng);
        let k = problem.shape().root().rank();
        let mut coeffs = vec![vec![Complex64::new(13.0, -7.0); k]];
        let certs = certify_solution_set(&problem, &mut coeffs, &CertifyPolicy::full());
        assert_eq!(certs.len(), 1);
        assert!(certs[0].is_failed(), "{:?}", certs[0]);
    }
}
