//! Newton certificates: α-theory-style endpoint classification.

use pieri_linalg::inf_norm;
use pieri_num::Complex64;
use pieri_tracker::{newton_correct_with, Homotopy, TrackWorkspace};

/// Contraction threshold under which an endpoint is certifiable.
///
/// Smale's α-theorem certifies quadratic convergence to a true zero when
/// `α = β·γ < (13 − 3√17)/4 ≈ 0.1577`. The computable estimate used here
/// is the step-to-step contraction `‖Δx₂‖/‖Δx₁‖ ≈ γ·‖Δx₁‖ = α` from two
/// observed Newton steps — the standard a-posteriori stand-in when exact
/// higher-derivative bounds are unavailable.
pub const ALPHA_CERTIFIED: f64 = 0.1577;

/// Relative size of the first Newton step below which the endpoint is
/// already at working-precision accuracy.
const BETA_CERTIFIED: f64 = 1e-6;

/// Contraction beyond which Newton is considered non-convergent.
const CONTRACTION_FAILED: f64 = 0.75;

/// First-step size (relative) beyond which the point is not even close.
const BETA_SUSPECT_LIMIT: f64 = 1e-2;

/// Relative step size at the working-precision noise floor: a Newton
/// step this small is dominated by roundoff in the residual, and a
/// contraction ratio measured between two noise-level steps is
/// meaningless — the endpoint is a Newton fixed point to working
/// precision and certifies directly.
const NOISE_FLOOR_REL: f64 = 1e-13;

/// Classification of one tracked endpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Newton contracts quadratically from the endpoint: it approximates
    /// a true solution of the target system.
    Certified {
        /// `‖H(x, 1)‖∞` — double-double-refined when refinement ran.
        residual: f64,
        /// Observed contraction `‖Δx₂‖/‖Δx₁‖` of two Newton steps.
        newton_contraction: f64,
    },
    /// Newton still contracts, but too slowly (or from too far) for a
    /// certificate — typically a near-singular or clustered solution.
    Suspect {
        /// `‖H(x, 1)‖∞` — double-double-refined when refinement ran.
        residual: f64,
        /// Why the certificate was withheld.
        reason: String,
    },
    /// The endpoint is not a solution to working precision: singular
    /// Jacobian, non-finite data, or a diverging Newton iteration.
    Failed {
        /// What disqualified the endpoint.
        reason: String,
    },
}

impl Verdict {
    /// Stable machine-readable tag (`"certified"` / `"suspect"` /
    /// `"failed"`), the wire format's `verdict` value.
    pub fn kind(&self) -> &'static str {
        match self {
            Verdict::Certified { .. } => "certified",
            Verdict::Suspect { .. } => "suspect",
            Verdict::Failed { .. } => "failed",
        }
    }

    /// The certified/suspect residual; `+∞` for failed endpoints.
    pub fn residual(&self) -> f64 {
        match self {
            Verdict::Certified { residual, .. } | Verdict::Suspect { residual, .. } => *residual,
            Verdict::Failed { .. } => f64::INFINITY,
        }
    }
}

/// The full certificate of one endpoint: the verdict plus the raw
/// α-theory estimates and the refinement record.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// The classification.
    pub verdict: Verdict,
    /// α estimate `β·γ` (equals the observed contraction).
    pub alpha: f64,
    /// `‖Δx₁‖∞` — size of the first Newton step at the endpoint.
    pub beta: f64,
    /// Curvature estimate `‖Δx₂‖/‖Δx₁‖²`.
    pub gamma: f64,
    /// True when the double-double refiner ran on this endpoint.
    pub refined: bool,
    /// Refinement iterations spent.
    pub refine_iters: usize,
    /// Closed-loop pole residual against the *requested* poles, filled
    /// by the control layer for pole-placement solutions.
    pub pole_residual: Option<f64>,
}

impl Certificate {
    /// True for [`Verdict::Certified`].
    pub fn is_certified(&self) -> bool {
        matches!(self.verdict, Verdict::Certified { .. })
    }

    /// True for [`Verdict::Failed`].
    pub fn is_failed(&self) -> bool {
        matches!(self.verdict, Verdict::Failed { .. })
    }

    /// The verdict's residual (`+∞` for failed endpoints).
    pub fn residual(&self) -> f64 {
        self.verdict.residual()
    }

    /// Replaces the verdict's residual (after refinement improved it).
    pub(crate) fn set_residual(&mut self, r: f64) {
        match &mut self.verdict {
            Verdict::Certified { residual, .. } | Verdict::Suspect { residual, .. } => {
                *residual = r;
            }
            Verdict::Failed { .. } => {}
        }
    }

    /// Refinement bookkeeping: records the refiner's outcome on this
    /// certificate, never degrading the stored residual (the refiner
    /// returns its best iterate, so `residual` can only move down).
    pub fn record_refinement(&mut self, outcome: &crate::refine::RefineOutcome) {
        self.refined = true;
        self.refine_iters = outcome.iters;
        if outcome.residual <= self.residual() {
            self.set_residual(outcome.residual);
        }
    }

    /// Downgrades a `Certified` verdict to `Suspect` with the given
    /// reason (no-op on `Suspect`/`Failed`) — used by application layers
    /// whose own checks (e.g. the closed-loop pole residual) contradict
    /// the Newton certificate.
    pub fn downgrade(&mut self, reason: impl Into<String>) {
        if let Verdict::Certified { residual, .. } = self.verdict {
            self.verdict = Verdict::Suspect {
                residual,
                reason: reason.into(),
            };
        }
    }

    /// A failed certificate with a reason (used where no endpoint data
    /// exists at all, e.g. a path that never converged).
    pub fn failed(reason: impl Into<String>) -> Certificate {
        Certificate {
            verdict: Verdict::Failed {
                reason: reason.into(),
            },
            alpha: f64::INFINITY,
            beta: f64::INFINITY,
            gamma: f64::INFINITY,
            refined: false,
            refine_iters: 0,
            pole_residual: None,
        }
    }
}

/// Certifies one endpoint of `h` at parameter `t` (the shipped solutions
/// live at `t = 1`) from two fused Newton steps.
///
/// Each step is a one-iteration [`newton_correct_with`], so it costs
/// exactly one fused `eval_and_jacobian` (the `DetCofactor` kernels for
/// the determinantal homotopies) plus one LU solve on the workspace's
/// reused buffers — two fused evaluations per certificate in total, with
/// the first step's residual doubling as the endpoint residual. `x` itself
/// is **not** modified — the certificate describes the point the
/// tracker shipped, not a corrected one.
pub fn certify_endpoint<H: Homotopy + ?Sized>(
    h: &H,
    x: &[Complex64],
    t: f64,
    ws: &mut TrackWorkspace,
) -> Certificate {
    let scale = 1.0 + inf_norm(x);
    if x.iter().any(|z| !z.is_finite()) {
        return Certificate::failed("non-finite endpoint");
    }

    // Two observed Newton steps from a scratch copy of the endpoint;
    // the first step's evaluation doubles as the endpoint residual.
    let mut y = x.to_vec();
    // A one-iteration correction reports the residual at its input point
    // and the update it applied; tolerance 0 leaves `converged` unused.
    let first = newton_correct_with(h, &mut y, t, 0.0, 1, ws);
    let residual_at_x = first.residual;
    if first.singular {
        return Certificate::failed("singular Jacobian at the endpoint");
    }
    let beta = first.last_step;
    if !beta.is_finite() {
        return Certificate::failed("non-finite Newton step");
    }
    let noise_floor = NOISE_FLOOR_REL * scale;
    if beta <= noise_floor {
        // Fixed point of the Newton map to working precision; a second
        // step would only measure roundoff against roundoff.
        return Certificate {
            verdict: Verdict::Certified {
                residual: residual_at_x,
                newton_contraction: 0.0,
            },
            alpha: 0.0,
            beta,
            gamma: 0.0,
            refined: false,
            refine_iters: 0,
            pole_residual: None,
        };
    }

    let second = newton_correct_with(h, &mut y, t, 0.0, 1, ws);
    let (contraction, gamma, second_singular) = if second.singular {
        (f64::INFINITY, f64::INFINITY, true)
    } else {
        let c = second.last_step / beta;
        (c, c / beta, false)
    };

    let verdict =
        if !second_singular && second.last_step <= noise_floor && beta <= BETA_CERTIFIED * scale {
            // The second step bottomed out at the noise floor: quadratic
            // convergence completed within working precision.
            Verdict::Certified {
                residual: residual_at_x,
                newton_contraction: contraction,
            }
        } else if second_singular {
            // The corrected point hit a singular Jacobian: the endpoint sits
            // next to (or on) a singular solution.
            Verdict::Suspect {
                residual: residual_at_x,
                reason: "singular Jacobian after one Newton step".into(),
            }
        } else if !contraction.is_finite() {
            Verdict::Failed {
                reason: "non-finite Newton contraction".into(),
            }
        } else if contraction <= ALPHA_CERTIFIED && beta <= BETA_CERTIFIED * scale {
            Verdict::Certified {
                residual: residual_at_x,
                newton_contraction: contraction,
            }
        } else if contraction <= CONTRACTION_FAILED && beta <= BETA_SUSPECT_LIMIT * scale {
            let reason = if contraction > ALPHA_CERTIFIED {
                format!("slow Newton contraction ({contraction:.2e})")
            } else {
                format!("large first Newton step ({beta:.2e})")
            };
            Verdict::Suspect {
                residual: residual_at_x,
                reason,
            }
        } else {
            Verdict::Failed {
                reason: format!(
                    "Newton does not contract (step {beta:.2e}, contraction {contraction:.2e})"
                ),
            }
        };

    Certificate {
        verdict,
        alpha: contraction,
        beta,
        gamma,
        refined: false,
        refine_iters: 0,
        pole_residual: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pieri_num::{random_gamma, seeded_rng};
    use pieri_poly::{Poly, PolySystem};
    use pieri_tracker::LinearHomotopy;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    fn univar(coeffs: &[Complex64]) -> PolySystem {
        let x = Poly::var(1, 0);
        let mut p = Poly::zero(1);
        for (k, &ck) in coeffs.iter().enumerate() {
            p = p.add(&x.pow(k as u32).scale(ck));
        }
        PolySystem::new(vec![p])
    }

    fn target_homotopy(coeffs: &[Complex64], seed: u64) -> LinearHomotopy {
        let start = univar(&[c(-1.0, 0.0), Complex64::ZERO, Complex64::ONE]);
        let mut rng = seeded_rng(seed);
        LinearHomotopy::new(start, univar(coeffs), random_gamma(&mut rng))
    }

    #[test]
    fn true_root_is_certified() {
        // x² − 4 at x = 2 (exact root).
        let h = target_homotopy(&[c(-4.0, 0.0), Complex64::ZERO, Complex64::ONE], 1);
        let mut ws = TrackWorkspace::new();
        let cert = certify_endpoint(&h, &[c(2.0, 0.0)], 1.0, &mut ws);
        assert!(cert.is_certified(), "{cert:?}");
        assert!(cert.beta < 1e-12, "β {:.2e}", cert.beta);
        assert!(cert.residual() < 1e-12);
    }

    #[test]
    fn slightly_perturbed_root_is_certified() {
        let h = target_homotopy(&[c(-4.0, 0.0), Complex64::ZERO, Complex64::ONE], 2);
        let mut ws = TrackWorkspace::new();
        let cert = certify_endpoint(&h, &[c(2.0 + 1e-9, 1e-9)], 1.0, &mut ws);
        assert!(cert.is_certified(), "{cert:?}");
    }

    #[test]
    fn far_point_fails() {
        let h = target_homotopy(&[c(-4.0, 0.0), Complex64::ZERO, Complex64::ONE], 3);
        let mut ws = TrackWorkspace::new();
        let cert = certify_endpoint(&h, &[c(37.0, 12.0)], 1.0, &mut ws);
        assert!(cert.is_failed(), "{cert:?}");
    }

    #[test]
    fn near_double_root_is_not_certified() {
        // (x − 1)² + 1e-14: roots 1 ± 1e-7·i cluster; Newton contracts
        // linearly (rate ~1/2) near the cluster centre.
        let h = target_homotopy(&[c(1.0 + 1e-14, 0.0), c(-2.0, 0.0), Complex64::ONE], 4);
        let mut ws = TrackWorkspace::new();
        let cert = certify_endpoint(&h, &[c(1.0 + 2e-8, 0.0)], 1.0, &mut ws);
        assert!(
            !cert.is_certified(),
            "cluster centre must not certify: {cert:?}"
        );
    }

    #[test]
    fn singular_jacobian_fails() {
        // x² at x = 0: J = 0.
        let h = target_homotopy(&[Complex64::ZERO, Complex64::ZERO, Complex64::ONE], 5);
        let mut ws = TrackWorkspace::new();
        let cert = certify_endpoint(&h, &[Complex64::ZERO], 1.0, &mut ws);
        assert!(cert.is_failed(), "{cert:?}");
    }

    #[test]
    fn non_finite_endpoint_fails() {
        let h = target_homotopy(&[c(-4.0, 0.0), Complex64::ZERO, Complex64::ONE], 6);
        let mut ws = TrackWorkspace::new();
        let cert = certify_endpoint(&h, &[c(f64::NAN, 0.0)], 1.0, &mut ws);
        assert!(cert.is_failed());
    }

    #[test]
    fn verdict_kind_tags_are_stable() {
        assert_eq!(
            Verdict::Certified {
                residual: 0.0,
                newton_contraction: 0.0
            }
            .kind(),
            "certified"
        );
        assert_eq!(
            Verdict::Suspect {
                residual: 0.0,
                reason: String::new()
            }
            .kind(),
            "suspect"
        );
        assert_eq!(
            Verdict::Failed {
                reason: String::new()
            }
            .kind(),
            "failed"
        );
    }
}
