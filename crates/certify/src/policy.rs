//! The certification knob threaded through the solver stack.
//!
//! One policy value reaches every layer that ships solutions. Drivers
//! track with [`CertifyPolicy::effective_settings`] (re-tracking on under
//! [`CertifyPolicy::full`]) and then hand their roots to
//! `pieri_core::certify_roots`, the single certification entry point.
//! Warm continuations take the policy directly:
//! `pieri_core::continue_to_instance(.., policy)`.

use pieri_tracker::TrackSettings;

/// Target residual of the double-double refinement of a certified
/// endpoint (measured in double-double).
pub const REFINE_TOL: f64 = 1e-13;

/// Refinement iteration budget per endpoint.
pub const REFINE_MAX_ITERS: usize = 8;

/// What quality-of-result work a solve should perform on the solutions
/// it ships: none ([`CertifyPolicy::off`]) or all of it
/// ([`CertifyPolicy::full`]).
///
/// `pieri_core::certify_roots` (which `solve_tree_parallel_certified`
/// calls), `pieri_core::continue_to_instance`, the control layer's
/// `*_state_space_certified` solvers and the batch service all take one
/// of these; [`CertifyPolicy::off`] reproduces the uncertified
/// behaviour bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CertifyPolicy {
    /// Re-track failed paths ([`TrackSettings::retrack`]), produce a
    /// Newton certificate per shipped solution, and refine `Certified`
    /// and `Suspect` endpoints in double-double to [`REFINE_TOL`].
    pub certify: bool,
    /// Closed-loop pole residual above which the control layer
    /// downgrades a certificate to `Suspect`.
    pub pole_residual_tol: f64,
}

impl CertifyPolicy {
    /// No certification, no refinement, no re-tracking — the exact
    /// pre-certification behaviour.
    pub fn off() -> Self {
        CertifyPolicy {
            certify: false,
            pole_residual_tol: 1e-6,
        }
    }

    /// The production policy: certify every solution, refine to
    /// [`REFINE_TOL`], re-track failed paths.
    pub fn full() -> Self {
        CertifyPolicy {
            certify: true,
            pole_residual_tol: 1e-6,
        }
    }

    /// The settings a solve under this policy should track with:
    /// re-tracking on under [`CertifyPolicy::full`], and the caller's
    /// `settings` **unchanged** under [`CertifyPolicy::off`] — a disabled
    /// policy must never clobber a `retrack` the caller set directly on
    /// its [`TrackSettings`], the tracker's one setting. Every certified
    /// driver funnels through this.
    pub fn effective_settings(&self, settings: &TrackSettings) -> TrackSettings {
        TrackSettings {
            retrack: settings.retrack || self.certify,
        }
    }
}

impl Default for CertifyPolicy {
    fn default() -> Self {
        CertifyPolicy::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_changes_nothing() {
        let p = CertifyPolicy::off();
        assert!(!p.certify);
        let base = TrackSettings::default();
        assert!(!p.effective_settings(&base).retrack);
        let own = TrackSettings { retrack: true };
        assert!(p.effective_settings(&own).retrack, "caller's retrack kept");
    }

    #[test]
    fn full_enables_everything() {
        let p = CertifyPolicy::full();
        assert!(p.certify);
        assert!(p.effective_settings(&TrackSettings::default()).retrack);
        const { assert!(REFINE_TOL <= 1e-13) };
    }
}
