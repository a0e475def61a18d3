//! The certification knob threaded through the solver stack.
//!
//! One policy value reaches every layer that ships solutions. Drivers
//! track with [`CertifyPolicy::effective_settings`] (the re-track budget
//! folded into the tracker settings) and then hand their roots to
//! `pieri_core::certify_roots`, the single certification entry point.
//! Warm continuations take the policy directly:
//! `pieri_core::continue_to_instance(.., policy)`.

use pieri_tracker::{RetrackPolicy, TrackSettings};

/// What quality-of-result work a solve should perform on the solutions
/// it ships.
///
/// `pieri_core::certify_roots` (which `solve_tree_parallel_certified`
/// calls), `pieri_core::continue_to_instance`, the control layer's
/// `*_state_space_certified` solvers and the batch service all take one
/// of these; [`CertifyPolicy::off`] reproduces the uncertified
/// behaviour bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CertifyPolicy {
    /// Produce a Newton certificate per shipped solution.
    pub certify: bool,
    /// Refine `Certified`/`Suspect` endpoints in double-double.
    pub refine: bool,
    /// Target residual of the refinement (measured in double-double).
    pub refine_tol: f64,
    /// Refinement iteration budget per endpoint.
    pub refine_max_iters: usize,
    /// Bounded-retry policy applied to numerically failed paths.
    pub retrack: RetrackPolicy,
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
            refine: false,
            refine_tol: 1e-13,
            refine_max_iters: 8,
            retrack: RetrackPolicy::disabled(),
            pole_residual_tol: 1e-6,
        }
    }

    /// The production policy: certify every solution, refine to
    /// `1e-13`, re-track failed paths conservatively.
    pub fn full() -> Self {
        CertifyPolicy {
            certify: true,
            refine: true,
            refine_tol: 1e-13,
            refine_max_iters: 8,
            retrack: RetrackPolicy::conservative(),
            pole_residual_tol: 1e-6,
        }
    }

    /// True when the policy does anything at all.
    pub fn enabled(&self) -> bool {
        self.certify || self.refine || self.retrack.enabled()
    }

    /// `settings` with this policy's re-track behaviour installed (the
    /// rest of the settings untouched).
    pub fn tracking_settings(&self, settings: &TrackSettings) -> TrackSettings {
        TrackSettings {
            retrack: self.retrack,
            ..*settings
        }
    }

    /// The settings a certified solve should track with: the policy's
    /// re-track behaviour when the policy enables one, otherwise the
    /// caller's settings **unchanged** — a disabled policy must never
    /// clobber a `retrack` the caller configured directly on its
    /// [`TrackSettings`]. Every certified driver funnels through this.
    pub fn effective_settings(&self, settings: &TrackSettings) -> TrackSettings {
        if self.retrack.enabled() {
            self.tracking_settings(settings)
        } else {
            *settings
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
        assert!(!p.enabled());
        let base = TrackSettings::default();
        let derived = p.tracking_settings(&base);
        assert!(!derived.retrack.enabled());
        assert_eq!(derived.max_steps, base.max_steps);
    }

    #[test]
    fn full_enables_everything() {
        let p = CertifyPolicy::full();
        assert!(p.enabled() && p.certify && p.refine);
        assert!(p
            .tracking_settings(&TrackSettings::default())
            .retrack
            .enabled());
        assert!(p.refine_tol <= 1e-13);
    }
}
