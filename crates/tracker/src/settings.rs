//! Tunable parameters of the adaptive tracker.

use crate::predictor::Predictor;

/// Bounded-retry policy for numerically failed paths.
///
/// A path that ends in [`crate::PathStatus::Failed`] (step control
/// collapsed, budget exhausted) is re-run from its start solution with
/// tightened continuation parameters: smaller steps, a finer minimum
/// step, a larger corrector and step budget. A
/// [`crate::PathStatus::Diverged`] path is not retried: that verdict is
/// an honest divergence to infinity, reported only by homotopies without
/// [`crate::Homotopy::regular_endpoints`]. With regular endpoints a jump
/// to a huge norm is a rejected step, so a path lost that way ends
/// `Failed` and is retried here. Retries are bounded by
/// [`RetrackPolicy::max_retries`]; each retry tightens further. The
/// policy lives inside [`TrackSettings`], so every driver — sequential,
/// work-stealing, tree-parallel, the batch service — inherits
/// re-tracking without signature changes. The per-path cost of **all**
/// attempts is accumulated into the one [`crate::PathResult`] the final
/// attempt returns (`attempts` records how many ran), which is what keeps
/// [`crate::TrackStats::record`]/[`crate::TrackStats::merge`] idempotent
/// per logical path: drivers that merge worker stats never see a
/// retracked path twice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrackPolicy {
    /// Additional attempts after the first failed one (0 disables
    /// re-tracking entirely — the default).
    pub max_retries: usize,
    /// Multiplier applied to the initial/maximum/minimum step per retry
    /// (compounded: retry `k` scales by `step_scale^k`).
    pub step_scale: f64,
    /// Multiplier applied to the step budget per retry (compounded).
    pub budget_scale: f64,
}

impl RetrackPolicy {
    /// No re-tracking (the default inside [`TrackSettings`]).
    pub fn disabled() -> Self {
        RetrackPolicy {
            max_retries: 0,
            step_scale: 0.25,
            budget_scale: 2.0,
        }
    }

    /// The conservative production policy: up to two retries, each with
    /// 4× smaller steps and a doubled step budget.
    pub fn conservative() -> Self {
        RetrackPolicy {
            max_retries: 2,
            step_scale: 0.25,
            budget_scale: 2.0,
        }
    }

    /// True when the policy allows at least one retry.
    pub fn enabled(&self) -> bool {
        self.max_retries > 0
    }

    /// The tightened settings for retry number `attempt` (1-based) of
    /// `base`. The returned settings have re-tracking disabled — the
    /// retry loop lives in [`crate::track_path_with`], never recursively
    /// inside an attempt.
    pub fn tightened(&self, base: &TrackSettings, attempt: usize) -> TrackSettings {
        let shrink = self.step_scale.powi(attempt as i32);
        let budget = self.budget_scale.powi(attempt as i32);
        TrackSettings {
            initial_step: (base.initial_step * shrink).max(base.min_step * shrink),
            max_step: (base.max_step * shrink).max(base.min_step * shrink),
            // A finer floor lets the controller crawl past the region
            // that defeated the first attempt.
            min_step: base.min_step * shrink,
            corrector_iters: base.corrector_iters + attempt,
            max_steps: (base.max_steps as f64 * budget).ceil() as usize,
            expand_after: base.expand_after + attempt,
            retrack: RetrackPolicy::disabled(),
            ..*base
        }
    }
}

impl Default for RetrackPolicy {
    fn default() -> Self {
        RetrackPolicy::disabled()
    }
}

/// Step-size control and tolerance settings for [`crate::track_path`].
///
/// The defaults reproduce PHCpack's conservative continuation parameters
/// and track every system in this workspace's test suite reliably; the
/// benches sweep some of them (predictor order, corrector budget) as
/// ablations.
#[derive(Debug, Clone, Copy)]
pub struct TrackSettings {
    /// Predictor order.
    pub predictor: Predictor,
    /// Initial step length in `t`.
    pub initial_step: f64,
    /// Smallest permitted step; when the controller wants to go below this
    /// the path is declared failed (or diverged when the norm is large
    /// and the homotopy lacks [`crate::Homotopy::regular_endpoints`]).
    pub min_step: f64,
    /// Largest permitted step.
    pub max_step: f64,
    /// Multiplier applied after [`TrackSettings::expand_after`] consecutive
    /// successful steps.
    pub expand_factor: f64,
    /// Multiplier applied after a rejected step.
    pub shrink_factor: f64,
    /// Consecutive successes required before expanding the step.
    pub expand_after: usize,
    /// Newton tolerance (on the update norm) during tracking.
    pub corrector_tol: f64,
    /// Newton iteration budget per correction during tracking; keeping it
    /// small is what makes the step-size controller adaptive.
    pub corrector_iters: usize,
    /// Newton tolerance for the final refinement at `t = 1`.
    pub final_tol: f64,
    /// Newton budget for the final refinement.
    pub final_iters: usize,
    /// `‖x‖∞` beyond which a path is declared divergent (going to a
    /// solution at infinity). On a homotopy with
    /// [`crate::Homotopy::regular_endpoints`] a corrected point beyond it
    /// rejects the step instead, as a jump onto another path.
    pub divergence_threshold: f64,
    /// Hard cap on accepted + rejected steps, guarding against cycling.
    pub max_steps: usize,
    /// Distance from `t = 1` at which the tracker switches to the
    /// geometric endgame (steps halving towards 1 with a Cauchy test).
    /// Diverging paths are recognised inside this region instead of being
    /// "snapped" onto a finite root by the final Newton refinement. A path
    /// that approaches `t = 1` analytically leaves it early, usually three
    /// halvings in, through a Newton trial at `t = 1` (see
    /// [`crate::track_path`]). Unused for homotopies with
    /// [`crate::Homotopy::regular_endpoints`]: their paths run the
    /// adaptive phase to `t = 1`, with no endgame.
    pub endgame_radius: f64,
    /// Cauchy criterion of the endgame: consecutive endgame iterates
    /// closer than `endgame_tol·(1+‖x‖)` end the path. It decides the
    /// paths that do not leave through the early exit: those whose
    /// halving ratios say cycle number ≥ 2 or a path to infinity, and
    /// analytic paths to singular endpoints, where the exit's Newton
    /// trial fails.
    pub endgame_tol: f64,
    /// Bounded-retry policy for numerically failed paths (disabled by
    /// default; see [`RetrackPolicy`]).
    pub retrack: RetrackPolicy,
}

impl Default for TrackSettings {
    fn default() -> Self {
        TrackSettings {
            predictor: Predictor::RungeKutta4,
            initial_step: 0.05,
            min_step: 1e-10,
            max_step: 0.1,
            expand_factor: 1.5,
            shrink_factor: 0.5,
            expand_after: 3,
            corrector_tol: 1e-9,
            corrector_iters: 4,
            final_tol: 1e-12,
            final_iters: 12,
            divergence_threshold: 1e8,
            max_steps: 20_000,
            endgame_radius: 0.01,
            endgame_tol: 1e-8,
            retrack: RetrackPolicy::disabled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let s = TrackSettings::default();
        assert!(s.min_step < s.initial_step && s.initial_step <= s.max_step);
        assert!(s.shrink_factor < 1.0 && s.expand_factor > 1.0);
        assert!(s.corrector_tol > s.final_tol);
        assert!(s.endgame_radius > 0.0 && s.endgame_radius < 0.5);
        assert!(!s.retrack.enabled(), "re-tracking is opt-in");
    }

    #[test]
    fn retrack_tightening_compounds() {
        let base = TrackSettings::default();
        let policy = RetrackPolicy::conservative();
        let t1 = policy.tightened(&base, 1);
        let t2 = policy.tightened(&base, 2);
        assert!(t1.initial_step < base.initial_step);
        assert!(t2.initial_step < t1.initial_step);
        assert!(t1.min_step < base.min_step && t2.min_step < t1.min_step);
        assert!(t2.max_steps > t1.max_steps && t1.max_steps > base.max_steps);
        assert!(t1.corrector_iters > base.corrector_iters);
        assert!(!t1.retrack.enabled(), "attempts never recurse");
        assert!(t1.min_step <= t1.initial_step && t1.initial_step <= t1.max_step);
    }
}
