//! The continuation parameters of the adaptive tracker.
//!
//! A caller chooses one thing ([`TrackSettings`]): whether failed
//! paths are re-tracked. Every other parameter is a constant below:
//! PHCpack's conservative continuation parameters, which track every
//! system in this workspace's test suite reliably. The predictor is
//! fixed too: one fourth-order Runge–Kutta step (`predictor.rs`).

/// What a caller chooses about tracking a path with
/// [`crate::track_path`].
///
/// The default is no re-tracking.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrackSettings {
    /// Re-track a path that ends [`crate::PathStatus::Failed`] (step
    /// control collapsed, step budget exhausted) from its start
    /// solution, up to twice. Retry `k` tracks with steps `0.25^k` times
    /// as long (a finer minimum step included), a step budget `2^k`
    /// times as large, and `k` more corrector iterations and successes
    /// before a step expands. A [`crate::PathStatus::Diverged`] path is
    /// not retried: that verdict is an honest divergence to infinity,
    /// reported only by homotopies without
    /// [`crate::Homotopy::regular_endpoints`]. With regular endpoints a
    /// jump to a huge norm is a rejected step, so a path lost that way
    /// ends `Failed` and is retried here.
    ///
    /// The cost of **all** attempts is accumulated into the one
    /// [`crate::PathResult`] the final attempt returns (`attempts`
    /// records how many ran), which keeps
    /// [`crate::TrackStats::record`]/[`crate::TrackStats::merge`]
    /// idempotent per logical path: drivers that merge worker stats never
    /// see a re-tracked path twice.
    pub retrack: bool,
}

/// Step multiplier after [`StepControl::expand_after`] consecutive
/// accepted steps.
pub(crate) const EXPAND_FACTOR: f64 = 1.5;
/// Step multiplier after a rejected step.
pub(crate) const SHRINK_FACTOR: f64 = 0.5;
/// Newton tolerance (on the update norm) during tracking.
pub(crate) const CORRECTOR_TOL: f64 = 1e-9;
/// Newton tolerance for the final refinement at `t = 1`.
pub(crate) const FINAL_TOL: f64 = 1e-12;
/// Newton budget for the final refinement.
pub(crate) const FINAL_ITERS: usize = 12;
/// `‖x‖∞` beyond which a path is declared divergent (going to a
/// solution at infinity). On a homotopy with
/// [`crate::Homotopy::regular_endpoints`] a corrected point beyond it
/// rejects the step instead, as a jump onto another path.
pub(crate) const DIVERGENCE_THRESHOLD: f64 = 1e8;
/// Distance from `t = 1` at which the tracker switches to the geometric
/// endgame (steps halving towards 1 with a Cauchy test). Diverging paths
/// are recognised inside this region instead of being "snapped" onto a
/// finite root by the final Newton refinement. A path that approaches
/// `t = 1` analytically leaves it early, usually three halvings in,
/// through a Newton trial at `t = 1` (see [`crate::track_path`]). Unused
/// for homotopies with [`crate::Homotopy::regular_endpoints`]: their
/// paths run the adaptive phase to `t = 1`, with no endgame.
pub(crate) const ENDGAME_RADIUS: f64 = 0.01;
/// Cauchy criterion of the endgame: consecutive endgame iterates closer
/// than `ENDGAME_TOL·(1+‖x‖)` end the path. It decides the paths that do
/// not leave through the early exit: those whose halving ratios say
/// cycle number ≥ 2 or a path to infinity, and analytic paths to
/// singular endpoints, where the exit's Newton trial fails.
pub(crate) const ENDGAME_TOL: f64 = 1e-8;
/// Retries of a failed path when [`TrackSettings::retrack`] is on.
pub(crate) const RETRIES: usize = 2;

/// How one tracking attempt steps: the step-size parameters that a
/// re-track tightens.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepControl {
    /// Initial step length in `t`.
    pub(crate) initial_step: f64,
    /// Smallest permitted step; when the controller wants to go below
    /// this the path is declared failed (or diverged when the norm is
    /// large and the homotopy lacks [`crate::Homotopy::regular_endpoints`]).
    pub(crate) min_step: f64,
    /// Largest permitted step.
    pub(crate) max_step: f64,
    /// Consecutive accepted steps required before expanding the step.
    pub(crate) expand_after: usize,
    /// Newton iteration budget per correction during tracking; keeping it
    /// small is what makes the step-size controller adaptive.
    pub(crate) corrector_iters: usize,
    /// Hard cap on accepted + rejected steps, guarding against cycling.
    pub(crate) max_steps: usize,
}

impl StepControl {
    /// The control of attempt `k` of a path, 0 for the first. Retry `k`
    /// tightens the first attempt's control: steps ×0.25^k (the finer
    /// minimum step lets the controller crawl past the region that
    /// defeated the first attempt), step budget ×2^k, corrector and
    /// expansion budgets +k.
    pub(crate) fn attempt(k: usize) -> StepControl {
        let shrink = 0.25f64.powi(k as i32);
        StepControl {
            initial_step: 0.05 * shrink,
            min_step: 1e-10 * shrink,
            max_step: 0.1 * shrink,
            expand_after: 3 + k,
            corrector_iters: 4 + k,
            max_steps: 20_000 << k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let s = TrackSettings::default();
        assert!(!s.retrack, "re-tracking is opt-in");
        let first = StepControl::attempt(0);
        assert!(first.min_step < first.initial_step && first.initial_step <= first.max_step);
        const {
            assert!(SHRINK_FACTOR < 1.0 && EXPAND_FACTOR > 1.0);
            assert!(CORRECTOR_TOL > FINAL_TOL);
            assert!(ENDGAME_RADIUS > 0.0 && ENDGAME_RADIUS < 0.5);
        }
    }

    #[test]
    fn retrack_tightening_compounds() {
        let [base, t1, t2] = [0, 1, 2].map(StepControl::attempt);
        assert!(t1.initial_step < base.initial_step);
        assert!(t2.initial_step < t1.initial_step);
        assert!(t1.min_step < base.min_step && t2.min_step < t1.min_step);
        assert!(t2.max_steps > t1.max_steps && t1.max_steps > base.max_steps);
        assert!(t1.corrector_iters > base.corrector_iters);
        assert!(t1.min_step <= t1.initial_step && t1.initial_step <= t1.max_step);
        assert_eq!(t2.initial_step, base.initial_step / 16.0);
        assert_eq!(t2.max_steps, 4 * base.max_steps);
    }
}
