//! Aggregate statistics over a batch of tracked paths.

use crate::path::{PathResult, PathStatus};
use std::time::Duration;

/// Summary of a multi-path tracking run.
///
/// These are exactly the numbers the load-balancing analysis of the paper
/// needs: how many paths diverge, and how skewed the per-path cost
/// distribution is (the variance drives the static-vs-dynamic gap of
/// Tables I and II).
#[derive(Debug, Clone, Default)]
pub struct TrackStats {
    /// Paths that reached `t = 1` and refined successfully.
    pub converged: usize,
    /// Paths that diverged to infinity.
    pub diverged: usize,
    /// Paths that got numerically stuck.
    pub failed: usize,
    /// Paths that needed at least one re-track attempt (see
    /// [`crate::TrackSettings::retrack`]); a subset of `total()`,
    /// whatever the final status was.
    pub retracked: usize,
    /// Tracking attempts beyond the first, summed over all paths.
    pub retrack_attempts: usize,
    /// Total accepted steps over all paths.
    pub total_steps: usize,
    /// Total Newton iterations over all paths.
    pub total_newton_iters: usize,
    /// Sum of per-path wall-clock times (the sequential-equivalent
    /// cost; when the batch was tracked concurrently, each path's time
    /// also carries its share of cross-core contention).
    pub total_time: Duration,
    /// Longest single path.
    pub max_path_time: Duration,
    /// Per-path wall-clock times in seconds, in input order — the workload
    /// vector handed to the schedulers and the cluster simulator.
    pub path_times: Vec<f64>,
}

impl TrackStats {
    /// Builds the summary from per-path results.
    pub fn from_results(results: &[PathResult]) -> Self {
        let mut s = TrackStats::default();
        for r in results {
            s.record(r);
        }
        s
    }

    /// Records one *logical path* incrementally — for callers
    /// (schedulers, the batch service) that stream results and do not
    /// keep the full [`PathResult`]s alive.
    ///
    /// A [`PathResult`] already accumulates the cost of every re-track
    /// attempt into one record ([`PathResult::attempts`]); recording it
    /// once therefore accounts for the whole path, and merging worker
    /// stats never double-counts a failed-then-retracked path (each
    /// attempt is **not** recorded separately — that was the
    /// double-counting bug this contract fixes).
    pub fn record(&mut self, result: &PathResult) {
        match result.status {
            PathStatus::Converged => self.converged += 1,
            PathStatus::Diverged { .. } => self.diverged += 1,
            PathStatus::Failed { .. } => self.failed += 1,
        }
        if result.attempts > 1 {
            self.retracked += 1;
            self.retrack_attempts += result.attempts - 1;
        }
        self.total_steps += result.steps;
        self.total_newton_iters += result.newton_iters;
        self.total_time += result.elapsed;
        self.max_path_time = self.max_path_time.max(result.elapsed);
        self.path_times.push(result.elapsed.as_secs_f64());
    }

    /// Merges another batch into this one (e.g. per-job stats rolled up
    /// into service totals). Each side must contain each logical path at
    /// most once (the [`TrackStats::record`] contract), which makes the
    /// merge itself idempotent per path.
    pub fn merge(&mut self, other: &TrackStats) {
        self.converged += other.converged;
        self.diverged += other.diverged;
        self.failed += other.failed;
        self.retracked += other.retracked;
        self.retrack_attempts += other.retrack_attempts;
        self.total_steps += other.total_steps;
        self.total_newton_iters += other.total_newton_iters;
        self.total_time += other.total_time;
        self.max_path_time = self.max_path_time.max(other.max_path_time);
        self.path_times.extend_from_slice(&other.path_times);
    }

    /// Number of paths accounted for.
    pub fn total(&self) -> usize {
        self.converged + self.diverged + self.failed
    }

    /// Mean per-path time in seconds (0 when empty).
    pub fn mean_time(&self) -> f64 {
        if self.path_times.is_empty() {
            0.0
        } else {
            self.path_times.iter().sum::<f64>() / self.path_times.len() as f64
        }
    }

    /// Coefficient of variation of per-path times — the paper's
    /// explanation for when dynamic load balancing beats static hinges on
    /// this number being large.
    pub fn time_cv(&self) -> f64 {
        let mean = self.mean_time();
        if mean == 0.0 || self.path_times.len() < 2 {
            return 0.0;
        }
        let var = self
            .path_times
            .iter()
            .map(|t| (t - mean) * (t - mean))
            .sum::<f64>()
            / (self.path_times.len() - 1) as f64;
        var.sqrt() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pieri_num::Complex64;

    fn result(status: PathStatus, millis: u64, steps: usize) -> PathResult {
        PathResult {
            status,
            x: vec![Complex64::ZERO],
            residual: 0.0,
            steps,
            rejections: 0,
            newton_iters: 2 * steps,
            attempts: 1,
            elapsed: Duration::from_millis(millis),
        }
    }

    #[test]
    fn aggregates_counts_and_times() {
        let rs = vec![
            result(PathStatus::Converged, 10, 5),
            result(PathStatus::Diverged { at_t: 0.9 }, 30, 20),
            result(PathStatus::Failed { at_t: 0.5 }, 20, 7),
        ];
        let s = TrackStats::from_results(&rs);
        assert_eq!((s.converged, s.diverged, s.failed), (1, 1, 1));
        assert_eq!(s.total(), 3);
        assert_eq!(s.total_steps, 32);
        assert_eq!(s.total_newton_iters, 64);
        assert_eq!(s.total_time, Duration::from_millis(60));
        assert_eq!(s.max_path_time, Duration::from_millis(30));
        assert!((s.mean_time() - 0.02).abs() < 1e-9);
    }

    #[test]
    fn cv_zero_for_uniform_times() {
        let rs = vec![
            result(PathStatus::Converged, 10, 1),
            result(PathStatus::Converged, 10, 1),
        ];
        let s = TrackStats::from_results(&rs);
        assert!(s.time_cv() < 1e-9);
    }

    #[test]
    fn cv_large_for_skewed_times() {
        let rs = vec![
            result(PathStatus::Converged, 1, 1),
            result(PathStatus::Converged, 1, 1),
            result(PathStatus::Converged, 1, 1),
            result(PathStatus::Converged, 1000, 1),
        ];
        let s = TrackStats::from_results(&rs);
        assert!(s.time_cv() > 1.0);
    }

    #[test]
    fn record_and_merge_match_from_results() {
        let rs = vec![
            result(PathStatus::Converged, 10, 5),
            result(PathStatus::Diverged { at_t: 0.9 }, 30, 20),
            result(PathStatus::Failed { at_t: 0.5 }, 20, 7),
        ];
        let whole = TrackStats::from_results(&rs);
        let mut merged = TrackStats::from_results(&rs[..1]);
        let mut rest = TrackStats::default();
        for r in &rs[1..] {
            rest.record(r);
        }
        merged.merge(&rest);
        assert_eq!(merged.total(), whole.total());
        assert_eq!(merged.total_steps, whole.total_steps);
        assert_eq!(merged.total_newton_iters, whole.total_newton_iters);
        assert_eq!(merged.total_time, whole.total_time);
        assert_eq!(merged.max_path_time, whole.max_path_time);
        assert_eq!(merged.path_times, whole.path_times);
    }

    #[test]
    fn retracked_path_counts_once_across_record_and_merge() {
        // Regression (satellite fix): a failed-then-retracked path is one
        // PathResult with attempts = 3 and accumulated cost. Recording it
        // on one worker and merging into the driver totals must yield ONE
        // path — not one per attempt — and count its steps exactly once.
        let mut retracked = result(PathStatus::Converged, 40, 30);
        retracked.attempts = 3;
        let plain = result(PathStatus::Converged, 10, 5);

        let mut worker_a = TrackStats::default();
        worker_a.record(&retracked);
        let mut worker_b = TrackStats::default();
        worker_b.record(&plain);
        let mut driver = TrackStats::default();
        driver.merge(&worker_a);
        driver.merge(&worker_b);

        assert_eq!(driver.total(), 2, "two logical paths, five attempts");
        assert_eq!(driver.converged, 2);
        assert_eq!(driver.retracked, 1);
        assert_eq!(driver.retrack_attempts, 2);
        assert_eq!(driver.total_steps, 35, "steps counted once per path");
        assert_eq!(driver.path_times.len(), 2);

        // And the merge result is identical to recording directly.
        let direct = TrackStats::from_results(&[retracked, plain]);
        assert_eq!(driver.total_steps, direct.total_steps);
        assert_eq!(driver.retracked, direct.retracked);
        assert_eq!(driver.total_time, direct.total_time);
    }

    #[test]
    fn empty_stats() {
        let s = TrackStats::from_results(&[]);
        assert_eq!(s.total(), 0);
        assert_eq!(s.mean_time(), 0.0);
        assert_eq!(s.time_cv(), 0.0);
    }
}
