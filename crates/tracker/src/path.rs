//! The adaptive predictor–corrector driver.
//!
//! lint:hot-path — steady-state tracking must stay allocation-free
//! (PR 4's ≤ 8-allocs/path bound, pinned by `alloc_count.rs`); every
//! allocating call below carries its own justification.

use crate::homotopy::Homotopy;
use crate::newton::newton_correct_with;
use crate::predictor::predict_into;
use crate::settings::{
    StepControl, TrackSettings, CORRECTOR_TOL, DIVERGENCE_THRESHOLD, ENDGAME_RADIUS, ENDGAME_TOL,
    EXPAND_FACTOR, FINAL_ITERS, FINAL_TOL, RETRIES, SHRINK_FACTOR,
};
use crate::stats::TrackStats;
use crate::workspace::TrackWorkspace;
use pieri_linalg::inf_norm;
use pieri_num::Complex64;
use std::mem;
use std::ops::RangeInclusive;
use std::time::{Duration, Instant};

/// Ratios `diff_{j−1} / diff_j` of consecutive endgame differences that
/// mark an analytic approach to `t = 1`. Under halving, a path that
/// reaches a finite point analytically gives ratio 2, a path of cycle
/// number c gives 2^{1/c} ≤ 1.42, and a path to infinity less than 1.
const ANALYTIC_RATIOS: RangeInclusive<f64> = 1.8..=2.2;

/// Terminal state of one tracked path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PathStatus {
    /// Reached `t = 1` and passed the final Newton refinement.
    Converged,
    /// The solution norm blew past the divergence threshold: the path leads
    /// to a solution at infinity. `at_t` records how far it got. Never
    /// reported for a homotopy with [`Homotopy::regular_endpoints`],
    /// where a huge corrected point is a path jump that the step control
    /// retries, and a path that still cannot finish ends
    /// [`PathStatus::Failed`].
    Diverged {
        /// Continuation parameter at which divergence was declared.
        at_t: f64,
    },
    /// Step control collapsed (or the step budget ran out) without a large
    /// norm; numerically stuck, e.g. near a singular endpoint.
    Failed {
        /// Continuation parameter at which tracking gave up.
        at_t: f64,
    },
}

impl PathStatus {
    /// True for [`PathStatus::Converged`].
    pub fn is_converged(self) -> bool {
        matches!(self, PathStatus::Converged)
    }
}

/// Outcome of tracking one solution path.
#[derive(Debug, Clone)]
pub struct PathResult {
    /// Terminal state.
    pub status: PathStatus,
    /// Final approximation (the refined solution when converged).
    pub x: Vec<Complex64>,
    /// Final residual `‖H(x, t_end)‖∞`.
    pub residual: f64,
    /// Accepted predictor–corrector steps.
    pub steps: usize,
    /// Rejected (re-tried) steps.
    pub rejections: usize,
    /// Total Newton iterations spent.
    pub newton_iters: usize,
    /// Tracking attempts this result accounts for: 1 when the first
    /// attempt settled the path, more when re-tracking
    /// ([`TrackSettings::retrack`]) re-ran it with tightened step control.
    /// `steps`, `rejections`, `newton_iters` and `elapsed` accumulate
    /// over **all** attempts, so recording this result once accounts for
    /// the path's full cost.
    pub attempts: usize,
    /// Wall-clock time spent on this path.
    pub elapsed: Duration,
}

/// Mutable tracking state shared between the main loop and the endgame.
/// The vectors are borrowed from the caller's [`TrackWorkspace`] and
/// returned to it when the path ends, so repeated paths reuse them.
struct Progress {
    x: Vec<Complex64>,
    t: f64,
    steps: usize,
    rejections: usize,
    newton_total: usize,
}

/// Tracks one path of `h` from the start solution `x0` (a solution of
/// `H(·, 0) = 0`) towards `t = 1`.
///
/// The loop predicts with one fourth-order Runge–Kutta step, corrects
/// with Newton at fixed `t`, and adapts the step: a correction that
/// converges within budget accepts the step (expanding after a streak),
/// anything else rejects it and halves the step.
///
/// Inside `1 − t < endgame_radius` the tracker switches to a *geometric
/// endgame*: steps always cover half the remaining distance, and the path
/// ends either when consecutive iterates become Cauchy (then one last
/// Newton polish at `t = 1` produces the solution) or when the solution
/// norm blows up (a path to infinity). Without this, a divergent path of a
/// deficient system would be "snapped" onto some finite root by the final
/// refinement and counted twice — the endgame is what lets the cyclic
/// 10-roots and RPS experiments of the paper report their divergent-path
/// counts honestly.
///
/// A path that reaches a finite point analytically leaves the endgame
/// early. Over halvings its iterate differences shrink by a factor of 2
/// (by 2^{1/c} on a path of cycle number c, not at all on a path to
/// infinity). When the last two ratios of differences over consecutive
/// halvings both lie in [1.8, 2.2], Newton at `t = 1` runs from the
/// extrapolated point `2·x_j − x_{j−1}` with the corrector's iteration
/// budget. The path ends [`PathStatus::Converged`] there when Newton
/// converges within `‖x_j − x_{j−1}‖∞` of that point; otherwise the
/// halving goes on as before. On an analytic path to a singular endpoint
/// the trials fail until the path is close, since Newton converges only
/// linearly there.
///
/// A homotopy whose paths all end regular and finite
/// ([`Homotopy::regular_endpoints`], the Pieri homotopies) skips the
/// endgame, which took about half the steps of a Pieri path: the
/// adaptive phase runs to `t = 1` and the same final polish follows.
/// Such a path is never declared diverged. A corrected point beyond the
/// divergence threshold (`‖x‖∞ > 1e8`) rejects the step as a jump onto
/// another path, and a path the step control cannot finish ends
/// [`PathStatus::Failed`], which re-tracking retries.
pub fn track_path<H: Homotopy + ?Sized>(
    h: &H,
    x0: &[Complex64],
    settings: &TrackSettings,
) -> PathResult {
    let mut ws = TrackWorkspace::new();
    track_path_with(h, x0, settings, &mut ws)
}

/// [`track_path`] against a caller-owned [`TrackWorkspace`].
///
/// This is the zero-allocation form: path state, predictor stages,
/// Newton buffers, LU storage and the homotopy's own scratch all live in
/// `ws` and are reused across steps *and* across paths — in steady state
/// the only per-path allocation is the returned [`PathResult::x`]. The
/// workers of `pieri-parallel` hold one workspace each; sequential
/// drivers thread a single workspace through every path of a solve.
///
/// When `settings.retrack` is on, a [`PathStatus::Failed`] attempt is
/// re-run from `x0` with tightened step control, at most twice; the
/// returned result is the **final** attempt with the cost of every
/// attempt accumulated and [`PathResult::attempts`] counting them — one
/// result per logical path, however many attempts ran.
pub fn track_path_with<H: Homotopy + ?Sized>(
    h: &H,
    x0: &[Complex64],
    settings: &TrackSettings,
    ws: &mut TrackWorkspace,
) -> PathResult {
    let retries = if settings.retrack { RETRIES } else { 0 };
    track_attempts(
        h,
        x0,
        &StepControl::attempt(0),
        (1..=retries).map(StepControl::attempt),
        ws,
    )
}

/// Tracks `x0` under `first`, then again under each of `retries` in
/// turn while the attempts end [`PathStatus::Failed`].
fn track_attempts<H: Homotopy + ?Sized>(
    h: &H,
    x0: &[Complex64],
    first: &StepControl,
    retries: impl Iterator<Item = StepControl>,
    ws: &mut TrackWorkspace,
) -> PathResult {
    let mut result = track_path_attempt(h, x0, first, ws);
    for control in retries {
        if !matches!(result.status, PathStatus::Failed { .. }) {
            break;
        }
        let _span = crate::trace::span("retrack", false);
        let mut retry = track_path_attempt(h, x0, &control, ws);
        // Fold the earlier attempts' cost into the surviving result so
        // TrackStats::record sees this path exactly once.
        retry.steps += result.steps;
        retry.rejections += result.rejections;
        retry.newton_iters += result.newton_iters;
        retry.elapsed += result.elapsed;
        retry.attempts = result.attempts + 1;
        result = retry;
    }
    result
}

/// One tracking attempt (no re-tracking).
fn track_path_attempt<H: Homotopy + ?Sized>(
    h: &H,
    x0: &[Complex64],
    control: &StepControl,
    ws: &mut TrackWorkspace,
) -> PathResult {
    let start_time = Instant::now();
    let _span = crate::trace::span("track.path", false);
    ws.ensure(h.dim());
    // Borrow the state buffers out of the workspace for the duration of
    // this path (mem::take is free for Vec); they return at the end.
    let mut x = mem::take(&mut ws.state_x);
    x.clear();
    x.extend_from_slice(x0);
    let mut predicted = mem::take(&mut ws.state_pred);
    let mut x_before = mem::take(&mut ws.state_before);
    let mut norms = mem::take(&mut ws.endgame_norms);
    let mut p = Progress {
        x,
        t: 0.0,
        steps: 0,
        rejections: 0,
        newton_total: 0,
    };

    let (status, residual) = drive(
        h,
        control,
        ws,
        &mut p,
        &mut predicted,
        &mut x_before,
        &mut norms,
    );

    let result = PathResult {
        status,
        // lint:allow(hot-path-alloc) — the one documented per-path
        // allocation: the returned solution must outlive the reused
        // workspace buffer it was computed in.
        x: p.x.clone(),
        residual,
        steps: p.steps,
        rejections: p.rejections,
        newton_iters: p.newton_total,
        attempts: 1,
        elapsed: start_time.elapsed(),
    };
    ws.state_x = p.x;
    ws.state_pred = predicted;
    ws.state_before = x_before;
    ws.endgame_norms = norms;
    result
}

/// The tracking loop proper: main adaptive phase, geometric endgame and
/// final refinement. Split out of [`track_path_with`] so every early
/// return funnels through the single buffer-restoring exit above.
fn drive<H: Homotopy + ?Sized>(
    h: &H,
    control: &StepControl,
    ws: &mut TrackWorkspace,
    p: &mut Progress,
    predicted: &mut Vec<Complex64>,
    x_before: &mut Vec<Complex64>,
    endgame_norms: &mut Vec<f64>,
) -> (PathStatus, f64) {
    let mut dt = control.initial_step;
    let mut streak = 0usize;
    // Paths with regular endpoints run the adaptive phase to t = 1; the
    // endgame loop below then exits at once.
    let regular = h.regular_endpoints();
    let endgame_start = if regular { 1.0 } else { 1.0 - ENDGAME_RADIUS };

    // Main adaptive phase: up to the endgame boundary.
    while p.t < endgame_start {
        if p.steps + p.rejections > control.max_steps {
            return (PathStatus::Failed { at_t: p.t }, h.residual(&p.x, p.t));
        }
        let step = dt.min(endgame_start - p.t);
        match try_step(h, p, predicted, step, control, ws) {
            StepOutcome::Accepted => {
                streak += 1;
                if streak >= control.expand_after {
                    dt = (dt * EXPAND_FACTOR).min(control.max_step);
                    streak = 0;
                }
                if inf_norm(&p.x) > DIVERGENCE_THRESHOLD {
                    return (PathStatus::Diverged { at_t: p.t }, h.residual(&p.x, p.t));
                }
            }
            StepOutcome::Rejected => {
                streak = 0;
                dt *= SHRINK_FACTOR;
                if dt < control.min_step {
                    let status = if !regular && inf_norm(&p.x) > DIVERGENCE_THRESHOLD.sqrt() {
                        PathStatus::Diverged { at_t: p.t }
                    } else {
                        PathStatus::Failed { at_t: p.t }
                    };
                    return (status, h.residual(&p.x, p.t));
                }
            }
        }
    }

    // Geometric endgame towards t = 1.
    let mut endgame_fail_shrink = 1.0f64;
    // Norm history over the endgame halvings: a path diverging like
    // (1−t)^{−1/k} towards a multiplicity-k solution at infinity never
    // crosses an absolute norm threshold within f64 range, but its norm
    // grows by the consistent factor 2^{1/k} per halving. The trailing
    // growth ratio is the cheap stand-in for PHCpack's winding-number
    // endgame test; bounded-but-stuck paths show ratio ≈ 1 instead.
    endgame_norms.clear();
    endgame_norms.push(inf_norm(&p.x));
    // Early exit: the difference of the previous pure halving (a step of
    // exactly half the remaining distance with no rejection since the
    // last accepted step; NaN once a rejection breaks the run) and the
    // number of consecutive ratios in ANALYTIC_RATIOS.
    let mut run_diff = f64::NAN;
    let mut analytic_ratios = 0usize;
    loop {
        if p.steps + p.rejections > control.max_steps {
            return (PathStatus::Failed { at_t: p.t }, h.residual(&p.x, p.t));
        }
        let remaining = 1.0 - p.t;
        if remaining < 1e-13 {
            break;
        }
        let step = 0.5 * remaining * endgame_fail_shrink;
        if step < f64::EPSILON * 4.0 {
            break;
        }
        x_before.clear();
        x_before.extend_from_slice(&p.x);
        match try_step(h, p, predicted, step, control, ws) {
            StepOutcome::Accepted => {
                let pure = endgame_fail_shrink == 1.0;
                endgame_fail_shrink = 1.0;
                let norm = inf_norm(&p.x);
                endgame_norms.push(norm);
                if norm > DIVERGENCE_THRESHOLD {
                    return (PathStatus::Diverged { at_t: p.t }, h.residual(&p.x, p.t));
                }
                // Cauchy test: iterates have stopped moving.
                let diff: f64 =
                    p.x.iter()
                        .zip(x_before.iter())
                        .map(|(a, b)| (*a - *b).norm())
                        .fold(0.0, f64::max);
                if diff <= ENDGAME_TOL * (1.0 + norm) {
                    break;
                }
                if pure {
                    if ANALYTIC_RATIOS.contains(&(run_diff / diff)) {
                        analytic_ratios += 1;
                    } else {
                        analytic_ratios = 0;
                    }
                    run_diff = diff;
                    if analytic_ratios >= 2 {
                        if let Some(residual) =
                            try_exit(h, p, predicted, x_before, diff, control, ws)
                        {
                            return (PathStatus::Converged, residual);
                        }
                        analytic_ratios = 0;
                    }
                }
            }
            StepOutcome::Rejected => {
                run_diff = f64::NAN;
                analytic_ratios = 0;
                endgame_fail_shrink *= SHRINK_FACTOR;
                if endgame_fail_shrink * remaining < control.min_step {
                    break;
                }
            }
        }
    }

    // Final refinement at t = 1 from the endgame limit point; the
    // predictor buffer is free here and keeps the entry point.
    predicted.clear();
    predicted.extend_from_slice(&p.x);
    let entry_norm = inf_norm(predicted);
    let out = newton_correct_with(h, &mut p.x, 1.0, FINAL_TOL, FINAL_ITERS, ws);
    p.newton_total += out.iters;
    let residual = endpoint_residual(h, &p.x, ws);
    // Reject a refinement that jumped far away from the tracked limit:
    // that is Newton snapping a divergent path onto an unrelated root.
    let jump: f64 =
        p.x.iter()
            .zip(predicted.iter())
            .map(|(a, b)| (*a - *b).norm())
            .fold(0.0, f64::max);
    let snapped = jump > 0.25 * (1.0 + entry_norm);
    // Growth-based divergence: over the trailing endgame window the norm
    // kept growing geometrically (total factor ≥ 3 over ≤ 24 halvings,
    // i.e. exponent ≥ ~1/15) and ended clearly above solution scale.
    let window = endgame_norms.len().min(24);
    let slow_divergence = window >= 8 && {
        let first = endgame_norms[endgame_norms.len() - window].max(f64::MIN_POSITIVE);
        entry_norm / first >= 3.0 && entry_norm > 10.0
    };
    let status = if out.converged && !snapped && inf_norm(&p.x) <= DIVERGENCE_THRESHOLD {
        PathStatus::Converged
    } else if !regular
        && (entry_norm > DIVERGENCE_THRESHOLD.sqrt()
            || slow_divergence
            || snapped && entry_norm > 1e3)
    {
        PathStatus::Diverged { at_t: p.t }
    } else {
        PathStatus::Failed { at_t: p.t }
    };
    (status, residual)
}

/// The endgame's early exit: Newton at `t = 1`, with the corrector's
/// iteration budget, from the first-order Richardson extrapolation
/// `x̂ = 2·x − x_before` of the last two halving iterates, built in the
/// `predicted` buffer. Accepted when Newton converges to a finite point
/// within `diff` of `x̂` and inside the divergence threshold: the endpoint
/// then moves into `p.x` at `t = 1` and its residual is returned.
/// Otherwise `p` keeps its iterate and only the iterations are billed.
fn try_exit<H: Homotopy + ?Sized>(
    h: &H,
    p: &mut Progress,
    predicted: &mut Vec<Complex64>,
    x_before: &[Complex64],
    diff: f64,
    control: &StepControl,
    ws: &mut TrackWorkspace,
) -> Option<f64> {
    predicted.clear();
    predicted.extend(p.x.iter().zip(x_before).map(|(a, b)| *a + *a - *b));
    let out = newton_correct_with(h, predicted, 1.0, FINAL_TOL, control.corrector_iters, ws);
    p.newton_total += out.iters;
    // The distance from x̂, recomputed from x and x_before.
    let jump = predicted
        .iter()
        .zip(p.x.iter().zip(x_before))
        .map(|(z, (a, b))| (*z - (*a + *a - *b)).norm())
        .fold(0.0, f64::max);
    let accepted = out.converged
        && predicted.iter().all(|z| z.is_finite())
        && jump <= diff
        && inf_norm(predicted) <= DIVERGENCE_THRESHOLD;
    if !accepted {
        return None;
    }
    mem::swap(&mut p.x, predicted);
    p.t = 1.0;
    Some(endpoint_residual(h, &p.x, ws))
}

/// `‖H(x, 1)‖∞` at a path's endpoint. The corrector stops without
/// evaluating its final iterate; this is that one evaluation, made once
/// per path.
fn endpoint_residual<H: Homotopy + ?Sized>(h: &H, x: &[Complex64], ws: &mut TrackWorkspace) -> f64 {
    let (fx, jac, scratch) = ws.eval_buffers();
    h.eval_and_jacobian(x, 1.0, fx, jac, scratch);
    inf_norm(fx)
}

enum StepOutcome {
    Accepted,
    Rejected,
}

/// One predict–correct attempt of length `step`; on success advances `p`
/// by rotating the state buffers (no copies, no allocation).
fn try_step<H: Homotopy + ?Sized>(
    h: &H,
    p: &mut Progress,
    predicted: &mut Vec<Complex64>,
    step: f64,
    control: &StepControl,
    ws: &mut TrackWorkspace,
) -> StepOutcome {
    let t_next = (p.t + step).min(1.0);
    predicted.clear();
    predicted.resize(h.dim(), Complex64::ZERO);
    let ok = {
        let _span = crate::trace::span("predict", true);
        predict_into(h, &p.x, p.t, t_next - p.t, predicted, ws)
    };
    if ok && predicted.iter().all(|z| z.is_finite()) {
        let _span = crate::trace::span("correct", true);
        let out = newton_correct_with(
            h,
            predicted,
            t_next,
            CORRECTOR_TOL,
            control.corrector_iters,
            ws,
        );
        p.newton_total += out.iters;
        let accepted = out.converged
            && predicted.iter().all(|z| z.is_finite())
            // With regular endpoints a huge corrected point is a jump
            // onto another path, not a divergence: retry shorter.
            && !(h.regular_endpoints() && inf_norm(predicted) > DIVERGENCE_THRESHOLD);
        if accepted {
            // x ← predicted, with the old x buffer becoming the next
            // prediction scratch.
            mem::swap(&mut p.x, predicted);
            p.t = t_next;
            p.steps += 1;
            StepOutcome::Accepted
        } else {
            p.rejections += 1;
            StepOutcome::Rejected
        }
    } else {
        p.rejections += 1;
        StepOutcome::Rejected
    }
}

/// Tracks every start solution sequentially, collecting per-path results
/// and aggregate [`TrackStats`]. This is the "1 CPU" baseline that the
/// schedulers in `pieri-parallel` and the cluster simulator accelerate.
pub fn track_all<H: Homotopy + ?Sized>(
    h: &H,
    starts: &[Vec<Complex64>],
    settings: &TrackSettings,
) -> (Vec<PathResult>, TrackStats) {
    let mut ws = TrackWorkspace::new();
    let results: Vec<PathResult> = starts
        .iter()
        .map(|s| track_path_with(h, s, settings, &mut ws))
        // lint:allow(hot-path-alloc) — driver-level: one results vector
        // per *batch* of paths, not per step.
        .collect();
    let stats = TrackStats::from_results(&results);
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::homotopy::LinearHomotopy;
    use pieri_num::{random_gamma, seeded_rng};
    use pieri_poly::{Poly, PolySystem};

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

    /// x^d − 1 with its known roots of unity.
    fn unity_start(d: usize) -> (PolySystem, Vec<Vec<Complex64>>) {
        let mut coeffs = vec![Complex64::ZERO; d + 1];
        coeffs[0] = c(-1.0, 0.0);
        coeffs[d] = Complex64::ONE;
        let sys = univar(&coeffs);
        let roots = (0..d)
            .map(|k| {
                vec![Complex64::from_polar(
                    1.0,
                    std::f64::consts::TAU * k as f64 / d as f64,
                )]
            })
            .collect();
        (sys, roots)
    }

    #[test]
    fn tracks_simple_quadratic() {
        let (g, starts) = unity_start(2);
        let f = univar(&[c(-4.0, 0.0), Complex64::ZERO, Complex64::ONE]); // x² − 4
        let mut rng = seeded_rng(100);
        let h = LinearHomotopy::new(g, f, random_gamma(&mut rng));
        let settings = TrackSettings::default();
        let (results, stats) = track_all(&h, &starts, &settings);
        assert_eq!(stats.converged, 2);
        let mut endpoints: Vec<f64> = results.iter().map(|r| r.x[0].re).collect();
        endpoints.sort_by(f64::total_cmp);
        assert!((endpoints[0] + 2.0).abs() < 1e-8);
        assert!((endpoints[1] - 2.0).abs() < 1e-8);
        for r in &results {
            assert!(r.residual < 1e-9);
            assert!(r.x[0].im.abs() < 1e-8);
        }
    }

    #[test]
    fn recovers_all_roots_of_degree_five_target() {
        // Target: monic degree-5 with known random-ish roots.
        let roots = [
            c(1.0, 0.5),
            c(-0.5, 1.5),
            c(0.25, -0.75),
            c(-1.5, -0.25),
            c(2.0, 0.0),
        ];
        let target_uni = pieri_poly::UniPoly::from_roots(&roots);
        let f = univar(target_uni.coeffs());
        let (g, starts) = unity_start(5);
        let mut rng = seeded_rng(101);
        let h = LinearHomotopy::new(g, f, random_gamma(&mut rng));
        let (results, stats) = track_all(&h, &starts, &TrackSettings::default());
        assert_eq!(stats.converged, 5, "{stats:?}");
        // Endpoints must be the target roots as a multiset.
        let mut found: Vec<Complex64> = results.iter().map(|r| r.x[0]).collect();
        for &r in &roots {
            let (i, d) = found
                .iter()
                .enumerate()
                .map(|(i, f)| (i, f.dist(r)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            assert!(d < 1e-7, "root {r:?} missing (best {d:.2e})");
            found.swap_remove(i);
        }
    }

    #[test]
    fn divergent_path_detected_for_deficient_target() {
        // Target x − 1 treated as the degree-2 target 0·x² + x − 1 by
        // pairing it with the quadratic start x² − 1: one path converges to
        // 1, the other goes to infinity.
        let (g, starts) = unity_start(2);
        let f = univar(&[c(-1.0, 0.0), Complex64::ONE]);
        let mut rng = seeded_rng(102);
        let h = LinearHomotopy::new(g, f, random_gamma(&mut rng));
        let (results, stats) = track_all(&h, &starts, &TrackSettings::default());
        assert_eq!(stats.converged, 1, "{stats:?}");
        assert_eq!(stats.diverged, 1, "{stats:?}");
        let conv = results.iter().find(|r| r.status.is_converged()).unwrap();
        assert!(conv.x[0].dist(Complex64::ONE) < 1e-8);
        let div = results.iter().find(|r| !r.status.is_converged()).unwrap();
        match div.status {
            PathStatus::Diverged { at_t } => assert!(at_t > 0.5, "diverges near t=1, got {at_t}"),
            ref s => panic!("expected divergence, got {s:?}"),
        }
    }

    /// A linear homotopy that claims regular endpoints.
    struct Regular(LinearHomotopy);

    impl Homotopy for Regular {
        fn dim(&self) -> usize {
            self.0.dim()
        }

        fn eval(&self, x: &[Complex64], t: f64, out: &mut [Complex64]) {
            self.0.eval(x, t, out);
        }

        fn jacobian_x(&self, x: &[Complex64], t: f64, out: &mut pieri_linalg::CMat) {
            self.0.jacobian_x(x, t, out);
        }

        fn dt(&self, x: &[Complex64], t: f64, out: &mut [Complex64]) {
            self.0.dt(x, t, out);
        }

        fn regular_endpoints(&self) -> bool {
            true
        }
    }

    #[test]
    fn claimed_regular_endpoints_drop_the_divergence_verdict() {
        // The deficient target above, wrongly claimed regular: no path is
        // declared diverged, and with no endgame the path to infinity
        // steps onto the finite root at t = 1. Only homotopies whose
        // paths all end regular may make the claim.
        let (g, starts) = unity_start(2);
        let f = univar(&[c(-1.0, 0.0), Complex64::ONE]);
        let mut rng = seeded_rng(102);
        let h = Regular(LinearHomotopy::new(g, f, random_gamma(&mut rng)));
        let (results, stats) = track_all(&h, &starts, &TrackSettings::default());
        assert_eq!((stats.converged, stats.diverged), (2, 0), "{stats:?}");
        for r in &results {
            assert!(r.x[0].dist(Complex64::ONE) < 1e-8, "{:?}", r.x);
        }
    }

    #[test]
    fn analytic_paths_leave_the_endgame_after_three_halvings() {
        // x² − 4 has two regular roots: both paths approach t = 1
        // analytically, so the halving ratios read 2 and the early exit
        // ends them three halvings into the endgame.
        let (g, starts) = unity_start(2);
        let f = univar(&[c(-4.0, 0.0), Complex64::ZERO, Complex64::ONE]);
        let mut rng = seeded_rng(100);
        let h = LinearHomotopy::new(g, f, random_gamma(&mut rng));
        let settings = TrackSettings::default();
        let (results, stats) = track_all(&h, &starts, &settings);
        let (regular, _) = track_all(&Regular(h), &starts, &settings);
        assert_eq!(stats.converged, 2, "{stats:?}");
        for (r, no_endgame) in results.iter().zip(&regular) {
            assert!((r.x[0].norm() - 2.0).abs() < 1e-8, "{:?}", r.x);
            assert!(r.residual < 1e-9);
            assert!(
                r.steps <= no_endgame.steps + 3,
                "{} steps, {} without the endgame",
                r.steps,
                no_endgame.steps
            );
        }
    }

    #[test]
    fn singular_endpoints_keep_the_endgame_verdicts() {
        let (g, starts) = unity_start(2);
        let settings = TrackSettings::default();
        // (x − 1)²: the path from 1 stays on the double root, which
        // Newton cannot polish; the path from −1 reaches it analytically
        // and converges.
        let f = univar(&[Complex64::ONE, c(-2.0, 0.0), Complex64::ONE]);
        let h = LinearHomotopy::new(g.clone(), f, random_gamma(&mut seeded_rng(100)));
        let (results, _) = track_all(&h, &starts, &settings);
        match results[0].status {
            PathStatus::Failed { at_t } => assert!((at_t - 0.995).abs() < 1e-12, "{at_t}"),
            s => panic!("expected failure, got {s:?}"),
        }
        assert!(results[1].status.is_converged(), "{:?}", results[1].status);
        assert!(
            results[1].x[0].dist(Complex64::ONE) < 1e-8,
            "{:?}",
            results[1].x
        );
        // x²: both paths form one cycle of winding number 2, whose
        // ratio 2^{1/2} never triggers the exit; the full halving runs.
        let f = univar(&[Complex64::ZERO, Complex64::ZERO, Complex64::ONE]);
        let h = LinearHomotopy::new(g, f, random_gamma(&mut seeded_rng(100)));
        let (results, _) = track_all(&h, &starts, &settings);
        for r in &results {
            assert!(
                matches!(r.status, PathStatus::Failed { .. }),
                "{:?}",
                r.status
            );
            assert!(r.steps >= 40, "{} steps", r.steps);
        }
    }

    /// The tracker's one predictor, Runge–Kutta, takes the three paths
    /// of a cubic to three distinct roots of the target.
    #[test]
    fn all_predictors_reach_the_same_endpoints() {
        let (g, starts) = unity_start(3);
        let coeffs = [c(0.5, 0.25), c(-1.0, 0.5), c(0.0, -0.5), Complex64::ONE];
        let f = univar(&coeffs);
        let mut rng = seeded_rng(103);
        let h = LinearHomotopy::new(g, f, random_gamma(&mut rng));
        let (results, stats) = track_all(&h, &starts, &TrackSettings::default());
        assert_eq!(stats.converged, 3, "{stats:?}");
        let target = pieri_poly::UniPoly::new(coeffs.to_vec());
        for (i, r) in results.iter().enumerate() {
            assert!(target.eval(r.x[0]).norm() < 1e-9, "{:?}", r.x);
            for other in &results[..i] {
                assert!(r.x[0].dist(other.x[0]) > 1e-3, "two paths met");
            }
        }
    }

    /// The schedule's first attempt with its step budget cut to `max_steps`.
    fn starved(max_steps: usize) -> StepControl {
        StepControl {
            max_steps,
            ..StepControl::attempt(0)
        }
    }

    /// The schedule's retries, as re-tracking runs them.
    fn retries() -> impl Iterator<Item = StepControl> {
        (1..=RETRIES).map(StepControl::attempt)
    }

    #[test]
    fn max_steps_guard_fails_gracefully() {
        let (g, starts) = unity_start(2);
        let f = univar(&[c(-4.0, 0.0), Complex64::ZERO, Complex64::ONE]);
        let mut rng = seeded_rng(104);
        let h = LinearHomotopy::new(g, f, random_gamma(&mut rng));
        let r = track_path_attempt(&h, &starts[0], &starved(3), &mut TrackWorkspace::new());
        // With a 3-step budget the tracker cannot reach t=1 (max_step 0.1).
        assert!(
            matches!(r.status, PathStatus::Failed { .. }),
            "{:?}",
            r.status
        );
    }

    #[test]
    fn retrack_policy_rescues_a_budget_starved_path() {
        let (g, starts) = unity_start(2);
        let f = univar(&[c(-4.0, 0.0), Complex64::ZERO, Complex64::ONE]);
        let mut rng = seeded_rng(106);
        let h = LinearHomotopy::new(g, f, random_gamma(&mut rng));
        // A 3-step first attempt fails (see max_steps_guard_fails_gracefully);
        // the schedule's retries, with their own budgets, run until the
        // path converges.
        let mut ws = TrackWorkspace::new();
        let r = track_attempts(&h, &starts[0], &starved(3), retries(), &mut ws);
        assert!(r.status.is_converged(), "{:?}", r.status);
        assert!(r.attempts > 1, "the first attempt must have failed");
        assert!(r.attempts <= 1 + RETRIES, "bounded retries");
        assert!((r.x[0].norm() - 2.0).abs() < 1e-8);

        // Stats see ONE logical path that was retracked.
        let stats = TrackStats::from_results(std::slice::from_ref(&r));
        assert_eq!(stats.total(), 1);
        assert_eq!(stats.converged, 1);
        assert_eq!(stats.retracked, 1);
        assert_eq!(stats.retrack_attempts, r.attempts - 1);
        assert_eq!(stats.total_steps, r.steps);
    }

    #[test]
    fn retrack_exhaustion_stays_failed_and_bounded() {
        let (g, starts) = unity_start(2);
        let f = univar(&[c(-4.0, 0.0), Complex64::ZERO, Complex64::ONE]);
        let mut rng = seeded_rng(107);
        let h = LinearHomotopy::new(g, f, random_gamma(&mut rng));
        // Budget so small that even the tightened retries cannot finish.
        let exhausted = retries().map(|control| StepControl {
            max_steps: 1,
            ..control
        });
        let mut ws = TrackWorkspace::new();
        let r = track_attempts(&h, &starts[0], &starved(1), exhausted, &mut ws);
        assert!(
            matches!(r.status, PathStatus::Failed { .. }),
            "{:?}",
            r.status
        );
        assert_eq!(r.attempts, 1 + RETRIES, "initial attempt + exactly RETRIES");
    }

    #[test]
    fn disabled_retrack_is_bitwise_identical_to_single_attempt() {
        let (g, starts) = unity_start(3);
        let f = univar(&[c(0.5, 0.25), c(-1.0, 0.5), c(0.0, -0.5), Complex64::ONE]);
        let mut rng = seeded_rng(108);
        let h = LinearHomotopy::new(g, f, random_gamma(&mut rng));
        let settings = TrackSettings::default();
        let first = StepControl::attempt(0);
        let mut ws = TrackWorkspace::new();
        for s in &starts {
            let a = track_path_with(&h, s, &settings, &mut ws);
            let b = track_path_attempt(&h, s, &first, &mut ws);
            assert_eq!(a.x, b.x, "retry wrapper must not perturb results");
            assert_eq!(a.steps, b.steps);
            assert_eq!(a.attempts, 1);
        }
    }

    #[test]
    fn track_counts_work() {
        let (g, starts) = unity_start(4);
        let f = univar(&[
            c(1.0, 2.0),
            c(0.5, 0.0),
            Complex64::ZERO,
            Complex64::ZERO,
            Complex64::ONE,
        ]);
        let mut rng = seeded_rng(105);
        let h = LinearHomotopy::new(g, f, random_gamma(&mut rng));
        let (results, stats) = track_all(&h, &starts, &TrackSettings::default());
        assert_eq!(results.len(), 4);
        assert_eq!(stats.total(), 4);
        for r in &results {
            assert!(r.steps > 0);
            assert!(r.newton_iters >= r.steps);
        }
    }
}
