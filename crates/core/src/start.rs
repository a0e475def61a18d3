//! Reusable generic start systems: the shape-level work of a Pieri solve.
//!
//! Everything expensive about a Pieri solve depends only on the shape
//! `(m, p, q)`: the poset of localization patterns and the one run of
//! the Pieri tree on a *generic* random instance. A concrete instance
//! (e.g. the pole-placement data of an actual plant) is then reached
//! from the generic solutions by a single straight-line coefficient-
//! parameter homotopy — `d(m,p,q)` cheap paths instead of the whole
//! tree (Huber–Sottile–Sturmfels call this reusing the start system;
//! Section III of the ICPP paper frames the Pieri tree as exactly the
//! way "to find a general start system").
//!
//! [`StartBundle`] packages that reusable work — shape, poset, generic
//! problem, and its tracked root solutions — so a long-lived server can
//! compute it once per shape and amortize it across every later request
//! (the `pieri-service` shape cache stores `Arc<StartBundle>`s).

use crate::maps::{min_pairwise_distance, PMap};
use crate::poset::Poset;
use crate::problem::PieriProblem;
use crate::solver::{solve_prepared, PieriSolution};
use crate::Shape;
use pieri_num::Complex64;
use pieri_tracker::TrackSettings;
use rand::Rng;
use std::time::Duration;

/// Two start roots at most this far apart (max norm of their coefficient
/// difference) are one root that two paths reached: a bundle holding
/// them would answer every warm request of its shape with a duplicate
/// and a missing law.
const DISTINCT_TOL: f64 = 1e-5;

/// Why `maps` cannot be a generic start solution set, if two of them
/// coincide.
fn coinciding_roots(maps: &[PMap]) -> Option<String> {
    let distance = min_pairwise_distance(maps);
    (maps.len() >= 2 && distance <= DISTINCT_TOL)
        .then(|| format!("two generic roots coincide ({distance:.2e} apart)"))
}

/// A generic start system for one shape: the poset, the random generic
/// instance, and its `d(m,p,q)` tracked root solutions.
#[derive(Debug, Clone)]
pub struct StartBundle {
    poset: Poset,
    problem: PieriProblem,
    coeffs: Vec<Vec<Complex64>>,
    build_time: Duration,
}

impl StartBundle {
    /// Builds the bundle: one generic instance through the Pieri tree
    /// with the sequential level-by-level solver.
    ///
    /// # Panics
    /// Panics if the generic solve loses roots — random instances are
    /// generic with probability one, so a shortfall is a numerics bug,
    /// not an input error.
    pub fn build<R: Rng + ?Sized>(shape: Shape, rng: &mut R, settings: &TrackSettings) -> Self {
        let t0 = std::time::Instant::now();
        let poset = Poset::build(&shape);
        let problem = PieriProblem::random(shape, rng);
        let solution = solve_prepared(&problem, &poset, settings);
        Self::from_parts(poset, problem, solution, t0.elapsed())
    }

    /// Wraps an already-computed generic solve (e.g. one produced by the
    /// tree-parallel scheduler, which can't be invoked from in here
    /// without committing core to a scheduler choice).
    ///
    /// # Panics
    /// Panics when the solution's root count falls short of `d(m,p,q)`,
    /// two of its roots coincide, or the poset does not match the
    /// problem's shape. The service's shape cache catches the panic; its
    /// next build of the shape uses the next attempt seed.
    pub fn from_parts(
        poset: Poset,
        problem: PieriProblem,
        solution: PieriSolution,
        build_time: Duration,
    ) -> Self {
        assert_eq!(poset.shape(), problem.shape(), "poset/problem shape");
        assert_eq!(
            solution.coeffs.len() as u128,
            poset.root_count(),
            "generic start solve must find all d(m,p,q) roots"
        );
        if let Some(why) = coinciding_roots(&solution.maps) {
            panic!("generic start solve: {why}");
        }
        StartBundle {
            poset,
            problem,
            coeffs: solution.coeffs,
            build_time,
        }
    }

    /// Rebuilds a bundle from *persisted* generic-solution coefficients
    /// without re-running the Pieri tree. The poset and the generic
    /// instance are regenerated deterministically from `rng` — callers
    /// persist the seed they originally built with and hand back the
    /// same seeded stream — so only the coefficient vectors need to
    /// survive on disk.
    ///
    /// Unlike [`StartBundle::from_parts`] this validates instead of
    /// panicking: a stale or corrupted store must degrade to a rebuild,
    /// not poison the server. Checks: root count equals `d(m,p,q)`,
    /// every vector has the chart dimension with finite entries, the
    /// first and last solutions actually satisfy the regenerated generic
    /// conditions, and no two solutions coincide.
    pub fn restore<R: Rng + ?Sized>(
        shape: Shape,
        rng: &mut R,
        coeffs: Vec<Vec<Complex64>>,
        build_time: Duration,
    ) -> Result<Self, String> {
        let poset = Poset::build(&shape);
        let problem = PieriProblem::random(shape, rng);
        if coeffs.is_empty() || coeffs.len() as u128 != poset.root_count() {
            return Err(format!(
                "stored root count {} does not match d(m,p,q) = {}",
                coeffs.len(),
                poset.root_count()
            ));
        }
        let root = problem.shape().root();
        let dim = crate::eval::CoeffLayout::new(&root).dim();
        for (i, x) in coeffs.iter().enumerate() {
            if x.len() != dim {
                return Err(format!(
                    "stored solution {i} has {} coefficients, chart needs {dim}",
                    x.len()
                ));
            }
            if x.iter().any(|z| !z.re.is_finite() || !z.im.is_finite()) {
                return Err(format!("stored solution {i} has non-finite entries"));
            }
        }
        // Spot-check that the coefficients belong to *this* generic
        // instance (same seed): a residual that large means the store
        // was written under different generation code or data.
        let maps: Vec<PMap> = coeffs.iter().map(|x| PMap::from_coeffs(&root, x)).collect();
        for &i in &[0, coeffs.len() - 1] {
            let res = maps[i].max_residual(&problem);
            if res.is_nan() || res >= 1e-6 {
                return Err(format!(
                    "stored solution {i} does not solve the regenerated generic instance \
                     (residual {res:.2e})"
                ));
            }
        }
        if let Some(why) = coinciding_roots(&maps) {
            return Err(format!("stored solutions: {why}"));
        }
        Ok(StartBundle {
            poset,
            problem,
            coeffs,
            build_time,
        })
    }

    /// The shape this bundle serves.
    pub fn shape(&self) -> &Shape {
        self.problem.shape()
    }

    /// The pre-built poset (shared with [`solve_prepared`] callers).
    pub fn poset(&self) -> &Poset {
        &self.poset
    }

    /// The generic start instance.
    pub fn problem(&self) -> &PieriProblem {
        &self.problem
    }

    /// Root-pattern coefficient vectors of the generic solutions — with
    /// [`StartBundle::problem`], the start of the cheap warm path
    /// [`crate::continue_to_instance`] (`d(m,p,q)` straight-line paths,
    /// no tree).
    pub fn coeffs(&self) -> &[Vec<Complex64>] {
        &self.coeffs
    }

    /// Number of start solutions (`d(m,p,q)`).
    pub fn root_count(&self) -> usize {
        self.coeffs.len()
    }

    /// Wall-clock time the shape-level work took (reported by the cache
    /// as the cost a hit avoids).
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Rough resident size of this bundle in bytes: the generic solution
    /// set, the problem data and the poset's patterns. Used by the
    /// service's shape cache for byte-budget eviction — an estimate, not
    /// an accounting.
    pub fn approx_bytes(&self) -> usize {
        let shape = self.problem.shape();
        let coeff_bytes: usize = self.coeffs.iter().map(|c| c.len() * 16 + 32).sum();
        let plane_bytes = shape.conditions() * shape.big_n() * shape.m() * 16;
        // Patterns store their pivot vectors; count nodes × pivots.
        let poset_bytes = self.poset.node_count() * (shape.p() * 8 + 64);
        coeff_bytes + plane_bytes + poset_bytes + 256
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{continue_to_instance, InstanceContinuation};
    use pieri_certify::CertifyPolicy;
    use pieri_num::seeded_rng;

    fn continue_plain(bundle: &StartBundle, target: &PieriProblem) -> InstanceContinuation {
        let settings = TrackSettings::default();
        let off = CertifyPolicy::off();
        continue_to_instance(bundle.problem(), bundle.coeffs(), target, &settings, &off)
    }

    #[test]
    fn bundle_matches_direct_solve_and_continues() {
        let mut rng = seeded_rng(370);
        let shape = Shape::new(2, 2, 0);
        let bundle = StartBundle::build(shape.clone(), &mut rng, &TrackSettings::default());
        assert_eq!(bundle.root_count(), 2);
        assert_eq!(bundle.shape(), &shape);

        let target = PieriProblem::random(shape, &mut rng);
        let cont = continue_plain(&bundle, &target);
        assert_eq!(cont.maps.len(), 2, "both roots reach the target");
        assert_eq!(cont.stats.total(), 2);
        for m in &cont.maps {
            assert!(m.max_residual(&target) < 1e-7);
        }
    }

    #[test]
    fn reusing_one_bundle_is_deterministic_per_target() {
        let mut rng = seeded_rng(371);
        let shape = Shape::new(2, 2, 0);
        let bundle = StartBundle::build(shape.clone(), &mut rng, &TrackSettings::default());
        let target = PieriProblem::random(shape, &mut rng);
        let a = continue_plain(&bundle, &target);
        let b = continue_plain(&bundle, &target);
        assert_eq!(a.coeffs, b.coeffs, "same bundle + target → same bits");
    }

    #[test]
    fn restore_round_trips_and_rejects_corruption() {
        let shape = Shape::new(2, 2, 0);
        let seed = 373_u64;
        let bundle = StartBundle::build(
            shape.clone(),
            &mut seeded_rng(seed),
            &TrackSettings::default(),
        );

        // Same seed + persisted coefficients → bit-identical bundle.
        let restored = StartBundle::restore(
            shape.clone(),
            &mut seeded_rng(seed),
            bundle.coeffs().to_vec(),
            bundle.build_time(),
        )
        .expect("faithful restore succeeds");
        assert_eq!(restored.coeffs(), bundle.coeffs());
        let target = PieriProblem::random(shape.clone(), &mut seeded_rng(99));
        let a = continue_plain(&bundle, &target);
        let b = continue_plain(&restored, &target);
        assert_eq!(a.coeffs, b.coeffs, "restored bundle continues identically");

        // Wrong seed: well-formed coefficients that don't solve the
        // regenerated instance are rejected by the residual check.
        let err = StartBundle::restore(
            shape.clone(),
            &mut seeded_rng(seed + 1),
            bundle.coeffs().to_vec(),
            Duration::ZERO,
        )
        .unwrap_err();
        assert!(err.contains("residual"), "{err}");

        // Structural corruption: dropped root, wrong dimension,
        // non-finite entries.
        let mut short = bundle.coeffs().to_vec();
        short.pop();
        assert!(
            StartBundle::restore(shape.clone(), &mut seeded_rng(seed), short, Duration::ZERO)
                .unwrap_err()
                .contains("root count")
        );
        let mut ragged = bundle.coeffs().to_vec();
        ragged[1].pop();
        assert!(
            StartBundle::restore(shape.clone(), &mut seeded_rng(seed), ragged, Duration::ZERO)
                .unwrap_err()
                .contains("coefficients")
        );
        let mut nan = bundle.coeffs().to_vec();
        nan[0][0] = Complex64::new(f64::NAN, 0.0);
        assert!(
            StartBundle::restore(shape, &mut seeded_rng(seed), nan, Duration::ZERO)
                .unwrap_err()
                .contains("non-finite")
        );
    }

    #[test]
    fn restore_rejects_coinciding_roots() {
        let shape = Shape::new(2, 2, 0);
        let seed = 374_u64;
        let bundle = StartBundle::build(
            shape.clone(),
            &mut seeded_rng(seed),
            &TrackSettings::default(),
        );
        // Both stored roots solve the regenerated instance, but they are
        // one root.
        let mut twice = bundle.coeffs().to_vec();
        twice[1] = twice[0].clone();
        let err =
            StartBundle::restore(shape, &mut seeded_rng(seed), twice, Duration::ZERO).unwrap_err();
        assert!(err.contains("coincide"), "{err}");
    }

    #[test]
    #[should_panic(expected = "coincide")]
    fn from_parts_rejects_coinciding_roots() {
        let mut rng = seeded_rng(375);
        let shape = Shape::new(2, 2, 0);
        let poset = Poset::build(&shape);
        let problem = PieriProblem::random(shape, &mut rng);
        let mut solution = solve_prepared(&problem, &poset, &TrackSettings::default());
        solution.coeffs[1] = solution.coeffs[0].clone();
        solution.maps[1] = solution.maps[0].clone();
        let _ = StartBundle::from_parts(poset, problem, solution, Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "all d(m,p,q) roots")]
    fn from_parts_rejects_lost_roots() {
        let mut rng = seeded_rng(372);
        let shape = Shape::new(2, 2, 0);
        let poset = Poset::build(&shape);
        let problem = PieriProblem::random(shape, &mut rng);
        let mut solution = solve_prepared(&problem, &poset, &TrackSettings::default());
        solution.coeffs.pop();
        let _ = StartBundle::from_parts(poset, problem, solution, Duration::ZERO);
    }
}
