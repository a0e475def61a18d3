//! Criterion benchmarks for the Schubert machinery: poset construction
//! and exact root counting (instantaneous even where solving is
//! intractable — the point of Table IV's #solutions column), and full
//! small Pieri solves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pieri_core::{solve, PieriProblem, Poset, Shape};
use pieri_num::seeded_rng;

fn bench_poset_counts(c: &mut Criterion) {
    let mut group = c.benchmark_group("poset_root_count");
    for (m, p, q) in [(2usize, 2usize, 3usize), (3, 3, 1), (4, 4, 0), (4, 3, 1)] {
        let label = format!("{m}{p}{q}");
        group.bench_with_input(
            BenchmarkId::from_parameter(label),
            &(m, p, q),
            |b, &(m, p, q)| {
                b.iter(|| {
                    let poset = Poset::build(&Shape::new(m, p, q));
                    poset.root_count()
                })
            },
        );
    }
    group.finish();
}

fn bench_full_solves(c: &mut Criterion) {
    let mut group = c.benchmark_group("pieri_solve");
    group.sample_size(10);
    for (m, p, q) in [(2usize, 2usize, 0usize), (3, 2, 0), (2, 2, 1)] {
        let label = format!("{m}{p}{q}");
        let mut rng = seeded_rng(90 + (m * 10 + p) as u64);
        let problem = PieriProblem::random(Shape::new(m, p, q), &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(label), &problem, |b, prob| {
            b.iter(|| solve(prob))
        });
    }
    group.finish();
}

fn bench_homotopy_eval(c: &mut Criterion) {
    // The inner loop of every Newton step: evaluating the Pieri homotopy
    // and its Jacobian at the root of (2,2,1).
    use pieri_core::PieriHomotopy;
    use pieri_linalg::CMat;
    use pieri_num::{random_complex, Complex64};
    use pieri_tracker::Homotopy;
    let mut rng = seeded_rng(91);
    let shape = Shape::new(2, 2, 1);
    let problem = PieriProblem::random(shape.clone(), &mut rng);
    let h = PieriHomotopy::new(&problem, &shape.root());
    let x: Vec<Complex64> = (0..h.dim()).map(|_| random_complex(&mut rng)).collect();
    let mut out = vec![Complex64::ZERO; h.dim()];
    let mut jac = CMat::zeros(h.dim(), h.dim());
    c.bench_function("pieri_homotopy_eval_221", |b| {
        b.iter(|| h.eval(&x, 0.5, &mut out))
    });
    c.bench_function("pieri_homotopy_jacobian_221", |b| {
        b.iter(|| h.jacobian_x(&x, 0.5, &mut jac))
    });
}

fn bench_poset_vs_tree_organisation(c: &mut Criterion) {
    // The Section III.C ablation: tree master/slave scheduling versus the
    // level-synchronous poset organisation (barrier per rank, two full
    // levels of solutions live).
    use pieri_core::Poset;
    use pieri_parallel::{solve_by_levels_prepared, solve_tree_parallel_prepared};
    use pieri_tracker::TrackSettings;
    let mut rng = seeded_rng(92);
    let problem = PieriProblem::random(Shape::new(2, 2, 1), &mut rng);
    let settings = TrackSettings::default();
    let mut group = c.benchmark_group("poset_vs_tree_221");
    group.sample_size(10);
    group.bench_function("tree_master_2w", |b| {
        b.iter(|| {
            let poset = Poset::build(problem.shape());
            solve_tree_parallel_prepared(&problem, &poset, &settings, 2)
        })
    });
    group.bench_function("levels_barrier", |b| {
        b.iter(|| {
            let poset = Poset::build(problem.shape());
            solve_by_levels_prepared(&problem, &poset, &settings)
        })
    });
    group.bench_function("sequential", |b| b.iter(|| solve(&problem)));
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(300))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_poset_counts,
        bench_full_solves,
        bench_homotopy_eval,
        bench_poset_vs_tree_organisation
}
criterion_main!(benches);
