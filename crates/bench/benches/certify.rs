//! Micro-benchmarks of the certification layer: what a Newton
//! certificate and a double-double refinement cost per solution, per
//! shape — the numbers the ROADMAP records as the price of
//! quality-of-result (they are paid once per *shipped* solution, after
//! the whole tree/continuation has already run).

use criterion::{criterion_group, criterion_main, Criterion};
use pieri_certify::{
    certify_endpoint, refine_endpoint, CertifyPolicy, REFINE_MAX_ITERS, REFINE_TOL,
};
use pieri_core::{
    certify_solution_set, solve, InstanceHomotopy, PieriProblem, Shape, TargetConditions,
};
use pieri_num::{seeded_rng, DdComplex};
use pieri_tracker::TrackWorkspace;

/// One solved generic instance per shape, reused across iterations.
fn solved(
    m: usize,
    p: usize,
    q: usize,
    seed: u64,
) -> (PieriProblem, Vec<Vec<pieri_num::Complex64>>) {
    let mut rng = seeded_rng(seed);
    let problem = PieriProblem::random(Shape::new(m, p, q), &mut rng);
    let solution = solve(&problem);
    (problem, solution.coeffs)
}

fn bench_certificate(c: &mut Criterion) {
    let mut group = c.benchmark_group("certificate");
    for &(m, p, q) in &[(2usize, 2usize, 0usize), (2, 2, 1), (3, 3, 0)] {
        let (problem, coeffs) = solved(m, p, q, 800);
        let h = InstanceHomotopy::target(&problem);
        let mut ws = TrackWorkspace::new();
        group.bench_function(format!("newton_cert_({m},{p},{q})"), |b| {
            b.iter(|| {
                // Certificate cost of ONE endpoint (two fused Newton steps).
                criterion::black_box(certify_endpoint(&h, &coeffs[0], 1.0, &mut ws))
            })
        });
    }
    group.finish();
}

fn bench_refinement(c: &mut Criterion) {
    let mut group = c.benchmark_group("refine_dd");
    for &(m, p, q) in &[(2usize, 2usize, 0usize), (2, 2, 1), (3, 3, 0)] {
        let (problem, coeffs) = solved(m, p, q, 801);
        let h = InstanceHomotopy::target(&problem);
        let sys = TargetConditions::new(&problem);
        let mut ws = TrackWorkspace::new();
        group.bench_function(format!("refine_({m},{p},{q})"), |b| {
            b.iter(|| {
                // Double-double refinement of ONE endpoint to 1e-13.
                let mut x = coeffs[0].clone();
                criterion::black_box(refine_endpoint::<DdComplex, _, _>(
                    &h,
                    &sys,
                    1.0,
                    &mut x,
                    REFINE_TOL,
                    REFINE_MAX_ITERS,
                    &mut ws,
                ))
            })
        });
    }
    group.finish();
}

fn bench_full_solution_set(c: &mut Criterion) {
    let mut group = c.benchmark_group("certify_solution_set");
    for &(m, p, q) in &[(2usize, 2usize, 0usize), (2, 2, 1)] {
        let (problem, coeffs) = solved(m, p, q, 802);
        let policy = CertifyPolicy::full();
        group.bench_function(format!("all_roots_({m},{p},{q})"), |b| {
            b.iter(|| {
                // Certify + refine every d(m,p,q) root (what a certified
                // service request pays on top of the continuation).
                let mut cs = coeffs.clone();
                criterion::black_box(certify_solution_set(&problem, &mut cs, &policy))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_certificate,
    bench_refinement,
    bench_full_solution_set
);
criterion_main!(benches);
