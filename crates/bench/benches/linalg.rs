//! Criterion micro-benchmarks for the linear-algebra kernels that
//! dominate path tracking: the reused-slot LU factorisation and solve of
//! every Newton step and tangent (`n = 12` is the (2,2,2) Jacobian), the
//! fused det+cofactor engine on a 4×4 condition matrix (`m + p = 4`),
//! determinants, cofactor matrices and the QR eigensolver (closed-loop
//! verification).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pieri_linalg::{adjugate, det, eigenvalues, CMat, DetCofactor, Lu};
use pieri_num::{random_complex, seeded_rng, Complex64};

fn random_matrix(n: usize, seed: u64) -> CMat {
    let mut rng = seeded_rng(seed);
    CMat::random(n, n, &mut rng, random_complex)
}

/// `Lu::factor_into` on a reused slot and `solve_in_place` on a reused
/// buffer: the calls the Newton corrector and the predictor make.
fn bench_lu(c: &mut Criterion) {
    let mut group = c.benchmark_group("lu");
    group.sample_size(200);
    for n in [4usize, 8, 12] {
        let a = random_matrix(n, 40 + n as u64);
        let b: Vec<Complex64> = {
            let mut rng = seeded_rng(50 + n as u64);
            (0..n).map(|_| random_complex(&mut rng)).collect()
        };
        let mut slot = Lu::default();
        group.bench_function(BenchmarkId::new("factor_into", n), |bch| {
            bch.iter(|| Lu::factor_into(&a, &mut slot).expect("nonsingular"))
        });
        let mut x = b.clone();
        group.bench_function(BenchmarkId::new("solve_in_place", n), |bch| {
            bch.iter(|| {
                x.copy_from_slice(&b);
                slot.solve_in_place(&mut x);
                x[0]
            })
        });
    }
    group.finish();
}

/// The Newton kernel's call on a fixed Pieri condition at `m = p = 2`:
/// the residual determinant plus the `p = 2` X-block cofactor columns
/// of a 4×4 matrix.
fn bench_det_cofactor(c: &mut Criterion) {
    let mut group = c.benchmark_group("det_cofactor");
    group.sample_size(200);
    let a = random_matrix(4, 80);
    let mut cof = CMat::zeros(4, 4);
    let mut engine = DetCofactor::new();
    group.bench_function(
        BenchmarkId::new("det_and_cofactor_cols_into", "4x4_cols2"),
        |bch| bch.iter(|| engine.det_and_cofactor_cols_into(&a, &mut cof, 2)),
    );
    group.finish();
}

fn bench_determinants(c: &mut Criterion) {
    let mut group = c.benchmark_group("determinant");
    for n in [4usize, 6, 8] {
        let a = random_matrix(n, 60 + n as u64);
        group.bench_with_input(BenchmarkId::new("lu_det", n), &a, |bch, a| {
            bch.iter(|| det(a))
        });
        // The adjugate ablation: cofactor matrices are the stable way
        // to differentiate determinantal conditions; this measures their
        // O(n^5) cost against the O(n^3) determinant itself.
        group.bench_with_input(BenchmarkId::new("adjugate", n), &a, |bch, a| {
            bch.iter(|| adjugate(a))
        });
    }
    group.finish();
}

fn bench_eigenvalues(c: &mut Criterion) {
    let mut group = c.benchmark_group("eigenvalues");
    for n in [4usize, 8, 12] {
        let a = random_matrix(n, 70 + n as u64);
        group.bench_with_input(BenchmarkId::new("qr_iteration", n), &a, |bch, a| {
            bch.iter(|| eigenvalues(a).expect("converges"))
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_lu, bench_det_cofactor, bench_determinants, bench_eigenvalues
}
criterion_main!(benches);
