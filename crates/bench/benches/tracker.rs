//! Criterion benchmarks for the path tracker: per-path cost on the
//! cyclic-5 benchmark, one Pieri job, and batch tracking on the
//! work-stealing fork-join pool vs the sequential baseline (the
//! pool-backed timing behind the Fig. 1–3 calibrations).

use criterion::{criterion_group, criterion_main, Criterion};
use pieri_num::{random_gamma, seeded_rng};
use pieri_systems::{cyclic, total_degree_start};
use pieri_tracker::{track_path, LinearHomotopy, TrackSettings};

fn cyclic5_setup() -> (LinearHomotopy, Vec<Vec<pieri_num::Complex64>>) {
    let mut rng = seeded_rng(80);
    let target = cyclic(5);
    let start = total_degree_start(&target, &mut rng);
    let h = LinearHomotopy::new(start.system, target, random_gamma(&mut rng));
    (h, start.solutions)
}

fn bench_single_path(c: &mut Criterion) {
    let (h, starts) = cyclic5_setup();
    let settings = TrackSettings::default();
    c.bench_function("track_one_cyclic5_path", |b| {
        b.iter(|| track_path(&h, &starts[0], &settings))
    });
}

fn bench_pieri_job(c: &mut Criterion) {
    // One Pieri path-tracking job at the root of (2,2,1): the unit of
    // work the Fig. 6 master distributes.
    use pieri_core::{PieriProblem, Shape};
    let mut rng = seeded_rng(81);
    let shape = Shape::new(2, 2, 1);
    let problem = PieriProblem::random(shape.clone(), &mut rng);
    let solution = pieri_core::solve(&problem);
    let root = shape.root();
    let child = root
        .children()
        .into_iter()
        .next()
        .expect("root has children");
    // Re-run the last-level job from one of the child solutions.
    let child_sol = solution.coeffs[0][..child.rank()].to_vec();
    let settings = TrackSettings::default();
    c.bench_function("pieri_job_root_221", |b| {
        b.iter(|| {
            let mut ws = pieri_tracker::TrackWorkspace::new();
            pieri_core::run_job(&problem, &root, &child, &child_sol, &settings, &mut ws)
        })
    });
}

fn bench_pool_batch_tracking(c: &mut Criterion) {
    // The whole cyclic-5 batch (120 paths) sequentially vs on the
    // work-stealing pool: the speedup here is what the vendored rayon's
    // chunked par-map + per-worker deques buy over the old
    // single-mutex work queue (and over one core).
    use pieri_parallel::track_paths_rayon;
    let (h, starts) = cyclic5_setup();
    let settings = TrackSettings::default();
    let mut group = c.benchmark_group("cyclic5_batch_120_paths");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| {
            starts
                .iter()
                .map(|x0| track_path(&h, x0, &settings).steps)
                .sum::<usize>()
        })
    });
    group.bench_function(
        format!("pool_{}_threads", rayon::current_num_threads()),
        |b| b.iter(|| track_paths_rayon(&h, &starts, &settings).len()),
    );
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(300))
        .sample_size(10)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_single_path, bench_pieri_job, bench_pool_batch_tracking
}
criterion_main!(benches);
