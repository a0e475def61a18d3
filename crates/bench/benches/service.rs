//! Criterion benchmarks for the batch service: cold-vs-warm shape
//! throughput — the measured value of the shape-keyed start-system
//! cache. A *cold* request pays the poset plus the Pieri tree; a *warm*
//! request tracks only the `d(m,p,q)` continuation paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pieri_service::{Engine, EngineConfig, JobRequest};

fn engine() -> Engine {
    Engine::start(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    })
}

fn bench_cold_vs_warm(c: &mut Criterion) {
    let shapes = [(2usize, 2usize, 0usize), (2, 2, 1)];
    let mut group = c.benchmark_group("service_shape_cache");
    group.sample_size(10);
    for &(m, p, q) in &shapes {
        let req = JobRequest::SolvePieri {
            m,
            p,
            q,
            seed: 1,
            certify: false,
        };
        group.bench_with_input(
            BenchmarkId::new("cold", format!("{m}_{p}_{q}")),
            &req,
            |b, req| {
                // A fresh engine per iteration: every request rebuilds
                // the poset and runs the Pieri tree.
                b.iter(|| {
                    let e = engine();
                    let res = e.run(req.clone()).unwrap();
                    assert!(!res.cache_hit);
                    res.solutions
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("warm", format!("{m}_{p}_{q}")),
            &req,
            |b, req| {
                // One engine, shape pre-warmed: every request is a hit.
                let e = engine();
                e.run(req.clone()).unwrap();
                let mut seed = 100u64;
                b.iter(|| {
                    seed += 1;
                    let res = e
                        .run(JobRequest::SolvePieri {
                            m,
                            p,
                            q,
                            seed,
                            certify: false,
                        })
                        .unwrap();
                    assert!(res.cache_hit);
                    res.solutions
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_cold_vs_warm);
criterion_main!(benches);
