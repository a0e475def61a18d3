//! Regression test for the `/v1/stats` coherence contract: every
//! snapshot taken *while* workers and submitters are mid-flight must
//! satisfy the documented invariants (`deadline_expired ≤ completed ≤
//! submitted`, `shed ≤ rejected`). The registry guarantees this by
//! registration order (each bounded counter reads before its bound)
//! plus increment order (every site bumps the bound first); this test
//! hammers `Engine::stats()` from sampler threads during a swarm of
//! valid, invalid, lapsed-deadline and queue-flooding submissions to
//! catch any regression in either ordering.
//!
//! Needs no trace recorder: the metrics registry is always on.

use pieri_service::{Engine, EngineConfig, JobRequest};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn quick_job(seed: u64) -> JobRequest {
    JobRequest::SolvePieri {
        m: 2,
        p: 2,
        q: 0,
        seed,
        certify: false,
    }
}

#[test]
fn stats_snapshots_hold_invariants_under_load() {
    let engine = Arc::new(Engine::start(EngineConfig {
        workers: 2,
        queue_capacity: 3,
        ..EngineConfig::default()
    }));
    let stop = Arc::new(AtomicBool::new(false));

    let samplers: Vec<_> = (0..2)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut checked = 0usize;
                while !stop.load(Ordering::SeqCst) {
                    let s = engine.stats();
                    assert!(
                        s.completed <= s.submitted,
                        "completed {} > submitted {}",
                        s.completed,
                        s.submitted
                    );
                    assert!(
                        s.deadline_expired <= s.completed,
                        "deadline_expired {} > completed {}",
                        s.deadline_expired,
                        s.completed
                    );
                    assert!(
                        s.shed <= s.rejected,
                        "shed {} > rejected {}",
                        s.shed,
                        s.rejected
                    );
                    assert!(s.queue_len <= s.queue_capacity);
                    checked += 1;
                }
                checked
            })
        })
        .collect();

    let submitters: Vec<_> = (0..3)
        .map(|worker| {
            let engine = Arc::clone(&engine);
            thread::spawn(move || {
                for round in 0..30u64 {
                    // Valid work (one shape: warm after the first build).
                    let _ = engine.run(quick_job(worker * 1000 + round));
                    // Invalid request: rejected at admission.
                    let invalid = JobRequest::SolvePieri {
                        m: 0,
                        p: 0,
                        q: 0,
                        seed: 1,
                        certify: false,
                    };
                    let _ = engine.submit_async(invalid, None, 0, |_| {});
                    // Already-lapsed deadline: shed at admission.
                    let lapsed = Instant::now() - Duration::from_millis(1);
                    let _ = engine.submit_async(quick_job(round), Some(lapsed), 0, |_| {});
                    // Async flood against the 3-deep queue: some of
                    // these shed as QueueFull under concurrency.
                    for burst in 0..4u64 {
                        let _ = engine.submit_async(
                            quick_job(worker * 10_000 + round * 10 + burst),
                            None,
                            0,
                            |_| {},
                        );
                    }
                }
            })
        })
        .collect();

    for t in submitters {
        t.join().expect("submitter");
    }
    stop.store(true, Ordering::SeqCst);
    let mut total_checked = 0usize;
    for t in samplers {
        total_checked += t.join().expect("sampler");
    }
    assert!(total_checked > 0, "samplers observed live snapshots");

    // Final quiescent snapshot: the swarm really produced the traffic
    // classes the invariants are about.
    let s = engine.stats();
    assert!(
        s.completed >= 90,
        "every valid run completed: {}",
        s.completed
    );
    assert!(s.rejected >= 90, "invalid submissions counted");
    assert!(s.shed >= 90, "lapsed deadlines shed");
    engine.shutdown();
}
