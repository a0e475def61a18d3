//! Chaos suite (`--features chaos`): the service under a deterministic
//! fault plan must answer every request exactly once, with the same
//! bits a fault-free run produces, and its stats must agree with what
//! the clients observed.
//!
//! The fault registry is process-global, so every test takes the
//! [`ChaosGuard`]: a static mutex serialising the tests plus an
//! install-on-entry / clear-on-drop of the test's plan (clearing also
//! happens when the test panics, so one failure cannot leak faults
//! into the next test).

use pieri_service::pieri_chaos::{self, FaultPlan};
use pieri_service::{
    Client, Engine, EngineConfig, JobRequest, RetryPolicy, Server, SupervisorConfig,
};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Serialises chaos tests and scopes their fault plan.
struct ChaosGuard {
    _lock: MutexGuard<'static, ()>,
    plan: Arc<FaultPlan>,
}

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

impl ChaosGuard {
    fn install(spec: &str) -> ChaosGuard {
        let lock = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let plan = Arc::new(FaultPlan::parse(spec).expect("fault plan"));
        pieri_chaos::install(Arc::clone(&plan));
        ChaosGuard { _lock: lock, plan }
    }
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        pieri_chaos::clear();
    }
}

/// A supervisor tuned for tests: wedges detected in ~150 ms instead of
/// the production 30 s.
fn fast_supervisor() -> SupervisorConfig {
    SupervisorConfig {
        tick: Duration::from_millis(25),
        stall_timeout: Duration::from_millis(150),
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(20),
    }
}

fn engine_with(workers: usize, supervisor: SupervisorConfig) -> Engine {
    Engine::start(EngineConfig {
        workers,
        queue_capacity: 32,
        supervisor,
        ..EngineConfig::default()
    })
}

fn solve_req(seed: u64) -> JobRequest {
    JobRequest::SolvePieri {
        m: 2,
        p: 2,
        q: 0,
        seed,
        certify: false,
    }
}

/// Watchdog: runs `f` on a helper thread and fails the test if it
/// exceeds `timeout` — a chaos bug that wedges a wait must fail
/// loudly, not hang the suite.
fn within<T: Send + 'static>(timeout: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(timeout)
        .expect("watchdog: operation wedged")
}

// ---- supervised workers ------------------------------------------------

/// A worker panicking *while holding the queue lock* poisons the
/// engine's central mutex. Concurrent submitters must sail through the
/// poison (lock_recover), the supervisor must restart the dead worker,
/// and every job must still be answered — with the same bits a clean
/// engine produces.
#[test]
fn queue_lock_panic_recovers_under_concurrent_load() {
    let guard = ChaosGuard::install("worker.panic@1");
    let eng = Arc::new(engine_with(2, fast_supervisor()));
    let chaotic: Vec<_> = within(Duration::from_secs(60), {
        let eng = Arc::clone(&eng);
        move || {
            // Submit everything up front so admissions race the panic,
            // then collect: every answer must come back successfully.
            let answers: Vec<_> = (0..8)
                .map(|seed| {
                    let (tx, rx) = mpsc::channel();
                    eng.submit_async(solve_req(seed), None, 0, move |result| {
                        let _ = tx.send(result);
                    })
                    .expect("admitted");
                    rx
                })
                .collect();
            answers
                .into_iter()
                .map(|rx| {
                    rx.recv()
                        .expect("answered")
                        .expect("answered despite the panic")
                })
                .collect()
        }
    });
    let stats = eng.stats();
    assert!(
        stats.workers_restarted >= 1,
        "the panicked worker was restarted: {stats:?}"
    );
    assert_eq!(stats.completed, 8, "every job answered exactly once");
    assert_eq!(guard.plan.fired("worker.panic"), 1);
    eng.shutdown();
    drop(guard);

    // Bitwise determinism: a fault-free engine answers identically.
    let clean_eng = Arc::new(engine_with(2, fast_supervisor()));
    for (seed, chaotic_result) in chaotic.iter().enumerate() {
        let clean = clean_eng.run(solve_req(seed as u64)).expect("clean run");
        assert_eq!(
            clean.coeffs, chaotic_result.coeffs,
            "seed {seed}: chaos must not change the answer"
        );
    }
    clean_eng.shutdown();
}

/// A worker panicking *after claiming a job* (solver not yet invoked)
/// dies with the claim in its slot. The supervisor must requeue that
/// claim replay-safely — the client still gets exactly one successful
/// answer — and count it in `jobs_recovered`.
#[test]
fn claimed_job_is_requeued_replay_safely() {
    let guard = ChaosGuard::install("worker.panic.job@1");
    let eng = Arc::new(engine_with(1, fast_supervisor()));
    let result = within(Duration::from_secs(60), {
        let eng = Arc::clone(&eng);
        move || eng.run(solve_req(5)).expect("recovered and answered")
    });
    assert_eq!(result.solutions, 2);
    let stats = eng.stats();
    assert_eq!(stats.jobs_recovered, 1, "the claim was requeued: {stats:?}");
    assert!(stats.workers_restarted >= 1);
    assert_eq!(stats.completed, 1, "exactly one answer");
    assert_eq!(guard.plan.fired("worker.panic.job"), 1);
    eng.shutdown();
}

/// A wedged worker (stalled pre-solve, far past the stall timeout) is
/// failed over: the supervisor detaches it, requeues its claim, and a
/// replacement answers. The wedged thread, waking later, must notice
/// its generation is stale and touch nothing.
#[test]
fn wedged_worker_is_failed_over() {
    let guard = ChaosGuard::install("worker.wedge@1:ms=3000");
    let eng = Arc::new(engine_with(1, fast_supervisor()));
    let result = within(Duration::from_secs(60), {
        let eng = Arc::clone(&eng);
        move || eng.run(solve_req(9)).expect("failed over and answered")
    });
    assert_eq!(result.solutions, 2);
    let stats = eng.stats();
    assert!(stats.workers_restarted >= 1, "{stats:?}");
    assert!(stats.jobs_recovered >= 1, "{stats:?}");
    assert_eq!(guard.plan.fired("worker.wedge"), 1);
    eng.shutdown();
}

// ---- socket storms -----------------------------------------------------

/// A swarm against a server whose sockets misbehave on a seeded
/// schedule — spurious wakeups, EAGAIN storms, short reads and writes.
/// Every request must be answered exactly once with a bit-identical
/// result, and the server's stats must agree with the client count.
#[test]
fn socket_fault_storm_answers_every_request_exactly_once() {
    let guard = ChaosGuard::install(
        "seed=11; poll.spurious/5; sock.read.eagain%0.2; sock.read.short/3:n=7; \
         sock.write.eagain%0.2; sock.write.short/2:n=9",
    );
    let engine = Arc::new(engine_with(2, fast_supervisor()));
    let server = Server::start("127.0.0.1:0", engine).expect("bind");
    let addr = server.addr();

    let threads = 4usize;
    let per_thread = 5usize;
    let answers: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let client =
                        Client::with_retry(addr, Duration::from_secs(30), RetryPolicy::attempts(4))
                            .expect("client");
                    (0..per_thread)
                        .map(|i| {
                            let seed = (t * per_thread + i) as u64 % 3;
                            let result = client.solve(&solve_req(seed)).expect("answered");
                            (seed, result.coeffs)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("join"))
            .collect()
    });
    assert_eq!(answers.len(), threads * per_thread);

    // Bitwise determinism under chaos: every solve of a seed matches
    // every other solve of that seed, across threads and retries.
    for seed in 0..3u64 {
        let mut per_seed = answers.iter().filter(|(s, _)| *s == seed);
        let first = per_seed.next().expect("seed present").1.clone();
        for (_, coeffs) in per_seed {
            assert_eq!(*coeffs, first, "seed {seed} answered differently");
        }
    }

    // Stats agree with the swarm: one execution per request, nothing
    // lost, nothing doubled.
    let stats = server.engine().stats();
    assert_eq!(stats.submitted, threads * per_thread, "{stats:?}");
    assert_eq!(stats.completed, stats.submitted, "{stats:?}");

    // The storm actually stormed.
    assert!(guard.plan.fired("poll.spurious") >= 1);
    assert!(guard.plan.fired("sock.read.eagain") >= 1);
    assert!(guard.plan.fired("sock.write.short") >= 1);
    server.engine().shutdown();
    server.shutdown();
}

/// Accepted connections dropped on the floor are the client's
/// replay-safe retry case: a retrying client must get through once the
/// scheduled failures are spent.
#[test]
fn dropped_accepts_are_survived_by_retry() {
    let guard = ChaosGuard::install("sock.accept.fail@1..2");
    let engine = Arc::new(engine_with(1, fast_supervisor()));
    let server = Server::start("127.0.0.1:0", engine).expect("bind");
    let client = Client::with_retry(
        server.addr(),
        Duration::from_secs(10),
        RetryPolicy::attempts(5),
    )
    .expect("client");
    let (status, body) = client.get("/healthz").expect("retries get through");
    assert_eq!(status, 200, "{}", body.serialize());
    assert_eq!(guard.plan.fired("sock.accept.fail"), 2);
    server.engine().shutdown();
    server.shutdown();
}

// ---- store faults ------------------------------------------------------

/// A torn bundle write (simulated crash mid-save) must leave nothing
/// behind that a restarted engine trusts: the next lifetime rebuilds
/// cold and lands on bit-identical coefficients.
#[test]
fn torn_store_write_rebuilds_bitwise_identically() {
    let dir = std::env::temp_dir().join(format!("pieri-chaos-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || EngineConfig {
        workers: 1,
        queue_capacity: 8,
        bundle_store: Some(dir.clone()),
        ..EngineConfig::default()
    };

    let guard = ChaosGuard::install("store.write.torn@1");
    let eng = Engine::start(config());
    let cold = eng.run(solve_req(3)).expect("cold solve");
    assert!(!cold.cache_hit);
    eng.shutdown();
    assert_eq!(guard.plan.fired("store.write.torn"), 1);
    drop(guard); // chaos off for the restart

    let eng = Engine::start(config());
    let rebuilt = eng.run(solve_req(3)).expect("post-crash solve");
    assert!(
        !rebuilt.cache_hit,
        "the torn save must not have produced a loadable bundle"
    );
    assert_eq!(rebuilt.coeffs, cold.coeffs, "rebuild is bit-identical");
    let stats = eng.stats();
    assert_eq!(stats.cache.restored, 0);
    assert_eq!(stats.cache.store_recovered, 0);
    eng.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A full disk (injected ENOSPC) must degrade persistence, not
/// service: the solve still answers, and the next lifetime simply
/// rebuilds.
#[test]
fn enospc_on_save_degrades_to_no_persistence() {
    let dir = std::env::temp_dir().join(format!("pieri-chaos-enospc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let guard = ChaosGuard::install("store.write.enospc@1");
    let eng = Engine::start(EngineConfig {
        workers: 1,
        queue_capacity: 8,
        bundle_store: Some(dir.clone()),
        ..EngineConfig::default()
    });
    let result = eng.run(solve_req(4)).expect("solve unaffected by ENOSPC");
    assert_eq!(result.solutions, 2);
    assert_eq!(guard.plan.fired("store.write.enospc"), 1);
    eng.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
