//! Zero-downtime restart and idle-sweep end-to-end tests (no chaos
//! feature needed): a drain hands the port to a replacement server via
//! `SO_REUSEPORT` with zero failed non-shed requests mid-swarm, and
//! the reactor's idle sweep enforces the per-server budgets from
//! [`ServerOptions`] while exempting connections with work in flight.

use pieri_service::{Client, Engine, EngineConfig, JobRequest, RetryPolicy, Server, ServerOptions};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn engine_config(dir: Option<std::path::PathBuf>) -> EngineConfig {
    EngineConfig {
        workers: 2,
        queue_capacity: 64,
        bundle_store: dir,
        ..EngineConfig::default()
    }
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

// ---- zero-downtime restart ---------------------------------------------

/// Restart mid-swarm: server A (bound with `SO_REUSEPORT`) serves a
/// swarm of retrying clients; server B starts on the *same* port and
/// A drains. Every request in the swarm must succeed — no failed
/// non-shed requests across the handoff — with bit-identical results
/// whichever server answered, and the two engines' ledgers must
/// account for every answer exactly once.
#[test]
fn zero_downtime_restart_mid_swarm() {
    let dir = std::env::temp_dir().join(format!("pieri-drain-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let reuse = || ServerOptions {
        reuseport: true,
        ..ServerOptions::default()
    };

    let engine_a = Arc::new(Engine::start(engine_config(Some(dir.clone()))));
    let server_a = Server::start_with("127.0.0.1:0", Arc::clone(&engine_a), reuse())
        .expect("bind A with SO_REUSEPORT");
    let addr = server_a.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let next_seed = Arc::new(AtomicU64::new(0));
    let answers: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let stop = Arc::clone(&stop);
                let next_seed = Arc::clone(&next_seed);
                scope.spawn(move || {
                    let client =
                        Client::with_retry(addr, Duration::from_secs(30), RetryPolicy::attempts(6))
                            .expect("client");
                    let mut answers = Vec::new();
                    while !stop.load(Ordering::SeqCst) {
                        let seed = next_seed.fetch_add(1, Ordering::SeqCst) % 3;
                        let result = client
                            .solve(&solve_req(seed))
                            .expect("zero failed non-shed requests across the restart");
                        answers.push((seed, result.coeffs));
                    }
                    answers
                })
            })
            .collect();

        // Mid-swarm: start the replacement on the same port, then
        // drain the old server under a generous deadline.
        std::thread::sleep(Duration::from_millis(150));
        let engine_b = Arc::new(Engine::start(engine_config(Some(dir.clone()))));
        let server_b = Server::start_with(&addr.to_string(), Arc::clone(&engine_b), reuse())
            .expect("bind B on the same port while A still serves");
        let drained = server_a.drain(Duration::from_secs(30));
        assert!(drained, "every connection of A drained before the deadline");

        // The swarm keeps hammering B alone for a while, then stops.
        std::thread::sleep(Duration::from_millis(300));
        stop.store(true, Ordering::SeqCst);
        let answers: Vec<_> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("swarm thread"))
            .collect();

        // Exactly-once ledger: every client success is one completed
        // job on exactly one of the two engines, and nothing was lost.
        let stats_a = engine_a.stats();
        let stats_b = engine_b.stats();
        assert_eq!(stats_a.completed, stats_a.submitted, "A drained clean");
        assert_eq!(
            stats_a.completed + stats_b.completed,
            answers.len(),
            "A={stats_a:?}\nB={stats_b:?}"
        );
        assert!(
            stats_b.completed >= 1,
            "the replacement server took over the swarm: {stats_b:?}"
        );

        server_b.shutdown();
        engine_b.shutdown();
        answers
    });
    engine_a.shutdown();

    assert!(
        answers.len() >= 8,
        "the swarm made progress through the restart: {} answers",
        answers.len()
    );
    // Bit-identical results regardless of which server answered.
    for seed in 0..3u64 {
        let mut per_seed = answers.iter().filter(|(s, _)| *s == seed);
        if let Some((_, first)) = per_seed.next() {
            for (_, coeffs) in per_seed {
                assert_eq!(coeffs, first, "seed {seed} differed across the restart");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A drain on a quiescent server completes immediately and reports
/// clean; afterwards the port is free for an exclusive bind.
#[test]
fn drain_of_quiescent_server_is_clean() {
    let engine = Arc::new(Engine::start(engine_config(None)));
    let server = Server::start_with(
        "127.0.0.1:0",
        Arc::clone(&engine),
        ServerOptions {
            reuseport: true,
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let addr = server.addr();
    let client = Client::new(addr).expect("client");
    assert!(client.health());
    drop(client); // release the kept-alive connection before draining
    std::thread::sleep(Duration::from_millis(50));
    assert!(server.drain(Duration::from_secs(10)), "nothing to drain");
    // The port is released: a plain exclusive bind now succeeds.
    let rebound = std::net::TcpListener::bind(addr);
    assert!(rebound.is_ok(), "port still held after drain: {rebound:?}");
    engine.shutdown();
}

// ---- idle sweep --------------------------------------------------------

/// Reads until EOF (or panics on timeout), returning how long it took.
fn read_to_eof(stream: &mut TcpStream, budget: Duration) -> Duration {
    stream.set_read_timeout(Some(budget)).expect("timeout");
    let started = Instant::now();
    let mut sink = [0u8; 4096];
    loop {
        match stream.read(&mut sink) {
            Ok(0) => return started.elapsed(),
            Ok(_) => continue,
            Err(e) => panic!("expected server-side close, got {e}"),
        }
    }
}

/// A quiescent kept-alive connection is closed once it outlives the
/// server's `keep_alive_idle` budget.
#[test]
fn idle_keep_alive_connection_is_swept() {
    let engine = Arc::new(Engine::start(engine_config(None)));
    let server = Server::start_with(
        "127.0.0.1:0",
        Arc::clone(&engine),
        ServerOptions {
            keep_alive_idle: Duration::from_millis(200),
            ..ServerOptions::default()
        },
    )
    .expect("bind");

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n")
        .expect("send");
    // One answered request, then silence: the sweep must close us.
    let elapsed = read_to_eof(&mut stream, Duration::from_secs(10));
    assert!(
        elapsed >= Duration::from_millis(150),
        "closed before the idle budget could have lapsed: {elapsed:?}"
    );
    server.engine().shutdown();
    server.shutdown();
}

/// A stalled transfer — half a request head, then nothing — is closed
/// once it outlives the server's `io_timeout` budget.
#[test]
fn stalled_partial_request_is_swept() {
    let engine = Arc::new(Engine::start(engine_config(None)));
    let server = Server::start_with(
        "127.0.0.1:0",
        Arc::clone(&engine),
        ServerOptions {
            keep_alive_idle: Duration::from_secs(10),
            io_timeout: Duration::from_millis(300),
            ..ServerOptions::default()
        },
    )
    .expect("bind");

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.write_all(b"GET /healthz HT").expect("partial head");
    let elapsed = read_to_eof(&mut stream, Duration::from_secs(10));
    assert!(
        elapsed >= Duration::from_millis(250),
        "closed before the stall budget could have lapsed: {elapsed:?}"
    );
    server.engine().shutdown();
    server.shutdown();
}

/// A connection whose request is queued behind a busy worker is exempt
/// from the sweep: the engine's deadlines govern job latency, not the
/// transport's idle budgets.
#[test]
fn connection_with_queued_job_outlives_the_sweep_budgets() {
    let engine = Arc::new(Engine::start(EngineConfig {
        workers: 1,
        queue_capacity: 16,
        ..EngineConfig::default()
    }));
    // Occupy the single worker with cold, distinct-shape builds so the
    // HTTP request below waits well past the tiny sweep budgets.
    let busy: Vec<_> = [(3usize, 2usize), (4, 2)]
        .iter()
        .map(|&(m, p)| {
            let job = JobRequest::SolvePieri {
                m,
                p,
                q: 0,
                seed: 1,
                certify: false,
            };
            let (tx, rx) = mpsc::channel();
            engine
                .submit_async(job, None, 0, move |result| {
                    let _ = tx.send(result);
                })
                .expect("admit busy job");
            rx
        })
        .collect();
    let server = Server::start_with(
        "127.0.0.1:0",
        Arc::clone(&engine),
        ServerOptions {
            keep_alive_idle: Duration::from_millis(100),
            io_timeout: Duration::from_millis(200),
            ..ServerOptions::default()
        },
    )
    .expect("bind");

    let client = Client::new(server.addr()).expect("client");
    let result = client
        .solve(&solve_req(7))
        .expect("queued request answered, not swept");
    assert_eq!(result.solutions, 2);
    for answer in busy {
        answer.recv().expect("answered").expect("busy job");
    }
    server.engine().shutdown();
    server.shutdown();
}
