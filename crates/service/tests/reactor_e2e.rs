//! End-to-end tests for the reactor rework: deadline semantics (shed
//! before the solver, cancel between paths, never partial results),
//! overload shedding with structured 503s, HTTP/1.1 pipelining on one
//! socket, the `x-deadline-ms` header, and warm restarts from the
//! on-disk bundle store.

use minijson::Value;
use pieri_service::{wire, Client, Engine, EngineConfig, JobError, JobRequest, JobResult, Server};
use pieri_tracker::CancelToken;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn engine(workers: usize, capacity: usize) -> Engine {
    Engine::start(EngineConfig {
        workers,
        queue_capacity: capacity,
        ..EngineConfig::default()
    })
}

type Answer = mpsc::Receiver<Result<JobResult, JobError>>;

/// Non-blocking admission: the receiver yields the answer, the token
/// cancels the job early.
fn submit(
    eng: &Engine,
    req: JobRequest,
    deadline: Option<Instant>,
) -> Result<(Answer, CancelToken), JobError> {
    let (tx, rx) = mpsc::channel();
    let cancel = eng.submit_async(req, deadline, 0, move |result| {
        let _ = tx.send(result);
    })?;
    Ok((rx, cancel))
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

/// A cold multi-path job: the satellite's 8 = d(2,2,1) paths plus the
/// poset/tree build give the deadline something to lapse inside.
fn satellite_place(seed: u64) -> JobRequest {
    let sat = pieri_control::satellite_plant(1.0);
    let mut rng = pieri_num::seeded_rng(7);
    JobRequest::PlacePoles {
        a: sat.a,
        b: sat.b,
        c: sat.c,
        q: 1,
        poles: pieri_control::conjugate_pole_set(5, &mut rng),
        seed,
        certify: false,
    }
}

// ---- deadline semantics ------------------------------------------------

#[test]
fn cancelled_in_queue_answers_without_touching_the_solver() {
    let eng = engine(1, 8);
    // Occupy the single worker with a cold job…
    let (busy, _) = submit(&eng, satellite_place(100), None).expect("admit busy job");
    // …then queue a job for a shape the cache has never seen and cancel
    // it while it waits.
    let victim = JobRequest::SolvePieri {
        m: 3,
        p: 2,
        q: 0,
        seed: 1,
        certify: false,
    };
    let (answer, cancel) = submit(&eng, victim, None).expect("admit victim");
    cancel.cancel();

    let err = answer
        .recv()
        .expect("answered")
        .expect_err("cancelled job must not succeed");
    let JobError::DeadlineExceeded { detail } = &err else {
        panic!("expected DeadlineExceeded, got {err:?}");
    };
    assert!(
        detail.contains("solver not invoked"),
        "expired-in-queue detail names the skipped solver: {detail}"
    );
    busy.recv().expect("answered").expect("busy job unaffected");

    let stats = eng.stats();
    assert_eq!(stats.deadline_expired, 1);
    // The victim's shape (3,2,0) never reached the solver or the cache.
    assert!(
        !eng.cache()
            .resident()
            .iter()
            .any(|(shape, _, _)| (shape.m(), shape.p(), shape.q()) == (3, 2, 0)),
        "cancelled job must not have built a start bundle"
    );
    eng.shutdown();
}

#[test]
fn deadline_lapse_never_yields_partial_results() {
    let eng = engine(1, 8);
    // 1 ms against a cold multi-path job: the deadline lapses either in
    // the queue or between continuation paths — both must answer with
    // the structured error and withhold any partial solution set.
    let deadline = Instant::now() + Duration::from_millis(1);
    let (answer, _cancel) = submit(&eng, satellite_place(200), Some(deadline)).expect("admit");
    let err = answer
        .recv()
        .expect("answered")
        .expect_err("lapsed deadline must not succeed");
    let JobError::DeadlineExceeded { detail } = &err else {
        panic!("expected DeadlineExceeded, got {err:?}");
    };
    assert!(
        detail.contains("solver not invoked") || detail.contains("partial results withheld"),
        "either shed in queue or stopped at a path boundary: {detail}"
    );
    assert_eq!(eng.stats().deadline_expired, 1);

    // The engine is unharmed: the same job without a deadline succeeds.
    let full = eng.run(satellite_place(200)).expect("no-deadline rerun");
    assert_eq!(full.solutions, 8);
    eng.shutdown();
}

// ---- raw-socket helpers ------------------------------------------------

/// Sends `requests` verbatim and reads `n` HTTP responses off the same
/// socket, returning `(status, parsed body)` per response.
fn raw_exchange(addr: std::net::SocketAddr, requests: &str, n: usize) -> Vec<(u16, Value)> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.set_nodelay(true).expect("nodelay");
    stream.write_all(requests.as_bytes()).expect("send");
    let mut buf = Vec::new();
    let mut out = Vec::new();
    let mut chunk = [0u8; 4096];
    while out.len() < n {
        let got = stream.read(&mut chunk).expect("read");
        if got == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..got]);
        // Drain every complete response currently buffered.
        while let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&buf[..head_end]).expect("utf8 head");
            let status: u16 = head
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .expect("status code");
            let content_length: usize = head
                .lines()
                .find_map(|l| {
                    let (name, value) = l.split_once(':')?;
                    name.eq_ignore_ascii_case("content-length")
                        .then(|| value.trim().parse().ok())?
                })
                .expect("content-length");
            let body_start = head_end + 4;
            if buf.len() < body_start + content_length {
                break;
            }
            let body = std::str::from_utf8(&buf[body_start..body_start + content_length])
                .expect("utf8 body")
                .to_string();
            buf.drain(..body_start + content_length);
            out.push((status, minijson::parse(&body).expect("json body")));
        }
    }
    assert_eq!(out.len(), n, "expected {n} responses");
    out
}

fn post(path: &str, body: &Value, extra: &str, keep_alive: bool) -> String {
    let payload = body.serialize();
    let connection = if keep_alive { "keep-alive" } else { "close" };
    format!(
        "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: {connection}\r\n{extra}\r\n{payload}",
        payload.len()
    )
}

// ---- pipelining --------------------------------------------------------

#[test]
fn pipelined_requests_answer_in_request_order() {
    let engine = Arc::new(engine(2, 16));
    let server = Server::start("127.0.0.1:0", engine).expect("bind");

    // Five requests on the wire before reading a byte: jobs with
    // distinct seeds interleaved with instant health checks. The
    // responses must come back in request order even though the fast
    // endpoints resolve long before the solves.
    let mut wire_bytes = String::new();
    for seed in 0..2u64 {
        wire_bytes.push_str(&post(
            "/v1/solve",
            &wire::request_to_json(&solve_req(seed)),
            "",
            true,
        ));
        wire_bytes
            .push_str("GET /healthz HTTP/1.1\r\nHost: test\r\nConnection: keep-alive\r\n\r\n");
    }
    wire_bytes.push_str("GET /v1/stats HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n");

    let responses = raw_exchange(server.addr(), &wire_bytes, 5);
    for (i, (status, body)) in responses.iter().enumerate() {
        assert_eq!(*status, 200, "response {i}: {}", body.serialize());
    }
    // Order: solve, healthz, solve, healthz, stats.
    assert!(responses[0].1.get("solutions").is_some());
    assert_eq!(
        responses[1].1.get("ok").and_then(Value::as_bool),
        Some(true)
    );
    assert!(responses[2].1.get("solutions").is_some());
    assert_eq!(
        responses[3].1.get("ok").and_then(Value::as_bool),
        Some(true)
    );
    // The stats snapshot is taken when the request is *dispatched* —
    // pipelined requests execute concurrently, so the earlier solves
    // are submitted (FIFO parse order) but not necessarily completed.
    assert_eq!(
        responses[4].1.get("submitted").and_then(Value::as_usize),
        Some(2),
        "stats sees both solves admitted: {}",
        responses[4].1.serialize()
    );
    server.engine().shutdown();
    server.shutdown();
}

// ---- x-deadline-ms -----------------------------------------------------

#[test]
fn x_deadline_ms_sheds_expired_work_with_structured_503() {
    let engine = Arc::new(engine(1, 8));
    let server = Server::start("127.0.0.1:0", engine).expect("bind");

    // A zero budget has always lapsed by admission time: the job is
    // shed before it costs a queue slot, and the envelope says so.
    let req = post(
        "/v1/solve",
        &wire::request_to_json(&solve_req(9)),
        "x-deadline-ms: 0\r\n",
        false,
    );
    let responses = raw_exchange(server.addr(), &req, 1);
    let (status, body) = &responses[0];
    assert_eq!(*status, 503, "{}", body.serialize());
    let err = wire::error_from_json(body).expect("error envelope");
    assert_eq!(err.kind(), "deadline_exceeded");

    // A generous budget answers normally.
    let req = post(
        "/v1/solve",
        &wire::request_to_json(&solve_req(9)),
        "x-deadline-ms: 30000\r\n",
        false,
    );
    let responses = raw_exchange(server.addr(), &req, 1);
    assert_eq!(responses[0].0, 200, "{}", responses[0].1.serialize());

    // And a malformed one is a 400, not a silent default.
    let req = post(
        "/v1/solve",
        &wire::request_to_json(&solve_req(9)),
        "x-deadline-ms: soon\r\n",
        false,
    );
    let responses = raw_exchange(server.addr(), &req, 1);
    assert_eq!(responses[0].0, 400, "{}", responses[0].1.serialize());

    let stats = server.engine().stats();
    assert!(stats.shed >= 1, "the zero-budget job was counted as shed");
    server.engine().shutdown();
    server.shutdown();
}

// ---- overload ----------------------------------------------------------

#[test]
fn overload_sheds_structured_503_and_recovers() {
    // One worker, two queue slots, thirty concurrent cold-ish jobs:
    // most of the burst must be shed with the structured `queue_full`
    // envelope, every request must get *some* answer, and the server
    // must be fully usable afterwards.
    let engine = Arc::new(Engine::start(EngineConfig {
        workers: 1,
        queue_capacity: 2,
        ..EngineConfig::default()
    }));
    let server = Server::start("127.0.0.1:0", engine).expect("bind");
    let addr = server.addr();

    let burst = 30usize;
    let answers: Vec<(u16, Value)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..burst)
            .map(|i| {
                scope.spawn(move || {
                    let client = Client::new(addr).expect("client");
                    client
                        .post(
                            "/v1/solve",
                            &wire::request_to_json(&satellite_place(i as u64)),
                        )
                        .expect("every request is answered")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });

    assert_eq!(answers.len(), burst, "zero dropped-but-unanswered requests");
    let ok = answers.iter().filter(|(s, _)| *s == 200).count();
    let shed = answers
        .iter()
        .filter(|(s, b)| {
            *s == 503
                && wire::error_from_json(b)
                    .map(|e| e.kind() == "queue_full")
                    .unwrap_or(false)
        })
        .count();
    assert_eq!(ok + shed, burst, "only 200s and structured queue_full 503s");
    assert!(ok >= 1, "the queue drained some of the burst");
    assert!(shed >= 1, "a 3-slot pipeline cannot absorb a burst of 30");

    // The sheds are visible in /v1/stats…
    let client = Client::new(addr).expect("client");
    let (status, stats) = client.get("/v1/stats").expect("stats");
    assert_eq!(status, 200);
    assert_eq!(
        stats.get("shed").and_then(Value::as_usize),
        Some(shed),
        "{}",
        stats.serialize()
    );
    // …and the connections stay usable after the storm.
    let warm = client.solve(&solve_req(77)).expect("post-overload solve");
    assert_eq!(warm.solutions, 2);
    assert!(client.health());
    server.engine().shutdown();
    server.shutdown();
}

// ---- warm restart ------------------------------------------------------

#[test]
fn warm_restart_answers_first_request_from_the_store() {
    let dir = std::env::temp_dir().join(format!("pieri-reactor-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || EngineConfig {
        workers: 1,
        queue_capacity: 8,
        bundle_store: Some(dir.clone()),
        ..EngineConfig::default()
    };

    // First server lifetime: a cold build, persisted on the way out.
    let server = Server::start("127.0.0.1:0", Arc::new(Engine::start(config()))).expect("bind");
    let client = Client::new(server.addr()).expect("client");
    let cold = client.solve(&solve_req(0)).expect("cold solve");
    assert!(!cold.cache_hit);
    server.engine().shutdown();
    server.shutdown();

    // Second lifetime, same store: the *first* request is already warm.
    let server = Server::start("127.0.0.1:0", Arc::new(Engine::start(config()))).expect("bind");
    let client = Client::new(server.addr()).expect("client");
    let warm = client
        .solve(&solve_req(0))
        .expect("first post-restart solve");
    assert!(
        warm.cache_hit,
        "restarted server answers its first request from the persisted bundle"
    );
    assert_eq!(warm.coeffs, cold.coeffs, "bitwise identical across restart");
    let stats = server.engine().stats();
    assert_eq!(stats.cache.restored, 1, "one bundle preloaded at startup");
    server.engine().shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
