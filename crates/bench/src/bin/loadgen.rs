//! HTTP load generator for `pieri-service`: boots the server in-process
//! on an ephemeral port, slams it with concurrent pole-placement
//! clients, and reports cold-vs-warm latency and throughput — the
//! numbers behind the README's "Service" section.
//!
//! ```sh
//! cargo run --release --bin loadgen [clients] [requests-per-client] \
//!     [connections] [requests-per-connection] [--trace-out PATH]
//! cargo run --release --bin loadgen restart [clients] [duration-ms]
//! ```
//!
//! Defaults: 4 clients × 8 requests, satellite plant, shape (2,2,1).
//! Every request goes over the wire (TCP + JSON both ways); the first
//! request per shape is the only cold one, so the workload is exactly
//! the service's steady state.
//!
//! When `connections > 0` a keep-alive **swarm** phase follows: that
//! many sockets are opened and held open *simultaneously* (the reactor
//! multiplexes them onto its few I/O threads), then every connection
//! fires `requests-per-connection` warm solves at once. Reported:
//! p50/p95/p99 latency, the shed rate (structured 503s from the
//! bounded queue — answered, not dropped), and throughput. Any request
//! that dies without a structured answer aborts the run. Each
//! connection costs two fds in this process (client + server end), so
//! 1000 connections need `ulimit -n` ≳ 2100.
//!
//! `--trace-out PATH` installs the `pieri-trace` recorder before the
//! run and writes everything it captured as Chrome `trace_event` JSON
//! on exit (open the file in `chrome://tracing` or Perfetto), with the
//! count of records the recorder dropped. The recorder is deep, so the
//! export holds the server-side spans (parse/admit/queue.wait/track/
//! render per request) and the tracker's track.path/predict/correct
//! spans, in every build.
//!
//! `loadgen restart` runs the **zero-downtime restart drill** instead:
//! a swarm of retrying clients hammers server A (bound with
//! `SO_REUSEPORT`), a replacement server B starts on the *same* port
//! mid-swarm, A drains, and the drill asserts zero failed non-shed
//! requests across the handoff, an exactly-once completion ledger
//! across both engines, and bit-identical answers whichever server
//! responded.

use pieri_control::{conjugate_pole_set, satellite_plant};
use pieri_num::seeded_rng;
use pieri_service::{Client, Engine, EngineConfig, JobError, JobRequest, Server, ServerOptions};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn percentile(sorted: &[Duration], pct: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * pct).round() as usize;
    sorted[idx]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Zero-downtime restart drill (`loadgen restart [clients] [duration-ms]`):
/// server A serves a swarm of retrying clients via `SO_REUSEPORT`, a
/// replacement server B binds the same port mid-swarm, and A drains.
/// Aborts unless every non-shed request is answered exactly once with
/// bit-identical results across the handoff.
fn restart_drill(clients: usize, duration: Duration) {
    let reuse = || ServerOptions {
        reuseport: true,
        ..ServerOptions::default()
    };
    let engine_a = Arc::new(Engine::start(EngineConfig::default()));
    let server_a =
        Server::start_with("127.0.0.1:0", Arc::clone(&engine_a), reuse()).expect("bind A");
    let addr = server_a.addr();
    println!(
        "restart drill: {clients} retrying clients against http://{addr} for {:.0} ms, \
         SO_REUSEPORT handoff mid-swarm",
        ms(duration)
    );

    let swarm_req = |seed: u64| JobRequest::SolvePieri {
        m: 2,
        p: 2,
        q: 0,
        seed,
        certify: false,
    };
    // Warm the shape on A so the swarm measures the steady state (the
    // warm answer joins the ledger: it completed on A like any other).
    let warm = Client::new(addr)
        .expect("warm client")
        .solve(&swarm_req(0))
        .expect("pre-warm drill shape");

    let stop = Arc::new(AtomicBool::new(false));
    let next_seed = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let next_seed = Arc::clone(&next_seed);
            // lint:allow(no-raw-thread-spawn) — these threads *are* the
            // simulated clients of the restart drill; they only do
            // socket I/O and retry bookkeeping.
            std::thread::spawn(move || {
                let client = Client::with_retry(addr, 6).expect("drill client");
                let mut answers = Vec::new();
                let mut shed = 0usize;
                while !stop.load(Ordering::SeqCst) {
                    let seed = next_seed.fetch_add(1, Ordering::SeqCst) % 3;
                    match client.solve(&swarm_req(seed)) {
                        Ok(res) => answers.push((seed, res.coeffs)),
                        // Load shedding stays a structured *answer*
                        // during the handoff, same as in the swarm.
                        Err(
                            JobError::QueueFull
                            | JobError::ShuttingDown
                            | JobError::DeadlineExceeded { .. },
                        ) => shed += 1,
                        Err(e) => panic!("client {c} dropped a request mid-restart: {e:?}"),
                    }
                }
                (answers, shed)
            })
        })
        .collect();

    // Mid-swarm: start the replacement on the same port, then drain
    // the old server while the swarm keeps firing.
    std::thread::sleep(duration / 3);
    let engine_b = Arc::new(Engine::start(EngineConfig::default()));
    let server_b = Server::start_with(&addr.to_string(), Arc::clone(&engine_b), reuse())
        .expect("bind B on the same port while A still serves");
    let t_drain = Instant::now();
    let drained = server_a.drain(Duration::from_secs(30));
    let drain_time = t_drain.elapsed();
    assert!(drained, "server A drained every connection cleanly");

    std::thread::sleep(duration - duration / 3);
    stop.store(true, Ordering::SeqCst);
    let mut answers = vec![(0u64, warm.coeffs)];
    let mut shed = 0usize;
    for h in handles {
        let (a, s) = h.join().expect("drill client thread");
        answers.extend(a);
        shed += s;
    }

    // Exactly-once ledger: every client success is one completed job
    // on exactly one engine; A finished everything it admitted.
    let stats_a = engine_a.stats();
    let stats_b = engine_b.stats();
    assert_eq!(stats_a.completed, stats_a.submitted, "A drained clean");
    assert_eq!(
        stats_a.completed + stats_b.completed,
        answers.len(),
        "exactly-once ledger across the restart: A={stats_a:?} B={stats_b:?}"
    );
    assert!(
        stats_b.completed >= 1,
        "the replacement server took over the swarm: {stats_b:?}"
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
    println!(
        "restart drill: {} answered ({} shed as structured 503s), drain took {:.1} ms; \
         A completed {} of {} admitted, B completed {}; 0 dropped, answers bit-identical",
        answers.len(),
        shed,
        ms(drain_time),
        stats_a.completed,
        stats_a.submitted,
        stats_b.completed,
    );

    server_b.shutdown();
    engine_b.shutdown();
    engine_a.shutdown();
}

/// Extracts `--trace-out PATH` from `args` (removing both tokens) and
/// returns the path, if present. Everything else stays positional.
fn take_trace_out(args: &mut Vec<String>) -> Option<std::path::PathBuf> {
    let idx = args.iter().position(|a| a == "--trace-out")?;
    args.remove(idx);
    if idx < args.len() {
        Some(std::path::PathBuf::from(args.remove(idx)))
    } else {
        eprintln!("loadgen: --trace-out requires a PATH argument");
        std::process::exit(2);
    }
}

/// Writes the Chrome `trace_event` document and sanity-checks its
/// framing, so a CI artifact produced by `--trace-out` is always
/// loadable in a trace viewer even when it captured zero events.
fn write_trace(path: &std::path::Path) {
    let events = pieri_trace::export_chrome(path).expect("write --trace-out file");
    let doc = std::fs::read_to_string(path).expect("re-read --trace-out file");
    assert!(
        doc.starts_with("{\"traceEvents\":[") && doc.ends_with("\"displayTimeUnit\":\"ms\"}"),
        "exported trace is not a Chrome trace_event document"
    );
    println!(
        "\ntrace: {events} span(s) exported to {}, {} dropped (open in chrome://tracing or Perfetto)",
        path.display(),
        pieri_trace::dropped_spans(),
    );
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let trace_out = take_trace_out(&mut raw);
    if trace_out.is_some() {
        // Recorder on from the first request. Deep (per-step) spans are
        // wanted here: the artifact exists to be read in a trace viewer,
        // and the run is a benchmark of the *server*, not the recorder.
        pieri_trace::install(pieri_trace::TraceConfig {
            deep: true,
            ..pieri_trace::TraceConfig::default()
        });
    }
    let mut args = raw.into_iter();
    let first = args.next();
    if first.as_deref() == Some("restart") {
        let clients: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
        let duration_ms: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(600);
        restart_drill(clients, Duration::from_millis(duration_ms));
        if let Some(path) = trace_out {
            write_trace(&path);
        }
        return;
    }
    let clients: usize = first.and_then(|s| s.parse().ok()).unwrap_or(4);
    let per_client: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);
    let connections: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(0);
    let per_conn: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);

    let engine = Arc::new(Engine::start(EngineConfig::default()));
    let server = Server::start("127.0.0.1:0", engine).expect("bind");
    let addr = server.addr();
    println!(
        "loadgen: {clients} clients × {per_client} requests against http://{addr} \
         (pool: {} threads)",
        rayon::current_num_threads()
    );

    let sat = satellite_plant(1.0);
    let mut rng = seeded_rng(1);
    let poles = conjugate_pole_set(5, &mut rng);
    let request = |seed: u64| JobRequest::PlacePoles {
        a: sat.a.clone(),
        b: sat.b.clone(),
        c: sat.c.clone(),
        q: 1,
        poles: poles.clone(),
        seed,
        certify: false,
    };

    // Cold request: pays poset + Pieri tree + continuation.
    let client = Client::new(addr).expect("client");
    let t0 = Instant::now();
    let cold = client.solve(&request(0)).expect("cold request");
    let cold_latency = t0.elapsed();
    assert!(!cold.cache_hit);
    println!(
        "\ncold request: {:.1} ms end-to-end (bundle build {:.1} ms, \
         continuation {:.1} ms), {} compensators, residual {:.2e}",
        ms(cold_latency),
        ms(cold.bundle_build),
        ms(cold.solve_time),
        cold.solutions,
        cold.max_residual,
    );

    // Transport microbenchmark: /healthz round trips isolate the
    // connection cost from the solve cost. A fresh `Client` per request
    // pays TCP setup + reactor registration every time; a reused
    // `Client` rides its kept-alive pooled connection.
    let probes: u32 = 200;
    let t = Instant::now();
    for _ in 0..probes {
        assert!(Client::new(addr).expect("probe client").health());
    }
    let fresh_probe = t.elapsed() / probes;
    let kept_client = Client::new(addr).expect("probe client");
    let t = Instant::now();
    for _ in 0..probes {
        assert!(kept_client.health());
    }
    let kept_probe = t.elapsed() / probes;
    println!(
        "transport: /healthz {:.0} µs/req over fresh connections vs {:.0} µs/req \
         kept-alive ({:.1}× less overhead)",
        fresh_probe.as_secs_f64() * 1e6,
        kept_probe.as_secs_f64() * 1e6,
        fresh_probe.as_secs_f64() / kept_probe.as_secs_f64().max(1e-9),
    );

    // Warm phase, single client: like-for-like latency against the cold
    // request (no queueing in either number).
    let mut solo = Vec::new();
    for i in 0..per_client {
        let t = Instant::now();
        let res = client.solve(&request(1000 + i as u64)).expect("warm solo");
        solo.push(t.elapsed());
        assert!(res.cache_hit);
    }
    solo.sort();
    let solo_p50 = percentile(&solo, 0.50);
    println!(
        "warm request (single client): p50 {:.1} ms — cold/warm speedup {:.1}×",
        ms(solo_p50),
        cold_latency.as_secs_f64() / solo_p50.as_secs_f64()
    );

    // Concurrency phase: all clients at once, every request a cache hit;
    // the interesting number here is throughput, not latency (requests
    // queue behind each other when clients outnumber engine workers).
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let sat = sat.clone();
            let poles = poles.clone();
            // lint:allow(no-raw-thread-spawn) — these threads *are* the
            // simulated clients of the load test; they only do socket
            // I/O, and the compute they trigger runs server-side on the
            // pool.
            std::thread::spawn(move || {
                let client = Client::new(addr).expect("client");
                let mut latencies = Vec::with_capacity(per_client);
                for i in 0..per_client {
                    let seed = (c * per_client + i) as u64 + 1;
                    let req = JobRequest::PlacePoles {
                        a: sat.a.clone(),
                        b: sat.b.clone(),
                        c: sat.c.clone(),
                        q: 1,
                        poles: poles.clone(),
                        seed,
                        certify: false,
                    };
                    let t = Instant::now();
                    let res = client.solve(&req).expect("warm request");
                    latencies.push(t.elapsed());
                    assert!(res.cache_hit, "warm phase must hit the cache");
                    assert!(res.max_residual < 1e-5);
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<Duration> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let wall = t0.elapsed();
    latencies.sort();

    let total = latencies.len();
    let mean = latencies.iter().sum::<Duration>() / total as u32;
    println!(
        "\nwarm phase: {total} requests in {:.1} ms wall → {:.1} req/s",
        ms(wall),
        total as f64 / wall.as_secs_f64()
    );
    println!(
        "warm latency under load: mean {:.1} ms, p50 {:.1} ms, p90 {:.1} ms, max {:.1} ms",
        ms(mean),
        ms(percentile(&latencies, 0.50)),
        ms(percentile(&latencies, 0.90)),
        ms(percentile(&latencies, 1.0)),
    );

    // Keep-alive swarm: `connections` sockets held open at once, all
    // firing warm solves on a small shape simultaneously. The reactor
    // multiplexes every socket onto its fixed I/O threads; the bounded
    // queue sheds what the workers cannot absorb — shed requests get a
    // structured 503 and count as *answered*, never dropped.
    if connections > 0 {
        let swarm_req = |seed: u64| JobRequest::SolvePieri {
            m: 2,
            p: 2,
            q: 0,
            seed,
            certify: false,
        };
        client.solve(&swarm_req(0)).expect("pre-warm swarm shape");
        let shed_before = server.engine().stats().shed;
        let barrier = Arc::new(Barrier::new(connections + 1));
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let barrier = barrier.clone();
                // lint:allow(no-raw-thread-spawn) — these threads *are*
                // the simulated clients; each holds one kept-alive
                // socket and does nothing but socket I/O.
                std::thread::spawn(move || {
                    let client = Client::new(addr).expect("swarm client");
                    // Open + pool the connection now, so the whole
                    // swarm is connected before anyone fires.
                    assert!(client.health(), "swarm connection {c} refused");
                    barrier.wait();
                    let mut latencies = Vec::with_capacity(per_conn);
                    let mut ok = 0usize;
                    let mut shed = 0usize;
                    for i in 0..per_conn {
                        let seed = (c * per_conn + i) as u64 % 32;
                        let t = Instant::now();
                        match client.solve(&swarm_req(seed)) {
                            Ok(res) => {
                                latencies.push(t.elapsed());
                                assert!(res.cache_hit, "swarm phase must stay warm");
                                ok += 1;
                            }
                            // Load shedding is an *answer*: the bounded
                            // queue said no, structurally, and the
                            // connection remains usable.
                            Err(
                                JobError::QueueFull
                                | JobError::ShuttingDown
                                | JobError::DeadlineExceeded { .. },
                            ) => {
                                latencies.push(t.elapsed());
                                shed += 1;
                            }
                            Err(e) => panic!("connection {c} request {i} dropped: {e:?}"),
                        }
                    }
                    (latencies, ok, shed)
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let mut latencies = Vec::with_capacity(connections * per_conn);
        let (mut ok, mut shed) = (0usize, 0usize);
        for h in handles {
            let (l, o, s) = h.join().expect("swarm thread");
            latencies.extend(l);
            ok += o;
            shed += s;
        }
        let wall = t0.elapsed();
        latencies.sort();
        let total = latencies.len();
        assert_eq!(
            total,
            connections * per_conn,
            "every swarm request must be answered"
        );
        println!(
            "\nswarm: {connections} concurrent keep-alive connections × {per_conn} requests \
             in {:.1} ms wall → {:.0} req/s",
            ms(wall),
            total as f64 / wall.as_secs_f64()
        );
        println!(
            "swarm latency: p50 {:.1} ms, p95 {:.1} ms, p99 {:.1} ms, max {:.1} ms; \
             {ok} ok, {shed} shed ({:.1}% shed rate), 0 unanswered",
            ms(percentile(&latencies, 0.50)),
            ms(percentile(&latencies, 0.95)),
            ms(percentile(&latencies, 0.99)),
            ms(percentile(&latencies, 1.0)),
            100.0 * shed as f64 / total as f64,
        );
        let shed_stats = server.engine().stats().shed - shed_before;
        assert_eq!(shed_stats, shed, "/v1/stats agrees on the shed count");
    }

    let stats = server.engine().stats();
    println!(
        "\ncache: {} hit(s), {} miss(es), {} shape(s) resident; engine: {} completed, {} rejected",
        stats.cache.hits, stats.cache.misses, stats.cache.shapes, stats.completed, stats.rejected
    );

    server.engine().shutdown();
    server.shutdown();
    if let Some(path) = trace_out {
        write_trace(&path);
    }
}
