//! Measures the cost of span recording on the service's warm path —
//! the number the ROADMAP quotes for PR 10's "<2% overhead" claim.
//!
//! ```sh
//! cargo run --release --bin trace_overhead                    # baseline
//! cargo run --release --bin trace_overhead --features trace   # instrumented
//! ```
//!
//! Both invocations run the identical workload: one engine, shape
//! (2,2,1) pre-warmed, then `iters` warm solves timed individually
//! with the recorder installed and a live trace id on every request.
//! Without `--features trace` every span site in the tracker and
//! service compiles to a no-op, so the delta between the two printed
//! p50s *is* the instrumentation cost. Spans still record into
//! fixed-size rings in the instrumented build — the workload includes
//! the predict/correct per-step spans, the hottest sites we have.
//!
//! Usage: `trace_overhead [iters] [--deep]` (default 200 iterations;
//! `--deep` turns on the per-step predict/correct spans to quantify
//! what the non-default deep mode costs on top).

use pieri_service::{Engine, EngineConfig, JobRequest};
use std::time::{Duration, Instant};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let deep = args.iter().position(|a| a == "--deep").map(|i| {
        args.remove(i);
    });
    let iters: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(200);
    // Recorder installed in both builds; only the trace build has span
    // sites compiled in to feed it.
    pieri_trace::install(pieri_trace::TraceConfig {
        deep: deep.is_some(),
        ..pieri_trace::TraceConfig::default()
    });

    let engine = Engine::start(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let req = |seed: u64| JobRequest::SolvePieri {
        m: 2,
        p: 2,
        q: 1,
        seed,
        certify: false,
    };
    // Warm the shape: the measured loop must only pay continuation
    // tracking, never the poset or the Pieri tree.
    let first = engine.run(req(1)).expect("warm (2,2,1)");
    assert!(!first.cache_hit);

    let mut samples = Vec::with_capacity(iters);
    for i in 0..iters {
        let id = pieri_trace::next_trace_id();
        let prev = pieri_trace::set_current_trace(id);
        let t = Instant::now();
        let res = engine.run(req(100 + i as u64)).expect("warm solve");
        samples.push(t.elapsed());
        pieri_trace::set_current_trace(prev);
        assert!(res.cache_hit, "measured loop must stay warm");
    }
    samples.sort();
    let p = |pct: f64| -> Duration { samples[((samples.len() - 1) as f64 * pct).round() as usize] };
    let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
    println!(
        "trace_overhead [{}{}]: warm (2,2,1) × {iters}: p50 {:.3} ms, p90 {:.3} ms, \
         mean {:.3} ms",
        if cfg!(feature = "trace") {
            "trace ON"
        } else {
            "trace OFF"
        },
        if deep.is_some() { ", deep" } else { "" },
        p(0.50).as_secs_f64() * 1e3,
        p(0.90).as_secs_f64() * 1e3,
        mean.as_secs_f64() * 1e3,
    );
    engine.shutdown();
}
