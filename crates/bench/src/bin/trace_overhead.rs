//! Measures the cost of span recording on the service's warm path, in
//! one process: rounds alternate between the recorder installed and
//! cleared, so both sides share one binary, one warm shape cache and
//! the host's speed phase.
//!
//! ```sh
//! cargo run --release --bin trace_overhead -- [iters] [--deep]
//! ```
//!
//! One engine worker, shape (2,2,1) pre-warmed, then `iters` warm
//! solves per side, each timed individually; both sides solve the same
//! instances. While the recorder is installed every solve carries a
//! fresh trace id, as a request through the reactor does, so its spans
//! reach the recent-trace store too. The installed side records the
//! engine's `queue.wait`/`track` spans and the tracker's `track.path`
//! spans, and with `--deep` also its per-step `predict`/`correct` spans.
//! Prints p50/p90 per side, their relative difference and the records
//! the recorder dropped.
//!
//! Usage: `trace_overhead [iters] [--deep]` (default 200 solves per
//! side, in 10 alternating rounds).

use pieri_service::{Engine, EngineConfig, JobRequest};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Installed/cleared rounds; the side that goes first alternates.
const ROUNDS: usize = 10;

fn percentile(sorted: &[Duration], pct: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * pct).round() as usize].as_secs_f64() * 1e3
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let deep = args
        .iter()
        .position(|a| a == "--deep")
        .map(|i| args.remove(i))
        .is_some();
    let iters: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(200);
    let per_round = iters.div_ceil(ROUNDS).max(1);
    let config = pieri_trace::TraceConfig {
        deep,
        ..pieri_trace::TraceConfig::default()
    };

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

    let (mut on, mut off) = (Vec::new(), Vec::new());
    let mut dropped = 0;
    for round in 0..ROUNDS {
        // Both sides solve the same instances, so instance difficulty
        // cancels out of the comparison.
        let first = 100 + (round * per_round) as u64;
        for traced in [round % 2 == 0, round % 2 == 1] {
            if traced {
                pieri_trace::install(config.clone());
            }
            for seed in first..first + per_round as u64 {
                let trace_id = if traced {
                    pieri_trace::next_trace_id()
                } else {
                    0
                };
                let (tx, rx) = mpsc::channel();
                let t = Instant::now();
                engine
                    .submit_async(req(seed), None, trace_id, move |res| {
                        let _ = tx.send(res);
                    })
                    .expect("admit warm solve");
                let res = rx.recv().expect("engine answers").expect("warm solve");
                let elapsed = t.elapsed();
                assert!(res.cache_hit, "measured loop must stay warm");
                if traced { &mut on } else { &mut off }.push(elapsed);
            }
            if traced {
                dropped += pieri_trace::dropped_spans();
                pieri_trace::clear();
            }
        }
    }
    on.sort();
    off.sort();
    let (off50, off90) = (percentile(&off, 0.50), percentile(&off, 0.90));
    let (on50, on90) = (percentile(&on, 0.50), percentile(&on, 0.90));
    println!(
        "trace_overhead: warm (2,2,1), {} solves per side in {ROUNDS} alternating rounds{}",
        on.len(),
        if deep { ", deep" } else { "" },
    );
    println!("  recorder cleared:   p50 {off50:.3} ms, p90 {off90:.3} ms");
    println!("  recorder installed: p50 {on50:.3} ms, p90 {on90:.3} ms");
    println!(
        "  overhead: p50 {:+.1}%, p90 {:+.1}%; {dropped} record(s) dropped",
        (on50 / off50 - 1.0) * 100.0,
        (on90 / off90 - 1.0) * 100.0,
    );
    engine.shutdown();
}
