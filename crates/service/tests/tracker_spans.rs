//! Tracker spans in a default build: once an engine has started, the
//! tracker's `track.path` spans (category `tracker`) record under a
//! traced solve's id whenever a recorder is installed, and its per-step
//! `predict`/`correct` spans only under deep tracing.
//!
//! A test binary of its own: installing a deep recorder would flood the
//! recent-trace store that `trace_e2e`'s tests read.

use pieri_service::pieri_trace::{self, SpanRecord, TraceConfig};
use pieri_service::{Engine, EngineConfig, JobRequest};
use std::sync::mpsc;

/// A warm (2,2,1) solve under a fresh trace id with the recorder
/// installed; returns the spans recorded under that id.
fn traced_solve(engine: &Engine, deep: bool, seed: u64) -> Vec<SpanRecord> {
    pieri_trace::install(TraceConfig {
        deep,
        ..TraceConfig::default()
    });
    let trace_id = pieri_trace::next_trace_id();
    let (tx, rx) = mpsc::channel();
    let req = JobRequest::SolvePieri {
        m: 2,
        p: 2,
        q: 1,
        seed,
        certify: false,
    };
    engine
        .submit_async(req, None, trace_id, move |res| {
            let _ = tx.send(res);
        })
        .expect("admit traced solve");
    let res = rx.recv().expect("engine answers").expect("traced solve");
    assert!(
        res.cache_hit,
        "the traced solve runs continuation paths only"
    );
    let spans = pieri_trace::trace_spans(trace_id).expect("trace recorded");
    pieri_trace::clear();
    spans
}

fn count(spans: &[SpanRecord], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

#[test]
fn tracker_spans_record_without_a_build_feature() {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let warm = JobRequest::SolvePieri {
        m: 2,
        p: 2,
        q: 1,
        seed: 1,
        certify: false,
    };
    engine.run(warm).expect("build the (2,2,1) shape");

    let spans = traced_solve(&engine, false, 2);
    let track = spans
        .iter()
        .find(|s| s.name == "track" && s.cat == "engine")
        .expect("engine track span");
    let paths: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "track.path").collect();
    // (2,2,1) has 8 feedback laws, one continuation path each.
    assert!(paths.len() >= 8, "{} track.path spans", paths.len());
    for path in &paths {
        assert_eq!(path.cat, "tracker");
        assert_eq!(
            path.depth,
            track.depth + 1,
            "nested in the engine's track span"
        );
    }
    assert_eq!(count(&spans, "predict") + count(&spans, "correct"), 0);

    let deep = traced_solve(&engine, true, 3);
    assert!(count(&deep, "track.path") >= 1);
    for name in ["predict", "correct"] {
        let steps: Vec<&SpanRecord> = deep.iter().filter(|s| s.name == name).collect();
        assert!(!steps.is_empty(), "no {name} spans under deep tracing");
        assert!(steps
            .iter()
            .all(|s| s.cat == "tracker" && s.depth == track.depth + 2));
    }
    engine.shutdown();
}
