//! Tracker spans in a default build: once an engine has started, the
//! tracker's `track.path` spans (category `tracker`) record under a
//! traced solve's id whenever a recorder is installed, and its per-step
//! `predict`/`correct` spans only under deep tracing.
//!
//! A test binary of its own: installing a deep recorder would flood the
//! recent-trace store that `trace_e2e`'s tests read.

use pieri_service::pieri_trace::{self, SpanRecord, TraceConfig, TraceSpans};
use pieri_service::{Engine, EngineConfig, JobRequest};
use std::sync::{mpsc, Mutex};

/// The recorder is process-global: one traced solve at a time.
static RECORDER: Mutex<()> = Mutex::new(());

/// An engine with the (2,2,1) shape already built.
fn warm_engine() -> Engine {
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
    engine
}

/// A warm (2,2,1) solve under a fresh trace id with the recorder
/// installed; returns what the recent-trace store holds for that id.
fn traced_solve(engine: &Engine, deep: bool, seed: u64) -> TraceSpans {
    let _recorder = RECORDER.lock().unwrap_or_else(|p| p.into_inner());
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
    let trace = pieri_trace::trace_spans(trace_id).expect("trace recorded");
    pieri_trace::clear();
    trace
}

fn count(spans: &[SpanRecord], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

#[test]
fn tracker_spans_record_without_a_build_feature() {
    let engine = warm_engine();
    let spans = traced_solve(&engine, false, 2).spans;
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

    let deep = traced_solve(&engine, true, 3).spans;
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

/// A deep-traced warm solve records about twice the store's per-trace
/// cap in `predict`/`correct` spans. The spans that close the trace
/// record last, so the store keeps every span of depth 0 or 1 past the
/// cap and counts the deeper ones it drops.
#[test]
fn deep_trace_keeps_its_closing_spans() {
    let engine = warm_engine();
    let trace = traced_solve(&engine, true, 4);
    assert!(
        trace
            .spans
            .iter()
            .any(|s| s.name == "track" && s.cat == "engine"),
        "the engine track span survives the cap"
    );
    // One per feedback law, the later ones recorded past the cap.
    assert!(count(&trace.spans, "track.path") >= 8);
    assert!(
        trace.dropped > 0,
        "{} spans kept, none dropped",
        trace.spans.len()
    );
    engine.shutdown();
}
