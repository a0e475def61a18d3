//! Offline observability for the Pieri service stack.
//!
//! The paper's parallel speedups live or die on where wall-time goes —
//! queue waits, path-tracking phases, worker utilization — so this
//! crate gives the workspace a measurement layer with the same
//! discipline as the code it observes: no external dependencies, no
//! allocation on the recording paths, and zero cost when unused.
//!
//! Three layers, each usable without the ones above it:
//!
//! * [`metrics`] — an **always-on** registry of atomic counters,
//!   gauges and log-linear-bucket histograms. Snapshots are coherent
//!   (registration-order reads, SeqCst counters: a dependent counter
//!   registered before its superset can never be observed ahead of
//!   it) and render to Prometheus text exposition format.
//! * [`span`](mod@span) — structured spans and events recorded into per-thread
//!   ring buffers via `try_lock` (a contended writer drops the record
//!   and bumps a counter; it never parks). Consumers compile these to
//!   `#[inline(always)]` no-ops unless their `trace` feature is on —
//!   the same pattern as `pieri-chaos`.
//! * [`export`] — Chrome `trace_event` JSON export of the ring
//!   contents, plus the bounded recent-trace store behind the
//!   service's `/v1/trace/<id>` endpoint.
//!
//! # Quickstart
//!
//! ```
//! use pieri_trace::{Registry, TraceConfig};
//!
//! let registry = Registry::new();
//! let hits = registry.counter("demo_hits");
//! let latency = registry.histogram("demo_latency_us");
//! hits.inc();
//! latency.record(1250);
//! let snap = registry.snapshot();
//! assert!(pieri_trace::render_prometheus(&snap).contains("demo_hits 1"));
//!
//! pieri_trace::install(TraceConfig::default());
//! let id = pieri_trace::next_trace_id();
//! {
//!     let _span = pieri_trace::span_for("demo.work", "test", id);
//! }
//! assert!(!pieri_trace::trace_spans(id).unwrap().is_empty());
//! pieri_trace::clear();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod metrics;
pub mod span;

pub use export::{chrome_json, export_chrome, trace_spans};
pub use metrics::{
    render_prometheus, validate_exposition, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricSnapshot, MetricValue, Registry, Snapshot,
};
pub use span::{
    clear, current_trace, deep_enabled, deep_span, enabled, event, install, install_from_env,
    next_trace_id, set_current_trace, slow_request, span, span_closed, span_for, SpanGuard,
    SpanRecord, TraceConfig,
};

/// Serializes every test that touches the process-global span state
/// (install/clear/rings), across this crate's test modules.
#[cfg(test)]
pub(crate) static TEST_GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Environment variable consulted by [`install_from_env`]: set
/// `PIERI_TRACE=1` (or `ring=65536;recent=512;slow_ms=50;out=trace.json`)
/// to enable tracing at process start without touching code.
pub const ENV_VAR: &str = "PIERI_TRACE";

/// Parses a wire-format trace id: 1–16 lowercase/uppercase hex digits,
/// nonzero. This is the `x-trace-id` header syntax.
pub fn parse_trace_id(s: &str) -> Option<u64> {
    let s = s.trim();
    if s.is_empty() || s.len() > 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    match u64::from_str_radix(s, 16) {
        Ok(0) | Err(_) => None,
        Ok(id) => Some(id),
    }
}

/// Formats a trace id the way the service emits it: 16 lowercase hex
/// digits, the inverse of [`parse_trace_id`].
pub fn format_trace_id(id: u64) -> String {
    format!("{id:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_round_trips() {
        for id in [1u64, 0xdead_beef, u64::MAX] {
            assert_eq!(parse_trace_id(&format_trace_id(id)), Some(id));
        }
    }

    #[test]
    fn trace_id_rejects_garbage() {
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("0"), None, "zero means `absent` on the wire");
        assert_eq!(parse_trace_id("xyz"), None);
        assert_eq!(parse_trace_id("11112222333344445"), None, "17 digits");
        assert_eq!(parse_trace_id("1234abcd"), Some(0x1234_abcd));
        assert_eq!(parse_trace_id(" 1234ABCD "), Some(0x1234_abcd));
    }
}
