//! Exporters over the recorded rings: Chrome `trace_event` JSON (open
//! in `chrome://tracing` / Perfetto) and the recent-trace query used
//! by the service's `/v1/trace/<id>` endpoint.

use crate::span::{self, SpanRecord, TraceSpans};
use std::io::Write;
use std::path::Path;

/// The spans recorded for `trace_id` (ordered by start time, with the
/// nesting depth each record carries) and the count of spans the
/// per-trace caps dropped, or `None` when the id was never seen or
/// already evicted from the bounded store.
pub fn trace_spans(trace_id: u64) -> Option<TraceSpans> {
    span::store_spans(trace_id)
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serializes every ring's contents as a Chrome `trace_event` document:
/// `{"traceEvents":[{"ph":"X","name":…,"ts":…,"dur":…,"pid":1,"tid":…},…]}`,
/// sorted by start time. Returns an empty document when tracing is off.
pub fn chrome_json() -> String {
    let mut records: Vec<(u32, SpanRecord)> = Vec::new();
    if let Some(state) = span::active() {
        let rings = {
            // Reader-side: clones the ring list, then drains each ring
            // under its own lock (writers only try_lock, so a slow
            // exporter costs dropped records, never a stalled worker).
            // lint:lock-rank(trace-rings, 1)
            let rings = state.rings.lock().unwrap_or_else(|e| e.into_inner());
            rings.clone()
        };
        for ring in rings.iter() {
            // lint:lock-rank(trace-ring, 2)
            let buf = ring.lock().unwrap_or_else(|e| e.into_inner());
            for rec in &buf.records {
                records.push((rec.tid, *rec));
            }
        }
    }
    records.sort_by_key(|&(_, r)| (r.start_us, r.depth));
    let mut out = String::from("{\"traceEvents\":[");
    for (i, (tid, r)) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"ph\":\"X\",\"name\":");
        push_json_str(&mut out, r.name);
        out.push_str(",\"cat\":");
        push_json_str(&mut out, r.cat);
        out.push_str(&format!(
            ",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}",
            r.start_us, r.dur_us, tid
        ));
        if r.trace_id != 0 {
            out.push_str(",\"args\":{\"trace\":");
            push_json_str(&mut out, &crate::format_trace_id(r.trace_id));
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Writes [`chrome_json`] to `path`. Returns the number of events
/// written.
pub fn export_chrome(path: &Path) -> std::io::Result<usize> {
    let doc = chrome_json();
    // Cheap event count: each complete event opens with `{"ph"`.
    let events = doc.matches("{\"ph\"").count();
    let mut f = std::fs::File::create(path)?;
    f.write_all(doc.as_bytes())?;
    f.sync_all()?;
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{clear, install, set_current_trace, span, TraceConfig};

    #[test]
    fn chrome_document_is_wellformed() {
        let _g = crate::TEST_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        install(TraceConfig::default());
        let id = crate::next_trace_id();
        let prev = set_current_trace(id);
        {
            let _span = span("export.me \"quoted\"", "test");
        }
        set_current_trace(prev);
        let doc = chrome_json();
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.ends_with("\"displayTimeUnit\":\"ms\"}"));
        assert!(doc.contains("\\\"quoted\\\""), "{doc}");
        assert!(doc.contains(&crate::format_trace_id(id)));
        clear();
        assert_eq!(
            chrome_json(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"
        );
    }

    #[test]
    fn export_writes_file() {
        let _g = crate::TEST_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        install(TraceConfig::default());
        {
            let _span = span("disk", "test");
        }
        let path = std::env::temp_dir().join(format!("pieri-trace-{}.json", std::process::id()));
        let n = export_chrome(&path).expect("write");
        assert!(n >= 1);
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"disk\""));
        let _ = std::fs::remove_file(&path);
        clear();
    }
}
