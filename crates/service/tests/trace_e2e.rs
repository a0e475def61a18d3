//! Gated end-to-end trace test (`cargo test -p pieri-service --test
//! trace_e2e --features trace`): boots the server with tracing
//! installed, sends a solve carrying an explicit `x-trace-id`, and
//! resolves that id through `/v1/trace/<id>` to a span tree covering
//! queue → track → render. Also validates `/v1/metrics` as Prometheus
//! text exposition with the trace crate's own parser.
//!
//! Raw sockets instead of [`pieri_service::Client`]: the assertions
//! are about exact response *headers* (`x-trace-id`), which the
//! blocking client deliberately does not expose.

use minijson::Value;
use pieri_service::pieri_trace::{self, TraceConfig};
use pieri_service::{Engine, EngineConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

fn boot() -> (Server, SocketAddr) {
    let engine = Arc::new(Engine::start(EngineConfig {
        workers: 2,
        queue_capacity: 16,
        ..EngineConfig::default()
    }));
    let server = Server::start("127.0.0.1:0", engine).expect("bind ephemeral port");
    let addr = server.addr();
    (server, addr)
}

/// One raw HTTP/1.1 exchange on a fresh connection; returns the status
/// code, the response headers (lower-cased names), and the body.
fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n");
    for (name, value) in extra_headers {
        req.push_str(&format!("{name}: {value}\r\n"));
    }
    req.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    stream.write_all(req.as_bytes()).expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("utf-8 response");
    let (head, payload) = text.split_once("\r\n\r\n").expect("header terminator");
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers = lines
        .filter_map(|l| l.split_once(": "))
        .map(|(n, v)| (n.to_ascii_lowercase(), v.to_string()))
        .collect();
    (status, headers, payload.to_string())
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

#[test]
fn trace_id_resolves_to_span_tree() {
    pieri_trace::install(TraceConfig::default());
    let (server, addr) = boot();

    // A client-minted trace id rides the request and comes back
    // normalized on the response.
    let job = r#"{"type":"solve_pieri","m":2,"p":2,"q":0,"seed":7,"certify":false}"#;
    let (status, headers, body) =
        exchange(addr, "POST", "/v1/solve", &[("x-trace-id", "abc123")], job);
    assert_eq!(status, 200, "solve failed: {body}");
    assert_eq!(
        header(&headers, "x-trace-id"),
        Some("0000000000abc123"),
        "client trace id is honoured and echoed zero-padded"
    );

    // The id resolves to the recorded span tree. The solve's spans are
    // recorded before its response bytes are written, so by the time
    // this second request runs they are queryable.
    let (status, _, body) = exchange(addr, "GET", "/v1/trace/abc123", &[], "");
    assert_eq!(status, 200, "trace lookup failed: {body}");
    let v = minijson::parse(&body).expect("trace JSON");
    assert_eq!(
        v.get("trace_id").and_then(Value::as_str),
        Some("0000000000abc123")
    );
    let spans = v
        .get("spans")
        .and_then(Value::as_array)
        .expect("spans array");
    let names: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get("name").and_then(Value::as_str))
        .collect();
    for expected in ["queue.wait", "track", "render", "request"] {
        assert!(
            names.contains(&expected),
            "span tree missing {expected:?}: {names:?}"
        );
    }
    for span in spans {
        let dur = span.get("dur_us").and_then(Value::as_u64);
        assert!(dur.is_some(), "every span carries a duration: {body}");
    }

    // Unknown and malformed ids answer structured 404s.
    let (status, _, _) = exchange(addr, "GET", "/v1/trace/ffffffffffffffff", &[], "");
    assert_eq!(status, 404);
    let (status, _, _) = exchange(addr, "GET", "/v1/trace/not-hex", &[], "");
    assert_eq!(status, 404);
    // And the endpoint rejects non-GET methods like its peers.
    let (status, _, _) = exchange(addr, "POST", "/v1/trace/abc123", &[], "");
    assert_eq!(status, 405);

    server.shutdown();
}

#[test]
fn server_mints_ids_when_absent() {
    pieri_trace::install(TraceConfig::default());
    let (server, addr) = boot();

    let (status, headers, _) = exchange(addr, "GET", "/healthz", &[], "");
    assert_eq!(status, 200);
    let minted = header(&headers, "x-trace-id").expect("server-minted trace id");
    assert_eq!(minted.len(), 16, "zero-padded 64-bit hex");
    assert!(minted.chars().all(|c| c.is_ascii_hexdigit()));
    assert_ne!(minted, "0000000000000000");

    // A malformed inbound id is treated as absent, never a 400.
    let (status, headers, _) = exchange(addr, "GET", "/healthz", &[("x-trace-id", "zzzz-bad")], "");
    assert_eq!(status, 200);
    let fresh = header(&headers, "x-trace-id").expect("fresh id for malformed header");
    assert_ne!(fresh, "zzzz-bad");

    server.shutdown();
}

#[test]
fn metrics_exposition_is_valid_and_coherent_with_stats() {
    pieri_trace::install(TraceConfig::default());
    let (server, addr) = boot();

    let job = r#"{"type":"solve_pieri","m":2,"p":2,"q":0,"seed":9,"certify":false}"#;
    let (status, _, _) = exchange(addr, "POST", "/v1/solve", &[], job);
    assert_eq!(status, 200);

    let (status, headers, text) = exchange(addr, "GET", "/v1/metrics", &[], "");
    assert_eq!(status, 200);
    assert!(
        header(&headers, "content-type")
            .is_some_and(|ct| ct.starts_with("text/plain; version=0.0.4")),
        "Prometheus exposition content type"
    );
    let series = pieri_trace::validate_exposition(&text).expect("valid exposition");
    assert!(series > 0, "exposition carries series");
    assert!(text.contains("pieri_jobs_submitted_total"));
    assert!(text.contains("pieri_job_solve_us_bucket"));
    assert!(text.contains("pieri_http_requests_total{path=\"/v1/solve\"}"));

    // `/v1/stats` and `/v1/metrics` read the same registry: the
    // completed count agrees (no more traffic between the reads can
    // decrement it, so >= is the stable assertion).
    let (_, _, stats) = exchange(addr, "GET", "/v1/stats", &[], "");
    let v = minijson::parse(&stats).expect("stats JSON");
    let completed = v.get("completed").and_then(Value::as_usize).unwrap_or(0);
    assert!(completed >= 1, "solve counted as completed");

    server.shutdown();
}
