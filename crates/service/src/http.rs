//! Hand-rolled HTTP/1.1 + JSON transport on `std::net`.
//!
//! The environment is offline (no hyper/axum), and the wire surface a
//! batch solver needs is tiny, so the transport is written directly
//! against `TcpListener`/`TcpStream`. Since the reactor rework the
//! server side is *event-driven*: [`Server::start`] spawns a handful
//! of reactor threads (the crate-internal `reactor` module) that
//! multiplex every connection over epoll — this module keeps the protocol itself (the incremental
//! request parser, the response renderer, the route → status mapping)
//! and the blocking [`Client`].
//!
//! Connections are persistent when the client asks for it: a request
//! carrying `Connection: keep-alive` is answered in kind and the
//! connection stays registered for the next request (up to
//! [`MAX_REQUESTS_PER_CONN`], then a final `Connection: close`); any
//! other request keeps the original one-shot `Connection: close`
//! behaviour. Kept-alive connections may *pipeline*: several requests
//! on the wire before the first response; responses always come back
//! in request order. The bundled [`Client`] pools one connection and
//! retries once on a stale socket, so warm request streams skip the
//! TCP handshake per call.
//!
//! Endpoints (see the README table):
//!
//! | Method | Path             | Body                | Response |
//! |--------|------------------|---------------------|----------|
//! | GET    | `/healthz`       | —                   | `{"ok":true}` |
//! | GET    | `/v1/stats`      | —                   | engine + cache counters |
//! | GET    | `/v1/metrics`    | —                   | the same counters as Prometheus text |
//! | GET    | `/v1/trace/<id>` | —                   | recorded span tree of a traced request (404 when unknown) |
//! | POST   | `/v1/solve`      | one tagged job      | job result |
//! | POST   | `/v1/batch`      | `{"jobs":[job, …]}` | `{"results":[…]}` |
//!
//! A request may carry `x-deadline-ms: N`: the job is only worth
//! having for the next `N` milliseconds. The deadline rides into the
//! engine — a job whose deadline lapses before a worker dequeues it is
//! shed without touching the solver, and one that lapses mid-track
//! stops at the next path boundary (`continue_to_instance` checks the
//! job's `pieri_tracker::cancel` token between paths) — and lapsing
//! surfaces as the structured `deadline_exceeded` envelope with status
//! 503.
//!
//! Error responses carry the structured envelope of
//! [`crate::wire::error_to_json`] with HTTP status mapped from the error
//! kind (400 invalid, 413 too large, 503 back-pressure/shutdown/
//! deadline, 500 internal).

use crate::engine::Engine;
use crate::job::{JobError, JobRequest, JobResult};
use crate::sync::{rank, RankedMutex};
use crate::wire;
use minijson::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest accepted header block.
pub(crate) const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Largest accepted request body.
const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;
/// Budget for a stalled transfer (bytes buffered but none moving),
/// and the [`Client`]'s default socket timeout.
pub(crate) const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Concurrent connection cap across all reactor threads. A connection
/// past the cap costs only a registered fd preloaded with a 503
/// envelope (see [`crate::reactor`]), so the cap can sit far above the
/// old thread-per-connection limit of 256 without risking thread or
/// memory exhaustion.
pub(crate) const MAX_CONNECTIONS: usize = 4096;
/// Requests served per kept-alive connection before the server closes
/// it anyway — bounds how long one peer can pin a connection slot.
pub const MAX_REQUESTS_PER_CONN: usize = 256;
/// How long a kept-alive connection may sit idle between requests.
/// Much shorter than [`IO_TIMEOUT`]: an idle connection pins a
/// `MAX_CONNECTIONS` slot, so parked clients must release it quickly
/// (their pooled [`Client`] reconnects transparently — a
/// server-closed socket is the replay-safe retry case).
pub(crate) const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(5);

/// Tunables for [`Server::start_with`]. [`Default`] reproduces
/// [`Server::start`]: an exclusive bind with the production sweep
/// budgets.
#[derive(Debug, Clone, Copy)]
pub struct ServerOptions {
    /// Bind the listener with `SO_REUSEPORT` so a replacement server
    /// can share the port while this one drains — the kernel
    /// load-balances new connections across live listeners, which is
    /// what makes [`Server::drain`] a zero-downtime restart.
    pub reuseport: bool,
    /// Idle budget for quiescent kept-alive connections
    /// (default 5 s).
    pub keep_alive_idle: Duration,
    /// Budget for stalled transfers — bytes buffered but none moving
    /// (default 30 s, also the [`Client`]'s socket timeout).
    pub io_timeout: Duration,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            reuseport: false,
            keep_alive_idle: KEEP_ALIVE_IDLE,
            io_timeout: IO_TIMEOUT,
        }
    }
}

/// The HTTP front end over an [`Engine`].
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    conn_total: Arc<AtomicUsize>,
    shared: Vec<Arc<crate::reactor::ReactorShared>>,
    reactor_handles: RankedMutex<Vec<JoinHandle<()>>>,
    engine: Arc<Engine>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// reactor threads (see the module docs).
    pub fn start(addr: &str, engine: Arc<Engine>) -> std::io::Result<Server> {
        Server::start_with(addr, engine, ServerOptions::default())
    }

    /// As [`Server::start`] with explicit [`ServerOptions`].
    pub fn start_with(
        addr: &str,
        engine: Arc<Engine>,
        opts: ServerOptions,
    ) -> std::io::Result<Server> {
        let listener = if opts.reuseport {
            let sock = addr.to_socket_addrs()?.next().ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::NotFound, "no address to bind")
            })?;
            mio_lite::net::bind_reuseport(sock)?
        } else {
            TcpListener::bind(addr)?
        };
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let draining = Arc::new(AtomicBool::new(false));
        let (reactors, shared, conn_total) = crate::reactor::build(
            crate::reactor::REACTOR_THREADS,
            listener,
            engine.clone(),
            stop.clone(),
            draining.clone(),
            opts,
        )?;
        let mut handles = Vec::with_capacity(reactors.len());
        for reactor in reactors {
            // The event loops are the only threads the server owns: a
            // fixed few I/O threads instead of one per connection.
            let spawned = std::thread::Builder::new()
                .name(format!("pieri-reactor-{}", reactor.index()))
                .spawn(move || reactor.run());
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    // Unwind the reactors already running: raise the
                    // stop flag they poll, nudge their wakers, join.
                    stop.store(true, Ordering::SeqCst);
                    for s in &shared {
                        s.wake();
                    }
                    for handle in handles {
                        let _ = handle.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok(Server {
            addr: local,
            stop,
            draining,
            conn_total,
            shared,
            reactor_handles: RankedMutex::new("http-accept", rank::HTTP_ACCEPT, handles),
            engine,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine behind the server.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Graceful drain for a zero-downtime restart: stop accepting
    /// (reactor 0 drops the listener — with [`ServerOptions::reuseport`]
    /// the kernel immediately routes new connections to the replacement
    /// server sharing the port), let admitted requests finish and their
    /// responses flush, then stop the reactors. Returns `true` when
    /// every connection drained before `timeout`; on `false` the
    /// stragglers were closed anyway (their unanswered requests are the
    /// clients' replay-safe retry case). The bundle store needs no
    /// separate flush: saves are write-through and fsynced at save
    /// time, so a drained server's cache is already durable.
    pub fn drain(&self, timeout: Duration) -> bool {
        self.draining.store(true, Ordering::SeqCst);
        for s in &self.shared {
            s.wake();
        }
        let deadline = Instant::now() + timeout;
        let mut clean = false;
        while Instant::now() < deadline {
            if self.conn_total.load(Ordering::SeqCst) == 0 {
                clean = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        clean = clean || self.conn_total.load(Ordering::SeqCst) == 0;
        self.shutdown();
        clean
    }

    /// Stops the reactor threads and joins them. Open connections are
    /// closed and their in-flight jobs cancelled; the engine keeps
    /// running until its owner shuts it down.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for s in &self.shared {
            s.wake();
        }
        // lint:lock-rank(http-accept, 50)
        let handles = std::mem::take(&mut *self.reactor_handles.lock_recover());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---- protocol ----------------------------------------------------------

/// One fully parsed request head (the body stays in the caller's
/// buffer, located by `body_start`/`body_len`).
pub(crate) struct ParsedHead {
    pub(crate) method: String,
    pub(crate) path: String,
    /// True when the request carried `Connection: keep-alive`.
    pub(crate) keep_alive: bool,
    /// Value of `x-deadline-ms`, if the header was present.
    deadline_ms: Option<u64>,
    /// The request's trace id: the `x-trace-id` header when it parsed
    /// (1–16 hex digits, nonzero), else freshly generated — and always
    /// 0 while no trace recorder is installed. A malformed header never
    /// fails the request; it is treated as absent.
    pub(crate) trace_id: u64,
    /// Byte offset of the body within the parse buffer.
    pub(crate) body_start: usize,
    /// Body length (the declared `Content-Length`).
    pub(crate) body_len: usize,
}

impl ParsedHead {
    /// The request's absolute deadline, anchored now: the client's
    /// `x-deadline-ms` budget starts counting when the server has the
    /// full request, not when the client sent it (clocks differ).
    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms))
    }
}

/// Outcome of one [`parse_request`] attempt over a growing buffer.
pub(crate) enum Parse {
    /// Not enough bytes yet: read more, then parse again from the
    /// returned [`Resume`].
    Partial(Resume),
    /// Unrecoverable framing error: answer it and close.
    Bad(JobError),
    /// One complete request.
    Request(ParsedHead),
}

/// Where the next [`parse_request`] attempt on a grown buffer resumes,
/// so a request arriving one byte per read costs linear work in all.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Resume {
    /// Leading bytes known to hold no start of the head terminator.
    searched: usize,
    /// Buffer length below which no request can be complete.
    need: usize,
}

/// Incremental HTTP/1.1 request parser: inspects `buf` (the bytes
/// received so far on a connection) and reports whether a complete
/// request is present. The caller consumes `body_start + body_len`
/// bytes on [`Parse::Request`] and re-invokes on the remainder with
/// `Resume::default()` — that re-invocation is what makes pipelining
/// work. After [`Parse::Partial`] it re-invokes with the returned
/// resume point once more bytes arrived: the terminator search goes on
/// where it stopped, and attempts return at once until a head's body is
/// complete.
pub(crate) fn parse_request(buf: &[u8], from: Resume) -> Parse {
    if buf.len() < from.need {
        return Parse::Partial(from);
    }
    let bad = |msg: &str| Parse::Bad(JobError::InvalidRequest(msg.to_string()));
    let Some(head_end) = find_header_end(buf, from.searched) else {
        // No terminator yet: either an incomplete head or one that
        // already overflows the bound (a peer streaming garbage must
        // not grow the buffer forever).
        if buf.len() > MAX_HEADER_BYTES {
            return Parse::Bad(JobError::TooLarge {
                detail: format!("header block exceeds {MAX_HEADER_BYTES} bytes"),
            });
        }
        return Parse::Partial(Resume {
            searched: buf.len().saturating_sub(3),
            need: buf.len() + 1,
        });
    };
    if head_end > MAX_HEADER_BYTES {
        return Parse::Bad(JobError::TooLarge {
            detail: format!("header block exceeds {MAX_HEADER_BYTES} bytes"),
        });
    }
    let Ok(head) = std::str::from_utf8(&buf[..head_end]) else {
        return bad("header block must be UTF-8");
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let Some(method) = parts.next() else {
        return bad("empty request line");
    };
    let Some(path) = parts.next() else {
        return bad("missing path");
    };
    let version = parts.next().unwrap_or_default();
    if !version.starts_with("HTTP/1.") {
        return bad("unsupported HTTP version");
    }
    let mut content_length = None;
    let mut keep_alive = false;
    let mut deadline_ms = None;
    let mut trace_header = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let Ok(n) = value.trim().parse::<usize>() else {
                    return bad("invalid Content-Length");
                };
                // Two different lengths leave the body's end ambiguous:
                // whichever one the parser picked, the peer may mean the
                // other, and the difference would be parsed as the next
                // pipelined request. RFC 9112 §6.3: reject and close.
                // Equal repeats are harmless.
                if content_length.is_some_and(|prev| prev != n) {
                    return bad("conflicting Content-Length headers");
                }
                content_length = Some(n);
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = value.trim().eq_ignore_ascii_case("keep-alive");
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                // Only Content-Length framing is implemented. Accepting
                // a chunked request would leave its body bytes in the
                // buffer to be parsed as the *next* request on a
                // kept-alive connection (request smuggling); reject it
                // and close.
                return bad("Transfer-Encoding is not supported; use Content-Length");
            } else if name.eq_ignore_ascii_case("x-deadline-ms") {
                let Ok(ms) = value.trim().parse::<u64>() else {
                    return bad("invalid x-deadline-ms");
                };
                deadline_ms = Some(ms);
            } else if name.eq_ignore_ascii_case("x-trace-id") {
                trace_header = Some(value.trim());
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Parse::Bad(JobError::TooLarge {
            detail: format!("request body exceeds {MAX_BODY_BYTES} bytes"),
        });
    }
    let body_start = head_end + 4;
    if buf.len() < body_start + content_length {
        return Parse::Partial(Resume {
            searched: head_end,
            need: body_start + content_length,
        });
    }
    Parse::Request(ParsedHead {
        method: method.to_string(),
        path: path.to_string(),
        keep_alive,
        deadline_ms,
        trace_id: if pieri_trace::enabled() {
            trace_header
                .and_then(pieri_trace::parse_trace_id)
                .unwrap_or_else(pieri_trace::next_trace_id)
        } else {
            0
        },
        body_start,
        body_len: content_length,
    })
}

/// Position of the first `\r\n\r\n` head terminator starting at or
/// after `from`, if present.
fn find_header_end(buf: &[u8], from: usize) -> Option<usize> {
    let from = from.min(buf.len());
    let found = buf[from..].windows(4).position(|w| w == b"\r\n\r\n");
    found.map(|i| from + i)
}

/// Renders one JSON response — status line, headers, body — into a
/// byte buffer ready for the wire. A nonzero `trace_id` is echoed back
/// as an `x-trace-id` header so clients can fetch `/v1/trace/<id>`.
pub(crate) fn render_response(
    status: u16,
    body: &Value,
    keep_alive: bool,
    trace_id: u64,
) -> Vec<u8> {
    render_raw(
        status,
        "application/json",
        body.serialize().as_bytes(),
        keep_alive,
        trace_id,
    )
}

/// Renders one plain-text response — the `/v1/metrics` Prometheus
/// exposition path, which must not be wrapped in JSON.
pub(crate) fn render_text_response(status: u16, body: &str, keep_alive: bool) -> Vec<u8> {
    render_raw(
        status,
        "text/plain; version=0.0.4; charset=utf-8",
        body.as_bytes(),
        keep_alive,
        0,
    )
}

fn render_raw(
    status: u16,
    content_type: &str,
    payload: &[u8],
    keep_alive: bool,
    trace_id: u64,
) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let trace_header = if trace_id != 0 {
        format!("x-trace-id: {trace_id:016x}\r\n")
    } else {
        String::new()
    };
    // One buffer, one write: never leaves a small unacknowledged
    // segment for Nagle to hold the rest of the response behind.
    let mut message = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: {connection}\r\n{trace_header}\r\n",
        payload.len()
    )
    .into_bytes();
    message.extend_from_slice(payload);
    message
}

/// HTTP status for a structured error.
pub(crate) fn status_for(e: &JobError) -> u16 {
    match e {
        JobError::InvalidRequest(_) => 400,
        JobError::TooLarge { .. } => 413,
        JobError::QueueFull | JobError::ShuttingDown | JobError::DeadlineExceeded { .. } => 503,
        JobError::StartSystem(_) | JobError::Uncertified { .. } | JobError::Internal(_) => 500,
    }
}

/// Decodes one `/v1/solve` body.
pub(crate) fn parse_job(body: &[u8]) -> Result<JobRequest, JobError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| JobError::InvalidRequest("body must be UTF-8".into()))?;
    let json = minijson::parse(text)
        .map_err(|e| JobError::InvalidRequest(format!("invalid JSON: {e}")))?;
    Ok(wire::request_from_json(&json)?)
}

/// Decodes one `/v1/batch` body into its jobs. One batch may not
/// monopolise the engine: it is bounded by `cap` (the queue capacity,
/// the same knob that bounds every other client).
pub(crate) fn parse_batch(body: &[u8], cap: usize) -> Result<Vec<JobRequest>, JobError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| JobError::InvalidRequest("body must be UTF-8".into()))?;
    let json = minijson::parse(text)
        .map_err(|e| JobError::InvalidRequest(format!("invalid JSON: {e}")))?;
    let jobs = json
        .get("jobs")
        .and_then(Value::as_array)
        .ok_or_else(|| JobError::InvalidRequest("batch needs a \"jobs\" array".into()))?;
    if jobs.len() > cap {
        return Err(JobError::TooLarge {
            detail: format!(
                "batch of {} jobs exceeds the queue capacity {cap}; split it",
                jobs.len()
            ),
        });
    }
    jobs.iter()
        .map(|j| wire::request_from_json(j).map_err(JobError::from))
        .collect()
}

// ---- client ------------------------------------------------------------

/// A failed request/response exchange, remembering whether replaying
/// the request on a fresh connection is safe: only when the pooled
/// connection died **before any response byte arrived** (the HTTP
/// convention for persistent connections) — a failure mid-response
/// means the server may have executed the job, and jobs are not
/// idempotent in cost. Timeouts are never replay-safe.
struct ExchangeError {
    error: std::io::Error,
    replay_safe: bool,
}

impl ExchangeError {
    /// An error from before any response byte was read: replay-safe
    /// exactly when the error says the socket was dead, not slow.
    fn before_response(error: std::io::Error) -> Self {
        let replay_safe = matches!(
            error.kind(),
            std::io::ErrorKind::UnexpectedEof
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionAborted
                | std::io::ErrorKind::BrokenPipe
                | std::io::ErrorKind::NotConnected
        );
        ExchangeError { error, replay_safe }
    }

    /// An error establishing the connection: always replay-safe — no
    /// request byte was ever sent, so nothing can have executed.
    fn connect(error: std::io::Error) -> Self {
        ExchangeError {
            error,
            replay_safe: true,
        }
    }

    /// An error after response bytes arrived: never replay-safe.
    fn mid_response(error: std::io::Error) -> Self {
        ExchangeError {
            error,
            replay_safe: false,
        }
    }
}

// ---- retries -----------------------------------------------------------

/// Backoff before a [`Client`]'s second attempt; doubles per attempt.
const BASE_BACKOFF: Duration = Duration::from_millis(10);
/// Cap on the exponential retry backoff.
const MAX_BACKOFF: Duration = Duration::from_millis(500);

/// Clients constructed so far in this process: each client seeds its
/// backoff jitter from its own construction number, so a swarm of
/// clients retrying the same outage spreads out instead of retrying in
/// lockstep, while each client's delays stay deterministic.
static CLIENTS_BUILT: AtomicU64 = AtomicU64::new(1);

/// What one failed attempt looked like to [`retry_decision`].
#[derive(Debug, Clone, Copy)]
enum AttemptOutcome<'a> {
    /// A transport-level failure. `replay_safe` is true only when the
    /// request provably never started executing: connect failures and
    /// connections that died before any response byte arrived.
    Transport { replay_safe: bool },
    /// An HTTP response, with the error envelope's `kind` tag (empty
    /// for responses without an envelope).
    Response { status: u16, kind: &'a str },
}

/// Decides whether attempt `attempt` (1-based) of a client allowed
/// `attempts` in total may be followed by another, and after what
/// backoff. `None` means surface the outcome as final. The rules, in
/// order:
///
/// * Past `attempts`, never.
/// * Transport failures: only when replay-safe. A timeout or a
///   mid-response failure may mean the server executed (or is still
///   executing) the job — jobs are not idempotent in cost, so a blind
///   replay would run them twice.
/// * `503 queue_full` / `503 shutting_down`: retryable — both are the
///   server *declining* work before execution (load shed, drain), the
///   exact case backoff-and-retry exists for.
/// * `503 deadline_exceeded`: **not** retryable — the request's own
///   time budget is spent; a replay would carry the same lapsed
///   deadline and be shed again.
/// * Any other response (including 4xx/5xx envelopes): not retryable —
///   the server answered authoritatively; resending the same bytes
///   yields the same answer.
///
/// The backoff doubles per attempt from [`BASE_BACKOFF`] up to
/// [`MAX_BACKOFF`], plus deterministic jitter (up to a quarter of the
/// backoff) derived from `jitter_seed` and the attempt number.
fn retry_decision(
    attempts: u32,
    jitter_seed: u64,
    attempt: u32,
    outcome: &AttemptOutcome<'_>,
) -> Option<Duration> {
    if attempt >= attempts {
        return None;
    }
    let retryable = match outcome {
        AttemptOutcome::Transport { replay_safe } => *replay_safe,
        AttemptOutcome::Response { status: 503, kind } => {
            matches!(*kind, "queue_full" | "shutting_down")
        }
        AttemptOutcome::Response { .. } => false,
    };
    if !retryable {
        return None;
    }
    Some(backoff_with_jitter(jitter_seed, attempt))
}

/// Exponential backoff with deterministic jitter for the wait after
/// attempt `attempt` (1-based).
fn backoff_with_jitter(jitter_seed: u64, attempt: u32) -> Duration {
    let exp = attempt.saturating_sub(1).min(16);
    let base = BASE_BACKOFF.saturating_mul(1u32 << exp).min(MAX_BACKOFF);
    // splitmix64's finalizer over the seed and attempt number: stable
    // per (seed, attempt), and nonlinear, so two seeds' jitters are
    // independent from attempt to attempt. A linear mix such as
    // xorshift carries the same seed difference into every attempt, and
    // many more pairs of clients then share all their delays than
    // chance would.
    let mut x = jitter_seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    let span = (base.as_millis() as u64 / 4).max(1);
    base + Duration::from_millis(x % span)
}

/// A tiny blocking HTTP/1.1 client for the examples, tests and load
/// generator.
///
/// The client requests `Connection: keep-alive` and pools one
/// connection: consecutive requests from the same `Client` reuse the
/// socket as long as the server keeps it open, falling back to a fresh
/// connection (with one retry) when the pooled socket has gone stale.
/// Its socket timeout is 30 s, the server's stalled-transfer budget.
pub struct Client {
    addr: SocketAddr,
    /// Total attempts per request, including the first (`1` = never
    /// retry).
    attempts: u32,
    /// Seed of this client's backoff jitter (see [`CLIENTS_BUILT`]).
    jitter_seed: u64,
    /// The kept-alive connection from the previous request, if any.
    conn: RankedMutex<Option<TcpStream>>,
}

impl Client {
    /// Resolves `addr` ("127.0.0.1:8632" or a `SocketAddr`); requests
    /// are sent once, never retried. `/v1/solve` blocks until the job
    /// finishes, so a job that runs past the 30 s socket timeout (a
    /// shape near the admission limits, or a deep queue) is reported as
    /// a transport error even though the server completes it.
    pub fn new(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Client::with_retry(addr, 1)
    }

    /// As [`Client::new`], but a request may be sent up to `attempts`
    /// times in total: a failed attempt is re-sent only when replaying
    /// it cannot run the job twice (a refused connect, a socket that
    /// died before any response byte, a `503 queue_full` or
    /// `503 shutting_down`), after an exponential backoff from 10 ms,
    /// capped at 500 ms, with per-client jitter.
    pub fn with_retry(addr: impl ToSocketAddrs, attempts: u32) -> std::io::Result<Client> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "no address"))?;
        let built = CLIENTS_BUILT.fetch_add(1, Ordering::Relaxed);
        Ok(Client {
            addr,
            attempts: attempts.max(1),
            jitter_seed: built.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            conn: RankedMutex::new("client-conn", rank::CLIENT_CONN, None),
        })
    }

    /// Raw GET; returns `(status, parsed body)`.
    pub fn get(&self, path: &str) -> std::io::Result<(u16, Value)> {
        self.request("GET", path, None)
    }

    /// Raw POST of a JSON body; returns `(status, parsed body)`.
    pub fn post(&self, path: &str, body: &Value) -> std::io::Result<(u16, Value)> {
        self.request("POST", path, Some(body))
    }

    /// Typed job submission: POST the request to `/v1/solve` and decode
    /// the result or the error envelope. Transport failures surface as
    /// [`JobError::Internal`].
    pub fn solve(&self, req: &JobRequest) -> Result<JobResult, JobError> {
        let body = wire::request_to_json(req);
        let (status, json) = self
            .post("/v1/solve", &body)
            .map_err(|e| JobError::Internal(format!("transport: {e}")))?;
        if status == 200 {
            Ok(wire::result_from_json(&json)?)
        } else {
            Err(wire::error_from_json(&json)
                .unwrap_or_else(|e| JobError::Internal(format!("bad error envelope: {e}"))))
        }
    }

    /// True when `/healthz` answers 200.
    pub fn health(&self) -> bool {
        matches!(self.get("/healthz"), Ok((200, _)))
    }

    fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&Value>,
    ) -> std::io::Result<(u16, Value)> {
        // The attempt loop: each failed attempt is put to
        // `retry_decision`, which only ever green-lights replay-safe
        // failures (stale sockets, refused connects, shed 503s) —
        // never a timeout or mid-response error, where the server may
        // be mid-execution and a blind replay would run the job twice.
        let mut attempt = 1u32;
        loop {
            match self.request_once(method, path, body) {
                Ok((status, json)) => {
                    let kind = json
                        .get("error")
                        .and_then(|e| e.get("kind"))
                        .and_then(Value::as_str)
                        .unwrap_or("");
                    let outcome = AttemptOutcome::Response { status, kind };
                    match retry_decision(self.attempts, self.jitter_seed, attempt, &outcome) {
                        Some(delay) => std::thread::sleep(delay),
                        None => return Ok((status, json)),
                    }
                }
                Err(e) => {
                    let outcome = AttemptOutcome::Transport {
                        replay_safe: e.replay_safe,
                    };
                    match retry_decision(self.attempts, self.jitter_seed, attempt, &outcome) {
                        Some(delay) => std::thread::sleep(delay),
                        None => return Err(e.error),
                    }
                }
            }
            attempt += 1;
        }
    }

    /// One attempt: the pooled kept-alive connection when there is one
    /// (falling back to a fresh connection when the pooled socket had
    /// provably gone stale — server closed it between requests), else
    /// a fresh connection. This stale-socket fallback stays within a
    /// single attempt, with or without retries: it re-sends only when
    /// zero response bytes arrived on a dead socket.
    fn request_once(
        &self,
        method: &str,
        path: &str,
        body: Option<&Value>,
    ) -> Result<(u16, Value), ExchangeError> {
        // lint:lock-rank(client-conn, 60)
        let pooled = self.conn.lock_recover().take();
        if let Some(stream) = pooled {
            match self.exchange(stream, method, path, body) {
                Ok(answer) => return Ok(answer),
                Err(e) if e.replay_safe => {}
                Err(e) => return Err(e),
            }
        }
        let stream =
            TcpStream::connect_timeout(&self.addr, IO_TIMEOUT).map_err(ExchangeError::connect)?;
        self.exchange(stream, method, path, body)
    }

    /// One request/response exchange on `stream`; pools the stream back
    /// when the server answered `Connection: keep-alive`. Errors record
    /// whether any response byte had arrived (see [`ExchangeError`]).
    fn exchange(
        &self,
        mut stream: TcpStream,
        method: &str,
        path: &str,
        body: Option<&Value>,
    ) -> Result<(u16, Value), ExchangeError> {
        let pre = ExchangeError::before_response;
        stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(pre)?;
        stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(pre)?;
        stream.set_nodelay(true).map_err(pre)?;
        let payload = body.map(Value::serialize).unwrap_or_default();
        // Head and body go out in one write (see `write_response`).
        let mut message = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            self.addr,
            payload.len()
        )
        .into_bytes();
        message.extend_from_slice(payload.as_bytes());
        stream.write_all(&message).map_err(pre)?;
        stream.flush().map_err(pre)?;

        // Read through a reference so the stream itself survives the
        // buffered reader; nothing beyond this response is in flight,
        // so dropping the buffer loses no bytes.
        let mut reader = BufReader::new(&stream);
        let mut status_line = String::new();
        match reader.read_line(&mut status_line) {
            Ok(0) => {
                return Err(pre(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed before response",
                )))
            }
            Ok(_) => {}
            Err(e) => return Err(pre(e)),
        }
        // From here on response bytes have arrived: failures are no
        // longer replay-safe.
        let mid = ExchangeError::mid_response;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                mid(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "bad status line",
                ))
            })?;
        let mut content_length = 0usize;
        let mut keep_alive = false;
        loop {
            let mut header = String::new();
            reader.read_line(&mut header).map_err(mid)?;
            let trimmed = header.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if let Some((name, value)) = trimmed.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        mid(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            "bad Content-Length",
                        ))
                    })?;
                } else if name.eq_ignore_ascii_case("connection") {
                    keep_alive = value.trim().eq_ignore_ascii_case("keep-alive");
                }
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).map_err(mid)?;
        drop(reader);
        if keep_alive {
            // lint:lock-rank(client-conn, 60)
            *self.conn.lock_recover() = Some(stream);
        }
        let text = String::from_utf8(body).map_err(|_| {
            mid(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "non-UTF-8 body",
            ))
        })?;
        let json = minijson::parse(&text).map_err(|e| {
            mid(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                e.to_string(),
            ))
        })?;
        Ok((status, json))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The full retry decision table: one row per (attempt, outcome)
    /// case the decision distinguishes.
    #[test]
    fn retry_decision_table() {
        let transport_safe = AttemptOutcome::Transport { replay_safe: true };
        let transport_unsafe = AttemptOutcome::Transport { replay_safe: false };
        let shed = AttemptOutcome::Response {
            status: 503,
            kind: "queue_full",
        };
        let draining = AttemptOutcome::Response {
            status: 503,
            kind: "shutting_down",
        };
        let expired = AttemptOutcome::Response {
            status: 503,
            kind: "deadline_exceeded",
        };
        let bad_request = AttemptOutcome::Response {
            status: 400,
            kind: "invalid_request",
        };
        let internal = AttemptOutcome::Response {
            status: 500,
            kind: "internal",
        };
        let ok = AttemptOutcome::Response {
            status: 200,
            kind: "",
        };
        let cases: &[(u32, &AttemptOutcome<'_>, bool)] = &[
            // Replay-safe transport failures retry until the budget.
            (1, &transport_safe, true),
            (2, &transport_safe, true),
            (3, &transport_safe, false),
            // A timeout / mid-response failure is never replayed: the
            // server may be (or have been) executing the job.
            (1, &transport_unsafe, false),
            // Shed and drain 503s are pre-execution refusals: retry.
            (1, &shed, true),
            (1, &draining, true),
            (2, &draining, true),
            (3, &shed, false),
            // A lapsed deadline is final — a replay carries the same
            // spent budget and is shed again.
            (1, &expired, false),
            // Authoritative answers are final, success trivially so.
            (1, &bad_request, false),
            (1, &internal, false),
            (1, &ok, false),
        ];
        for (attempt, outcome, retries) in cases {
            let decision = retry_decision(3, 7, *attempt, outcome);
            assert_eq!(
                decision.is_some(),
                *retries,
                "attempt {attempt} against {outcome:?}"
            );
        }
    }

    /// [`Client::new`] allows one attempt, which never retries anything.
    #[test]
    fn default_policy_never_retries() {
        let client = Client::new("127.0.0.1:9").expect("literal address");
        assert_eq!(client.attempts, 1);
        let outcome = AttemptOutcome::Transport { replay_safe: true };
        assert!(retry_decision(client.attempts, client.jitter_seed, 1, &outcome).is_none());
    }

    /// Backoff doubles per attempt, saturates at the cap, and its
    /// jitter is deterministic per (seed, attempt) while differing
    /// across seeds.
    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let outcome = AttemptOutcome::Transport { replay_safe: true };
        let waits: Vec<Duration> = (1..=8)
            .map(|attempt| retry_decision(16, 7, attempt, &outcome).expect("within budget"))
            .collect();
        // Exponential base: 10, 20, …, 320, then capped at 500; jitter
        // adds at most a quarter of the base on top.
        let bases = [10u64, 20, 40, 80, 160, 320, 500, 500];
        for (wait, base) in waits.iter().zip(bases) {
            let ms = wait.as_millis() as u64;
            assert!(
                (base..base + base / 4 + 1).contains(&ms),
                "{ms} vs base {base}"
            );
        }
        // Deterministic: the same (seed, attempt) repeats exactly.
        let again = retry_decision(16, 7, 3, &outcome).expect("within budget");
        assert_eq!(waits[2], again);
        // Decorrelated: another seed jitters differently somewhere.
        let differs = (1..=5).any(|attempt| {
            retry_decision(16, 8, attempt, &outcome) != retry_decision(16, 7, attempt, &outcome)
        });
        assert!(differs, "jitter ignored the seed");
    }

    /// Clients do not retry an outage in lockstep: two clients built one
    /// after the other wait for different times on some attempt.
    #[test]
    fn clients_built_in_turn_back_off_differently() {
        let a = Client::with_retry("127.0.0.1:9", 6).expect("literal address");
        let b = Client::with_retry("127.0.0.1:9", 6).expect("literal address");
        let outcome = AttemptOutcome::Transport { replay_safe: true };
        let waits = |c: &Client| -> Vec<Option<Duration>> {
            (1..=5)
                .map(|attempt| retry_decision(c.attempts, c.jitter_seed, attempt, &outcome))
                .collect()
        };
        assert!(waits(&a).iter().all(Option::is_some));
        assert_ne!(waits(&a), waits(&b), "both clients back off alike");
    }

    /// What the chunking property compares per request: method, path,
    /// keep-alive flag, deadline and body.
    type Seen = (String, String, bool, Option<u64>, Vec<u8>);

    /// Drives `stream` through [`parse_request`] the way the reactor
    /// does: bytes arrive in chunks of the given lengths (cycled), and
    /// after each arrival every complete request is parsed off the front
    /// of the buffer. Every request must lie inside the buffer. Returns
    /// what each request carried and the bytes left buffered, or the
    /// parser's complaint.
    fn parse_in_chunks(stream: &[u8], chunks: &[usize]) -> Result<(Vec<Seen>, usize), String> {
        let mut buf = Vec::new();
        let mut resume = Resume::default();
        let mut parsed = Vec::new();
        let mut rest = stream;
        for &len in chunks.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (chunk, tail) = rest.split_at(len.clamp(1, rest.len()));
            buf.extend_from_slice(chunk);
            rest = tail;
            while !buf.is_empty() {
                match parse_request(&buf, resume) {
                    Parse::Partial(next) => {
                        resume = next;
                        break;
                    }
                    Parse::Bad(e) => return Err(e.to_string()),
                    Parse::Request(head) => {
                        let end = head.body_start + head.body_len;
                        assert!(end <= buf.len(), "request ends at {end} of {}", buf.len());
                        parsed.push((
                            head.method,
                            head.path,
                            head.keep_alive,
                            head.deadline_ms,
                            buf[head.body_start..end].to_vec(),
                        ));
                        buf.drain(..end);
                        resume = Resume::default();
                    }
                }
            }
        }
        Ok((parsed, buf.len()))
    }

    /// The routes of the README endpoint table.
    const ROUTES: [(&str, &str); 6] = [
        ("GET", "/healthz"),
        ("GET", "/v1/stats"),
        ("GET", "/v1/metrics"),
        ("GET", "/v1/trace/00000000000000a1"),
        ("POST", "/v1/solve"),
        ("POST", "/v1/batch"),
    ];

    /// One valid request: a route, a body of arbitrary bytes (which may
    /// hold CRLFs or a whole request of its own), and the optional
    /// `Connection: keep-alive` and `x-deadline-ms` headers.
    fn any_request() -> impl Strategy<Value = (usize, Vec<u8>, bool, Option<u64>)> {
        (
            0usize..ROUTES.len(),
            proptest::collection::vec(0u8..=255, 0..2049),
            0u8..2,
            (0u8..2, 0u64..1_000_000),
        )
            .prop_map(|(route, body, keep_alive, (has_deadline, ms))| {
                (
                    route,
                    body,
                    keep_alive == 1,
                    (has_deadline == 1).then_some(ms),
                )
            })
    }

    /// Chunk lengths on several scales, so splits land inside request
    /// lines, headers, terminators and bodies alike.
    fn any_chunk() -> impl Strategy<Value = usize> {
        (0usize..4, 0usize..4096).prop_map(|(scale, raw)| 1 + raw % [8, 64, 512, 4096][scale])
    }

    /// The wire bytes of `requests` sent back to back, what each one
    /// carries, and the offset at which each one ends.
    fn pipelined(
        requests: Vec<(usize, Vec<u8>, bool, Option<u64>)>,
    ) -> (Vec<u8>, Vec<Seen>, Vec<usize>) {
        let mut stream = Vec::new();
        let mut sent = Vec::new();
        let mut ends = Vec::new();
        for (route, body, keep_alive, deadline_ms) in requests {
            let (method, path) = ROUTES[route];
            let mut head = format!(
                "{method} {path} HTTP/1.1\r\nHost: pieri\r\nContent-Length: {}\r\n",
                body.len()
            );
            if keep_alive {
                head.push_str("Connection: keep-alive\r\n");
            }
            if let Some(ms) = deadline_ms {
                head.push_str(&format!("x-deadline-ms: {ms}\r\n"));
            }
            head.push_str("\r\n");
            stream.extend_from_slice(head.as_bytes());
            stream.extend_from_slice(&body);
            ends.push(stream.len());
            sent.push((
                method.to_string(),
                path.to_string(),
                keep_alive,
                deadline_ms,
                body,
            ));
        }
        (stream, sent, ends)
    }

    /// One edit of a byte stream: flip a byte, insert one, or delete
    /// one, at a position taken modulo the stream's length.
    fn any_mutation() -> impl Strategy<Value = (u8, usize, u8)> {
        (0u8..3, 0usize..1 << 16, 1u8..=255)
    }

    fn mutate(stream: &mut Vec<u8>, (kind, at, byte): (u8, usize, u8)) {
        let at = at % (stream.len() + 1);
        match kind {
            0 if at < stream.len() => stream[at] ^= byte,
            1 => stream.insert(at, byte),
            _ if at < stream.len() => {
                stream.remove(at);
            }
            _ => {}
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// How the bytes of a pipelined stream arrive must not change
        /// what is parsed: any chunking yields the requests a one-shot
        /// parse of the whole stream yields, which are the requests
        /// that were sent.
        #[test]
        fn chunked_arrival_parses_like_one_shot(
            requests in proptest::collection::vec(any_request(), 1..9),
            chunks in proptest::collection::vec(any_chunk(), 1..32),
        ) {
            let (stream, sent, _) = pipelined(requests);
            let whole = parse_in_chunks(&stream, &[stream.len()]);
            prop_assert_eq!(whole.as_ref(), Ok(&(sent, 0)));
            prop_assert_eq!(parse_in_chunks(&stream, &chunks), whole);
        }

        /// A stream cut anywhere parses to the requests that ended
        /// before the cut, and the rest waits as a partial request: a
        /// truncation is never a framing error.
        #[test]
        fn truncated_streams_parse_to_a_prefix(
            requests in proptest::collection::vec(any_request(), 1..5),
            chunks in proptest::collection::vec(any_chunk(), 1..32),
            cut in 0usize..1 << 16,
        ) {
            let (stream, sent, ends) = pipelined(requests);
            let cut = cut % (stream.len() + 1);
            let complete = ends.iter().filter(|&&end| end <= cut).count();
            let consumed = if complete == 0 { 0 } else { ends[complete - 1] };
            let parsed = parse_in_chunks(&stream[..cut], &chunks);
            prop_assert_eq!(parsed, Ok((sent[..complete].to_vec(), cut - consumed)));
        }

        /// Flipped, inserted and deleted bytes never panic the parser,
        /// and every request it accepts lies inside its buffer (checked
        /// by `parse_in_chunks`).
        #[test]
        fn mutated_streams_never_panic(
            requests in proptest::collection::vec(any_request(), 1..5),
            chunks in proptest::collection::vec(any_chunk(), 1..32),
            mutations in proptest::collection::vec(any_mutation(), 1..9),
        ) {
            let (mut stream, _, _) = pipelined(requests);
            for mutation in mutations {
                mutate(&mut stream, mutation);
            }
            let _ = parse_in_chunks(&stream, &chunks);
        }
    }

    /// A 16 KiB head and a 64 KiB body arriving one byte per read cost
    /// work linear in their length: each attempt searches for the head
    /// terminator only past the prefix already searched, and while the
    /// body is incomplete attempts return at once, so the head is parsed
    /// twice in all.
    #[test]
    fn trickled_request_costs_linear_parse_work() {
        let pad = "p".repeat(MAX_HEADER_BYTES - 100);
        let body = vec![b'b'; 64 * 1024];
        let head = format!(
            "POST /v1/solve HTTP/1.1\r\nx-pad: {pad}\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        assert!(head.len() <= MAX_HEADER_BYTES && head.len() > MAX_HEADER_BYTES - 100);
        let stream = [head.as_bytes(), &body].concat();
        let (mut buf, mut resume) = (Vec::new(), Resume::default());
        let (mut attempts, mut examined) = (0usize, 0usize);
        let mut request = None;
        for &byte in &stream {
            buf.push(byte);
            // An attempt on fewer bytes than `need` returns at once; any
            // other searches buf[searched..] up to the end of the
            // terminator and, once the head is there, parses the head.
            if buf.len() >= resume.need {
                attempts += 1;
                examined += buf.len().min(head.len()) - resume.searched;
                if buf.len() >= head.len() {
                    examined += head.len();
                }
            }
            match parse_request(&buf, resume) {
                Parse::Partial(next) => resume = next,
                Parse::Bad(e) => panic!("rejected: {e}"),
                Parse::Request(parsed) => request = Some(parsed),
            }
        }
        let request = request.expect("the request completes");
        assert_eq!(
            (request.body_start, request.body_len),
            (head.len(), body.len())
        );
        assert_eq!(
            attempts,
            head.len() + 1,
            "one attempt per head byte, one at the end"
        );
        assert!(
            examined <= 2 * stream.len(),
            "{examined} bytes examined for {} received",
            stream.len()
        );
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        // Accepting either length would desynchronise the stream: with
        // the last one (0), "hello" became the next request's start.
        let req = b"POST /v1/solve HTTP/1.1\r\nContent-Length: 5\r\n\
                    Content-Length: 0\r\n\r\nhello";
        match parse_request(req, Resume::default()) {
            Parse::Bad(e) => {
                assert_eq!(status_for(&e), 400);
                assert!(e.to_string().contains("conflicting"), "{e}");
            }
            Parse::Partial(_) => panic!("conflicting lengths read as a partial request"),
            Parse::Request(head) => panic!("accepted with body_len {}", head.body_len),
        }
    }

    #[test]
    fn repeated_equal_content_lengths_are_accepted() {
        let req = b"POST /v1/solve HTTP/1.1\r\nContent-Length: 5\r\n\
                    content-length: 5\r\n\r\nhello";
        match parse_request(req, Resume::default()) {
            Parse::Request(head) => {
                assert_eq!(head.body_len, 5);
                assert_eq!(&req[head.body_start..], b"hello");
            }
            Parse::Partial(_) => panic!("complete request read as partial"),
            Parse::Bad(e) => panic!("rejected: {e}"),
        }
    }
}
