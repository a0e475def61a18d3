//! Event-driven service core: a few I/O threads multiplex thousands of
//! keep-alive connections over epoll (the vendored [`mio_lite`]
//! wrapper) instead of one thread per connection.
//!
//! Each [`Reactor`] owns one `epoll` instance and a private set of
//! connections; reactor 0 additionally owns the listener and deals
//! fresh sockets round-robin to its peers through their
//! [`ReactorShared::inbox`]. A connection is a pair of byte buffers
//! and a FIFO of response [`Slot`]s:
//!
//! * **Read side** — `read` to `WouldBlock` into `read_buf`, then parse
//!   as many complete HTTP/1.1 requests as the buffer holds
//!   ([`crate::http::parse_request`] is incremental: a partial request
//!   stays buffered, and the next attempt resumes where the last one
//!   stopped). Every parsed request claims the next sequence number and
//!   a slot in the FIFO, so *pipelined* requests — several in flight on
//!   one connection — come back in order no matter how the engine
//!   reorders their execution.
//! * **Engine side** — solve/batch jobs go in through
//!   [`crate::engine::Engine::submit_async`], which never blocks: a
//!   full queue or a lapsed deadline is an immediate structured 503
//!   (load shedding, counted in `/v1/stats`). Worker completions come
//!   back through [`ReactorShared::completions`] plus a waker nudge.
//! * **Write side** — ready slots at the *front* of the FIFO render
//!   into `write_buf`, which drains to the socket as far as
//!   `WouldBlock` allows; epoll interest tracks whether there is
//!   unsent output or parser appetite left.
//!
//! Nothing in a reactor thread ever parks on a lock that is held
//! across I/O, sleeps, or blocks on a socket: every handler below is
//! marked `lint:nonblocking` and audited by `pieri-analyze`'s
//! `no-blocking-in-nonblocking` call-graph rule. The deliberate
//! exceptions — nonblocking syscalls that *return* `WouldBlock`, and
//! bounded push/take critical sections on the two reactor queues — are
//! individually annotated `lint:allow` at the call site.
//!
//! Overload is answered, not ignored: past the connection cap a new
//! socket is registered just long enough to receive a preloaded 503
//! envelope; past cap + headroom it is dropped outright.
//!
//! **Draining** (zero-downtime restart): when the server raises the
//! shared `draining` flag, reactor 0 drops the listener — with
//! `SO_REUSEPORT` the kernel immediately routes new connections to the
//! replacement process sharing the port — and every reactor flags its
//! connections `closing`. In-flight jobs still complete and their
//! responses still flush; only *new* work is refused. A connection
//! closed before its response starts is the client's replay-safe retry
//! case, so a retrying client never loses a request across a restart.
//!
//! The poll and the socket syscalls on connections go through
//! [`crate::chaos`]: an installed fault plan can inject spurious
//! wakeups, `EAGAIN` storms, short reads/writes, and dropped accepts;
//! with no plan installed each site costs one atomic load before the
//! bare syscall.

use std::collections::{HashMap, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use minijson::Value;
use mio_lite::{Events, Interest, Poll, Token, Waker};
use pieri_trace::{Counter, Histogram, Registry};
use pieri_tracker::CancelToken;

use crate::engine::Engine;
use crate::http::{self, ServerOptions};
use crate::job::{JobError, JobResult};
use crate::sync::{rank, RankedMutex};
use crate::wire;

/// Token of each reactor's eventfd waker.
const WAKER: Token = Token(0);
/// Token of the listener (registered on reactor 0 only).
const LISTENER: Token = Token(1);
/// First token handed to a connection; tokens are monotonically
/// increasing and never reused, so a stale completion for a closed
/// connection can never be misdelivered to its token's successor.
const FIRST_CONN: usize = 2;
/// Number of reactor (I/O) threads. Two, because one measured slower:
/// on the benchmark's `static-place-http` workload (a 2-core host, seed
/// 777, 40 s runs), a build with one reactor thread lost all 6
/// alternating pairs against this one, with goodput median 1 248 vs
/// 1 464 solves/s and p50 latency 1.42 vs 1.21 ms (113 failed ops on
/// both sides).
pub(crate) const REACTOR_THREADS: usize = 2;
/// Requests admitted per connection ahead of the first unanswered one
/// (HTTP/1.1 pipelining). Bounds per-connection memory: past this the
/// reactor simply stops reading until responses drain.
const PIPELINE_DEPTH: usize = 32;
/// Poll timeout: the latency floor for stop-flag checks and idle
/// sweeps, not for I/O (I/O readiness wakes the poll immediately).
const POLL_TICK: Duration = Duration::from_millis(100);
/// Bytes read per `read` call while draining a readable socket.
const READ_CHUNK: usize = 16 * 1024;
/// Connections past [`http::MAX_CONNECTIONS`] that still get a 503
/// envelope before close; beyond cap + headroom the socket is dropped
/// without an answer (the envelope itself costs a registered fd).
const OVERLOAD_HEADROOM: usize = 64;
/// Cadence of the idle-connection sweep.
const SWEEP_EVERY: Duration = Duration::from_secs(1);

/// Path classes for the per-endpoint HTTP metrics
/// (`pieri_http_requests_total{path=...}` and
/// `pieri_http_request_us{path=...}`). Unknown paths fold into `other`
/// so hostile clients cannot mint unbounded label values.
const PATH_CLASSES: [&str; 7] = [
    "/healthz",
    "/v1/stats",
    "/v1/metrics",
    "/v1/trace",
    "/v1/solve",
    "/v1/batch",
    "other",
];
/// Index of the catch-all class in [`PATH_CLASSES`].
const CLASS_OTHER: usize = 6;

/// Maps a request path onto its [`PATH_CLASSES`] index.
fn class_of(path: &str) -> usize {
    if path.starts_with("/v1/trace/") {
        return 3;
    }
    PATH_CLASSES
        .iter()
        .position(|p| *p == path)
        .unwrap_or(CLASS_OTHER)
}

/// Per-path-class request counters and latency histograms, registered
/// once on the engine's metrics registry (in [`build`]) and shared by
/// every reactor thread. Latency is measured from dispatch to the
/// response hitting the write buffer, so solve/batch classes include
/// queue wait and solve time.
struct HttpMetrics {
    /// `pieri_http_requests_total{path=...}`, indexed by class.
    requests: Vec<Counter>,
    /// `pieri_http_request_us{path=...}`, indexed by class.
    latency_us: Vec<Histogram>,
}

impl HttpMetrics {
    fn register_all(registry: &Registry) -> Self {
        let requests = PATH_CLASSES
            .iter()
            .map(|p| registry.counter_with("pieri_http_requests_total", "path", p))
            .collect();
        let latency_us = PATH_CLASSES
            .iter()
            .map(|p| registry.histogram_with("pieri_http_request_us", "path", p))
            .collect();
        HttpMetrics {
            requests,
            latency_us,
        }
    }
}

/// One finished engine job on its way back to a reactor thread.
struct Completion {
    /// Connection token the job belongs to.
    token: usize,
    /// Slot sequence number within the connection.
    seq: u64,
    /// Index within a batch slot (0 for single-job slots).
    index: usize,
    /// The job's outcome.
    result: Result<JobResult, JobError>,
}

/// The cross-thread half of one reactor: what acceptors and engine
/// workers may touch. Everything else lives privately on the reactor
/// thread.
pub(crate) struct ReactorShared {
    /// Freshly accepted sockets dealt to this reactor by the acceptor.
    inbox: RankedMutex<Vec<TcpStream>>,
    /// Finished jobs waiting to be folded back into connection state.
    completions: RankedMutex<Vec<Completion>>,
    /// Nudges the reactor's `epoll_wait` after a push to either queue.
    waker: Waker,
}

impl ReactorShared {
    /// Wakes the reactor thread (used by [`crate::http::Server`] on
    /// shutdown; queue pushes wake internally).
    pub(crate) fn wake(&self) {
        // Recorded on the waking thread (an engine worker or the
        // acceptor), marking the cross-thread nudge itself.
        pieri_trace::event("waker.notify", "io");
        let _ = self.waker.wake();
    }
}

/// What a response slot is waiting for.
enum SlotState {
    /// Response known; waiting for its turn at the front of the FIFO.
    Ready {
        /// HTTP status code.
        status: u16,
        /// JSON response body.
        body: Value,
    },
    /// Response known, plain-text payload (the Prometheus exposition
    /// behind `/v1/metrics`); waiting for its turn at the front.
    ReadyText {
        /// HTTP status code.
        status: u16,
        /// Text response body.
        text: String,
    },
    /// A single job in flight in the engine.
    Pending {
        /// Cancels the job if the connection dies first.
        cancel: CancelToken,
    },
    /// A `/v1/batch` fan-out with some jobs still in flight.
    Batch {
        /// Per-job response bodies, filled as completions arrive.
        results: Vec<Option<Value>>,
        /// Jobs still owing a completion.
        remaining: usize,
        /// Cancels in-flight jobs if the connection dies first.
        cancels: Vec<CancelToken>,
    },
}

/// One queued response on a connection, identified by sequence number
/// so completions land in the right slot even when pipelined jobs
/// finish out of order.
struct Slot {
    seq: u64,
    /// Close the connection after this response is written.
    close_after: bool,
    /// The request's trace id (0 = untraced; emitted as the
    /// `x-trace-id` response header when nonzero).
    trace_id: u64,
    /// [`PATH_CLASSES`] index for the per-path metrics.
    class: usize,
    /// When the request was dispatched, for the latency histogram and
    /// the slow-request log.
    started: Instant,
    state: SlotState,
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet parsed into requests.
    read_buf: Vec<u8>,
    /// Where parsing `read_buf` resumes.
    resume: http::Resume,
    /// Rendered responses not yet accepted by the kernel.
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already written.
    written: usize,
    /// Response FIFO, front = next response on the wire.
    slots: VecDeque<Slot>,
    /// Next slot sequence number.
    next_seq: u64,
    /// Requests parsed on this connection so far.
    served: usize,
    /// No further requests will be read; close once `slots` and
    /// `write_buf` drain.
    closing: bool,
    /// Interest currently registered with epoll.
    interest: Interest,
    /// Last byte-level progress, for the idle sweep.
    last_activity: Instant,
}

/// One event loop: an epoll instance plus the connections it owns.
pub(crate) struct Reactor {
    index: usize,
    poll: Poll,
    shared: Vec<Arc<ReactorShared>>,
    engine: Arc<Engine>,
    /// The listener, owned by reactor 0.
    listener: Option<TcpListener>,
    stop: Arc<AtomicBool>,
    /// Graceful-drain flag shared with [`crate::http::Server`]: once
    /// raised, the listener is dropped and connections finish their
    /// in-flight work but accept nothing new.
    draining: Arc<AtomicBool>,
    /// Whether this reactor has already acted on the drain flag.
    drain_started: bool,
    /// Connections across *all* reactors, for the overload cap.
    conn_total: Arc<AtomicUsize>,
    conns: HashMap<usize, Conn>,
    next_token: usize,
    /// Round-robin cursor for dealing accepted sockets.
    rr: usize,
    last_sweep: Instant,
    /// The server's options; the idle sweep reads its budgets here.
    opts: ServerOptions,
    /// Per-path request counters/latency, shared across reactors.
    http_metrics: Arc<HttpMetrics>,
}

/// What [`build`] hands the server: the reactors (to be moved onto
/// threads by the caller), their shared halves (for shutdown
/// wake-ups), and the live-connection counter (for the drain wait).
pub(crate) type BuildParts = (Vec<Reactor>, Vec<Arc<ReactorShared>>, Arc<AtomicUsize>);

/// Builds `threads` reactors sharing `listener` (owned and polled by
/// reactor 0), `engine`, and the `stop`/`draining` flags.
pub(crate) fn build(
    threads: usize,
    listener: TcpListener,
    engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    opts: ServerOptions,
) -> std::io::Result<BuildParts> {
    listener.set_nonblocking(true)?;
    let threads = threads.max(1);
    let conn_total = Arc::new(AtomicUsize::new(0));
    let mut polls = Vec::with_capacity(threads);
    let mut shared = Vec::with_capacity(threads);
    for _ in 0..threads {
        let poll = Poll::new()?;
        let waker = Waker::new(&poll, WAKER)?;
        shared.push(Arc::new(ReactorShared {
            inbox: RankedMutex::new("reactor-inbox", rank::REACTOR_INBOX, Vec::new()),
            completions: RankedMutex::new(
                "reactor-completions",
                rank::REACTOR_COMPLETIONS,
                Vec::new(),
            ),
            waker,
        }));
        polls.push(poll);
    }
    polls[0].register(listener.as_raw_fd(), LISTENER, Interest::READABLE)?;
    let mut listener = Some(listener);
    let http_metrics = Arc::new(HttpMetrics::register_all(engine.registry()));
    let reactors = polls
        .into_iter()
        .enumerate()
        .map(|(index, poll)| Reactor {
            index,
            poll,
            shared: shared.clone(),
            engine: engine.clone(),
            listener: if index == 0 { listener.take() } else { None },
            stop: stop.clone(),
            draining: draining.clone(),
            drain_started: false,
            conn_total: conn_total.clone(),
            conns: HashMap::new(),
            next_token: FIRST_CONN,
            rr: 0,
            last_sweep: Instant::now(),
            opts,
            http_metrics: http_metrics.clone(),
        })
        .collect();
    Ok((reactors, shared, conn_total))
}

impl Reactor {
    /// This reactor's index (names its thread).
    pub(crate) fn index(&self) -> usize {
        self.index
    }

    /// The event loop. Runs until the stop flag is raised, then closes
    /// every connection (cancelling their in-flight jobs) and returns.
    // lint:nonblocking — the poll loop; epoll_wait with a timeout is the only place it waits
    pub(crate) fn run(mut self) {
        let mut events = Events::with_capacity(512);
        while !self.stop.load(Ordering::SeqCst) {
            // lint:allow(no-blocking-in-nonblocking) — epoll_wait with a bounded timeout; the fault site takes one bounded registry lock, only while a fault plan is installed
            let Ok(ready) = crate::chaos::poll(&self.poll, &mut events, POLL_TICK) else {
                break;
            };
            // One event per productive wakeup; idle timeout ticks stay
            // silent to keep the rings signal-dense.
            if ready > 0 {
                pieri_trace::event("poll.wake", "io");
            }
            if !self.drain_started && self.draining.load(Ordering::SeqCst) {
                // lint:allow(no-blocking-in-nonblocking) — drops the listener and flags connections; pump is the usual nonblocking path
                self.begin_drain();
            }
            let fired: Vec<mio_lite::Event> = events.iter().collect();
            for event in fired {
                match event.token() {
                    WAKER => self.shared[self.index].waker.drain(),
                    // lint:allow(no-blocking-in-nonblocking) — accept on a nonblocking listener: WouldBlock instead of parking
                    LISTENER => self.accept_ready(),
                    // lint:allow(no-blocking-in-nonblocking) — handler does nonblocking socket I/O and bounded queue pushes only
                    Token(token) => self.conn_event(token, event),
                }
            }
            // lint:allow(no-blocking-in-nonblocking) — bounded critical section: take under the reactor-inbox lock
            self.drain_inbox();
            // lint:allow(no-blocking-in-nonblocking) — bounded critical section: take under the reactor-completions lock
            self.drain_completions();
            self.sweep_idle();
        }
        self.close_all();
    }

    /// Enters drain mode: drops the listener (reactor 0 — with
    /// `SO_REUSEPORT` the kernel instantly reroutes new connections to
    /// the replacement listener sharing the port), flags every
    /// connection `closing`, and pumps each so quiescent ones close
    /// now. Connections with in-flight jobs stay until their responses
    /// flush: a drain answers admitted work, it only refuses new work.
    // lint:nonblocking — one epoll_ctl for the listener, then the usual nonblocking pump per connection
    fn begin_drain(&mut self) {
        self.drain_started = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.poll.deregister(listener.as_raw_fd());
            // The listener drops here, releasing its accept queue.
        }
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.closing = true;
            }
            // lint:allow(no-blocking-in-nonblocking) — pump performs nonblocking writes and sheds via submit_async
            self.pump(token);
        }
    }

    /// Accepts until `WouldBlock`, dealing sockets round-robin across
    /// reactors. Runs on reactor 0 only (the listener's owner).
    // lint:nonblocking — listener is nonblocking; accept returns WouldBlock when drained
    fn accept_ready(&mut self) {
        loop {
            let accepted = {
                let Some(listener) = &self.listener else {
                    return;
                };
                // lint:allow(no-blocking-in-nonblocking) — nonblocking accept: WouldBlock instead of parking
                match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return,
                }
            };
            // lint:allow(no-blocking-in-nonblocking) — fault site: one atomic load with no plan installed, one bounded registry lock while one is
            if crate::chaos::fires("sock.accept.fail").is_some() {
                // Injected accept failure: the peer sees a reset before
                // any byte is answered — its replay-safe retry case.
                continue;
            }
            let target = self.rr % self.shared.len();
            self.rr = self.rr.wrapping_add(1);
            if target == self.index {
                // lint:allow(no-blocking-in-nonblocking) — registration is epoll_ctl plus an optional preloaded 503 render
                self.register_conn(accepted);
            } else {
                // lint:allow(no-blocking-in-nonblocking) — bounded critical section: push under the reactor-inbox lock
                // lint:lock-rank(reactor-inbox, 4)
                self.shared[target].inbox.lock_recover().push(accepted);
                self.shared[target].wake();
            }
        }
    }

    /// Adopts sockets dealt to this reactor by the acceptor.
    // lint:nonblocking — a take under a ranked lock, then per-socket epoll registration
    fn drain_inbox(&mut self) {
        // lint:allow(no-blocking-in-nonblocking) — bounded critical section: take under the reactor-inbox lock
        // lint:lock-rank(reactor-inbox, 4)
        let fresh = std::mem::take(&mut *self.shared[self.index].inbox.lock_recover());
        for stream in fresh {
            // lint:allow(no-blocking-in-nonblocking) — registration is epoll_ctl plus an optional preloaded 503 render
            self.register_conn(stream);
        }
    }

    /// Brings a fresh socket under this reactor's epoll. Over the
    /// connection cap the socket is preloaded with a 503 envelope and
    /// closed after writing it; over cap + headroom it is dropped
    /// without an answer.
    // lint:nonblocking — configures the socket and registers it; no I/O beyond the preloaded-503 pump
    fn register_conn(&mut self, stream: TcpStream) {
        if self.drain_started {
            // No new work during a drain: dropping the socket before
            // any byte is answered is the client's replay-safe retry
            // case, and with SO_REUSEPORT the retry lands on the
            // replacement listener.
            return;
        }
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            return;
        }
        let live = self.conn_total.load(Ordering::SeqCst);
        let over = live >= http::MAX_CONNECTIONS;
        if live >= http::MAX_CONNECTIONS + OVERLOAD_HEADROOM {
            return;
        }
        let token = self.next_token;
        let interest = if over {
            Interest::WRITABLE
        } else {
            Interest::READABLE
        };
        if self
            .poll
            .register(stream.as_raw_fd(), Token(token), interest)
            .is_err()
        {
            return;
        }
        self.next_token += 1;
        self.conn_total.fetch_add(1, Ordering::SeqCst);
        let mut conn = Conn {
            stream,
            read_buf: Vec::new(),
            resume: http::Resume::default(),
            write_buf: Vec::new(),
            written: 0,
            slots: VecDeque::new(),
            next_seq: 0,
            served: 0,
            closing: over,
            interest,
            last_activity: Instant::now(),
        };
        if over {
            let e = JobError::QueueFull;
            conn.slots.push_back(Slot {
                seq: 0,
                close_after: true,
                trace_id: 0,
                class: CLASS_OTHER,
                started: Instant::now(),
                state: SlotState::Ready {
                    status: http::status_for(&e),
                    body: wire::error_to_json(&e),
                },
            });
            conn.next_seq = 1;
        }
        self.conns.insert(token, conn);
        // lint:allow(no-blocking-in-nonblocking) — pump performs nonblocking writes and sheds via submit_async
        self.pump(token);
    }

    /// Handles a readiness event for one connection.
    // lint:nonblocking — dispatches to nonblocking read/write handlers
    fn conn_event(&mut self, token: usize, event: mio_lite::Event) {
        if !self.conns.contains_key(&token) {
            return;
        }
        if event.is_error() {
            self.close_conn(token);
            return;
        }
        if event.is_readable() || event.is_closed() {
            // A half-closed peer (RDHUP) may still have buffered bytes:
            // read_ready drains them and observes EOF itself.
            // lint:allow(no-blocking-in-nonblocking) — nonblocking reads: WouldBlock instead of parking
            self.read_ready(token);
            if !self.conns.contains_key(&token) {
                return;
            }
        }
        if event.is_writable() {
            // lint:allow(no-blocking-in-nonblocking) — pump performs nonblocking writes and sheds via submit_async
            self.pump(token);
        }
    }

    /// Drains the socket into `read_buf` until `WouldBlock` or EOF,
    /// then parses and answers whatever became complete.
    // lint:nonblocking — reads a nonblocking fd; WouldBlock ends the drain
    fn read_ready(&mut self, token: usize) {
        let mut eof = false;
        let mut dead = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let mut chunk = [0u8; READ_CHUNK];
            loop {
                // lint:allow(no-blocking-in-nonblocking) — nonblocking read (fault site, bare read with no plan installed): WouldBlock instead of parking
                match crate::chaos::sock_read(&mut conn.stream, &mut chunk) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.read_buf.extend_from_slice(&chunk[..n]);
                        conn.last_activity = Instant::now();
                        // Parser appetite is the backpressure valve: past
                        // it, leave the rest in the kernel buffer.
                        if conn.slots.len() >= PIPELINE_DEPTH
                            && conn.read_buf.len() >= http::MAX_HEADER_BYTES
                        {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if eof {
                // No more requests will ever arrive; finish writing what
                // is owed (pump closes once slots and write_buf drain).
                conn.closing = true;
                if conn.slots.is_empty() && conn.read_buf.is_empty() {
                    dead = true;
                }
            }
        }
        if dead {
            self.close_conn(token);
            return;
        }
        // lint:allow(no-blocking-in-nonblocking) — pump performs nonblocking writes and sheds via submit_async
        self.pump(token);
    }

    /// Parses complete requests out of `read_buf` (bounded by
    /// [`PIPELINE_DEPTH`] unanswered slots) and dispatches them.
    // lint:nonblocking — pure parsing plus nonblocking dispatch into the engine
    fn parse_ready(&mut self, token: usize) {
        loop {
            let parse_start = Instant::now();
            let parsed = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if conn.closing || conn.slots.len() >= PIPELINE_DEPTH || conn.read_buf.is_empty() {
                    return;
                }
                match http::parse_request(&conn.read_buf, conn.resume) {
                    http::Parse::Partial(resume) => {
                        conn.resume = resume;
                        return;
                    }
                    http::Parse::Bad(e) => {
                        // Framing is unrecoverable: answer the envelope
                        // and close, exactly like the threaded core did.
                        conn.closing = true;
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        conn.slots.push_back(Slot {
                            seq,
                            close_after: true,
                            trace_id: 0,
                            class: CLASS_OTHER,
                            started: Instant::now(),
                            state: SlotState::Ready {
                                status: http::status_for(&e),
                                body: wire::error_to_json(&e),
                            },
                        });
                        return;
                    }
                    http::Parse::Request(head) => {
                        let end = head.body_start + head.body_len;
                        let body = conn.read_buf[head.body_start..end].to_vec();
                        conn.read_buf.drain(..end);
                        conn.resume = http::Resume::default();
                        conn.served += 1;
                        let close_after =
                            !head.keep_alive || conn.served >= http::MAX_REQUESTS_PER_CONN;
                        if close_after {
                            conn.closing = true;
                        }
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        (head, body, seq, close_after)
                    }
                }
            };
            let (head, body, seq, close_after) = parsed;
            // The trace id only exists once parsing finishes, so the
            // parse is recorded as an already-closed span.
            // lint:allow(no-blocking-in-nonblocking) — span recording only try_locks its ring and the trace store; its one blocking lock registers this thread's ring once per install
            pieri_trace::span_closed(
                "parse",
                "http",
                head.trace_id,
                parse_start.elapsed().as_micros().min(u64::MAX as u128) as u64,
            );
            let _span = pieri_trace::span_for("admit", "http", head.trace_id);
            // lint:allow(no-blocking-in-nonblocking) — dispatch submits async; engine admission sheds instead of waiting
            let slot = self.dispatch(token, seq, &head, &body, close_after);
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.slots.push_back(slot);
            }
        }
    }

    /// Routes one parsed request. Fast endpoints resolve to a `Ready`
    /// slot immediately; solve/batch go through the engine's
    /// nonblocking admission and resolve later via completions.
    // lint:nonblocking — nonblocking admission only; a full queue is an immediate structured 503
    fn dispatch(
        &self,
        token: usize,
        seq: u64,
        head: &http::ParsedHead,
        body: &[u8],
        close_after: bool,
    ) -> Slot {
        let trace_id = head.trace_id;
        let class = class_of(&head.path);
        let started = Instant::now();
        let ready = |status: u16, body: Value| Slot {
            seq,
            close_after,
            trace_id,
            class,
            started,
            state: SlotState::Ready { status, body },
        };
        match (head.method.as_str(), head.path.as_str()) {
            ("GET", "/healthz") => {
                // lint:allow(no-blocking-in-nonblocking) — uptime is a clock read
                ready(200, wire::health_to_json(self.engine.uptime()))
            }
            ("GET", "/v1/stats") => {
                // lint:allow(no-blocking-in-nonblocking) — stats reads one registry snapshot plus the queue length, never I/O
                let stats = self.engine.stats();
                // lint:allow(no-blocking-in-nonblocking) — resident() is a bounded walk under the cache-slots lock
                let resident = self.engine.cache().resident();
                ready(200, wire::stats_to_json(&stats, &resident))
            }
            ("GET", "/v1/metrics") => {
                // The exposition is rendered here, off the write path,
                // from the same snapshot `/v1/stats` uses.
                // lint:allow(no-blocking-in-nonblocking) — snapshot is a bounded walk under the trace-registry lock
                let snap = self.engine.registry().snapshot();
                Slot {
                    seq,
                    close_after,
                    trace_id,
                    class,
                    started,
                    state: SlotState::ReadyText {
                        status: 200,
                        // lint:allow(no-blocking-in-nonblocking) — renders from the already-taken snapshot; the name-keyed graph collides Snapshot accessors with Registry lockers
                        text: pieri_trace::render_prometheus(&snap),
                    },
                }
            }
            ("GET", path) if path.starts_with("/v1/trace/") => {
                let suffix = &path["/v1/trace/".len()..];
                let found = pieri_trace::parse_trace_id(suffix)
                    // lint:allow(no-blocking-in-nonblocking) — trace_spans is a bounded copy under the trace-store lock
                    .and_then(|id| pieri_trace::trace_spans(id).map(|trace| (id, trace)));
                match found {
                    Some((id, trace)) => ready(200, wire::trace_to_json(id, &trace)),
                    None => {
                        // Unknown, evicted, malformed, or tracing off:
                        // all answer a structured 404.
                        let e = JobError::InvalidRequest(format!("no recorded trace '{suffix}'"));
                        ready(404, wire::error_to_json(&e))
                    }
                }
            }
            ("POST", "/v1/solve") => match http::parse_job(body) {
                Err(e) => ready(http::status_for(&e), wire::error_to_json(&e)),
                Ok(req) => {
                    // lint:allow(no-blocking-in-nonblocking) — the hook's queue push runs later, on an engine worker thread
                    let done = self.completion_hook(token, seq, 0);
                    let deadline = head.deadline();
                    // lint:allow(no-blocking-in-nonblocking) — submit_async sheds on a full queue instead of waiting
                    match self.engine.submit_async(req, deadline, trace_id, done) {
                        Ok(cancel) => Slot {
                            seq,
                            close_after,
                            trace_id,
                            class,
                            started,
                            state: SlotState::Pending { cancel },
                        },
                        Err(e) => ready(http::status_for(&e), wire::error_to_json(&e)),
                    }
                }
            },
            ("POST", "/v1/batch") => {
                // lint:allow(no-blocking-in-nonblocking) — queue_capacity is a config read
                let cap = self.engine.queue_capacity();
                // lint:allow(no-blocking-in-nonblocking) — pure JSON decoding into memory; no I/O
                match http::parse_batch(body, cap) {
                    Err(e) => ready(http::status_for(&e), wire::error_to_json(&e)),
                    Ok(jobs) => {
                        let n = jobs.len();
                        let mut results: Vec<Option<Value>> = Vec::new();
                        results.resize_with(n, || None);
                        let mut cancels = Vec::new();
                        let mut remaining = n;
                        let deadline = head.deadline();
                        for (i, job) in jobs.into_iter().enumerate() {
                            let done = self.completion_hook(token, seq, i);
                            // lint:allow(no-blocking-in-nonblocking) — submit_async sheds on a full queue instead of waiting
                            match self.engine.submit_async(job, deadline, trace_id, done) {
                                Ok(cancel) => cancels.push(cancel),
                                Err(e) => {
                                    results[i] = Some(wire::error_to_json(&e));
                                    remaining -= 1;
                                }
                            }
                        }
                        if remaining == 0 {
                            ready(200, batch_body(results))
                        } else {
                            Slot {
                                seq,
                                close_after,
                                trace_id,
                                class,
                                started,
                                state: SlotState::Batch {
                                    results,
                                    remaining,
                                    cancels,
                                },
                            }
                        }
                    }
                }
            }
            (_, "/healthz" | "/v1/stats" | "/v1/metrics" | "/v1/solve" | "/v1/batch") => {
                let e = JobError::InvalidRequest(format!(
                    "method {} not allowed on {}",
                    head.method, head.path
                ));
                ready(405, wire::error_to_json(&e))
            }
            (_, path) if path.starts_with("/v1/trace/") => {
                let e = JobError::InvalidRequest(format!(
                    "method {} not allowed on {}",
                    head.method, head.path
                ));
                ready(405, wire::error_to_json(&e))
            }
            _ => {
                let e = JobError::InvalidRequest(format!("no such endpoint {}", head.path));
                ready(404, wire::error_to_json(&e))
            }
        }
    }

    /// The completion callback for one submitted job: runs on an engine
    /// worker thread, pushes the result onto this reactor's completion
    /// queue, and wakes the poll.
    fn completion_hook(
        &self,
        token: usize,
        seq: u64,
        index: usize,
    ) -> impl FnOnce(Result<JobResult, JobError>) + Send + 'static {
        let shared = self.shared[self.index].clone();
        move |result| {
            // lint:lock-rank(reactor-completions, 6)
            shared.completions.lock_recover().push(Completion {
                token,
                seq,
                index,
                result,
            });
            shared.wake();
        }
    }

    /// Folds finished jobs back into their connections' slots.
    // lint:nonblocking — a take under a ranked lock, then in-memory slot updates
    fn drain_completions(&mut self) {
        // lint:allow(no-blocking-in-nonblocking) — bounded critical section: take under the reactor-completions lock
        // lint:lock-rank(reactor-completions, 6)
        let done = std::mem::take(&mut *self.shared[self.index].completions.lock_recover());
        for completion in done {
            // lint:allow(no-blocking-in-nonblocking) — slot bookkeeping plus the nonblocking pump
            self.apply_completion(completion);
        }
    }

    /// Resolves one completion against its slot. Completions for
    /// closed connections are dropped (their tokens are never reused).
    // lint:nonblocking — in-memory bookkeeping, then the nonblocking pump
    fn apply_completion(&mut self, completion: Completion) {
        let token = completion.token;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let Some(slot) = conn.slots.iter_mut().find(|s| s.seq == completion.seq) else {
                return;
            };
            match &mut slot.state {
                SlotState::Ready { .. } | SlotState::ReadyText { .. } => {}
                SlotState::Pending { .. } => {
                    let (status, body) = match &completion.result {
                        Ok(r) => (200, wire::result_to_json(r)),
                        Err(e) => (http::status_for(e), wire::error_to_json(e)),
                    };
                    slot.state = SlotState::Ready { status, body };
                }
                SlotState::Batch {
                    results, remaining, ..
                } => {
                    if let Some(cell) = results.get_mut(completion.index) {
                        if cell.is_none() {
                            *cell = Some(match &completion.result {
                                Ok(r) => wire::result_to_json(r),
                                Err(e) => wire::error_to_json(e),
                            });
                            *remaining -= 1;
                        }
                    }
                    if *remaining == 0 {
                        let results = std::mem::take(results);
                        slot.state = SlotState::Ready {
                            status: 200,
                            body: batch_body(results),
                        };
                    }
                }
            }
        }
        // lint:allow(no-blocking-in-nonblocking) — pump performs nonblocking writes and sheds via submit_async
        self.pump(token);
    }

    /// The per-connection engine room: parse what is parseable, render
    /// the ready prefix of the slot FIFO, write as much as the socket
    /// accepts, then close or re-arm epoll interest.
    // lint:nonblocking — writes a nonblocking fd; WouldBlock re-arms epoll instead of parking
    fn pump(&mut self, token: usize) {
        // lint:allow(no-blocking-in-nonblocking) — parsing plus nonblocking dispatch into the engine
        self.parse_ready(token);
        let close = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            // Render every leading slot whose response is known; order
            // on the wire is FIFO order regardless of completion order.
            while let Some(slot) = conn.slots.front() {
                let keep = !slot.close_after;
                let (rendered, status) = match &slot.state {
                    SlotState::Ready { status, body } => {
                        // lint:allow(no-blocking-in-nonblocking) — span recording only try_locks its ring and the trace store; its one blocking lock registers this thread's ring once per install
                        let _span = pieri_trace::span_for("render", "http", slot.trace_id);
                        // lint:allow(no-blocking-in-nonblocking) — renders into a Vec<u8>; the flagged `write` is minijson's in-memory buffer
                        let bytes = http::render_response(*status, body, keep, slot.trace_id);
                        (bytes, *status)
                    }
                    SlotState::ReadyText { status, text } => {
                        (http::render_text_response(*status, text, keep), *status)
                    }
                    SlotState::Pending { .. } | SlotState::Batch { .. } => break,
                };
                conn.write_buf.extend_from_slice(&rendered);
                let elapsed = slot.started.elapsed();
                self.http_metrics.requests[slot.class].inc();
                self.http_metrics.latency_us[slot.class].record_duration(elapsed);
                // Close out the request: the whole-request span, and the
                // slow-request log when a threshold is configured.
                let us = elapsed.as_micros().min(u64::MAX as u128) as u64;
                pieri_trace::span_closed("request", "http", slot.trace_id, us);
                pieri_trace::slow_request(PATH_CLASSES[slot.class], status, slot.trace_id, us);
                if slot.close_after {
                    conn.closing = true;
                }
                conn.slots.pop_front();
            }
            let mut dead = false;
            while conn.written < conn.write_buf.len() {
                // lint:allow(no-blocking-in-nonblocking) — nonblocking write (fault site, bare write with no plan installed): WouldBlock instead of parking
                match crate::chaos::sock_write(&mut conn.stream, &conn.write_buf[conn.written..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.written += n;
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if conn.written == conn.write_buf.len() {
                // lint:allow(no-blocking-in-nonblocking) — Vec::clear; the name-keyed call graph collides with chaos::clear (registry lock)
                conn.write_buf.clear();
                conn.written = 0;
            }
            dead || (conn.closing && conn.slots.is_empty() && conn.write_buf.is_empty())
        };
        if close {
            self.close_conn(token);
        } else {
            self.update_interest(token);
        }
    }

    /// Re-arms epoll interest to match what the connection can absorb:
    /// readable while the parser has appetite, writable while output is
    /// pending. A connection wanting neither stays registered for
    /// error/hangup edges only.
    // lint:nonblocking — one epoll_ctl at most
    fn update_interest(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut want = Interest::NONE;
        if !conn.closing && conn.slots.len() < PIPELINE_DEPTH {
            want = want.add(Interest::READABLE);
        }
        if conn.written < conn.write_buf.len() {
            want = want.add(Interest::WRITABLE);
        }
        if want != conn.interest
            && self
                .poll
                .reregister(conn.stream.as_raw_fd(), Token(token), want)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    /// Tears down one connection: cancels in-flight jobs (stale
    /// completions for its never-reused token are dropped on arrival),
    /// deregisters the fd, releases the global slot.
    // lint:nonblocking — cancellation flags, one epoll_ctl, and a map removal
    fn close_conn(&mut self, token: usize) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        for slot in &conn.slots {
            match &slot.state {
                SlotState::Ready { .. } | SlotState::ReadyText { .. } => {}
                SlotState::Pending { cancel } => cancel.cancel(),
                SlotState::Batch { cancels, .. } => {
                    for cancel in cancels {
                        cancel.cancel();
                    }
                }
            }
        }
        let _ = self.poll.deregister(conn.stream.as_raw_fd());
        self.conn_total.fetch_sub(1, Ordering::SeqCst);
    }

    /// Closes connections idle past their budget. A connection with
    /// unanswered slots is exempt — the engine (and its deadlines)
    /// governs job latency, not the transport. Quiescent kept-alive
    /// connections get the server's `keep_alive_idle` budget;
    /// connections with buffered bytes (a stalled request or response)
    /// get the larger `io_timeout` (both from [`ServerOptions`]).
    // lint:nonblocking — clock reads and map removals only
    fn sweep_idle(&mut self) {
        let now = Instant::now();
        // Sweep at least as often as the smallest budget, so shrunken
        // test budgets are enforced promptly (poll ticks bound the
        // cadence floor).
        let cadence = SWEEP_EVERY
            .min(self.opts.keep_alive_idle)
            .min(self.opts.io_timeout);
        if now.duration_since(self.last_sweep) < cadence {
            return;
        }
        self.last_sweep = now;
        let opts = self.opts;
        let expired: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, conn)| {
                if !conn.slots.is_empty() {
                    return false;
                }
                let quiescent = conn.read_buf.is_empty() && conn.write_buf.is_empty();
                let budget = if quiescent {
                    opts.keep_alive_idle
                } else {
                    opts.io_timeout
                };
                now.duration_since(conn.last_activity) > budget
            })
            .map(|(&token, _)| token)
            .collect();
        for token in expired {
            self.close_conn(token);
        }
    }

    /// Closes every connection (shutdown path).
    // lint:nonblocking — per-connection teardown only
    fn close_all(&mut self) {
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
    }
}

/// Assembles the `/v1/batch` response body from filled per-job slots.
/// `None` cells are impossible once `remaining == 0`, but degrade to a
/// structured internal error rather than a panic.
fn batch_body(results: Vec<Option<Value>>) -> Value {
    let results: Vec<Value> = results
        .into_iter()
        .map(|cell| {
            cell.unwrap_or_else(|| {
                wire::error_to_json(&JobError::Internal("batch slot never resolved".into()))
            })
        })
        .collect();
    minijson::object([("results", Value::Array(results))])
}
