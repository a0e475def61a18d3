//! Structured spans and events over per-thread ring buffers.
//!
//! Recording discipline: a writer takes `try_lock` on its own thread's
//! ring (and on the recent-trace store) — it **never parks**. A
//! contended push is dropped and counted ([`dropped_spans`]), so
//! instrumentation can sit next to nonblocking reactor code without
//! violating its guarantees. Both locks rank *below* every service lock
//! (`trace-ring` = 2, `trace-store` = 3, under `reactor-inbox` = 4),
//! which forces span sites to live outside service critical sections.
//!
//! Everything here is a no-op while no [`TraceConfig`] is installed:
//! every recording site checks one relaxed atomic and returns (or hands
//! back an inert guard). Installing a config is the only switch.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Runtime configuration for the span layer.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Capacity of each per-thread span ring (records; oldest wrap).
    pub ring_capacity: usize,
    /// How many distinct trace ids the recent-trace store retains
    /// (FIFO eviction).
    pub recent_traces: usize,
    /// Slow-request threshold in microseconds; `0` disables the
    /// slow-request log.
    pub slow_request_us: u64,
    /// Record *deep* (per-step) spans — the tracker's per-Newton-step
    /// predict/correct sites. Off by default: those sites fire thousands
    /// of times per solve, and recording them costs ~10% on a warm
    /// solve; phase-level spans (`track.path`, `retrack`) stay on and
    /// keep the default overhead under 2%.
    pub deep: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            ring_capacity: 16_384,
            recent_traces: 256,
            slow_request_us: 0,
            deep: false,
        }
    }
}

/// Per-trace span cap in the recent-trace store (excess spans still
/// reach the rings, but not the store).
const MAX_SPANS_PER_TRACE: usize = 512;

/// Spans at this depth or shallower pass [`MAX_SPANS_PER_TRACE`]: a
/// request's phases (`track`, `render`, `request`, …) and one span per
/// tracked path. A deep trace must keep the spans that close it, which
/// record last.
const KEPT_DEPTH: u16 = 1;

/// Hard per-trace cap, shallow spans included: a client may reuse one
/// trace id on every request, and a batch's jobs share one id.
const MAX_KEPT_PER_TRACE: usize = 4 * MAX_SPANS_PER_TRACE;

/// One finished span (or instantaneous event, `dur_us == 0` allowed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static span name (`"track"`, `"queue.wait"`, …).
    pub name: &'static str,
    /// Static category (`"request"`, `"tracker"`, `"cache"`, …).
    pub cat: &'static str,
    /// Owning trace id; 0 when the span ran outside any request.
    pub trace_id: u64,
    /// Small dense id of the recording thread.
    pub tid: u32,
    /// Start, microseconds since the process trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Nesting depth on the recording thread at start (0 = root).
    pub depth: u16,
}

pub(crate) struct Ring {
    pub(crate) records: Vec<SpanRecord>,
    pub(crate) head: usize,
    pub(crate) wrapped: bool,
    capacity: usize,
}

impl Ring {
    fn push(&mut self, rec: SpanRecord) {
        if self.records.len() < self.capacity {
            self.records.push(rec);
        } else {
            self.records[self.head] = rec;
            self.wrapped = true;
        }
        self.head = (self.head + 1) % self.capacity.max(1);
    }
}

/// One trace as the recent-trace store holds it.
#[derive(Clone, Debug)]
pub struct TraceSpans {
    /// The kept spans, ordered by start time.
    pub spans: Vec<SpanRecord>,
    /// Spans the store's per-trace caps turned away: deeper than
    /// depth 1 once the trace held 512 records, any once it held 2 048.
    pub dropped: u64,
}

struct Store {
    traces: HashMap<u64, TraceSpans>,
    order: Vec<u64>,
}

pub(crate) struct TraceState {
    pub(crate) config: TraceConfig,
    /// Install generation; the per-thread attachment caches key on it
    /// so the hot path never touches the state cell.
    gen: u64,
    pub(crate) rings: Mutex<Vec<Arc<Mutex<Ring>>>>,
    store: Mutex<Store>,
    next_tid: AtomicU32,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static DEEP: AtomicBool = AtomicBool::new(false);
static SLOW_US: AtomicU64 = AtomicU64::new(0);
/// Bumped by every install and clear, under the state cell's write
/// lock; a thread's cached attachment is refreshed when it differs.
static GEN: AtomicU64 = AtomicU64::new(0);
/// Records dropped since the last install (see [`dropped_spans`]).
static DROPPED: AtomicU64 = AtomicU64::new(0);

fn state_cell() -> &'static RwLock<Option<Arc<TraceState>>> {
    static CELL: OnceLock<RwLock<Option<Arc<TraceState>>>> = OnceLock::new();
    CELL.get_or_init(|| RwLock::new(None))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// Installs `config` and enables span recording process-wide. Replaces
/// any previous installation (prior ring contents are discarded) and
/// resets [`dropped_spans`].
pub fn install(config: TraceConfig) {
    DEEP.store(config.deep, Ordering::SeqCst);
    SLOW_US.store(config.slow_request_us, Ordering::SeqCst);
    DROPPED.store(0, Ordering::SeqCst);
    {
        let mut cell = state_cell().write().unwrap_or_else(|e| e.into_inner());
        *cell = Some(Arc::new(TraceState {
            config,
            gen: GEN.fetch_add(1, Ordering::SeqCst) + 1,
            rings: Mutex::new(Vec::new()),
            store: Mutex::new(Store {
                traces: HashMap::new(),
                order: Vec::new(),
            }),
            next_tid: AtomicU32::new(1),
        }));
    }
    ENABLED.store(true, Ordering::SeqCst);
}

/// Installs from the `PIERI_TRACE` environment variable when set.
/// Syntax: `1`/`on` for defaults, or `;`-separated
/// `ring=N`, `recent=N`, `slow_ms=N`, `deep=1` fields.
/// Returns whether tracing was enabled.
pub fn install_from_env() -> bool {
    let Ok(spec) = std::env::var(crate::ENV_VAR) else {
        return false;
    };
    let spec = spec.trim();
    if spec.is_empty() || spec == "0" || spec.eq_ignore_ascii_case("off") {
        return false;
    }
    let mut config = TraceConfig::default();
    if spec != "1" && !spec.eq_ignore_ascii_case("on") {
        for field in spec.split(';') {
            let Some((k, v)) = field.split_once('=') else {
                continue;
            };
            match (k.trim(), v.trim()) {
                ("ring", v) => config.ring_capacity = v.parse().unwrap_or(config.ring_capacity),
                ("recent", v) => config.recent_traces = v.parse().unwrap_or(config.recent_traces),
                ("slow_ms", v) => {
                    config.slow_request_us = v.parse::<u64>().unwrap_or(0).saturating_mul(1000)
                }
                ("deep", v) => config.deep = v == "1" || v.eq_ignore_ascii_case("on"),
                _ => {}
            }
        }
    }
    install(config);
    true
}

/// Disables recording and drops the installed state (rings, store).
pub fn clear() {
    ENABLED.store(false, Ordering::SeqCst);
    DEEP.store(false, Ordering::SeqCst);
    SLOW_US.store(0, Ordering::SeqCst);
    let mut cell = state_cell().write().unwrap_or_else(|e| e.into_inner());
    // A new generation releases every thread's cached attachment (and
    // with it the old state) on that thread's next record.
    GEN.fetch_add(1, Ordering::SeqCst);
    *cell = None;
}

/// True while a [`TraceConfig`] is installed. One relaxed load — safe
/// to call on any hot path.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// True while the installed config asks for *deep* (per-step) spans.
/// One relaxed load; per-step instrumentation sites check this before
/// opening a span so the default config never pays for them.
#[inline]
pub fn deep_enabled() -> bool {
    DEEP.load(Ordering::Relaxed)
}

/// Records dropped since the last [`install`]: ring or store pushes
/// that found their lock contended, and records that raced an
/// install or clear. Zero when every record was kept.
pub fn dropped_spans() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

pub(crate) fn active() -> Option<Arc<TraceState>> {
    if !enabled() {
        return None;
    }
    state_cell()
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

/// The recording-path variant of [`active`]: `try_read` only, so a
/// record never parks behind an in-flight install or clear (readers
/// never exclude each other). Called once per thread per install.
// lint:nonblocking
fn active_for_record() -> Option<Arc<TraceState>> {
    match state_cell().try_read() {
        Ok(cell) => cell.clone(),
        Err(_) => {
            DROPPED.fetch_add(1, Ordering::Relaxed);
            None
        }
    }
}

/// The installed slow-request threshold in microseconds (0 = off).
#[inline]
pub fn slow_threshold_us() -> u64 {
    SLOW_US.load(Ordering::Relaxed)
}

/// A thread's attachment to one installation: the state and the ring
/// it registered there.
struct Attached {
    gen: u64,
    state: Arc<TraceState>,
    ring: Arc<Mutex<Ring>>,
}

thread_local! {
    static ATTACHED: RefCell<Option<Attached>> = const { RefCell::new(None) };
    static TID: Cell<u32> = const { Cell::new(0) };
    static CUR_TRACE: Cell<u64> = const { Cell::new(0) };
    static DEPTH: Cell<u16> = const { Cell::new(0) };
}

/// Registers a ring for this thread with `state`. Runs once per thread
/// per install; the steady-state record path only reads [`ATTACHED`].
fn attach(state: Arc<TraceState>) -> Attached {
    let ring = Arc::new(Mutex::new(Ring {
        records: Vec::with_capacity(state.config.ring_capacity.max(1)),
        head: 0,
        wrapped: false,
        capacity: state.config.ring_capacity.max(1),
    }));
    {
        // Once per thread per install; never held with any other lock.
        // lint:lock-rank(trace-rings, 1)
        let mut rings = state.rings.lock().unwrap_or_else(|e| e.into_inner());
        rings.push(ring.clone());
    }
    TID.with(|t| {
        if t.get() == 0 {
            t.set(state.next_tid.fetch_add(1, Ordering::Relaxed));
        }
    });
    Attached {
        gen: state.gen,
        state,
        ring,
    }
}

/// Pushes one record into this thread's ring. Never parks: a contended
/// ring drops the record and counts it.
// lint:nonblocking
fn push_ring(ring: &Mutex<Ring>, rec: SpanRecord) {
    match ring.try_lock() {
        Ok(mut buf) => buf.push(rec),
        Err(_) => {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Appends a record to its trace's entry in the recent-trace store.
/// Never parks; a contended append is dropped and counted, and one
/// over a per-trace cap is dropped and counted for its trace.
// lint:nonblocking
fn push_store(state: &TraceState, rec: SpanRecord) {
    // lint:lock-rank(trace-store, 3)
    let Ok(mut store) = state.store.try_lock() else {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    };
    if let Some(trace) = store.traces.get_mut(&rec.trace_id) {
        let len = trace.spans.len();
        if len < MAX_SPANS_PER_TRACE || (rec.depth <= KEPT_DEPTH && len < MAX_KEPT_PER_TRACE) {
            trace.spans.push(rec);
        } else {
            trace.dropped += 1;
        }
        return;
    }
    while store.order.len() >= state.config.recent_traces.max(1) {
        let evict = store.order.remove(0);
        store.traces.remove(&evict);
    }
    store.order.push(rec.trace_id);
    store.traces.insert(
        rec.trace_id,
        TraceSpans {
            spans: vec![rec],
            dropped: 0,
        },
    );
}

fn record(rec: SpanRecord) {
    ATTACHED.with(|attached| {
        let mut attached = attached.borrow_mut();
        // Relaxed: the state itself is published by the cell's lock;
        // a stale read only delays the refresh by one record.
        let gen = GEN.load(Ordering::Relaxed);
        if attached.as_ref().is_none_or(|a| a.gen != gen) {
            *attached = active_for_record().map(attach);
        }
        let Some(a) = attached.as_ref() else {
            return;
        };
        push_ring(&a.ring, rec);
        if rec.trace_id != 0 {
            push_store(&a.state, rec);
        }
    });
}

/// The spans recorded so far for `trace_id`, ordered by start time, or
/// `None` if the id is unknown (never seen, or evicted).
pub(crate) fn store_spans(trace_id: u64) -> Option<TraceSpans> {
    let state = active()?;
    let mut trace = {
        // Reader side: may wait for an in-flight try_lock writer
        // (sub-microsecond critical sections).
        // lint:lock-rank(trace-store, 3)
        let store = state.store.lock().unwrap_or_else(|e| e.into_inner());
        store.traces.get(&trace_id)?.clone()
    };
    trace.spans.sort_by_key(|s| (s.start_us, s.depth));
    Some(trace)
}

/// An RAII span: construct via [`span`]/[`span_for`], **bind it**
/// (`let _span = …;`) so it covers the region, and let the drop record
/// the duration. Inert (fully free) when tracing is disabled.
#[must_use = "bind the guard (`let _span = …`) or the span covers nothing"]
pub struct SpanGuard {
    name: &'static str,
    cat: &'static str,
    trace_id: u64,
    start_us: u64,
    depth: u16,
    live: bool,
}

impl SpanGuard {
    fn inert() -> Self {
        SpanGuard {
            name: "",
            cat: "",
            trace_id: 0,
            start_us: 0,
            depth: 0,
            live: false,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let end = now_us();
        record(SpanRecord {
            name: self.name,
            cat: self.cat,
            trace_id: self.trace_id,
            tid: TID.with(|t| t.get()),
            start_us: self.start_us,
            dur_us: end.saturating_sub(self.start_us),
            depth: self.depth,
        });
    }
}

/// Opens a span attributed to this thread's current trace id.
#[inline]
pub fn span(name: &'static str, cat: &'static str) -> SpanGuard {
    span_for(name, cat, CUR_TRACE.with(|c| c.get()))
}

/// Opens a span only under `TraceConfig { deep: true, .. }`; inert
/// otherwise. For sites that fire per step rather than per phase —
/// thousands of records per solve — where default-config tracing must
/// cost one relaxed load and nothing else.
#[inline]
pub fn deep_span(name: &'static str, cat: &'static str) -> SpanGuard {
    if deep_enabled() {
        span(name, cat)
    } else {
        SpanGuard::inert()
    }
}

/// Opens a span attributed to an explicit trace id (0 = none).
#[inline]
pub fn span_for(name: &'static str, cat: &'static str, trace_id: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard::inert();
    }
    let depth = DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth.saturating_add(1));
        depth
    });
    SpanGuard {
        name,
        cat,
        trace_id,
        start_us: now_us(),
        depth,
        live: true,
    }
}

/// Records an already-measured span ending now — for durations that
/// cross threads (e.g. a queue wait stamped at enqueue and observed at
/// dequeue), where no RAII guard can live on a single stack.
#[inline]
pub fn span_closed(name: &'static str, cat: &'static str, trace_id: u64, dur_us: u64) {
    if !enabled() {
        return;
    }
    let end = now_us();
    record(SpanRecord {
        name,
        cat,
        trace_id,
        tid: TID.with(|t| t.get()),
        start_us: end.saturating_sub(dur_us),
        dur_us,
        depth: DEPTH.with(|d| d.get()),
    });
}

/// Records an instantaneous event (zero-duration span).
#[inline]
pub fn event(name: &'static str, cat: &'static str) {
    if !enabled() {
        return;
    }
    record(SpanRecord {
        name,
        cat,
        trace_id: CUR_TRACE.with(|c| c.get()),
        tid: TID.with(|t| t.get()),
        start_us: now_us(),
        dur_us: 0,
        depth: DEPTH.with(|d| d.get()),
    });
}

/// Sets this thread's current trace id (what [`span`] attributes to)
/// and returns the previous one — restore it when the scoped work ends.
#[inline]
pub fn set_current_trace(id: u64) -> u64 {
    CUR_TRACE.with(|c| c.replace(id))
}

/// This thread's current trace id (0 = none).
#[inline]
pub fn current_trace() -> u64 {
    CUR_TRACE.with(|c| c.get())
}

/// Allocates a fresh nonzero trace id (for requests arriving without
/// an `x-trace-id` header). Ids are unique per process and scrambled
/// through SplitMix64 so consecutive requests don't share prefixes.
pub fn next_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let mut z = n.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z = z ^ (z >> 31);
    z.max(1)
}

/// Emits the structured slow-request log line if `elapsed_us` is at or
/// over the installed threshold. One line per offender on stderr:
/// `slow-request path=… status=… trace=… elapsed_ms=…`.
pub fn slow_request(path: &str, status: u16, trace_id: u64, elapsed_us: u64) {
    let threshold = slow_threshold_us();
    if threshold == 0 || elapsed_us < threshold {
        return;
    }
    eprintln!(
        "slow-request path={path} status={status} trace={} elapsed_ms={}.{:03}",
        crate::format_trace_id(trace_id),
        elapsed_us / 1000,
        elapsed_us % 1000,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    // Trace state is process-global; serialize the tests that touch it,
    // sharing the guard with export.rs.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        crate::TEST_GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _g = lock();
        clear();
        let s = span("x", "test");
        assert!(!s.live);
        drop(s);
        event("y", "test");
        assert_eq!(current_trace(), 0);
    }

    #[test]
    fn spans_reach_ring_and_store() {
        let _g = lock();
        install(TraceConfig::default());
        let id = next_trace_id();
        let prev = set_current_trace(id);
        {
            let _outer = span("outer", "test");
            let _inner = span("inner", "test");
        }
        event("mark", "test");
        span_closed("wait", "test", id, 5);
        set_current_trace(prev);
        let spans = store_spans(id).expect("trace recorded").spans;
        assert_eq!(spans.len(), 4, "{spans:?}");
        let wait = spans.iter().find(|s| s.name == "wait").unwrap();
        assert_eq!(wait.dur_us, 5);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.dur_us <= outer.dur_us);
        clear();
    }

    #[test]
    fn store_caps_shallow_spans_too() {
        let _g = lock();
        install(TraceConfig::default());
        let id = next_trace_id();
        for _ in 0..MAX_KEPT_PER_TRACE + 10 {
            span_closed("request", "test", id, 1);
        }
        let trace = store_spans(id).expect("trace recorded");
        assert_eq!(trace.spans.len(), MAX_KEPT_PER_TRACE);
        assert_eq!(trace.dropped, 10);
        clear();
    }

    #[test]
    fn store_evicts_fifo() {
        let _g = lock();
        install(TraceConfig {
            recent_traces: 2,
            ..TraceConfig::default()
        });
        let ids: Vec<u64> = (0..3).map(|_| next_trace_id()).collect();
        for &id in &ids {
            let _span = span_for("r", "test", id);
        }
        assert!(store_spans(ids[0]).is_none(), "oldest evicted");
        assert!(store_spans(ids[1]).is_some());
        assert!(store_spans(ids[2]).is_some());
        clear();
    }

    #[test]
    fn ring_wraps_at_capacity() {
        let _g = lock();
        install(TraceConfig {
            ring_capacity: 4,
            ..TraceConfig::default()
        });
        for _ in 0..10 {
            let _span = span("tick", "test");
        }
        let state = active().unwrap();
        let rings = state.rings.lock().unwrap();
        let this = rings
            .iter()
            .find(|r| !r.lock().unwrap().records.is_empty())
            .expect("this thread registered");
        let buf = this.lock().unwrap();
        assert_eq!(buf.records.len(), 4);
        assert!(buf.wrapped);
        drop(buf);
        drop(rings);
        clear();
    }

    #[test]
    fn concurrent_recorders_keep_every_record() {
        let _g = lock();
        const THREADS: usize = 4;
        const SPANS: usize = 50_000;
        install(TraceConfig {
            ring_capacity: SPANS,
            ..TraceConfig::default()
        });
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..SPANS {
                        // The reactor's per-request calls, next to a span.
                        let id = next_trace_id();
                        slow_request("/t", 200, id, 0);
                        let _span = span("tick", "test");
                    }
                });
            }
        });
        let state = active().expect("installed");
        let kept: usize = state
            .rings
            .lock()
            .unwrap()
            .iter()
            .map(|r| r.lock().unwrap().records.len())
            .sum();
        assert_eq!(dropped_spans(), 0);
        assert_eq!(kept, THREADS * SPANS);
        clear();
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let _g = lock();
        clear();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = next_trace_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id));
        }
    }

    #[test]
    fn env_install_parses_fields() {
        let _g = lock();
        std::env::set_var(crate::ENV_VAR, "ring=64;recent=8;slow_ms=250;deep=1");
        assert!(install_from_env());
        let state = active().unwrap();
        assert_eq!(state.config.ring_capacity, 64);
        assert_eq!(state.config.recent_traces, 8);
        assert_eq!(slow_threshold_us(), 250_000);
        assert!(deep_enabled());
        std::env::remove_var(crate::ENV_VAR);
        clear();
        assert!(!install_from_env());
    }

    #[test]
    fn deep_spans_record_only_when_configured() {
        let _g = lock();
        install(TraceConfig::default());
        assert!(!deep_enabled());
        let id = next_trace_id();
        let prev = set_current_trace(id);
        {
            let _inert = deep_span("predict", "tracker");
            let _real = span("track", "tracker");
        }
        set_current_trace(prev);
        let names: Vec<_> = store_spans(id)
            .expect("phase span recorded")
            .spans
            .iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(names, vec!["track"], "deep span must stay inert by default");

        install(TraceConfig {
            deep: true,
            ..TraceConfig::default()
        });
        assert!(deep_enabled());
        let id = next_trace_id();
        let prev = set_current_trace(id);
        {
            let _deep = deep_span("predict", "tracker");
        }
        set_current_trace(prev);
        let spans = store_spans(id)
            .expect("deep span recorded under deep config")
            .spans;
        assert_eq!(spans[0].name, "predict");
        clear();
        assert!(!deep_enabled(), "clear() resets the deep flag");
    }
}
