//! The job engine: a bounded queue feeding worker threads, with the
//! heavy shape-level work running on the global work-stealing pool.
//!
//! Flow of a job: [`Engine::submit_async`] validates against the
//! admission limits and enqueues with a completion callback
//! (back-pressure: a full queue sheds with [`JobError::QueueFull`]);
//! [`Engine::run`] is the blocking helper on the same path — it waits
//! for queue space instead of shedding, then for the answer. A worker
//! pops the job, resolves the shape through the [`ShapeCache`] — a miss
//! runs the Pieri tree on the pool, a hit costs nothing — and tracks the
//! `d(m,p,q)` continuation paths to the request's data with one
//! `continue_to_instance` call (certifying under [`CertifyPolicy::full`]
//! when the request asks for it).
//! Shutdown is graceful: intake closes immediately, queued and in-flight
//! jobs finish, workers exit, and every late submitter gets
//! [`JobError::ShuttingDown`].
//!
//! No panic crosses the boundary: execution is wrapped in
//! `catch_unwind` and surfaces as [`JobError::Internal`].
//!
//! Behind the workers sits a **supervisor** thread: each worker claims
//! its current job in a per-worker supervision slot (a heartbeat — the
//! claim carries a start timestamp), and the supervisor restarts
//! workers that die (a panic escaping the `catch_unwind` frame, e.g.
//! while holding the queue lock) or *wedge* (a claimed job running past
//! [`SupervisorConfig::stall_timeout`]), with capped exponential
//! backoff between a worker's consecutive failures. An orphaned job
//! whose solver never started is requeued at the front (replay-safe:
//! the computation is deterministic and had no observable effect yet);
//! one lost mid-execution is answered with a structured internal error.
//! Exactly-once answering is structural: whoever takes the claim out of
//! the slot — finishing worker or recovering supervisor — owns the
//! completion, so no job is ever answered twice or dropped.

use crate::cache::{panic_message, CacheStats, ShapeCache};
use crate::job::{CompensatorAnswer, JobError, JobRequest, JobResult};
use crate::sync::{rank, RankedMutex};
use crossbeam::channel;
use pieri_certify::{Certificate, CertifyPolicy};
use pieri_control::{solve_dynamic_state_space_certified, verify_closed_loop_ss, StateSpace};
use pieri_core::{continue_to_instance, Shape};
use pieri_num::{seeded_rng, Complex64};
use pieri_trace::{Counter, Gauge, Histogram, Registry};
use pieri_tracker::{CancelToken, TrackSettings};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads popping the job queue. Each worker tracks its
    /// job's continuation paths itself; cold-shape tree solves fan out
    /// on the global pool regardless of this number.
    pub workers: usize,
    /// Bounded queue capacity (back-pressure beyond this).
    pub queue_capacity: usize,
    /// Directory of the on-disk [`crate::store::BundleStore`]. When set,
    /// bundles persisted by earlier runs are loaded at startup (a
    /// restarted server answers its first request warm) and every
    /// freshly built bundle is saved best-effort. `None` disables
    /// persistence.
    pub bundle_store: Option<PathBuf>,
    /// Worker supervision: failure detection cadence, wedge threshold
    /// and restart backoff.
    pub supervisor: SupervisorConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: rayon::current_num_threads().max(1),
            queue_capacity: 64,
            bundle_store: None,
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// How the engine's supervisor detects and replaces failed workers.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Wedge-scan cadence. Panicked workers are reported immediately
    /// (the dying thread notifies the supervisor); this bounds only how
    /// fast *stalls* are noticed.
    pub tick: Duration,
    /// A claimed job running longer than this marks its worker wedged:
    /// the worker is failed over and the job recovered. Must comfortably
    /// exceed the longest legitimate job (cold bundle builds included).
    pub stall_timeout: Duration,
    /// Restart backoff after a worker's first consecutive failure;
    /// doubles per further failure.
    pub backoff_base: Duration,
    /// Upper bound on the exponential restart backoff.
    pub backoff_cap: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            tick: Duration::from_millis(250),
            stall_timeout: Duration::from_secs(30),
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(2),
        }
    }
}

/// How a finished job reaches its submitter: the reactor's completion
/// push, or [`Engine::run`]'s channel send. Called exactly once.
type Done = Box<dyn FnOnce(Result<JobResult, JobError>) + Send + 'static>;

struct Queued {
    req: JobRequest,
    enqueued: Instant,
    /// Cancelled explicitly (client gone) or via its embedded deadline;
    /// checked before dequeue-execution and between continuation paths.
    cancel: CancelToken,
    /// The request's trace id (0 = untraced). Spans emitted while this
    /// job runs — queue wait, the solve itself, tracker phases — carry
    /// it, so `/v1/trace/<id>` reassembles the whole lifecycle.
    trace_id: u64,
    done: Done,
}

struct QueueState {
    queue: VecDeque<Queued>,
    open: bool,
}

/// A worker's claim on the job it is currently running — the heartbeat
/// the supervisor reads. Created when the worker moves a popped job
/// into its slot; removed by whoever completes the job (the worker on
/// success, the supervisor on fail-over). Taking it out of the slot is
/// the exactly-once point: the taker owns `job.done`.
struct InFlight {
    job: Queued,
    /// When the claim was made; `started.elapsed()` past the stall
    /// timeout marks the worker wedged.
    started: Instant,
    /// Set once the solver is actually invoked. A claim recovered with
    /// this still `false` is replay-safe to requeue — the computation
    /// had no observable effect yet.
    executing: bool,
}

/// Supervision state of one worker index.
struct WorkerSlot {
    /// Bumped on every fail-over. A worker whose generation no longer
    /// matches its slot has been superseded: it must not touch the
    /// claim and must exit (a wedge that woke up late, for example).
    generation: u64,
    busy: Option<InFlight>,
    handle: Option<JoinHandle<()>>,
    /// Consecutive failures feeding the exponential restart backoff;
    /// reset by any successfully completed job.
    consecutive_failures: u32,
}

/// The supervisor's inbox: dying workers push `(index, generation)`
/// here from their panic sentinel, shutdown raises `stop`.
struct ReaperState {
    dead: Vec<(usize, u64)>,
    stop: bool,
}

/// The engine's instruments, registered on the shared [`Registry`].
///
/// Field order here **is** registration order, which is also the
/// snapshot read order — each bounded counter registers before the
/// counter that bounds it, and every increment site bumps the bound
/// *first* (`completed` before `expired`, `rejected` before `shed`,
/// `submitted` at admission long before `completed` at delivery). With
/// the registry's SeqCst contract that makes the `/v1/stats` ledger
/// invariants (`deadline_expired ≤ completed ≤ submitted`,
/// `shed ≤ rejected`) hold in *every* snapshot, not just at quiescence
/// — see the coherence notes in [`pieri_trace::metrics`].
struct EngineMetrics {
    /// Deadlines that fired *after* admission — while queued (the
    /// solver is never invoked) or between continuation paths.
    expired: Counter,
    completed: Counter,
    /// Load-shedding rejections at admission: a full queue on the
    /// non-blocking path, or a deadline already lapsed at submit.
    /// Subset of `rejected`.
    shed: Counter,
    rejected: Counter,
    submitted: Counter,
    certified: Counter,
    refined: Counter,
    retracked: Counter,
    cert_failed: Counter,
    /// Workers replaced after a panic or wedge.
    workers_restarted: Counter,
    /// Orphaned jobs requeued replay-safely by the supervisor.
    jobs_recovered: Counter,
    /// Jobs currently queued; set under the engine-queue lock at every
    /// push/pop site, so it never drifts from `queue.len()`.
    queue_depth: Gauge,
    /// Admission-to-dequeue latency of jobs a worker picked up.
    queue_wait_us: Histogram,
    /// Solver wall time of successfully completed jobs.
    solve_us: Histogram,
}

impl EngineMetrics {
    fn register_all(registry: &Registry) -> EngineMetrics {
        EngineMetrics {
            expired: registry.counter("pieri_jobs_deadline_expired_total"),
            completed: registry.counter("pieri_jobs_completed_total"),
            shed: registry.counter("pieri_jobs_shed_total"),
            rejected: registry.counter("pieri_jobs_rejected_total"),
            submitted: registry.counter("pieri_jobs_submitted_total"),
            certified: registry.counter("pieri_certify_certified_total"),
            refined: registry.counter("pieri_certify_refined_total"),
            retracked: registry.counter("pieri_certify_retracked_total"),
            cert_failed: registry.counter("pieri_certify_failed_total"),
            workers_restarted: registry.counter("pieri_workers_restarted_total"),
            jobs_recovered: registry.counter("pieri_jobs_recovered_total"),
            queue_depth: registry.gauge("pieri_queue_depth"),
            queue_wait_us: registry.histogram("pieri_job_queue_wait_us"),
            solve_us: registry.histogram("pieri_job_solve_us"),
        }
    }
}

struct Shared {
    state: RankedMutex<QueueState>,
    /// Workers wait here for jobs.
    jobs: Condvar,
    /// Blocking submitters wait here for queue space.
    space: Condvar,
    cache: ShapeCache,
    capacity: usize,
    /// The single source of truth behind `/v1/stats` and `/v1/metrics`:
    /// every engine counter above lives here, the shape cache's
    /// counters are adopted into it, and the reactor registers its
    /// per-path HTTP metrics on it too.
    registry: Arc<Registry>,
    metrics: EngineMetrics,
    /// Engine start time (`/v1/stats` reports `uptime_secs` from it).
    started: Instant,
    /// Per-worker supervision slots; indexed by worker id.
    slots: RankedMutex<Vec<WorkerSlot>>,
    /// Dead-worker notifications and the supervisor stop flag.
    reaper: RankedMutex<ReaperState>,
    /// The supervisor parks here between ticks; dying workers and
    /// shutdown notify it.
    reaper_cv: Condvar,
    supervisor: SupervisorConfig,
}

impl Shared {
    /// Rolls a certified job's outcome into the engine-wide counters.
    fn count_certificates(&self, certs: &[Certificate], retracked: usize) {
        let certified = certs.iter().filter(|c| c.is_certified()).count();
        let refined = certs.iter().filter(|c| c.refined).count();
        let failed = certs.iter().filter(|c| c.is_failed()).count();
        self.metrics.certified.add(certified as u64);
        self.metrics.refined.add(refined as u64);
        self.metrics.cert_failed.add(failed as u64);
        self.metrics.retracked.add(retracked as u64);
    }
}

/// Aggregate certification counters (the `/v1/stats` `certify` block).
///
/// These count certification **outcomes observed**, whether or not the
/// job ultimately shipped: a job with six certified solutions and two
/// failed ones is answered with an `uncertified` error, yet still adds
/// 6 to `certified` and 2 to `failed` — the counters describe what the
/// certifier saw, `completed`/`rejected` describe what jobs returned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CertifyCounters {
    /// Solutions whose certificate came back `Certified`.
    pub certified: usize,
    /// Solutions polished by the double-double refiner.
    pub refined: usize,
    /// Paths that needed at least one re-track attempt.
    pub retracked: usize,
    /// Solutions whose certificate came back `Failed` (their jobs were
    /// answered with an `uncertified` error).
    pub failed: usize,
}

/// Engine counters and gauges (the `/v1/stats` payload).
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// Worker thread count.
    pub workers: usize,
    /// Jobs currently queued.
    pub queue_len: usize,
    /// Queue capacity.
    pub queue_capacity: usize,
    /// Jobs accepted so far.
    pub submitted: usize,
    /// Jobs finished (ok or error) so far.
    pub completed: usize,
    /// Submissions bounced by back-pressure or shutdown.
    pub rejected: usize,
    /// Load-shed rejections at admission (full queue on the reactor
    /// path, or deadline lapsed at submit) — a subset of `rejected`.
    pub shed: usize,
    /// Per-request deadlines that fired after admission: expired in the
    /// queue (solver untouched) or cancelled between continuation paths.
    pub deadline_expired: usize,
    /// Certification counters (certified/refined/retracked/failed).
    pub certify: CertifyCounters,
    /// Workers the supervisor replaced after a panic or wedge.
    pub workers_restarted: usize,
    /// Orphaned in-flight jobs the supervisor requeued replay-safely
    /// (their solver had not started when the worker died).
    pub jobs_recovered: usize,
    /// Time since the engine started.
    pub uptime: Duration,
    /// Shape-cache counters.
    pub cache: CacheStats,
}

/// The batch job engine. Create with [`Engine::start`], stop with
/// [`Engine::shutdown`] (also runs on drop).
pub struct Engine {
    shared: Arc<Shared>,
    workers: usize,
    handles: RankedMutex<Vec<JoinHandle<()>>>,
}

impl Engine {
    /// Starts the worker threads.
    ///
    /// # Panics
    /// Panics when `config.workers == 0` or `config.queue_capacity == 0`.
    pub fn start(config: EngineConfig) -> Engine {
        assert!(config.workers >= 1, "need at least one worker");
        assert!(config.queue_capacity >= 1, "queue capacity must be ≥ 1");
        // Honour `PIERI_TRACE` on every engine start so any binary
        // embedding the service (examples, loadgen, operator tools)
        // records spans without code changes or a rebuild. A no-op
        // when the variable is unset or a recorder is already installed
        // by the harness; the metrics registry below is on regardless.
        if !pieri_trace::enabled() {
            pieri_trace::install_from_env();
        }
        // Tracker spans reach the recorder through the tracker's hook
        // (set by the first engine of the process).
        pieri_tracker::trace::set_hook(open_tracker_span, close_tracker_span);
        let registry = Arc::new(Registry::new());
        let metrics = EngineMetrics::register_all(&registry);
        let cache = ShapeCache::new(config.bundle_store.as_deref());
        cache.register_metrics(&registry);
        let shared = Arc::new(Shared {
            state: RankedMutex::new(
                "engine-queue",
                rank::ENGINE_QUEUE,
                QueueState {
                    queue: VecDeque::new(),
                    open: true,
                },
            ),
            jobs: Condvar::new(),
            space: Condvar::new(),
            cache,
            capacity: config.queue_capacity,
            registry,
            metrics,
            started: Instant::now(),
            slots: RankedMutex::new(
                "engine-workers",
                rank::ENGINE_WORKERS,
                (0..config.workers)
                    .map(|_| WorkerSlot {
                        generation: 0,
                        busy: None,
                        handle: None,
                        consecutive_failures: 0,
                    })
                    .collect(),
            ),
            reaper: RankedMutex::new(
                "engine-supervisor",
                rank::ENGINE_SUPERVISOR,
                ReaperState {
                    dead: Vec::new(),
                    stop: false,
                },
            ),
            reaper_cv: Condvar::new(),
            supervisor: config.supervisor,
        });
        for i in 0..config.workers {
            let handle = spawn_worker(&shared, i, 0)
                // lint:allow(no-panic-in-service) — startup-time
                // precondition, not a request path: if the OS cannot
                // spawn the fixed worker set, the process cannot
                // serve at all and should die loudly at boot.
                .expect("spawn worker");
            // lint:lock-rank(engine-workers, 12)
            shared.slots.lock_recover()[i].handle = Some(handle);
        }
        let supervisor = {
            let shared = shared.clone();
            // lint:allow(no-raw-thread-spawn) — the singleton
            // supervisor thread, created once at startup; it runs no
            // per-job compute, only failure detection and respawns.
            std::thread::Builder::new()
                .name("pieri-service-supervisor".into())
                .spawn(move || supervisor_loop(&shared))
                // lint:allow(no-panic-in-service) — startup-time
                // precondition, same argument as the worker spawns.
                .expect("spawn supervisor")
        };
        Engine {
            shared,
            workers: config.workers,
            handles: RankedMutex::new("engine-handles", rank::ENGINE_HANDLES, vec![supervisor]),
        }
    }

    /// Completion-callback admission for the reactor: never blocks, and
    /// never calls `on_done` when admission itself fails (the error
    /// comes back synchronously for the caller to render). On success
    /// `on_done` runs exactly once, on the worker thread that finished
    /// the job — callbacks must be cheap and non-blocking-ish (the
    /// reactor's pushes one completion and wakes an eventfd).
    ///
    /// `trace_id` (0 = untraced) tags the job's spans — queue wait,
    /// solve, tracker phases — so `/v1/trace/<id>` can reassemble the
    /// request's full lifecycle across threads.
    pub fn submit_async(
        &self,
        req: JobRequest,
        deadline: Option<Instant>,
        trace_id: u64,
        on_done: impl FnOnce(Result<JobResult, JobError>) + Send + 'static,
    ) -> Result<CancelToken, JobError> {
        self.enqueue(req, deadline, false, trace_id, Box::new(on_done))
    }

    /// Blocking helper on the [`Engine::submit_async`] path: validates
    /// and enqueues, *waiting for queue space* when the queue is full
    /// (so it never sheds with [`JobError::QueueFull`]), then waits for
    /// the answer.
    pub fn run(&self, req: JobRequest) -> Result<JobResult, JobError> {
        let (tx, rx) = channel::unbounded();
        let on_done = move |result| {
            let _ = tx.send(result);
        };
        self.enqueue(req, None, true, 0, Box::new(on_done))?;
        rx.recv()
            .unwrap_or_else(|_| Err(JobError::Internal("worker disappeared".into())))
    }

    fn enqueue(
        &self,
        req: JobRequest,
        deadline: Option<Instant>,
        block: bool,
        trace_id: u64,
        done: Done,
    ) -> Result<CancelToken, JobError> {
        if let Err(e) = req.validate() {
            self.shared.metrics.rejected.inc();
            return Err(e);
        }
        // Deadline-aware admission control: work that cannot possibly
        // answer in time is shed here, before it costs a queue slot.
        // `rejected` first, `shed` second — the snapshot coherence
        // contract (see [`EngineMetrics`]) needs the superset bumped
        // before its subset.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            self.shared.metrics.rejected.inc();
            self.shared.metrics.shed.inc();
            return Err(JobError::DeadlineExceeded {
                detail: "deadline lapsed before admission".into(),
            });
        }
        let cancel = match deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };
        // lint:lock-rank(engine-queue, 10)
        let mut state = self.shared.state.lock_recover();
        loop {
            if !state.open {
                self.shared.metrics.rejected.inc();
                return Err(JobError::ShuttingDown);
            }
            if state.queue.len() < self.shared.capacity {
                state.queue.push_back(Queued {
                    req,
                    enqueued: Instant::now(),
                    cancel: cancel.clone(),
                    trace_id,
                    done,
                });
                self.shared.metrics.submitted.inc();
                self.shared
                    .metrics
                    .queue_depth
                    .set(state.queue.len() as i64);
                self.shared.jobs.notify_one();
                return Ok(cancel);
            }
            if !block {
                self.shared.metrics.rejected.inc();
                self.shared.metrics.shed.inc();
                return Err(JobError::QueueFull);
            }
            state = crate::sync::wait_recover(&self.shared.space, state);
        }
    }

    /// One coherent counter snapshot: every field comes from a single
    /// registration-order read of the registry, so the ledger
    /// invariants (`deadline_expired ≤ completed ≤ submitted`,
    /// `shed ≤ rejected`) hold in the returned value even while
    /// workers are mid-update.
    pub fn stats(&self) -> EngineStats {
        let snap = self.shared.registry.snapshot();
        let count = |name: &str| snap.counter(name) as usize;
        // lint:lock-rank(engine-queue, 10)
        let queue_len = self.shared.state.lock_recover().queue.len();
        EngineStats {
            workers: self.workers,
            queue_len,
            queue_capacity: self.shared.capacity,
            submitted: count("pieri_jobs_submitted_total"),
            completed: count("pieri_jobs_completed_total"),
            rejected: count("pieri_jobs_rejected_total"),
            shed: count("pieri_jobs_shed_total"),
            deadline_expired: count("pieri_jobs_deadline_expired_total"),
            certify: CertifyCounters {
                certified: count("pieri_certify_certified_total"),
                refined: count("pieri_certify_refined_total"),
                retracked: count("pieri_certify_retracked_total"),
                failed: count("pieri_certify_failed_total"),
            },
            workers_restarted: count("pieri_workers_restarted_total"),
            jobs_recovered: count("pieri_jobs_recovered_total"),
            uptime: self.shared.started.elapsed(),
            cache: self.shared.cache.stats_from(&snap),
        }
    }

    /// The metrics registry — the single source of truth behind
    /// `/v1/stats` and `/v1/metrics`. The HTTP layer registers its
    /// per-path counters and latency histograms here, so one snapshot
    /// covers the whole service.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.shared.registry
    }

    /// Time since this engine started (drives `uptime_secs` in
    /// `/healthz` and `/v1/stats` without a full registry snapshot).
    pub fn uptime(&self) -> Duration {
        self.shared.started.elapsed()
    }

    /// The shape cache (read access for diagnostics).
    pub fn cache(&self) -> &ShapeCache {
        &self.shared.cache
    }

    /// The bounded queue's capacity (the HTTP batch endpoint caps batch
    /// size at this).
    pub fn queue_capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Graceful shutdown: closes intake, lets queued and in-flight jobs
    /// finish, retires the supervisor, joins the workers, and answers
    /// anything left orphaned by workers that died with no supervisor
    /// left to replace them. Idempotent.
    pub fn shutdown(&self) {
        {
            // lint:lock-rank(engine-queue, 10)
            let mut state = self.shared.state.lock_recover();
            state.open = false;
            self.shared.jobs.notify_all();
            self.shared.space.notify_all();
        }
        // Stop the supervisor first so it cannot spawn replacement
        // workers (or requeue orphans) while shutdown drains.
        {
            // lint:lock-rank(engine-supervisor, 8)
            let mut reaper = self.shared.reaper.lock_recover();
            reaper.stop = true;
            self.shared.reaper_cv.notify_all();
        }
        // lint:lock-rank(engine-handles, 40)
        let handles = std::mem::take(&mut *self.handles.lock_recover());
        for h in handles {
            let _ = h.join();
        }
        // Join the current worker generation. Handles of failed-over
        // (wedged) workers were detached at fail-over and are not here.
        let workers: Vec<JoinHandle<()>> = {
            // lint:lock-rank(engine-workers, 12)
            let mut slots = self.shared.slots.lock_recover();
            slots.iter_mut().filter_map(|s| s.handle.take()).collect()
        };
        for h in workers {
            let _ = h.join();
        }
        // Workers drain the queue before exiting, so normally both of
        // these are empty. They are populated only when workers died
        // during shutdown (after the supervisor stopped): their queued
        // jobs and orphaned claims still get a structured answer rather
        // than a hang.
        let leftovers: Vec<Queued> = {
            // lint:lock-rank(engine-queue, 10)
            let mut state = self.shared.state.lock_recover();
            let drained = state.queue.drain(..).collect();
            self.shared.metrics.queue_depth.set(0);
            drained
        };
        let orphans: Vec<InFlight> = {
            // lint:lock-rank(engine-workers, 12)
            let mut slots = self.shared.slots.lock_recover();
            slots.iter_mut().filter_map(|s| s.busy.take()).collect()
        };
        for job in leftovers
            .into_iter()
            .chain(orphans.into_iter().map(|o| o.job))
        {
            self.shared.metrics.completed.inc();
            (job.done)(Err(JobError::ShuttingDown));
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn spawn_worker(
    shared: &Arc<Shared>,
    id: usize,
    generation: u64,
) -> std::io::Result<JoinHandle<()>> {
    let shared = Arc::clone(shared);
    // lint:allow(no-raw-thread-spawn) — these *are* the engine's
    // bounded worker set (initial spawns and supervised replacements);
    // all per-job compute they run goes through the pool.
    std::thread::Builder::new()
        .name(format!("pieri-service-worker-{id}"))
        .spawn(move || worker_loop(&shared, id, generation))
}

/// Reports a worker death to the supervisor. Declared as the *first*
/// local of `worker_loop`, so it drops last: by the time the report is
/// filed, every guard the dying frame held has been released (nothing
/// is reported while holding a lock, and the poisoned queue mutex is
/// already droppped — recovery at the other lock sites handles it).
struct Sentinel {
    shared: Arc<Shared>,
    id: usize,
    generation: u64,
}

impl Drop for Sentinel {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // lint:lock-rank(engine-supervisor, 8)
            let mut reaper = self.shared.reaper.lock_recover();
            reaper.dead.push((self.id, self.generation));
            self.shared.reaper_cv.notify_all();
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, id: usize, generation: u64) {
    let _sentinel = Sentinel {
        shared: Arc::clone(shared),
        id,
        generation,
    };
    loop {
        let job = {
            // lint:lock-rank(engine-queue, 10)
            let mut state = shared.state.lock_recover();
            // chaos: die while holding the queue lock — poisons the
            // mutex, which every other lock site must recover from.
            crate::chaos::panic_site("worker.panic");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    shared.metrics.queue_depth.set(state.queue.len() as i64);
                    shared.space.notify_one();
                    break Some(job);
                }
                if !state.open {
                    break None;
                }
                state = crate::sync::wait_recover(&shared.jobs, state);
            }
        };
        let Some(job) = job else { return };
        // Claim the job in this worker's supervision slot. The clones
        // keep the worker running off its own copies while the slot
        // holds the authoritative one (the supervisor requeues from
        // there on fail-over).
        let req = job.req.clone();
        let cancel = job.cancel.clone();
        let enqueued = job.enqueued;
        let trace_id = job.trace_id;
        let unclaimed = {
            // lint:lock-rank(engine-workers, 12)
            let mut slots = shared.slots.lock_recover();
            let slot = &mut slots[id];
            if slot.generation == generation {
                slot.busy = Some(InFlight {
                    job,
                    started: Instant::now(),
                    executing: false,
                });
                None
            } else {
                Some(job)
            }
        };
        if let Some(job) = unclaimed {
            // Superseded: the supervisor failed this generation over
            // (e.g. a wedge that cleared late). Hand the job back
            // untouched and bow out — the replacement worker owns this
            // slot now.
            // lint:lock-rank(engine-queue, 10)
            let mut state = shared.state.lock_recover();
            state.queue.push_front(job);
            shared.metrics.queue_depth.set(state.queue.len() as i64);
            shared.jobs.notify_one();
            return;
        }
        // chaos: die after claiming — the supervisor must requeue the
        // claim replay-safely (its solver never ran).
        crate::chaos::panic_site("worker.panic.job");
        if let Some(hit) = crate::chaos::fires("worker.wedge") {
            std::thread::sleep(Duration::from_millis(hit.param_or(500)));
        }
        if let Some(hit) = crate::chaos::fires("worker.delay") {
            std::thread::sleep(Duration::from_millis(hit.param_or(10)));
        }
        let queue_wait = enqueued.elapsed();
        shared.metrics.queue_wait_us.record_duration(queue_wait);
        // The queue wait crosses threads (stamped at enqueue, observed
        // here), so it is recorded as an already-closed span rather
        // than an RAII guard.
        pieri_trace::span_closed(
            "queue.wait",
            "engine",
            trace_id,
            queue_wait.as_micros().min(u64::MAX as u128) as u64,
        );
        // Expired-before-dequeue: the deadline (or an explicit cancel)
        // fired while the job sat in the queue — answer structurally
        // without ever invoking the solver.
        let result = if cancel.is_cancelled() {
            Err(JobError::DeadlineExceeded {
                detail: format!(
                    "deadline lapsed after {:.1} ms in the queue; solver not invoked",
                    queue_wait.as_secs_f64() * 1e3
                ),
            })
        } else {
            // Mark the claim executing; if the slot is no longer ours
            // the supervisor failed us over while we stalled above and
            // the job belongs to the recovery path now.
            let ours = {
                // lint:lock-rank(engine-workers, 12)
                let mut slots = shared.slots.lock_recover();
                let slot = &mut slots[id];
                slot.generation == generation
                    && match slot.busy.as_mut() {
                        Some(busy) => {
                            busy.executing = true;
                            true
                        }
                        None => false,
                    }
            };
            if !ours {
                return;
            }
            // The cancel scope makes the token visible to the
            // continuation drivers, which consult it between paths.
            // The solve runs under the request's trace id (tracker
            // spans inherit it) inside a "track" span; `execute` never
            // unwinds, so the previous id is always restored.
            let prev = pieri_trace::set_current_trace(trace_id);
            let result = {
                let _span = pieri_trace::span_for("track", "engine", trace_id);
                pieri_tracker::cancel::scope(&cancel, || execute(shared, &req, queue_wait))
            };
            pieri_trace::set_current_trace(prev);
            result
        };
        // Completion: take the claim back out of the slot. Whoever
        // takes it answers; if the supervisor already did (we were
        // declared wedged mid-execution), this thread is a ghost and
        // its result is discarded — the client was already answered.
        let done = {
            // lint:lock-rank(engine-workers, 12)
            let mut slots = shared.slots.lock_recover();
            let slot = &mut slots[id];
            if slot.generation == generation {
                slot.consecutive_failures = 0;
                slot.busy.take().map(|inflight| inflight.job.done)
            } else {
                None
            }
        };
        let Some(done) = done else { return };
        if let Ok(res) = &result {
            shared.metrics.solve_us.record_duration(res.solve_time);
        }
        // `completed` before `expired`: the snapshot coherence contract
        // (see [`EngineMetrics`]) needs the bounding counter bumped
        // first for `deadline_expired ≤ completed` to hold in every
        // snapshot.
        shared.metrics.completed.inc();
        if matches!(result, Err(JobError::DeadlineExceeded { .. })) {
            shared.metrics.expired.inc();
        }
        done(result);
    }
}

thread_local! {
    /// Guards of this thread's open tracker spans, innermost last.
    static TRACKER_SPANS: RefCell<Vec<pieri_trace::SpanGuard>> = const { RefCell::new(Vec::new()) };
}

/// The tracker's span hook: `enter` opens a `tracker` span under the
/// thread's trace id while a recorder is installed (a deep span only
/// under deep tracing), and `exit` closes the innermost one.
fn open_tracker_span(name: &'static str, deep: bool) -> bool {
    let open = pieri_trace::enabled() && (!deep || pieri_trace::deep_enabled());
    if open {
        let span = pieri_trace::span(name, "tracker");
        TRACKER_SPANS.with(|spans| spans.borrow_mut().push(span));
    }
    open
}

fn close_tracker_span() {
    TRACKER_SPANS.with(|spans| drop(spans.borrow_mut().pop()));
}

fn supervisor_loop(shared: &Arc<Shared>) {
    loop {
        let dead: Vec<(usize, u64)> = {
            // lint:lock-rank(engine-supervisor, 8)
            let mut reaper = shared.reaper.lock_recover();
            if reaper.dead.is_empty() && !reaper.stop {
                let (g, _timed_out) = crate::sync::wait_timeout_recover(
                    &shared.reaper_cv,
                    reaper,
                    shared.supervisor.tick,
                );
                reaper = g;
            }
            if reaper.stop {
                return;
            }
            std::mem::take(&mut reaper.dead)
        };
        for (id, generation) in dead {
            restart_worker(shared, id, generation);
        }
        // Wedge scan: any claimed job running past the stall timeout
        // marks its worker for fail-over. The per-job claim timestamp
        // is the heartbeat — no cooperation from the wedged thread is
        // needed.
        let now = Instant::now();
        let stalled: Vec<(usize, u64)> = {
            // lint:lock-rank(engine-workers, 12)
            let slots = shared.slots.lock_recover();
            slots
                .iter()
                .enumerate()
                .filter(|(_, s)| {
                    s.busy.as_ref().is_some_and(|b| {
                        now.duration_since(b.started) > shared.supervisor.stall_timeout
                    })
                })
                .map(|(id, s)| (id, s.generation))
                .collect()
        };
        for (id, generation) in stalled {
            restart_worker(shared, id, generation);
        }
    }
}

/// Fails over worker `id` at `generation`: retires the generation,
/// recovers its claimed job (requeue or shed), and spawns the
/// replacement after the backoff. Stale generations are ignored, so a
/// panic report racing a wedge scan acts once.
fn restart_worker(shared: &Arc<Shared>, id: usize, generation: u64) {
    let (orphan, failures) = {
        // lint:lock-rank(engine-workers, 12)
        let mut slots = shared.slots.lock_recover();
        let slot = &mut slots[id];
        if slot.generation != generation {
            return;
        }
        slot.generation += 1;
        slot.consecutive_failures += 1;
        // A wedged thread may never return; detach its handle rather
        // than ever joining it. (A panicked thread is already gone.)
        drop(slot.handle.take());
        (slot.busy.take(), slot.consecutive_failures)
    };
    if let Some(inflight) = orphan {
        recover_inflight(shared, inflight);
    }
    // Capped exponential backoff between one worker's consecutive
    // failures, so a deterministic crasher cannot hot-loop the spawn
    // path. The supervisor sleeping here also slows other restarts
    // down — intentional: a panic storm should throttle the engine,
    // not race it.
    let backoff = backoff_delay(&shared.supervisor, failures);
    if !backoff.is_zero() {
        std::thread::sleep(backoff);
    }
    shared.metrics.workers_restarted.inc();
    match spawn_worker(shared, id, generation + 1) {
        Ok(handle) => {
            // lint:lock-rank(engine-workers, 12)
            shared.slots.lock_recover()[id].handle = Some(handle);
        }
        Err(_) => {
            // Spawn failure (resource exhaustion): file the slot as
            // dead again so the next tick retries with more backoff.
            // lint:lock-rank(engine-supervisor, 8)
            let mut reaper = shared.reaper.lock_recover();
            reaper.dead.push((id, generation + 1));
        }
    }
}

/// Completes or requeues a claim recovered from a failed worker.
fn recover_inflight(shared: &Arc<Shared>, inflight: InFlight) {
    let InFlight { job, executing, .. } = inflight;
    if job.cancel.is_cancelled() {
        // `completed` before `expired` — same coherence-contract
        // ordering as the worker's completion path.
        shared.metrics.completed.inc();
        shared.metrics.expired.inc();
        (job.done)(Err(JobError::DeadlineExceeded {
            detail: "deadline lapsed while the job was recovered from a failed worker".into(),
        }));
    } else if executing {
        // The solver was already running when the worker died or
        // wedged. Re-running would be answer-deterministic, but a job
        // that wedges its worker would then wedge every replacement —
        // shed it with a structured error instead.
        shared.metrics.completed.inc();
        (job.done)(Err(JobError::Internal(
            "worker failed mid-execution; job shed during fail-over".into(),
        )));
    } else {
        // The solver never started: requeue at the front, replay-safe.
        // The transient over-capacity this may cause is deliberate —
        // recovered work must not be lost to a momentarily full queue.
        shared.metrics.jobs_recovered.inc();
        // lint:lock-rank(engine-queue, 10)
        let mut state = shared.state.lock_recover();
        state.queue.push_front(job);
        shared.metrics.queue_depth.set(state.queue.len() as i64);
        shared.jobs.notify_one();
    }
}

fn backoff_delay(config: &SupervisorConfig, failures: u32) -> Duration {
    let shift = failures.saturating_sub(1).min(16);
    config
        .backoff_base
        .saturating_mul(1u32 << shift)
        .min(config.backoff_cap)
}

/// Runs one validated job; never panics across this frame.
fn execute(shared: &Shared, req: &JobRequest, queue_wait: Duration) -> Result<JobResult, JobError> {
    catch_unwind(AssertUnwindSafe(|| run_job(shared, req, queue_wait)))
        .unwrap_or_else(|payload| Err(JobError::Internal(panic_message(&payload))))
}

/// A certified job whose continuation left numerically failed paths (even
/// after bounded re-tracking) or whose solutions failed their Newton
/// certificates is answered with a structured error, not a partial
/// answer: with certification requested, "whatever Newton converged to"
/// is not an acceptable response.
fn require_certified(certs: &[Certificate], failed_paths: usize) -> Result<(), JobError> {
    let failed_certs = certs.iter().filter(|c| c.is_failed()).count();
    if failed_paths > 0 || failed_certs > 0 {
        return Err(JobError::Uncertified {
            detail: format!(
                "{failed_paths} path(s) failed numerically after bounded re-tracking; \
                 {failed_certs} solution(s) failed the Newton certificate"
            ),
        });
    }
    Ok(())
}

/// A continuation the cancel token stopped at a path boundary is
/// abandoned work: the partial solution set is withheld and the job
/// answers with the structured deadline error (mirroring the queued
/// case — either the client gets the whole answer or a clean error).
fn reject_cancelled(cont: &pieri_core::InstanceContinuation) -> Result<(), JobError> {
    if cont.cancelled {
        return Err(JobError::DeadlineExceeded {
            detail: format!(
                "deadline lapsed mid-execution; stopped at a path boundary \
                 after {} path(s), partial results withheld",
                cont.stats.total()
            ),
        });
    }
    Ok(())
}

fn run_job(shared: &Shared, req: &JobRequest, queue_wait: Duration) -> Result<JobResult, JobError> {
    let (m, p, q) = req.shape_dims();
    let shape = Shape::new(m, p, q);
    let (bundle, cache_hit) = shared.cache.get_or_build(&shape)?;
    let bundle_build = if cache_hit {
        Duration::ZERO
    } else {
        bundle.build_time()
    };
    let certify = req.certify();
    let policy = if certify {
        CertifyPolicy::full()
    } else {
        CertifyPolicy::off()
    };
    let settings = TrackSettings::default();
    let t0 = Instant::now();

    let mut result = match req {
        JobRequest::SolvePieri { seed, .. } => {
            let mut rng = seeded_rng(*seed);
            let target = pieri_core::PieriProblem::random(shape.clone(), &mut rng);
            let cont = continue_to_instance(
                bundle.problem(),
                bundle.coeffs(),
                &target,
                &settings,
                &policy,
            );
            reject_cancelled(&cont)?;
            if certify {
                shared.count_certificates(&cont.certificates, cont.stats.retracked);
                require_certified(&cont.certificates, cont.failed)?;
            }
            let max_residual = cont
                .maps
                .iter()
                .map(|map| map.max_residual(&target))
                .fold(0.0, f64::max);
            JobResult {
                solutions: cont.maps.len(),
                improper: cont.diverged,
                failed: cont.failed,
                coeffs: cont.coeffs,
                compensators: Vec::new(),
                certificates: cont.certificates,
                max_residual,
                track: cont.stats,
                ..JobResult::default()
            }
        }
        JobRequest::PlacePoles {
            a,
            b,
            c,
            q,
            poles,
            seed,
            ..
        } => {
            let ss = StateSpace::new(a.clone(), b.clone(), c.clone());
            let mut rng = seeded_rng(*seed);
            let (comps, cont, _) = solve_dynamic_state_space_certified(
                &ss, *q, poles, &mut rng, &bundle, &settings, &policy,
            );
            reject_cancelled(&cont)?;
            if certify {
                shared.count_certificates(&cont.certificates, cont.stats.retracked);
                require_certified(&cont.certificates, cont.failed)?;
            }
            let mut max_residual: f64 = 0.0;
            let compensators = comps
                .iter()
                .zip(cont.maps.iter())
                .enumerate()
                .map(|(i, (comp, map))| {
                    // A certified solve already verified each law's
                    // closed loop into its certificate.
                    let residual = cont
                        .certificates
                        .get(i)
                        .and_then(|cert| cert.pole_residual)
                        .unwrap_or_else(|| verify_closed_loop_ss(&ss, map, poles).1);
                    max_residual = max_residual.max(residual);
                    CompensatorAnswer {
                        u_coeffs: comp.u().coeffs().to_vec(),
                        v_coeffs: comp.v().coeffs().to_vec(),
                        residual,
                        proper: comp.gain_at(Complex64::ZERO).is_some(),
                    }
                })
                .collect();
            JobResult {
                solutions: cont.maps.len(),
                improper: cont.diverged,
                failed: cont.failed,
                coeffs: cont.coeffs,
                compensators,
                certificates: cont.certificates,
                max_residual,
                track: cont.stats,
                ..JobResult::default()
            }
        }
    };
    // The bundle already knows d(m,p,q) — never rebuild the poset here.
    result.expected = bundle.root_count() as u128;
    result.cache_hit = cache_hit;
    result.bundle_build = bundle_build;
    result.queue_wait = queue_wait;
    result.solve_time = t0.elapsed();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn small_engine(workers: usize, capacity: usize) -> Engine {
        Engine::start(EngineConfig {
            workers,
            queue_capacity: capacity,
            ..EngineConfig::default()
        })
    }

    type Answer = mpsc::Receiver<Result<JobResult, JobError>>;

    /// Non-blocking admission with a receiver for the answer.
    fn submit(engine: &Engine, req: JobRequest) -> Result<Answer, JobError> {
        let (tx, rx) = mpsc::channel();
        engine.submit_async(req, None, 0, move |result| {
            let _ = tx.send(result);
        })?;
        Ok(rx)
    }

    fn solve_req(seed: u64) -> JobRequest {
        JobRequest::SolvePieri {
            m: 2,
            p: 2,
            q: 0,
            seed,
            certify: false,
        }
    }

    #[test]
    fn solve_job_round_trips_and_caches() {
        let engine = small_engine(2, 8);
        let cold = engine.run(solve_req(11)).unwrap();
        assert_eq!(cold.solutions, 2);
        assert_eq!(cold.expected, 2);
        assert!(!cold.cache_hit);
        assert!(cold.bundle_build > Duration::ZERO);
        assert!(
            cold.max_residual < 1e-7,
            "residual {:.2e}",
            cold.max_residual
        );

        let warm = engine.run(solve_req(11)).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(warm.bundle_build, Duration::ZERO);
        assert_eq!(warm.coeffs, cold.coeffs, "same seed → same bits");
        assert_eq!(warm.track.total(), 2, "only d(2,2,0) paths tracked");
        engine.shutdown();
    }

    #[test]
    fn invalid_jobs_are_rejected_at_submit() {
        let engine = small_engine(1, 4);
        let invalid = JobRequest::SolvePieri {
            m: 0,
            p: 1,
            q: 0,
            seed: 0,
            certify: false,
        };
        let err = submit(&engine, invalid).unwrap_err();
        assert_eq!(err.kind(), "invalid_request");
        assert_eq!(engine.stats().rejected, 1);
    }

    #[test]
    fn queue_full_backpressure() {
        // One worker, capacity 1: the worker occupies itself with the
        // first job (a cold solve), the queue holds the second, and the
        // third non-blocking submit must bounce.
        let engine = small_engine(1, 1);
        let t1 = submit(&engine, solve_req(1)).unwrap();
        let mut bounced = false;
        let mut tickets = vec![t1];
        for seed in 2..50 {
            match submit(&engine, solve_req(seed)) {
                Ok(t) => tickets.push(t),
                Err(JobError::QueueFull) => {
                    bounced = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(bounced, "bounded queue must eventually reject");
        for t in tickets {
            assert!(t.recv().unwrap().is_ok());
        }
        engine.shutdown();
    }

    #[test]
    fn run_waits_for_queue_space_instead_of_shedding() {
        // One worker, capacity 1. The first job's completion callback
        // runs on the worker thread and parks there until the gate
        // opens, so the worker stays occupied; a second job then fills
        // the queue.
        let engine = small_engine(1, 1);
        let (parked_tx, parked_rx) = mpsc::channel();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        engine
            .submit_async(solve_req(1), None, 0, move |result| {
                parked_tx.send(result).unwrap();
                gate_rx.recv().unwrap();
            })
            .unwrap();
        assert!(parked_rx.recv().unwrap().is_ok(), "worker parked");
        let queued = submit(&engine, solve_req(2)).unwrap();
        assert_eq!(
            submit(&engine, solve_req(3)).unwrap_err(),
            JobError::QueueFull,
            "queue is full"
        );
        let before = engine.stats();

        std::thread::scope(|s| {
            let blocked = s.spawn(|| engine.run(solve_req(4)));
            // However long this waits, `run` cannot pass a full queue.
            std::thread::sleep(Duration::from_millis(50));
            assert_eq!(engine.stats().submitted, before.submitted);
            gate_tx.send(()).unwrap();
            let res = blocked.join().unwrap();
            assert!(res.is_ok(), "run waits for space, never sheds: {res:?}");
        });
        let after = engine.stats();
        assert_eq!(after.shed, before.shed, "run never sheds");
        assert_eq!(after.rejected, before.rejected);
        assert_eq!(after.submitted, before.submitted + 1);
        assert!(queued.recv().unwrap().is_ok());
        engine.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs_then_rejects() {
        let engine = small_engine(1, 8);
        let tickets: Vec<_> = (0..3)
            .map(|seed| submit(&engine, solve_req(seed)).unwrap())
            .collect();
        engine.shutdown();
        for t in tickets {
            assert!(t.recv().unwrap().is_ok(), "queued jobs finish on shutdown");
        }
        assert_eq!(
            submit(&engine, solve_req(99)).unwrap_err(),
            JobError::ShuttingDown
        );
    }

    #[test]
    fn place_poles_job_places_the_satellite() {
        let engine = small_engine(2, 8);
        let sat = pieri_control::satellite_plant(1.0);
        let mut rng = seeded_rng(77);
        let poles = pieri_control::conjugate_pole_set(5, &mut rng);
        let req = JobRequest::PlacePoles {
            a: sat.a.clone(),
            b: sat.b.clone(),
            c: sat.c.clone(),
            q: 1,
            poles,
            seed: 40,
            certify: false,
        };
        let res = engine.run(req).unwrap();
        assert_eq!(res.expected, 8, "d(2,2,1) = 8");
        assert_eq!(res.solutions, 8);
        assert_eq!(res.compensators.len(), 8);
        assert!(res.max_residual < 1e-6, "residual {:.2e}", res.max_residual);
        engine.shutdown();
    }
}
