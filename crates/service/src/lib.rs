//! Batch pole-placement service: feedback laws on demand.
//!
//! The paper's punchline is that Pieri homotopies make **all** feedback
//! laws of a plant computable; the service layer makes them computable
//! *cheaply, repeatedly and concurrently*. Everything expensive about a
//! request depends only on the shape `(m, p, q)` — the poset (Fig. 4)
//! and one generic run of the Pieri tree — so a long-lived server that
//! caches that work per shape answers every subsequent request with just
//! `d(m,p,q)` straight-line continuation paths (the coefficient-
//! parameter "cheap trick" of Section III).
//!
//! The layers, outermost first — each reusable without the ones above
//! it:
//!
//! * [`http`] — hand-rolled HTTP/1.1 + JSON transport on `std::net`
//!   ([`Server`], [`Client`]), bounded inputs, keep-alive and
//!   pipelining, per-request `x-deadline-ms` deadlines;
//! * `reactor` (internal) — the event-driven core behind [`Server`]: a
//!   few epoll threads multiplex every connection, shed load with
//!   structured 503s, and never block on a socket;
//! * [`wire`] — the JSON codec for problems, compensators, errors and
//!   diagnostics (on the vendored `minijson`);
//! * [`engine`] — bounded job queue, worker threads, graceful shutdown,
//!   per-job [`pieri_tracker::TrackStats`]. Two ways in:
//!   [`Engine::submit_async`] admits a job with a completion callback and
//!   sheds on a full queue (the reactor's path); [`Engine::run`] is the
//!   blocking helper on the same path, waiting for queue space and then
//!   for the answer;
//! * [`cache`] — the shape-keyed [`pieri_core::StartBundle`] cache
//!   (build-once-per-shape, hits measured);
//! * [`store`] — versioned on-disk bundle persistence so a restarted
//!   server answers its first request warm;
//! * [`job`] — typed requests/results with structured errors; no panic
//!   crosses this boundary.
//!
//! # In-process quickstart
//!
//! ```
//! use pieri_service::{Engine, EngineConfig, JobRequest};
//!
//! let engine = Engine::start(EngineConfig::default());
//! let job = JobRequest::SolvePieri { m: 2, p: 2, q: 0, seed: 1, certify: false };
//! let cold = engine.run(job.clone()).unwrap();
//! assert_eq!(cold.solutions, 2);
//! assert!(!cold.cache_hit);
//! let warm = engine.run(job).unwrap();
//! assert!(warm.cache_hit, "second request skips the Pieri tree");
//! assert_eq!(warm.coeffs, cold.coeffs, "and is bitwise identical");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod chaos;
pub mod engine;
pub mod http;
pub mod job;
mod reactor;
pub mod store;
mod sync;
pub mod wire;

/// The deterministic fault-injection registry (`chaos` feature only),
/// re-exported so integration tests and harnesses can install and
/// inspect fault plans against this very process.
#[cfg(feature = "chaos")]
pub use pieri_chaos;

/// The observability layer: the metrics registry behind `/v1/stats`
/// and `/v1/metrics` is always on, while spans and trace ids record
/// once a [`pieri_trace::TraceConfig`] is installed. Re-exported so
/// integration tests and harnesses can install trace configs and read
/// this process's rings and registry.
pub use pieri_trace;

pub use cache::{CacheStats, ShapeCache};
pub use engine::{Engine, EngineConfig, EngineStats, SupervisorConfig};
pub use http::{Client, Server, ServerOptions};
pub use job::{CompensatorAnswer, JobError, JobRequest, JobResult};
