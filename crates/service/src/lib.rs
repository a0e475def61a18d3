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
//!   crosses this boundary;
//! * [`chaos`] — deterministic fault injection at the failure points of
//!   the layers above (sockets, workers, bundle store), switched on at
//!   run time by installing a [`chaos::FaultPlan`].
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
pub mod chaos;
pub mod engine;
pub mod http;
pub mod job;
mod reactor;
pub mod store;
mod sync;
pub mod wire;

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

/// The fault-plan grammar and the process-global registry of
/// [`chaos`], through the surface the fault sites use. They sit in the
/// crate root to keep the test ids (`tests::<name>`) they had in the
/// `pieri-chaos` crate, which this module replaced.
#[cfg(test)]
mod tests {
    use crate::chaos::{clear, fires, install, FaultPlan};
    use std::sync::Arc;

    fn draws(plan: &FaultPlan, site: &str, n: usize) -> Vec<bool> {
        (0..n).map(|_| plan.fires(site).is_some()).collect()
    }

    #[test]
    fn nth_schedule_fires_exactly_once() {
        let plan = FaultPlan::parse("worker.panic@3").unwrap();
        assert_eq!(
            draws(&plan, "worker.panic", 6),
            vec![false, false, true, false, false, false]
        );
        assert_eq!(plan.fired("worker.panic"), 1);
    }

    #[test]
    fn range_schedule_covers_inclusive_window() {
        let plan = FaultPlan::parse("sock.accept.fail@2..4").unwrap();
        assert_eq!(
            draws(&plan, "sock.accept.fail", 6),
            vec![false, true, true, true, false, false]
        );
    }

    #[test]
    fn every_schedule_is_periodic() {
        let plan = FaultPlan::parse("poll.spurious/3").unwrap();
        assert_eq!(
            draws(&plan, "poll.spurious", 9),
            vec![false, false, true, false, false, true, false, false, true]
        );
    }

    #[test]
    fn bare_site_always_fires_and_carries_param() {
        let plan = FaultPlan::parse("worker.delay:ms=120").unwrap();
        let hit = plan.fires("worker.delay").unwrap();
        assert_eq!(hit.param_or(5), 120);
        assert!(plan.fires("worker.delay").is_some());
        assert!(plan.fires("worker.other").is_none());
        let bare = FaultPlan::parse("worker.delay").unwrap();
        assert_eq!(bare.fires("worker.delay").unwrap().param_or(5), 5);
    }

    #[test]
    fn probability_is_deterministic_for_a_seed() {
        let a = FaultPlan::parse("seed=42;sock.read.eagain%0.5").unwrap();
        let b = FaultPlan::parse("seed=42;sock.read.eagain%0.5").unwrap();
        let seq_a = draws(&a, "sock.read.eagain", 64);
        assert_eq!(seq_a, draws(&b, "sock.read.eagain", 64));
        let fired = seq_a.iter().filter(|f| **f).count();
        assert!(
            (8..=56).contains(&fired),
            "p=0.5 over 64 draws fired {fired} times"
        );

        let c = FaultPlan::parse("seed=43;sock.read.eagain%0.5").unwrap();
        assert_ne!(
            seq_a,
            draws(&c, "sock.read.eagain", 64),
            "different seeds should differ somewhere in 64 draws"
        );
    }

    #[test]
    fn probability_extremes() {
        let never = FaultPlan::parse("a%0").unwrap();
        assert!((0..32).all(|_| never.fires("a").is_none()));
        let always = FaultPlan::parse("a%1").unwrap();
        assert!((0..32).all(|_| always.fires("a").is_some()));
    }

    #[test]
    fn prefix_pattern_matches_subtree() {
        let plan = FaultPlan::parse("sock.read.*").unwrap();
        assert!(plan.fires("sock.read.eagain").is_some());
        assert!(plan.fires("sock.read.short").is_some());
        assert!(plan.fires("sock.read").is_some());
        assert!(plan.fires("sock.write.short").is_none());
        assert!(plan.fires("sock.readx").is_none());
    }

    #[test]
    fn first_matching_clause_wins_but_all_count_hits() {
        let plan = FaultPlan::parse("w.x@1:ms=7;w.x@2:ms=9").unwrap();
        assert_eq!(plan.fires("w.x").unwrap().param_or(0), 7);
        // The second clause counted the first hit too, so it fires on
        // the second.
        assert_eq!(plan.fires("w.x").unwrap().param_or(0), 9);
        assert!(plan.fires("w.x").is_none());
        assert_eq!(plan.fired("w.x"), 2);

        let shadowed = FaultPlan::parse("w.x@1:ms=7;w.x@1:ms=9").unwrap();
        assert_eq!(shadowed.fires("w.x").unwrap().param_or(0), 7);
        // Both clauses triggered on that hit; the first one's parameter
        // is the one delivered.
        assert_eq!(shadowed.fired("w.x"), 2);
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        for bad in [
            "site@0",
            "site@3..1",
            "site/0",
            "site%1.5",
            "site%-0.1",
            "@3",
            "seed=notanumber",
            "site:ms",
            "site:ms=xyz",
            "si te@1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn parse_tolerates_whitespace_and_empty_clauses() {
        let spaced =
            FaultPlan::parse(" seed=9 ; ; worker.panic@1 ;; sock.read.eagain%0.25 ").unwrap();
        let compact = FaultPlan::parse("seed=9;worker.panic@1;sock.read.eagain%0.25").unwrap();
        assert!(spaced.fires("worker.panic").is_some());
        assert_eq!(
            draws(&spaced, "sock.read.eagain", 64),
            draws(&compact, "sock.read.eagain", 64),
            "the seed clause parsed through the whitespace"
        );
    }

    /// The registry is process-global and engine workers in this test
    /// binary hit their sites on every loop, so the test uses a site
    /// name no service code calls.
    #[test]
    fn registry_install_fires_clear() {
        const SITE: &str = "test.registry";
        clear();
        assert!(fires(SITE).is_none(), "nothing fires before install");
        let plan = Arc::new(FaultPlan::parse("test.registry@1").unwrap());
        install(Arc::clone(&plan));
        assert!(fires(SITE).is_some());
        assert!(fires(SITE).is_none(), "Nth schedule spent");
        assert_eq!(plan.fired(SITE), 1);
        let removed = clear().expect("plan was installed");
        assert!(Arc::ptr_eq(&removed, &plan));
        assert!(fires(SITE).is_none());
    }
}
