//! The shape-keyed cache of Pieri start systems.
//!
//! Everything expensive about a pole-placement request depends only on
//! the shape `(m, p, q)`: the poset and the one generic run of the
//! Pieri tree. This cache maps `Shape → Arc<StartBundle>` so the first
//! request for a shape pays the tree (on the global work-stealing pool)
//! and every later request — any plant, any poles — skips straight to
//! the `d(m,p,q)` cheap continuation paths.
//!
//! Concurrency: one builder per shape. A request that finds the slot
//! `Building` parks on a condvar and wakes with the finished bundle —
//! it never duplicates the build, and it counts as a hit (it did not pay
//! for the tree). A failed build returns the error to the request that
//! ran it and leaves the slot empty; parked waiters wake and retry the
//! build themselves, each retry drawing a *fresh* generic instance
//! (the attempt number is mixed into the seed — a deterministic
//! failure must not recur identically forever).
//!
//! Residency is bounded: the cache holds at most 32 shapes and about
//! 64 MiB of bundles (sized from [`StartBundle::approx_bytes`]), with
//! least-recently-used eviction, so a stream of distinct large shapes
//! cannot grow the server without bound. Evictions are counted and
//! exposed through `/v1/stats`.

use crate::job::JobError;
use crate::store::BundleStore;
use crate::sync::{rank, RankedMutex};
use pieri_certify::CertifyPolicy;
use pieri_core::{Shape, StartBundle};
use pieri_num::seeded_rng;
use pieri_parallel::solve_tree_parallel_prepared;
use pieri_trace::Counter;
use pieri_tracker::TrackSettings;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

/// Seed stream for bundle builds: the bundle for a shape is a
/// deterministic function of `(BUNDLE_SEED, shape)`, independent of
/// request order. Any generic start instance serves every target of its
/// shape equally well, so one fixed seed is all the cache needs.
const BUNDLE_SEED: u64 = 0x5eed_cafe;
/// Maximum number of resident shapes. Both residency limits apply;
/// eviction is least-recently-used over *ready* bundles (in-flight
/// builds are never evicted) and the most recently inserted bundle
/// always survives, even when it alone exceeds the byte budget.
const MAX_SHAPES: usize = 32;
/// Approximate byte budget across all resident bundles
/// ([`StartBundle::approx_bytes`]).
const MAX_BYTES: usize = 64 * 1024 * 1024;

/// Shared per-shape slot.
struct Slot {
    state: RankedMutex<SlotState>,
    ready: Condvar,
    /// LRU clock value of the slot's last hit (or build completion).
    last_used: AtomicU64,
    /// Build attempts so far; attempt 0 uses the pure
    /// `(BUNDLE_SEED, shape)` seed, retries after a failure mix the
    /// attempt number in so a doomed generic instance is not redrawn.
    attempts: AtomicUsize,
}

impl Default for Slot {
    fn default() -> Self {
        Slot {
            state: RankedMutex::new("cache-slot", rank::CACHE_SLOT, SlotState::Empty),
            ready: Condvar::new(),
            last_used: AtomicU64::new(0),
            attempts: AtomicUsize::new(0),
        }
    }
}

#[derive(Default)]
enum SlotState {
    #[default]
    Empty,
    Building,
    Ready(Arc<StartBundle>),
}

/// Aggregate cache counters (monotone; snapshot via
/// [`ShapeCache::stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from a ready bundle (including requests that
    /// waited for a concurrent build rather than duplicating it).
    pub hits: usize,
    /// Requests that paid for a bundle build.
    pub misses: usize,
    /// Distinct shapes currently resident.
    pub shapes: usize,
    /// Bundles evicted by the LRU residency limits.
    pub evictions: usize,
    /// Approximate bytes held by the resident bundles.
    pub resident_bytes: usize,
    /// Bundles restored from the on-disk store at startup — warm
    /// restarts that skipped the Pieri tree entirely.
    pub restored: usize,
    /// Store loads rescued from the `.bak` fallback after a torn or
    /// corrupt primary file (see [`crate::store::BundleStore`]).
    pub store_recovered: usize,
}

/// A concurrent map `(m, p, q) → Arc<StartBundle>`.
pub struct ShapeCache {
    slots: RankedMutex<HashMap<Shape, Arc<Slot>>>,
    // The monotone counters are `pieri_trace::Counter`s so the engine
    // can adopt them into its metrics registry
    // ([`ShapeCache::register_metrics`]): `/v1/stats` and `/v1/metrics`
    // then read cache activity from the same coherent snapshot as the
    // job ledger, instead of racing these fields one by one.
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    /// Monotone LRU clock; slots stamp their `last_used` from it.
    clock: AtomicU64,
    /// Residency limits ([`MAX_SHAPES`], [`MAX_BYTES`] outside tests).
    max_shapes: usize,
    max_bytes: usize,
    /// Optional on-disk persistence: successful builds are saved
    /// best-effort, [`ShapeCache::new`] preloads at startup.
    store: Option<BundleStore>,
    restored: Counter,
}

impl ShapeCache {
    /// Creates the cache. With a `store_dir`, it attaches an on-disk
    /// [`BundleStore`] there and eagerly restores every decodable bundle
    /// it holds, so a restarted server answers its first request for a
    /// known shape warm. Restoration is fully validated
    /// ([`StartBundle::restore`] regenerates the poset and generic
    /// instance from the persisted seed and residual-checks the
    /// coefficients); any defect silently degrades to a cold rebuild.
    /// `None` (or an unopenable directory) leaves the cache storeless.
    pub fn new(store_dir: Option<&Path>) -> Self {
        ShapeCache::with_limits(store_dir, MAX_SHAPES, MAX_BYTES)
    }

    fn with_limits(store_dir: Option<&Path>, max_shapes: usize, max_bytes: usize) -> Self {
        let mut cache = ShapeCache {
            slots: RankedMutex::new("cache-slots", rank::CACHE_SLOTS, HashMap::new()),
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
            clock: AtomicU64::new(0),
            max_shapes,
            max_bytes,
            store: None,
            restored: Counter::new(),
        };
        let Some(store) = store_dir.and_then(BundleStore::open) else {
            return cache;
        };
        for (shape, stored) in store.load_all() {
            // Only restore bundles this cache's own seed stream could
            // have built (any plausible retry attempt): the resident
            // set must stay a deterministic function of
            // `(BUNDLE_SEED, shape)` even across a store written by a
            // build with another seed.
            if !(0..8).any(|attempt| stored.seed == seed_for(&shape, attempt)) {
                continue;
            }
            let mut rng = seeded_rng(stored.seed);
            let Ok(bundle) =
                StartBundle::restore(shape.clone(), &mut rng, stored.coeffs, stored.build_time)
            else {
                continue;
            };
            let slot = Arc::new(Slot::default());
            // lint:lock-rank(cache-slot, 30)
            *slot.state.lock_recover() = SlotState::Ready(Arc::new(bundle));
            cache.touch(&slot);
            // lint:lock-rank(cache-slots, 20)
            cache.slots.lock_recover().insert(shape.clone(), slot);
            cache.restored.inc();
            cache.evict_over_limit(&shape);
        }
        cache.store = Some(store);
        cache
    }

    /// Adopts this cache's counters into `registry` (as
    /// `pieri_cache_*_total`), so registry snapshots — `/v1/stats`,
    /// `/v1/metrics` — cover cache activity coherently. Call once,
    /// before the cache serves traffic; counters accumulated earlier
    /// (e.g. store restores) stay visible, the instruments are shared,
    /// not copied.
    pub fn register_metrics(&self, registry: &pieri_trace::Registry) {
        registry.adopt_counter("pieri_cache_hits_total", self.hits.clone());
        registry.adopt_counter("pieri_cache_misses_total", self.misses.clone());
        registry.adopt_counter("pieri_cache_evictions_total", self.evictions.clone());
        registry.adopt_counter("pieri_cache_restored_total", self.restored.clone());
    }

    fn touch(&self, slot: &Slot) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        slot.last_used.store(now, Ordering::Relaxed);
    }

    /// Returns the bundle for `shape`, building it (once, whoever gets
    /// there first) on a miss. The boolean is `true` on a hit.
    pub fn get_or_build(&self, shape: &Shape) -> Result<(Arc<StartBundle>, bool), JobError> {
        let slot = {
            // lint:lock-rank(cache-slots, 20)
            let mut slots = self.slots.lock_recover();
            slots.entry(shape.clone()).or_default().clone()
        };

        // lint:lock-rank(cache-slot, 30)
        let mut state = slot.state.lock_recover();
        loop {
            match &*state {
                SlotState::Ready(bundle) => {
                    self.touch(&slot);
                    self.hits.inc();
                    return Ok((bundle.clone(), true));
                }
                SlotState::Building => {
                    state = crate::sync::wait_recover(&slot.ready, state);
                }
                SlotState::Empty => {
                    *state = SlotState::Building;
                    drop(state);
                    let attempt = slot.attempts.fetch_add(1, Ordering::Relaxed);
                    let seed = seed_for(shape, attempt);
                    let built = self.build(shape, seed);
                    // lint:lock-rank(cache-slot, 30)
                    let mut state = slot.state.lock_recover();
                    match built {
                        Ok(bundle) => {
                            let bundle = Arc::new(bundle);
                            *state = SlotState::Ready(bundle.clone());
                            self.touch(&slot);
                            slot.ready.notify_all();
                            self.misses.inc();
                            drop(state);
                            if let Some(store) = &self.store {
                                store.save(shape, seed, bundle.coeffs(), bundle.build_time());
                            }
                            self.evict_over_limit(shape);
                            return Ok((bundle, false));
                        }
                        Err(e) => {
                            // Leave the slot retryable and fail the
                            // waiters through the Empty branch retrying
                            // — they will attempt their own build.
                            *state = SlotState::Empty;
                            slot.ready.notify_all();
                            return Err(e);
                        }
                    }
                }
            }
        }
    }

    /// Builds a bundle outside any lock: one generic instance through
    /// the tree-parallel scheduler on the global work-stealing pool, with
    /// one virtual slave per pool thread. Panics inside the solver are
    /// contained here (the build runs caller-side, possibly on an engine
    /// worker thread).
    ///
    /// The build tracks with the settings of [`CertifyPolicy::full`], so
    /// failed tree paths are re-tracked: a failed path inside a shape
    /// build is a server-side defect, and a bounded tightened retry is
    /// strictly better than losing a root (which fails the whole build).
    /// Determinism holds — retries only fire on paths that would
    /// otherwise fail.
    fn build(&self, shape: &Shape, seed: u64) -> Result<StartBundle, JobError> {
        let shape = shape.clone();
        let settings = CertifyPolicy::full().effective_settings(&TrackSettings::default());
        catch_unwind(AssertUnwindSafe(move || {
            let t0 = Instant::now();
            let poset = pieri_core::Poset::build(&shape);
            let mut rng = seeded_rng(seed);
            let problem = pieri_core::PieriProblem::random(shape, &mut rng);
            let workers = rayon::current_num_threads().max(1);
            let (solution, _) = solve_tree_parallel_prepared(&problem, &poset, &settings, workers);
            StartBundle::from_parts(poset, problem, solution, t0.elapsed())
        }))
        .map_err(|payload| JobError::StartSystem(panic_message(&payload)))
    }

    /// Enforces the residency limits after `keep` became ready: evicts
    /// least-recently-used ready bundles (never `keep`, never in-flight
    /// builds) until both the shape count and the byte budget hold.
    fn evict_over_limit(&self, keep: &Shape) {
        // lint:lock-rank(cache-slots, 20)
        let mut slots = self.slots.lock_recover();
        loop {
            // Snapshot the ready slots: (shape, last_used, bytes).
            let mut ready: Vec<(Shape, u64, usize)> = Vec::new();
            for (shape, slot) in slots.iter() {
                // lint:lock-rank(cache-slot, 30)
                if let SlotState::Ready(bundle) = &*slot.state.lock_recover() {
                    ready.push((
                        shape.clone(),
                        slot.last_used.load(Ordering::Relaxed),
                        bundle.approx_bytes(),
                    ));
                }
            }
            let total: usize = ready.iter().map(|(_, _, b)| *b).sum();
            if ready.len() <= self.max_shapes && total <= self.max_bytes {
                return;
            }
            let victim = ready
                .iter()
                .filter(|(shape, _, _)| shape != keep)
                .min_by_key(|(_, used, _)| *used)
                .map(|(shape, _, _)| shape.clone());
            let Some(victim) = victim else {
                // Only the just-inserted bundle remains; it survives
                // even over budget (evicting it would thrash).
                return;
            };
            slots.remove(&victim);
            self.evictions.inc();
        }
    }

    /// Counter snapshot. `shapes` counts only *resident* bundles — a
    /// slot whose build is in flight (or failed and awaits retry) is
    /// not a shape the cache can serve, and must agree with
    /// [`ShapeCache::resident`].
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get() as usize,
            misses: self.misses.get() as usize,
            evictions: self.evictions.get() as usize,
            restored: self.restored.get() as usize,
            ..self.residency_stats()
        }
    }

    /// [`ShapeCache::stats`] with the monotone counters read from an
    /// already-taken registry snapshot (see
    /// [`ShapeCache::register_metrics`]) instead of the live atomics —
    /// the engine uses this so one `/v1/stats` payload is a single
    /// coherent read of the whole registry.
    pub fn stats_from(&self, snap: &pieri_trace::Snapshot) -> CacheStats {
        CacheStats {
            hits: snap.counter("pieri_cache_hits_total") as usize,
            misses: snap.counter("pieri_cache_misses_total") as usize,
            evictions: snap.counter("pieri_cache_evictions_total") as usize,
            restored: snap.counter("pieri_cache_restored_total") as usize,
            ..self.residency_stats()
        }
    }

    /// The lock-derived (non-counter) half of [`CacheStats`].
    fn residency_stats(&self) -> CacheStats {
        let (shapes, resident_bytes) = {
            // lint:lock-rank(cache-slots, 20)
            let slots = self.slots.lock_recover();
            let mut count = 0usize;
            let mut bytes = 0usize;
            for slot in slots.values() {
                // lint:lock-rank(cache-slot, 30)
                if let SlotState::Ready(bundle) = &*slot.state.lock_recover() {
                    count += 1;
                    bytes += bundle.approx_bytes();
                }
            }
            (count, bytes)
        };
        CacheStats {
            shapes,
            resident_bytes,
            store_recovered: self.store.as_ref().map_or(0, |s| s.recovered()),
            ..CacheStats::default()
        }
    }

    /// The resident shapes with their root counts and build times — the
    /// `/v1/stats` payload.
    pub fn resident(&self) -> Vec<(Shape, usize, Duration)> {
        // lint:lock-rank(cache-slots, 20)
        let slots = self.slots.lock_recover();
        let mut out = Vec::new();
        for (shape, slot) in slots.iter() {
            // lint:lock-rank(cache-slot, 30)
            if let SlotState::Ready(bundle) = &*slot.state.lock_recover() {
                out.push((shape.clone(), bundle.root_count(), bundle.build_time()));
            }
        }
        out.sort_by_key(|(s, _, _)| (s.m(), s.p(), s.q()));
        out
    }
}

/// The deterministic build seed for `shape` at build attempt `attempt`.
/// Attempt 0 seeds purely from `(BUNDLE_SEED, shape)`; retries perturb
/// the stream so a doomed generic instance is not redrawn. The seed is
/// what the on-disk store persists — replaying it through `seeded_rng`
/// regenerates the identical bundle.
fn seed_for(shape: &Shape, attempt: usize) -> u64 {
    BUNDLE_SEED ^ shape_tag(shape) ^ (attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Mixes a shape into the bundle seed stream (FNV-1a over the dims).
fn shape_tag(shape: &Shape) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for dim in [shape.m(), shape.p(), shape.q()] {
        h ^= dim as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Best-effort panic payload to string.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> ShapeCache {
        ShapeCache::new(None)
    }

    #[test]
    fn second_lookup_is_a_hit_and_shares_the_bundle() {
        let c = cache();
        let shape = Shape::new(2, 2, 0);
        let (a, hit_a) = c.get_or_build(&shape).unwrap();
        let (b, hit_b) = c.get_or_build(&shape).unwrap();
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b), "one bundle per shape");
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses, stats.shapes), (1, 1, 1));
        assert_eq!(stats.evictions, 0);
        assert!(stats.resident_bytes > 0, "byte estimate is nonzero");
    }

    #[test]
    fn distinct_shapes_get_distinct_bundles() {
        let c = cache();
        let (a, _) = c.get_or_build(&Shape::new(2, 2, 0)).unwrap();
        let (b, _) = c.get_or_build(&Shape::new(3, 2, 0)).unwrap();
        assert_eq!(a.root_count(), 2);
        assert_eq!(b.root_count(), 5);
        assert_eq!(c.stats().shapes, 2);
        let resident = c.resident();
        assert_eq!(resident.len(), 2);
    }

    #[test]
    fn concurrent_requests_build_once() {
        let c = Arc::new(cache());
        let shape = Shape::new(2, 2, 1);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                let shape = shape.clone();
                std::thread::spawn(move || c.get_or_build(&shape).unwrap().0)
            })
            .collect();
        let bundles: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for b in &bundles[1..] {
            assert!(Arc::ptr_eq(&bundles[0], b));
        }
        let stats = c.stats();
        assert_eq!(stats.misses, 1, "exactly one thread built");
        assert_eq!(stats.hits, 3, "the others shared it");
    }

    #[test]
    fn tree_parallel_build_matches_root_count() {
        let c = cache();
        let (bundle, hit) = c.get_or_build(&Shape::new(2, 2, 1)).unwrap();
        assert!(!hit);
        assert_eq!(bundle.root_count(), 8);
    }

    #[test]
    fn lru_eviction_by_shape_count() {
        let c = ShapeCache::with_limits(None, 2, usize::MAX);
        let s220 = Shape::new(2, 2, 0);
        let s320 = Shape::new(3, 2, 0);
        let s210 = Shape::new(2, 1, 0);
        c.get_or_build(&s220).unwrap();
        c.get_or_build(&s320).unwrap();
        // Touch (2,2,0) so (3,2,0) becomes the LRU victim.
        assert!(c.get_or_build(&s220).unwrap().1, "hit refreshes LRU");
        c.get_or_build(&s210).unwrap();
        let stats = c.stats();
        assert_eq!(stats.shapes, 2, "capacity enforced");
        assert_eq!(stats.evictions, 1);
        let resident: Vec<Shape> = c.resident().into_iter().map(|(s, _, _)| s).collect();
        assert!(resident.contains(&s220), "recently used shape survives");
        assert!(resident.contains(&s210), "newcomer survives");
        assert!(!resident.contains(&s320), "LRU shape evicted");
        // The evicted shape rebuilds on demand (a miss, not an error).
        let (_, hit) = c.get_or_build(&s320).unwrap();
        assert!(!hit);
    }

    #[test]
    fn byte_budget_evicts_but_newcomer_survives() {
        // A budget below a single bundle: every insert evicts the
        // previous resident, but the newcomer itself always stays.
        let c = ShapeCache::with_limits(None, 8, 1);
        c.get_or_build(&Shape::new(2, 2, 0)).unwrap();
        assert_eq!(c.stats().shapes, 1, "over-budget newcomer survives");
        c.get_or_build(&Shape::new(3, 2, 0)).unwrap();
        let stats = c.stats();
        assert_eq!(stats.shapes, 1);
        assert_eq!(stats.evictions, 1);
        assert_eq!(c.resident()[0].0, Shape::new(3, 2, 0));
    }

    #[test]
    fn store_warm_restarts_and_corruption_falls_back_to_rebuild() {
        let dir = std::env::temp_dir().join(format!("pieri-cache-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let shape = Shape::new(2, 2, 0);

        // First "process": cold build, persisted on the way out.
        let first = ShapeCache::new(Some(&dir));
        assert_eq!(first.stats().restored, 0, "nothing on disk yet");
        let (cold, hit) = first.get_or_build(&shape).unwrap();
        assert!(!hit);

        // Second "process": the bundle preloads at construction and the
        // first request is a hit with bitwise-identical coefficients.
        let second = ShapeCache::new(Some(&dir));
        let stats = second.stats();
        assert_eq!((stats.restored, stats.shapes), (1, 1), "warm restart");
        let (warm, hit) = second.get_or_build(&shape).unwrap();
        assert!(hit, "restored bundle serves the first request");
        assert_eq!(warm.coeffs(), cold.coeffs(), "bitwise identical");

        // Corrupt the file: the next restart silently rebuilds.
        let file = std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        std::fs::write(&file, "torn").unwrap();
        let third = ShapeCache::new(Some(&dir));
        assert_eq!(third.stats().restored, 0, "corrupt store restores nothing");
        let (rebuilt, hit) = third.get_or_build(&shape).unwrap();
        assert!(!hit, "cold rebuild, not an error");
        assert_eq!(rebuilt.coeffs(), cold.coeffs(), "same seed, same bundle");

        // A bundle saved under a seed this cache's stream never draws
        // is not restored either: it degrades to a rebuild (no restore,
        // no error).
        let store = BundleStore::open(&dir).unwrap();
        store.save(&shape, 0xbad_5eed, cold.coeffs(), cold.build_time());
        let fourth = ShapeCache::new(Some(&dir));
        assert_eq!(fourth.stats().restored, 0, "foreign-seed store rejected");
        let (_, hit) = fourth.get_or_build(&shape).unwrap();
        assert!(!hit, "cold rebuild, not an error");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bundle_byte_estimate_scales_with_shape() {
        let c = cache();
        let (small, _) = c.get_or_build(&Shape::new(2, 2, 0)).unwrap();
        let (large, _) = c.get_or_build(&Shape::new(2, 2, 1)).unwrap();
        assert!(small.approx_bytes() > 0);
        assert!(
            large.approx_bytes() > small.approx_bytes(),
            "(2,2,1) bundle ({}) must outweigh (2,2,0) ({})",
            large.approx_bytes(),
            small.approx_bytes()
        );
    }
}
