//! Poison-recovering, rank-checked lock primitives for the service.
//!
//! Two failure modes are handled here, one per layer:
//!
//! **Poisoning.** The service's no-panic guarantee (`pieri-lint` rule
//! `no-panic-in-service`) has a second-order failure mode: a panic on
//! *any* thread holding one of our mutexes poisons it, and a
//! `lock().expect(…)` then converts every later request into a fresh
//! panic — one bad job becomes a permanent denial of service. Engine
//! workers already isolate job panics with `catch_unwind`, but cache
//! builds run caller-side and the queue/cache locks are shared; recovery
//! must live at the lock sites themselves. Recovery via
//! [`std::sync::PoisonError::into_inner`] is sound here because every
//! protected structure is valid after any partial update the panicking
//! thread could have made: the queue holds fully-constructed `Queued`
//! values (pushed or not), cache slots transition between complete
//! `SlotState`s, and the client's connection pool holds an `Option` that
//! is at worst `None`. Nothing is ever left half-written under a lock.
//!
//! **Deadlock.** The service has twelve independent lock objects; nesting
//! them in inconsistent orders across threads deadlocks. Every lock is
//! therefore a [`RankedMutex`] carrying a `(name, rank)` pair from
//! [`rank`], and acquisition debug-asserts that the new rank is
//! strictly greater than every rank this thread already holds (tracked
//! in a thread-local stack). The *same* pairs appear in
//! `// lint:lock-rank(<name>, <N>)` annotations at each acquisition, so
//! the `lock-order` rule in `pieri-analyze` proves the global order
//! statically while the wrapper catches at runtime whatever the lint's
//! approximations miss. Release builds skip the assert but keep the
//! (cheap) stack bookkeeping.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard};

/// The global lock order: ranks must strictly increase along every
/// nesting chain, so a lock may only be taken while holding locks of
/// *lower* rank. The reactor locks sit below the queue so an I/O
/// thread holding one may still submit into the engine; nothing above
/// the queue may reach back into a reactor lock.
pub(crate) mod rank {
    /// `reactor::ReactorShared.inbox` — freshly accepted connections
    /// handed to an I/O thread.
    pub(crate) const REACTOR_INBOX: u32 = 4;
    /// `reactor::ReactorShared.completions` — finished jobs on their
    /// way back to a reactor.
    pub(crate) const REACTOR_COMPLETIONS: u32 = 6;
    /// `engine::Shared.reaper` — dead-worker notifications for the
    /// supervisor. Below the queue: a dying worker's sentinel reports
    /// here with every other guard already released, and the supervisor
    /// takes the queue only after dropping this.
    pub(crate) const ENGINE_SUPERVISOR: u32 = 8;
    /// `engine::Shared.state` — the job queue.
    pub(crate) const ENGINE_QUEUE: u32 = 10;
    /// `engine::Shared.slots` — per-worker supervision slots (claimed
    /// job, generation, join handle). Above the queue: a worker claims
    /// its slot after popping, with the queue lock released.
    pub(crate) const ENGINE_WORKERS: u32 = 12;
    /// `cache::ShapeCache.slots` — the shape → slot map.
    pub(crate) const CACHE_SLOTS: u32 = 20;
    /// `cache::Slot.state` — one slot's build state.
    pub(crate) const CACHE_SLOT: u32 = 30;
    /// `engine::Engine.handles` — worker join handles (shutdown only).
    pub(crate) const ENGINE_HANDLES: u32 = 40;
    /// `http::Server.reactor_handles` — reactor join handles
    /// (shutdown only).
    pub(crate) const HTTP_ACCEPT: u32 = 50;
    /// `http::Client.conn` — the pooled client connection.
    pub(crate) const CLIENT_CONN: u32 = 60;
    /// `chaos::ACTIVE` — the installed fault plan. Above every other
    /// service lock: fault sites fire inside their critical sections
    /// (`worker.panic` holds the engine queue).
    pub(crate) const CHAOS_PLAN: u32 = 70;
    /// `chaos::Clause.rng` — one probabilistic clause's draw stream,
    /// taken after the plan lock is released.
    pub(crate) const CHAOS_RNG: u32 = 80;
}

thread_local! {
    /// `(rank, name)` of every ranked guard this thread holds, in
    /// acquisition order.
    static HELD: RefCell<Vec<(u32, &'static str)>> = const { RefCell::new(Vec::new()) };
}

/// A mutex with a name and a place in the global lock order.
pub(crate) struct RankedMutex<T> {
    name: &'static str,
    rank: u32,
    inner: Mutex<T>,
}

impl<T> RankedMutex<T> {
    /// A new ranked mutex; `name` and `rank` must match the
    /// `lint:lock-rank` annotations at its acquisition sites.
    pub(crate) const fn new(name: &'static str, rank: u32, value: T) -> Self {
        RankedMutex {
            name,
            rank,
            inner: Mutex::new(value),
        }
    }

    /// Locks, recovering from poison, after debug-asserting that this
    /// acquisition respects the global rank order. The assert fires
    /// *before* locking, so a violation panics without poisoning
    /// anything.
    pub(crate) fn lock_recover(&self) -> RankedGuard<'_, T> {
        HELD.with(|held| {
            if let Some(&(top_rank, top_name)) = held.borrow().last() {
                debug_assert!(
                    self.rank > top_rank,
                    "lock-order violation: acquiring `{}` (rank {}) while holding \
                     `{}` (rank {}); ranks must strictly increase",
                    self.name,
                    self.rank,
                    top_name,
                    top_rank
                );
            }
        });
        let guard = self
            .inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        HELD.with(|held| held.borrow_mut().push((self.rank, self.name)));
        RankedGuard {
            guard,
            entry: HeldEntry {
                rank: self.rank,
                name: self.name,
            },
        }
    }
}

/// The thread-local bookkeeping half of a [`RankedGuard`]: removes its
/// `(rank, name)` entry from [`HELD`] on drop. Guards can be dropped in
/// any order, so the *last matching* entry is removed, not the top.
pub(crate) struct HeldEntry {
    rank: u32,
    name: &'static str,
}

impl Drop for HeldEntry {
    fn drop(&mut self) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held
                .iter()
                .rposition(|&(r, n)| r == self.rank && n == self.name)
            {
                held.remove(pos);
            }
        });
    }
}

/// A guard from [`RankedMutex::lock_recover`]. Deliberately has no
/// `Drop` impl of its own so [`wait_recover`] can destructure it; the
/// field order releases the mutex first, then pops the held-rank entry.
pub(crate) struct RankedGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    entry: HeldEntry,
}

impl<T> Deref for RankedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for RankedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// Waits on `condvar` with a ranked guard, recovering the reacquired
/// guard if the lock was poisoned while this thread slept. The guard's
/// held-rank entry stays on the stack across the wait: the lock is
/// reacquired before this returns, so from this thread's ordering
/// perspective it was never released — and while asleep the thread
/// acquires nothing.
pub(crate) fn wait_recover<'a, T>(
    condvar: &Condvar,
    guard: RankedGuard<'a, T>,
) -> RankedGuard<'a, T> {
    let RankedGuard { guard, entry } = guard;
    let guard = condvar
        .wait(guard)
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    RankedGuard { guard, entry }
}

/// [`wait_recover`] with a timeout: parks at most `timeout`, recovering
/// the reacquired guard from poison either way. The second return is
/// `true` when the wait timed out rather than being notified (spurious
/// wakeups report `false`, as with [`std::sync::Condvar`]).
pub(crate) fn wait_timeout_recover<'a, T>(
    condvar: &Condvar,
    guard: RankedGuard<'a, T>,
    timeout: std::time::Duration,
) -> (RankedGuard<'a, T>, bool) {
    let RankedGuard { guard, entry } = guard;
    let (guard, timed_out) = match condvar.wait_timeout(guard, timeout) {
        Ok((g, t)) => (g, t.timed_out()),
        Err(poisoned) => {
            let (g, t) = poisoned.into_inner();
            (g, t.timed_out())
        }
    };
    (RankedGuard { guard, entry }, timed_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;
    use std::time::Duration;

    fn held_snapshot() -> Vec<(u32, &'static str)> {
        HELD.with(|held| held.borrow().clone())
    }

    /// The regression the helpers exist for: before them, the service's
    /// lock sites used `.expect("… poisoned")`, so one panic while
    /// holding a shared lock turned every subsequent access — i.e. every
    /// subsequent request — into a panic. Recovery keeps serving.
    #[test]
    fn lock_recovers_after_holder_panics() {
        let counter = Arc::new(RankedMutex::new("engine-queue", rank::ENGINE_QUEUE, 0usize));
        let poisoner = {
            let counter = counter.clone();
            std::thread::spawn(move || {
                let mut n = counter.lock_recover();
                *n = 41;
                panic!("die while holding the lock");
            })
        };
        assert!(poisoner.join().is_err(), "thread panicked as arranged");
        assert!(counter.inner.is_poisoned(), "mutex really is poisoned");

        let mut n = counter.lock_recover();
        assert_eq!(*n, 41, "state from before the panic is intact");
        *n += 1;
        drop(n);
        assert_eq!(*counter.lock_recover(), 42, "lock keeps working");
        assert!(held_snapshot().is_empty());
    }

    /// Increasing-rank nesting passes, and the held stack empties when
    /// the guards go away — in either drop order.
    #[test]
    fn increasing_ranks_pass_and_stack_unwinds() {
        let low = RankedMutex::new("engine-queue", rank::ENGINE_QUEUE, 1u8);
        let high = RankedMutex::new("cache-slots", rank::CACHE_SLOTS, 2u8);
        {
            let g_low = low.lock_recover();
            let g_high = high.lock_recover();
            assert_eq!(
                held_snapshot(),
                vec![
                    (rank::ENGINE_QUEUE, "engine-queue"),
                    (rank::CACHE_SLOTS, "cache-slots")
                ]
            );
            // Non-LIFO release: drop the outer guard first.
            drop(g_low);
            assert_eq!(held_snapshot(), vec![(rank::CACHE_SLOTS, "cache-slots")]);
            drop(g_high);
        }
        assert!(held_snapshot().is_empty());
    }

    /// The acceptance case: the same `(name, rank)` pairs the
    /// `lock-order` lint reads make an inverted acquisition panic in
    /// debug builds — before the inner lock is taken, so nothing is
    /// poisoned.
    #[test]
    fn rank_inversion_debug_asserts() {
        let slots = RankedMutex::new("cache-slots", rank::CACHE_SLOTS, ());
        let queue = RankedMutex::new("engine-queue", rank::ENGINE_QUEUE, ());
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _outer = slots.lock_recover();
            let _inner = queue.lock_recover(); // 10 while holding 20
        }));
        if cfg!(debug_assertions) {
            let err = result.expect_err("inversion must panic in debug builds");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("lock-order violation"), "{msg}");
            assert!(msg.contains("engine-queue"), "{msg}");
        } else {
            assert!(result.is_ok(), "release builds skip the assert");
        }
        assert!(held_snapshot().is_empty(), "unwinding released every entry");
        // The locks themselves stay usable (the assert fired before
        // locking the inner mutex, and unwinding released the outer).
        drop(queue.lock_recover());
        drop(slots.lock_recover());
    }

    /// Only debug builds carry the rank check; without it the second
    /// lock self-deadlocks, so the test exists only where it can return.
    #[cfg(debug_assertions)]
    #[test]
    fn reacquiring_the_same_rank_debug_asserts() {
        let m = Arc::new(RankedMutex::new("cache-slot", rank::CACHE_SLOT, ()));
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _a = m.lock_recover();
            let _b = m.lock_recover();
        }));
        assert!(result.is_err(), "re-acquiring a held rank must panic");
        assert!(held_snapshot().is_empty());
    }

    /// `wait_recover` under contention: many waiters park on one ranked
    /// lock, each keeps its held-rank entry across the sleep, and every
    /// one observes the final value.
    #[test]
    fn wait_recover_under_contention() {
        const WAITERS: usize = 8;
        let shared = Arc::new((
            RankedMutex::new("engine-queue", rank::ENGINE_QUEUE, 0usize),
            Condvar::new(),
        ));
        let threads: Vec<_> = (0..WAITERS)
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || {
                    let (lock, cv) = &*shared;
                    let mut g = lock.lock_recover();
                    while *g < WAITERS {
                        g = wait_recover(cv, g);
                        assert_eq!(
                            held_snapshot(),
                            vec![(rank::ENGINE_QUEUE, "engine-queue")],
                            "entry survives the wait"
                        );
                    }
                    *g
                })
            })
            .collect();
        for _ in 0..WAITERS {
            std::thread::sleep(Duration::from_millis(1));
            let (lock, cv) = &*shared;
            *lock.lock_recover() += 1;
            cv.notify_all();
        }
        for t in threads {
            assert_eq!(t.join().expect("waiter exits cleanly"), WAITERS);
        }
    }

    /// A waiter that panics *after* waking (holding the reacquired
    /// guard) poisons the mutex; other waiters recover and finish.
    #[test]
    fn wait_recover_survives_a_panicking_waiter() {
        let shared = Arc::new((
            RankedMutex::new("cache-slot", rank::CACHE_SLOT, (false, false)),
            Condvar::new(),
        ));
        let victim = {
            let shared = shared.clone();
            std::thread::spawn(move || {
                let (lock, cv) = &*shared;
                let mut g = lock.lock_recover();
                while !g.0 {
                    g = wait_recover(cv, g);
                }
                panic!("die holding the reacquired guard");
            })
        };
        let survivor = {
            let shared = shared.clone();
            std::thread::spawn(move || {
                let (lock, cv) = &*shared;
                let mut g = lock.lock_recover();
                while !g.1 {
                    g = wait_recover(cv, g);
                }
                assert!(g.0, "state from the panicking waiter is intact");
            })
        };
        {
            let (lock, cv) = &*shared;
            lock.lock_recover().0 = true;
            cv.notify_all();
        }
        assert!(victim.join().is_err(), "victim panicked as arranged");
        {
            let (lock, cv) = &*shared;
            // This lock itself exercises poison recovery.
            lock.lock_recover().1 = true;
            cv.notify_all();
        }
        survivor.join().expect("survivor recovered from the poison");
        assert!(held_snapshot().is_empty());
    }

    #[test]
    fn wait_recover_on_poisoned_condvar_pair() {
        let pair = Arc::new((
            RankedMutex::new("cache-slot", rank::CACHE_SLOT, false),
            Condvar::new(),
        ));
        // Poison the mutex first…
        {
            let pair = pair.clone();
            let t = std::thread::spawn(move || {
                let _g = pair.0.lock_recover();
                panic!("poison it");
            });
            assert!(t.join().is_err());
        }
        assert!(pair.0.inner.is_poisoned(), "mutex really is poisoned");
        // …then prove a waiter still completes a wait/notify round-trip.
        let waker = {
            let pair = pair.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                *pair.0.lock_recover() = true;
                pair.1.notify_all();
            })
        };
        let mut ready = pair.0.lock_recover();
        while !*ready {
            ready = wait_recover(&pair.1, ready);
        }
        drop(ready);
        waker.join().expect("waker exits cleanly");
        assert!(held_snapshot().is_empty());
    }
}
