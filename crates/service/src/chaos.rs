//! Deterministic fault injection for the service stack.
//!
//! A [`FaultPlan`] is a seeded, schedule-addressable description of
//! *which* fault sites fire and *when*. Sites are plain string names at
//! the service's failure points (e.g. `sock.read.eagain`,
//! `worker.panic`, `store.write.torn`); the plan decides, per hit,
//! whether the site triggers. Everything is deterministic: the same
//! plan against the same sequence of hits produces the same faults, so
//! a chaos run that finds a bug is replayable from its spec string
//! alone.
//!
//! # Activation
//!
//! Every build carries the fault sites. Nothing fires until a plan is
//! [`install`]ed, and [`clear`] switches injection off again in the
//! live process, without a restart. With no plan installed a site costs
//! one inlined load of an atomic flag.
//!
//! ```
//! use pieri_service::chaos::{self, FaultPlan};
//! use pieri_service::{Engine, EngineConfig, JobRequest};
//! use std::sync::Arc;
//!
//! // Panic the first job a worker claims: the supervisor restarts the
//! // worker and requeues the claim, so the caller still gets its answer.
//! let plan = Arc::new(FaultPlan::parse("seed=7; worker.panic.job@1").unwrap());
//! chaos::install(Arc::clone(&plan));
//! let engine = Engine::start(EngineConfig::default());
//! let job = JobRequest::SolvePieri { m: 2, p: 2, q: 0, seed: 1, certify: false };
//! assert_eq!(engine.run(job).unwrap().solutions, 2);
//! assert_eq!(plan.fired("worker.panic.job"), 1);
//! chaos::clear();
//! engine.shutdown();
//! ```
//!
//! # Spec grammar
//!
//! A plan is a `;`-separated list of clauses:
//!
//! ```text
//! seed=42; worker.wedge@1:ms=400; sock.read.eagain%0.25; store.write.torn@1..3; poll.spurious/7
//! ```
//!
//! | clause          | meaning                                             |
//! |-----------------|-----------------------------------------------------|
//! | `seed=N`        | seeds every probabilistic schedule in the plan      |
//! | `site@N`        | fire on exactly the N-th hit of `site` (1-based)    |
//! | `site@A..B`     | fire on hits A through B inclusive                  |
//! | `site/K`        | fire on every K-th hit                              |
//! | `site%P`        | fire each hit with probability P (deterministic)    |
//! | `site`          | fire on every hit                                   |
//! | `...:KEY=V`     | attach an integer parameter (e.g. `:ms=400`)        |
//!
//! A site name may end in `.*` to match every site sharing the prefix.
//! Multiple clauses may target the same site; each keeps its own hit
//! counter and the first clause (in spec order) that triggers wins.
//!
//! # Sites
//!
//! | site                 | effect                                        |
//! |----------------------|-----------------------------------------------|
//! | `poll.spurious`      | reactor poll wakes with no events             |
//! | `sock.read.eagain`   | connection read reports `WouldBlock`          |
//! | `sock.read.short`    | read capped to `:n=` bytes (default 1)        |
//! | `sock.write.eagain`  | connection write reports `WouldBlock`         |
//! | `sock.write.short`   | write capped to `:n=` bytes (default 1)       |
//! | `sock.accept.fail`   | accepted connection dropped on the floor      |
//! | `worker.panic`       | worker panics holding the queue lock          |
//! | `worker.panic.job`   | worker panics after claiming a job            |
//! | `worker.wedge`       | worker stalls `:ms=` (default 500) pre-solve  |
//! | `worker.delay`       | benign slow-path delay of `:ms=` (default 10) |
//! | `store.write.torn`   | bundle save crashes mid-write (torn temp)     |
//! | `store.write.enospc` | bundle save fails as if the disk were full    |
//! | `store.corrupt`      | saved bundle payload corrupted post-checksum  |

use crate::sync::{rank, RankedMutex};
use mio_lite::{Events, Poll};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Probability schedules draw 53 mantissa bits per hit; `P` is compared
/// against `draw / 2^53`.
const PROB_BITS: u32 = 53;

/// When a clause fires, the hit carries the clause's optional integer
/// parameter (e.g. a wedge duration in milliseconds).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultHit {
    param: Option<u64>,
}

impl FaultHit {
    /// The `:key=V` parameter, or `default` when the clause carried none.
    pub(crate) fn param_or(self, default: u64) -> u64 {
        self.param.unwrap_or(default)
    }
}

/// When (in a site's hit sequence) a clause triggers.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Schedule {
    /// `@N` — exactly the N-th hit.
    Nth(u64),
    /// `@A..B` — hits A through B inclusive.
    Range(u64, u64),
    /// `/K` — every K-th hit.
    Every(u64),
    /// `%P` — each hit independently with probability P.
    Prob(f64),
    /// Bare site — every hit.
    Always,
}

/// One parsed clause: a site pattern, a schedule, per-clause counters and
/// (for probabilistic schedules) a private deterministic RNG stream.
struct Clause {
    pattern: String,
    schedule: Schedule,
    param: Option<u64>,
    hits: AtomicU64,
    fired: AtomicU64,
    rng: RankedMutex<u64>,
}

impl Clause {
    fn matches(&self, site: &str) -> bool {
        match self.pattern.strip_suffix(".*") {
            Some(prefix) => {
                site.strip_prefix(prefix)
                    .is_some_and(|rest| rest.starts_with('.'))
                    || site == prefix
            }
            None => site == self.pattern,
        }
    }

    /// Records one hit and reports whether this clause triggers on it.
    fn hit(&self) -> Option<FaultHit> {
        let n = self.hits.fetch_add(1, Ordering::Relaxed) + 1;
        let triggered = match self.schedule {
            Schedule::Nth(k) => n == k,
            Schedule::Range(a, b) => (a..=b).contains(&n),
            Schedule::Every(k) => k > 0 && n.is_multiple_of(k),
            Schedule::Always => true,
            Schedule::Prob(p) => {
                // A leaf: no other lock is taken while it is held.
                // lint:lock-rank(chaos-rng, 80)
                let mut state = self.rng.lock_recover();
                let draw = xorshift(&mut state) >> (64 - PROB_BITS);
                (draw as f64) < p * (1u64 << PROB_BITS) as f64
            }
        };
        if triggered {
            self.fired.fetch_add(1, Ordering::Relaxed);
            Some(FaultHit { param: self.param })
        } else {
            None
        }
    }
}

/// A parsed, seeded fault schedule. Immutable after parse apart from the
/// per-clause hit counters; safe to share across every service thread.
pub struct FaultPlan {
    clauses: Vec<Clause>,
}

impl FaultPlan {
    /// Parses a plan from its spec string (see the module docs for the
    /// grammar). Returns a message naming the offending clause on error.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut seed = 0xc4a0_5eedu64;
        let mut raw: Vec<(String, Schedule, Option<u64>)> = Vec::new();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            if let Some(value) = clause.strip_prefix("seed=") {
                seed = value
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| format!("bad seed clause `{clause}`"))?;
                continue;
            }
            raw.push(parse_clause(clause)?);
        }
        let clauses = raw
            .into_iter()
            .enumerate()
            .map(|(i, (pattern, schedule, param))| {
                // Each probabilistic clause gets a private xorshift stream
                // derived from the plan seed, the clause position and the
                // pattern, so reordering unrelated clauses does not change
                // an existing clause's draws.
                let stream =
                    splitmix(seed ^ fnv1a(pattern.as_bytes()) ^ (i as u64).wrapping_mul(0x9e37));
                Clause {
                    pattern,
                    schedule,
                    param,
                    hits: AtomicU64::new(0),
                    fired: AtomicU64::new(0),
                    rng: RankedMutex::new("chaos-rng", rank::CHAOS_RNG, stream.max(1)),
                }
            })
            .collect();
        Ok(FaultPlan { clauses })
    }

    /// Records a hit of `site` against every matching clause, in spec
    /// order, and returns the first triggered fault, if any.
    pub(crate) fn fires(&self, site: &str) -> Option<FaultHit> {
        let mut hit = None;
        for clause in self.clauses.iter().filter(|c| c.matches(site)) {
            let fired = clause.hit();
            if hit.is_none() {
                hit = fired;
            }
        }
        hit
    }

    /// Total fires across every clause matching `pattern` literally.
    pub fn fired(&self, pattern: &str) -> u64 {
        self.clauses
            .iter()
            .filter(|c| c.pattern == pattern)
            .map(|c| c.fired.load(Ordering::Relaxed))
            .sum()
    }
}

fn parse_clause(clause: &str) -> Result<(String, Schedule, Option<u64>), String> {
    let (head, param) = match clause.split_once(':') {
        Some((head, tail)) => {
            let (_key, value) = tail
                .split_once('=')
                .ok_or_else(|| format!("bad parameter in `{clause}` (want `:key=value`)"))?;
            let value = value
                .trim()
                .parse::<u64>()
                .map_err(|_| format!("bad parameter value in `{clause}`"))?;
            (head, Some(value))
        }
        None => (clause, None),
    };
    let (site, schedule) = if let Some((site, sched)) = head.split_once('@') {
        let schedule = match sched.split_once("..") {
            Some((a, b)) => {
                let a = a.trim().parse::<u64>().map_err(|_| bad_sched(clause))?;
                let b = b.trim().parse::<u64>().map_err(|_| bad_sched(clause))?;
                if a == 0 || b < a {
                    return Err(bad_sched(clause));
                }
                Schedule::Range(a, b)
            }
            None => {
                let n = sched.trim().parse::<u64>().map_err(|_| bad_sched(clause))?;
                if n == 0 {
                    return Err(bad_sched(clause));
                }
                Schedule::Nth(n)
            }
        };
        (site, schedule)
    } else if let Some((site, every)) = head.split_once('/') {
        let k = every.trim().parse::<u64>().map_err(|_| bad_sched(clause))?;
        if k == 0 {
            return Err(bad_sched(clause));
        }
        (site, Schedule::Every(k))
    } else if let Some((site, prob)) = head.split_once('%') {
        let p = prob.trim().parse::<f64>().map_err(|_| bad_sched(clause))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(bad_sched(clause));
        }
        (site, Schedule::Prob(p))
    } else {
        (head, Schedule::Always)
    };
    let site = site.trim();
    let valid = !site.is_empty()
        && site
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '*' || c == '-');
    if !valid {
        return Err(format!("bad site name in `{clause}`"));
    }
    Ok((site.to_string(), schedule, param))
}

fn bad_sched(clause: &str) -> String {
    format!("bad schedule in `{clause}`")
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

// ---------------------------------------------------------------------------
// Process-global registry
// ---------------------------------------------------------------------------

/// Fast-path gate: a site loads this flag and goes no further while no
/// plan is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed plan. A leaf in the lock order: `worker.panic` fires
/// while the engine queue lock is held.
static ACTIVE: RankedMutex<Option<Arc<FaultPlan>>> =
    RankedMutex::new("chaos-plan", rank::CHAOS_PLAN, None);

/// Installs `plan` as the process-global active plan, replacing any
/// previous one. Returns the previous plan, if any.
pub fn install(plan: Arc<FaultPlan>) -> Option<Arc<FaultPlan>> {
    // lint:lock-rank(chaos-plan, 70)
    let mut slot = ACTIVE.lock_recover();
    let previous = slot.replace(plan);
    ENABLED.store(true, Ordering::Release);
    previous
}

/// Deactivates fault injection and returns the plan that was active.
pub fn clear() -> Option<Arc<FaultPlan>> {
    // lint:lock-rank(chaos-plan, 70)
    let mut slot = ACTIVE.lock_recover();
    ENABLED.store(false, Ordering::Release);
    slot.take()
}

/// Records a hit of `site` against the installed plan. `None` when no
/// plan is installed or no clause triggers.
#[inline]
pub(crate) fn fires(site: &str) -> Option<FaultHit> {
    if !ENABLED.load(Ordering::Acquire) {
        return None;
    }
    fires_installed(site)
}

/// Out of line, so that only the gate in [`fires`] inlines into a site.
#[inline(never)]
fn fires_installed(site: &str) -> Option<FaultHit> {
    let plan = {
        // lint:lock-rank(chaos-plan, 70)
        let slot = ACTIVE.lock_recover();
        slot.clone()?
    };
    plan.fires(site)
}

// ---------------------------------------------------------------------------
// Sites
// ---------------------------------------------------------------------------

/// Panics when the plan schedules `site` — the injected crash the
/// engine supervisor exists to absorb.
pub(crate) fn panic_site(site: &'static str) {
    if fires(site).is_some() {
        // lint:allow(no-panic-in-service) — this *is* the fault injector: it panics only when an installed fault plan schedules `site`.
        panic!("chaos: injected panic at {site}");
    }
}

/// Reactor poll with injectable spurious wakeups, which return at
/// once with no events. Registrations are level-triggered, so the
/// next poll re-observes any readiness.
pub(crate) fn poll(poll: &Poll, events: &mut Events, tick: Duration) -> io::Result<usize> {
    if fires("poll.spurious").is_some() {
        events.clear();
        return Ok(0);
    }
    poll.poll(events, Some(tick))
}

/// Connection read with injectable EAGAIN storms and short reads.
pub(crate) fn sock_read(stream: &mut TcpStream, buf: &mut [u8]) -> io::Result<usize> {
    if fires("sock.read.eagain").is_some() {
        return Err(io::ErrorKind::WouldBlock.into());
    }
    let cap = match fires("sock.read.short") {
        Some(h) => (h.param_or(1).max(1) as usize).min(buf.len()),
        None => buf.len(),
    };
    if cap == 0 {
        return stream.read(buf);
    }
    stream.read(&mut buf[..cap])
}

/// Connection write with injectable EAGAIN storms and short writes.
pub(crate) fn sock_write(stream: &mut TcpStream, buf: &[u8]) -> io::Result<usize> {
    if fires("sock.write.eagain").is_some() {
        return Err(io::ErrorKind::WouldBlock.into());
    }
    let cap = match fires("sock.write.short") {
        Some(h) => (h.param_or(1).max(1) as usize).min(buf.len()),
        None => buf.len(),
    };
    if cap == 0 {
        return stream.write(buf);
    }
    stream.write(&buf[..cap])
}

// This module's unit tests live in `lib.rs`, in the crate root's `tests` module.
