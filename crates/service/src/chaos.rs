//! Zero-cost-when-off fault-injection shims for the service stack.
//!
//! With the `chaos` cargo feature enabled these helpers consult the
//! process-global [`pieri_chaos`] registry: an installed
//! `FaultPlan` decides, deterministically, which call sites misbehave
//! and when. Without the feature every helper is an `#[inline(always)]`
//! pass-through or constant `None` that the optimiser erases — a
//! default build carries no injection branches, no extra dependency,
//! and byte-for-byte the same I/O behaviour as before this module
//! existed.
//!
//! Site names injected here (see `crates/chaos` for the plan grammar):
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

#[cfg(not(feature = "chaos"))]
pub(crate) use disabled::*;
#[cfg(feature = "chaos")]
pub(crate) use enabled::*;

#[cfg(feature = "chaos")]
mod enabled {
    use mio_lite::{Events, Poll};
    use std::io::{self, Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    /// A scheduled fault at a named site, with the plan's optional
    /// integer parameter.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct Hit {
        param: Option<u64>,
    }

    impl Hit {
        pub(crate) fn param_or(self, default: u64) -> u64 {
            self.param.unwrap_or(default)
        }
    }

    /// Records a hit of `site` against the installed fault plan;
    /// `Some` means the fault fires now.
    pub(crate) fn fault(site: &str) -> Option<Hit> {
        pieri_chaos::fires(site).map(|h| Hit { param: h.param })
    }

    /// Panics when the plan schedules `site` — the injected crash the
    /// engine supervisor exists to absorb.
    pub(crate) fn panic_site(site: &'static str) {
        if fault(site).is_some() {
            // lint:allow(no-panic-in-service) — this *is* the fault injector: it fires only under an installed chaos plan, and the build is a no-op without the `chaos` feature.
            panic!("chaos: injected panic at {site}");
        }
    }

    /// Reactor poll with injectable spurious wakeups, which return at
    /// once with no events. Registrations are level-triggered, so the
    /// next poll re-observes any readiness.
    pub(crate) fn poll(poll: &Poll, events: &mut Events, tick: Duration) -> io::Result<usize> {
        if fault("poll.spurious").is_some() {
            events.clear();
            return Ok(0);
        }
        poll.poll(events, Some(tick))
    }

    /// Connection read with injectable EAGAIN storms and short reads.
    pub(crate) fn sock_read(stream: &mut TcpStream, buf: &mut [u8]) -> io::Result<usize> {
        if fault("sock.read.eagain").is_some() {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let cap = match fault("sock.read.short") {
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
        if fault("sock.write.eagain").is_some() {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let cap = match fault("sock.write.short") {
            Some(h) => (h.param_or(1).max(1) as usize).min(buf.len()),
            None => buf.len(),
        };
        if cap == 0 {
            return stream.write(buf);
        }
        stream.write(&buf[..cap])
    }

    /// Should this freshly accepted connection be dropped on the floor?
    /// (The client observes a reset before any request byte is answered
    /// — a replay-safe failure.)
    pub(crate) fn accept_dropped() -> bool {
        fault("sock.accept.fail").is_some()
    }
}

#[cfg(not(feature = "chaos"))]
mod disabled {
    use mio_lite::{Events, Poll};
    use std::io::{self, Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    /// Stand-in for the enabled build's fault hit; never constructed.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct Hit {}

    impl Hit {
        #[inline(always)]
        pub(crate) fn param_or(self, default: u64) -> u64 {
            default
        }
    }

    #[inline(always)]
    pub(crate) fn fault(_site: &str) -> Option<Hit> {
        None
    }

    #[inline(always)]
    pub(crate) fn panic_site(_site: &'static str) {}

    #[inline(always)]
    pub(crate) fn poll(poll: &Poll, events: &mut Events, tick: Duration) -> io::Result<usize> {
        poll.poll(events, Some(tick))
    }

    #[inline(always)]
    pub(crate) fn sock_read(stream: &mut TcpStream, buf: &mut [u8]) -> io::Result<usize> {
        stream.read(buf)
    }

    #[inline(always)]
    pub(crate) fn sock_write(stream: &mut TcpStream, buf: &[u8]) -> io::Result<usize> {
        stream.write(buf)
    }

    #[inline(always)]
    pub(crate) fn accept_dropped() -> bool {
        false
    }
}
