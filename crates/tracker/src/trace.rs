//! The span hook over the tracker's phases.
//!
//! The tracker opens a `track.path` span around every tracking attempt,
//! a `retrack` span around every re-track, and *deep* `predict` and
//! `correct` spans around every step. It records none of them itself:
//! a tracing layer routes them with [`set_hook`], once per process, and
//! the service's engine points the hook at `pieri-trace` when it starts.
//! Until a hook is set a span site costs one atomic load, and the
//! tracker depends on no tracing crate.

use std::sync::OnceLock;

/// The `enter` and `exit` callbacks of [`set_hook`].
type Hook = (fn(&'static str, bool) -> bool, fn());

static HOOK: OnceLock<Hook> = OnceLock::new();

/// Routes the tracker's spans to a tracing layer. `enter(name, deep)`
/// opens a span named `name` on the calling thread and returns whether
/// it opened one; `deep` marks the per-step `predict`/`correct` sites,
/// which fire thousands of times per solve. `exit()` closes the
/// innermost span that `enter` opened on the calling thread; the
/// tracker calls it once for every `enter` that returned `true`, in
/// reverse order.
///
/// The hook is set once per process: a later call changes nothing.
pub fn set_hook(enter: fn(&'static str, bool) -> bool, exit: fn()) {
    let _ = HOOK.set((enter, exit));
}

/// An open tracker span; dropping it closes the span.
#[must_use = "bind the guard (`let _span = …`) or the span covers nothing"]
pub(crate) struct SpanGuard(Option<fn()>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(exit) = self.0 {
            exit();
        }
    }
}

/// Opens the span `name` through the hook, a deep one when `deep`.
#[inline]
pub(crate) fn span(name: &'static str, deep: bool) -> SpanGuard {
    SpanGuard(
        HOOK.get()
            .and_then(|&(enter, exit)| enter(name, deep).then_some(exit)),
    )
}
