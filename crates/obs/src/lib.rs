//! `paxsim-obs` — the observability layer: a lock-light metrics registry
//! (monotonic counters, gauges, exponential-bucket histograms), structured
//! span tracing with a bounded ring-buffer recorder, and snapshot
//! rendering to both JSON and Prometheus text exposition.
//!
//! # Gating and cost
//!
//! Everything is gated on one process-global switch, initialized from the
//! `PAXSIM_OBS` environment variable (`1` = on) and overridable at runtime
//! with [`set_enabled`] (tests and the serve daemon use this). While
//! disabled, every instrumentation call is a single relaxed atomic load
//! and an untaken branch — no allocation, no formatting, no locks; the
//! [`span!`] macro does not even evaluate its attribute expressions.
//! Building the crate with `--no-default-features` compiles the
//! instrumentation out entirely ([`enabled`] becomes a constant `false`
//! the optimizer deletes branches against).
//!
//! # Determinism
//!
//! Instrumentation observes; it never feeds back. No simulator code path
//! reads a metric, span, or profile value, so enabling observability
//! cannot perturb simulated state — `SimOutcome` is bit-identical with
//! the layer on or off. The differential suite enforces this (see
//! `paxsim-core/tests/obs_determinism.rs`).
//!
//! # Naming
//!
//! Metric names are dot-separated lowercase paths, `<crate>.<subsystem>.
//! <quantity>` (`serve.flight.led`, `machine.memo.hits`, `core.pool.
//! retries`). Labels are appended as a sorted `{k="v"}` suffix to form
//! the registry key. Prometheus rendering prefixes `paxsim_`, maps dots
//! to underscores, and suffixes counters with `_total`.

use std::sync::atomic::{AtomicU8, Ordering};

pub mod metrics;
pub mod span;

pub use metrics::{
    counter, counter_with, gauge, gauge_with, histogram, histogram_with, snapshot, Counter, Gauge,
    Histogram, LazyCounter, LazyHistogram, Snapshot, Tally,
};
pub use span::{recent_spans, spans_ndjson, SpanGuard, SpanRecord};

/// Tri-state switch: 0 = uninitialized, 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

fn read_env_switch() -> bool {
    let on = std::env::var_os("PAXSIM_OBS").is_some_and(|v| v != "0" && !v.is_empty());
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Is the observability layer live? One relaxed load on the fast path.
#[cfg(feature = "runtime")]
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => read_env_switch(),
    }
}

/// Compiled out (`--no-default-features`): a constant the optimizer
/// deletes every instrumentation branch against.
#[cfg(not(feature = "runtime"))]
#[inline(always)]
pub fn enabled() -> bool {
    false
}

/// Force the switch on or off, overriding `PAXSIM_OBS`. Process-global;
/// used by the serve daemon (observability on by default) and by the
/// determinism tests to flip the layer within one process.
pub fn set_enabled(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Open a structured span: `span!("sweep.cell")` or
/// `span!("sweep.cell", index = i, kernel = name)`. Returns a guard that
/// records the span into the ring buffer when dropped. While the layer is
/// disabled the attribute expressions are *not evaluated* — the whole
/// macro is one branch on [`enabled`].
#[macro_export]
macro_rules! span {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::SpanGuard::start($name, vec![$((stringify!($k), format!("{}", $v))),*])
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

/// Unit tests flip the process-global switch; serialize them so parallel
/// test threads don't observe each other's state.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_enabled_overrides_env() {
        let _lock = crate::test_lock();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
