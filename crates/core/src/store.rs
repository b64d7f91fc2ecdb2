//! Trace memoization: building a benchmark's trace is the expensive step
//! (it runs the real numerics), but a trace depends only on (benchmark,
//! class, thread count, schedule) — not on the hardware configuration — so
//! one build serves every configuration sweep and both sides of a
//! multi-program pair.
//!
//! Failure handling: a build that panics (kernel bug, verification
//! failure, injected fault) no longer takes every waiter down with it.
//! The failure is captured, published to the waiters, and *exactly one*
//! of them claims a retry — bounded at [`MAX_BUILD_ATTEMPTS`] total
//! attempts per key — while the rest keep waiting. Only when the budget
//! is exhausted does every current and future caller of [`TraceStore::try_get`]
//! receive the typed [`StudyError::BuildFailed`]; the key stays poisoned
//! (a deterministic build that failed three times will fail a fourth).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use paxsim_machine::trace::ProgramTrace;
use paxsim_nas::{Class, KernelId};
use paxsim_omp::schedule::Schedule;

use crate::error::{panic_payload, StudyError, StudyResult};
use crate::faultinject;

/// Total build attempts (first try + waiter retries) per key.
pub const MAX_BUILD_ATTEMPTS: u32 = 3;

/// Key identifying one built trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceKey {
    pub kernel: KernelId,
    pub class: Class,
    pub nthreads: usize,
    pub schedule: Schedule,
}

/// In-progress build that later callers wait on instead of re-building.
#[derive(Default)]
struct Pending {
    state: Mutex<BuildState>,
    cv: Condvar,
}

#[derive(Default)]
enum BuildState {
    #[default]
    InProgress,
    Ready(Arc<ProgramTrace>),
    /// The building thread failed; `attempts` builds have been consumed.
    /// While `attempts < MAX_BUILD_ATTEMPTS`, exactly one waiter may
    /// claim a retry (flipping the state back to `InProgress`).
    Failed {
        attempts: u32,
        reason: String,
    },
}

enum Entry {
    Ready(Arc<ProgramTrace>),
    Building(Arc<Pending>),
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // Build panics are caught before they can poison these mutexes; if
    // one slips through anyway (a panic while publishing), the guarded
    // state is still consistent — recover rather than cascade.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A thread-safe memoizing store of built (and verified) traces.
///
/// Builds are *single-flight*: when several workers ask for the same
/// not-yet-built key concurrently (the pool-based sweep executors do this
/// routinely), exactly one performs the expensive build while the rest
/// block on it — the duplicate-work race of checking the map and then
/// building outside the lock is gone.
#[derive(Default)]
pub struct TraceStore {
    map: Mutex<HashMap<TraceKey, Entry>>,
    builds: AtomicU64,
}

impl TraceStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get the trace for `key`, building (and verifying) it on first use.
    /// Concurrent calls for the same key perform exactly one *successful*
    /// build; failed attempts are retried by at most one caller at a time
    /// up to [`MAX_BUILD_ATTEMPTS`] total.
    ///
    /// # Errors
    ///
    /// [`StudyError::BuildFailed`] once the attempt budget is exhausted —
    /// a failed verification invalidates every experiment using this
    /// trace, so it is never silent, but it no longer panics the sweep.
    pub fn try_get(&self, key: TraceKey) -> StudyResult<Arc<ProgramTrace>> {
        static HITS: paxsim_obs::LazyCounter = paxsim_obs::LazyCounter::new("core.store.hits");
        loop {
            let pending = {
                let mut map = lock(&self.map);
                match map.get(&key) {
                    Some(Entry::Ready(t)) => {
                        HITS.inc();
                        return Ok(t.clone());
                    }
                    Some(Entry::Building(p)) => p.clone(),
                    None => {
                        let p = Arc::new(Pending::default());
                        map.insert(key, Entry::Building(p.clone()));
                        drop(map);
                        match self.build(key, &p, 0) {
                            Ok(t) => return Ok(t),
                            // Re-enter: another waiter may already have
                            // claimed the retry, or this caller will.
                            Err(_) => continue,
                        }
                    }
                }
            };
            // Another thread owns the build: wait on it, claiming the
            // retry if it fails with budget left.
            let mut state = lock(&pending.state);
            loop {
                match &*state {
                    BuildState::Ready(t) => return Ok(t.clone()),
                    BuildState::Failed { attempts, reason } => {
                        if *attempts >= MAX_BUILD_ATTEMPTS {
                            return Err(self.build_error(key, *attempts, reason.clone()));
                        }
                        // Claim the retry: state flips under the lock, so
                        // exactly one waiter becomes the builder.
                        let prior = *attempts;
                        *state = BuildState::InProgress;
                        drop(state);
                        match self.build(key, &pending, prior) {
                            Ok(t) => return Ok(t),
                            Err(_) => break, // re-enter the outer loop
                        }
                    }
                    BuildState::InProgress => state = pending.cv.wait(state).unwrap(),
                }
            }
        }
    }

    /// Panicking wrapper around [`TraceStore::try_get`] for callers
    /// without a failure path (the original fail-fast drivers).
    ///
    /// # Panics
    ///
    /// Panics with the build failure's full context if the attempt budget
    /// is exhausted.
    pub fn get(&self, key: TraceKey) -> Arc<ProgramTrace> {
        self.try_get(key).unwrap_or_else(|e| panic!("{e}"))
    }

    fn build_error(&self, key: TraceKey, attempts: u32, reason: String) -> StudyError {
        StudyError::BuildFailed {
            kernel: key.kernel.to_string(),
            class: key.class.to_string(),
            nthreads: key.nthreads,
            attempts,
            reason,
        }
    }

    /// Perform the build this thread won (or claimed) the race for,
    /// publishing the result — or the failure — to any waiters.
    /// `prior_attempts` builds have already failed for this key.
    fn build(
        &self,
        key: TraceKey,
        pending: &Arc<Pending>,
        prior_attempts: u32,
    ) -> StudyResult<Arc<ProgramTrace>> {
        self.builds.fetch_add(1, Ordering::Relaxed);
        static BUILDS: paxsim_obs::LazyCounter = paxsim_obs::LazyCounter::new("core.store.builds");
        BUILDS.inc();
        let _span = paxsim_obs::span!(
            "store.build",
            kernel = key.kernel.name(),
            nthreads = key.nthreads,
            attempt = prior_attempts + 1
        );
        let built = catch_unwind(AssertUnwindSafe(|| {
            faultinject::build_hook(key.kernel.name());
            let built = key.kernel.build(key.class, key.nthreads, key.schedule);
            if built.verify.passed {
                Ok(built.trace)
            } else {
                Err(format!("verification failed: {}", built.verify.details))
            }
        }));
        let outcome: Result<Arc<ProgramTrace>, String> = match built {
            Ok(r) => r,
            Err(payload) => Err(format!(
                "build panicked: {}",
                panic_payload(payload.as_ref())
            )),
        };
        match outcome {
            Ok(trace) => {
                lock(&self.map).insert(key, Entry::Ready(trace.clone()));
                *lock(&pending.state) = BuildState::Ready(trace.clone());
                pending.cv.notify_all();
                Ok(trace)
            }
            Err(reason) => {
                let attempts = prior_attempts + 1;
                *lock(&pending.state) = BuildState::Failed {
                    attempts,
                    reason: reason.clone(),
                };
                pending.cv.notify_all();
                Err(self.build_error(key, attempts, reason))
            }
        }
    }

    /// Number of times a build actually ran — one per distinct key on the
    /// success path no matter how many threads raced, plus one per
    /// claimed retry after a failure.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Number of distinct traces available (completed builds).
    pub fn len(&self) -> usize {
        lock(&self.map)
            .values()
            .filter(|e| matches!(e, Entry::Ready(_)))
            .count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep_key() -> TraceKey {
        TraceKey {
            kernel: KernelId::Ep,
            class: Class::T,
            nthreads: 2,
            schedule: Schedule::Static,
        }
    }

    #[test]
    fn memoizes_by_key() {
        let _q = crate::faultinject::quiesced();
        let store = TraceStore::new();
        let key = ep_key();
        let a = store.get(key);
        let b = store.get(key);
        assert!(Arc::ptr_eq(&a, &b), "same key must return the same trace");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn concurrent_gets_build_once() {
        let _q = crate::faultinject::quiesced();
        let store = TraceStore::new();
        let key = ep_key();
        let traces: Vec<Arc<ProgramTrace>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8).map(|_| scope.spawn(|| store.get(key))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            store.builds(),
            1,
            "single-flight: 8 racing gets must build exactly once"
        );
        assert!(traces.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn distinct_thread_counts_distinct_traces() {
        let _q = crate::faultinject::quiesced();
        let store = TraceStore::new();
        let mk = |n| TraceKey {
            kernel: KernelId::Ep,
            class: Class::T,
            nthreads: n,
            schedule: Schedule::Static,
        };
        let a = store.get(mk(1));
        let b = store.get(mk(2));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.nthreads, 1);
        assert_eq!(b.nthreads, 2);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn first_attempt_panic_is_retried_to_success() {
        // Injected fault: the first build of EP panics; the bounded retry
        // (claimed by the same caller re-entering) succeeds.
        faultinject::with_plan("build-panic:ep:1", || {
            let store = TraceStore::new();
            let t = store.try_get(ep_key()).expect("retry must recover");
            assert_eq!(t.nthreads, 2);
            assert_eq!(store.builds(), 2, "one failed + one successful build");
            assert_eq!(store.len(), 1);
        });
    }

    #[test]
    fn concurrent_waiters_survive_first_attempt_panic() {
        // Exactly one waiter retries; every concurrent caller gets the
        // trace; total builds = 1 failed + 1 successful.
        faultinject::with_plan("build-panic:ep:1", || {
            let store = TraceStore::new();
            let key = ep_key();
            let results: Vec<StudyResult<Arc<ProgramTrace>>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..8).map(|_| scope.spawn(|| store.try_get(key))).collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for r in &results {
                let t = r.as_ref().expect("all waiters must recover");
                assert_eq!(t.nthreads, 2);
            }
            assert_eq!(store.builds(), 2, "failure plus exactly one retry");
        });
    }

    #[test]
    fn exhausted_budget_yields_typed_error_and_poisons_key() {
        faultinject::with_plan(&format!("build-panic:ep:{MAX_BUILD_ATTEMPTS}"), || {
            let store = TraceStore::new();
            let err = store.try_get(ep_key()).unwrap_err();
            match &err {
                StudyError::BuildFailed {
                    kernel, attempts, ..
                } => {
                    assert_eq!(kernel, "ep");
                    assert_eq!(*attempts, MAX_BUILD_ATTEMPTS);
                }
                e => panic!("unexpected error {e}"),
            }
            assert_eq!(store.builds(), MAX_BUILD_ATTEMPTS as u64);
            // Poisoned: further gets fail immediately without rebuilding.
            assert!(store.try_get(ep_key()).is_err());
            assert_eq!(store.builds(), MAX_BUILD_ATTEMPTS as u64);
            assert_eq!(store.len(), 0);
        });
    }

    /// Not gated on `debug_assertions`: the codec refuses an address at
    /// the ASID byte in release builds too, and the store turns that into
    /// the typed error.
    #[test]
    fn an_address_at_the_asid_byte_fails_the_build_typed() {
        faultinject::with_plan(&format!("build-asid:ep:{MAX_BUILD_ATTEMPTS}"), || {
            let store = TraceStore::new();
            match store.try_get(ep_key()).unwrap_err() {
                StudyError::BuildFailed {
                    kernel,
                    attempts,
                    reason,
                    ..
                } => {
                    assert_eq!(kernel, "ep");
                    assert_eq!(attempts, MAX_BUILD_ATTEMPTS);
                    assert!(reason.contains("reaches the ASID byte"), "{reason}");
                }
                e => panic!("unexpected error {e}"),
            }
        });
    }

    #[test]
    #[should_panic(expected = "trace build failed")]
    fn get_panics_with_context_on_exhausted_budget() {
        faultinject::with_plan(
            &format!("build-panic:ep:{}", MAX_BUILD_ATTEMPTS + 2),
            || {
                let store = TraceStore::new();
                let _ = store.get(ep_key());
            },
        );
    }
}
