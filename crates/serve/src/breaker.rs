//! Per-config circuit breaker: quarantine requests that keep crashing.
//!
//! The pool's isolation layer already absorbs *transient* cell panics
//! (catch_unwind + retry with backoff). What it cannot absorb is a
//! config that panics **deterministically** — every request for it burns
//! `1 + max_retries` panics worth of worker time, and a client retry
//! loop turns one poisoned config into a standing drain on the daemon.
//!
//! The breaker tracks consecutive *post-retry* failures per
//! [`ConfigHash`](paxsim_core::hash::ConfigHash) key and runs the classic
//! three-state machine:
//!
//! ```text
//!            failure (count < threshold)
//!           ┌────┐
//!           ▼    │
//!  ┌─────────────┴─┐  count == threshold   ┌──────────────────┐
//!  │    Closed     │ ────────────────────► │  Open(until)     │
//!  └───────▲───────┘                       └────────┬─────────┘
//!          │ success                                │ cooldown elapsed
//!          │                                        ▼
//!          │                               ┌──────────────────┐
//!          └────────────────────────────── │    HalfOpen      │
//!               probe succeeds             └────────┬─────────┘
//!                                                   │ probe fails
//!                                                   ▼ (re-Open, no
//!                                                     threshold wait)
//! ```
//!
//! While `Open`, requests for the key are rejected with a typed
//! `quarantined` error carrying the remaining cooldown — the daemon
//! spends zero compute on them. After the cooldown one probe request is
//! let through (`HalfOpen`); the single-flight table upstream already
//! collapses concurrent identical requests, so "one probe" needs no
//! extra machinery here. A successful probe closes the breaker; a failed
//! one reopens it immediately.
//!
//! A `threshold` of `0` disables the breaker entirely (every method is a
//! no-op), which is also the reference behavior for differential tests.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Closed,
    Open { until: Instant },
    HalfOpen,
}

struct Entry {
    failures: u32,
    state: State,
}

/// One quarantine-worthy key's public state, for `op=health`.
#[derive(Debug, Clone)]
pub struct QuarantineInfo {
    /// The config's content hash (the cache key).
    pub hash: u64,
    /// Consecutive post-retry failures recorded.
    pub failures: u32,
    /// `"open"` or `"half-open"` (closed entries are not reported).
    pub state: &'static str,
    /// Milliseconds until a probe is allowed (0 once probing).
    pub retry_in_ms: u64,
}

/// The breaker table. One per [`Service`](crate::service::Service).
pub struct Breaker {
    threshold: u32,
    cooldown: Duration,
    entries: Mutex<HashMap<u64, Entry>>,
    trips: AtomicU64,
    rejected: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Breaker {
    /// A breaker tripping after `threshold` consecutive failures, holding
    /// keys quarantined for `cooldown`. `threshold == 0` disables it.
    pub fn new(threshold: u32, cooldown: Duration) -> Breaker {
        Breaker {
            threshold,
            cooldown,
            entries: Mutex::new(HashMap::new()),
            trips: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Gate a request for `key`. `Ok(())` admits it (including the
    /// half-open probe); `Err(retry_in_ms)` is a typed quarantine
    /// rejection with the remaining cooldown.
    pub fn check(&self, key: u64) -> Result<(), u64> {
        if self.threshold == 0 {
            return Ok(());
        }
        let mut entries = lock(&self.entries);
        let Some(e) = entries.get_mut(&key) else {
            return Ok(());
        };
        match e.state {
            State::Closed | State::HalfOpen => Ok(()),
            State::Open { until } => {
                let now = Instant::now();
                if now >= until {
                    e.state = State::HalfOpen;
                    Ok(())
                } else {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    static REJECTED: paxsim_obs::LazyCounter =
                        paxsim_obs::LazyCounter::new("serve.breaker.rejected");
                    REJECTED.inc();
                    Err(((until - now).as_millis() as u64).max(1))
                }
            }
        }
    }

    /// Record a completed computation for `key`: closes the breaker and
    /// forgets the key.
    pub fn success(&self, key: u64) {
        if self.threshold == 0 {
            return;
        }
        lock(&self.entries).remove(&key);
    }

    /// Record a post-retry failure for `key`. Trips to `Open` at the
    /// threshold; a failed half-open probe re-opens immediately.
    pub fn failure(&self, key: u64) {
        if self.threshold == 0 {
            return;
        }
        let mut entries = lock(&self.entries);
        let e = entries.entry(key).or_insert(Entry {
            failures: 0,
            state: State::Closed,
        });
        e.failures = e.failures.saturating_add(1);
        let failed_probe = e.state == State::HalfOpen;
        if failed_probe || e.failures >= self.threshold {
            e.state = State::Open {
                until: Instant::now() + self.cooldown,
            };
            self.trips.fetch_add(1, Ordering::Relaxed);
            static TRIPS: paxsim_obs::LazyCounter =
                paxsim_obs::LazyCounter::new("serve.breaker.trips");
            TRIPS.inc();
        }
    }

    /// Times any key transitioned into `Open`.
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Requests rejected with `quarantined`.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    pub fn cooldown_ms(&self) -> u64 {
        self.cooldown.as_millis() as u64
    }

    /// Every non-closed key, for the health endpoint. Sorted by hash so
    /// the reply is deterministic.
    pub fn snapshot(&self) -> Vec<QuarantineInfo> {
        let now = Instant::now();
        let entries = lock(&self.entries);
        let mut out: Vec<QuarantineInfo> = entries
            .iter()
            .filter_map(|(&hash, e)| {
                let (state, retry_in_ms) = match e.state {
                    State::Closed => return None,
                    State::HalfOpen => ("half-open", 0),
                    State::Open { until } => (
                        "open",
                        until.saturating_duration_since(now).as_millis() as u64,
                    ),
                };
                Some(QuarantineInfo {
                    hash,
                    failures: e.failures,
                    state,
                    retry_in_ms,
                })
            })
            .collect();
        out.sort_by_key(|q| q.hash);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_only_at_threshold_and_success_resets() {
        let b = Breaker::new(3, Duration::from_millis(200));
        b.failure(7);
        b.failure(7);
        assert!(b.check(7).is_ok(), "two failures stay closed");
        b.success(7);
        b.failure(7);
        b.failure(7);
        assert!(b.check(7).is_ok(), "success must reset the streak");
        b.failure(7);
        let retry = b.check(7).unwrap_err();
        assert!(retry > 0 && retry <= 200, "open with cooldown: {retry}");
        assert_eq!(b.trips(), 1);
        assert_eq!(b.rejected(), 1);
        assert!(b.check(8).is_ok(), "other keys unaffected");
    }

    #[test]
    fn half_open_probe_then_close_or_reopen() {
        let b = Breaker::new(1, Duration::from_millis(20));
        b.failure(5);
        assert!(b.check(5).is_err(), "tripped at threshold 1");
        std::thread::sleep(Duration::from_millis(30));
        assert!(b.check(5).is_ok(), "cooldown elapsed: probe admitted");
        // A failed probe reopens immediately, without a fresh streak.
        b.failure(5);
        assert!(b.check(5).is_err(), "failed probe must re-open");
        assert_eq!(b.trips(), 2);
        std::thread::sleep(Duration::from_millis(30));
        assert!(b.check(5).is_ok());
        b.success(5);
        assert!(b.check(5).is_ok(), "successful probe closes");
        assert!(b.snapshot().is_empty(), "closed keys are not reported");
    }

    #[test]
    fn snapshot_reports_open_keys() {
        let b = Breaker::new(1, Duration::from_secs(60));
        b.failure(9);
        b.failure(2);
        let snap = b.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].hash, 2, "sorted by hash");
        assert_eq!(snap[1].hash, 9);
        assert_eq!(snap[0].state, "open");
        assert!(snap[0].retry_in_ms > 0);
    }

    #[test]
    fn zero_threshold_disables() {
        let b = Breaker::new(0, Duration::from_secs(60));
        for _ in 0..10 {
            b.failure(1);
        }
        assert!(b.check(1).is_ok());
        assert_eq!(b.trips(), 0);
        assert!(b.snapshot().is_empty());
    }
}
