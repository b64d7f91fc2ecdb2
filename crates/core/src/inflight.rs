//! A single-flight table for identical concurrent requests.
//!
//! [`TraceStore`](crate::store::TraceStore) coalesces *trace builds*
//! forever (a built trace is immutable and stays cached). Request serving
//! needs the same collapse for *results* but with different lifetime
//! rules: the computed value's durable home is the result cache above
//! this table, so an entry lives only while its computation is in flight,
//! and a failure is delivered to the waiters of *that* flight without
//! poisoning the key — the next request simply starts a fresh flight
//! (the failure may have been transient, and the isolation/retry policy
//! below this table already spent its budget on the one attempt stream).
//!
//! Concurrency contract: for any key, at most one closure runs at a time;
//! every call that arrives while it runs receives the same result without
//! computing; calls that arrive after the flight lands consult the cache
//! first (outside this module) and only reach the table on a miss.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use paxsim_obs::Tally;

use crate::error::{StudyError, StudyResult};

/// How a call got its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flight {
    /// This call ran the computation.
    Led,
    /// This call waited on a computation another caller was running.
    Joined,
}

enum SlotState<V> {
    Running,
    Done(StudyResult<V>),
}

struct Slot<V> {
    state: Mutex<SlotState<V>>,
    cv: Condvar,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // The computation runs outside any lock, and every critical section
    // here is a single assignment or map operation; a poisoned mutex
    // still holds consistent state — recover rather than cascade.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The single-flight table: keys are content hashes, values are whatever
/// the computation produces (the serve daemon stores journal records).
pub struct Inflight<V> {
    map: Mutex<HashMap<u64, Arc<Slot<V>>>>,
    led: Tally,
    joined: Tally,
}

impl<V: Clone> Inflight<V> {
    /// A table whose flights led and joined are booked under the series
    /// `led` and `joined`.
    pub fn new(led: &'static str, joined: &'static str) -> Self {
        Self {
            map: Mutex::new(HashMap::new()),
            led: Tally::new(led),
            joined: Tally::new(joined),
        }
    }

    /// Run `compute` for `key`, unless an identical computation is
    /// already in flight — then wait for it and share its result.
    /// Returns the result plus whether this call led or joined.
    ///
    /// The computation runs with no table lock held, so it may recurse
    /// into the table under a *different* key (the serve daemon's
    /// parallel cells pull their serial baseline this way).
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns; joiners receive a clone of the
    /// leader's error. The key is always cleared when the flight lands,
    /// so a later identical request computes afresh. A `compute` that
    /// panics lands its flight too: joiners get
    /// [`StudyError::CellPanicked`], the key is cleared, and the panic
    /// keeps unwinding through the leader's caller.
    pub fn run<F>(&self, key: u64, compute: F) -> (StudyResult<V>, Flight)
    where
        F: FnOnce() -> StudyResult<V>,
    {
        let slot = {
            let mut map = lock(&self.map);
            match map.get(&key) {
                Some(slot) => {
                    self.joined.inc();
                    slot.clone()
                }
                None => {
                    let slot = Arc::new(Slot {
                        state: Mutex::new(SlotState::Running),
                        cv: Condvar::new(),
                    });
                    map.insert(key, slot.clone());
                    // Count the led flight while still holding the map
                    // lock: joiners bump `joined` under this same lock, so
                    // a concurrent stats scrape can never observe a flight
                    // that has joiners but no leader.
                    self.led.inc();
                    drop(map);
                    // Leader path: compute outside every lock; the guard
                    // publishes, clears the key and wakes the waiters.
                    let mut landing = Landing {
                        table: self,
                        key,
                        slot: &slot,
                        result: None,
                    };
                    let result = compute();
                    landing.result = Some(clone_result(&result));
                    drop(landing);
                    return (result, Flight::Led);
                }
            }
        };
        let mut state = lock(&slot.state);
        loop {
            match &*state {
                SlotState::Done(r) => return (clone_result(r), Flight::Joined),
                SlotState::Running => {
                    state = slot.cv.wait(state).unwrap_or_else(|e| e.into_inner())
                }
            }
        }
    }

    /// Computations actually run (flights led).
    pub fn led(&self) -> u64 {
        self.led.get()
    }

    /// Calls that shared another caller's in-flight computation.
    pub fn joined(&self) -> u64 {
        self.joined.get()
    }

    /// Keys currently in flight.
    pub fn in_flight(&self) -> usize {
        lock(&self.map).len()
    }
}

/// Lands a led flight when dropped: publish the result, clear the key,
/// wake the waiters. A drop guard because callers run under a
/// `catch_unwind` that keeps the process alive — a leader that unwound
/// past a plain publish would leave its slot `Running` and its key in
/// the map, and every later identical request would join and block for
/// good.
struct Landing<'a, V> {
    table: &'a Inflight<V>,
    key: u64,
    slot: &'a Slot<V>,
    /// `None` until `compute` returns — still `None` in `drop` means it
    /// unwound.
    result: Option<StudyResult<V>>,
}

impl<V> Drop for Landing<'_, V> {
    fn drop(&mut self) {
        let result = self.result.take().unwrap_or_else(|| {
            Err(StudyError::CellPanicked {
                index: 0,
                payload: "single-flight leader panicked".to_string(),
            })
        });
        *lock(&self.slot.state) = SlotState::Done(result);
        lock(&self.table.map).remove(&self.key);
        self.slot.cv.notify_all();
    }
}

fn clone_result<V: Clone>(r: &StudyResult<V>) -> StudyResult<V> {
    match r {
        Ok(v) => Ok(v.clone()),
        Err(e) => Err(e.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    fn table() -> Inflight<u32> {
        Inflight::new("test.flight.led", "test.flight.joined")
    }

    #[test]
    fn sequential_calls_each_compute() {
        // No overlap, no coalescing: the durable cache above this table
        // is what deduplicates landed results.
        let table = table();
        let (a, fa) = table.run(1, || Ok(10));
        let (b, fb) = table.run(1, || Ok(20));
        assert_eq!((a.unwrap(), fa), (10, Flight::Led));
        assert_eq!((b.unwrap(), fb), (20, Flight::Led));
        assert_eq!(table.led(), 2);
        assert_eq!(table.joined(), 0);
        assert_eq!(table.in_flight(), 0);
    }

    #[test]
    fn concurrent_identical_requests_compute_once() {
        let table = table();
        let computed = AtomicUsize::new(0);
        let gate = Barrier::new(8);
        let results: Vec<(StudyResult<u32>, Flight)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        gate.wait();
                        table.run(42, || {
                            computed.fetch_add(1, Ordering::SeqCst);
                            // Hold the flight open long enough that every
                            // thread past the barrier joins it.
                            std::thread::sleep(Duration::from_millis(50));
                            Ok(7)
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(computed.load(Ordering::SeqCst), 1, "single flight");
        assert_eq!(table.led(), 1);
        assert_eq!(table.joined(), 7);
        let leaders = results.iter().filter(|(_, f)| *f == Flight::Led).count();
        assert_eq!(leaders, 1);
        for (r, _) in results {
            assert_eq!(r.unwrap(), 7);
        }
        assert_eq!(table.in_flight(), 0);
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let table = table();
        std::thread::scope(|scope| {
            for k in 0..4u64 {
                let table = &table;
                scope.spawn(move || {
                    let (r, f) = table.run(k, || Ok(k as u32));
                    assert_eq!(r.unwrap(), k as u32);
                    assert_eq!(f, Flight::Led);
                });
            }
        });
        assert_eq!(table.led(), 4);
        assert_eq!(table.joined(), 0);
    }

    #[test]
    fn failure_reaches_every_waiter_without_poisoning() {
        let table = table();
        let gate = Barrier::new(4);
        let results: Vec<(StudyResult<u32>, Flight)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        gate.wait();
                        table.run(9, || {
                            std::thread::sleep(Duration::from_millis(40));
                            Err(StudyError::CellPanicked {
                                index: 0,
                                payload: "boom".into(),
                            })
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(table.led(), 1, "one flight, one failure");
        for (r, _) in &results {
            assert!(matches!(
                r.as_ref().unwrap_err(),
                StudyError::CellPanicked { .. }
            ));
        }
        // Not poisoned: the next request starts a fresh flight and can
        // succeed.
        let (r, f) = table.run(9, || Ok(11));
        assert_eq!((r.unwrap(), f), (11, Flight::Led));
    }

    #[test]
    fn panicking_leader_lands_its_flight_and_frees_the_key() {
        // The serve workers run every leader under `catch_unwind`; a
        // leader that unwinds must not leave its joiners (or any later
        // request for the key) blocked on a slot nobody will publish.
        let table = table();
        let joined = std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    table.run(3, || {
                        while table.joined() == 0 {
                            std::thread::yield_now();
                        }
                        // The joiner bumps `joined` before it waits on the
                        // slot; either order must end in the error below.
                        std::thread::sleep(Duration::from_millis(20));
                        panic!("leader fault");
                    })
                }))
            });
            while table.in_flight() == 0 {
                std::thread::yield_now();
            }
            let joined = table.run(3, || Ok(0));
            assert!(leader.join().unwrap().is_err(), "the panic propagates");
            joined
        });
        assert_eq!(joined.1, Flight::Joined);
        assert!(matches!(
            joined.0.unwrap_err(),
            StudyError::CellPanicked { .. }
        ));
        assert_eq!(table.in_flight(), 0, "the key is cleared");
        let (r, f) = table.run(3, || Ok(11));
        assert_eq!((r.unwrap(), f), (11, Flight::Led), "the next call leads");
    }

    #[test]
    fn leader_may_recurse_under_a_different_key() {
        // A parallel cell's computation pulls its serial baseline through
        // the same table; that must not deadlock.
        let table = table();
        let (r, _) = table.run(1, || {
            let (base, _) = table.run(2, || Ok(5));
            Ok(base? * 2)
        });
        assert_eq!(r.unwrap(), 10);
        assert_eq!(table.led(), 2);
    }
}
