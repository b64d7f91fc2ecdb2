//! A bounded worker pool for sweep executors.
//!
//! The study drivers (`single`, `multi`, `cross`) fan a sweep's work items
//! out to host threads. Spawning one thread per item oversubscribes the
//! host as soon as a sweep has more cells than cores (the §4.3
//! cross-product has dozens); this pool instead runs every sweep on at most
//! [`available_parallelism`](std::thread::available_parallelism) workers
//! pulling items off a shared index, which also lets callers decompose
//! sweeps into fine-grained items (per cell rather than per row) without
//! worrying about thread explosion.
//!
//! Two execution modes:
//!
//! * [`map_indexed`]/[`map`] — fail-fast: a panicking item aborts the
//!   sweep (after draining in-flight workers) with a panic that names the
//!   failing item and carries its payload;
//! * [`map_indexed_isolated`] — fault-isolating: every item gets its own
//!   `Result`, panics are caught and retried with bounded exponential
//!   backoff, a soft watchdog deadline flags runaway cells, and the sweep
//!   always completes around poisoned items. Every study cell runs on it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::error::{panic_payload, StudyError};
use crate::faultinject::Faults;

/// Number of workers a sweep of `tasks` items gets.
fn workers_for(tasks: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(tasks)
        .max(1)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicked worker poisons these mutexes exactly when we are already
    // unwinding with a better panic message; the guarded data (append-only
    // result lists) is never left half-updated.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f(0), f(1), …, f(n - 1)` on the bounded pool and return the results
/// in index order. Blocks until all items complete.
///
/// # Panics
///
/// If an item panics, the sweep stops taking new items, in-flight workers
/// drain, and this function re-panics with a message naming the first
/// failing item index and its payload — a failed item invalidates a
/// fail-fast sweep, but the caller learns exactly *which* cell died.
/// (Use [`map_indexed_isolated`] to complete a sweep around failures.)
pub fn map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![f(0)];
    }
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let done = Mutex::new(Vec::with_capacity(n));
    let failed: Mutex<Option<(usize, String)>> = Mutex::new(None);
    let workers = workers_for(n);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let next = &next;
            let abort = &abort;
            let done = &done;
            let failed = &failed;
            let f = &f;
            scope.spawn(move || loop {
                if abort.load(Ordering::Relaxed) {
                    return;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                match catch_unwind(AssertUnwindSafe(|| f(i))) {
                    Ok(v) => lock(done).push((i, v)),
                    Err(payload) => {
                        // First failure wins; everyone else drains.
                        abort.store(true, Ordering::Relaxed);
                        lock(failed).get_or_insert((i, panic_payload(payload.as_ref())));
                        return;
                    }
                }
            });
        }
    });
    if let Some((i, payload)) = lock(&failed).take() {
        panic!("pool worker panicked: item {i}: {payload}");
    }
    let mut done = done.into_inner().unwrap_or_else(|e| e.into_inner());
    done.sort_by_key(|&(i, _)| i);
    assert_eq!(done.len(), n, "pool lost work items");
    done.into_iter().map(|(_, v)| v).collect()
}

/// Map `f` over `items` on the bounded pool, preserving order.
pub fn map<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    map_indexed(items.len(), |i| f(&items[i]))
}

// ---------------------------------------------------------------------------
// Fault-isolating execution.
// ---------------------------------------------------------------------------

/// Per-cell failure handling policy for [`map_indexed_isolated`].
#[derive(Debug, Clone)]
pub struct CellPolicy {
    /// Extra attempts after the first for a transiently failing cell.
    pub max_retries: u32,
    /// Base backoff before the first retry; doubles per attempt.
    pub backoff: Duration,
    /// Soft watchdog: a cell whose attempt runs longer than this is
    /// reported as [`StudyError::CellTimedOut`] (its result is discarded;
    /// slow cells are not retried — they would only be slow again).
    pub deadline: Option<Duration>,
    /// Run at the start of every attempt: `cell-panic:<i>` exercises the
    /// retry path, `cell-slow:<i>:<ms>` the watchdog.
    pub faults: Faults,
}

impl Default for CellPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            backoff: Duration::from_millis(5),
            deadline: None,
            faults: Faults::default(),
        }
    }
}

/// Outcome of a fault-isolated sweep.
pub struct IsolatedSweep<T> {
    /// Per-item results, in index order. Every index is present: a failed
    /// cell is an `Err` describing why, never a hole or a panic.
    pub results: Vec<Result<T, StudyError>>,
    /// Retry attempts performed across all cells.
    pub retries: u32,
    /// Cells flagged by the watchdog deadline.
    pub timeouts: u32,
}

impl<T> IsolatedSweep<T> {
    /// Indices and errors of every failed cell.
    pub fn failures(&self) -> Vec<(usize, &StudyError)> {
        self.results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().err().map(|e| (i, e)))
            .collect()
    }
}

/// Run `f(0) … f(n-1)` on the bounded pool with per-item fault isolation:
/// panics become [`StudyError::CellPanicked`] and are retried up to
/// `policy.max_retries` times with doubling backoff; items that outlive
/// `policy.deadline` are flagged; the sweep always runs to completion and
/// reports every item's individual outcome in index order. Each attempt
/// first runs `policy.faults`' cell hook.
pub fn map_indexed_isolated<T, F>(n: usize, policy: &CellPolicy, f: F) -> IsolatedSweep<T>
where
    T: Send,
    F: Fn(usize) -> Result<T, StudyError> + Sync,
{
    static CELLS: paxsim_obs::LazyCounter = paxsim_obs::LazyCounter::new("core.pool.cells");
    static RETRIES: paxsim_obs::LazyCounter = paxsim_obs::LazyCounter::new("core.pool.retries");
    static TIMEOUTS: paxsim_obs::LazyCounter = paxsim_obs::LazyCounter::new("core.pool.timeouts");
    static CELL_SECONDS: paxsim_obs::LazyHistogram =
        paxsim_obs::LazyHistogram::new("core.pool.cell_seconds");
    CELLS.add(n as u64);
    let retries = AtomicU32::new(0);
    let timeouts = AtomicU32::new(0);
    let run_one = |i: usize| -> Result<T, StudyError> {
        let mut attempt = 0u32;
        loop {
            let _span = paxsim_obs::span!("sweep.cell", index = i, attempt = attempt);
            let start = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                policy.faults.cell_start(i);
                f(i)
            }));
            let elapsed = start.elapsed();
            CELL_SECONDS.observe(elapsed.as_secs_f64());
            let result = match outcome {
                Ok(r) => r,
                Err(payload) => Err(StudyError::CellPanicked {
                    index: i,
                    payload: panic_payload(payload.as_ref()),
                }),
            };
            // The watchdog outranks success: a cell that blew its
            // deadline produced a result we no longer trust to be worth
            // the schedule slip, and re-running it would only repeat the
            // overrun.
            if let Some(deadline) = policy.deadline {
                if elapsed > deadline {
                    timeouts.fetch_add(1, Ordering::Relaxed);
                    return Err(StudyError::CellTimedOut {
                        index: i,
                        elapsed_ms: elapsed.as_millis() as u64,
                        deadline_ms: deadline.as_millis() as u64,
                    });
                }
            }
            match result {
                Ok(v) => return Ok(v),
                Err(e) if e.transient() && attempt < policy.max_retries => {
                    retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(policy.backoff * 2u32.saturating_pow(attempt));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    };
    // `run_one` never panics, so the fail-fast path of `map_indexed`
    // cannot trigger; it is purely the scheduler here.
    let results = map_indexed(n, run_one);
    let retries = retries.into_inner();
    let timeouts = timeouts.into_inner();
    RETRIES.add(retries as u64);
    TIMEOUTS.add(timeouts as u64);
    IsolatedSweep {
        results,
        retries,
        timeouts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_in_index_order() {
        let out = map_indexed(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(map_indexed(0, |_| 0u32), Vec::<u32>::new());
        assert_eq!(map_indexed(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let seen = Mutex::new(HashSet::new());
        map_indexed(64, |i| {
            assert!(seen.lock().unwrap().insert(i), "item {i} ran twice");
        });
        assert_eq!(seen.lock().unwrap().len(), 64);
    }

    #[test]
    fn concurrency_is_bounded() {
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        map_indexed(200, |_| {
            let l = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(l, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        let cap = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert!(
            peak.load(Ordering::SeqCst) <= cap,
            "peak {} workers exceeds host parallelism {}",
            peak.load(Ordering::SeqCst),
            cap
        );
    }

    #[test]
    fn order_preserved_under_skewed_durations() {
        // Early items take longest, so *completion* order is roughly
        // reversed; the result vector must still be in index order.
        let out = map_indexed(50, |i| {
            std::thread::sleep(std::time::Duration::from_micros((50 - i as u64) * 40));
            i * 11
        });
        assert_eq!(out, (0..50).map(|i| i * 11).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "pool worker panicked")]
    fn worker_panic_surfaces() {
        // A panicking cell must abort the sweep with a clear panic, not
        // hang the pool or silently drop the item.
        map_indexed(32, |i| {
            if i == 7 {
                panic!("cell exploded");
            }
            i
        });
    }

    #[test]
    fn panic_names_the_failing_item() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            map_indexed(32, |i| {
                if i == 7 {
                    panic!("cell exploded");
                }
                i
            })
        }));
        let payload = panic_payload(r.unwrap_err().as_ref());
        assert!(payload.contains("item 7"), "{payload}");
        assert!(payload.contains("cell exploded"), "{payload}");
    }

    #[test]
    fn failure_drains_without_starting_new_items() {
        // Ordering under failure: items started before the failure finish
        // (drain), no item starts after the abort flag is up, and the
        // first failure's index is the one reported.
        let cap = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let started = Mutex::new(Vec::new());
        let completed = AtomicUsize::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            map_indexed(1000, |i| {
                lock(&started).push(i);
                if i == 3 {
                    // Give the other workers time to pick up their items
                    // so the drain actually has something in flight.
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    panic!("first failure");
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
                completed.fetch_add(1, Ordering::SeqCst);
                i
            })
        }));
        let payload = panic_payload(r.unwrap_err().as_ref());
        assert!(payload.contains("item 3"), "{payload}");
        let started = lock(&started).len();
        // Far fewer than 1000 items ran: the abort stopped intake while
        // in-flight workers (≤ one per worker thread beyond the panicker)
        // drained to completion.
        assert!(started < 1000, "abort must stop intake (started {started})");
        assert!(completed.load(Ordering::SeqCst) + 1 >= started.saturating_sub(cap));
    }

    #[test]
    fn map_over_slice() {
        let items = ["a", "bb", "ccc"];
        assert_eq!(map(&items, |s| s.len()), vec![1, 2, 3]);
    }

    // --- fault-isolated mode ---

    #[test]
    fn isolated_completes_around_persistent_failure() {
        let sweep = map_indexed_isolated(16, &CellPolicy::default(), |i| {
            if i == 5 {
                panic!("persistent failure");
            }
            Ok(i * 2)
        });
        assert_eq!(sweep.results.len(), 16);
        for (i, r) in sweep.results.iter().enumerate() {
            if i == 5 {
                let e = r.as_ref().unwrap_err();
                assert!(
                    matches!(e, StudyError::CellPanicked { index: 5, .. }),
                    "{e}"
                );
            } else {
                assert_eq!(*r.as_ref().unwrap(), i * 2);
            }
        }
        assert_eq!(sweep.failures().len(), 1);
        // Persistent: every retry was spent on the one bad cell.
        assert_eq!(sweep.retries, CellPolicy::default().max_retries);
    }

    #[test]
    fn isolated_retry_recovers_transient_failure() {
        let tries = AtomicUsize::new(0);
        let sweep = map_indexed_isolated(8, &CellPolicy::default(), |i| {
            if i == 2 && tries.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient");
            }
            Ok(i)
        });
        assert!(sweep.failures().is_empty(), "retry must recover the cell");
        assert_eq!(*sweep.results[2].as_ref().unwrap(), 2);
        assert_eq!(sweep.retries, 1);
    }

    #[test]
    fn isolated_watchdog_flags_slow_cells() {
        let policy = CellPolicy {
            deadline: Some(Duration::from_millis(20)),
            ..CellPolicy::default()
        };
        let sweep = map_indexed_isolated(4, &policy, |i| {
            if i == 1 {
                std::thread::sleep(Duration::from_millis(60));
            }
            Ok(i)
        });
        assert_eq!(sweep.timeouts, 1);
        let e = sweep.results[1].as_ref().unwrap_err();
        assert!(
            matches!(e, StudyError::CellTimedOut { index: 1, .. }),
            "{e}"
        );
        assert_eq!(sweep.failures().len(), 1);
    }

    #[test]
    fn isolated_typed_errors_are_not_retried() {
        let tries = AtomicUsize::new(0);
        let sweep = map_indexed_isolated(4, &CellPolicy::default(), |i| {
            if i == 0 {
                tries.fetch_add(1, Ordering::SeqCst);
                return Err(StudyError::BuildFailed {
                    kernel: "cg".into(),
                    class: "T".into(),
                    nthreads: 2,
                    attempts: 3,
                    reason: "verification".into(),
                });
            }
            Ok(i)
        });
        assert_eq!(
            tries.load(Ordering::SeqCst),
            1,
            "terminal errors retry nothing"
        );
        assert_eq!(sweep.retries, 0);
        assert_eq!(sweep.failures().len(), 1);
    }

    fn faulted(spec: &str) -> CellPolicy {
        CellPolicy {
            faults: Faults::parse(spec).unwrap(),
            ..CellPolicy::default()
        }
    }

    #[test]
    fn isolated_injected_cell_fault_exercises_retry() {
        let sweep = map_indexed_isolated(12, &faulted("cell-panic:6:1"), Ok);
        assert!(sweep.failures().is_empty());
        assert_eq!(sweep.retries, 1, "one injected transient panic");
    }

    #[test]
    fn isolated_injected_persistent_fault_poisons_cell() {
        let sweep = map_indexed_isolated(12, &faulted("cell-panic:6:100"), Ok);
        assert_eq!(sweep.failures().len(), 1);
        let e = sweep.results[6].as_ref().unwrap_err();
        assert!(
            matches!(e, StudyError::CellPanicked { index: 6, .. }),
            "{e}"
        );
    }
}
