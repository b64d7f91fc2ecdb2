//! The gather-window request batcher: compatible concurrent requests
//! merge into one shared sweep execution.
//!
//! [`Inflight`](paxsim_core::inflight::Inflight) collapses *identical*
//! concurrent requests; this layer collapses *compatible* ones — requests
//! whose resolved specs share everything except the sweep coordinates
//! (kernel, Table 1 configuration) and so can run as cells of one
//! [`pool`](paxsim_core::pool) sweep under one admission-gate pass. An
//! autotuner or a dashboard refresh that fans 30 points of one study
//! across 30 connections costs one gate permit and one scoped thread
//! pool, not 30.
//!
//! Mechanics: the first submitter for a [group key](crate::service) opens
//! a *group* and becomes its **leader**; the leader sleeps the gather
//! window while compatible submitters append themselves as **members**.
//! When the window closes the leader atomically takes the group (removing
//! it from the table so later submitters start a fresh one), executes the
//! batch through the closure it was given, and distributes the per-item
//! results: element `i` of the executor's output goes to the submitter of
//! item `i`. Members block on the group's condvar — never holding any
//! batcher lock — so a member waiting on a leader can deadlock only if
//! the executor hangs, and the executor runs under the pool's watchdog
//! deadline.
//!
//! A zero window makes `submit` a pure pass-through (the executor runs
//! immediately on a one-item batch, no sleep, no group table), which is
//! both the low-latency configuration and the reference behavior the
//! batched path is differentially tested against.
//!
//! **Poison recovery:** a panicking leader executor must never strand its
//! members. The leader runs the batch under `catch_unwind`; on panic it
//! marks the group `Poisoned` and wakes everyone, and every rider —
//! leader included — re-runs its own item as an individual batch of one
//! ([`Role::Retried`]). Each item computes independently, so the retry
//! result is byte-identical to what the batch would have produced.
//!
//! The batcher is generic and knows nothing about specs, caches, or
//! gates: correctness of *merging* (why a batched result is byte-identical
//! to an unbatched one) is argued where the executor is defined
//! (`service.rs` and DESIGN.md §13) — each item's cell computes
//! independently from its own resolved spec, so batching changes only
//! *when* a computation runs, never *what* it computes.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use paxsim_obs::Tally;

/// How a submission travelled through the batcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// This call opened the group, gathered `size` items (including its
    /// own), and ran the executor.
    Led { size: usize },
    /// This call joined an open group of final size `size` and received
    /// its slot of the leader's execution.
    Joined { size: usize },
    /// This call's batch execution panicked; the call re-ran its own item
    /// as an individual batch of one and got that result instead.
    Retried,
}

impl Role {
    /// Final size of the batch this submission rode in.
    pub fn size(&self) -> usize {
        match *self {
            Role::Led { size } | Role::Joined { size } => size,
            Role::Retried => 1,
        }
    }
}

enum GroupState<I, R> {
    /// Accepting members; the leader's window is still open.
    Gathering(Vec<I>),
    /// The leader took the items and is executing.
    Running,
    /// Per-member results, slot `i` for the submitter of item `i`
    /// (`None` once taken — each slot is consumed exactly once).
    Done(Vec<Option<R>>),
    /// The leader's executor panicked. Every waiter re-runs its own item
    /// individually instead of hanging on results that will never come.
    Poisoned,
}

struct Group<I, R> {
    state: Mutex<GroupState<I, R>>,
    cv: Condvar,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The batching table. `I` is the per-request item (the serve daemon
/// submits resolved specs), `R` the per-request result.
pub struct Batcher<I, R> {
    window: Duration,
    groups: Mutex<HashMap<u64, Arc<Group<I, R>>>>,
    batches: Tally,
    merged: Tally,
    poisoned: Tally,
}

impl<I, R> Batcher<I, R> {
    /// A batcher with the given gather window. `Duration::ZERO` disables
    /// grouping entirely: every submission executes immediately as a
    /// batch of one.
    pub fn new(window: Duration) -> Self {
        Batcher {
            window,
            groups: Mutex::new(HashMap::new()),
            batches: Tally::new("serve.batch.batches"),
            merged: Tally::new("serve.batch.merged"),
            poisoned: Tally::new("serve.batch.poisoned"),
        }
    }

    /// The configured gather window.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// Batches executed (each one executor call).
    pub fn batches(&self) -> u64 {
        self.batches.get()
    }

    /// Requests that rode another request's batch (Σ over batches of
    /// `size - 1`) — the "work saved" number the load generator reports
    /// as the merge rate.
    pub fn merged(&self) -> u64 {
        self.merged.get()
    }

    /// Groups currently gathering (a point-in-time gauge).
    pub fn open_groups(&self) -> usize {
        lock(&self.groups).len()
    }

    /// Batches whose leader executor panicked; every rider (leader
    /// included) re-ran its item individually.
    pub fn poisoned(&self) -> u64 {
        self.poisoned.get()
    }

    /// Submit one item under `key`; compatible items share a key.
    /// Returns this item's result plus the [`Role`] it played.
    ///
    /// `exec` runs once per *batch* (the leader's copy); it receives the
    /// gathered items and must return exactly one result per item, in
    /// order. If the leader's `exec` panics the group is **poisoned**:
    /// every rider — leader and members alike — re-runs its own item as
    /// an individual batch of one through its own `exec` copy, so nobody
    /// hangs on results that will never come. A panic from that
    /// *individual* run propagates to the caller (the serve worker's
    /// isolation boundary turns it into a typed reply).
    pub fn submit<F>(&self, key: u64, item: I, mut exec: F) -> (R, Role)
    where
        I: Clone,
        F: FnMut(Vec<I>) -> Vec<R>,
    {
        if self.window.is_zero() {
            self.book(1);
            let mut results = exec(vec![item]);
            debug_assert_eq!(results.len(), 1, "executor must map items 1:1");
            return (
                results.pop().expect("one item in, one result out"),
                Role::Led { size: 1 },
            );
        }
        let group = loop {
            let mut groups = lock(&self.groups);
            match groups.get(&key) {
                Some(g) => {
                    let g = g.clone();
                    // Lock order is always groups → state (here) or state
                    // alone (waiters); the leader's take below also nests
                    // groups → state, so there is no cycle. Because the
                    // leader removes the map entry *before* leaving
                    // `Gathering`, an entry found under the groups lock is
                    // always still gathering — the retry is pure defense.
                    let mut st = lock(&g.state);
                    if let GroupState::Gathering(items) = &mut *st {
                        items.push(item.clone());
                        let slot = items.len() - 1;
                        drop(st);
                        drop(groups);
                        return match self.wait(&g, slot) {
                            Ok(done) => done,
                            // Poisoned batch: recover by running our own
                            // item alone — the member kept its clone.
                            Err(Poisoned) => (self.solo(item, &mut exec), Role::Retried),
                        };
                    }
                    drop(st);
                    drop(groups);
                    std::thread::yield_now();
                    continue;
                }
                None => {
                    let g = Arc::new(Group {
                        state: Mutex::new(GroupState::Gathering(vec![item.clone()])),
                        cv: Condvar::new(),
                    });
                    groups.insert(key, g.clone());
                    break g;
                }
            }
        };
        // Leader: hold the window open, then take the batch.
        std::thread::sleep(self.window);
        let items = {
            let mut groups = lock(&self.groups);
            groups.remove(&key);
            let mut st = lock(&group.state);
            match std::mem::replace(&mut *st, GroupState::Running) {
                GroupState::Gathering(items) => items,
                _ => unreachable!("only the leader closes its group"),
            }
        };
        let size = items.len();
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exec(items)));
        let batch = match out {
            Ok(batch) => batch,
            Err(_) => {
                // Poison the group *before* doing anything else so every
                // member wakes and recovers even if our own retry panics.
                self.poisoned.inc();
                *lock(&group.state) = GroupState::Poisoned;
                group.cv.notify_all();
                return (self.solo(item, &mut exec), Role::Retried);
            }
        };
        self.book(size);
        let mut results: Vec<Option<R>> = batch.into_iter().map(Some).collect();
        assert_eq!(results.len(), size, "executor must map items 1:1");
        let mine = results[0].take().expect("leader owns slot 0");
        *lock(&group.state) = GroupState::Done(results);
        group.cv.notify_all();
        (mine, Role::Led { size })
    }

    /// Run one item as its own batch — the poison-recovery path.
    fn solo<F>(&self, item: I, exec: &mut F) -> R
    where
        F: FnMut(Vec<I>) -> Vec<R>,
    {
        self.book(1);
        let mut results = exec(vec![item]);
        debug_assert_eq!(results.len(), 1, "executor must map items 1:1");
        results.pop().expect("one item in, one result out")
    }

    /// Book one executor call over `size` items: the batch, the riders it
    /// merged, and its size.
    fn book(&self, size: usize) {
        static SIZE: paxsim_obs::LazyHistogram = paxsim_obs::LazyHistogram::new("serve.batch.size");
        self.batches.inc();
        self.merged.add(size as u64 - 1);
        // The exponential seconds buckets (1e-6·4^i) double as base-4
        // *size* buckets under this scaling: bucket i covers batch sizes
        // up to 4^i.
        SIZE.observe(size as f64 * 1e-6);
    }

    fn wait(&self, group: &Group<I, R>, slot: usize) -> Result<(R, Role), Poisoned> {
        let mut st = lock(&group.state);
        loop {
            match &mut *st {
                GroupState::Done(results) => {
                    let size = results.len();
                    let r = results[slot]
                        .take()
                        .expect("each member consumes its slot exactly once");
                    return Ok((r, Role::Joined { size }));
                }
                GroupState::Poisoned => return Err(Poisoned),
                _ => st = group.cv.wait(st).unwrap_or_else(|e| e.into_inner()),
            }
        }
    }
}

/// Marker: the waited-on batch's executor panicked.
struct Poisoned;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn zero_window_is_pass_through() {
        let b: Batcher<u32, u32> = Batcher::new(Duration::ZERO);
        let execs = AtomicUsize::new(0);
        let (r, role) = b.submit(1, 5, |items| {
            execs.fetch_add(1, Ordering::SeqCst);
            assert_eq!(items, vec![5]);
            vec![50]
        });
        assert_eq!((r, role), (50, Role::Led { size: 1 }));
        assert_eq!(execs.load(Ordering::SeqCst), 1);
        assert_eq!(b.batches(), 1);
        assert_eq!(b.merged(), 0);
        assert_eq!(b.open_groups(), 0);
    }

    #[test]
    fn concurrent_compatible_submissions_merge_into_one_exec() {
        let b: Batcher<u32, u32> = Batcher::new(Duration::from_millis(60));
        let execs = AtomicUsize::new(0);
        let gate = Barrier::new(4);
        let results: Vec<(u32, Role)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u32)
                .map(|i| {
                    let (b, execs, gate) = (&b, &execs, &gate);
                    scope.spawn(move || {
                        gate.wait();
                        b.submit(7, i, |items| {
                            execs.fetch_add(1, Ordering::SeqCst);
                            items.iter().map(|x| x * 10).collect()
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(execs.load(Ordering::SeqCst), 1, "one batch, one exec");
        assert_eq!(b.batches(), 1);
        assert_eq!(b.merged(), 3);
        let leaders = results
            .iter()
            .filter(|(_, r)| matches!(r, Role::Led { .. }))
            .count();
        assert_eq!(leaders, 1, "exactly one leader");
        for (r, role) in &results {
            assert_eq!(r % 10, 0, "every member got a result");
            assert_eq!(role.size(), 4);
        }
        // Demux is positional: each submitter got *its own* item back.
        let mut got: Vec<u32> = results.iter().map(|(r, _)| r / 10).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert_eq!(b.open_groups(), 0);
    }

    #[test]
    fn distinct_keys_never_merge() {
        let b: Batcher<u32, u32> = Batcher::new(Duration::from_millis(20));
        std::thread::scope(|scope| {
            for k in 0..3u64 {
                let b = &b;
                scope.spawn(move || {
                    let (r, role) = b.submit(k, k as u32, |items| items);
                    assert_eq!(r, k as u32);
                    assert_eq!(role, Role::Led { size: 1 });
                });
            }
        });
        assert_eq!(b.batches(), 3);
        assert_eq!(b.merged(), 0);
    }

    #[test]
    fn submissions_after_the_window_start_a_fresh_batch() {
        let b: Batcher<u32, u32> = Batcher::new(Duration::from_millis(10));
        let (_, first) = b.submit(9, 1, |items| items);
        let (_, second) = b.submit(9, 2, |items| items);
        assert_eq!(first, Role::Led { size: 1 });
        assert_eq!(second, Role::Led { size: 1 });
        assert_eq!(b.batches(), 2);
    }

    #[test]
    fn per_item_results_survive_non_clone_types() {
        // R has no Clone bound: each slot is moved out exactly once.
        struct Opaque(u32);
        let b: Batcher<u32, Opaque> = Batcher::new(Duration::ZERO);
        let (r, _) = b.submit(1, 3, |items| items.into_iter().map(Opaque).collect());
        assert_eq!(r.0, 3);
    }

    #[test]
    fn leader_panic_poisons_group_and_everyone_retries_individually() {
        // The first (batched) execution panics; every rider must recover
        // by re-running its own item alone, with the right result, and
        // nobody may hang.
        let b: Batcher<u32, u32> = Batcher::new(Duration::from_millis(60));
        let batch_execs = AtomicUsize::new(0);
        let gate = Barrier::new(4);
        let results: Vec<(u32, Role)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u32)
                .map(|i| {
                    let (b, batch_execs, gate) = (&b, &batch_execs, &gate);
                    scope.spawn(move || {
                        gate.wait();
                        b.submit(7, i, |items| {
                            if items.len() > 1 {
                                batch_execs.fetch_add(1, Ordering::SeqCst);
                                panic!("injected batch executor fault");
                            }
                            items.iter().map(|x| x * 10).collect()
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            batch_execs.load(Ordering::SeqCst),
            1,
            "exactly one batched execution panicked"
        );
        assert_eq!(b.poisoned(), 1);
        // Every rider recovered individually with its own result.
        let mut got: Vec<u32> = results.iter().map(|(r, _)| r / 10).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
        for (_, role) in &results {
            assert_eq!(*role, Role::Retried);
        }
        assert_eq!(b.open_groups(), 0);
        // The table is healthy afterwards: a fresh submission works.
        let (r, _) = b.submit(7, 9, |items| items.iter().map(|x| x * 10).collect());
        assert_eq!(r, 90);
    }

    #[test]
    fn solo_submitter_leader_panic_retries_itself() {
        // A one-rider group whose batch exec panics: the leader itself
        // recovers via the individual path.
        let b: Batcher<u32, u32> = Batcher::new(Duration::from_millis(5));
        let first = AtomicUsize::new(0);
        let (r, role) = b.submit(3, 4, |items| {
            if first.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("injected batch executor fault");
            }
            items.iter().map(|x| x + 1).collect()
        });
        assert_eq!((r, role), (5, Role::Retried));
        assert_eq!(b.poisoned(), 1);
    }
}
