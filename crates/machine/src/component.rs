//! The discrete-event scheduler: the engine schedules hardware contexts,
//! and simulated time advances directly to the earliest pending context
//! event instead of ticking cycle by cycle.
//!
//! # The quiescent-skip idea
//!
//! A cycle-stepping simulator asks every structure "anything to do?" every
//! cycle; almost always the answer is no. Here only the hardware contexts
//! (replaying their traces) carry event times. Every other structure —
//! caches, TLBs, the trace cache, the bus and memory-controller servers,
//! the prefetcher, the branch predictor — is **quiescent**: it never
//! schedules an event of its own, and its lazily-advancing
//! `next_free`/`ready_at` timestamps are resolved on demand at whatever
//! tick the requester presents. So the event queue holds at most one
//! entry per context and the engine skips every intervening quiescent
//! cycle for free.
//!
//! # The event-scheduling invariant
//!
//! **No structure observes time moving backwards.** The [`EventScheduler`]
//! dispatches events in nondecreasing `(tick, index)` order (verified by a
//! debug assertion on every dispatch), so a context only ever runs at a
//! tick at or above every previous one it has seen. Quiescent structures
//! rely on this: a single `next_free` integer models an entire FIFO queue
//! only because requests arrive in nondecreasing time order.
//!
//! # Why quiescent skipping is bit-identical
//!
//! Skipping a span of simulated time in which no context has a pending
//! event cannot change any outcome: every structure's state transition
//! function is driven solely by the (tick, request) pairs it receives, and
//! the skip changes neither the requests nor their ticks — it only avoids
//! evaluating the identity transition in between. The differential suites
//! in `paxsim-core` enforce this against the cycle-granular reference
//! engine on every Table 1 configuration.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

/// Event-scheduling telemetry for one simulation run: proof that the
/// quiescent-skip actually engages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedStats {
    /// Events dispatched by the scheduler (validated queue pops plus
    /// memoized region replays).
    pub events_scheduled: u64,
    /// Simulated cycles covered by direct event-to-event jumps — cycles a
    /// cycle-stepping engine would have ticked through one by one.
    pub cycles_skipped: u64,
}

impl SchedStats {
    /// Mean simulated cycles advanced per dispatched event (0 when nothing
    /// was dispatched). ≫ 1 means the scheduler is skipping, not stepping.
    pub fn cycles_per_event(&self) -> f64 {
        if self.events_scheduled == 0 {
            0.0
        } else {
            self.cycles_skipped as f64 / self.events_scheduled as f64
        }
    }
}

/// The lazy min-heap event queue driving the hardware contexts.
///
/// Keys are `(tick, context index)`; lexicographic order reproduces the
/// reference engine's deterministic tie-break (lowest index among the
/// least-advanced contexts). Entries are never removed when a context
/// advances or blocks — a popped entry is validated by the caller against
/// the context's current state and discarded when stale. Because
/// context clocks never decrease, a stale entry can never masquerade as
/// a current one.
#[derive(Debug, Default)]
pub(crate) struct EventScheduler {
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// Tick of the most recent dispatch (simulated "now").
    now: u64,
    events: u64,
    skipped_ticks: u64,
}

impl EventScheduler {
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue context `i`'s next event at tick `t`.
    #[inline]
    pub fn push(&mut self, t: u64, i: usize) {
        self.heap.push(Reverse((t, i)));
    }

    /// Remove and return the earliest `(tick, index)` entry. The caller
    /// must validate it (and call [`EventScheduler::dispatched`] if valid).
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, usize)> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    /// The earliest pending entry, without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(u64, usize)> {
        self.heap.peek().map(|&Reverse(e)| e)
    }

    /// Record a validated dispatch at tick `t`: simulated time jumps
    /// directly from the previous dispatch to `t`.
    #[inline]
    pub fn dispatched(&mut self, t: u64) {
        debug_assert!(t >= self.now, "event time moved backwards");
        self.events += 1;
        self.skipped_ticks += t - self.now;
        self.now = t;
    }

    /// Record a memoized region replay ending at tick `t`: one event that
    /// jumps the whole region in a single step.
    #[inline]
    pub fn jump(&mut self, t: u64) {
        self.dispatched(t);
    }

    /// Drop all queued entries (stats and `now` persist). Used by the
    /// memoizing driver, which rebuilds the queue at each region boundary.
    #[inline]
    pub fn clear_queue(&mut self) {
        self.heap.clear();
    }

    pub fn stats(&self) -> SchedStats {
        SchedStats {
            events_scheduled: self.events,
            cycles_skipped: crate::to_cycles(self.skipped_ticks),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_dispatches_in_time_index_order() {
        let mut s = EventScheduler::new();
        s.push(50, 1);
        s.push(20, 2);
        s.push(20, 0);
        assert_eq!(s.pop(), Some((20, 0)));
        assert_eq!(s.pop(), Some((20, 2)));
        assert_eq!(s.peek(), Some((50, 1)));
        assert_eq!(s.pop(), Some((50, 1)));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn skip_accounting_telescopes_over_jumps() {
        let mut s = EventScheduler::new();
        for (t, i) in [
            (0u64, 0usize),
            (crate::cycles(100), 1),
            (crate::cycles(250), 0),
        ] {
            s.push(t, i);
        }
        while let Some((t, _)) = s.pop() {
            s.dispatched(t);
        }
        let st = s.stats();
        assert_eq!(st.events_scheduled, 3);
        assert_eq!(st.cycles_skipped, 250);
        assert!(st.cycles_per_event() > 80.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "backwards")]
    fn time_never_moves_backwards() {
        let mut s = EventScheduler::new();
        s.dispatched(100);
        s.dispatched(50);
    }

    #[test]
    fn stats_guard_zero_events() {
        assert_eq!(SchedStats::default().cycles_per_event(), 0.0);
    }
}
