//! Per-phase profiling: cycle/instruction/stall attribution per interned
//! region, collected as a side channel while the engine runs.
//!
//! The collector is thread-local and strictly read-only with respect to
//! simulated state: the engine calls [`on_region`] with values it has
//! already computed (the barrier-release clock and the job's cumulative
//! counters), and the collector derives per-region deltas by differencing
//! against its own cursor. Nothing in the simulator ever reads the
//! collector, so enabling profiling cannot perturb `SimOutcome` — the obs
//! determinism suite enforces this bit-for-bit.
//!
//! Region identity reuses the trace layer's interning: a row is keyed by
//! the `Arc<RegionTrace>` pointer, the same identity the memo table keys
//! on, so every repeat of one interned region aggregates into one row
//! ([`RegionRow::executions`] counts simulated runs,
//! [`RegionRow::memo_replays`] counts steady-state replays).

use std::cell::RefCell;

use crate::counters::Counters;
use crate::to_cycles;

/// Aggregated attribution for one interned region of one job.
#[derive(Debug, Clone)]
pub struct RegionRow {
    /// Job index within the run's `JobSpec` list.
    pub job: usize,
    /// The region's diagnostic label ("cg.spmv", "serial", …).
    pub label: String,
    /// Times the region was actually simulated.
    pub executions: u64,
    /// Times it was replayed from the memo table instead.
    pub memo_replays: u64,
    /// Wall ticks attributed to the region (sum of its barrier-to-barrier
    /// spans, including the sync wait of early arrivers).
    pub ticks: u64,
    /// Aggregate counter delta across all executions and replays.
    pub counters: Counters,
}

impl RegionRow {
    /// Attributed wall ticks in cycles.
    pub fn cycles(&self) -> u64 {
        to_cycles(self.ticks)
    }
}

/// Per-job differencing state: the previous region's release clock and
/// the cumulative counters at that point.
struct Cursor {
    prev_end: u64,
    prev_counters: Counters,
    /// Interned-region pointer → row index, linear-scanned: a job has
    /// few distinct regions, and this lookup sits on the engine's
    /// per-arrival path where hashing the key costs more than the scan.
    rows_by_key: Vec<(usize, usize)>,
}

struct Collector {
    rows: Vec<RegionRow>,
    cursors: Vec<Cursor>,
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
    static LAST: RefCell<Option<Vec<RegionRow>>> = const { RefCell::new(None) };
}

/// Arm the collector for an engine run whose jobs start at `starts`.
/// Called by `run_impl` only while the obs layer is enabled.
pub(crate) fn begin(starts: &[u64]) {
    let cursors = starts
        .iter()
        .map(|&s| Cursor {
            prev_end: s,
            prev_counters: Counters::default(),
            rows_by_key: Vec::new(),
        })
        .collect();
    COLLECTOR.with(|a| {
        *a.borrow_mut() = Some(Collector {
            rows: Vec::new(),
            cursors,
        })
    });
}

/// Record one region completion: `end` is the release clock and
/// `cumulative` the job's counters at release. No-op when no collector is
/// armed (obs flipped on mid-run, or a run that started disabled).
pub(crate) fn on_region(
    job: usize,
    key: usize,
    label: &str,
    end: u64,
    cumulative: &Counters,
    replay: bool,
) {
    COLLECTOR.with(|a| {
        let mut a = a.borrow_mut();
        let Some(c) = a.as_mut() else { return };
        let Collector { rows, cursors } = c;
        let Some(cur) = cursors.get_mut(job) else {
            return;
        };
        let dticks = end.saturating_sub(cur.prev_end);
        let dcounters = cumulative.delta(&cur.prev_counters);
        cur.prev_end = end;
        cur.prev_counters = *cumulative;
        let ri = match cur.rows_by_key.iter().find(|(k, _)| *k == key) {
            Some(&(_, ri)) => ri,
            None => {
                rows.push(RegionRow {
                    job,
                    label: label.to_string(),
                    executions: 0,
                    memo_replays: 0,
                    ticks: 0,
                    counters: Counters::default(),
                });
                let ri = rows.len() - 1;
                cur.rows_by_key.push((key, ri));
                ri
            }
        };
        let row = &mut rows[ri];
        if replay {
            row.memo_replays += 1;
        } else {
            row.executions += 1;
        }
        row.ticks += dticks;
        row.counters.add(&dcounters);
    });
}

/// Disarm the collector and publish its rows as the thread's last run.
pub(crate) fn finish() {
    let done = COLLECTOR.with(|a| a.borrow_mut().take());
    if let Some(c) = done {
        LAST.with(|l| *l.borrow_mut() = Some(c.rows));
    }
}

/// Consume the per-region rows of the most recent profiled engine run on
/// this thread. `None` when no profiled run has completed since the last
/// take (or obs was disabled).
pub fn take_last_run() -> Option<Vec<RegionRow>> {
    LAST.with(|l| l.borrow_mut().take())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_differences_cumulative_counters_into_region_deltas() {
        begin(&[100]);
        let mut cum = Counters {
            instructions: 10,
            ticks_issue: 50,
            ..Counters::default()
        };
        on_region(0, 0xA, "first", 300, &cum, false);
        cum.instructions += 5;
        cum.ticks_issue += 20;
        on_region(0, 0xA, "first", 400, &cum, true);
        cum.instructions += 1;
        on_region(0, 0xB, "second", 450, &cum, false);
        finish();
        let rows = take_last_run().expect("collector was armed");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].label, "first");
        assert_eq!(rows[0].executions, 1);
        assert_eq!(rows[0].memo_replays, 1);
        assert_eq!(rows[0].ticks, 300); // (300-100) + (400-300)
        assert_eq!(rows[0].counters.instructions, 15);
        assert_eq!(rows[0].counters.ticks_issue, 70);
        assert_eq!(rows[1].label, "second");
        assert_eq!(rows[1].ticks, 50);
        assert_eq!(rows[1].counters.instructions, 1);
        assert!(take_last_run().is_none(), "rows are consumed");
    }

    #[test]
    fn on_region_is_a_noop_without_an_armed_collector() {
        finish(); // clear any armed state
        let _ = take_last_run();
        on_region(0, 0xC, "orphan", 10, &Counters::default(), false);
        assert!(take_last_run().is_none());
    }
}
