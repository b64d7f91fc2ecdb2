//! Hardware performance counters and the derived metrics the paper reports.
//!
//! The counter set mirrors what Grant & Afsahi collected with Intel VTune
//! 7.2 on the Paxville Xeon: cache and trace-cache events, TLB events,
//! stall-cycle breakdowns, branch outcomes, demand vs. prefetch bus
//! transactions, and retired instructions. [`Metrics`] computes exactly the
//! nine quantities plotted in Figures 2 and 4.

use serde::{Deserialize, Serialize};

use crate::to_cycles;

/// Raw event counts. Times (`ticks_*`) are in engine ticks; use
/// [`Counters::stall_cycles`] and friends for cycle-domain values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// Retired instructions (uops).
    pub instructions: u64,

    /// L1 data-cache accesses and misses.
    pub l1d_access: u64,
    pub l1d_miss: u64,
    /// L2 accesses and misses: L1 misses only, loads and stores alike. A
    /// store that hits L1 writes L2's copy through uncounted.
    pub l2_access: u64,
    pub l2_miss: u64,
    /// Shared-L3 accesses and misses (zero on topologies without an L3,
    /// such as the paper's Paxville hierarchy).
    #[serde(default)]
    pub l3_access: u64,
    #[serde(default)]
    pub l3_miss: u64,
    /// Trace-cache (front-end) accesses and misses.
    pub tc_access: u64,
    pub tc_miss: u64,

    /// Instruction-TLB accesses and misses.
    pub itlb_access: u64,
    pub itlb_miss: u64,
    /// Data-TLB accesses and misses, split by loads and stores as VTune
    /// reports them ("DTLB load and store misses").
    pub dtlb_access: u64,
    pub dtlb_miss_load: u64,
    pub dtlb_miss_store: u64,

    /// Executed conditional branches and mispredictions.
    pub branches: u64,
    pub branch_mispredict: u64,

    /// Cross-core invalidations caused by this job's stores gaining
    /// exclusive ownership (MESI-style read-for-ownership snoops).
    pub coherence_invalidations: u64,
    /// Front-side-bus transactions by kind.
    pub bus_demand_read: u64,
    pub bus_write: u64,
    pub bus_prefetch: u64,

    /// Ticks spent issuing uops.
    pub ticks_issue: u64,
    /// Hardware stall ticks by cause (these four-plus-two causes are the
    /// paper's "stalled state": memory data delay, branch flushes, trace
    /// cache starvation, TLB walks, write-buffer backpressure, and
    /// contention for issue ports).
    pub ticks_stall_mem: u64,
    pub ticks_stall_branch: u64,
    pub ticks_stall_tc: u64,
    pub ticks_stall_tlb: u64,
    pub ticks_stall_wb: u64,
    pub ticks_stall_issue: u64,
    /// Synchronization wait (barrier imbalance / serial sections). Not a
    /// hardware stall: excluded from `%stalled`, reported separately.
    pub ticks_sync: u64,
}

impl Counters {
    /// Sum of all hardware stall ticks (excludes synchronization wait).
    /// Saturating: a pathological block near `u64::MAX` must clamp, not
    /// wrap (or panic in debug) — derived metrics stay finite either way.
    pub fn ticks_stall(&self) -> u64 {
        self.ticks_stall_mem
            .saturating_add(self.ticks_stall_branch)
            .saturating_add(self.ticks_stall_tc)
            .saturating_add(self.ticks_stall_tlb)
            .saturating_add(self.ticks_stall_wb)
            .saturating_add(self.ticks_stall_issue)
    }

    /// Active execution ticks: issue plus hardware stalls (saturating).
    pub fn ticks_active(&self) -> u64 {
        self.ticks_issue.saturating_add(self.ticks_stall())
    }

    pub fn stall_cycles(&self) -> u64 {
        to_cycles(self.ticks_stall())
    }

    pub fn active_cycles(&self) -> u64 {
        to_cycles(self.ticks_active())
    }

    pub fn sync_cycles(&self) -> u64 {
        to_cycles(self.ticks_sync)
    }

    /// Total DTLB misses (loads + stores, saturating).
    pub fn dtlb_miss(&self) -> u64 {
        self.dtlb_miss_load.saturating_add(self.dtlb_miss_store)
    }

    /// Total bus transactions (saturating).
    pub fn bus_total(&self) -> u64 {
        self.bus_demand_read
            .saturating_add(self.bus_write)
            .saturating_add(self.bus_prefetch)
    }

    /// Accumulate another counter block into this one.
    pub fn add(&mut self, o: &Counters) {
        self.instructions += o.instructions;
        self.l1d_access += o.l1d_access;
        self.l1d_miss += o.l1d_miss;
        self.l2_access += o.l2_access;
        self.l2_miss += o.l2_miss;
        self.l3_access += o.l3_access;
        self.l3_miss += o.l3_miss;
        self.tc_access += o.tc_access;
        self.tc_miss += o.tc_miss;
        self.itlb_access += o.itlb_access;
        self.itlb_miss += o.itlb_miss;
        self.dtlb_access += o.dtlb_access;
        self.dtlb_miss_load += o.dtlb_miss_load;
        self.dtlb_miss_store += o.dtlb_miss_store;
        self.branches += o.branches;
        self.branch_mispredict += o.branch_mispredict;
        self.coherence_invalidations += o.coherence_invalidations;
        self.bus_demand_read += o.bus_demand_read;
        self.bus_write += o.bus_write;
        self.bus_prefetch += o.bus_prefetch;
        self.ticks_issue += o.ticks_issue;
        self.ticks_stall_mem += o.ticks_stall_mem;
        self.ticks_stall_branch += o.ticks_stall_branch;
        self.ticks_stall_tc += o.ticks_stall_tc;
        self.ticks_stall_tlb += o.ticks_stall_tlb;
        self.ticks_stall_wb += o.ticks_stall_wb;
        self.ticks_stall_issue += o.ticks_stall_issue;
        self.ticks_sync += o.ticks_sync;
    }

    /// Field-wise difference `self − earlier`. Counters are monotone
    /// within a run, so this is the exact per-region delta the engine's
    /// memoization records and replays (the inverse of [`Counters::add`]).
    pub fn delta(&self, earlier: &Counters) -> Counters {
        Counters {
            instructions: self.instructions - earlier.instructions,
            l1d_access: self.l1d_access - earlier.l1d_access,
            l1d_miss: self.l1d_miss - earlier.l1d_miss,
            l2_access: self.l2_access - earlier.l2_access,
            l2_miss: self.l2_miss - earlier.l2_miss,
            l3_access: self.l3_access - earlier.l3_access,
            l3_miss: self.l3_miss - earlier.l3_miss,
            tc_access: self.tc_access - earlier.tc_access,
            tc_miss: self.tc_miss - earlier.tc_miss,
            itlb_access: self.itlb_access - earlier.itlb_access,
            itlb_miss: self.itlb_miss - earlier.itlb_miss,
            dtlb_access: self.dtlb_access - earlier.dtlb_access,
            dtlb_miss_load: self.dtlb_miss_load - earlier.dtlb_miss_load,
            dtlb_miss_store: self.dtlb_miss_store - earlier.dtlb_miss_store,
            branches: self.branches - earlier.branches,
            branch_mispredict: self.branch_mispredict - earlier.branch_mispredict,
            coherence_invalidations: self.coherence_invalidations - earlier.coherence_invalidations,
            bus_demand_read: self.bus_demand_read - earlier.bus_demand_read,
            bus_write: self.bus_write - earlier.bus_write,
            bus_prefetch: self.bus_prefetch - earlier.bus_prefetch,
            ticks_issue: self.ticks_issue - earlier.ticks_issue,
            ticks_stall_mem: self.ticks_stall_mem - earlier.ticks_stall_mem,
            ticks_stall_branch: self.ticks_stall_branch - earlier.ticks_stall_branch,
            ticks_stall_tc: self.ticks_stall_tc - earlier.ticks_stall_tc,
            ticks_stall_tlb: self.ticks_stall_tlb - earlier.ticks_stall_tlb,
            ticks_stall_wb: self.ticks_stall_wb - earlier.ticks_stall_wb,
            ticks_stall_issue: self.ticks_stall_issue - earlier.ticks_stall_issue,
            ticks_sync: self.ticks_sync - earlier.ticks_sync,
        }
    }

    /// Derive the paper's reported metrics from these counters.
    ///
    /// Every division is guarded: a zero denominator yields `0.0`, never
    /// NaN or ±inf, so empty or partial counter blocks (a job that retired
    /// no branches, a run with no bus traffic) always produce finite,
    /// serializable metrics.
    pub fn metrics(&self) -> Metrics {
        let rate = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        Metrics {
            l1_miss_rate: rate(self.l1d_miss, self.l1d_access),
            l2_miss_rate: rate(self.l2_miss, self.l2_access),
            tc_miss_rate: rate(self.tc_miss, self.tc_access),
            itlb_miss_rate: rate(self.itlb_miss, self.itlb_access),
            dtlb_misses: self.dtlb_miss(),
            pct_stalled: rate(self.ticks_stall(), self.ticks_active()),
            // saturating_sub: a malformed block with mispredicts > branches
            // must clamp to 0.0 rather than wrap (or panic in debug).
            branch_prediction_rate: rate(
                self.branches.saturating_sub(self.branch_mispredict),
                self.branches,
            ),
            pct_prefetch_bus: rate(self.bus_prefetch, self.bus_total()),
            cpi: rate(self.active_cycles(), self.instructions),
        }
    }
}

/// The nine derived quantities in the paper's Figure 2 / Figure 4 panels.
/// Rates are fractions in `[0, 1]` (format as percentages in reports);
/// `dtlb_misses` is an absolute count to be normalized against the serial
/// configuration, as the paper does.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    pub l1_miss_rate: f64,
    pub l2_miss_rate: f64,
    pub tc_miss_rate: f64,
    pub itlb_miss_rate: f64,
    pub dtlb_misses: u64,
    pub pct_stalled: f64,
    pub branch_prediction_rate: f64,
    pub pct_prefetch_bus: f64,
    pub cpi: f64,
}

impl Metrics {
    /// The metric names in paper order (the panel titles of Figure 2).
    pub const NAMES: [&'static str; 9] = [
        "L1 Cache Miss Rate",
        "L2 Cache Miss Rate",
        "Trace Cache Miss Rate",
        "ITLB Miss Rate",
        "DTLB Load and Store Misses",
        "% Stalled Operation",
        "Branch Prediction Rate",
        "% Prefetching Bus Accesses",
        "CPI",
    ];

    /// Metric values in the same order as [`Metrics::NAMES`]; `dtlb_misses`
    /// is returned raw (callers normalize it against serial).
    pub fn values(&self) -> [f64; 9] {
        [
            self.l1_miss_rate,
            self.l2_miss_rate,
            self.tc_miss_rate,
            self.itlb_miss_rate,
            self.dtlb_misses as f64,
            self.pct_stalled,
            self.branch_prediction_rate,
            self.pct_prefetch_bus,
            self.cpi,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TPC;

    fn sample() -> Counters {
        Counters {
            instructions: 1000,
            l1d_access: 400,
            l1d_miss: 40,
            l2_access: 50,
            l2_miss: 10,
            l3_access: 10,
            l3_miss: 6,
            tc_access: 100,
            tc_miss: 5,
            itlb_access: 100,
            itlb_miss: 1,
            dtlb_access: 400,
            dtlb_miss_load: 3,
            dtlb_miss_store: 2,
            branches: 200,
            branch_mispredict: 4,
            coherence_invalidations: 1,
            bus_demand_read: 8,
            bus_write: 2,
            bus_prefetch: 10,
            ticks_issue: 600 * TPC,
            ticks_stall_mem: 300 * TPC,
            ticks_stall_branch: 50 * TPC,
            ticks_stall_tc: 20 * TPC,
            ticks_stall_tlb: 10 * TPC,
            ticks_stall_wb: 10 * TPC,
            ticks_stall_issue: 10 * TPC,
            ticks_sync: 100 * TPC,
        }
    }

    #[test]
    fn derived_metrics_match_definitions() {
        let c = sample();
        let m = c.metrics();
        assert!((m.l1_miss_rate - 0.1).abs() < 1e-12);
        assert!((m.l2_miss_rate - 0.2).abs() < 1e-12);
        assert!((m.tc_miss_rate - 0.05).abs() < 1e-12);
        assert!((m.itlb_miss_rate - 0.01).abs() < 1e-12);
        assert_eq!(m.dtlb_misses, 5);
        assert!((m.pct_stalled - 400.0 / 1000.0).abs() < 1e-12);
        assert!((m.branch_prediction_rate - 0.98).abs() < 1e-12);
        assert!((m.pct_prefetch_bus - 0.5).abs() < 1e-12);
        assert!((m.cpi - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sync_excluded_from_stall() {
        let c = sample();
        assert_eq!(c.stall_cycles(), 400);
        assert_eq!(c.sync_cycles(), 100);
        assert_eq!(c.active_cycles(), 1000);
    }

    #[test]
    fn zero_counters_yield_zero_metrics() {
        let m = Counters::default().metrics();
        assert_eq!(m.l1_miss_rate, 0.0);
        assert_eq!(m.cpi, 0.0);
        assert_eq!(m.branch_prediction_rate, 0.0);
    }

    #[test]
    fn degenerate_counters_stay_finite() {
        // Every denominator zero, plus mispredicts exceeding branches:
        // all metrics must come out finite (no NaN, no ±inf, no wrap).
        let c = Counters {
            branch_mispredict: 7,
            l1d_miss: 3,
            l2_miss: 3,
            tc_miss: 3,
            itlb_miss: 3,
            ..Counters::default()
        };
        let m = c.metrics();
        for (name, v) in Metrics::NAMES.iter().zip(m.values()) {
            assert!(v.is_finite(), "{name} = {v}");
        }
        assert_eq!(m.branch_prediction_rate, 0.0);
        assert_eq!(m.pct_stalled, 0.0);
        assert_eq!(m.pct_prefetch_bus, 0.0);
    }

    #[test]
    fn add_accumulates_every_field() {
        let c = sample();
        let mut acc = Counters::default();
        acc.add(&c);
        acc.add(&c);
        assert_eq!(acc.instructions, 2 * c.instructions);
        assert_eq!(acc.bus_total(), 2 * c.bus_total());
        assert_eq!(acc.ticks_active(), 2 * c.ticks_active());
        assert_eq!(acc.dtlb_miss(), 2 * c.dtlb_miss());
        assert_eq!(acc.ticks_sync, 2 * c.ticks_sync);
        // CPI is intensive, not extensive: doubling all counts preserves it.
        assert!((acc.metrics().cpi - c.metrics().cpi).abs() < 1e-12);
    }

    #[test]
    fn delta_inverts_add() {
        let a = sample();
        let mut b = a;
        b.add(&a);
        assert_eq!(b.delta(&a), a);
        assert_eq!(a.delta(&a), Counters::default());
    }

    #[test]
    fn names_and_values_align() {
        let m = sample().metrics();
        assert_eq!(Metrics::NAMES.len(), m.values().len());
        assert_eq!(m.values()[8], m.cpi);
        assert_eq!(m.values()[4], m.dtlb_misses as f64);
    }
}
