//! # paxsim-machine
//!
//! A deterministic, cycle-level simulator of the hardware platform studied in
//! Grant & Afsahi, *"A Comprehensive Analysis of OpenMP Applications on
//! Dual-Core Intel Xeon SMPs"* (IPDPS 2007): a Dell PowerEdge 2850 with two
//! dual-core 2.8 GHz Hyper-Threaded Intel Xeon "Paxville" EM64T processors.
//!
//! The simulated machine is a tree of shared resources:
//!
//! ```text
//! Machine ── dual-channel DDR2 memory controller (shared by both chips)
//!  ├─ Chip 0 ── front-side bus (shared by both cores)
//!  │   ├─ Core 0 ── trace cache, L1D, private 2MB L2, ITLB/DTLB, branch
//!  │   │            predictor, issue ports, stream prefetcher
//!  │   │   ├─ HW context A0   (SMT sibling pair shares everything above)
//!  │   │   └─ HW context A1
//!  │   └─ Core 1 (A2, A3)
//!  └─ Chip 1 (A4..A7)
//! ```
//!
//! Workloads are *operation traces* (loads, stores, FP/ALU work, branches and
//! basic-block fetches) produced by the `paxsim-omp` runtime while it
//! executes real kernel code natively. The engine advances each hardware
//! context through its trace in near-causal order (smallest-local-time first,
//! small quantum), resolving contention on the shared structures and
//! recording the full Intel-VTune-style counter set the paper reports:
//! cache / trace-cache / TLB misses, stalled cycles by cause, branch
//! prediction rate, demand vs. prefetch bus transactions, and CPI.
//!
//! Everything is deterministic: the same [`sim::JobSpec`]s on the same
//! [`config::MachineConfig`] always produce identical counters.
//!
//! ## Quick example
//!
//! ```
//! use paxsim_machine::prelude::*;
//!
//! // Hand-roll a tiny single-threaded program: one region that streams
//! // through 64 KiB of data doing a little FP work per cache line.
//! let mut ops = TraceBuf::new();
//! for i in 0..1024u64 {
//!     ops.block(1, 4);
//!     ops.load(0x10_0000 + i * 64);
//!     ops.flops(8);
//!     ops.branch(1, i != 1023);
//! }
//! let prog = ProgramTrace::single_region("stream", vec![ops]);
//! let cfg = MachineConfig::paxville_smp();
//! let out = simulate(&cfg, vec![JobSpec::pinned(prog.into(), vec![Lcpu::A0])]);
//! assert_eq!(out.jobs.len(), 1);
//! assert!(out.jobs[0].counters.l1d_miss > 900); // cold streaming misses
//! ```

pub mod branch;
pub mod bus;
pub mod cache;
pub mod component;
pub mod config;
pub mod counters;
pub mod engine;
pub mod memo;
pub mod op;
pub mod prefetch;
pub mod profile;
pub mod sim;
pub mod tlb;
pub mod topology;
pub mod trace;
pub mod trace_cache;

/// Ticks per clock cycle. All engine timestamps are in *ticks* so that
/// sub-cycle issue-slot costs (one uop = 1/width of a cycle) stay integral.
pub const TPC: u64 = 12;

/// Convert whole cycles to ticks.
#[inline]
pub const fn cycles(c: u64) -> u64 {
    c * TPC
}

/// Convert ticks back to (truncated) cycles.
#[inline]
pub const fn to_cycles(t: u64) -> u64 {
    t / TPC
}

pub mod prelude {
    //! The commonly used surface of the simulator.
    pub use crate::component::SchedStats;
    pub use crate::config::MachineConfig;
    pub use crate::counters::{Counters, Metrics};
    pub use crate::memo::{Memo, MemoStats};
    pub use crate::op::Op;
    pub use crate::sim::{
        simulate, simulate_in, simulate_reference, JobOutcome, JobSpec, RegionSpan, SimOutcome,
    };
    pub use crate::topology::{Lcpu, Topology};
    pub use crate::trace::{ProgramTrace, RegionTrace, TraceBuf};
    pub use crate::{cycles, to_cycles, TPC};
}
