//! # paxsim-bench
//!
//! Benchmark harness regenerating every table and figure of Grant &
//! Afsahi (IPDPS 2007). The `report` binary prints paper-style output:
//!
//! ```sh
//! cargo run --release --bin report -- table1 platform        # fast
//! cargo run --release --bin report -- --class S all          # everything
//! cargo run --release --bin report -- --json target/reports fig3
//! ```
//!
//! The Criterion benches time the simulator on each experiment's workload
//! (`cargo bench`), one bench target per paper artifact:
//!
//! | target                 | artifact |
//! |------------------------|----------|
//! | `platform_calibration` | §3 platform numbers (P1) |
//! | `fig2_single_program`  | Figure 2 metric panels |
//! | `fig3_speedup`         | Figure 3 + Table 2 |
//! | `fig4_multiprogram`    | Figure 4 |
//! | `fig5_pairs`           | Figure 5 |
//! | `ablation`             | model-design ablations (DESIGN.md §3) |
//!
//! These six are **paper regeneration, not performance gates**: each
//! prints its artifact at tiny class and then times the driver that made
//! it, and nothing compares those timings with a committed number. The
//! fig5-shaped sweep time (ten pairs of EP/IS/CG/BT × seven configurations
//! on a warm trace store) is read from `fig5_pairs`, as
//! `fig5/cross_product/4benchmarks`. Performance claims are made with
//! paxbench (`benchmark/`, `BENCHMARK.json`): a paired parent-vs-change
//! run of its five workloads is the only performance gate this repo has.

/// Common helpers for the bench targets.
pub mod helpers {
    use paxsim_core::prelude::*;
    use paxsim_nas::{Class, KernelId};
    use paxsim_omp::schedule::Schedule;
    use std::sync::Arc;

    /// A memoizing store pre-warmed for a benchmark at every thread count
    /// used by the Table 1 configurations.
    pub fn warmed_store(benches: &[KernelId], class: Class) -> TraceStore {
        let store = TraceStore::new();
        for &b in benches {
            for threads in [1, 2, 4, 8] {
                store.get(TraceKey {
                    kernel: b,
                    class,
                    nthreads: threads,
                    schedule: Schedule::Static,
                });
            }
        }
        store
    }

    /// Fetch a prebuilt trace.
    pub fn trace(
        store: &TraceStore,
        bench: KernelId,
        class: Class,
        threads: usize,
    ) -> Arc<paxsim_machine::trace::ProgramTrace> {
        store.get(TraceKey {
            kernel: bench,
            class,
            nthreads: threads,
            schedule: Schedule::Static,
        })
    }
}
