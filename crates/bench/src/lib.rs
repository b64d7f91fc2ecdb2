//! # paxsim-bench
//!
//! Regenerates every table and figure of Grant & Afsahi (IPDPS 2007). The
//! `report` binary prints paper-style output:
//!
//! ```sh
//! cargo run --release --bin report -- table1 platform        # fast
//! cargo run --release --bin report -- --class S all          # everything
//! cargo run --release --bin report -- --json target/reports fig3
//! cargo run --release --bin report -- ablation               # model ablations
//! ```
//!
//! Nothing here is a performance gate. Performance claims are made with
//! paxbench (`benchmark/`, `BENCHMARK.json`): a paired parent-vs-change
//! run of its five workloads is the only performance gate this repo has.
