//! The determinism dividend: because the simulator is bit-deterministic,
//! the seed-shaped reference engine is a free oracle for the optimized
//! one. These tests drive real NAS kernel traces through every Table 1
//! configuration on both engines and require *bit-identical* outcomes —
//! every counter, every region boundary, every cycle count. Any drift in
//! the fast-path caches, the min-heap scheduler, or the batched replay
//! fails here before it can skew a single figure. The checks are in
//! `checks/mod.rs`; `obs_on.rs` runs them again with the obs layer on.

mod common;
#[macro_use]
mod checks;

check_tests!((); run_encoded_traces_simulate_as_their_raw_twins, fast_engine_matches_reference_on_all_table1_configs, single_context_jittered_runs_match_reference, memoizing_engine_matches_reference_on_all_table1_configs, memoization_fires_on_iterative_cg, never_seen_jitter_replays_serial_cg_without_a_machine, fast_engine_matches_reference_multiprogrammed, shrunk_budget_evicts_but_never_changes_a_result);
