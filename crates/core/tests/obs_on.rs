//! The engine identity checks of `differential.rs`, and the recording
//! check of `obs_determinism.rs`, with the obs layer and its per-region
//! profiling hooks on from each test's first line and never turned off:
//! the fast and reference engines stay bit-identical with
//! instrumentation live.

mod common;
#[macro_use]
mod checks;

check_tests!(paxsim_obs::set_enabled(true); run_encoded_traces_simulate_as_their_raw_twins, fast_engine_matches_reference_on_all_table1_configs, single_context_jittered_runs_match_reference, memoizing_engine_matches_reference_on_all_table1_configs, memoization_fires_on_iterative_cg, never_seen_jitter_replays_serial_cg_without_a_machine, fast_engine_matches_reference_multiprogrammed, shrunk_budget_evicts_but_never_changes_a_result, enabled_runs_record_profile_rows_and_metrics);
