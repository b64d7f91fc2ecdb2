//! Observability must observe, never perturb: `SimOutcome` is required to
//! be bit-identical with the obs layer enabled vs. disabled, on both
//! engines, across every Table 1 configuration — while the enabled runs
//! demonstrably *do* record (profile rows and metrics move). Any
//! instrumentation that leaks into simulated state (an extra allocation
//! that shifts a pointer-keyed decision, a counter read feeding timing)
//! fails here before it can skew a figure.

use std::sync::{Mutex, MutexGuard};

use paxsim_core::configs::all_configs;
use paxsim_core::store::TraceStore;
use paxsim_machine::prelude::*;
use paxsim_nas::KernelId;

#[allow(dead_code)] // the identity tests' `fast_matches_reference` is not used here
mod common;
#[allow(dead_code)] // one of the checks runs here
#[macro_use]
mod checks;
use common::{assert_outcomes_identical, class_t};

/// `paxsim_obs::set_enabled` is process-global; serialize the tests that
/// flip it.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Every Table 1 configuration × two kernels with opposite characters,
/// on both the fast engine (jittered and quiet/memoizing) and the
/// reference engine: enabling observability changes nothing.
#[test]
fn sim_outcome_is_bit_identical_with_obs_enabled() {
    let _lock = obs_lock();
    let machine = MachineConfig::paxville_smp();
    let store = TraceStore::new();
    for bench in [KernelId::Ep, KernelId::Cg] {
        for config in all_configs() {
            let trace = class_t(&store, bench, config.threads);
            let what = format!("{bench}/{}", config.name);
            // Jittered fast path, quiet (memoizing) fast path, reference.
            for (tag, jitter, reference) in [
                ("jittered", 250, false),
                ("quiet", 0, false),
                ("ref", 0, true),
            ] {
                let spec = || {
                    let s = JobSpec::pinned(trace.clone(), config.contexts.clone());
                    vec![s.with_jitter(jitter, 42)]
                };
                paxsim_obs::set_enabled(false);
                let off = if reference {
                    simulate_reference(&machine, spec())
                } else {
                    simulate(&machine, spec())
                };
                paxsim_obs::set_enabled(true);
                let on = if reference {
                    simulate_reference(&machine, spec())
                } else {
                    simulate(&machine, spec())
                };
                paxsim_obs::set_enabled(false);
                assert_outcomes_identical(&on, &off, &format!("{what}/{tag}"));
            }
        }
    }
}

// The enabled side of the differential must actually observe.
check_tests!((obs_lock(), paxsim_obs::set_enabled(true)); enabled_runs_record_profile_rows_and_metrics);
