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

/// The enabled side of the differential must actually observe: profile
/// rows cover every region, and the metrics registry moves.
#[test]
fn enabled_runs_record_profile_rows_and_metrics() {
    let _lock = obs_lock();
    let machine = MachineConfig::paxville_smp();
    let store = TraceStore::new();
    let config = all_configs()
        .into_iter()
        .find(|c| c.threads == 2)
        .expect("Table 1 has a 2-thread configuration");
    let trace = class_t(&store, KernelId::Cg, config.threads);
    paxsim_obs::set_enabled(true);
    let runs_before = paxsim_machine::profile::take_last_run(); // drain
    drop(runs_before);
    let outcome = simulate(
        &machine,
        vec![JobSpec::pinned(trace.clone(), config.contexts.clone())],
    );
    let rows = paxsim_machine::profile::take_last_run().expect("profiled run publishes rows");
    paxsim_obs::set_enabled(false);
    assert!(!rows.is_empty(), "at least one region row");
    // Attribution is conservative: summed region ticks equal the job's
    // region spans, and executions + replays cover every region boundary.
    let total_regions: u64 = rows.iter().map(|r| r.executions + r.memo_replays).sum();
    assert_eq!(total_regions as usize, outcome.jobs[0].regions.len());
    let attributed: u64 = rows.iter().map(|r| r.counters.instructions).sum();
    assert_eq!(attributed, outcome.jobs[0].counters.instructions);
    // The registry moved: the sim-run counter renders in the snapshot.
    let json = paxsim_obs::snapshot().to_json();
    let runs = json["counters"]["machine.sim.runs"].as_u64().unwrap_or(0);
    assert!(runs >= 1, "machine.sim.runs must have counted: {json:?}");
}
