//! Helpers shared by the engine identity tests.

use std::sync::Arc;

use paxsim_core::store::{TraceKey, TraceStore};
use paxsim_machine::prelude::*;
use paxsim_nas::{Class, KernelId};
use paxsim_omp::schedule::Schedule;

pub fn assert_outcomes_identical(fast: &SimOutcome, slow: &SimOutcome, what: &str) {
    assert_eq!(fast.wall_cycles, slow.wall_cycles, "{what}: wall cycles");
    assert_eq!(fast.total, slow.total, "{what}: machine-wide counters");
    assert_eq!(fast.jobs.len(), slow.jobs.len());
    for (f, s) in fast.jobs.iter().zip(slow.jobs.iter()) {
        assert_eq!(f.cycles, s.cycles, "{what}/{}: job cycles", f.name);
        assert_eq!(f.counters, s.counters, "{what}/{}: job counters", f.name);
        assert_eq!(f.regions.len(), s.regions.len());
        for (fr, sr) in f.regions.iter().zip(s.regions.iter()) {
            assert_eq!(fr.end, sr.end, "{what}/{}: region end", fr.label);
            assert_eq!(fr.cycles, sr.cycles, "{what}/{}: region cycles", fr.label);
        }
    }
}

/// The class T trace of `kernel` on `nthreads` threads, static schedule.
pub fn class_t(store: &TraceStore, kernel: KernelId, nthreads: usize) -> Arc<ProgramTrace> {
    store.get(TraceKey {
        kernel,
        class: Class::T,
        nthreads,
        schedule: Schedule::Static,
    })
}

/// The fast engine run with the process-default memo and with none, each
/// held to one reference run; returns the memoized outcome.
pub fn fast_matches_reference(
    machine: &MachineConfig,
    spec: impl Fn() -> Vec<JobSpec>,
    what: &str,
) -> SimOutcome {
    let slow = simulate_reference(machine, spec());
    let plain = simulate_in(None, machine, spec());
    assert_outcomes_identical(&plain, &slow, &format!("{what} without a memo"));
    let fast = simulate(machine, spec());
    assert_outcomes_identical(&fast, &slow, what);
    fast
}
