//! The region memo's byte budget, shrunk to a few snapshots: eviction may
//! only cost hits, never change a result, and the table never outgrows the
//! budget while distinct traces — and, on `Serial`, jittered runs of them
//! with their aged snapshots — keep arriving. One test, in a process of its
//! own, because the budget is process-wide.

use paxsim_core::configs::all_configs;
use paxsim_core::store::{TraceKey, TraceStore};
use paxsim_machine::prelude::*;
use paxsim_nas::{Class, KernelId};
use paxsim_omp::schedule::Schedule;

/// Room for about a dozen class T snapshots: a quiet serial CG run alone
/// interns nine in about 190 KB — some 20 KB each, most of it the running
/// core's predictor table, since what snapshots share (the idle cores'
/// tables, the cache chunks a region left alone) is charged once — and an
/// aged image a jittered run adds holds its source's chunks.
const BUDGET: usize = 256 << 10;

fn memo_gauge(name: &str) -> f64 {
    paxsim_machine::memo::publish_gauges();
    paxsim_obs::gauge(name).get()
}

#[test]
fn shrunk_budget_evicts_but_never_changes_a_result() {
    paxsim_obs::set_enabled(true);
    let machine = MachineConfig::paxville_smp();
    let store = TraceStore::new();
    let run = |bench, config: &paxsim_core::configs::HwConfig, jitter, seed| {
        let trace = store.get(TraceKey {
            kernel: bench,
            class: Class::T,
            nthreads: config.threads,
            schedule: Schedule::Static,
        });
        vec![JobSpec::pinned(trace, config.contexts.clone()).with_jitter(jitter, seed)]
    };
    let cg = |config| run(KernelId::Cg, config, 0, 0);

    // Unbounded, a second run replays every region.
    let roomy = &all_configs()[0];
    simulate(&machine, cg(roomy));
    let replay = simulate(&machine, cg(roomy));
    assert_eq!(replay.memo.hits, replay.memo.probes);

    paxsim_machine::memo::set_budget_for_tests(BUDGET);
    let mut hits = 0;
    for bench in [KernelId::Ep, KernelId::Cg] {
        for config in all_configs() {
            // Quiet twice; one context is memoized under jitter too.
            let jittered: &[(u64, u64)] = if config.threads == 1 {
                &[(2_000, 1), (2_000, 2), (1, 3)]
            } else {
                &[]
            };
            for &(jitter, seed) in [(0, 0), (0, 0)].iter().chain(jittered) {
                let what = format!("{bench}/{} jitter {jitter} seed {seed}", config.name);
                let slow = simulate_reference(&machine, run(bench, &config, jitter, seed));
                let fast = simulate(&machine, run(bench, &config, jitter, seed));
                assert_eq!(fast.memo.probes, fast.memo.regions, "{what}");
                assert_eq!(fast.wall_cycles, slow.wall_cycles, "{what}");
                assert_eq!(fast.total, slow.total, "{what}");
                for (f, s) in fast.jobs[0].regions.iter().zip(&slow.jobs[0].regions) {
                    assert_eq!(f.end, s.end, "{what}: region end");
                }
                let bytes = memo_gauge("machine.memo.bytes");
                assert!(bytes <= BUDGET as f64, "{what}: {bytes} B held");
                hits += fast.memo.hits;
            }
        }
    }
    assert!(paxsim_obs::counter("machine.memo.evictions").get() > 0);
    assert!(memo_gauge("machine.memo.edges") > 0.0);
    assert!(memo_gauge("machine.memo.snapshots") > 0.0);

    // The chain's head was evicted long ago: the same run now has to
    // re-simulate at least its first regions.
    let cold = simulate(&machine, cg(roomy));
    assert!(cold.memo.hits < cold.memo.probes, "{:?}", cold.memo);
    assert!(hits > 0, "a small table still answers some probes");
}
