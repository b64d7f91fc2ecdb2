//! The determinism dividend: because the simulator is bit-deterministic,
//! the seed-shaped reference engine is a free oracle for the optimized
//! one. These tests drive real NAS kernel traces through every Table 1
//! configuration on both engines and require *bit-identical* outcomes —
//! every counter, every region boundary, every cycle count. Any drift in
//! the fast-path caches, the min-heap scheduler, or the batched replay
//! fails here before it can skew a single figure.

use paxsim_core::configs::{all_configs, serial};
use paxsim_core::store::TraceStore;
use paxsim_machine::engine::machines_built;
use paxsim_machine::prelude::*;
use paxsim_nas::{all_kernels, Class, KernelId};
use paxsim_omp::schedule::Schedule;
use std::sync::Arc;

mod common;
use common::{assert_outcomes_identical, class_t, fast_matches_reference};

/// What the fast path and the packed trace are *for*, at the same points
/// the identity tests visit: the event scheduler dispatched and jumped
/// simulated cycles instead of stepping them (quiescent skip engages —
/// a replayed region is one such jump), and packing, interning and run
/// encoding shrink the trace ~28× on iterative CG and ~4.6× on EP (without
/// runs, 4-byte words would read ~20× and ~3.5×, and fail).
fn assert_skips_and_packs(fast: &SimOutcome, trace: &ProgramTrace, bench: KernelId, what: &str) {
    assert!(
        fast.sched.events_scheduled > 0 && fast.sched.cycles_skipped > 0,
        "{what}: quiescent skip never engaged: {:?}",
        fast.sched
    );
    let reduction = trace.unpacked_bytes() as f64 / trace.packed_bytes() as f64;
    let floor = if bench == KernelId::Cg { 28.0 } else { 4.5 };
    assert!(
        reduction >= floor,
        "{what}: trace packs {reduction:.2}x (floor {floor})"
    );
}

/// The identity tests above run both engines through one decoder, so a
/// decode bug would pass them. Here every kernel's ops are simulated twice
/// — from the kept, run-encoded buffers its build stores, and from the
/// same ops pushed into buffers never kept — on the eight-context
/// configuration with a one-cycle quantum, so contexts yield inside runs
/// and resume from their readers.
#[test]
fn run_encoded_traces_simulate_as_their_raw_twins() {
    let smt8 = all_configs()
        .into_iter()
        .find(|c| c.name == "HT on -8-2")
        .expect("Table 1 has HT on -8-2");
    let machine = MachineConfig {
        quantum: TPC,
        ..MachineConfig::paxville_smp()
    };
    for bench in all_kernels() {
        let kept = bench.build(Class::T, smt8.threads, Schedule::Static).trace;
        let mut raw = ProgramTrace::new(kept.name.clone(), kept.nthreads);
        let mut encoded = false;
        for region in &kept.regions {
            let threads: Vec<TraceBuf> =
                region.threads.iter().map(|t| t.iter().collect()).collect();
            for (k, r) in region.threads.iter().zip(&threads) {
                let twin = k.base() == r.base() && k.iter().eq(r.iter());
                assert!(twin, "{bench}: a raw twin decodes as its kept buffer");
                encoded |= k.words().len() < r.words().len();
            }
            raw.push_region(RegionTrace::labeled(threads, region.label.clone()));
        }
        assert!(
            encoded || bench == KernelId::Is,
            "{bench}: no kept buffer holds a run"
        );
        let run = |trace: ProgramTrace| {
            let spec =
                JobSpec::pinned(Arc::new(trace), smt8.contexts.clone()).with_jitter(2_000, 5);
            simulate(&machine, vec![spec])
        };
        let what = format!("{bench} kept vs raw");
        assert_outcomes_identical(&run((*kept).clone()), &run(raw), &what);
    }
}

/// Every Table 1 configuration × two kernels with opposite characters
/// (EP compute-bound, CG memory-bound), tiny class: the optimized engine
/// reproduces the reference bit for bit.
#[test]
fn fast_engine_matches_reference_on_all_table1_configs() {
    let machine = MachineConfig::paxville_smp();
    let store = TraceStore::new();
    for bench in [KernelId::Ep, KernelId::Cg] {
        for config in all_configs() {
            let trace = class_t(&store, bench, config.threads);
            let spec = || {
                vec![JobSpec::pinned(trace.clone(), config.contexts.clone()).with_jitter(250, 42)]
            };
            let what = format!("{bench}/{}", config.name);
            let fast = fast_matches_reference(&machine, spec, &what);
            assert_skips_and_packs(&fast, &trace, bench, &what);
        }
    }
}

/// One context under jitter is memoized too — the state a region starts
/// from is the barrier-release state aged by the jitter offset — so every
/// kernel runs `Serial` against the reference at an offset shorter than
/// anything a barrier leaves in flight, a middling one, and the studies'
/// own; and the memoized run must actually have consulted its memo at
/// every boundary, or this proves nothing about ageing (the run without a
/// memo is held to identity only). (`ci.sh` runs it by name.)
#[test]
fn single_context_jittered_runs_match_reference() {
    let machine = MachineConfig::paxville_smp();
    let store = TraceStore::new();
    for bench in all_kernels() {
        let trace = class_t(&store, bench, 1);
        for jitter in [1, 250, 2_000] {
            let spec =
                || vec![JobSpec::pinned(trace.clone(), serial().contexts).with_jitter(jitter, 42)];
            let what = format!("{bench}/Serial/jitter{jitter}");
            let m = fast_matches_reference(&machine, spec, &what).memo;
            assert!(
                m.probes > 0 && m.probes == m.regions,
                "{what} was not probed: {m:?}"
            );
        }
    }
}

/// The same sweep with perfectly quiet jobs (jitter 0): this is the path
/// where the fast engine's steady-state region memoization engages, while
/// the reference engine never memoizes — so this test is the bit-identity
/// gate for packed decoding *and* memoized replay together.
#[test]
fn memoizing_engine_matches_reference_on_all_table1_configs() {
    let machine = MachineConfig::paxville_smp();
    let store = TraceStore::new();
    for bench in [KernelId::Ep, KernelId::Cg] {
        for config in all_configs() {
            let trace = class_t(&store, bench, config.threads);
            let spec = || vec![JobSpec::pinned(trace.clone(), config.contexts.clone())];
            let what = format!("quiet {bench}/{}", config.name);
            let fast = fast_matches_reference(&machine, spec, &what);
            assert_skips_and_packs(&fast, &trace, bench, &what);
        }
    }
}

/// CG iterates structurally identical regions, so on a quiet run the memo
/// table must actually answer probes — otherwise the memoization path is
/// silently dead and the identity test above proves nothing about it.
#[test]
fn memoization_fires_on_iterative_cg() {
    let machine = MachineConfig::paxville_smp();
    let store = TraceStore::new();
    let config = all_configs()
        .into_iter()
        .find(|c| c.threads >= 4)
        .expect("a 4-context configuration exists");
    let trace = class_t(&store, KernelId::Cg, config.threads);
    let spec = || vec![JobSpec::pinned(trace.clone(), config.contexts.clone())];
    let out = simulate(&machine, spec());
    assert!(out.memo.probes > 0, "quiet single-job run must probe");
    assert!(
        out.memo.hits > 0,
        "CG's repeated iterations must hit the memo table: {:?}",
        out.memo
    );
    // Every boundary of a second run — the first region's included — is
    // answered from what the first run recorded, so it builds no machine.
    let built = machines_built();
    let again = simulate(&machine, spec());
    assert_eq!(machines_built(), built, "a replayed run built a machine");
    assert_eq!(again.memo.hits, again.memo.probes, "{:?}", again.memo);
    assert_eq!(again.memo.probes, again.memo.regions, "{:?}", again.memo);
    assert_eq!(again.wall_cycles, out.wall_cycles);
    assert_eq!(again.total, out.total);
}

/// The daemon's traffic on a real kernel: after a quiet run and two
/// jittered trials, `Serial` CG under a jitter magnitude never seen before
/// lands on settled snapshots the table already holds — it is answered in
/// full, builds no machine, and equals the reference in every counter and
/// region end. Each earlier run builds exactly the one machine it needs.
#[test]
fn never_seen_jitter_replays_serial_cg_without_a_machine() {
    let machine = MachineConfig::paxville_smp();
    let trace = class_t(&TraceStore::new(), KernelId::Cg, 1);
    for (jitter, seed) in [(0, 0), (2_000, 1), (2_000, 2), (1_777, 2)] {
        let spec =
            || vec![JobSpec::pinned(trace.clone(), serial().contexts).with_jitter(jitter, seed)];
        let before = machines_built();
        let fast = simulate(&machine, spec());
        let built = machines_built() - before;
        let what = format!("cg/Serial/jitter{jitter}/seed{seed}");
        assert_outcomes_identical(&fast, &simulate_reference(&machine, spec()), &what);
        let missed = fast.memo.hits < fast.memo.probes;
        assert_eq!(built, missed as u64, "{what}: {:?}", fast.memo);
        assert!(!missed || jitter != 1_777, "{what}: {:?}", fast.memo);
    }
}

/// Multiprogrammed shape (two jobs splitting the machine, as in §4.2/§4.3):
/// coherence invalidations across jobs must also leave zero drift.
#[test]
fn fast_engine_matches_reference_multiprogrammed() {
    use paxsim_omp::os::{split_jobs, PlacementPolicy};

    let machine = MachineConfig::paxville_smp();
    let store = TraceStore::new();
    let config = all_configs()
        .into_iter()
        .find(|c| c.threads >= 4)
        .expect("a 4-context configuration exists");
    let per = config.threads / 2;
    let placements = split_jobs(&config.contexts, 2, PlacementPolicy::Spread);
    let traces = [KernelId::Cg, KernelId::Ft].map(|k| class_t(&store, k, per));
    let specs = || {
        (0..2)
            .map(|j| {
                JobSpec::pinned(traces[j].clone(), placements[j].clone()).with_jitter(250, j as u64)
            })
            .collect::<Vec<_>>()
    };
    fast_matches_reference(&machine, specs, &format!("CG+FT on {}", config.name));
}

/// A memo's byte budget, shrunk to a few snapshots: eviction may only cost
/// hits, never change a result, and the memo never outgrows its budget
/// while distinct traces — and, on `Serial`, jittered runs of them with
/// their aged snapshots — keep arriving. The budget leaves room for about
/// a dozen class T snapshots: a quiet serial CG run alone interns nine in
/// about 190 KB — some 20 KB each, most of it the running core's predictor
/// table, since what snapshots share (the idle cores' tables, the cache
/// chunks a region left alone) is charged once — and an aged image a
/// jittered run adds holds its source's chunks.
#[test]
fn shrunk_budget_evicts_but_never_changes_a_result() {
    const BUDGET: usize = 256 << 10;
    let machine = MachineConfig::paxville_smp();
    let store = TraceStore::new();
    let run = |bench, config: &paxsim_core::configs::HwConfig, jitter, seed| {
        let trace = class_t(&store, bench, config.threads);
        vec![JobSpec::pinned(trace, config.contexts.clone()).with_jitter(jitter, seed)]
    };
    let cg = |config| run(KernelId::Cg, config, 0, 0);

    // Unbounded, a second run replays every region.
    let roomy = &all_configs()[0];
    let unbounded = Memo::default();
    simulate_in(Some(&unbounded), &machine, cg(roomy));
    let replay = simulate_in(Some(&unbounded), &machine, cg(roomy));
    assert_eq!(replay.memo.hits, replay.memo.probes);

    let small = Memo::with_budget(BUDGET);
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
                let fast = simulate_in(Some(&small), &machine, run(bench, &config, jitter, seed));
                assert_eq!(fast.memo.probes, fast.memo.regions, "{what}");
                assert_outcomes_identical(&fast, &slow, &what);
                assert!(small.bytes() <= BUDGET, "{what}: {} B held", small.bytes());
                hits += fast.memo.hits;
            }
        }
    }
    assert!(small.bytes() > 0);

    // The chain's head was evicted long ago: the same run now has to
    // re-simulate at least its first regions.
    let cold = simulate_in(Some(&small), &machine, cg(roomy));
    assert!(cold.memo.hits < cold.memo.probes, "{:?}", cold.memo);
    assert!(hits > 0, "a small memo still answers some probes");
}
