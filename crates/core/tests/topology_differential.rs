//! Topology generality: the engine is data-driven over [`Topology`], so
//! the bit-identity contract must hold on shapes beyond the paper's
//! dual-core Xeon. These tests run the quad-core single-chip machine and
//! the L3-backed Broadwell-style hierarchy fast-vs-reference, and drive
//! the quad-core machine end-to-end through the single-program sweep
//! driver.

use paxsim_core::configs::quad_core_configs;
use paxsim_core::prelude::*;
use paxsim_machine::prelude::*;
use paxsim_nas::{Class, KernelId};
use paxsim_omp::schedule::Schedule;

fn assert_outcomes_identical(fast: &SimOutcome, slow: &SimOutcome, what: &str) {
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

fn differential_sweep(machine: &MachineConfig, configs: &[HwConfig], tag: &str) {
    let store = TraceStore::new();
    for bench in [KernelId::Ep, KernelId::Cg] {
        for config in configs {
            let trace = store.get(TraceKey {
                kernel: bench,
                class: Class::T,
                nthreads: config.threads,
                schedule: Schedule::Static,
            });
            // 1 is shorter than anything a barrier leaves in flight — in the
            // L3 too, where the machine has one — so a one-context run ages
            // its snapshots without settling them.
            for jitter in [250u64, 0, 1] {
                let spec = || {
                    let s = JobSpec::pinned(trace.clone(), config.contexts.clone());
                    vec![if jitter > 0 {
                        s.with_jitter(jitter, 42)
                    } else {
                        s
                    }]
                };
                let fast = simulate(machine, spec());
                let slow = simulate_reference(machine, spec());
                let what = format!("{tag}/{bench}/{}/jitter{jitter}", config.name);
                assert_outcomes_identical(&fast, &slow, &what);
                // One context (or no jitter) is the memoized path.
                let memoized = jitter == 0 || config.threads == 1;
                let probes = if memoized { fast.memo.regions } else { 0 };
                assert_eq!(fast.memo.probes, probes, "{what}: {:?}", fast.memo);
            }
        }
    }
}

/// Quad-core single-chip machine: same engine, different topology value,
/// still bit-identical to the reference (jittered — memoizing when the job
/// has one context — and quiet/memoizing).
#[test]
fn quad_core_fast_engine_matches_reference() {
    differential_sweep(
        &MachineConfig::quad_core_smp(),
        &quad_core_configs(),
        "quad",
    );
}

/// L3-backed hierarchy: the shared L3 sits between the private L2s and
/// the bus on both engines, and the fast engine stays bit-identical.
#[test]
fn broadwell_l3_fast_engine_matches_reference() {
    let machine = MachineConfig::broadwell_l3();
    differential_sweep(&machine, &quad_core_configs(), "broadwell-l3");
    // The L3 must actually participate on this topology, or the test
    // proves nothing about the new tier.
    let store = TraceStore::new();
    let config = &quad_core_configs()[1];
    let trace = store.get(TraceKey {
        kernel: KernelId::Cg,
        class: Class::T,
        nthreads: config.threads,
        schedule: Schedule::Static,
    });
    let out = simulate(
        &machine,
        vec![JobSpec::pinned(trace, config.contexts.clone())],
    );
    assert!(out.total.l3_access > 0, "CG never reached the shared L3");
    assert!(
        out.total.l3_miss < out.total.l3_access,
        "the L3 never hit — it is not filtering bus traffic"
    );
}

/// The quad-core machine runs end-to-end through the single-program sweep
/// driver: trace generation, placement, trials and speedup summaries all
/// work on a non-Table-1 topology.
#[test]
fn quad_core_topology_runs_through_sweep_driver() {
    let opts = StudyOptions::quick()
        .with_benchmarks(vec![KernelId::Ep, KernelId::Cg])
        .with_machine(MachineConfig::quad_core_smp());
    let study = run_single_program_on(&opts, &TraceStore::new(), quad_core_configs());
    assert_eq!(study.configs.len(), 3);
    assert_eq!(study.cells.len(), 2);
    for (bi, row) in study.cells.iter().enumerate() {
        assert_eq!(row.len(), 3);
        assert_eq!(row[0].speedup.mean, 1.0, "serial baseline speedup");
        for (ci, cell) in row.iter().enumerate() {
            assert!(
                cell.cycles.mean > 0.0,
                "empty cell for bench {bi} config {ci}"
            );
            assert!(cell.counters.instructions > 0);
        }
        // Four real cores must beat one on these scalable kernels.
        assert!(
            row[1].speedup.mean > 1.0,
            "quad HT-off speedup {} <= 1",
            row[1].speedup.mean
        );
    }
}
