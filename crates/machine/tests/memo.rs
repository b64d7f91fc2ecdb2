//! Region memoization seen from outside: whatever the process-wide table
//! answers must be what the reference engine computes, at any start
//! offset, from any number of threads, and — for a one-context job — under
//! any jitter.

use std::sync::{Arc, Barrier};

use paxsim_machine::prelude::*;

/// A fresh four-region, two-thread program. Each call allocates its own
/// regions, so no other test's edges can answer for it.
fn program(tag: u64) -> Arc<ProgramTrace> {
    let mut p = ProgramTrace::new("memo", 2);
    for r in 0..4u64 {
        let threads = (0..2u64)
            .map(|th| {
                let mut b = TraceBuf::new();
                b.flops(4 + th as u32);
                for i in 0..160u64 {
                    b.block(1 + (r % 2) as u32, 3);
                    b.load((tag << 28) + (th << 20) + (r % 2) * 0x4000 + i * 64);
                    b.flops(6);
                    if i % 8 == 0 {
                        b.store((tag << 28) + (1 << 24) + i * 64);
                    }
                    b.branch(1, i != 159);
                }
                b
            })
            .collect();
        p.push_region(RegionTrace::labeled(threads, format!("r{r}")));
    }
    Arc::new(p)
}

fn job(p: &Arc<ProgramTrace>, start_delay_cycles: u64) -> Vec<JobSpec> {
    let mut j = JobSpec::pinned(p.clone(), vec![Lcpu::A0, Lcpu::A1]);
    j.start_delay_cycles = start_delay_cycles;
    vec![j]
}

fn assert_same(fast: &SimOutcome, slow: &SimOutcome, what: &str) {
    assert_eq!(fast.wall_cycles, slow.wall_cycles, "{what}: wall cycles");
    assert_eq!(fast.total, slow.total, "{what}: counters");
    for (f, s) in fast.jobs.iter().zip(&slow.jobs) {
        assert_eq!(f.cycles, s.cycles, "{what}: job cycles");
        assert_eq!(f.counters, s.counters, "{what}: job counters");
        let ends = |j: &JobOutcome| j.regions.iter().map(|r| r.end).collect::<Vec<_>>();
        assert_eq!(ends(f), ends(s), "{what}: region ends");
    }
}

/// A boundary below `fp_queue` is matched at its absolute base only: the
/// edge recorded at base 0 must not answer a start at base 60, a rerun at
/// base 60 must be answered in full, and all of them equal the reference.
#[test]
fn early_boundary_replays_only_at_its_absolute_base() {
    let cfg = MachineConfig::paxville_smp();
    let p = program(1);
    const DELAY: u64 = 5;
    assert!(0 < cycles(DELAY) && cycles(DELAY) < cfg.fp_queue);

    let fill = simulate(&cfg, job(&p, 0));
    assert_same(&fill, &simulate_reference(&cfg, job(&p, 0)), "fill");
    let warm = simulate(&cfg, job(&p, 0));
    assert_eq!(
        (warm.memo.hits, warm.memo.probes),
        (warm.memo.regions, warm.memo.regions),
        "region 0 included"
    );
    assert_same(&warm, &fill, "replay at base 0");

    let reference = simulate_reference(&cfg, job(&p, DELAY));
    let delayed = simulate(&cfg, job(&p, DELAY));
    assert!(
        delayed.memo.hits < delayed.memo.probes,
        "region 0 at base {} must miss the base-0 edge: {:?}",
        cycles(DELAY),
        delayed.memo
    );
    assert_same(&delayed, &reference, "first run at the delayed base");
    let again = simulate(&cfg, job(&p, DELAY));
    assert_eq!(again.memo.hits, again.memo.probes, "{:?}", again.memo);
    assert_same(&again, &reference, "replay at the delayed base");
}

/// Two threads released together fill and replay the same trace on the
/// same configuration; every outcome equals the reference.
#[test]
fn concurrent_fill_and_replay_match_the_reference() {
    let cfg = MachineConfig::paxville_smp();
    let p = program(2);
    let reference = simulate_reference(&cfg, job(&p, 0));
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                start.wait();
                for pass in 0..3 {
                    let out = simulate(&cfg, job(&p, 0));
                    assert_same(&out, &reference, &format!("pass {pass}"));
                }
            });
        }
    });
    let warm = simulate(&cfg, job(&p, 0));
    assert_eq!(warm.memo.hits, warm.memo.probes, "{:?}", warm.memo);
    assert_same(&warm, &reference, "after both threads");
}

/// A fresh one-thread iterative program: `iters` passes over the same
/// interned regions, as `paxsim-omp` emits them for a solver loop. With
/// `levels == 1` it is CG-shaped (a streamed sparse mat-vec with gathers, a
/// dot product, an axpy); with more it is MG-shaped (the same sweep over a
/// ladder of ever smaller grids, down and up again).
fn iterative(tag: u64, levels: u32, iters: usize) -> Arc<ProgramTrace> {
    let base = tag << 28;
    let sweep = |level: u32, label: &str| {
        let n = 512u64 >> level;
        let mut b = TraceBuf::new();
        for i in 0..n {
            b.block(10 + level, 4);
            b.load(base + ((level as u64) << 22) + i * 64);
            b.load_dep(base + (1 << 26) + (i * 37 % n) * 64);
            b.flops(8);
            b.store(base + (2 << 26) + ((level as u64) << 22) + i * 64);
            b.branch(10 + level, i + 1 != n);
        }
        Arc::new(RegionTrace::labeled(vec![b], format!("{label}{level}")))
    };
    let reduce = {
        let mut b = TraceBuf::new();
        for i in 0..256u64 {
            b.block(3, 2);
            b.load(base + (2 << 26) + i * 64);
            b.flops(4);
            b.branch(3, i != 255);
        }
        Arc::new(RegionTrace::labeled(vec![b], "dot"))
    };
    let down: Vec<_> = (0..levels).map(|l| sweep(l, "down")).collect();
    let up: Vec<_> = (0..levels - 1).map(|l| sweep(l, "up")).collect();
    let mut p = ProgramTrace::new("iterative", 1);
    for _ in 0..iters {
        for r in down.iter().chain(up.iter().rev()) {
            p.push_region_arc(r.clone());
        }
        p.push_region_arc(reduce.clone());
    }
    Arc::new(p)
}

fn serial(p: &Arc<ProgramTrace>, jitter: u64, seed: u64) -> Vec<JobSpec> {
    vec![JobSpec::pinned(p.clone(), vec![Lcpu::A0]).with_jitter(jitter, seed)]
}

/// One context under jitter replays from the table: the state a region
/// starts from is the release state aged by the jitter offset, and a draw
/// that outlasts what the barrier left in flight lands on the same settled
/// snapshot whatever the seed or the magnitude. Every run equals the
/// reference; the table answers ever more of them; a never-seen magnitude
/// is answered in full.
#[test]
fn one_context_replays_under_jitter() {
    let cfg = MachineConfig::paxville_smp();
    for (what, p) in [("cg", iterative(3, 1, 6)), ("mg", iterative(4, 4, 3))] {
        let mut hits = 0;
        let chain = [(0, 0), (2_000, 1), (2_000, 2), (1_777, 2)];
        for (jitter, seed) in chain {
            let what = format!("{what} jitter {jitter} seed {seed}");
            let out = simulate(&cfg, serial(&p, jitter, seed));
            assert_same(
                &out,
                &simulate_reference(&cfg, serial(&p, jitter, seed)),
                &what,
            );
            assert_eq!(out.memo.probes, out.memo.regions, "{what}");
            assert!(
                out.memo.hits >= hits,
                "{what}: {:?} after {hits} hits",
                out.memo
            );
            hits = out.memo.hits;
        }
        assert_eq!(
            hits,
            p.regions.len() as u64,
            "{what}: a never-seen magnitude"
        );

        // An offset shorter than anything in flight ages without settling.
        let out = simulate(&cfg, serial(&p, 1, 9));
        assert_same(&out, &simulate_reference(&cfg, serial(&p, 1, 9)), what);
        assert_eq!(out.memo.probes, out.memo.regions, "{what}");
    }
}

/// With a second context the others run during a jitter offset, so nothing
/// is probed — and the run still equals the reference.
#[test]
fn two_contexts_under_jitter_are_not_memoized() {
    let cfg = MachineConfig::paxville_smp();
    let p = program(5);
    let spec = || vec![job(&p, 0).remove(0).with_jitter(2_000, 1)];
    let out = simulate(&cfg, spec());
    assert_eq!(out.memo, MemoStats::default());
    assert_same(
        &out,
        &simulate_reference(&cfg, spec()),
        "two contexts, jittered",
    );
}
