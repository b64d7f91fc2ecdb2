//! Region memoization seen from outside: whatever the process-wide table
//! answers must be what the reference engine computes, at any start
//! offset and from any number of threads.

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
