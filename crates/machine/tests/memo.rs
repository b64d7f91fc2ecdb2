//! Region memoization seen from outside: whatever a memo answers must be
//! what the reference engine computes, at any start offset, from any number
//! of threads, and — for a one-context job — under any jitter; and a run
//! builds its machine when a probe first misses, so one the memo answers in
//! full builds none.

use std::sync::{Arc, Barrier, LazyLock};

use paxsim_machine::engine::machines_built;
use paxsim_machine::prelude::*;
use proptest::prelude::*;

/// `simulate`, held to the rule that a run builds no machine until a probe
/// misses, and never a second one.
fn sim(cfg: &MachineConfig, jobs: Vec<JobSpec>) -> SimOutcome {
    let before = machines_built();
    let out = simulate(cfg, jobs);
    let missed = out.memo.hits < out.memo.probes || out.memo.probes == 0;
    assert_eq!(
        machines_built() - before,
        missed as u64,
        "machines built by a run with {:?}",
        out.memo
    );
    out
}

/// A fresh region `r` of a two-thread program: the threads stream their
/// own lines and store to lines they share. Each call allocates anew, so
/// no edge recorded for another region can answer for this one.
fn region(tag: u64, r: u64) -> Arc<RegionTrace> {
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
    Arc::new(RegionTrace::labeled(threads, format!("r{r}")))
}

/// A fresh four-region, two-thread program.
fn program(tag: u64) -> Arc<ProgramTrace> {
    let mut p = ProgramTrace::new("memo", 2);
    for r in 0..4 {
        p.push_region_arc(region(tag, r));
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

    let fill = sim(&cfg, job(&p, 0));
    assert_same(&fill, &simulate_reference(&cfg, job(&p, 0)), "fill");
    let warm = sim(&cfg, job(&p, 0));
    assert_eq!(
        (warm.memo.hits, warm.memo.probes),
        (warm.memo.regions, warm.memo.regions),
        "region 0 included"
    );
    assert_same(&warm, &fill, "replay at base 0");

    let reference = simulate_reference(&cfg, job(&p, DELAY));
    let delayed = sim(&cfg, job(&p, DELAY));
    assert!(
        delayed.memo.hits < delayed.memo.probes,
        "region 0 at base {} must miss the base-0 edge: {:?}",
        cycles(DELAY),
        delayed.memo
    );
    assert_same(&delayed, &reference, "first run at the delayed base");
    let again = sim(&cfg, job(&p, DELAY));
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
                    let out = sim(&cfg, job(&p, 0));
                    assert_same(&out, &reference, &format!("pass {pass}"));
                }
            });
        }
    });
    let warm = sim(&cfg, job(&p, 0));
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
/// is answered in full — without a machine (`sim` counts them).
#[test]
fn one_context_replays_under_jitter() {
    let cfg = MachineConfig::paxville_smp();
    for (what, p) in [("cg", iterative(3, 1, 6)), ("mg", iterative(4, 4, 3))] {
        let mut hits = 0;
        let chain = [(0, 0), (2_000, 1), (2_000, 2), (1_777, 2)];
        for (jitter, seed) in chain {
            let what = format!("{what} jitter {jitter} seed {seed}");
            let out = sim(&cfg, serial(&p, jitter, seed));
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
        let out = sim(&cfg, serial(&p, 1, 9));
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
    let out = sim(&cfg, spec());
    assert_eq!(out.memo, MemoStats::default());
    assert_same(
        &out,
        &simulate_reference(&cfg, spec()),
        "two contexts, jittered",
    );
}

/// A memo is a value: a run recorded on one is answered nothing on a
/// fresh one, and dropping both lets go of every region their edges
/// pinned.
#[test]
fn a_memo_answers_only_its_own_runs_and_pins_nothing_once_dropped() {
    let cfg = MachineConfig::paxville_smp();
    let p = program(30);
    let counts = || p.regions.iter().map(Arc::strong_count).collect::<Vec<_>>();
    let alone = counts();
    let (one, two) = (Memo::default(), Memo::default());
    let run = |memo| simulate_in(Some(memo), &cfg, job(&p, 0)).memo;
    run(&one);
    let again = run(&one);
    assert_eq!(again.hits, again.probes, "{again:?}");
    assert_eq!(run(&two).hits, 0, "a second memo");
    assert!(counts().iter().zip(&alone).all(|(n, a)| n > a), "edges pin");
    drop((one, two));
    assert_eq!(counts(), alone);
}

/// A fresh one-region, two-thread program.
fn one_region(tag: u64) -> Arc<ProgramTrace> {
    let mut p = ProgramTrace::new("once", 2);
    p.push_region_arc(region(tag, 0));
    Arc::new(p)
}

/// A trace moved into `simulate` and held by no one else, whose one region
/// occurs once, can never be presented again: the run probes nothing and
/// leaves no edge pinning its region — which dies with the call.
#[test]
fn a_run_nobody_can_repeat_pins_nothing() {
    let cfg = MachineConfig::paxville_smp();
    let moved = one_region(20);
    let region = Arc::downgrade(&moved.regions[0]);
    let out = sim(&cfg, vec![JobSpec::pinned(moved, vec![Lcpu::A0, Lcpu::A1])]);
    assert_eq!(out.memo, MemoStats::default());
    assert!(region.upgrade().is_none(), "the table pinned the region");
    assert_same(
        &out,
        &simulate_reference(&cfg, job(&one_region(20), 0)),
        "moved",
    );
}

/// A moved trace whose regions repeat can still answer itself: every
/// boundary is probed and the repeats hit.
#[test]
fn a_moved_trace_with_repeated_regions_still_replays_them() {
    let cfg = MachineConfig::paxville_smp();
    let moved = iterative(21, 1, 6);
    let regions = moved.regions.len() as u64;
    let out = sim(&cfg, vec![JobSpec::pinned(moved, vec![Lcpu::A0])]);
    assert_eq!(out.memo.probes, regions, "{:?}", out.memo);
    assert!(out.memo.hits > 0, "{:?}", out.memo);
    assert_same(
        &out,
        &simulate_reference(&cfg, serial(&iterative(21, 1, 6), 0, 0)),
        "moved, repeated",
    );
}

/// A trace its caller keeps may come back, so its run records.
#[test]
fn a_kept_trace_still_records() {
    let cfg = MachineConfig::paxville_smp();
    let kept = one_region(22);
    let out = sim(&cfg, job(&kept, 0));
    assert_eq!(out.memo.probes, out.memo.regions, "{:?}", out.memo);
    assert_eq!(out.memo.regions, 1);
    assert_same(&out, &simulate_reference(&cfg, job(&kept, 0)), "kept");
    let again = sim(&cfg, job(&kept, 0));
    assert_eq!(again.memo.hits, 1, "{:?}", again.memo);
}

/// Trace Q shares P's first `k` regions and differs after. Once P has run,
/// Q replays `k` boundaries with no machine, then builds one at boundary
/// `k` and restores it from the post-state of a region it never simulated
/// (the pristine state when `k` is 0; no machine at all when Q is P) — and
/// equals the reference at every split, without and with a shared L3.
#[test]
fn a_machine_built_mid_run_starts_from_a_state_it_never_held() {
    let models = [MachineConfig::paxville_smp(), MachineConfig::broadwell_l3()];
    for (m, cfg) in models.iter().enumerate() {
        let team =
            |p: &Arc<ProgramTrace>| vec![JobSpec::pinned(p.clone(), vec![Lcpu::A0, Lcpu::A2])];
        let p = program(6 + m as u64);
        let n = p.regions.len();
        sim(cfg, team(&p));
        for k in 0..=n {
            let mut q = ProgramTrace::new("spliced", 2);
            for (r, shared) in p.regions.iter().enumerate() {
                let fresh = || region(8 + (m * (n + 1) + k) as u64, r as u64);
                q.push_region_arc(if r < k { shared.clone() } else { fresh() });
            }
            let q = Arc::new(q);
            let what = format!("model {m}, split at {k}");
            let out = sim(cfg, team(&q));
            assert_eq!(
                (out.memo.hits, out.memo.probes),
                (k as u64, n as u64),
                "{what}"
            );
            assert_same(&out, &simulate_reference(cfg, team(&q)), &what);
        }
    }
}

/// Six one-thread regions every case of the property below draws from, so
/// later cases replay the prefixes earlier ones recorded.
static POOL: LazyLock<Vec<Arc<RegionTrace>>> = LazyLock::new(|| {
    let base = 40u64 << 28;
    (0..6u64)
        .map(|r| {
            let mut b = TraceBuf::new();
            for i in 0..96 {
                b.block(20 + r as u32, 3);
                b.load(base + (r % 3) * 0x2000 + i * 64);
                b.load_dep(base + (1 << 22) + (i * (r + 3) % 96) * 64);
                b.flops(5 + r as u32);
                if i % 4 == r % 4 {
                    b.store(base + (2 << 22) + i * 64);
                }
                b.branch(20 + r as u32, i != 95);
            }
            Arc::new(RegionTrace::labeled(vec![b], format!("pool{r}")))
        })
        .collect()
});

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    /// Random region lists over one pool, quiet and jittered, on both
    /// machine models: wherever the table stops answering, the machine
    /// built there carries on exactly as the reference does.
    #[test]
    fn any_mix_of_replayed_and_simulated_regions_matches_the_reference(
        picks in proptest::collection::vec(0usize..6, 1..9),
        l3 in proptest::bool::ANY,
        jitter in prop_oneof![0u64..1, 1u64..40, 1_000u64..3_000],
        seed in 0u64..4,
    ) {
        let cfg = if l3 { MachineConfig::broadwell_l3() } else { MachineConfig::paxville_smp() };
        let mut p = ProgramTrace::new("mix", 1);
        for &r in &picks {
            p.push_region_arc(POOL[r].clone());
        }
        let p = Arc::new(p);
        let out = sim(&cfg, serial(&p, jitter, seed));
        prop_assert_eq!(out.memo.probes, picks.len() as u64);
        assert_same(&out, &simulate_reference(&cfg, serial(&p, jitter, seed)), "mix");
    }
}
