//! A machine's big cache arrays outlive it: the next `simulate` takes them
//! zeroed from a process-wide spare list instead of allocating ≈ 3.3 MB
//! anew. The heap is counted by this binary's own allocator, so its tests
//! take turns (`SERIAL`): the count and the spare list are per process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use paxsim_machine::cache::{spare_cap, spare_peak};
use paxsim_machine::prelude::*;

/// The system allocator, counting every byte it hands out.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(size.saturating_sub(layout.size()), Relaxed);
        System.realloc(p, layout, size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

static SERIAL: Mutex<()> = Mutex::new(());

/// A two-region program of one thread a core, each thread making `loads`
/// loads a region, 4 KiB apart, and a store to a line all threads share.
fn program(cfg: &MachineConfig, loads: u64) -> Vec<JobSpec> {
    let threads = cfg.cores();
    let mut p = ProgramTrace::new("reuse", threads);
    for r in 0..2u64 {
        let bufs = (0..threads as u64)
            .map(|t| {
                let mut b = TraceBuf::new();
                b.block(1, 2);
                for i in 0..loads {
                    b.load(0x10_0000 + (t << 24) + (r << 20) + i * 4160);
                }
                b.store(0x80_0000 + r * 64);
                b
            })
            .collect();
        p.push_region_arc(Arc::new(RegionTrace::labeled(bufs, format!("r{r}"))));
    }
    let placement = (0..threads)
        .map(|c| {
            Lcpu::new(
                (c / cfg.cores_per_chip) as u8,
                (c % cfg.cores_per_chip) as u8,
                0,
            )
        })
        .collect();
    vec![JobSpec::pinned(Arc::new(p), placement)]
}

fn assert_same(fast: &SimOutcome, slow: &SimOutcome, what: &str) {
    assert_eq!(fast.wall_cycles, slow.wall_cycles, "{what}: wall cycles");
    assert_eq!(fast.total, slow.total, "{what}: counters");
    for (f, s) in fast.jobs.iter().zip(&slow.jobs) {
        assert_eq!(f.cycles, s.cycles, "{what}: job cycles");
        let ends = |j: &JobOutcome| j.regions.iter().map(|r| r.end).collect::<Vec<_>>();
        assert_eq!(ends(f), ends(s), "{what}: region ends");
    }
}

/// A four-context, one-load program allocated ≈ 3.3 MB a `simulate`: the
/// four 2 MB L2s' tag, stamp and ready arrays, each time anew.
#[test]
fn a_simulate_after_the_first_allocates_no_cache_arrays() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = MachineConfig::paxville_smp();
    let first = simulate_in(None, &cfg, program(&cfg, 1));
    for run in 1..=10 {
        let jobs = program(&cfg, 1);
        let before = ALLOCATED.load(Relaxed);
        let out = simulate_in(None, &cfg, jobs);
        let bytes = ALLOCATED.load(Relaxed) - before;
        assert!(bytes < 512 * 1024, "run {run} allocated {bytes} bytes");
        assert_same(&out, &first, &format!("run {run}"));
    }
}

/// Machines of two geometries built and dropped on two threads at once
/// share one spare list: every result is the reference engine's, and the
/// list never holds more than its cap.
#[test]
fn two_threads_alternating_geometries_match_the_reference() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let configs = [MachineConfig::paxville_smp(), MachineConfig::broadwell_l3()];
    let want = configs
        .each_ref()
        .map(|cfg| simulate_reference(cfg, program(cfg, 300)));
    std::thread::scope(|s| {
        for t in 0..2 {
            let (configs, want) = (&configs, &want);
            s.spawn(move || {
                for run in 0..50 {
                    let k = (t + run) % 2;
                    let out = simulate_in(None, &configs[k], program(&configs[k], 300));
                    assert_same(&out, &want[k], &format!("thread {t}, run {run}"));
                }
            });
        }
    });
    assert!(
        spare_peak() <= spare_cap(),
        "{} > {}",
        spare_peak(),
        spare_cap()
    );
}
