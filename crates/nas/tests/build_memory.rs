//! A trace build's memory is its output plus a small window per thread.
//! The heap is counted by this binary's own allocator, which is why it
//! holds a single test: the count is per process, and a second test
//! running beside it would add its own allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use paxsim_nas::{Class, KernelId};
use paxsim_omp::schedule::Schedule;

/// The system allocator, counting the bytes live and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, size);
        if !q.is_null() {
            if size > layout.size() {
                grew(size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - size, Relaxed);
            }
        }
        q
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// CG at class S on one thread keeps 19.1 MiB of words. Holding each
/// region raw before keeping it took the heap to 95.2 MiB; streamed, the
/// build holds its output, one array's growth and the kernel's own data
/// (36.0 MiB).
#[test]
fn a_cg_build_peaks_within_twice_what_it_keeps() {
    const MIB: usize = 1 << 20;
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    let built = KernelId::Cg.build(Class::S, 1, Schedule::Static);
    let peak = PEAK.load(Relaxed);
    assert!(built.verify.passed, "{}", built.verify.details);
    let packed = built.trace.packed_bytes();
    assert!(
        peak <= 2 * packed + 4 * MIB,
        "heap peaked at {:.1} MiB during a build that keeps {:.1} MiB",
        peak as f64 / MIB as f64,
        packed as f64 / MIB as f64,
    );
}
