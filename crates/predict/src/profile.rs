//! One-pass reuse-profile extraction over packed traces.
//!
//! A [`ThreadProfile`] summarizes one thread's [`TraceBuf`] stream as the
//! inputs the analytical model needs: an **exact LRU stack-distance
//! histogram** over cache lines (Olken's algorithm on a Fenwick tree —
//! `O(n log n)`, fully deterministic), the op mix (memory / FP / branch /
//! front-end uops), a stride classification for the prefetcher term, and
//! the distinct-line footprint for the sharing summary.
//!
//! Distances are bucketed into power-of-two bins: bucket 0 holds distance
//! 0 (back-to-back reuse of the same line), bucket `b >= 1` holds
//! distances in `[2^(b-1), 2^b - 1]`. Mass is conserved by construction:
//! `cold + sum(hist) == mem_ops` — every memory reference lands in exactly
//! one bin or in the cold-miss count (the proptests in
//! `tests/extraction.rs` pin this across all Table 1 configurations).
//!
//! Extraction is a pure function of the trace. The trace layer interns
//! repeated parallel regions behind one `Arc` ([`RegionTrace`]), so
//! [`profile_program`] profiles a region executed 100 times once. A
//! [`ProfileCache`] value, owned by whoever serves many requests, keeps
//! profiles across programs by region pointer.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use paxsim_machine::op::Op;
use paxsim_machine::trace::{ProgramTrace, RegionTrace, TraceBuf};

/// Number of power-of-two reuse-distance buckets (bucket 47 absorbs every
/// distance >= 2^46 lines — far beyond any simulated footprint).
pub const REUSE_BUCKETS: usize = 48;

/// Bucket index for an exact stack distance (in lines).
#[inline]
pub fn bucket_of(dist: u64) -> usize {
    if dist == 0 {
        0
    } else {
        ((64 - dist.leading_zeros()) as usize).min(REUSE_BUCKETS - 1)
    }
}

/// Inclusive `[lo, hi]` distance range covered by bucket `b`.
pub fn bucket_range(b: usize) -> (u64, u64) {
    if b == 0 {
        (0, 0)
    } else {
        (1u64 << (b - 1), (1u64 << b) - 1)
    }
}

/// Fenwick (binary indexed) tree over access timestamps; used to count, in
/// `O(log n)`, the distinct lines touched between two accesses to the same
/// line (each distinct line carries exactly one mark, at its most recent
/// access).
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Self {
            tree: vec![0; n + 1],
        }
    }

    fn add(&mut self, mut i: usize, v: i32) {
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + v as i64) as u32;
            i += i & i.wrapping_neg();
        }
    }

    fn sum(&self, mut i: usize) -> u64 {
        let mut s = 0u64;
        while i > 0 {
            s += self.tree[i] as u64;
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// Reuse/op-mix summary of one thread's op stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadProfile {
    /// Cache-line size the addresses were folded at.
    pub line_bytes: u64,
    /// Total memory references (loads + dependent loads + stores).
    pub mem_ops: u64,
    /// All loads (independent + dependent).
    pub loads: u64,
    /// Dependent (critical-path) loads — these do not overlap under MLP.
    pub dep_loads: u64,
    pub stores: u64,
    /// FP/ALU uops (sum of `Flops { n }`).
    pub flops: u64,
    pub branches: u64,
    /// Total retired uops (every op's `uops()`), the issue-time driver.
    pub uops: u64,
    /// Basic-block entries (trace-cache / front-end pressure proxy).
    pub blocks: u64,
    /// Exact stack-distance histogram, power-of-two bucketed
    /// ([`bucket_of`]); excludes cold misses.
    pub hist: Vec<u64>,
    /// First-touch (cold) references == distinct lines touched.
    pub cold: u64,
    /// References to the same line as the previous reference.
    pub same_line: u64,
    /// References exactly one line away from the previous reference
    /// (either direction) — the stream-prefetcher-friendly fraction.
    pub seq_line: u64,
    /// First-touch lines that are near-forward successors of another
    /// recent first touch — compulsory misses a stream prefetcher covers
    /// (detected with a small MRU stream table, so interleaved streams
    /// `a[i], b[i], c[i], …` are each tracked).
    pub cold_seq: u64,
    /// Distinct lines touched (the footprint).
    pub footprint_lines: u64,
    /// Sorted distinct lines, kept for the cross-thread sharing summary.
    pub lines: Vec<u64>,
}

impl ThreadProfile {
    fn empty(line_bytes: u64) -> Self {
        Self {
            line_bytes,
            mem_ops: 0,
            loads: 0,
            dep_loads: 0,
            stores: 0,
            flops: 0,
            branches: 0,
            uops: 0,
            blocks: 0,
            hist: vec![0; REUSE_BUCKETS],
            cold: 0,
            same_line: 0,
            seq_line: 0,
            cold_seq: 0,
            footprint_lines: 0,
            lines: Vec::new(),
        }
    }

    /// Expected misses in a fully-associative LRU cache of `cap_lines`
    /// lines, read off the bucketed reuse CDF (a reference with stack
    /// distance `d` hits iff `d < cap`). The bucket straddling the
    /// capacity contributes linearly interpolated mass; cold misses always
    /// miss.
    pub fn misses_at(&self, cap_lines: f64) -> f64 {
        let mut misses = self.cold as f64;
        for (b, &c) in self.hist.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let (lo, hi) = bucket_range(b);
            let (lo, hi) = (lo as f64, hi as f64);
            if hi < cap_lines {
                // whole bucket hits
            } else if lo >= cap_lines {
                misses += c as f64;
            } else {
                let hit_frac = (cap_lines - lo) / (hi - lo + 1.0);
                misses += c as f64 * (1.0 - hit_frac.clamp(0.0, 1.0));
            }
        }
        misses
    }

    /// Fraction of memory references the stream prefetcher can see coming
    /// (unit-stride line changes plus same-line runs, which keep a stream
    /// alive).
    pub fn sequential_frac(&self) -> f64 {
        if self.mem_ops == 0 {
            0.0
        } else {
            (self.seq_line + self.same_line) as f64 / self.mem_ops as f64
        }
    }

    /// Fraction of first-touch (compulsory) misses a stream prefetcher
    /// would cover.
    pub fn prefetchable_frac(&self) -> f64 {
        if self.cold == 0 {
            0.0
        } else {
            self.cold_seq as f64 / self.cold as f64
        }
    }

    /// Fraction of loads on the critical path (no MLP overlap).
    pub fn dependent_frac(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.dep_loads as f64 / self.loads as f64
        }
    }

    /// Histogram mass — must equal `mem_ops` (conservation law).
    pub fn histogram_mass(&self) -> u64 {
        self.cold + self.hist.iter().sum::<u64>()
    }
}

/// Extract a [`ThreadProfile`] from any op stream. One pass for the op
/// mix and strides, then Olken's exact stack-distance algorithm over the
/// line sequence.
pub fn profile_ops<I: IntoIterator<Item = Op>>(ops: I, line_bytes: u64) -> ThreadProfile {
    assert!(line_bytes.is_power_of_two(), "line size must be 2^k");
    let mut p = ThreadProfile::empty(line_bytes);
    let mut lines: Vec<u64> = Vec::new();
    for op in ops {
        p.uops += op.uops();
        match op {
            Op::Load { addr } => {
                p.loads += 1;
                lines.push(addr / line_bytes);
            }
            Op::LoadDep { addr } => {
                p.loads += 1;
                p.dep_loads += 1;
                lines.push(addr / line_bytes);
            }
            Op::Store { addr } => {
                p.stores += 1;
                lines.push(addr / line_bytes);
            }
            Op::Flops { n } => p.flops += n as u64,
            Op::Branch { .. } => p.branches += 1,
            Op::Block { .. } => p.blocks += 1,
        }
    }
    p.mem_ops = lines.len() as u64;

    let mut prev: Option<u64> = None;
    for &l in &lines {
        if let Some(q) = prev {
            if l == q {
                p.same_line += 1;
            } else if l == q + 1 || q == l + 1 {
                p.seq_line += 1;
            }
        }
        prev = Some(l);
    }

    // Stream-prefetcher detector over first touches: a small MRU table of
    // recent compulsory-miss lines; a new first touch within a short
    // forward window of any tracked stream is prefetchable. Mirrors the
    // engine's per-core stream detectors closely enough to classify
    // interleaved array sweeps.
    const PF_TABLE: usize = 8;
    const PF_AHEAD: u64 = 4;
    let mut pf: Vec<u64> = Vec::with_capacity(PF_TABLE);

    let n = lines.len();
    let mut fen = Fenwick::new(n);
    let mut last: HashMap<u64, usize> = HashMap::with_capacity(1024);
    for (idx, &l) in lines.iter().enumerate() {
        let t = idx + 1;
        match last.insert(l, t) {
            None => {
                p.cold += 1;
                if let Some(pos) = pf.iter().position(|&s| l > s && l - s <= PF_AHEAD) {
                    p.cold_seq += 1;
                    pf.remove(pos);
                } else if pf.len() == PF_TABLE {
                    pf.remove(0);
                }
                pf.push(l);
            }
            Some(prev_t) => {
                // Distinct lines touched strictly between the two accesses:
                // each carries one mark, at its latest access.
                let dist = fen.sum(t - 1) - fen.sum(prev_t);
                p.hist[bucket_of(dist)] += 1;
                fen.add(prev_t, -1);
            }
        }
        fen.add(t, 1);
    }
    p.footprint_lines = last.len() as u64;
    let mut distinct: Vec<u64> = last.into_keys().collect();
    distinct.sort_unstable();
    p.lines = distinct;
    p
}

/// Extract from a packed buffer (decodes in place; no unpacking allocation).
pub fn profile_buf(buf: &TraceBuf, line_bytes: u64) -> ThreadProfile {
    profile_ops(buf.iter(), line_bytes)
}

/// Per-region profile: one [`ThreadProfile`] per thread plus the
/// cross-thread sharing summary.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionProfile {
    pub label: String,
    pub threads: Vec<ThreadProfile>,
    /// Distinct lines in the union of all threads' footprints.
    pub union_lines: u64,
    /// Sum of per-thread footprints minus the union: line-instances touched
    /// by more than one thread (coherence/sharing pressure proxy).
    pub shared_lines: u64,
}

impl RegionProfile {
    pub fn new(label: String, threads: Vec<ThreadProfile>) -> Self {
        let mut union: Vec<u64> = threads
            .iter()
            .flat_map(|t| t.lines.iter().copied())
            .collect();
        union.sort_unstable();
        union.dedup();
        let sum: u64 = threads.iter().map(|t| t.footprint_lines).sum();
        let union_lines = union.len() as u64;
        Self {
            label,
            threads,
            union_lines,
            shared_lines: sum.saturating_sub(union_lines),
        }
    }

    /// Fraction of footprint line-instances shared between threads.
    pub fn shared_frac(&self) -> f64 {
        let sum: u64 = self.threads.iter().map(|t| t.footprint_lines).sum();
        if sum == 0 {
            0.0
        } else {
            self.shared_lines as f64 / sum as f64
        }
    }
}

/// Profile one region.
pub fn profile_region(region: &RegionTrace, line_bytes: u64) -> RegionProfile {
    let threads = region
        .threads
        .iter()
        .map(|b| profile_buf(b, line_bytes))
        .collect();
    RegionProfile::new(region.label.clone(), threads)
}

/// Region profiles by (interned region address, line size). Capped at
/// `PROFILE_CACHE_CAP` entries, cleared whole when full; dropping the
/// cache lets go of every region it holds.
#[derive(Default)]
pub struct ProfileCache(Mutex<HashMap<(usize, u64), Entry>>);

/// A profile with the region it was extracted from. Holding the region
/// pins its allocation, so while the entry lives its address cannot be
/// recycled for a different region.
type Entry = (Arc<RegionTrace>, Arc<RegionProfile>);

const PROFILE_CACHE_CAP: usize = 1024;

impl ProfileCache {
    /// The profile of `region`, extracted on the first ask only.
    pub fn region(&self, region: &Arc<RegionTrace>, line_bytes: u64) -> Arc<RegionProfile> {
        let key = (Arc::as_ptr(region) as usize, line_bytes);
        let mut map = self.0.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, p)) = map.get(&key) {
            return Arc::clone(p);
        }
        let p = Arc::new(profile_region(region, line_bytes));
        if map.len() >= PROFILE_CACHE_CAP {
            map.clear();
        }
        map.insert(key, (Arc::clone(region), Arc::clone(&p)));
        p
    }

    /// [`profile_program`], each region's profile taken through the cache.
    pub fn program(&self, trace: &ProgramTrace, line_bytes: u64) -> ProgramProfile {
        program_from(trace, |r| self.region(r, line_bytes))
    }
}

/// Whole-program profile: each *unique* region profiled once, with its
/// execution count (interned repeats collapse onto one entry).
#[derive(Debug, Clone)]
pub struct ProgramProfile {
    pub name: String,
    pub nthreads: usize,
    /// Unique regions in first-execution order, with occurrence counts.
    pub regions: Vec<(Arc<RegionProfile>, u64)>,
    /// Distinct lines in the union of every region's and thread's
    /// footprint — the program's working set, and the count of one-time
    /// compulsory misses the model charges exactly once.
    pub union_lines: u64,
}

impl ProgramProfile {
    /// Total memory references across all regions, threads and repeats.
    pub fn mem_ops(&self) -> u64 {
        self.regions
            .iter()
            .map(|(r, n)| n * r.threads.iter().map(|t| t.mem_ops).sum::<u64>())
            .sum()
    }

    /// Total retired uops across all regions, threads and repeats.
    pub fn uops(&self) -> u64 {
        self.regions
            .iter()
            .map(|(r, n)| n * r.threads.iter().map(|t| t.uops).sum::<u64>())
            .sum()
    }

    /// Number of region executions (barrier count when parallel).
    pub fn region_executions(&self) -> u64 {
        self.regions.iter().map(|(_, n)| n).sum()
    }
}

/// Profile a whole program, each unique region once.
pub fn profile_program(trace: &ProgramTrace, line_bytes: u64) -> ProgramProfile {
    program_from(trace, |r| Arc::new(profile_region(r, line_bytes)))
}

/// The program profile of `trace`, asking `profile` once per unique region.
fn program_from(
    trace: &ProgramTrace,
    mut profile: impl FnMut(&Arc<RegionTrace>) -> Arc<RegionProfile>,
) -> ProgramProfile {
    let mut order: Vec<(usize, Arc<RegionProfile>, u64)> = Vec::new();
    let mut index: HashMap<usize, usize> = HashMap::new();
    for region in &trace.regions {
        let ptr = Arc::as_ptr(region) as usize;
        match index.get(&ptr) {
            Some(&i) => order[i].2 += 1,
            None => {
                index.insert(ptr, order.len());
                order.push((ptr, profile(region), 1));
            }
        }
    }
    let regions: Vec<(Arc<RegionProfile>, u64)> =
        order.into_iter().map(|(_, p, n)| (p, n)).collect();
    let mut union: Vec<u64> = regions
        .iter()
        .flat_map(|(r, _)| r.threads.iter())
        .flat_map(|t| t.lines.iter().copied())
        .collect();
    union.sort_unstable();
    union.dedup();
    ProgramProfile {
        name: trace.name.clone(),
        nthreads: trace.nthreads,
        regions,
        union_lines: union.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(ops: &[Op]) -> TraceBuf {
        let mut b = TraceBuf::new();
        for &op in ops {
            b.push(op);
        }
        b.seal();
        b
    }

    #[test]
    fn stack_distances_are_exact() {
        // Sequence of lines: A B C A  — A's reuse distance is 2 (B, C).
        let ops = [
            Op::Load { addr: 0 },
            Op::Load { addr: 64 },
            Op::Load { addr: 128 },
            Op::Load { addr: 0 },
        ];
        let p = profile_ops(ops.iter().copied(), 64);
        assert_eq!(p.cold, 3);
        assert_eq!(p.hist[bucket_of(2)], 1);
        assert_eq!(p.histogram_mass(), p.mem_ops);
        // A B A B: both reuses at distance 1.
        let ops = [
            Op::Load { addr: 0 },
            Op::Load { addr: 64 },
            Op::Load { addr: 0 },
            Op::Load { addr: 64 },
        ];
        let p = profile_ops(ops.iter().copied(), 64);
        assert_eq!(p.cold, 2);
        assert_eq!(p.hist[bucket_of(1)], 2);
        // A A: same line, distance 0.
        let ops = [Op::Load { addr: 0 }, Op::Load { addr: 8 }];
        let p = profile_ops(ops.iter().copied(), 64);
        assert_eq!(p.cold, 1);
        assert_eq!(p.hist[0], 1);
        assert_eq!(p.same_line, 1);
    }

    #[test]
    fn misses_at_reads_the_cdf() {
        // 10 reuses at distance 2, 5 at distance 100, 3 cold.
        let mut p = ThreadProfile::empty(64);
        p.cold = 3;
        p.hist[bucket_of(2)] = 10;
        p.hist[bucket_of(100)] = 5;
        p.mem_ops = 18;
        // Capacity far above every distance: only cold misses.
        assert!((p.misses_at(1e9) - 3.0).abs() < 1e-9);
        // Capacity 1 line: everything misses.
        assert!((p.misses_at(1.0) - 18.0).abs() < 1e-9);
        // Capacity between the two populated buckets ([2,3] and [64,127]):
        // the far reuses miss, the near ones hit.
        assert!((p.misses_at(32.0) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn buckets_partition_distances() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        for b in 0..REUSE_BUCKETS {
            let (lo, hi) = bucket_range(b);
            assert_eq!(bucket_of(lo), b);
            if b < REUSE_BUCKETS - 1 {
                assert_eq!(bucket_of(hi), b);
            }
        }
    }

    #[test]
    fn region_cache_interns_profiles() {
        let region = Arc::new(RegionTrace::labeled(
            vec![buf(&[Op::Load { addr: 0 }, Op::Flops { n: 4 }])],
            "r",
        ));
        let cache = ProfileCache::default();
        let a = cache.region(&region, 64);
        let b = cache.region(&region, 64);
        assert!(Arc::ptr_eq(&a, &b), "second extraction must be cached");
        assert_eq!(a.threads[0].flops, 4);
    }

    /// A cached region is pinned: a different region built right after the
    /// first is dropped cannot land on its address and inherit its profile.
    #[test]
    fn region_cache_is_not_fooled_by_a_recycled_address() {
        let make = |addr: u64| {
            Arc::new(RegionTrace::labeled(
                vec![buf(&[Op::Load { addr }, Op::Load { addr: addr * 2 }])],
                "aba",
            ))
        };
        let cache = ProfileCache::default();
        for addr in [0u64, 4096, 64, 8192, 128] {
            let region = make(addr);
            assert_eq!(*cache.region(&region, 64), profile_region(&region, 64));
        }
    }

    #[test]
    fn program_profile_counts_interned_repeats() {
        let region = Arc::new(RegionTrace::labeled(
            vec![buf(&[Op::Load { addr: 0 }])],
            "r",
        ));
        let mut t = ProgramTrace::new("p", 1);
        for _ in 0..5 {
            t.push_region_arc(Arc::clone(&region));
        }
        let p = profile_program(&t, 64);
        assert_eq!(p.regions.len(), 1);
        assert_eq!(p.regions[0].1, 5);
        assert_eq!(p.region_executions(), 5);
        assert_eq!(p.mem_ops(), 5);
    }

    /// The pure path holds no region; a cache holds each region it
    /// profiled until it is dropped, and answers as the pure path does.
    #[test]
    fn a_dropped_cache_pins_no_region() {
        let mut t = ProgramTrace::new("p", 1);
        for addr in [0, 64, 0] {
            let region = RegionTrace::labeled(vec![buf(&[Op::Load { addr }])], "r");
            t.push_region_arc(Arc::new(region));
        }
        let counts = || t.regions.iter().map(Arc::strong_count).collect::<Vec<_>>();
        let alone = counts();
        let pure = profile_program(&t, 64);
        assert_eq!(counts(), alone);
        let cache = ProfileCache::default();
        let cached = cache.program(&t, 64);
        assert_eq!(counts(), alone.iter().map(|n| n + 1).collect::<Vec<_>>());
        for ((a, n), (b, m)) in cached.regions.iter().zip(&pure.regions) {
            assert_eq!((&**a, n), (&**b, m));
        }
        drop(cache);
        assert_eq!(counts(), alone);
    }

    #[test]
    fn sharing_summary() {
        // Two threads touching the same single line: fully shared.
        let r = RegionProfile::new(
            "s".into(),
            vec![
                profile_ops([Op::Load { addr: 0 }].into_iter(), 64),
                profile_ops([Op::Load { addr: 8 }].into_iter(), 64),
            ],
        );
        assert_eq!(r.union_lines, 1);
        assert_eq!(r.shared_lines, 1);
        assert!((r.shared_frac() - 0.5).abs() < 1e-9);
    }
}
