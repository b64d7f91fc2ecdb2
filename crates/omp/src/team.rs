//! Fork/join teams and the per-thread tracing context.
//!
//! [`Team`] accumulates a program as a sequence of regions; [`Par`] is the
//! handle a thread body uses to perform *traced* work: loads/stores against
//! [`Array`]s, FP work, branches and worksharing loops. The numerics happen
//! natively; the trace captures their architectural footprint.
//!
//! A build never holds a region's words whole. Each thread writes through
//! a small window ([`WordTable::open`]), and its words, as they become
//! final, are compared with the arrays they may repeat: the same thread's
//! in every earlier region with the region's label, and those of the
//! region's threads already done. A thread whose words equal one holds
//! that array and encodes nothing; a region whose every thread holds the
//! array of one earlier region at the same base *is* that region, as most
//! of an iterative solver's are. Only a thread whose words differ from
//! every candidate is run-encoded.

use std::collections::HashMap;
use std::sync::Arc;

use paxsim_machine::trace::{ProgramTrace, RegionTrace, TraceBuf, WordTable};

use crate::mem::Array;
use crate::schedule::Schedule;

/// Reduction scratch lines live here: one cache line per (reduction, thread)
/// so partial-result stores behave like a padded OpenMP reduction array.
const REDUX_BASE: u64 = 0x0e00_0000_0000;
/// Lock words for `critical` / atomic updates.
const LOCK_BASE: u64 = 0x0e80_0000_0000;

/// A `sections` body: one closure per OpenMP section.
pub type SectionBody<'a> = Box<dyn FnMut(&mut Par) + 'a>;

/// Per-thread execution/tracing context passed to region bodies.
pub struct Par<'a> {
    /// This thread's id within the team.
    pub tid: usize,
    /// Team size.
    pub nthreads: usize,
    schedule: Schedule,
    /// Static code-footprint expansion (see [`Team::set_code_expansion`]).
    code_expansion: u32,
    code_rot: u32,
    trace: &'a mut TraceBuf,
}

impl<'a> Par<'a> {
    /// Traced streaming load: returns `a[i]` and records the access.
    #[inline]
    pub fn ld<T: Copy>(&mut self, a: &Array<T>, i: usize) -> T {
        self.trace.load(a.addr(i));
        a.get(i)
    }

    /// Traced dependent load (critical path: pointer chase / gather index).
    #[inline]
    pub fn ld_dep<T: Copy>(&mut self, a: &Array<T>, i: usize) -> T {
        self.trace.load_dep(a.addr(i));
        a.get(i)
    }

    /// Traced store.
    #[inline]
    pub fn st<T: Copy>(&mut self, a: &mut Array<T>, i: usize, v: T) {
        self.trace.store(a.addr(i));
        a.set(i, v);
    }

    /// Traced read-modify-write (`a[i] = f(a[i])`): one load + one store.
    #[inline]
    pub fn rmw<T: Copy>(&mut self, a: &mut Array<T>, i: usize, f: impl FnOnce(T) -> T) {
        let v = self.ld(a, i);
        self.st(a, i, f(v));
    }

    /// Record `n` uops of FP/ALU work.
    #[inline]
    pub fn flops(&mut self, n: u32) {
        self.trace.flops(n);
    }

    /// Emit a streaming load at a raw simulated address (for access
    /// patterns the typed helpers cannot express, e.g. computed scatter
    /// targets).
    #[inline]
    pub fn raw_load(&mut self, addr: u64) {
        self.trace.load(addr);
    }

    /// Emit a dependent load at a raw simulated address.
    #[inline]
    pub fn raw_load_dep(&mut self, addr: u64) {
        self.trace.load_dep(addr);
    }

    /// Emit a store at a raw simulated address.
    #[inline]
    pub fn raw_store(&mut self, addr: u64) {
        self.trace.store(addr);
    }

    /// Record a conditional branch outcome at static site `site`.
    #[inline]
    pub fn branch(&mut self, site: u32, taken: bool) {
        self.trace.branch(site, taken);
    }

    /// Record entry into basic block `bb` costing `uops` front-end uops.
    ///
    /// With a code expansion factor `E > 1` the site is fanned out over
    /// `E` distinct block ids in rotation, modeling the large unrolled
    /// loop bodies of the real (Fortran) benchmarks whose decoded
    /// footprint pressures the 12 Kuop trace cache.
    #[inline]
    pub fn block(&mut self, bb: u32, uops: u16) {
        let rot = self.code_rot;
        self.code_rot += 1;
        if self.code_rot == self.code_expansion {
            self.code_rot = 0;
        }
        self.trace.block(bb * 256 + rot, uops);
    }

    /// A worksharing loop over `0..n` using the region's schedule. Emits
    /// the loop's block fetch and back-branch per iteration, then calls
    /// `body(self, i)` for each iteration owned by this thread.
    pub fn for_static(
        &mut self,
        site: u32,
        uops_per_iter: u16,
        n: usize,
        mut body: impl FnMut(&mut Self, usize),
    ) {
        let sched = self.schedule;
        self.for_sched(site, uops_per_iter, sched, n, &mut body);
    }

    /// A worksharing loop with an explicit schedule.
    pub fn for_sched(
        &mut self,
        site: u32,
        uops_per_iter: u16,
        sched: Schedule,
        n: usize,
        body: &mut impl FnMut(&mut Self, usize),
    ) {
        let ranges = sched.ranges(self.tid, self.nthreads, n);
        let last_range = ranges.len().saturating_sub(1);
        for (ri, r) in ranges.into_iter().enumerate() {
            let end = r.end;
            for i in r {
                self.block(site, uops_per_iter);
                body(self, i);
                let more = i + 1 < end || ri < last_range;
                self.branch(site, more);
            }
        }
    }

    /// A thread-local (sequential) counted loop: fetch + body + back-branch
    /// per iteration.
    pub fn lp(
        &mut self,
        site: u32,
        uops_per_iter: u16,
        count: usize,
        mut body: impl FnMut(&mut Self, usize),
    ) {
        for k in 0..count {
            self.block(site, uops_per_iter);
            body(self, k);
            self.branch(site, k + 1 < count);
        }
    }

    /// A collapsed 2-D worksharing loop (`collapse(2)`): the `n × m`
    /// iteration space is flattened and divided by the region's schedule;
    /// `body` receives `(i, j)` with `i` the slow dimension.
    pub fn for_collapse2(
        &mut self,
        site: u32,
        uops_per_iter: u16,
        n: usize,
        m: usize,
        mut body: impl FnMut(&mut Self, usize, usize),
    ) {
        assert!(m > 0 || n == 0, "empty inner dimension with outer work");
        self.for_static(site, uops_per_iter, n * m, |p, idx| {
            body(p, idx / m, idx % m);
        });
    }

    /// Model an atomic update under lock word `lock_id`: acquire (dependent
    /// load), a couple of ALU uops, release (store). Lock contention is a
    /// timing approximation — traces are fixed at generation time — but the
    /// coherence-miss traffic on the lock line is real.
    pub fn atomic(&mut self, lock_id: u32) {
        let addr = LOCK_BASE + lock_id as u64 * 64;
        self.trace.load_dep(addr);
        self.trace.flops(2);
        self.trace.store(addr);
    }
}

/// A fork/join team building a traced program.
///
/// Regions are *interned* as they are recorded: when an iteration emits a
/// region structurally identical to an earlier one (same label, bit-identical
/// packed per-thread streams), the earlier `Arc<RegionTrace>` is reused
/// instead of materializing another copy. Iterative solvers like CG keep one
/// region's storage for N iterations, and the engine keys its steady-state
/// region memoization on the shared pointer.
pub struct Team {
    name: String,
    nthreads: usize,
    regions: Vec<Arc<RegionTrace>>,
    /// The regions kept so far, by label: the ones a region with the label
    /// may repeat.
    kept: HashMap<String, Vec<Arc<RegionTrace>>>,
    /// The words of every thread buffer kept so far.
    words: WordTable,
    /// Thread windows, emptied, for the next threads to write through.
    spare: Vec<Vec<u32>>,
    schedule: Schedule,
    code_expansion: u32,
    /// Stable reduction-slot ids, keyed by region label so repeated
    /// iterations of the same reduction reuse the same padded scratch
    /// lines (a prerequisite for their regions to intern equal).
    redux_ids: HashMap<String, u32>,
}

impl Team {
    /// Create a team of `nthreads` OpenMP threads building program `name`.
    pub fn new(name: impl Into<String>, nthreads: usize) -> Self {
        assert!(nthreads >= 1);
        Self {
            name: name.into(),
            nthreads,
            regions: Vec::new(),
            kept: HashMap::new(),
            words: WordTable::default(),
            spare: Vec::new(),
            schedule: Schedule::Static,
            code_expansion: 1,
            redux_ids: HashMap::new(),
        }
    }

    /// One buffer per thread, nothing written, none streamed yet.
    fn idle(&self) -> Vec<TraceBuf> {
        (0..self.nthreads).map(|_| TraceBuf::new()).collect()
    }

    /// Stream thread `tid` of region `label`: its words may repeat that
    /// thread's in every kept region with the label, or the words of a
    /// thread of this region already closed (`bufs` is the region so far).
    fn open(&mut self, label: &str, bufs: &mut [TraceBuf], tid: usize) {
        let earlier = self.kept.get(label).into_iter().flatten();
        let candidates = earlier.map(|r| &*r.threads[tid]).chain(&*bufs);
        let window = self.spare.pop().unwrap_or_default();
        bufs[tid] = self.words.open(window, candidates);
    }

    /// Keep streamed `buf`'s words, and its window for the next thread.
    fn close(&mut self, buf: &mut TraceBuf) {
        let window = self.words.close(buf);
        self.spare.push(window);
    }

    /// A per-thread tracing context writing to `trace`.
    fn par<'a>(&self, tid: usize, trace: &'a mut TraceBuf) -> Par<'a> {
        Par {
            tid,
            nthreads: self.nthreads,
            schedule: self.schedule,
            code_expansion: self.code_expansion,
            code_rot: 0,
            trace,
        }
    }

    /// Record region `label`, every thread closed: the earlier region with
    /// this label whose every thread holds the same array at the same
    /// base, or `bufs` as a region of its own.
    fn intern(&mut self, label: &str, bufs: Vec<TraceBuf>) {
        let same = |r: &&Arc<RegionTrace>| r.threads.iter().zip(&bufs).all(|(a, b)| a.same_kept(b));
        let region = match self.kept.get(label).and_then(|kept| kept.iter().find(same)) {
            Some(earlier) => Arc::clone(earlier),
            None => {
                let region = Arc::new(RegionTrace::labeled(bufs, label));
                let kept = self.kept.entry(label.to_string()).or_default();
                kept.push(Arc::clone(&region));
                region
            }
        };
        self.regions.push(region);
    }

    /// Set the default worksharing schedule for subsequent regions.
    pub fn set_schedule(&mut self, s: Schedule) {
        self.schedule = s;
    }

    /// Set the static code-footprint expansion for subsequent regions:
    /// each [`Par::block`] site rotates over `e` distinct block ids,
    /// multiplying the program's decoded-code footprint. Benchmarks pick
    /// `e` so their footprint relative to the 12 Kuop trace cache matches
    /// the real code's (NAS Fortran bodies are far larger than our traced
    /// loop skeletons).
    pub fn set_code_expansion(&mut self, e: u32) {
        assert!(
            (1..=256).contains(&e),
            "expansion must stay within a site's id window"
        );
        self.code_expansion = e;
    }

    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Execute a parallel region: `f` runs once per thread (sequentially,
    /// in thread order) with that thread's tracing context; an implicit
    /// barrier ends the region.
    pub fn parallel(&mut self, label: &str, mut f: impl FnMut(&mut Par)) {
        let mut bufs = self.idle();
        for tid in 0..self.nthreads {
            self.open(label, &mut bufs, tid);
            f(&mut self.par(tid, &mut bufs[tid]));
            self.close(&mut bufs[tid]);
        }
        self.intern(label, bufs);
    }

    /// Execute a serial (master-only) section: `f` runs once as thread 0;
    /// the other threads idle at the closing barrier.
    pub fn serial(&mut self, label: &str, f: impl FnOnce(&mut Par)) {
        let mut bufs = self.idle();
        self.open(label, &mut bufs, 0);
        f(&mut self.par(0, &mut bufs[0]));
        self.close(&mut bufs[0]);
        self.intern(label, bufs);
    }

    /// A parallel region with an OpenMP `reduction` clause: each thread's
    /// body returns its partial, partials are combined with `combine`, and
    /// the trace reflects the runtime's padded-partials + master-combine
    /// protocol.
    pub fn parallel_reduce<R: Copy>(
        &mut self,
        label: &str,
        init: R,
        combine: impl Fn(R, R) -> R,
        mut f: impl FnMut(&mut Par) -> R,
    ) -> R {
        // Slot ids are keyed by label, not by a running counter: the same
        // reduction executed every iteration must touch the same scratch
        // lines or no two iterations would ever trace identically.
        let next = self.redux_ids.len() as u32;
        let redux = *self.redux_ids.entry(label.to_string()).or_insert(next);
        let slot = |tid: usize| REDUX_BASE + (redux as u64) * 4096 + (tid as u64) * 64;

        let mut acc = init;
        let mut bufs = self.idle();
        for tid in 0..self.nthreads {
            self.open(label, &mut bufs, tid);
            let partial = f(&mut self.par(tid, &mut bufs[tid]));
            acc = combine(acc, partial);
            // Publish the partial to the padded reduction array.
            bufs[tid].store(slot(tid));
            // The master's stays open for the combine.
            if tid != 0 {
                self.close(&mut bufs[tid]);
            }
        }
        // Master combines the partials after the barrier.
        if self.nthreads > 1 {
            for tid in 0..self.nthreads {
                bufs[0].load_dep(slot(tid));
                bufs[0].flops(1);
            }
        }
        self.close(&mut bufs[0]);
        self.intern(label, bufs);
        acc
    }

    /// OpenMP `sections`: each closure in `sections` runs exactly once,
    /// dealt round-robin over the threads (the reference distribution for
    /// static sections). Threads with no section idle at the barrier.
    pub fn parallel_sections(&mut self, label: &str, sections: Vec<SectionBody<'_>>) {
        let nthreads = self.nthreads;
        let mut bufs = self.idle();
        let mut sections = sections;
        for (si, sec) in sections.iter_mut().enumerate() {
            let tid = si % nthreads;
            // A thread stays open until the region ends: another section
            // may come its way.
            if si < nthreads {
                self.open(label, &mut bufs, tid);
            }
            sec(&mut self.par(tid, &mut bufs[tid]));
        }
        for buf in bufs.iter_mut().take(sections.len()) {
            self.close(buf);
        }
        self.intern(label, bufs);
    }

    /// Number of regions recorded so far.
    pub fn regions(&self) -> usize {
        self.regions.len()
    }

    /// Finalize into a replayable program trace. Interned regions stay
    /// shared in the resulting program.
    pub fn finish(self) -> ProgramTrace {
        let mut p = ProgramTrace::new(self.name, self.nthreads);
        for r in self.regions {
            p.push_region_arc(r);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Arena;
    use paxsim_machine::op::{self, Op};

    #[test]
    fn parallel_region_traces_every_thread() {
        let mut arena = Arena::new();
        let a = arena.alloc_with::<f64>("a", 64, 2.0);
        let mut team = Team::new("t", 4);
        team.parallel("sum", |p| {
            let mut s = 0.0;
            p.for_static(1, 2, 64, |p, i| {
                s += p.ld(&a, i);
            });
            assert_eq!(s, 2.0 * 16.0); // 64 iterations / 4 threads
        });
        let prog = team.finish();
        assert_eq!(prog.regions.len(), 1);
        for t in &prog.regions[0].threads {
            assert!(!t.is_empty(), "every thread traced");
            assert_eq!(t.memory_ops(), 16);
        }
    }

    #[test]
    fn sequential_semantics_match_native_loop() {
        // The traced computation must produce the same values as plain Rust.
        let mut arena = Arena::new();
        let mut x = arena.alloc::<f64>("x", 100);
        let mut team = Team::new("t", 3);
        team.parallel("fill", |p| {
            p.for_static(1, 2, 100, |p, i| {
                p.st(&mut x, i, (i * i) as f64);
            });
        });
        for i in 0..100 {
            assert_eq!(x.get(i), (i * i) as f64);
        }
    }

    #[test]
    fn serial_region_only_master_traced() {
        let mut team = Team::new("t", 4);
        team.serial("setup", |p| {
            p.flops(100);
        });
        let prog = team.finish();
        let r = &prog.regions[0];
        assert_eq!(r.threads[0].instructions(), 100);
        for t in &r.threads[1..] {
            assert!(t.is_empty());
        }
    }

    #[test]
    fn reduction_combines_and_traces_protocol() {
        let mut team = Team::new("t", 4);
        let total = team.parallel_reduce("red", 0i64, |a, b| a + b, |p| (p.tid as i64 + 1) * 10);
        assert_eq!(total, 10 + 20 + 30 + 40);
        let prog = team.finish();
        let r = &prog.regions[0];
        // Each thread stores a partial; master also loads all four.
        assert_eq!(r.threads[3].memory_ops(), 1);
        assert_eq!(r.threads[0].memory_ops(), 1 + 4);
    }

    #[test]
    fn reduction_slots_are_padded() {
        // Two reductions and two threads: all four slots on distinct lines.
        let mut team = Team::new("t", 2);
        team.parallel_reduce("r1", 0.0, |a: f64, b| a + b, |_| 1.0);
        team.parallel_reduce("r2", 0.0, |a: f64, b| a + b, |_| 1.0);
        let prog = team.finish();
        let mut lines = std::collections::HashSet::new();
        for r in &prog.regions {
            for t in &r.threads {
                for op in t.iter() {
                    if let paxsim_machine::op::Op::Store { addr } = op {
                        assert!(lines.insert(addr / 64), "slot line reused");
                    }
                }
            }
        }
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn worksharing_respects_schedule() {
        let mut team = Team::new("t", 2);
        team.set_schedule(Schedule::StaticChunk(1));
        let mut seen = [Vec::new(), Vec::new()];
        team.parallel("ws", |p| {
            let tid = p.tid;
            p.for_static(1, 1, 6, |_, i| seen[tid].push(i));
        });
        // Round-robin chunks of 1 — but the closure runs once per thread,
        // so each thread appended its own iterations.
        assert_eq!(seen[0], vec![0, 2, 4]);
        assert_eq!(seen[1], vec![1, 3, 5]);
    }

    #[test]
    fn loop_branch_pattern_taken_until_last() {
        let mut team = Team::new("t", 1);
        team.parallel("l", |p| {
            p.lp(7, 1, 3, |_, _| {});
        });
        let prog = team.finish();
        let ops = prog.regions[0].threads[0].to_ops();
        use paxsim_machine::op::Op;
        let outcomes: Vec<bool> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Branch { taken, .. } => Some(*taken),
                _ => None,
            })
            .collect();
        assert_eq!(outcomes, vec![true, true, false]);
    }

    #[test]
    fn atomic_emits_lock_protocol() {
        let mut team = Team::new("t", 1);
        team.parallel("a", |p| p.atomic(3));
        let prog = team.finish();
        let t = &prog.regions[0].threads[0];
        assert_eq!(t.memory_ops(), 2);
        assert_eq!(t.instructions(), 4);
    }

    #[test]
    fn rmw_traces_load_and_store() {
        let mut arena = Arena::new();
        let mut a = arena.alloc_with::<i32>("a", 4, 5);
        let mut team = Team::new("t", 1);
        team.parallel("rmw", |p| {
            p.rmw(&mut a, 2, |v| v * 3);
        });
        assert_eq!(a.get(2), 15);
        let prog = team.finish();
        assert_eq!(prog.regions[0].threads[0].memory_ops(), 2);
    }

    #[test]
    fn collapse2_partitions_full_product() {
        let mut team = Team::new("t", 3);
        let mut seen = std::collections::HashSet::new();
        team.parallel("c2", |p| {
            p.for_collapse2(1, 2, 4, 5, |_, i, j| {
                assert!(seen.insert((i, j)), "duplicate ({i},{j})");
            });
        });
        assert_eq!(seen.len(), 20);
        for i in 0..4 {
            for j in 0..5 {
                assert!(seen.contains(&(i, j)));
            }
        }
    }

    #[test]
    fn sections_deal_round_robin() {
        let mut team = Team::new("t", 2);
        let ran = std::cell::RefCell::new(Vec::new());
        team.parallel_sections(
            "secs",
            vec![
                Box::new(|p: &mut Par| {
                    ran.borrow_mut().push((0, p.tid));
                    p.flops(10);
                }),
                Box::new(|p: &mut Par| {
                    ran.borrow_mut().push((1, p.tid));
                    p.flops(20);
                }),
                Box::new(|p: &mut Par| {
                    ran.borrow_mut().push((2, p.tid));
                    p.flops(30);
                }),
            ],
        );
        assert_eq!(&*ran.borrow(), &[(0, 0), (1, 1), (2, 0)]);
        let prog = team.finish();
        // Thread 0 ran sections 0 and 2 (10 + 30 uops), thread 1 ran 20.
        assert_eq!(prog.regions[0].threads[0].instructions(), 40);
        assert_eq!(prog.regions[0].threads[1].instructions(), 20);
    }

    #[test]
    fn sections_fewer_than_threads_leave_idle_threads() {
        let mut team = Team::new("t", 4);
        team.parallel_sections("secs", vec![Box::new(|p: &mut Par| p.flops(5))]);
        let prog = team.finish();
        assert_eq!(prog.regions[0].threads[0].instructions(), 5);
        for t in &prog.regions[0].threads[1..] {
            assert!(t.is_empty());
        }
    }

    #[test]
    fn identical_regions_are_interned() {
        let mut team = Team::new("t", 2);
        for _ in 0..5 {
            team.parallel("iter", |p| {
                p.for_static(1, 2, 32, |p, i| p.raw_load(i as u64 * 8));
            });
            team.parallel_reduce("dot", 0.0, |a: f64, b| a + b, |_| 1.0);
        }
        team.serial("tail", |p| p.flops(9));
        let prog = team.finish();
        assert_eq!(prog.regions.len(), 11);
        // One interned copy per distinct region shape.
        assert_eq!(prog.unique_regions(), 3);
        assert!(Arc::ptr_eq(&prog.regions[0], &prog.regions[2]));
        assert!(Arc::ptr_eq(&prog.regions[1], &prog.regions[3]));
        assert!(!Arc::ptr_eq(&prog.regions[0], &prog.regions[1]));
        // Interning shares storage; per-occurrence accounting is unchanged.
        assert!(prog.packed_bytes() < prog.unpacked_bytes() / 2);
    }

    #[test]
    fn different_content_not_interned() {
        let mut team = Team::new("t", 1);
        team.parallel("a", |p| p.flops(1));
        team.parallel("a", |p| p.flops(2));
        // Same content, different label: also distinct.
        team.parallel("b", |p| p.flops(1));
        let prog = team.finish();
        assert_eq!(prog.unique_regions(), 3);
    }

    #[test]
    fn a_different_middle_word_is_a_different_region() {
        // Same label, same per-thread word counts, same first and last
        // words, and still two regions.
        let mut team = Team::new("t", 2);
        for middle in [0x40, 0x80, 0x40] {
            team.parallel("r", |p| {
                p.raw_load(0);
                p.raw_load(middle);
                p.raw_store(0x1000);
            });
        }
        assert_eq!(team.kept["r"].len(), 2, "two regions kept with the label");
        let prog = team.finish();
        assert_eq!(prog.unique_regions(), 2);
        assert!(!Arc::ptr_eq(&prog.regions[0], &prog.regions[1]));
        assert!(Arc::ptr_eq(&prog.regions[0], &prog.regions[2]));
    }

    #[test]
    fn equal_words_at_different_bases_are_different_regions() {
        // A buffer's first address is its base, so both regions emit the
        // same words on every thread — against different bases.
        let mut team = Team::new("t", 2);
        for base in [0x1000_0000u64, 0x2000_0000] {
            team.parallel("r", |p| {
                p.raw_load(base);
                p.raw_store(base + 64);
            });
        }
        // The second region's threads followed the first's words: each
        // holds that thread's array, against its own base.
        let one_thread = plain_words(&team.regions[0].threads[0]);
        assert_eq!(team.words.encoded_words(), one_thread);
        let prog = team.finish();
        let (a, b) = (&prog.regions[0], &prog.regions[1]);
        for (x, y) in a.threads.iter().zip(&b.threads) {
            assert_eq!(x.words().as_ptr(), y.words().as_ptr());
            assert_ne!(x.base(), y.base());
            assert!(!x.iter().eq(y.iter()), "the same words at other addresses");
        }
        assert_eq!(prog.unique_regions(), 2);
    }

    /// The words `t`'s ops take in a plain buffer, never kept.
    fn plain_words(t: &TraceBuf) -> usize {
        t.iter().collect::<TraceBuf>().words().len()
    }

    /// The ops `body` emits as thread `tid` of `nthreads` into a plain
    /// buffer, never streamed or kept: what the build's thread must hold.
    fn plain(tid: usize, nthreads: usize, body: impl FnOnce(&mut Par)) -> Vec<Op> {
        let mut trace = TraceBuf::new();
        body(&mut Par {
            tid,
            nthreads,
            schedule: Schedule::Static,
            code_expansion: 1,
            code_rot: 0,
            trace: &mut trace,
        });
        trace.seal();
        trace.to_ops()
    }

    /// A sweep many windows long over `base`, whose last store goes to
    /// `last`.
    fn long_sweep(base: u64, last: u64) -> impl Fn(&mut Par) {
        move |p| {
            p.lp(1, 2, 3000, |p, i| {
                p.raw_load(base + i as u64 * 64);
                p.flops(2);
            });
            p.raw_store(last);
        }
    }

    #[test]
    fn a_region_one_last_word_apart_is_kept_apart() {
        let mut team = Team::new("t", 1);
        team.parallel("r", long_sweep(0x4000_0000, 0x4010_0000));
        team.parallel("r", long_sweep(0x4000_0000, 0x4010_0040));
        let words = plain_words(&team.regions[0].threads[0]);
        // The second followed the first to its last word, then was encoded
        // whole: the words before read back from the first's array.
        assert_eq!(team.words.encoded_words(), 2 * words);
        let prog = team.finish();
        assert_eq!(prog.unique_regions(), 2);
        for (r, last) in prog.regions.iter().zip([0x4010_0000, 0x4010_0040]) {
            let want = plain(0, 1, long_sweep(0x4000_0000, last));
            assert_eq!(r.threads[0].to_ops(), want);
        }
    }

    #[test]
    fn a_region_equal_to_an_older_one_repeats_it() {
        let (a, b) = (
            long_sweep(0x4000_0000, 0x4010_0000),
            long_sweep(0x4000_0000, 0x4010_0040),
        );
        let mut team = Team::new("t", 2);
        team.parallel("r", &a);
        team.parallel("r", &b);
        let encoded = team.words.encoded_words();
        team.parallel("r", &a);
        assert_eq!(
            team.words.encoded_words(),
            encoded,
            "the repeat encoded nothing"
        );
        let prog = team.finish();
        assert!(Arc::ptr_eq(&prog.regions[0], &prog.regions[2]));
        assert!(!Arc::ptr_eq(&prog.regions[1], &prog.regions[2]));
        assert_eq!(prog.unique_regions(), 2);
    }

    #[test]
    fn a_reduction_streams_the_master_past_the_other_threads() {
        // Thread 0 stays open while threads 1.. are written and closed,
        // and takes the combine after them.
        let body = |p: &mut Par| {
            let base = 0x4000_0000 + p.tid as u64 * 0x10_0000;
            long_sweep(base, base)(p);
            p.tid as f64
        };
        let mut team = Team::new("t", 4);
        let sum = team.parallel_reduce("dot", 0.0, |a, b| a + b, body);
        assert_eq!(sum, 6.0);
        let encoded = team.words.encoded_words();
        team.parallel_reduce("dot", 0.0, |a, b| a + b, body);
        assert_eq!(
            team.words.encoded_words(),
            encoded,
            "the repeat encoded nothing"
        );
        let prog = team.finish();
        assert!(Arc::ptr_eq(&prog.regions[0], &prog.regions[1]));
        let threads = &prog.regions[0].threads;
        let slot = |tid: usize| REDUX_BASE + tid as u64 * 64;
        for (tid, t) in threads.iter().enumerate() {
            let want = plain(tid, 4, |p| {
                body(p);
                p.raw_store(slot(tid));
                if tid == 0 {
                    for t in 0..4 {
                        p.raw_load_dep(slot(t));
                        p.flops(1);
                    }
                }
            });
            assert_eq!(t.to_ops(), want, "thread {tid}");
        }
    }

    #[test]
    fn interleaved_sections_stream_every_thread_at_once() {
        let section = |k: u64| -> SectionBody<'static> {
            Box::new(move |p: &mut Par| long_sweep(0x4000_0000 + k * 0x10_0000, k)(p))
        };
        let sections = || (0..5).map(section).collect::<Vec<_>>();
        let mut team = Team::new("t", 2);
        team.parallel_sections("secs", sections());
        let encoded = team.words.encoded_words();
        team.parallel_sections("secs", sections());
        assert_eq!(
            team.words.encoded_words(),
            encoded,
            "the repeat encoded nothing"
        );
        let prog = team.finish();
        assert!(Arc::ptr_eq(&prog.regions[0], &prog.regions[1]));
        // Thread 0 ran sections 0, 2 and 4, thread 1 sections 1 and 3.
        for (tid, ks) in [(0, vec![0, 2, 4]), (1, vec![1, 3])] {
            let want = plain(tid, 2, |p| {
                for &k in &ks {
                    section(k)(p);
                }
            });
            assert_eq!(prog.regions[0].threads[tid].to_ops(), want, "thread {tid}");
        }
    }

    #[test]
    fn threads_with_equal_words_at_different_bases_hold_one_array() {
        // Each thread sweeps its own slab: the same offsets from its own
        // base, so the same words on every thread.
        let slab = |tid: usize| 0x4000_0000 + tid as u64 * 0x10_0000;
        let sweep = |p: &mut Par| {
            let base = slab(p.tid);
            p.lp(3, 2, 40, |p, i| {
                p.raw_load(base + i as u64 * 64);
                p.flops(3);
                p.raw_store(base + 0x8000 + i as u64 * 64);
            });
        };
        let mut team = Team::new("t", 4);
        team.parallel("sweep", sweep);
        // One array, and nothing encoded for the threads sharing it: their
        // words followed thread 0's as they came.
        let thread_words = plain_words(&team.regions[0].threads[0]);
        assert_eq!(team.words.encoded_words(), thread_words);
        // A later region of other words, and then one sharing the words of
        // the first region's threads once more.
        team.parallel("other", |p| p.flops(p.tid as u32 + 1));
        team.parallel("again", sweep);
        let prog = team.finish();
        let sweep = &prog.regions[0].threads;
        let again = &prog.regions[2].threads;
        for t in sweep.iter().chain(again) {
            assert_eq!(t.words().as_ptr(), sweep[0].words().as_ptr());
        }
        for (tid, t) in sweep.iter().enumerate() {
            assert_eq!(t.base(), op::base_for(slab(tid)));
            let first = t.iter().find(Op::is_memory);
            assert_eq!(first, Some(Op::Load { addr: slab(tid) }), "thread {tid}");
            let last_store = t.iter().filter(|o| matches!(o, Op::Store { .. })).last();
            let want = slab(tid) + 0x8000 + 39 * 64;
            assert_eq!(last_store, Some(Op::Store { addr: want }), "thread {tid}");
        }
        // One sweep array, four one-op arrays of `other`.
        assert_eq!(prog.packed_bytes(), sweep[0].packed_bytes() + 4 * 4);
        assert_eq!(prog.unique_regions(), 3);
    }

    #[test]
    fn a_recycled_buffer_emits_what_a_fresh_one_does() {
        // The long region ends inside an open block on a coalescable
        // `Flops`; the short one starts with `Flops` — nothing of the
        // first may leak into the second.
        let long = |p: &mut Par| {
            p.lp(1, 2, 500, |p, i| p.raw_load(i as u64 * 64));
            p.block(9, 3);
            p.flops(7);
        };
        let short = |p: &mut Par| {
            p.flops(5);
            p.raw_store(0x2000);
            p.block(4, 1);
        };
        let mut recycled = Team::new("t", 3);
        recycled.parallel("long", long);
        recycled.parallel("long", long);
        assert_eq!(recycled.spare.len(), 1, "one window served every thread");
        recycled.parallel("short", short);
        assert_eq!(
            recycled.spare.len(),
            1,
            "a kept region hands its window back: its words are stored apart"
        );
        let mut fresh = Team::new("t", 3);
        fresh.parallel("short", short);
        let (recycled, fresh) = (recycled.finish(), fresh.finish());
        let (got, want) = (&recycled.regions[2], &fresh.regions[0]);
        assert_eq!(got.label, want.label);
        for (g, w) in got.threads.iter().zip(&want.threads) {
            assert_eq!(g.words(), w.words());
            assert_eq!(g.len(), w.len());
        }
    }

    #[test]
    fn identical_iterations_share_one_region_per_phase() {
        let mut team = Team::new("t", 4);
        for _ in 0..6 {
            team.parallel("spmv", |p| {
                p.for_static(1, 2, 64, |p, i| p.raw_load_dep(i as u64 * 8));
            });
            team.parallel_reduce("dot", 0.0, |a: f64, b| a + b, |p| p.tid as f64);
            team.serial("norm", |p| p.flops(3));
            assert!(
                team.spare.len() <= 2,
                "a window for the master's combine and one more"
            );
        }
        let prog = team.finish();
        assert_eq!(prog.regions.len(), 18);
        assert_eq!(prog.unique_regions(), 3);
        for (i, r) in prog.regions.iter().enumerate() {
            assert!(Arc::ptr_eq(r, &prog.regions[i % 3]), "occurrence {i}");
        }
    }

    #[test]
    fn single_thread_reduce_skips_combine_loop() {
        let mut team = Team::new("t", 1);
        let v = team.parallel_reduce("r", 0.0, |a: f64, b| a + b, |_| 2.5);
        assert_eq!(v, 2.5);
        let prog = team.finish();
        // Just the publish store, no gather loop.
        assert_eq!(prog.regions[0].threads[0].memory_ops(), 1);
    }
}
