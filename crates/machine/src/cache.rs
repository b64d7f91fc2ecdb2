//! A generic set-associative, LRU, write-back cache model used for the L1
//! data cache (configured write-through by the engine) and the private L2.
//!
//! Lines carry a `ready_at` tick so that in-flight fills (demand misses and
//! prefetches) can be installed immediately while later accesses that hit
//! them still observe the remaining fill latency — this is how partial
//! prefetch coverage shows up in the model.

use std::sync::Arc;

use crate::config::CacheGeometry;
use crate::memo::Chunk;

/// Internal tag encoding: a stored tag is `line + 1`, so the all-zeros
/// allocation `vec![0; n]` (serviced by calloc as untouched, lazily-zeroed
/// pages) already means "every way empty". Machines are built per
/// `simulate()` call, and eagerly memsetting a sentinel over the L2 tag
/// arrays of every core used to dominate short runs' wall time.
const EMPTY: u64 = 0;

/// Encode a line address for tag storage (`EMPTY` is unreachable: line
/// addresses are byte addresses shifted right, far below `u64::MAX`).
#[inline(always)]
fn enc(line: u64) -> u64 {
    line + 1
}

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Line present; it becomes usable at `ready_at` (0 for settled lines).
    Hit { ready_at: u64 },
    /// Line absent; the caller must fetch and [`SetAssoc::install`] it.
    Miss,
}

/// A line evicted by [`SetAssoc::install`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Full line address (tagged, in line units).
    pub line: u64,
    /// Whether the line was dirty and must be written back.
    pub dirty: bool,
}

/// Set-associative cache over *line addresses* (byte address ≫ line bits,
/// already ASID-tagged by the caller).
#[derive(Debug, Clone)]
pub struct SetAssoc {
    sets: usize,
    ways: usize,
    line_shift: u32,
    /// `sets × ways` encoded line addresses (`enc(line)`; `EMPTY` = empty).
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`.
    stamp: Vec<u64>,
    dirty: Vec<bool>,
    ready: Vec<u64>,
    clock: u64,
    /// Per-set way prediction: the way of the last hit or install. Purely a
    /// lookup accelerator — a wrong prediction fails the tag compare and
    /// falls back to the full scan, so observable state never depends on it.
    mru_way: Vec<u32>,
}

impl SetAssoc {
    pub fn new(geom: CacheGeometry) -> Self {
        let sets = geom.sets();
        assert!(sets.is_power_of_two(), "cache sets must be a power of two");
        assert!(
            geom.line.is_power_of_two(),
            "line size must be a power of two"
        );
        let n = sets * geom.ways;
        Self {
            sets,
            ways: geom.ways,
            line_shift: geom.line.trailing_zeros(),
            tags: vec![EMPTY; n],
            stamp: vec![0; n],
            dirty: vec![false; n],
            ready: vec![0; n],
            clock: 0,
            mru_way: vec![0; sets],
        }
    }

    /// Convert a byte address to a line address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line as usize) & (self.sets - 1)
    }

    /// Look up `line`; on a hit the LRU stamp is refreshed and, for writes,
    /// the line is marked dirty.
    pub fn access(&mut self, line: u64, write: bool) -> Lookup {
        let set = self.set_of(line);
        let base = set * self.ways;
        let t = enc(line);
        self.clock += 1;
        // Way-predicted fast path: one compare against the set's MRU way
        // catches the dominant repeated-hit case. The side effects are
        // exactly those of the scan below finding the same way.
        let p = base + self.mru_way[set] as usize;
        if self.tags[p] == t {
            self.stamp[p] = self.clock;
            if write {
                self.dirty[p] = true;
            }
            return Lookup::Hit {
                ready_at: self.ready[p],
            };
        }
        for w in 0..self.ways {
            let i = base + w;
            if self.tags[i] == t {
                self.mru_way[set] = w as u32;
                self.stamp[i] = self.clock;
                if write {
                    self.dirty[i] = true;
                }
                return Lookup::Hit {
                    ready_at: self.ready[i],
                };
            }
        }
        Lookup::Miss
    }

    /// Install `line` (typically after a miss), evicting the set's LRU way
    /// if necessary. `ready_at` is the tick at which the fill completes.
    pub fn install(&mut self, line: u64, dirty: bool, ready_at: u64) -> Option<Evicted> {
        let set = self.set_of(line);
        let base = set * self.ways;
        let t = enc(line);
        self.clock += 1;
        // Prefer an empty way; otherwise evict the LRU way.
        let mut victim = base;
        let mut oldest = u64::MAX;
        for w in 0..self.ways {
            let i = base + w;
            if self.tags[i] == t {
                // Already present (racing prefetch/demand): refresh.
                self.mru_way[set] = w as u32;
                self.stamp[i] = self.clock;
                self.dirty[i] |= dirty;
                self.ready[i] = self.ready[i].min(ready_at);
                return None;
            }
            if self.tags[i] == EMPTY {
                victim = i;
                oldest = 0;
            } else if oldest != 0 && self.stamp[i] < oldest {
                victim = i;
                oldest = self.stamp[i];
            }
        }
        let evicted = (self.tags[victim] != EMPTY).then(|| Evicted {
            line: self.tags[victim] - 1,
            dirty: self.dirty[victim],
        });
        self.mru_way[set] = (victim - base) as u32;
        self.tags[victim] = t;
        self.stamp[victim] = self.clock;
        self.dirty[victim] = dirty;
        self.ready[victim] = ready_at;
        evicted
    }

    /// Invalidate `line` if resident; returns whether it was dirty.
    /// Used by the coherence protocol when another core gains exclusive
    /// ownership.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let base = self.set_of(line) * self.ways;
        let t = enc(line);
        for w in 0..self.ways {
            let i = base + w;
            if self.tags[i] == t {
                self.tags[i] = EMPTY;
                let dirty = self.dirty[i];
                self.dirty[i] = false;
                return Some(dirty);
            }
        }
        None
    }

    /// Is `line` currently resident (without touching LRU state)?
    pub fn contains(&self, line: u64) -> bool {
        let base = self.set_of(line) * self.ways;
        (0..self.ways).any(|w| self.tags[base + w] == enc(line))
    }

    /// Number of resident lines (for occupancy diagnostics).
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }

    pub fn sets(&self) -> usize {
        self.sets
    }

    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Canonical replay-relevant snapshot at boundary clock `base` (see
    /// `crate::memo`). Two states with equal canons are indistinguishable
    /// to any future op sequence executed at clocks ≥ `base`:
    ///
    /// * each set's occupied ways are listed oldest → newest, *erasing way
    ///   positions entirely*: lookup scans every way of a set, eviction
    ///   picks the minimum stamp (the first listed line), and the choice of
    ///   slot for a new line is never observable — so states whose sets
    ///   hold the same lines in permuted ways are behaviorally identical
    ///   and must canonicalize equally (steady-state loops reproduce the
    ///   same *resident set* each iteration, not the same way layout);
    /// * absolute LRU stamps are erased by that recency ordering —
    ///   replacement only ever compares stamps within a set, so the order
    ///   carries exactly the information it uses. Empty ways vanish: their
    ///   stale stamps are never read (install prefers empties before
    ///   consulting stamps; access fails their tag compare);
    /// * in-flight `ready` ticks become offsets from `base`, listed apart
    ///   from the resident lines; fills already complete at the boundary
    ///   (ready ≤ base) are simply not listed — "settled" — since every
    ///   consumer compares them against a clock ≥ `base`;
    /// * `clock` and `mru_way` are omitted — the clock only generates fresh
    ///   stamps above all existing ones, and way prediction is proven
    ///   non-observable by `equivalent_to_reference_cache`.
    ///
    /// The lines are cut into chunks of [`CHUNK_SETS`] consecutive sets and
    /// a chunk with nothing resident is left out, so the chunks are a
    /// function of the lines alone and canon equality is line equality.
    pub(crate) fn canon(&self, base: u64) -> SetAssocCanon {
        // Never accessed (the idle cores of a narrow run, every structure
        // of the pristine machine): nothing is resident, so nothing is
        // walked.
        if self.clock == 0 {
            return SetAssocCanon::default();
        }
        let mut chunks = Vec::new();
        let mut inflight = Vec::new();
        let mut lines = Vec::new();
        let mut before = 0; // lines in the chunks already cut
        let mut order: Vec<usize> = Vec::with_capacity(self.ways);
        let run = CHUNK_SETS.min(self.sets) * self.ways;
        for start in (0..self.tags.len()).step_by(run) {
            for first in (start..start + run).step_by(self.ways) {
                order.clear();
                order.extend((first..first + self.ways).filter(|&i| self.tags[i] != EMPTY));
                order.sort_by_key(|&i| self.stamp[i]);
                for &i in &order {
                    // Line and page addresses are byte addresses shifted
                    // right by at least six bits, so the top bit is free.
                    assert!(self.tags[i] & DIRTY == 0, "tag collides with the dirty bit");
                    if self.ready[i] > base {
                        inflight.push(((before + lines.len()) as u32, self.ready[i] - base));
                    }
                    lines.push(self.tags[i] | if self.dirty[i] { DIRTY } else { 0 });
                }
            }
            if !lines.is_empty() {
                before += lines.len();
                chunks.push(Chunk::new(lines.as_slice().into()));
                lines.clear();
            }
        }
        SetAssocCanon { chunks, inflight }
    }

    /// Install canonical state `c` re-anchored at boundary clock `base`.
    /// Lines land in each set's first ways, oldest first — one definite
    /// representative of the way-permutation equivalence class.
    pub(crate) fn restore(&mut self, c: &SetAssocCanon, base: u64) {
        // A structure never accessed is still its all-zeros allocation (a
        // machine built at a memo miss is restored into at once): there is
        // nothing to clear, and no page of it is touched beyond the lines
        // installed below.
        if self.clock != 0 {
            self.tags.fill(EMPTY);
            self.stamp.fill(0);
            self.dirty.fill(false);
            self.ready.fill(0);
            self.mru_way.fill(0); // prediction state is free
        }
        let mut inflight = c.inflight.iter().peekable();
        let (mut prev_set, mut way) = (usize::MAX, 0);
        let lines = c.chunks.iter().flat_map(|k| k.iter());
        for (n, &word) in lines.enumerate() {
            let tag = word & !DIRTY;
            // `tag` is `enc(line)`; a set's lines are adjacent in `lines`.
            let set = self.set_of(tag - 1);
            way = if set == prev_set { way + 1 } else { 0 };
            prev_set = set;
            let i = set * self.ways + way;
            self.tags[i] = tag;
            // Recency rank as the stamp: 1..=k oldest → newest.
            self.stamp[i] = (way + 1) as u64;
            self.dirty[i] = word & DIRTY != 0;
            self.ready[i] = inflight
                .next_if(|&&(at, _)| at as usize == n)
                .map_or(0, |&(_, off)| base + off);
        }
        // Fresh stamps must exceed every rank; with nothing resident the
        // structure is again as good as never accessed.
        self.clock = if c.chunks.is_empty() {
            0
        } else {
            self.ways as u64
        };
    }
}

/// Dirty flag of a [`SetAssocCanon`] line word.
const DIRTY: u64 = 1 << 63;

/// Consecutive sets per [`SetAssocCanon`] chunk: a region that touched a
/// few sets leaves the other chunks of a 4 096-set L2 equal to, and once
/// interned shared with, the previous snapshot's.
const CHUNK_SETS: usize = 64;

/// See [`SetAssoc::canon`]. What is resident is kept apart from what is
/// still in flight, so the same state seen later ([`SetAssocCanon::aged`])
/// shares the resident part and rewrites only the handful of fills that
/// were still under way.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub(crate) struct SetAssocCanon {
    /// Occupied lines in (set, recency) order, [`CHUNK_SETS`] sets to a
    /// chunk, chunks with no line left out: the encoded tag, with [`DIRTY`]
    /// set on a dirty line. The set index is a function of the tag and is
    /// not stored.
    chunks: Vec<Arc<Chunk<u64>>>,
    /// `(index into the lines, ready − base)` of every fill with
    /// `ready > base`, in line order; the index runs across the chunks.
    inflight: Vec<(u32, u64)>,
}

impl SetAssocCanon {
    /// The canon of the same structure `j` ticks later with no access in
    /// between: `s.canon(t).aged(j) == s.canon(t + j)`.
    pub(crate) fn aged(&self, j: u64) -> Self {
        let later = self.inflight.iter().filter(|&&(_, off)| off > j);
        Self {
            chunks: self.chunks.clone(),
            inflight: later.map(|&(at, off)| (at, off - j)).collect(),
        }
    }

    /// Is every fill complete, i.e. is this state its own aged image?
    pub(crate) fn settled(&self) -> bool {
        self.inflight.is_empty()
    }

    /// The chunks, for the interner to swap for their shared copies.
    pub(crate) fn chunks_mut(&mut self) -> std::slice::IterMut<'_, Arc<Chunk<u64>>> {
        self.chunks.iter_mut()
    }

    /// Heap bytes held: the chunk pointers and the pairs, and each chunk
    /// not yet in `seen`.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self, seen: &mut std::collections::HashSet<usize>) -> usize {
        let chunks = self
            .chunks
            .iter()
            .filter(|k| seen.insert(Arc::as_ptr(k) as usize));
        size_of_val(&*self.chunks)
            + size_of_val(&*self.inflight)
            + chunks.map(|k| k.footprint()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheGeometry;
    use crate::memo::{Meter, Pool};

    fn tiny() -> SetAssoc {
        // 4 sets × 2 ways × 64 B lines = 512 B.
        SetAssoc::new(CacheGeometry::new(512, 2, 64))
    }

    #[test]
    fn hit_after_install() {
        let mut c = tiny();
        assert_eq!(c.access(10, false), Lookup::Miss);
        assert_eq!(c.install(10, false, 0), None);
        assert_eq!(c.access(10, false), Lookup::Hit { ready_at: 0 });
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.install(0, false, 0);
        c.install(4, false, 0);
        c.access(0, false); // 0 is now MRU; 4 is LRU
        let ev = c.install(8, false, 0).unwrap();
        assert_eq!(ev.line, 4);
        assert!(!ev.dirty);
        assert!(c.contains(0));
        assert!(c.contains(8));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        c.install(0, false, 0);
        c.access(0, true); // write marks dirty
        c.install(4, false, 0);
        let ev = c.install(8, false, 0).unwrap();
        assert_eq!(ev.line, 0); // 4 was touched more recently via install
        assert!(ev.dirty);
    }

    #[test]
    fn reinstall_merges_state() {
        let mut c = tiny();
        c.install(3, false, 100);
        // A second install (e.g. demand fill racing a prefetch) keeps the
        // earlier availability and accumulates dirtiness.
        assert_eq!(c.install(3, true, 50), None);
        assert_eq!(c.access(3, false), Lookup::Hit { ready_at: 50 });
        c.install(7, false, 0);
        let ev = c.install(11, false, 0).unwrap();
        assert!(ev.dirty, "merged dirty bit must survive");
    }

    #[test]
    fn ready_at_visible_to_later_hits() {
        let mut c = tiny();
        c.install(5, false, 777);
        match c.access(5, false) {
            Lookup::Hit { ready_at } => assert_eq!(ready_at, 777),
            _ => panic!("expected hit"),
        }
    }

    #[test]
    fn line_of_uses_geometry() {
        let c = tiny();
        assert_eq!(c.line_of(0), 0);
        assert_eq!(c.line_of(63), 0);
        assert_eq!(c.line_of(64), 1);
        assert_eq!(c.line_of(6400), 100);
    }

    #[test]
    fn canon_restore_preserves_behavior() {
        // A state with occupied, dirty, in-flight, and invalidated ways.
        let mut a = tiny();
        a.install(0, false, 0);
        a.install(4, true, 0);
        a.access(0, false); // line 4 becomes LRU in its set
        a.install(1, false, 500); // in-flight fill
        a.install(5, false, 0);
        a.invalidate(5); // leaves a stale stamp on the emptied way
        let base = 300;
        let canon = a.canon(base);
        let mut b = tiny();
        b.restore(&canon, base);
        // Canonicalization is idempotent across restore — onto a structure
        // never accessed (nothing to clear) as onto a used one.
        assert_eq!(b.canon(base), canon);
        let mut used = tiny();
        used.install(2, true, 900);
        used.install(6, false, 0);
        used.restore(&canon, base);
        assert_eq!(used.canon(base), canon);
        assert_eq!(used.access(2, false), Lookup::Miss);
        // The restored cache replays like the original: same lookups, same
        // eviction choice (LRU line 4), same surviving in-flight tick.
        assert_eq!(a.access(0, false), b.access(0, false));
        assert_eq!(a.install(8, false, 600), b.install(8, false, 600));
        assert_eq!(a.access(1, false), b.access(1, false));
        assert_eq!(a.access(1, false), Lookup::Hit { ready_at: 500 });
    }

    #[test]
    fn aged_canon_is_the_canon_taken_later() {
        let mut a = tiny();
        a.install(0, true, 0);
        a.install(1, false, 500);
        a.install(5, false, 420);
        a.install(2, false, 340);
        let at = |t| a.canon(t);
        assert_eq!(at(300).inflight.len(), 3);
        for j in [0, 1, 39, 40, 41, 120, 199, 200, 10_000] {
            assert_eq!(at(300).aged(j), at(300 + j), "aged by {j}");
        }
        let late = at(300).aged(200);
        assert!(late.settled() && late == late.aged(7));
    }

    /// `canon` with its chunks swapped for the ones `pool` interned and
    /// charged to its meter.
    fn interned(pool: &mut (Pool<Chunk<u64>>, Meter), mut c: SetAssocCanon) -> SetAssocCanon {
        c.chunks_mut().for_each(|k| pool.0.intern(k, &pool.1));
        c
    }

    /// 512 sets × 2 ways, all full: eight chunks.
    fn filled() -> SetAssoc {
        let mut c = SetAssoc::new(CacheGeometry::new(64 * 1024, 2, 64));
        for line in 0..1_024 {
            c.install(line, line % 3 == 0, 0);
        }
        c
    }

    #[test]
    fn canons_share_every_chunk_but_the_touched_sets() {
        let mut pool = Default::default();
        let mut c = filled();
        let before = interned(&mut pool, c.canon(10));
        assert_eq!(before.chunks.len(), 8);
        // A new line in set 70 (the second chunk) evicts that set's LRU way.
        assert!(c.install(1_024 + 70, false, 0).is_some());
        let after = interned(&mut pool, c.canon(10));
        assert_ne!(before, after);
        for (k, (b, a)) in before.chunks.iter().zip(&after.chunks).enumerate() {
            assert_eq!(Arc::ptr_eq(b, a), k != 1, "chunk {k}");
        }
        // Equal content is one pointer, whichever canon brought it first.
        let again = interned(&mut pool, c.canon(99));
        assert!(again
            .chunks
            .iter()
            .zip(&after.chunks)
            .all(|(x, y)| Arc::ptr_eq(x, y)));
        // An empty chunk is left out, so chunking cannot tell caches apart
        // that hold the same lines.
        let mut sparse = tiny();
        sparse.install(3, false, 0);
        assert_eq!(sparse.canon(0).chunks.len(), 1);
        let mut big = SetAssoc::new(CacheGeometry::new(64 * 1024, 2, 64));
        big.install(500, true, 0);
        assert_eq!(big.canon(0).chunks.len(), 1, "only the eighth chunk");
    }

    #[test]
    fn an_aged_canon_shares_all_its_source_chunks() {
        let mut pool = Default::default();
        let mut c = filled();
        c.install(2_000, false, 500);
        c.install(2_001, true, 420);
        let young = interned(&mut pool, c.canon(300));
        assert_eq!(young.inflight.len(), 2);
        for j in [0, 50, 120, 10_000] {
            let aged = interned(&mut pool, young.aged(j));
            assert_eq!(aged, c.canon(300 + j), "aged by {j}");
            assert_eq!(aged.chunks.len(), young.chunks.len());
            let shared = aged.chunks.iter().zip(&young.chunks);
            assert!(
                shared.into_iter().all(|(a, y)| Arc::ptr_eq(a, y)),
                "aged by {j}"
            );
        }
    }

    #[test]
    fn untouched_cache_canonicalizes_like_an_emptied_one() {
        let mut emptied = tiny();
        emptied.install(3, true, 90);
        emptied.invalidate(3);
        assert_eq!(tiny().canon(0), emptied.canon(0));
        assert_eq!(tiny().canon(0), SetAssocCanon::default());
        // Restoring nothing onto nothing leaves the O(1) path open.
        let mut fresh = tiny();
        fresh.restore(&SetAssocCanon::default(), 77);
        assert_eq!(fresh.clock, 0);
        emptied.restore(&SetAssocCanon::default(), 77);
        assert_eq!(emptied.canon(77), fresh.canon(77));
        assert_eq!(emptied.access(3, false), Lookup::Miss);
    }

    #[test]
    fn occupancy_counts() {
        let mut c = tiny();
        assert_eq!(c.occupancy(), 0);
        for i in 0..8 {
            c.install(i, false, 0);
        }
        assert_eq!(c.occupancy(), 8); // full: 4 sets × 2 ways
        c.install(9, false, 0);
        assert_eq!(c.occupancy(), 8); // eviction keeps it full
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Naive reference cache: per-set recency lists (front = LRU, back
        /// = MRU), no way prediction, no stamps, no clock. The semantic
        /// ground truth the optimized [`SetAssoc`] must match exactly.
        struct RefCache {
            sets: usize,
            ways: usize,
            lru: Vec<Vec<(u64, bool, u64)>>, // (line, dirty, ready)
        }

        impl RefCache {
            fn new(geom: CacheGeometry) -> Self {
                let sets = geom.sets();
                Self {
                    sets,
                    ways: geom.ways,
                    lru: vec![Vec::new(); sets],
                }
            }

            fn set_of(&self, line: u64) -> usize {
                (line as usize) & (self.sets - 1)
            }

            fn access(&mut self, line: u64, write: bool) -> Lookup {
                let set = self.set_of(line);
                let s = &mut self.lru[set];
                if let Some(i) = s.iter().position(|e| e.0 == line) {
                    let mut e = s.remove(i);
                    e.1 |= write;
                    let ready = e.2;
                    s.push(e);
                    Lookup::Hit { ready_at: ready }
                } else {
                    Lookup::Miss
                }
            }

            fn install(&mut self, line: u64, dirty: bool, ready_at: u64) -> Option<Evicted> {
                let set = self.set_of(line);
                let ways = self.ways;
                let s = &mut self.lru[set];
                if let Some(i) = s.iter().position(|e| e.0 == line) {
                    let mut e = s.remove(i);
                    e.1 |= dirty;
                    e.2 = e.2.min(ready_at);
                    s.push(e);
                    return None;
                }
                let evicted = if s.len() == ways {
                    let victim = s.remove(0);
                    Some(Evicted {
                        line: victim.0,
                        dirty: victim.1,
                    })
                } else {
                    None
                };
                s.push((line, dirty, ready_at));
                evicted
            }

            fn invalidate(&mut self, line: u64) -> Option<bool> {
                let set = self.set_of(line);
                let s = &mut self.lru[set];
                s.iter().position(|e| e.0 == line).map(|i| s.remove(i).1)
            }

            fn contains(&self, line: u64) -> bool {
                self.lru[self.set_of(line)].iter().any(|e| e.0 == line)
            }

            fn occupancy(&self) -> usize {
                self.lru.iter().map(|s| s.len()).sum()
            }
        }

        /// One step of an arbitrary cache workload.
        #[derive(Debug, Clone, Copy)]
        enum CacheOp {
            Access { line: u64, write: bool },
            Install { line: u64, dirty: bool, ready: u64 },
            Invalidate { line: u64 },
        }

        fn cache_op() -> impl Strategy<Value = CacheOp> {
            prop_oneof![
                (0u64..48, proptest::bool::ANY)
                    .prop_map(|(line, write)| CacheOp::Access { line, write }),
                (0u64..48, proptest::bool::ANY, 0u64..1000)
                    .prop_map(|(line, dirty, ready)| CacheOp::Install { line, dirty, ready }),
                (0u64..48).prop_map(|line| CacheOp::Invalidate { line }),
            ]
        }

        proptest! {
            /// The way-predicted cache is observationally equivalent to the
            /// naive reference: identical hit/miss results (with ready
            /// ticks), identical evictions (line and dirtiness), identical
            /// invalidation results, at every step of any workload.
            #[test]
            fn equivalent_to_reference_cache(
                ops in proptest::collection::vec(cache_op(), 1..400),
            ) {
                let geom = CacheGeometry::new(512, 2, 64); // 4 sets × 2 ways
                let mut fast = SetAssoc::new(geom);
                let mut re = RefCache::new(geom);
                for (step, &op) in ops.iter().enumerate() {
                    match op {
                        CacheOp::Access { line, write } => {
                            prop_assert_eq!(
                                fast.access(line, write),
                                re.access(line, write),
                                "access diverged at step {}", step
                            );
                        }
                        CacheOp::Install { line, dirty, ready } => {
                            prop_assert_eq!(
                                fast.install(line, dirty, ready),
                                re.install(line, dirty, ready),
                                "install diverged at step {}", step
                            );
                        }
                        CacheOp::Invalidate { line } => {
                            prop_assert_eq!(
                                fast.invalidate(line),
                                re.invalidate(line),
                                "invalidate diverged at step {}", step
                            );
                        }
                    }
                    prop_assert_eq!(fast.occupancy(), re.occupancy());
                }
                for line in 0..48 {
                    prop_assert_eq!(fast.contains(line), re.contains(line));
                }
            }
        }

        proptest! {
            /// The most recently installed/accessed line in a set is never
            /// the next victim when the set is full (LRU property).
            #[test]
            fn mru_survives(lines in proptest::collection::vec(0u64..64, 1..200)) {
                let mut c = tiny();
                let mut last: Option<u64> = None;
                for &l in &lines {
                    if let Lookup::Miss = c.access(l, false) {
                        c.install(l, false, 0);
                    }
                    if let Some(prev) = last {
                        // The line touched immediately before this op must
                        // still be resident: with ≥2 ways one access can
                        // evict at most the LRU way.
                        prop_assert!(c.contains(prev), "line {prev} evicted while MRU");
                    }
                    last = Some(l);
                }
            }

            /// Occupancy never exceeds capacity and never shrinks.
            #[test]
            fn occupancy_monotone_bounded(lines in proptest::collection::vec(0u64..1024, 1..300)) {
                let mut c = tiny();
                let mut prev = 0;
                for &l in &lines {
                    if let Lookup::Miss = c.access(l, false) {
                        c.install(l, false, 0);
                    }
                    let occ = c.occupancy();
                    prop_assert!(occ <= 8);
                    prop_assert!(occ >= prev);
                    prev = occ;
                }
            }

            /// Accessing a working set no larger than one set's ways never
            /// misses after the cold pass (conflict-freedom within a set).
            #[test]
            fn small_working_set_no_capacity_misses(reps in 1usize..20) {
                let mut c = tiny();
                let ws = [0u64, 4]; // same set, exactly `ways` lines
                for &l in &ws {
                    prop_assert_eq!(c.access(l, false), Lookup::Miss);
                    c.install(l, false, 0);
                }
                for _ in 0..reps {
                    for &l in &ws {
                        let hit = matches!(c.access(l, false), Lookup::Hit { .. });
                        prop_assert!(hit);
                    }
                }
            }
        }
    }
}
