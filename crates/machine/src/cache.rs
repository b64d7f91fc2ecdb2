//! A generic set-associative, LRU, write-back cache model used for the L1
//! data cache (configured write-through by the engine) and the private L2.
//!
//! Lines carry a `ready_at` tick so that in-flight fills (demand misses and
//! prefetches) can be installed immediately while later accesses that hit
//! them still observe the remaining fill latency — this is how partial
//! prefetch coverage shows up in the model.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::config::{CacheGeometry, MachineConfig};
use crate::memo::Chunk;

/// Internal tag encoding: a stored tag is `line + 1`, so an all-zero array
/// already means "every way empty". A machine is built per simulated run;
/// its caches take their big arrays zeroed from [`Spares`], and a fresh
/// `vec![0; n]` is calloc's memset and a fault on every page once the heap
/// has been trimmed, which is every machine after a process's first.
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
    /// One bit for each of up to 64 equal runs of sets (`1 << region_shift`
    /// sets each): set when an install or restore writes a set of the run.
    /// Every non-zero word of the arrays lies in a marked run, so
    /// [`Self::clear`] zeroes those alone.
    touched: u64,
    region_shift: u32,
}

impl SetAssoc {
    pub fn new(geom: CacheGeometry) -> Self {
        let sets = geom.sets();
        assert!(sets.is_power_of_two(), "cache sets must be a power of two");
        // A canon counts a set's lines in a byte, and its sets in 32 bits.
        assert!(geom.ways <= 255, "more than 255 ways");
        assert!(sets as u64 <= 1 << 32, "more than 2^32 sets");
        assert!(
            geom.line.is_power_of_two(),
            "line size must be a power of two"
        );
        let n = sets * geom.ways;
        let [tags, stamp, ready] = Spares::take(n);
        Self {
            sets,
            ways: geom.ways,
            line_shift: geom.line.trailing_zeros(),
            tags,
            stamp,
            dirty: vec![false; n],
            ready,
            clock: 0,
            mru_way: vec![0; sets],
            touched: 0,
            region_shift: sets.trailing_zeros().saturating_sub(6),
        }
    }

    /// Mark the run of sets holding `set` as written.
    #[inline(always)]
    fn touch(&mut self, set: usize) {
        self.touched |= 1 << (set >> self.region_shift);
    }

    /// Zero the runs of sets written since the last clear: the structure is
    /// again as [`Self::new`] built it.
    fn clear(&mut self) {
        let sets = 1 << self.region_shift;
        let mut runs = std::mem::take(&mut self.touched);
        while runs != 0 {
            let first = runs.trailing_zeros() as usize * sets;
            runs &= runs - 1;
            let ways = first * self.ways..(first + sets) * self.ways;
            self.tags[ways.clone()].fill(EMPTY);
            self.stamp[ways.clone()].fill(0);
            self.dirty[ways.clone()].fill(false);
            self.ready[ways].fill(0);
            self.mru_way[first..first + sets].fill(0); // prediction state is free
        }
        self.clock = 0;
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
        self.touch(set);
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
    /// a chunk with nothing resident is left out; each chunk is packed
    /// ([`pack`]) as a function of its lines alone, so canon equality is
    /// line equality.
    pub(crate) fn canon(&self, base: u64) -> SetAssocCanon {
        // Never accessed (the idle cores of a narrow run, every structure
        // of the pristine machine): nothing is resident, so nothing is
        // walked.
        if self.clock == 0 {
            return SetAssocCanon::default();
        }
        let set_bits = self.sets.trailing_zeros();
        let chunk_sets = CHUNK_SETS.min(self.sets);
        let mut chunks = Vec::new();
        let mut inflight = Vec::new();
        let mut counts = Vec::with_capacity(chunk_sets);
        let mut lines = Vec::new(); // (hi, dirty): see `pack`
        let mut before = 0; // lines in the chunks already cut
        let mut order: Vec<usize> = Vec::with_capacity(self.ways);
        for first_set in (0..self.sets).step_by(chunk_sets) {
            counts.clear();
            for set in first_set..first_set + chunk_sets {
                let first = set * self.ways;
                order.clear();
                order.extend((first..first + self.ways).filter(|&i| self.tags[i] != EMPTY));
                order.sort_by_key(|&i| self.stamp[i]);
                counts.push(order.len() as u8);
                for &i in &order {
                    if self.ready[i] > base {
                        inflight.push(((before + lines.len()) as u32, self.ready[i] - base));
                    }
                    lines.push(((self.tags[i] - 1) >> set_bits, self.dirty[i]));
                }
            }
            if !lines.is_empty() {
                before += lines.len();
                chunks.push(Chunk::new(pack(first_set, &counts, &lines)));
                lines.clear();
            }
        }
        SetAssocCanon { chunks, inflight }
    }

    /// Install canonical state `c` re-anchored at boundary clock `base`.
    /// Lines land in each set's first ways, oldest first — one definite
    /// representative of the way-permutation equivalence class.
    pub(crate) fn restore(&mut self, c: &SetAssocCanon, base: u64) {
        // Only runs of sets written since the arrays were last zero are
        // cleared: none in a machine built at a memo miss and restored into
        // at once, so no page of it is touched beyond the lines below.
        self.clear();
        let set_bits = self.sets.trailing_zeros();
        let mut inflight = c.inflight.iter().peekable();
        let mut n = 0;
        for k in &c.chunks {
            unpack(k, CHUNK_SETS.min(self.sets), |set, way, hi, dirty| {
                self.touch(set);
                let i = set * self.ways + way;
                self.tags[i] = enc(hi << set_bits | set as u64);
                // Recency rank as the stamp: 1..=k oldest → newest.
                self.stamp[i] = (way + 1) as u64;
                self.dirty[i] = dirty;
                self.ready[i] = inflight
                    .next_if(|&&(at, _)| at == n)
                    .map_or(0, |&(_, off)| base + off);
                n += 1;
            });
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

impl Drop for SetAssoc {
    /// Hand the `u64` arrays, zeroed again, to the next cache.
    fn drop(&mut self) {
        self.clear();
        let take = std::mem::take;
        Spares::give([
            take(&mut self.tags),
            take(&mut self.stamp),
            take(&mut self.ready),
        ]);
    }
}

/// The zeroed `u64` arrays of dropped caches, oldest first, shared by every
/// thread: a new cache takes three of its length, and allocates only what
/// is not there. Held to [`spare_cap`] bytes by letting the oldest go.
struct Spares {
    arrays: VecDeque<Vec<u64>>,
    bytes: usize,
    /// The most `bytes` ever held, for the tests.
    peak: usize,
}

static SPARES: Mutex<Spares> = Mutex::new(Spares {
    arrays: VecDeque::new(),
    bytes: 0,
    peak: 0,
});

impl Spares {
    /// The list, even after a panic elsewhere: `Drop` must not panic, and
    /// no update can leave it half done (nothing between a byte count and
    /// its push or remove can panic).
    fn lock() -> std::sync::MutexGuard<'static, Spares> {
        SPARES.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Three all-zero arrays of `n` words, the latest spares of that length
    /// first (`machine.sim.arrays_recycled` counts those).
    fn take(n: usize) -> [Vec<u64>; 3] {
        static RECYCLED: paxsim_obs::LazyCounter =
            paxsim_obs::LazyCounter::new("machine.sim.arrays_recycled");
        let spare: [Option<Vec<u64>>; 3] = {
            let mut s = Self::lock();
            std::array::from_fn(|_| {
                let i = s.arrays.iter().rposition(|a| a.len() == n)?;
                s.bytes -= n * 8;
                s.arrays.remove(i)
            })
        };
        RECYCLED.add(spare.iter().flatten().count() as u64);
        spare.map(|a| a.unwrap_or_else(|| vec![0; n]))
    }

    /// Keep `arrays`, each all zero, letting the oldest go past the cap.
    fn give(arrays: [Vec<u64>; 3]) {
        let cap = spare_cap();
        let mut s = Self::lock();
        for a in arrays {
            s.bytes += a.len() * 8;
            s.arrays.push_back(a);
        }
        while s.bytes > cap {
            let old = s.arrays.pop_front().expect("bytes are held in arrays");
            s.bytes -= old.len() * 8;
        }
        s.peak = s.peak.max(s.bytes);
    }
}

/// The bytes of spare arrays kept: the structures of as many machines of
/// the largest size [`MachineConfig::check_geometry`] admits as the host
/// runs threads at once.
#[doc(hidden)]
pub fn spare_cap() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        threads.saturating_mul(MachineConfig::MAX_STRUCTURE_BYTES as usize)
    })
}

/// The most bytes of spare arrays held at once so far.
#[doc(hidden)]
pub fn spare_peak() -> usize {
    Spares::lock().peak
}

/// Consecutive sets per [`SetAssocCanon`] chunk: a region that touched a
/// few sets leaves the other chunks of a 4 096-set L2 equal to, and once
/// interned shared with, the previous snapshot's.
const CHUNK_SETS: usize = 64;

/// Header words of a packed chunk: its least `hi`, then its first set,
/// line count and field width.
const HEAD: usize = 2;

/// Pack one chunk's lines, given as (`hi`, dirty) in (set, recency) order
/// with `counts` lines per set from `first_set` on, `hi` being the tag
/// bits above the set index: the [`HEAD`] words, one count byte per set
/// (eight to a word), then one `(hi − lo) << 1 | dirty` field per line,
/// least significant bit first, `lo` being the least `hi` and the field
/// as narrow as the chunk's range of `hi` allows. Trailing bits are zero.
fn pack(first_set: usize, counts: &[u8], lines: &[(u64, bool)]) -> Box<[u64]> {
    let (lo, hi) = lines
        .iter()
        .fold((u64::MAX, 0), |(lo, hi), &(h, _)| (lo.min(h), hi.max(h)));
    let bits = 65 - (hi - lo).leading_zeros();
    let stream = (lines.len() * bits as usize).div_ceil(64);
    let mut words = Vec::with_capacity(HEAD + counts.len().div_ceil(8) + stream);
    words.push(lo);
    words.push((first_set as u64) << 32 | (lines.len() as u64) << 8 | bits as u64);
    words.extend(counts.chunks(8).map(|q| {
        let mut b = [0; 8];
        b[..q.len()].copy_from_slice(q);
        u64::from_le_bytes(b)
    }));
    let (mut acc, mut have) = (0u128, 0);
    for &(h, dirty) in lines {
        acc |= (((h - lo) as u128) << 1 | dirty as u128) << have;
        have += bits;
        while have >= 64 {
            words.push(acc as u64);
            (acc, have) = (acc >> 64, have - 64);
        }
    }
    if have > 0 {
        words.push(acc as u64);
    }
    words.into_boxed_slice()
}

/// A [`pack`]ed chunk's first set, line count and field width.
fn head(words: &[u64]) -> (usize, usize, u32) {
    let w = words[1];
    (
        (w >> 32) as usize,
        (w >> 8 & 0xff_ffff) as usize,
        w as u32 & 0xff,
    )
}

/// Call `line(set, way, hi, dirty)` for each line of a chunk [`pack`]ed
/// from `sets` sets, in the order packed.
fn unpack(words: &[u64], sets: usize, mut line: impl FnMut(usize, usize, u64, bool)) {
    let (lo, (first_set, _, bits)) = (words[0], head(words));
    let (counts, stream) = words[HEAD..].split_at(sets.div_ceil(8));
    let mask = (1u128 << bits) - 1;
    let mut at = 0; // bit offset of the next field
    for s in 0..sets {
        for way in 0..(counts[s / 8] >> (s % 8 * 8)) as u8 as usize {
            let next = stream.get(at / 64 + 1).map_or(0, |&w| w as u128);
            let field = (stream[at / 64] as u128 | next << 64) >> (at % 64) & mask;
            at += bits as usize;
            line(first_set + s, way, lo + (field >> 1) as u64, field & 1 != 0);
        }
    }
}

/// See [`SetAssoc::canon`]. What is resident is kept apart from what is
/// still in flight, so the same state seen later ([`SetAssocCanon::aged`])
/// shares the resident part and rewrites only the handful of fills that
/// were still under way.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub(crate) struct SetAssocCanon {
    /// Occupied lines in (set, recency) order, [`CHUNK_SETS`] sets to a
    /// chunk, chunks with no line left out, each [`pack`]ed: per line, its
    /// tag above the set index (less the chunk's least) and dirty flag.
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

    /// Resident lines, read from the chunks' headers.
    #[cfg(test)]
    pub(crate) fn lines(&self) -> usize {
        self.chunks.iter().map(|k| head(k).1).sum()
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
    use crate::branch::Gshare;
    use crate::config::{CacheGeometry, MachineConfig};
    use crate::memo::{Meter, Pool};
    use crate::op::{tag_address, ADDR_LIMIT};
    use std::collections::HashSet;

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

    /// A warmed L2's lines cost at most two bytes each in its canon, over
    /// a fixed header per chunk, and a predictor's counters a quarter of a
    /// byte each. The streams are CG-shaped (matrix rows, a gathered
    /// vector, a result array) in one address space.
    #[test]
    fn a_warmed_canon_costs_at_most_two_bytes_a_line() {
        let mut l2 = SetAssoc::new(MachineConfig::paxville_smp().l2);
        let mut touch = |addr: u64, write: bool| {
            let line = l2.line_of(tag_address(1, addr));
            if l2.access(line, write) == Lookup::Miss {
                l2.install(line, write, 0);
            }
        };
        for row in 0..1_400u64 {
            for nz in 0..8 {
                touch(0x10_0000 + (row * 8 + nz) * 8, false);
                touch(0x80_0000 + (row * 37 + nz * 211) % 1_400 * 8, false);
            }
            touch(0xc0_0000 + row * 8, true);
        }
        let c = l2.canon(0);
        assert_eq!(c.lines(), l2.occupancy());
        assert!(c.lines() > 1_024, "warmed: {} lines", c.lines());
        let overhead = Chunk::<u64>::new(Box::new([])).footprint();
        let header = overhead + 8 * (HEAD + CHUNK_SETS / 8);
        let bytes: usize = c.chunks.iter().map(|k| k.footprint()).sum();
        let bound = 2 * c.lines() + header * c.chunks.len();
        assert!(bytes <= bound, "{bytes} B for {} lines", c.lines());

        let mut bp = Gshare::new(14, 12);
        for i in 0..10_000u64 {
            bp.execute(0, i % 97, i % 3 != 0);
        }
        let counters = bp.canon().heap_bytes(&mut HashSet::new());
        let overhead = Chunk::<u8>::new(Box::new([])).footprint();
        assert!(counters <= 4 * 1_024 + overhead, "{counters} B");
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
    fn a_geometry_counts_the_bytes_its_cache_holds() {
        for geom in [
            CacheGeometry::new(512, 2, 64),
            CacheGeometry::new(64, 4, 1),
            MachineConfig::paxville_smp().l2,
        ] {
            let c = SetAssoc::new(geom);
            let held = size_of_val(&*c.tags)
                + size_of_val(&*c.stamp)
                + size_of_val(&*c.dirty)
                + size_of_val(&*c.ready)
                + size_of_val(&*c.mru_way);
            assert_eq!(held as u64, geom.structure_bytes(), "{geom:?}");
        }
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

        /// A cache of `sets` × `ways` 64-byte lines.
        fn geometry(sets: usize, ways: usize) -> CacheGeometry {
            CacheGeometry::new(sets * ways * 64, ways, 64)
        }

        /// Apply `op` to lines `pool[op's index]`, returning what a consumer
        /// at a clock ≥ `base` observes: a hit's fill offset past `base`.
        fn apply(c: &mut SetAssoc, pool: &[u64], op: CacheOp, base: u64) -> String {
            match op {
                CacheOp::Access { line, write } => match c.access(pool[line as usize], write) {
                    Lookup::Hit { ready_at } => format!("hit +{}", ready_at.saturating_sub(base)),
                    Lookup::Miss => "miss".into(),
                },
                CacheOp::Install { line, dirty, ready } => {
                    format!("{:?}", c.install(pool[line as usize], dirty, base + ready))
                }
                CacheOp::Invalidate { line } => format!("{:?}", c.invalidate(pool[line as usize])),
            }
        }

        /// `canon(restore(canon(a)))` is `canon(a)`, onto a fresh and onto
        /// a used structure, and `after` plays out on the restored copies
        /// as on `a`.
        fn roundtrip(
            a: &mut SetAssoc,
            geom: CacheGeometry,
            pool: &[u64],
            base: u64,
            after: &[CacheOp],
        ) {
            let canon = a.canon(base);
            prop_assert_eq!(canon.lines(), a.occupancy());
            let mut fresh = SetAssoc::new(geom);
            fresh.restore(&canon, base);
            prop_assert_eq!(&fresh.canon(base), &canon);
            let mut used = SetAssoc::new(geom);
            used.install(pool[0] + 1, true, base + 7);
            used.restore(&canon, base);
            prop_assert_eq!(&used.canon(base), &canon);
            for (step, &op) in after.iter().enumerate() {
                let want = apply(a, pool, op, base);
                prop_assert_eq!(&apply(&mut fresh, pool, op, base), &want, "step {}", step);
                prop_assert_eq!(&apply(&mut used, pool, op, base), &want, "step {}", step);
            }
            prop_assert_eq!(fresh.canon(base), a.canon(base));
        }

        proptest! {
            /// A packed canon restores to a cache that canonicalizes to it
            /// again and behaves as the original under any later access
            /// sequence: dirty lines, in-flight fills and empty sets between
            /// full ones, in 1 to 4 096 sets of 1 to 16 ways, with tag bits
            /// above the set index spanning anything from one value
            /// (`span` 0) to the whole ASID-tagged address space.
            #[test]
            fn packed_canon_roundtrips(
                shape in (0u32..=12, 1usize..=16, 0u32..=58, 0u64..=u64::MAX),
                draws in proptest::collection::vec((0u64..4, 0u64..=u64::MAX), 47),
                before in proptest::collection::vec(cache_op(), 1..300),
                after in proptest::collection::vec(cache_op(), 0..100),
                base in 0u64..1_000,
            ) {
                let (set_bits, ways, span, seed) = shape;
                let top = tag_address(255, ADDR_LIMIT - 1) >> 6 >> set_bits;
                let range = if span >= 64 - top.leading_zeros() { top } else { (1 << span) - 1 };
                let lo = seed % (top - range + 1);
                // Four sets with empty ones between them, when there are more.
                let line = |(set, off): (u64, u64)| {
                    (lo + off % (range + 1)) << set_bits | (set * 37) & ((1 << set_bits) - 1)
                };
                let mut pool: Vec<u64> = draws.into_iter().map(line).collect();
                pool.push(lo << set_bits); // the range's least, in set 0
                let geom = geometry(1 << set_bits, ways);
                let mut a = SetAssoc::new(geom);
                for &op in &before {
                    apply(&mut a, &pool, op, 0);
                }
                roundtrip(&mut a, geom, &pool, base, &after);
            }
        }

        /// The width edge: a chunk whose `hi` range is exactly a power of
        /// two needs one more bit than the range less one — at 2^63, a
        /// field of 65 bits, more than a word.
        #[test]
        fn a_power_of_two_range_roundtrips() {
            let after = [
                CacheOp::Access {
                    line: 1,
                    write: true,
                },
                CacheOp::Install {
                    line: 2,
                    dirty: true,
                    ready: 5,
                },
                CacheOp::Invalidate { line: 0 },
                CacheOp::Access {
                    line: 0,
                    write: false,
                },
            ];
            let lo = 0x3_0000u64;
            for k in [0, 1, 6, 31, 32, 56] {
                let geom = geometry(64, 4);
                let pool = [lo << 6 | 5, (lo + (1 << k)) << 6 | 5, (lo + 1) << 6 | 9];
                let mut a = SetAssoc::new(geom);
                a.install(pool[0], true, 0);
                a.install(pool[1], false, 800);
                a.install(pool[2], false, 0);
                assert_eq!(head(&a.canon(300).chunks[0]).2, k + 2, "2^{k}");
                roundtrip(&mut a, geom, &pool, 300, &after);
            }
            // One set: `hi` is the line, and a range of 2^63 needs fields of
            // 65 bits — more than one word's worth, over 64 lines.
            let geom = geometry(1, 200);
            let pool: Vec<u64> = (0..150).map(|i| lo + i + ((i % 2) << 63)).collect();
            let mut a = SetAssoc::new(geom);
            for (i, &line) in pool.iter().enumerate() {
                a.install(line, i % 3 == 0, 0);
            }
            assert_eq!(head(&a.canon(300).chunks[0]).2, 65);
            roundtrip(&mut a, geom, &pool, 300, &after);
        }

        proptest! {
            /// A dropped cache leaves its arrays zero: after any sequence of
            /// accesses, installs, invalidations and restores (`None`: of
            /// the state at the previous `None`), the next cache of
            /// its geometry is the one `new` would allocate, field for
            /// field, and canonicalizes as never accessed.
            #[test]
            fn a_recycled_cache_is_a_new_one(
                shape in (0u32..=12, 1usize..=16),
                ops in proptest::collection::vec(prop_oneof![cache_op().prop_map(Some), Just(None)], 1..300),
            ) {
                let geom = geometry(1 << shape.0, shape.1);
                let mut c = SetAssoc::new(geom);
                let mut canon = SetAssocCanon::default();
                // Lines 131 apart, so the workload spans many sets.
                let pool: Vec<u64> = (0..48).map(|l| l * 131 + 5).collect();
                for (step, op) in ops.into_iter().enumerate() {
                    match op {
                        Some(op) => drop(apply(&mut c, &pool, op, 0)),
                        None => {
                            let now = c.canon(step as u64);
                            c.restore(&canon, step as u64);
                            canon = now;
                        }
                    }
                }
                drop(c);
                let (n, sets) = (geom.sets() * geom.ways, geom.sets());
                let c = SetAssoc::new(geom);
                prop_assert_eq!((c.sets, c.ways, c.line_shift), (sets, geom.ways, 6));
                prop_assert_eq!(&c.tags, &vec![EMPTY; n]);
                prop_assert_eq!(&c.stamp, &vec![0; n]);
                prop_assert_eq!(&c.dirty, &vec![false; n]);
                prop_assert_eq!(&c.ready, &vec![0; n]);
                prop_assert_eq!(&c.mru_way, &vec![0; sets]);
                prop_assert_eq!((c.clock, c.touched), (0, 0));
                prop_assert_eq!(c.region_shift, (shape.0).saturating_sub(6));
                prop_assert_eq!(c.canon(0), SetAssocCanon::default());
            }

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
