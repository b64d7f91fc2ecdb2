//! Region-boundary memoization: a [`Memo`] handle holds a table of
//! interned canonical machine snapshots and the region executions between
//! them. Clones share one table; `simulate` uses [`PROCESS`], and
//! `simulate_in` takes any memo or none.
//!
//! The simulator is deterministic, so one region of a job whose whole team
//! starts it at one common clock — a jitter-free job, or a one-context job
//! under any jitter — is a pure function of (region trace, replay-relevant
//! machine state at the region's start) — up to a *time translation*,
//! because every engine timing rule is expressed through
//! `max`/`saturating_sub`/`+` against clocks ≥ that start clock `base`.
//! The engine therefore snapshots a *canonical* machine state at a
//! boundary (absolute ticks → offsets from `base`, absolute LRU stamps →
//! ranks; each structure documents next to its `canon()` why that loses
//! nothing a replay could observe) and replays the recorded cycle and
//! counter deltas of an earlier execution of the same interned region from
//! the same canonical state.
//!
//! * **Interner.** [`Memo::intern`] deduplicates snapshots: a 64-bit
//!   content hash selects a bucket, full `MachineSnap` equality decides.
//!   Two live `Arc<Snap>`s of one memo are thus one pointer exactly when
//!   canonically equal, and a hit can never be a hash collision. Under the
//!   same lock it first interns the snapshot's [`Chunk`]s the same way —
//!   the lines of each run of 64 cache sets, each core's predictor table —
//!   so snapshots a region changed in a few sets share everything else,
//!   and equal chunks compare at the pointer. The interner holds `Weak`s,
//!   so a snapshot dies with its last edge and a chunk with its last
//!   snapshot.
//! * **Edges.** [`Memo::record`] stores `(run context, region, pre, base
//!   class) → (post, Δt, Δcounters)`; [`Memo::probe`] is one map lookup
//!   under a short lock, whichever `simulate_in` call on the memo recorded
//!   the edge. The run context is an id for (machine config, team
//!   placement). An edge holds its region and its `pre`, so neither
//!   address in its key can be recycled — and pins both until the edge or
//!   the memo goes; a run whose trace nobody else holds, none of whose
//!   regions repeats, could never be answered again, so it records none.
//! * **Run contexts.** [`Memo::run_context`] keeps the most recently used
//!   few and pins, for each, the snapshot of its *pristine* machine — one
//!   canonical state whatever the clock and the placement — so a run's
//!   first boundary has a pre-state without a machine to take it from,
//!   and a run the memo answers in full never builds one.
//! * **Ageing.** A jittered context starts its region `j` ticks after the
//!   barrier released it. With one context nothing executes anywhere on
//!   the machine in between, so the state the region starts from is the
//!   release state seen `j` ticks later: [`MachineSnap::aged`] subtracts
//!   `j` from every offset (those reaching 0 settle) and holds its
//!   source's chunks, so `snapshot(m, t).aged(j) ==
//!   snapshot(m, t + j)` without touching the machine. A state with
//!   nothing in flight is its own aged image, which is why different
//!   seeds and never-seen jitter magnitudes reconverge on the same
//!   snapshots: a draw usually outlasts what a barrier leaves in flight.
//!   With two or more contexts the others run during the offset, so such
//!   jobs are not memoized under jitter.
//! * **Absolute-base edges.** One rule is not translation-covariant: the
//!   FP window clamp `fp_queue.min(start + cost)` reads absolute time
//!   below `fp_queue` ticks. A boundary with `base < fp_queue` is keyed by
//!   `Some(base)` and replays only there, untranslated — exact by
//!   determinism alone. All later boundaries share the key `None`.
//! * **Byte budget.** [`Memo::bytes`] is what the memo holds, each shared
//!   chunk counted once: a chunk (bit-packed: a line in a few bits, a
//!   counter in two) is charged when first interned, a snapshot
//!   the rest — eight bytes per word the hasher mixes (a vector's
//!   elements, each padded to its stored word; a chunk, one pointer) plus
//!   the inline structs. Each holds its memo's meter and gives the bytes
//!   back when its last holder drops it, inside the memo or not. Above
//!   the budget the least recently hit edges go, the candidates ordered
//!   once per burst. What remains is still exact, so eviction can cost
//!   future hits but never change a result.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, Weak};

use serde::{Deserialize, Serialize};

use crate::branch::GshareCanon;
use crate::cache::SetAssocCanon;
use crate::config::MachineConfig;
use crate::counters::Counters;
use crate::prefetch::PrefetcherCanon;
use crate::tlb::TlbCanon;
use crate::topology::Lcpu;
use crate::trace::RegionTrace;
use crate::trace_cache::TraceCacheCanon;

/// Memoization telemetry for one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoStats {
    /// Region executions driven by the memoizing scheduler.
    pub regions: u64,
    /// Region boundaries at which the table was probed (all of them).
    pub probes: u64,
    /// Probes answered from the memo table (region not re-simulated).
    pub hits: u64,
}

impl MemoStats {
    /// Fraction of probes answered from the table (0 when never probed —
    /// the reference engine, multi-job runs, jittered runs of two or more
    /// contexts, runs no later run can repeat).
    pub fn hit_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.hits as f64 / self.probes as f64
        }
    }
}

/// Canonical replay-relevant state of one core at a region boundary.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CoreSnap {
    pub issue_off: u64,
    pub fp_off: u64,
    pub l1d: SetAssocCanon,
    pub l2: SetAssocCanon,
    pub tc: TraceCacheCanon,
    pub itlb: TlbCanon,
    pub dtlb: TlbCanon,
    pub bp: GshareCanon,
    pub pf: PrefetcherCanon,
    pub last_line: u64,
    pub last_ready_off: u64,
    pub last_was_store: bool,
}

impl CoreSnap {
    fn aged(&self, j: u64) -> Self {
        Self {
            issue_off: self.issue_off.saturating_sub(j),
            fp_off: self.fp_off.saturating_sub(j),
            l1d: self.l1d.aged(j),
            l2: self.l2.aged(j),
            last_ready_off: self.last_ready_off.saturating_sub(j),
            // Time-free — or, the TLBs, never in flight.
            tc: self.tc.clone(),
            itlb: self.itlb.clone(),
            dtlb: self.dtlb.clone(),
            bp: self.bp.clone(),
            pf: self.pf.clone(),
            last_line: self.last_line,
            last_was_store: self.last_was_store,
        }
    }

    fn settled(&self) -> bool {
        self.issue_off == 0
            && self.fp_off == 0
            && self.last_ready_off == 0
            && self.l1d.settled()
            && self.l2.settled()
    }
}

/// Canonical replay-relevant state of the whole machine. Covers *all*
/// cores, buses and the memory controller — not just the job's placement:
/// stores invalidate remote caches and every transaction shares the
/// controller, so remote state is replay-relevant too.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub(crate) struct MachineSnap {
    pub cores: Vec<CoreSnap>,
    /// Chip-shared L3 canons (empty on topologies without an L3).
    pub l3s: Vec<SetAssocCanon>,
    pub fsb_offs: Vec<u64>,
    pub mem_off: u64,
}

impl MachineSnap {
    /// The canonical state of the same machine `j` ticks later with nothing
    /// run in between: `snapshot(m, t).aged(j) == snapshot(m, t + j)`.
    pub(crate) fn aged(&self, j: u64) -> Self {
        Self {
            cores: self.cores.iter().map(|c| c.aged(j)).collect(),
            l3s: self.l3s.iter().map(|l| l.aged(j)).collect(),
            fsb_offs: self.fsb_offs.iter().map(|o| o.saturating_sub(j)).collect(),
            mem_off: self.mem_off.saturating_sub(j),
        }
    }

    /// Visit every chunk the state holds: the lines of each cache and TLB,
    /// and each core's predictor table.
    pub(crate) fn chunks_mut(
        &mut self,
        mut lines: impl FnMut(&mut Arc<Chunk<u64>>),
        mut pht: impl FnMut(&mut Arc<Chunk<u8>>),
    ) {
        for c in &mut self.cores {
            let caches = c.l1d.chunks_mut().chain(c.l2.chunks_mut());
            let tlbs = c.itlb.chunks_mut().chain(c.dtlb.chunks_mut());
            caches.chain(tlbs).for_each(&mut lines);
            pht(c.bp.pht_mut());
        }
        self.l3s
            .iter_mut()
            .flat_map(SetAssocCanon::chunks_mut)
            .for_each(lines);
    }

    /// Is nothing in flight, i.e. is this state its own aged image?
    pub(crate) fn settled(&self) -> bool {
        self.mem_off == 0
            && self.fsb_offs.iter().all(|&o| o == 0)
            && self.cores.iter().all(CoreSnap::settled)
            && self.l3s.iter().all(SetAssocCanon::settled)
    }

    /// Heap bytes an interned copy of this state holds, counted from the
    /// containers themselves, with a chunk already in `seen` counted no
    /// more — what the meter must never under-state.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self, seen: &mut std::collections::HashSet<usize>) -> usize {
        let mut core = |c: &CoreSnap| {
            c.l1d.heap_bytes(seen)
                + c.l2.heap_bytes(seen)
                + c.tc.heap_bytes()
                + c.itlb.heap_bytes(seen)
                + c.dtlb.heap_bytes(seen)
                + c.bp.heap_bytes(seen)
                + c.pf.heap_bytes()
        };
        let cores: usize = self.cores.iter().map(&mut core).sum();
        2 * size_of::<usize>()
            + size_of::<Snap>()
            + size_of_val(&*self.cores)
            + cores
            + size_of_val(&*self.l3s)
            + self.l3s.iter().map(|l| l.heap_bytes(seen)).sum::<usize>()
            + size_of_val(&*self.fsb_offs)
    }
}

/// Bytes of a memo's live interned snapshots and chunks, held by each of
/// them so it gives its bytes back wherever it drops.
pub(crate) type Meter = Arc<AtomicUsize>;

/// An interned snapshot (only [`Memo::intern`] makes one).
pub(crate) struct Snap {
    pub state: MachineSnap,
    bytes: usize,
    meter: Meter,
}

impl Drop for Snap {
    fn drop(&mut self) {
        self.meter.fetch_sub(self.bytes, Relaxed);
    }
}

/// A run of snapshot state that many snapshots hold at once: the lines of
/// a fixed run of consecutive cache sets, or a core's predictor table.
/// [`Memo::intern`] keeps one live `Arc` per content and charges it to the
/// memo's meter once; the last holder to drop it gives the bytes back.
#[derive(Debug)]
pub(crate) struct Chunk<T> {
    data: Box<[T]>,
    /// Content hash: what a snapshot's hash mixes in place of the data.
    hash: u64,
    /// The meter of the memo that interned it (charged its footprint).
    meter: Option<Meter>,
}

impl<T: Hash> Chunk<T> {
    pub(crate) fn new(data: Box<[T]>) -> Arc<Self> {
        let mut h = WordHasher::default();
        data.hash(&mut h);
        Arc::new(Self {
            data,
            hash: h.hash,
            meter: None,
        })
    }
}

impl<T> Chunk<T> {
    /// Heap bytes one interned copy holds: the `Arc`'s counts, the struct
    /// and its data.
    pub(crate) fn footprint(&self) -> usize {
        2 * size_of::<usize>() + size_of::<Self>() + size_of_val(&*self.data)
    }

    /// Bytes charged to a meter: 0 until interned.
    #[cfg(test)]
    fn charged(&self) -> usize {
        self.meter.as_ref().map_or(0, |_| self.footprint())
    }
}

impl<T> std::ops::Deref for Chunk<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<T: PartialEq> PartialEq for Chunk<T> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.data == other.data
    }
}

impl<T: Eq> Eq for Chunk<T> {}

impl<T> Hash for Chunk<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl<T> Drop for Chunk<T> {
    fn drop(&mut self) {
        if let Some(meter) = &self.meter {
            meter.fetch_sub(self.footprint(), Relaxed);
        }
    }
}

/// Interned values by content hash. It holds `Weak`s, so it never keeps a
/// value alive; dead members fail to upgrade until [`Pool::prune`].
pub(crate) struct Pool<T>(HashMap<u64, Vec<Weak<T>>>);

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Self(HashMap::new())
    }
}

impl<T> Pool<T> {
    /// The live member of bucket `hash` that `same` accepts.
    fn find(&self, hash: u64, same: impl Fn(&T) -> bool) -> Option<Arc<T>> {
        let bucket = self.0.get(&hash)?;
        bucket.iter().filter_map(Weak::upgrade).find(|p| same(p))
    }

    fn insert(&mut self, hash: u64, p: &Arc<T>) {
        self.0.entry(hash).or_default().push(Arc::downgrade(p));
    }

    fn prune(&mut self) {
        self.0.retain(|_, bucket| {
            bucket.retain(|w| w.strong_count() > 0);
            !bucket.is_empty()
        });
    }

    fn live(&self) -> usize {
        self.0
            .values()
            .flatten()
            .filter(|w| w.strong_count() > 0)
            .count()
    }
}

impl<T: Clone + Hash + PartialEq> Pool<Chunk<T>> {
    /// Replace `c` by the live interned chunk equal to it, or intern and
    /// charge `c` itself to `meter` when there is none.
    pub(crate) fn intern(&mut self, c: &mut Arc<Chunk<T>>, meter: &Meter) {
        if let Some(m) = &c.meter {
            debug_assert!(Arc::ptr_eq(m, meter), "a memo interned another's chunk");
            return; // already interned: an aged image shares its source's
        }
        if let Some(p) = self.find(c.hash, |p| *p == **c) {
            *c = p;
            return;
        }
        if Arc::get_mut(c).is_none() {
            // Shared by a clone of a snapshot nobody interned (tests age
            // one): that copy keeps its own and interns on its own.
            *c = Chunk::new(c.data.clone());
        }
        let fresh = Arc::get_mut(c).expect("a chunk just made is unshared");
        fresh.meter = Some(Arc::clone(meter));
        meter.fetch_add(fresh.footprint(), Relaxed);
        self.insert(c.hash, c);
    }
}

/// Fx-style word hasher that also meters the words it mixes, so one pass
/// over a snapshot yields both its bucket and its size: `derive(Hash)`
/// feeds it one field at a time, and a field narrower than a word (a
/// `bool`, the `u32` of a pair) is padded to one here just as it is padded
/// where it is stored.
#[derive(Default)]
struct WordHasher {
    hash: u64,
    words: usize,
}

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.words += bytes.len().div_ceil(8);
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.hash = (self.hash.rotate_left(5) ^ u64::from_le_bytes(w))
                .wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }
}

/// The bucket hash of `state` and the bytes it is charged besides its
/// chunks, which hash and count as the one pointer each (module docs).
pub(crate) fn measure(state: &MachineSnap) -> (u64, usize) {
    let mut h = WordHasher::default();
    state.hash(&mut h);
    let inline = size_of::<Snap>()
        + state.cores.len() * size_of::<CoreSnap>()
        + state.l3s.len() * size_of::<SetAssocCanon>();
    (h.hash, 8 * h.words + inline)
}

/// What an edge is looked up by; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Key {
    pub run: u64,
    pub region: usize,
    pub pre: usize,
    pub abs_base: Option<u64>,
}

struct Edge {
    /// Held so the addresses in the key stay allocated.
    _region: Arc<RegionTrace>,
    _pre: Arc<Snap>,
    post: Arc<Snap>,
    dt: u64,
    dcounters: Counters,
    /// Table tick of the last record or hit (eviction order).
    used: u64,
}

/// A run context: what, besides region and pre-state, an edge is keyed by.
struct RunCtx {
    /// Never reused, so no edge of a dropped context can answer a later one.
    id: u64,
    cfg: MachineConfig,
    placement: Vec<Lcpu>,
    /// Canonical state of a machine of `cfg` nothing ran on yet — the first
    /// boundary's pre-state, held so a replayed run need not build one.
    pristine: Arc<Snap>,
}

/// Run contexts kept (a study uses one per configuration; the wire's
/// `machine` override lets a peer name any number).
const RUN_CAP: usize = 64;

#[derive(Default)]
struct Table {
    /// The `RUN_CAP` most recently used run contexts, latest last.
    /// `MachineConfig` holds floats, so it is compared, not hashed.
    runs: Vec<RunCtx>,
    next_run: u64,
    snaps: Pool<Snap>,
    /// The cache chunks and predictor tables live snapshots hold.
    lines: Pool<Chunk<u64>>,
    phts: Pool<Chunk<u8>>,
    edges: HashMap<Key, Edge>,
    tick: u64,
    /// What the live snapshots and chunks hold, and the budget for it.
    meter: Meter,
    budget: usize,
}

impl Table {
    /// The id and pristine snapshot of (`cfg`, `placement`), now the most
    /// recently used context.
    fn run(&mut self, cfg: &MachineConfig, placement: &[Lcpu]) -> Option<(u64, Arc<Snap>)> {
        let known = |r: &RunCtx| r.cfg == *cfg && r.placement == placement;
        let at = self.runs.iter().rposition(known)?;
        let found = (self.runs[at].id, Arc::clone(&self.runs[at].pristine));
        self.runs[at..].rotate_left(1);
        Some(found)
    }

    /// The one live `Arc<Snap>` canonically equal to `state`, whose bucket
    /// hash and own bytes are `hash` and `bytes`. Its chunks are swapped
    /// for the interned ones first, so equal snapshots compare equal at
    /// the chunk pointers.
    fn intern(&mut self, hash: u64, bytes: usize, mut state: MachineSnap) -> Arc<Snap> {
        let (lines, phts, meter) = (&mut self.lines, &mut self.phts, &self.meter);
        state.chunks_mut(|k| lines.intern(k, meter), |k| phts.intern(k, meter));
        if let Some(equal) = self.snaps.find(hash, |p| p.state == state) {
            return equal;
        }
        meter.fetch_add(bytes, Relaxed);
        let meter = Arc::clone(meter);
        let p = Arc::new(Snap {
            state,
            bytes,
            meter,
        });
        self.snaps.insert(hash, &p);
        p
    }

    /// Drop edges, least recently used first, for as long as `over` says
    /// the table is over budget; returns how many went. The candidates are
    /// ordered once, however many go.
    fn evict(&mut self, mut over: impl FnMut(&Self) -> bool) -> u64 {
        if !over(self) {
            return 0;
        }
        let mut lru: Vec<(u64, Key)> = self.edges.iter().map(|(k, e)| (e.used, *k)).collect();
        lru.sort_unstable_by_key(|&(used, _)| used);
        let mut evicted = 0;
        for (_, k) in lru {
            self.edges.remove(&k);
            evicted += 1;
            if !over(self) {
                break;
            }
        }
        self.snaps.prune();
        self.lines.prune();
        self.phts.prune();
        evicted
    }
}

/// A region memo: the table the module docs describe, with its byte meter
/// and budget. A clone is another handle on the same table; the table and
/// every edge in it, with the regions the edges pin, go when the last
/// handle does.
#[derive(Clone)]
pub struct Memo(Arc<Mutex<Table>>);

/// The process-default memo, the one [`simulate`](crate::sim::simulate)
/// uses.
pub static PROCESS: LazyLock<Memo> = LazyLock::new(Memo::default);

impl Default for Memo {
    /// A memo held to 512 MiB.
    fn default() -> Self {
        Self::with_budget(512 << 20)
    }
}

impl Memo {
    /// A fresh, empty memo that evicts above `budget` bytes.
    pub fn with_budget(budget: usize) -> Self {
        Self(Arc::new(Mutex::new(Table {
            budget,
            ..Table::default()
        })))
    }

    /// Bytes of the snapshots and chunks this memo interned that are still
    /// alive (see the module docs).
    pub fn bytes(&self) -> usize {
        self.table().meter.load(Relaxed)
    }

    fn table(&self) -> MutexGuard<'_, Table> {
        // Every update is one whole map operation, so the table is valid
        // even if a holder panicked.
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The id of run context (`cfg`, `placement`) and the interned snapshot
    /// of its pristine machine, which `pristine` takes when the context is
    /// new (or was dropped: beyond `RUN_CAP` the least recently used one
    /// goes, with its pin on the snapshot; its edges can no longer be
    /// reached and leave through the byte budget, oldest first).
    pub(crate) fn run_context(
        &self,
        cfg: &MachineConfig,
        placement: &[Lcpu],
        pristine: impl FnOnce() -> MachineSnap,
    ) -> (u64, Arc<Snap>) {
        if let Some(known) = self.table().run(cfg, placement) {
            return known;
        }
        let pristine = self.intern(pristine()); // takes the lock itself
        let mut t = self.table();
        // A concurrent run may have registered the same context meanwhile.
        if let Some(known) = t.run(cfg, placement) {
            return known;
        }
        if t.runs.len() == RUN_CAP {
            t.runs.remove(0);
        }
        let id = t.next_run;
        t.next_run += 1;
        t.runs.push(RunCtx {
            id,
            cfg: cfg.clone(),
            placement: placement.to_vec(),
            pristine: Arc::clone(&pristine),
        });
        (id, pristine)
    }

    /// The one live `Arc<Snap>` of this memo canonically equal to `state`;
    /// its chunks are interned under the same lock.
    pub(crate) fn intern(&self, state: MachineSnap) -> Arc<Snap> {
        let (hash, bytes) = measure(&state);
        self.table().intern(hash, bytes, state)
    }

    /// The interned image of `snap` seen `j` ticks later — `snap` itself
    /// when no time passed or nothing was in flight, so a quiet boundary
    /// and a settled one take no snapshot and hash nothing.
    pub(crate) fn aged(&self, snap: Arc<Snap>, j: u64) -> Arc<Snap> {
        debug_assert!(
            Arc::ptr_eq(&snap.meter, &self.table().meter),
            "a memo never interns another memo's snapshot"
        );
        if j == 0 || snap.state.settled() {
            snap
        } else {
            self.intern(snap.state.aged(j))
        }
    }

    /// The recorded execution under `key`: (post-state, Δt, Δcounters).
    pub(crate) fn probe(&self, key: &Key) -> Option<(Arc<Snap>, u64, Counters)> {
        let mut t = self.table();
        t.tick += 1;
        let now = t.tick;
        let e = t.edges.get_mut(key)?;
        e.used = now;
        Some((Arc::clone(&e.post), e.dt, e.dcounters))
    }

    /// Record that `region`, run from `pre` under `key`, ended in `post`
    /// after `dt` ticks and `dcounters`; then evict down to the budget.
    pub(crate) fn record(
        &self,
        key: Key,
        region: &Arc<RegionTrace>,
        pre: Arc<Snap>,
        post: Arc<Snap>,
        dt: u64,
        dcounters: Counters,
    ) {
        let mut t = self.table();
        t.tick += 1;
        let used = t.tick;
        // A concurrent run may have recorded the same execution already.
        t.edges.entry(key).or_insert(Edge {
            _region: Arc::clone(region),
            _pre: pre,
            post,
            dt,
            dcounters,
            used,
        });
        let evicted = t.evict(|t| t.meter.load(Relaxed) > t.budget);
        if evicted > 0 && paxsim_obs::enabled() {
            paxsim_obs::counter("machine.memo.evictions").add(evicted);
        }
    }

    /// Refresh the scrape-time gauges
    /// `machine.memo.{bytes,edges,snapshots,chunks}` from this memo
    /// (chunks: the cache chunks and predictor tables its live snapshots
    /// share).
    pub fn publish_gauges(&self) {
        let t = self.table();
        let chunks = t.lines.live() + t.phts.live();
        paxsim_obs::gauge("machine.memo.bytes").set(t.meter.load(Relaxed) as f64);
        paxsim_obs::gauge("machine.memo.edges").set(t.edges.len() as f64);
        paxsim_obs::gauge("machine.memo.snapshots").set(t.snaps.live() as f64);
        paxsim_obs::gauge("machine.memo.chunks").set(chunks as f64);
    }
}

/// What the meter holds for `snaps` alone: each one's own bytes, and each
/// chunk they hold once, however many of them hold it.
#[cfg(test)]
pub(crate) fn metered(snaps: &[Arc<Snap>]) -> usize {
    let seen = std::cell::RefCell::new(std::collections::HashSet::new());
    let bytes = std::cell::Cell::new(snaps.iter().map(|s| s.bytes).sum::<usize>());
    let charge = |at: *const (), charged: usize| {
        if seen.borrow_mut().insert(at as usize) {
            assert!(charged > 0, "a snapshot holds only interned chunks");
            bytes.set(bytes.get() + charged);
        }
    };
    for s in snaps {
        let lines = |k: &mut Arc<Chunk<u64>>| charge(Arc::as_ptr(k).cast(), k.charged());
        let pht = |k: &mut Arc<Chunk<u8>>| charge(Arc::as_ptr(k).cast(), k.charged());
        s.state.clone().chunks_mut(lines, pht);
    }
    bytes.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_guards_zero_probes() {
        assert_eq!(MemoStats::default().hit_rate(), 0.0);
        let s = MemoStats {
            regions: 10,
            probes: 8,
            hits: 6,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    /// Over budget, the table drops edges oldest first — exactly the least
    /// recently used ones, however many a burst takes — and not one more.
    #[test]
    fn an_eviction_burst_drops_exactly_the_least_recently_used_edges() {
        let mut t = Table::default();
        let region = Arc::new(RegionTrace::labeled(Vec::new(), "burst"));
        let snap = Arc::new(Snap {
            state: MachineSnap::default(),
            bytes: 0,
            meter: Meter::default(),
        });
        let used = [7u64, 3, 9, 1, 8, 2, 6, 4, 5, 0];
        for (run, &used) in used.iter().enumerate() {
            let key = Key {
                run: run as u64,
                region: 0,
                pre: 0,
                abs_base: None,
            };
            let edge = Edge {
                _region: Arc::clone(&region),
                _pre: Arc::clone(&snap),
                post: Arc::clone(&snap),
                dt: 0,
                dcounters: Counters::default(),
                used,
            };
            t.edges.insert(key, edge);
        }
        assert_eq!(t.evict(|_| false), 0, "within budget nothing goes");
        // Over budget until four edges are gone.
        let mut asked = 0;
        let evicted = t.evict(|_| {
            asked += 1;
            asked <= 4
        });
        assert_eq!(evicted, 4);
        let mut kept: Vec<u64> = t.edges.values().map(|e| e.used).collect();
        kept.sort_unstable();
        assert_eq!(kept, [4, 5, 6, 7, 8, 9]);
    }

    /// A peer can name any number of machine configs (the wire's `machine`
    /// override); a memo keeps `RUN_CAP` run contexts. One pushed out
    /// comes back under a new id — its old edges cannot answer — and from
    /// there replays exactly.
    #[test]
    fn run_contexts_are_capped_and_a_dropped_one_comes_back_exact() {
        use crate::sim::{simulate_in, simulate_reference, JobSpec, SimOutcome};
        let mut b = crate::trace::TraceBuf::new();
        for i in 0..48u64 {
            b.block(1, 3);
            b.load((77 << 28) + (i % 24) * 4096);
            b.flops(5);
            b.branch(1, i != 47);
        }
        let trace = Arc::new(crate::trace::ProgramTrace::single_region("cap", vec![b]));
        let job = || vec![JobSpec::pinned(trace.clone(), vec![Lcpu::A0])];
        let machine = |l2_lat| MachineConfig {
            l2_lat,
            ..MachineConfig::paxville_smp()
        };
        let same = |fast: &SimOutcome, cfg: &MachineConfig| {
            let slow = simulate_reference(cfg, job());
            assert_eq!(fast.wall_cycles, slow.wall_cycles, "l2_lat {}", cfg.l2_lat);
            assert_eq!(fast.total, slow.total, "l2_lat {}", cfg.l2_lat);
        };
        let memo = Memo::default();
        let simulate = |cfg: &MachineConfig| simulate_in(Some(&memo), cfg, job());
        for l2_lat in 1..=RUN_CAP as u64 + 8 {
            let cfg = machine(l2_lat);
            same(&simulate(&cfg), &cfg);
            assert!(memo.table().runs.len() <= RUN_CAP);
        }
        assert_eq!(memo.table().runs.len(), RUN_CAP);
        let cfg = machine(1);
        let back = simulate(&cfg);
        assert_eq!(back.memo.hits, 0, "the dropped context's id is not reused");
        same(&back, &cfg);
        let replay = simulate(&cfg);
        assert_eq!(replay.memo.hits, replay.memo.probes);
        same(&replay, &cfg);
    }

    /// Equality decides, the hash only selects: two different states forced
    /// into one bucket stay two pointers and never answer each other's
    /// edges, while an equal state interns to the pointer it equals.
    #[test]
    fn colliding_snapshots_stay_distinct() {
        const BUCKET: u64 = 0xc011_1de5;
        let snap = |mem_off| MachineSnap {
            mem_off,
            ..MachineSnap::default()
        };
        let memo = Memo::default();
        let intern = |state| memo.table().intern(BUCKET, 24, state);
        let (a, b) = (intern(snap(1)), intern(snap(2)));
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, &intern(snap(1))));
        assert!(Arc::ptr_eq(&b, &intern(snap(2))));

        let region = Arc::new(RegionTrace::labeled(Vec::new(), "collide"));
        let key = |pre: &Arc<Snap>| Key {
            run: 0,
            region: Arc::as_ptr(&region) as *const () as usize,
            pre: Arc::as_ptr(pre) as usize,
            abs_base: None,
        };
        let none = Counters::default();
        memo.record(key(&a), &region, a.clone(), b.clone(), 5, none);
        let (post, dt, _) = memo
            .probe(&key(&a))
            .expect("recorded edge answers its own pre-state");
        assert!(Arc::ptr_eq(&post, &b) && dt == 5);
        assert!(
            memo.probe(&key(&b)).is_none(),
            "a bucket-mate is not a match"
        );
        let mut early = key(&a);
        early.abs_base = Some(12);
        assert!(memo.probe(&early).is_none(), "base classes do not mix");
    }
}
