//! The sharded, two-tier, content-addressed result cache.
//!
//! The PR-4 cache was one LRU behind one mutex over one journal file —
//! correct, but every hit on every connection serialized on that lock.
//! The cache is now **N independent shards**: each shard owns its own
//! in-memory LRU (its own mutex) and its own on-disk
//! [`Journal`](paxsim_core::journal::Journal) (`shard-<i>.jsonl`), so
//! lookups for different keys proceed in parallel and a put never blocks
//! an unrelated get. Within a shard the PR-4 semantics are unchanged:
//! tier 1 is an LRU keyed by the request's
//! [`ConfigHash`](paxsim_core::hash::ConfigHash); tier 2 is the same
//! CRC-per-record JSONL format the resilient sweep drivers checkpoint
//! into, so results survive daemon restarts and every corruption mode the
//! journal detects (bit rot, truncated tails) causes a recompute, never a
//! wrong answer. Disk hits are promoted into the shard's LRU; every put
//! lands in both tiers; duplicate keys are legal and last-record-wins.
//!
//! **What the "disk tier" is at run time.** The file is read once, at
//! open: [`Journal`](paxsim_core::journal::Journal) loads every valid
//! record into an in-memory index and `lookup` reads only that index.
//! A `disk_hit` therefore touches no disk — it is a second map lookup
//! (plus the `serve|<hash>` key string and a clone of the record) for a
//! key the LRU does not hold — and the LRU capacity bounds only the
//! LRU's own copies of records and their reply lines: the daemon's
//! resident records are the journal index, one per distinct result ever
//! stored.
//!
//! **An entry owns its reply line.** A memory-tier entry is its
//! [`Record`] plus the reply body rendered from it on the entry's first
//! reply hit (`ResultCache::probe_reply`); later hits copy that line
//! out instead of rendering the record again. The line is a pure function
//! of the key and the record, and it lives and dies with the entry: a
//! `put` to the key replaces the entry (line gone), an LRU eviction drops
//! it, and an entry promoted from disk — after an eviction or a restart —
//! starts without one. There is no second table and nothing to
//! invalidate; the lines are bounded by the memory tier's own capacity.
//!
//! **Shard selection** is consistent hashing over the `ConfigHash`: each
//! shard contributes [`VNODES`] points to a ring of FNV-1a digests of
//! `"shard-<i>/vnode-<v>"`, and a key belongs to the first point at or
//! clockwise-after its hash ([`Ring::select`]). The canonical-JSON key is
//! already location-independent, so re-sharding (changing N) only *moves*
//! entries — a moved entry misses once and recomputes; it is never served
//! wrong — and consistent hashing keeps those moves to ~1/N of the
//! keyspace. The same function is exported ([`shard_index`]) so tests,
//! the load generator, and (eventually) a multi-node router agree with
//! the daemon about key placement.
//!
//! **Conservation** holds shard-locally and therefore globally: every
//! `get` books exactly one tier counter (mem hit, disk hit, or miss) in
//! exactly one shard, so `Σ hits + Σ misses == get calls` across any mix
//! of shards.
//!
//! A legacy single-file `results.jsonl` from a pre-shard daemon is
//! migrated at open: every valid record is appended into its owning
//! shard's journal and the legacy file is renamed to
//! `results.jsonl.migrated`, so an upgrade never recomputes a result it
//! already paid for.

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use paxsim_core::error::{StudyError, StudyResult};
use paxsim_core::hash::{fnv1a, ConfigHash};
use paxsim_core::journal::{FsyncPolicy, Journal, Record, SideRecord};

/// Legacy (pre-shard) on-disk journal file name inside the cache
/// directory; present only in caches written by older daemons, migrated
/// on open.
pub const JOURNAL_FILE: &str = "results.jsonl";

/// Default shard count. Eight shards cut lock contention by ~8x while
/// keeping the cache directory readable; tune with `--shards`.
pub const DEFAULT_SHARDS: usize = 8;

/// Virtual nodes per shard on the consistent-hash ring. 16 points per
/// shard keeps the keyspace split within a few percent of even.
pub const VNODES: usize = 16;

/// On-disk journal file name for one shard.
pub fn shard_file_name(index: usize) -> String {
    format!("shard-{index}.jsonl")
}

// ---------------------------------------------------------------------------
// Consistent-hash ring.
// ---------------------------------------------------------------------------

/// A consistent-hash ring mapping `ConfigHash` points to shard indices.
pub struct Ring {
    /// `(point, shard)` sorted by point.
    points: Vec<(u64, usize)>,
}

impl Ring {
    /// Build the ring for `shards` shards ([`VNODES`] points each).
    pub fn new(shards: usize) -> Ring {
        let shards = shards.max(1);
        let mut points: Vec<(u64, usize)> = (0..shards)
            .flat_map(|s| {
                (0..VNODES).map(move |v| (fnv1a(format!("shard-{s}/vnode-{v}").as_bytes()), s))
            })
            .collect();
        points.sort_unstable();
        Ring { points }
    }

    /// The shard owning `hash`: the first ring point at or clockwise-after
    /// it, wrapping to the first point past the top of the keyspace.
    pub fn select(&self, hash: ConfigHash) -> usize {
        let i = self.points.partition_point(|&(p, _)| p < hash.0);
        self.points[i % self.points.len()].1
    }
}

/// The shard a key lands in under an `n_shards`-way cache. Exported so
/// tests and external routers can locate a key's journal file without a
/// live cache instance.
pub fn shard_index(hash: ConfigHash, n_shards: usize) -> usize {
    Ring::new(n_shards).select(hash)
}

// ---------------------------------------------------------------------------
// One shard: LRU over journal, exactly the PR-4 two-tier semantics.
// ---------------------------------------------------------------------------

/// One memory-tier entry: the record, and the reply body rendered from
/// it once a reply hit has asked for one.
struct Entry {
    rec: Record,
    line: Option<Arc<str>>,
}

struct Lru {
    cap: usize,
    map: HashMap<u64, Entry>,
    /// Keys from coldest (front) to hottest (back).
    order: VecDeque<u64>,
}

impl Lru {
    fn touch(&mut self, key: u64) {
        if let Some(pos) = self.order.iter().position(|&k| k == key) {
            self.order.remove(pos);
        }
        self.order.push_back(key);
    }

    /// The entry, marked hottest.
    fn get(&mut self, key: u64) -> Option<&mut Entry> {
        if self.map.contains_key(&key) {
            self.touch(key);
        }
        self.map.get_mut(&key)
    }

    /// Non-mutating lookup: no recency touch, no promotion.
    fn peek(&self, key: u64) -> Option<Record> {
        self.map.get(&key).map(|e| e.rec.clone())
    }

    /// Insert or replace: whatever line the key's old entry held goes
    /// with it.
    fn put(&mut self, key: u64, entry: Entry) {
        if self.cap == 0 {
            return;
        }
        self.map.insert(key, entry);
        self.touch(key);
        while self.map.len() > self.cap {
            let coldest = self.order.pop_front().expect("order tracks map");
            self.map.remove(&coldest);
        }
    }
}

/// One independent cache shard: private LRU, private journal, private
/// counters. No state is shared between shards, which is the whole point.
struct Shard {
    journal: Journal,
    mem: Mutex<Lru>,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    puts: AtomicU64,
    /// Puts whose journal append failed and that degraded to the memory
    /// tier only (served correct but not durable; a restart recomputes).
    put_failures: AtomicU64,
}

fn lock(m: &Mutex<Lru>) -> MutexGuard<'_, Lru> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Shard {
    fn get(&self, hash: ConfigHash) -> Option<Record> {
        let hit = self.probe(hash, |e| e.rec.clone());
        if hit.is_none() {
            self.book_miss();
        }
        hit
    }

    fn book_miss(&self) {
        static MISS: paxsim_obs::LazyCounter = paxsim_obs::LazyCounter::new("serve.cache.misses");
        self.misses.fetch_add(1, Ordering::Relaxed);
        MISS.inc();
    }

    /// `get` minus the miss booking: a hit books its tier counter (and
    /// promotes, like `get`) and is read through `read` under the shard
    /// lock; a miss books *nothing* — the caller books it
    /// ([`Shard::book_miss`]) once it knows the request will be answered
    /// by the slow path. This is what lets the reactor's inline-hit fast
    /// path attempt a lookup without double-counting the misses it
    /// passes on.
    fn probe<T>(&self, hash: ConfigHash, read: impl FnOnce(&mut Entry) -> T) -> Option<T> {
        static MEM: paxsim_obs::LazyCounter = paxsim_obs::LazyCounter::new("serve.cache.mem_hits");
        static DISK: paxsim_obs::LazyCounter =
            paxsim_obs::LazyCounter::new("serve.cache.disk_hits");
        // Chaos hook: a `serve-shard-slow:<ms>` plan stalls the lookup
        // here — after shard selection, before either tier — modelling a
        // shard pinned on slow storage. Latency only; the reply that
        // eventually flows is byte-identical.
        if let Some(ms) = paxsim_core::faultinject::serve_shard_slow() {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        if let Some(entry) = lock(&self.mem).get(hash.0) {
            self.mem_hits.fetch_add(1, Ordering::Relaxed);
            MEM.inc();
            return Some(read(entry));
        }
        let rec = self.journal.lookup(&ResultCache::key(hash))?;
        self.disk_hits.fetch_add(1, Ordering::Relaxed);
        DISK.inc();
        let mut entry = Entry { rec, line: None };
        let out = read(&mut entry);
        lock(&self.mem).put(hash.0, entry);
        Some(out)
    }

    fn peek(&self, hash: ConfigHash) -> Option<Record> {
        if let Some(rec) = lock(&self.mem).peek(hash.0) {
            return Some(rec);
        }
        self.journal.lookup(&ResultCache::key(hash))
    }

    fn put(&self, hash: ConfigHash, sides: Vec<SideRecord>) -> StudyResult<Record> {
        let key = ResultCache::key(hash);
        let rec = match self.journal.record(&key, sides.clone()) {
            Ok(()) => self
                .journal
                .lookup(&key)
                .expect("a just-recorded key is present"),
            // Degraded mode: an append failure (disk full, injected
            // `journal-fail`) must not turn a *computed* result into a
            // client error. The record serves from the memory tier —
            // byte-identical to the durable path, because the journal's
            // JSON round-trip is bit-exact — and a restart recomputes it.
            // `put_failures` (and the journal's own `write_errors`)
            // surface the degradation in `op=health`.
            Err(StudyError::JournalIo { .. }) => {
                self.put_failures.fetch_add(1, Ordering::Relaxed);
                static DEGRADED: paxsim_obs::LazyCounter =
                    paxsim_obs::LazyCounter::new("serve.cache.put_failures");
                DEGRADED.inc();
                Record { key, sides }
            }
            Err(e) => return Err(e),
        };
        self.puts.fetch_add(1, Ordering::Relaxed);
        static PUTS: paxsim_obs::LazyCounter = paxsim_obs::LazyCounter::new("serve.cache.puts");
        PUTS.inc();
        let entry = Entry {
            rec: rec.clone(),
            line: None,
        };
        lock(&self.mem).put(hash.0, entry);
        Ok(rec)
    }
}

// ---------------------------------------------------------------------------
// The sharded cache facade.
// ---------------------------------------------------------------------------

/// Point-in-time per-shard statistics, for `op=stats` / `op=metrics` /
/// `op=health`.
#[derive(Debug, Clone)]
pub struct ShardStats {
    pub mem_hits: u64,
    pub disk_hits: u64,
    pub misses: u64,
    pub puts: u64,
    pub entries_mem: usize,
    pub entries_disk: usize,
    pub corrupt_dropped: usize,
    /// Journal appends that failed at the I/O layer.
    pub write_errors: usize,
    /// Puts that degraded to the memory tier after a failed append.
    pub put_failures: u64,
    /// Stale journal lines (overwrites + corrupt) a compaction would
    /// reclaim.
    pub stale_lines: usize,
}

/// The sharded two-tier cache. Thread-safe; shared across every
/// connection; shard selection is consistent hashing on the key.
pub struct ResultCache {
    ring: Ring,
    shards: Vec<Shard>,
    /// Legacy records migrated into shards at open.
    migrated: usize,
}

impl ResultCache {
    /// Open the cache rooted at `dir` (created if absent) with `shards`
    /// shards, each holding at most `mem_cap / shards` records in memory
    /// (minimum one). A legacy single-file journal is migrated into the
    /// shard files before the shards load.
    ///
    /// # Errors
    ///
    /// Journal I/O errors opening, reading, or migrating the disk tier.
    pub fn open(dir: &Path, mem_cap: usize, shards: usize) -> StudyResult<ResultCache> {
        Self::open_with(dir, mem_cap, shards, FsyncPolicy::Flush)
    }

    /// [`ResultCache::open`] with an explicit per-append durability
    /// policy for the shard journals (`--fsync` on the daemon).
    ///
    /// # Errors
    ///
    /// Journal I/O errors opening, reading, or migrating the disk tier.
    pub fn open_with(
        dir: &Path,
        mem_cap: usize,
        shards: usize,
        fsync: FsyncPolicy,
    ) -> StudyResult<ResultCache> {
        let n = shards.max(1);
        let ring = Ring::new(n);
        let migrated = migrate_legacy(dir, &ring, n)?;
        let per_shard_cap = if mem_cap == 0 {
            0
        } else {
            (mem_cap / n).max(1)
        };
        let shards = (0..n)
            .map(|i| {
                let journal = Journal::open_with(&dir.join(shard_file_name(i)), fsync)?;
                Ok(Shard {
                    journal,
                    mem: Mutex::new(Lru {
                        cap: per_shard_cap,
                        map: HashMap::new(),
                        order: VecDeque::new(),
                    }),
                    mem_hits: AtomicU64::new(0),
                    disk_hits: AtomicU64::new(0),
                    misses: AtomicU64::new(0),
                    puts: AtomicU64::new(0),
                    put_failures: AtomicU64::new(0),
                })
            })
            .collect::<StudyResult<Vec<Shard>>>()?;
        Ok(ResultCache {
            ring,
            shards,
            migrated,
        })
    }

    /// The on-disk journal key for a content hash (same spelling in every
    /// shard and in the legacy file).
    pub fn key(hash: ConfigHash) -> String {
        format!("serve|{hash}")
    }

    /// The shard `hash` lives in.
    pub fn shard_for(&self, hash: ConfigHash) -> usize {
        self.ring.select(hash)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Legacy records migrated into shard journals at open.
    pub fn migrated(&self) -> usize {
        self.migrated
    }

    /// Look `hash` up in its shard: memory first, then disk (promoting a
    /// disk hit).
    ///
    /// Exactly one tier counter moves in exactly one shard per call, so
    /// `hits() + misses()` equals the number of `get` calls — the
    /// conservation law the loopback stats tests assert, now summed
    /// across shards. Lookups that must not perturb the stats (a flight's
    /// double-check) use [`ResultCache::peek`].
    pub fn get(&self, hash: ConfigHash) -> Option<Record> {
        self.shards[self.ring.select(hash)].get(hash)
    }

    /// Hit-or-nothing lookup: behaves exactly like [`ResultCache::get`]
    /// on a hit (tier counter booked, recency touched, disk hits
    /// promoted) but books **no** counter on a miss. The reactor's
    /// inline fast path uses this to try serving a request without
    /// leaving the I/O thread; when it returns `None` the request takes
    /// the worker path, whose `get` books the one miss the conservation
    /// law expects.
    pub fn probe(&self, hash: ConfigHash) -> Option<Record> {
        self.shards[self.ring.select(hash)].probe(hash, |e| e.rec.clone())
    }

    /// [`ResultCache::probe`] for a caller that wants the reply, not the
    /// record: books, touches and promotes exactly as `probe` does, and
    /// returns the reply body stored with the entry — rendered by `render`
    /// on the entry's first reply hit, copied out on every later one
    /// without cloning the record. The body must be a pure function of
    /// `hash` and the record. It is stored only in a memory-tier entry:
    /// with no memory tier every hit is a disk hit that renders afresh.
    pub(crate) fn probe_reply(
        &self,
        hash: ConfigHash,
        render: impl FnOnce(&Record) -> String,
    ) -> Option<Arc<str>> {
        self.shards[self.ring.select(hash)].probe(hash, |e| {
            let rec = &e.rec;
            e.line.get_or_insert_with(|| render(rec).into()).clone()
        })
    }

    /// Book the miss of a request whose probes found nothing and that the
    /// slow path will now answer: `probe` + `book_miss` books what `get`
    /// books.
    pub(crate) fn book_miss(&self, hash: ConfigHash) {
        self.shards[self.ring.select(hash)].book_miss();
    }

    /// Silent lookup: serves from either tier of the owning shard without
    /// touching recency, promotion, or any hit/miss counter. This is the
    /// double-check a coalesced flight performs after winning the
    /// leadership race — the request already charged its one tier counter
    /// in the outer [`ResultCache::get`].
    pub fn peek(&self, hash: ConfigHash) -> Option<Record> {
        self.shards[self.ring.select(hash)].peek(hash)
    }

    /// Store a computed result in both tiers of the owning shard; returns
    /// the stored record (the exact value later hits will serve).
    ///
    /// A failed journal append (disk full, injected `journal-fail`)
    /// **degrades instead of erroring**: the record lands in the memory
    /// tier only and still serves byte-identically; the failure is
    /// counted ([`ResultCache::put_failures`], the journal's
    /// `write_errors`) so `op=health` can surface it, and a restart
    /// recomputes the lost record — degraded means *less durable*, never
    /// *wrong*.
    ///
    /// # Errors
    ///
    /// Non-I/O failures only (a record that cannot serialize at all).
    pub fn put(&self, hash: ConfigHash, sides: Vec<SideRecord>) -> StudyResult<Record> {
        self.shards[self.ring.select(hash)].put(hash, sides)
    }

    /// Memory-tier hits served, summed across shards.
    pub fn mem_hits(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.mem_hits.load(Ordering::Relaxed))
            .sum()
    }

    /// Disk-tier hits served (each also promoted), summed across shards.
    pub fn disk_hits(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.disk_hits.load(Ordering::Relaxed))
            .sum()
    }

    /// Total hits across both tiers and all shards.
    pub fn hits(&self) -> u64 {
        self.mem_hits() + self.disk_hits()
    }

    /// Lookups that found nothing, summed across shards.
    pub fn misses(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.misses.load(Ordering::Relaxed))
            .sum()
    }

    /// Results stored, summed across shards.
    pub fn puts(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.puts.load(Ordering::Relaxed))
            .sum()
    }

    /// Puts that degraded to memory-only after a failed journal append,
    /// summed across shards.
    pub fn put_failures(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.put_failures.load(Ordering::Relaxed))
            .sum()
    }

    /// Journal appends that failed at the I/O layer, summed across
    /// shards.
    pub fn write_errors(&self) -> usize {
        self.shards.iter().map(|s| s.journal.write_errors()).sum()
    }

    /// Records currently resident in memory, summed across shards.
    pub fn mem_len(&self) -> usize {
        self.shards.iter().map(|s| lock(&s.mem).map.len()).sum()
    }

    /// Distinct results durable on disk, summed across shards.
    pub fn disk_len(&self) -> usize {
        self.shards.iter().map(|s| s.journal.len()).sum()
    }

    /// On-disk records dropped at open because they failed CRC/parse,
    /// summed across shards (plus any dropped during legacy migration).
    pub fn corrupt_dropped(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.journal.corrupt_records())
            .sum()
    }

    /// Per-shard counters, index-aligned with the ring's shard numbers.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                mem_hits: s.mem_hits.load(Ordering::Relaxed),
                disk_hits: s.disk_hits.load(Ordering::Relaxed),
                misses: s.misses.load(Ordering::Relaxed),
                puts: s.puts.load(Ordering::Relaxed),
                entries_mem: lock(&s.mem).map.len(),
                entries_disk: s.journal.len(),
                corrupt_dropped: s.journal.corrupt_records(),
                write_errors: s.journal.write_errors(),
                put_failures: s.put_failures.load(Ordering::Relaxed),
                stale_lines: s.journal.stale_lines(),
            })
            .collect()
    }

    /// Compact every shard journal down to its live record set (atomic
    /// tmp + rename per shard). Returns the total stale lines reclaimed.
    ///
    /// # Errors
    ///
    /// Journal I/O during a shard rewrite; already-compacted shards stay
    /// compacted.
    pub fn compact(&self) -> StudyResult<usize> {
        let mut reclaimed = 0;
        for s in &self.shards {
            reclaimed += s.journal.compact()?;
        }
        Ok(reclaimed)
    }
}

/// Migrate a legacy single-file journal into per-shard files. Returns the
/// number of records moved. Idempotent: the legacy file is renamed to
/// `<name>.migrated` afterward, so a second open finds nothing to do.
fn migrate_legacy(dir: &Path, ring: &Ring, n: usize) -> StudyResult<usize> {
    let legacy_path: PathBuf = dir.join(JOURNAL_FILE);
    if !legacy_path.exists() {
        return Ok(0);
    }
    let legacy = Journal::open(&legacy_path)?;
    let records = legacy.records();
    let mut shard_journals: Vec<Option<Journal>> = (0..n).map(|_| None).collect();
    let mut moved = 0;
    for rec in records {
        // Keys are `serve|<16 hex digits>`; anything else is not ours to
        // place and is left behind in the renamed file.
        let Some(hex) = rec.key.strip_prefix("serve|") else {
            continue;
        };
        let Ok(raw) = u64::from_str_radix(hex, 16) else {
            continue;
        };
        let shard = ring.select(ConfigHash(raw));
        let journal = match &mut shard_journals[shard] {
            Some(j) => j,
            none => none.insert(Journal::open(&dir.join(shard_file_name(shard)))?),
        };
        // Last-record-wins journals make re-appending over an existing
        // key harmless, so a migration killed partway through simply
        // re-migrates on the next open.
        if journal.lookup(&rec.key).is_none() {
            journal.record(&rec.key, rec.sides)?;
            moved += 1;
        }
    }
    let renamed = legacy_path.with_extension("jsonl.migrated");
    std::fs::rename(&legacy_path, &renamed).map_err(|e| {
        paxsim_core::error::StudyError::JournalIo {
            path: legacy_path.display().to_string(),
            op: "rename-migrated",
            detail: e.to_string(),
        }
    })?;
    Ok(moved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxsim_machine::counters::Counters;
    use paxsim_perfmon::stats::Summary;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("paxsim_serve_cache_tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sides(tag: u64) -> Vec<SideRecord> {
        vec![SideRecord {
            bench: "ep".into(),
            cycles: Summary::of(&[tag as f64, tag as f64 + 1.5]),
            speedup: Summary::of(&[1.0]),
            counters: Counters {
                instructions: tag,
                ..Counters::default()
            },
        }]
    }

    fn open(dir: &Path, mem_cap: usize, shards: usize) -> ResultCache {
        ResultCache::open(dir, mem_cap, shards).unwrap()
    }

    #[test]
    fn miss_put_hit_roundtrip() {
        let _quiet = paxsim_core::faultinject::quiesced();
        let dir = tmp("roundtrip");
        let c = open(&dir, 8, 4);
        let h = ConfigHash(0xabc);
        assert!(c.get(h).is_none());
        assert_eq!(c.misses(), 1);
        let stored = c.put(h, sides(7)).unwrap();
        let hit = c.get(h).unwrap();
        assert_eq!(hit.sides[0].counters.instructions, 7);
        assert_eq!(
            serde_json::to_string(&hit).unwrap(),
            serde_json::to_string(&stored).unwrap(),
            "hit must serve the exact stored record"
        );
        assert_eq!(c.mem_hits(), 1);
        assert_eq!(c.disk_hits(), 0);
    }

    #[test]
    fn ring_is_deterministic_total_and_stable() {
        let ring = Ring::new(8);
        for raw in [0u64, 1, 0xdead_beef, u64::MAX, 0x8000_0000_0000_0000] {
            let s = ring.select(ConfigHash(raw));
            assert!(s < 8);
            // Stable: a fresh ring and the exported helper agree.
            assert_eq!(s, Ring::new(8).select(ConfigHash(raw)));
            assert_eq!(s, shard_index(ConfigHash(raw), 8));
        }
    }

    #[test]
    fn ring_spreads_keys_across_every_shard() {
        let ring = Ring::new(8);
        let mut counts = [0usize; 8];
        for i in 0..4096u64 {
            counts[ring.select(ConfigHash(fnv1a(&i.to_le_bytes())))] += 1;
        }
        for (s, &n) in counts.iter().enumerate() {
            assert!(n > 0, "shard {s} owns no keys");
        }
    }

    #[test]
    fn resharding_moves_a_minority_of_keys() {
        // Consistent hashing: growing 8 -> 9 shards must relocate roughly
        // 1/9 of the keyspace, not reshuffle everything (a modulo scheme
        // moves ~8/9).
        let before = Ring::new(8);
        let after = Ring::new(9);
        let total = 4096u64;
        let moved = (0..total)
            .filter(|i| {
                let h = ConfigHash(fnv1a(&i.to_le_bytes()));
                before.select(h) != after.select(h)
            })
            .count();
        assert!(
            moved < total as usize / 3,
            "resharding moved {moved}/{total} keys — not consistent"
        );
        assert!(moved > 0, "growing the ring must move some keys");
    }

    #[test]
    fn puts_and_gets_route_to_the_same_shard() {
        let _quiet = paxsim_core::faultinject::quiesced();
        let dir = tmp("routing");
        let c = open(&dir, 64, 8);
        for raw in 0..64u64 {
            let h = ConfigHash(fnv1a(&raw.to_le_bytes()));
            c.put(h, sides(raw)).unwrap();
        }
        // Every key hits — from the shard that stored it.
        for raw in 0..64u64 {
            let h = ConfigHash(fnv1a(&raw.to_le_bytes()));
            assert_eq!(c.get(h).unwrap().sides[0].counters.instructions, raw);
        }
        assert_eq!(c.hits(), 64);
        assert_eq!(c.misses(), 0);
        // The shard files partition the records.
        let per_shard: usize = c.shard_stats().iter().map(|s| s.entries_disk).sum();
        assert_eq!(per_shard, 64);
        let populated = c
            .shard_stats()
            .iter()
            .filter(|s| s.entries_disk > 0)
            .count();
        assert!(populated >= 4, "64 keys landed in only {populated} shards");
    }

    #[test]
    fn disk_tier_survives_reopen_and_promotes() {
        let _quiet = paxsim_core::faultinject::quiesced();
        let dir = tmp("reopen");
        let h = ConfigHash(0x11);
        {
            let c = open(&dir, 8, 4);
            c.put(h, sides(3)).unwrap();
        }
        let c = open(&dir, 8, 4);
        assert_eq!(c.mem_len(), 0, "memory tier starts cold");
        assert_eq!(c.disk_len(), 1);
        assert!(c.get(h).is_some());
        assert_eq!(c.disk_hits(), 1);
        // Promoted: the second lookup is a memory hit.
        assert!(c.get(h).is_some());
        assert_eq!(c.mem_hits(), 1);
    }

    #[test]
    fn legacy_journal_migrates_into_shards() {
        let _quiet = paxsim_core::faultinject::quiesced();
        let dir = tmp("migrate");
        // Write a legacy-format single-file cache by hand.
        let legacy = Journal::open(&dir.join(JOURNAL_FILE)).unwrap();
        let keys: Vec<ConfigHash> = (0..10u64)
            .map(|i| ConfigHash(fnv1a(&i.to_le_bytes())))
            .collect();
        for (i, h) in keys.iter().enumerate() {
            legacy
                .record(&ResultCache::key(*h), sides(i as u64))
                .unwrap();
        }
        drop(legacy);
        let c = open(&dir, 64, 4);
        assert_eq!(c.migrated(), 10, "every legacy record migrates");
        assert!(!dir.join(JOURNAL_FILE).exists(), "legacy file renamed");
        for (i, h) in keys.iter().enumerate() {
            assert_eq!(
                c.get(*h).unwrap().sides[0].counters.instructions,
                i as u64,
                "migrated record must serve from its shard"
            );
        }
        // Idempotent: a reopen migrates nothing further.
        drop(c);
        let c = open(&dir, 64, 4);
        assert_eq!(c.migrated(), 0);
        assert_eq!(c.disk_len(), 10);
    }

    #[test]
    fn single_shard_lru_evicts_coldest_but_disk_retains() {
        let _quiet = paxsim_core::faultinject::quiesced();
        let dir = tmp("evict");
        let c = open(&dir, 2, 1);
        for i in 0..3u64 {
            c.put(ConfigHash(i), sides(i)).unwrap();
        }
        assert_eq!(c.mem_len(), 2);
        assert_eq!(c.disk_len(), 3);
        // Key 0 was evicted from memory; it still hits via disk.
        assert!(c.get(ConfigHash(0)).is_some());
        assert_eq!(c.disk_hits(), 1);
    }

    #[test]
    fn lru_touch_on_get_protects_hot_keys() {
        let _quiet = paxsim_core::faultinject::quiesced();
        let dir = tmp("touch");
        let c = open(&dir, 2, 1);
        c.put(ConfigHash(0), sides(0)).unwrap();
        c.put(ConfigHash(1), sides(1)).unwrap();
        c.get(ConfigHash(0)); // 0 is now hottest
        c.put(ConfigHash(2), sides(2)).unwrap(); // evicts 1, not 0
        let before = c.disk_hits();
        assert!(c.get(ConfigHash(0)).is_some());
        assert_eq!(c.disk_hits(), before, "0 must still be a memory hit");
    }

    #[test]
    fn get_refreshes_recency() {
        let _quiet = paxsim_core::faultinject::quiesced();
        // Regression (LRU recency audit): `get` must move the key to the
        // hot end of `order`, otherwise a steadily re-read key gets
        // evicted as if it were cold.
        let dir = tmp("get_refreshes");
        let c = open(&dir, 2, 1);
        c.put(ConfigHash(0), sides(0)).unwrap();
        c.put(ConfigHash(1), sides(1)).unwrap();
        // Re-read 0: it must now outrank 1 in recency.
        assert!(c.get(ConfigHash(0)).is_some());
        {
            let lru = lock(&c.shards[0].mem);
            assert_eq!(lru.order.back(), Some(&0), "get must refresh recency");
        }
        c.put(ConfigHash(2), sides(2)).unwrap();
        let mem_hits_before = c.mem_hits();
        assert!(c.get(ConfigHash(0)).is_some());
        assert_eq!(
            c.mem_hits(),
            mem_hits_before + 1,
            "hot key 0 must survive the eviction (1 was coldest)"
        );
        let lru = lock(&c.shards[0].mem);
        assert!(!lru.map.contains_key(&1), "1 was the eviction victim");
    }

    #[test]
    fn double_put_then_evict() {
        let _quiet = paxsim_core::faultinject::quiesced();
        // Regression (LRU reinsert audit): re-`put` of a resident key must
        // not leave a stale duplicate in `order` — the next eviction would
        // pop the duplicate and remove the wrong key (or nothing), letting
        // `map` outgrow `cap` and desynchronizing the two structures.
        let dir = tmp("double_put");
        let c = open(&dir, 2, 1);
        c.put(ConfigHash(0), sides(0)).unwrap();
        c.put(ConfigHash(1), sides(1)).unwrap();
        c.put(ConfigHash(0), sides(99)).unwrap(); // reinsert, now hottest
        {
            let lru = lock(&c.shards[0].mem);
            assert_eq!(
                lru.order.len(),
                lru.map.len(),
                "reinsert must not duplicate the key in order"
            );
        }
        c.put(ConfigHash(2), sides(2)).unwrap(); // must evict 1, the coldest
        let lru = lock(&c.shards[0].mem);
        assert_eq!(lru.map.len(), 2, "cap respected after reinsert");
        assert_eq!(lru.order.len(), 2);
        assert!(lru.map.contains_key(&0), "reinserted key stays resident");
        assert!(lru.map.contains_key(&2));
        assert!(!lru.map.contains_key(&1));
        assert_eq!(
            lru.peek(0).unwrap().sides[0].counters.instructions,
            99,
            "reinsert serves the newest value"
        );
    }

    #[test]
    fn peek_serves_both_tiers_without_stats_or_recency() {
        let _quiet = paxsim_core::faultinject::quiesced();
        let dir = tmp("peek");
        let c = open(&dir, 2, 1);
        c.put(ConfigHash(0), sides(0)).unwrap();
        c.put(ConfigHash(1), sides(1)).unwrap();
        // Memory peek: no counter, no recency change.
        assert!(c.peek(ConfigHash(0)).is_some());
        assert_eq!(c.hits() + c.misses(), 0, "peek must not book stats");
        {
            let lru = lock(&c.shards[0].mem);
            assert_eq!(lru.order.back(), Some(&1), "peek must not touch");
        }
        // Disk peek: 0 evicted from memory still peeks via the journal,
        // without promotion.
        c.put(ConfigHash(2), sides(2)).unwrap(); // evicts 0
        assert!(c.peek(ConfigHash(0)).is_some());
        assert_eq!(c.disk_hits(), 0);
        assert_eq!(c.mem_len(), 2, "no promotion on peek");
        // Absent key: still no stats.
        assert!(c.peek(ConfigHash(0xffff)).is_none());
        assert_eq!(c.hits() + c.misses(), 0);
    }

    #[test]
    fn reply_line_is_rendered_once_per_entry_and_dies_with_it() {
        let _quiet = paxsim_core::faultinject::quiesced();
        let dir = tmp("reply_line");
        let c = open(&dir, 2, 1);
        let renders = std::cell::Cell::new(0);
        let reply = |h: u64| {
            c.probe_reply(ConfigHash(h), |rec| {
                renders.set(renders.get() + 1);
                format!("{h}:{}", rec.sides[0].counters.instructions)
            })
        };
        assert_eq!(reply(0), None, "a miss renders and books nothing");
        assert_eq!((renders.get(), c.hits() + c.misses()), (0, 0));
        c.put(ConfigHash(0), sides(7)).unwrap();
        // First reply hit renders; later ones copy, and book like `probe`.
        assert_eq!(reply(0).as_deref(), Some("0:7"));
        assert_eq!(reply(0).as_deref(), Some("0:7"));
        assert_eq!((renders.get(), c.mem_hits()), (1, 2));
        assert_eq!(
            c.probe(ConfigHash(0)).unwrap().sides[0]
                .counters
                .instructions,
            7
        );
        // A put to the key replaces the entry, line included.
        c.put(ConfigHash(0), sides(8)).unwrap();
        assert_eq!(reply(0).as_deref(), Some("0:8"));
        assert_eq!(renders.get(), 2);
        // Eviction drops it; the disk hit that promotes the record back
        // renders again, and the promoted entry keeps that line.
        c.put(ConfigHash(1), sides(1)).unwrap();
        c.put(ConfigHash(2), sides(2)).unwrap();
        assert_eq!(reply(0).as_deref(), Some("0:8"));
        assert_eq!((renders.get(), c.disk_hits()), (3, 1));
        assert_eq!(reply(0).as_deref(), Some("0:8"));
        assert_eq!((renders.get(), c.disk_hits()), (3, 1));
        // No memory tier: nothing is stored, every hit renders.
        let c = open(&tmp("reply_line_no_mem"), 0, 1);
        c.put(ConfigHash(0), sides(7)).unwrap();
        for n in 1..=2 {
            let line = c.probe_reply(ConfigHash(0), |_| format!("render {n}"));
            assert_eq!(line.as_deref(), Some(format!("render {n}").as_str()));
        }
        assert_eq!((c.mem_len(), c.mem_hits(), c.disk_hits()), (0, 0, 2));
    }

    #[test]
    fn corrupt_shard_record_is_dropped_not_served() {
        let _quiet = paxsim_core::faultinject::quiesced();
        let dir = tmp("corrupt");
        let h = ConfigHash(0xdead);
        let shard = shard_index(h, 4);
        {
            let c = open(&dir, 8, 4);
            c.put(h, sides(9)).unwrap();
        }
        paxsim_core::faultinject::flip_bit(&dir.join(shard_file_name(shard)), 40).unwrap();
        let c = open(&dir, 8, 4);
        assert_eq!(c.corrupt_dropped(), 1);
        assert!(c.get(h).is_none(), "corrupt record must read as a miss");
        // A recompute appends a fresh record that serves again.
        c.put(h, sides(10)).unwrap();
        let c2 = open(&dir, 8, 4);
        assert_eq!(c2.get(h).unwrap().sides[0].counters.instructions, 10);
    }

    #[test]
    fn put_degrades_to_memory_on_journal_fault() {
        paxsim_core::faultinject::with_plan("journal-fail:1", || {
            let dir = tmp("degraded_put");
            let c = open(&dir, 8, 2);
            let h = ConfigHash(0x77);
            let stored = c.put(h, sides(5)).unwrap();
            assert_eq!(stored.sides[0].counters.instructions, 5);
            assert_eq!(c.put_failures(), 1, "degraded put must be counted");
            assert_eq!(c.write_errors(), 1, "journal must count the failed append");
            assert_eq!(c.puts(), 1, "a degraded put is still a put");
            let hit = c.get(h).unwrap();
            assert_eq!(
                serde_json::to_string(&hit).unwrap(),
                serde_json::to_string(&stored).unwrap(),
                "degraded record must serve byte-identically"
            );
            assert_eq!(c.mem_hits(), 1);
            // Not durable: a reopen recomputes (misses), never serves junk.
            drop(c);
            let c = open(&dir, 8, 2);
            assert!(c.get(h).is_none(), "memory-only record must not survive");
            assert_eq!(c.corrupt_dropped(), 0, "nothing torn landed on disk");
        });
    }

    #[test]
    fn compact_reclaims_stale_shard_lines() {
        let _quiet = paxsim_core::faultinject::quiesced();
        let dir = tmp("compact");
        let c = open(&dir, 8, 2);
        let h = ConfigHash(0x5);
        c.put(h, sides(1)).unwrap();
        c.put(h, sides(2)).unwrap(); // overwrite: one stale line
        assert_eq!(
            c.shard_stats().iter().map(|s| s.stale_lines).sum::<usize>(),
            1
        );
        assert_eq!(c.compact().unwrap(), 1, "one overwrite reclaimed");
        assert_eq!(c.get(h).unwrap().sides[0].counters.instructions, 2);
        // Idempotent: nothing further to reclaim, reopen serves the live set.
        assert_eq!(c.compact().unwrap(), 0);
        drop(c);
        let c = open(&dir, 8, 2);
        assert_eq!(c.get(h).unwrap().sides[0].counters.instructions, 2);
    }

    #[test]
    fn conservation_holds_across_shards() {
        let _quiet = paxsim_core::faultinject::quiesced();
        let dir = tmp("conserve");
        let c = open(&dir, 32, 8);
        let mut gets = 0u64;
        for raw in 0..40u64 {
            let h = ConfigHash(fnv1a(&raw.to_le_bytes()));
            if c.get(h).is_none() {
                c.put(h, sides(raw)).unwrap();
            }
            gets += 1;
            if raw % 3 == 0 {
                c.get(h);
                gets += 1;
            }
        }
        assert_eq!(
            c.hits() + c.misses(),
            gets,
            "one tier counter per get, summed over shards"
        );
        // The per-shard breakdown sums to the aggregate.
        let stats = c.shard_stats();
        let sum_hits: u64 = stats.iter().map(|s| s.mem_hits + s.disk_hits).sum();
        let sum_misses: u64 = stats.iter().map(|s| s.misses).sum();
        assert_eq!(sum_hits, c.hits());
        assert_eq!(sum_misses, c.misses());
    }
}
