//! The Netburst execution trace cache.
//!
//! The Pentium 4 / Paxville front end caches *decoded uop traces* rather
//! than raw instruction bytes; a trace-cache miss forces the slow decoder
//! path (fetching from L2), which the paper identifies as a key bottleneck
//! under Hyper-Threading because both contexts share the 12 Kuop array.
//!
//! Model: a capacity-managed store of decoded blocks keyed by basic-block
//! id (ASID-tagged), where each resident block occupies its decoded-body
//! uop footprint. Replacement is deterministic pseudo-random, which — for
//! the cyclic loop-body access patterns that dominate these workloads —
//! yields the smooth partial-hit behaviour a real set-associative trace
//! cache exhibits, rather than LRU's all-or-nothing cliff on cyclic
//! over-capacity working sets.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for the u64 block keys. Hash quality only affects
/// speed, never results: the map is used purely for membership and
/// indexing, and the victim choice comes from a separate xorshift stream.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let mut h = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 29;
        self.0 = h;
    }
}

/// Sentinel for "no cached most-recent key" (real keys carry a non-zero
/// ASID in bits 32+, so they never reach `u64::MAX`).
const NO_KEY: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u64,
    uops: u32,
}

/// The shared trace cache of one core.
#[derive(Debug, Clone)]
pub struct TraceCache {
    /// key → index into `entries`.
    map: HashMap<u64, usize, BuildHasherDefault<KeyHasher>>,
    entries: Vec<Entry>,
    used: u64,
    budget: u64,
    /// Deterministic LCG state for victim selection.
    rng: u64,
    /// The most recently accessed resident key: hits mutate nothing, so a
    /// repeat of this key can return without touching the map. Cleared
    /// when eviction removes it.
    last_key: u64,
}

impl TraceCache {
    /// A trace cache holding `capacity_uops` decoded uops.
    pub fn new(capacity_uops: u64) -> Self {
        assert!(capacity_uops >= 64, "unreasonably small trace cache");
        Self {
            map: HashMap::default(),
            entries: Vec::new(),
            used: 0,
            budget: capacity_uops,
            rng: 0x2545_f491_4f6c_dd1d,
            last_key: NO_KEY,
        }
    }

    #[inline]
    fn next_victim(&mut self) -> usize {
        // xorshift*: deterministic, well mixed.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % self.entries.len()
    }

    /// Fetch block `key` with decoded footprint `uops`. Returns `true` on
    /// a hit; a miss installs the block, evicting pseudo-random victims
    /// until it fits. Blocks larger than the whole array are clamped.
    pub fn access(&mut self, key: u64, uops: u32) -> bool {
        if key == self.last_key {
            return true; // still resident: hits never mutate, evictions clear
        }
        if self.map.contains_key(&key) {
            self.last_key = key;
            return true;
        }
        let need = (uops.max(1) as u64).min(self.budget);
        while self.used + need > self.budget {
            let v = self.next_victim();
            let victim = self.entries.swap_remove(v);
            self.used -= victim.uops as u64;
            self.map.remove(&victim.key);
            if victim.key == self.last_key {
                self.last_key = NO_KEY;
            }
            if v < self.entries.len() {
                self.map.insert(self.entries[v].key, v);
            }
        }
        self.map.insert(key, self.entries.len());
        self.entries.push(Entry {
            key,
            uops: need as u32,
        });
        self.used += need;
        self.last_key = key;
        false
    }

    /// Total resident uops (diagnostics).
    pub fn occupancy_uops(&self) -> u64 {
        self.used
    }

    /// Number of resident blocks.
    pub fn blocks(&self) -> usize {
        self.entries.len()
    }

    /// Canonical replay-relevant snapshot (see `crate::memo`): the entry
    /// list in its exact order (swap-remove eviction makes order
    /// behavioral), the rng and last-key filter verbatim. The map is pure
    /// index bookkeeping, rebuilt on restore.
    pub(crate) fn canon(&self) -> TraceCacheCanon {
        TraceCacheCanon {
            entries: self.entries.iter().map(|e| (e.key, e.uops)).collect(),
            used: self.used,
            rng: self.rng,
            last_key: self.last_key,
        }
    }

    pub(crate) fn restore(&mut self, c: &TraceCacheCanon) {
        self.entries = c
            .entries
            .iter()
            .map(|&(key, uops)| Entry { key, uops })
            .collect();
        self.map.clear();
        for (i, e) in self.entries.iter().enumerate() {
            self.map.insert(e.key, i);
        }
        self.used = c.used;
        self.rng = c.rng;
        self.last_key = c.last_key;
    }
}

/// See [`TraceCache::canon`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct TraceCacheCanon {
    entries: Vec<(u64, u32)>,
    used: u64,
    rng: u64,
    last_key: u64,
}

#[cfg(test)]
impl TraceCacheCanon {
    pub(crate) fn heap_bytes(&self) -> usize {
        size_of_val(&*self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_miss() {
        let mut tc = TraceCache::new(12 * 1024);
        assert!(!tc.access(1, 20));
        assert!(tc.access(1, 20));
        assert_eq!(tc.blocks(), 1);
        assert_eq!(tc.occupancy_uops(), 20);
    }

    #[test]
    fn capacity_forces_eviction() {
        let mut tc = TraceCache::new(64);
        for k in 0..4 {
            assert!(!tc.access(k, 16));
        }
        assert_eq!(tc.occupancy_uops(), 64);
        assert!(!tc.access(99, 16));
        assert_eq!(tc.occupancy_uops(), 64);
        assert_eq!(tc.blocks(), 4);
        // Exactly one of the original four was evicted.
        let resident = (0..4).filter(|&k| tc.map.contains_key(&k)).count();
        assert_eq!(resident, 3);
    }

    #[test]
    fn oversized_block_clamped() {
        let mut tc = TraceCache::new(64);
        assert!(!tc.access(7, 1000));
        assert!(tc.access(7, 1000));
        assert_eq!(tc.occupancy_uops(), 64);
        assert_eq!(tc.blocks(), 1);
    }

    #[test]
    fn working_set_within_capacity_steady_state_hits() {
        let mut tc = TraceCache::new(12 * 1024);
        for k in 0..100u64 {
            tc.access(k, 20);
        }
        let mut hits = 0;
        for _ in 0..5 {
            for k in 0..100u64 {
                if tc.access(k, 20) {
                    hits += 1;
                }
            }
        }
        assert_eq!(hits, 500, "steady state must be all hits");
    }

    #[test]
    fn cyclic_overcapacity_gives_partial_hits() {
        // Footprint 2× capacity, cyclic access: random replacement keeps
        // roughly half the blocks resident (LRU would keep none).
        let mut tc = TraceCache::new(1024);
        let blocks = 128u64; // 128 × 16 = 2048 uops = 2× capacity
        for _ in 0..3 {
            for k in 0..blocks {
                tc.access(k, 16);
            }
        }
        let mut hits = 0u32;
        let rounds = 20;
        for _ in 0..rounds {
            for k in 0..blocks {
                if tc.access(k, 16) {
                    hits += 1;
                }
            }
        }
        let rate = hits as f64 / (rounds * blocks as u32) as f64;
        assert!(
            rate > 0.2 && rate < 0.8,
            "cyclic over-capacity should give partial hits, got {rate}"
        );
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut tc = TraceCache::new(512);
            let mut misses = 0;
            for i in 0..2000u64 {
                if !tc.access(i % 77, 16) {
                    misses += 1;
                }
            }
            misses
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn two_jobs_thrash_a_small_cache() {
        use crate::op::tag_address;
        let mut tc = TraceCache::new(128);
        let a = |k| tag_address(1, k);
        let b = |k| tag_address(2, k);
        tc.access(a(1), 64);
        tc.access(a(2), 64);
        assert!(tc.access(a(1), 64));
        let mut misses = 0;
        for _ in 0..10 {
            for k in [a(1), b(1), a(2), b(2)] {
                if !tc.access(k, 64) {
                    misses += 1;
                }
            }
        }
        assert!(
            misses > 10,
            "shared-capacity interference expected, got {misses}"
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Occupancy never exceeds capacity and the map stays
            /// consistent with the entry list.
            #[test]
            fn occupancy_bounded(keys in proptest::collection::vec((0u64..200, 1u32..64), 1..500)) {
                let mut tc = TraceCache::new(512);
                for (k, u) in keys {
                    tc.access(k, u);
                    prop_assert!(tc.occupancy_uops() <= 512);
                    prop_assert_eq!(tc.map.len(), tc.entries.len());
                    let sum: u64 = tc.entries.iter().map(|e| e.uops as u64).sum();
                    prop_assert_eq!(sum, tc.occupancy_uops());
                }
            }

            /// Immediately repeated fetches always hit.
            #[test]
            fn repeat_hits(keys in proptest::collection::vec(0u64..1000, 1..200)) {
                let mut tc = TraceCache::new(12 * 1024);
                for k in keys {
                    tc.access(k, 10);
                    prop_assert!(tc.access(k, 10));
                }
            }
        }
    }
}
