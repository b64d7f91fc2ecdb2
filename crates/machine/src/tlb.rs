//! Instruction and data TLB models: small set-associative translation
//! caches over (ASID-tagged) virtual page numbers, shared by the SMT
//! siblings of a core as on the Xeon.

use crate::cache::{Lookup, SetAssoc};
use crate::config::CacheGeometry;

/// A TLB with `entries` translations, `ways`-associative, for `page`-byte
/// pages. Implemented over the generic set-associative array with one
/// "line" per page.
#[derive(Debug, Clone)]
pub struct Tlb {
    inner: SetAssoc,
    page_shift: u32,
    /// Most recently translated page (u64::MAX = none). A back-to-back
    /// access to the same page is answered with a single compare: the page
    /// is provably still resident (only this TLB's own installs evict, and
    /// none ran in between) and already most-recently-used in its set, so
    /// skipping the re-stamp leaves every relative LRU ordering — and hence
    /// all future hit/miss decisions — unchanged.
    last_page: u64,
}

impl Tlb {
    pub fn new(entries: usize, ways: usize, page: u64) -> Self {
        assert!(page.is_power_of_two(), "page size must be a power of two");
        assert!(
            entries.is_multiple_of(ways),
            "entries must divide into ways"
        );
        // Reuse the cache geometry: capacity = entries × "line" bytes where
        // the line is one page-table entry slot; use 1-byte lines and map
        // page numbers directly to line addresses.
        let geom = CacheGeometry::new(entries, ways, 1);
        Self {
            inner: SetAssoc::new(geom),
            page_shift: page.trailing_zeros(),
            last_page: u64::MAX,
        }
    }

    /// Virtual page number of a (tagged) address.
    #[inline]
    pub fn page_of(&self, addr: u64) -> u64 {
        addr >> self.page_shift
    }

    /// Translate the page containing `addr`; returns `true` on a TLB hit.
    /// On a miss the translation is installed (the page walk always
    /// succeeds — the paper's workloads never fault).
    pub fn access(&mut self, addr: u64) -> bool {
        let page = self.page_of(addr);
        if page == self.last_page {
            return true;
        }
        self.last_page = page;
        match self.inner.access(page, false) {
            Lookup::Hit { .. } => true,
            Lookup::Miss => {
                self.inner.install(page, false, 0);
                false
            }
        }
    }

    /// Number of cached translations.
    pub fn occupancy(&self) -> usize {
        self.inner.occupancy()
    }

    /// Canonical replay-relevant snapshot (see `crate::memo`). The
    /// last-page filter is captured verbatim: it is semantic here — a
    /// filtered repeat skips the inner re-stamp entirely. Translations
    /// install settled (`ready_at` 0), so a TLB canon never has anything in
    /// flight: it is its own aged image at any later clock.
    pub(crate) fn canon(&self, base: u64) -> TlbCanon {
        let inner = self.inner.canon(base);
        debug_assert!(inner.settled(), "a translation is never in flight");
        TlbCanon {
            inner,
            last_page: self.last_page,
        }
    }

    pub(crate) fn restore(&mut self, c: &TlbCanon, base: u64) {
        self.inner.restore(&c.inner, base);
        self.last_page = c.last_page;
    }
}

/// See [`Tlb::canon`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct TlbCanon {
    inner: crate::cache::SetAssocCanon,
    last_page: u64,
}

impl TlbCanon {
    /// The entries' chunks, for the interner to swap for shared copies.
    pub(crate) fn chunks_mut(
        &mut self,
    ) -> std::slice::IterMut<'_, std::sync::Arc<crate::memo::Chunk<u64>>> {
        self.inner.chunks_mut()
    }

    #[cfg(test)]
    pub(crate) fn heap_bytes(&self, seen: &mut std::collections::HashSet<usize>) -> usize {
        self.inner.heap_bytes(seen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_misses_then_hits() {
        let mut t = Tlb::new(64, 4, 4096);
        assert!(!t.access(0x1234));
        assert!(t.access(0x1fff)); // same 4 KB page
        assert!(!t.access(0x2000)); // next page
        assert!(t.access(0x2abc));
    }

    #[test]
    fn reach_is_entries_times_page() {
        let mut t = Tlb::new(64, 4, 4096);
        // Touch 64 distinct pages: all fit.
        for p in 0..64u64 {
            assert!(!t.access(p * 4096));
        }
        for p in 0..64u64 {
            assert!(t.access(p * 4096), "page {p} should still be mapped");
        }
        assert_eq!(t.occupancy(), 64);
        // The 65th page evicts something.
        assert!(!t.access(64 * 4096));
        assert_eq!(t.occupancy(), 64);
    }

    #[test]
    fn asid_tagged_pages_do_not_alias() {
        use crate::op::tag_address;
        let mut t = Tlb::new(64, 4, 4096);
        assert!(!t.access(tag_address(1, 0x5000)));
        // Same virtual page, different address space: separate translation.
        assert!(!t.access(tag_address(2, 0x5000)));
        assert!(t.access(tag_address(1, 0x5000)));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Naive reference TLB: per-set page recency lists with strict LRU
        /// replacement and no last-page filter.
        struct RefTlb {
            sets: usize,
            ways: usize,
            page_shift: u32,
            lru: Vec<Vec<u64>>,
        }

        impl RefTlb {
            fn new(entries: usize, ways: usize, page: u64) -> Self {
                Self {
                    sets: entries / ways,
                    ways,
                    page_shift: page.trailing_zeros(),
                    lru: vec![Vec::new(); entries / ways],
                }
            }

            fn access(&mut self, addr: u64) -> bool {
                let page = addr >> self.page_shift;
                let set = (page as usize) & (self.sets - 1);
                let s = &mut self.lru[set];
                if let Some(i) = s.iter().position(|&p| p == page) {
                    s.remove(i);
                    s.push(page);
                    true
                } else {
                    if s.len() == self.ways {
                        s.remove(0);
                    }
                    s.push(page);
                    false
                }
            }
        }

        proptest! {
            /// The filtered TLB answers every translation exactly like the
            /// naive reference over arbitrary address streams — including
            /// streams dense with the back-to-back repeats the last-page
            /// filter short-circuits.
            #[test]
            fn equivalent_to_reference_tlb(
                addrs in proptest::collection::vec(0u64..(32 * 4096), 1..600),
            ) {
                let mut fast = Tlb::new(16, 4, 4096);
                let mut re = RefTlb::new(16, 4, 4096);
                for (step, &a) in addrs.iter().enumerate() {
                    prop_assert_eq!(
                        fast.access(a),
                        re.access(a),
                        "TLB diverged at step {} (addr {:#x})", step, a
                    );
                }
            }
        }

        proptest! {
            /// A second pass over any page set that fits in one way-group
            /// of the TLB always hits (no false evictions for tiny sets).
            #[test]
            fn small_page_set_hits(pages in proptest::collection::hash_set(0u64..1_000_000, 1..4)) {
                let mut t = Tlb::new(64, 4, 4096);
                for &p in &pages {
                    t.access(p * 4096);
                }
                for &p in &pages {
                    prop_assert!(t.access(p * 4096));
                }
            }

            /// Miss count over a random address stream is bounded by the
            /// number of distinct pages touched (with a big enough TLB).
            #[test]
            fn misses_bounded_by_distinct_pages(addrs in proptest::collection::vec(0u64..(16*4096), 1..500)) {
                let mut t = Tlb::new(64, 4, 4096);
                let mut misses = 0u64;
                for &a in &addrs {
                    if !t.access(a) {
                        misses += 1;
                    }
                }
                let distinct: std::collections::HashSet<u64> =
                    addrs.iter().map(|a| a >> 12).collect();
                prop_assert!(misses as usize <= distinct.len());
            }
        }
    }
}
