//! Branch prediction: a gshare predictor with a pattern-history table
//! shared by a core's SMT siblings (as on Netburst) and a private global
//! history register per hardware context.
//!
//! Sharing the PHT is what produces the paper's observation that some
//! benchmarks' prediction rates collapse under HT: the two contexts alias
//! into each other's two-bit counters.

use std::sync::Arc;

use crate::memo::Chunk;

/// Per-core gshare predictor. Contexts are identified by their SMT slot
/// (0 or 1) for history purposes.
#[derive(Debug, Clone)]
pub struct Gshare {
    /// Two-bit saturating counters, initialized weakly taken (2).
    pht: Vec<u8>,
    mask: u64,
    ghr: [u64; 2],
    ghr_mask: u64,
}

impl Gshare {
    pub fn new(pht_bits: u32, ghr_bits: u32) -> Self {
        assert!((2..=24).contains(&pht_bits), "unreasonable PHT size");
        assert!(ghr_bits <= 32);
        Self {
            pht: vec![2; 1 << pht_bits],
            mask: (1u64 << pht_bits) - 1,
            ghr: [0; 2],
            ghr_mask: (1u64 << ghr_bits) - 1,
        }
    }

    #[inline]
    fn index(&self, slot: usize, site: u64) -> usize {
        // Scramble the static site so distinct sites spread over the PHT,
        // then xor with this context's history (classic gshare).
        let h = site.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 16;
        ((h ^ self.ghr[slot]) & self.mask) as usize
    }

    /// Predict and update for the branch at (ASID-tagged) static site
    /// `site` executed by SMT slot `slot` with real outcome `taken`.
    /// Returns `true` if the prediction was correct.
    pub fn execute(&mut self, slot: usize, site: u64, taken: bool) -> bool {
        let i = self.index(slot, site);
        let ctr = self.pht[i];
        let predicted_taken = ctr >= 2;
        // Update the counter.
        self.pht[i] = if taken {
            (ctr + 1).min(3)
        } else {
            ctr.saturating_sub(1)
        };
        // Update this context's history.
        self.ghr[slot] = ((self.ghr[slot] << 1) | taken as u64) & self.ghr_mask;
        predicted_taken == taken
    }

    /// Canonical memoization snapshot (see `crate::memo`). Every field is
    /// time-free, so it is the state itself: the counters, four two-bit
    /// counters to a byte and shared with every other snapshot holding the
    /// same table once interned, and the histories. The masks follow from
    /// the configuration.
    pub(crate) fn canon(&self) -> GshareCanon {
        let quads = self.pht.chunks_exact(4);
        let packed = quads.map(|q| q[0] | q[1] << 2 | q[2] << 4 | q[3] << 6);
        GshareCanon {
            pht: Chunk::new(packed.collect()),
            ghr: self.ghr,
        }
    }

    /// Install canonical state `c`, taken from a predictor of this size.
    pub(crate) fn restore(&mut self, c: &GshareCanon) {
        for (q, &b) in self.pht.chunks_exact_mut(4).zip(c.pht.iter()) {
            q.copy_from_slice(&[b & 3, b >> 2 & 3, b >> 4 & 3, b >> 6]);
        }
        self.ghr = c.ghr;
    }
}

/// See [`Gshare::canon`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct GshareCanon {
    pht: Arc<Chunk<u8>>,
    ghr: [u64; 2],
}

impl GshareCanon {
    /// The packed counter table, for the interner to swap for its shared copy.
    pub(crate) fn pht_mut(&mut self) -> &mut Arc<Chunk<u8>> {
        &mut self.pht
    }

    /// Heap bytes held, a table already in `seen` counted no more (the
    /// snapshot-size test of `crate::memo`).
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self, seen: &mut std::collections::HashSet<usize>) -> usize {
        if seen.insert(Arc::as_ptr(&self.pht) as usize) {
            self.pht.footprint()
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_always_taken() {
        let mut bp = Gshare::new(14, 12);
        let mut correct = 0;
        for _ in 0..1000 {
            if bp.execute(0, 42, true) {
                correct += 1;
            }
        }
        assert!(
            correct >= 990,
            "always-taken must be learned: {correct}/1000"
        );
    }

    #[test]
    fn learns_loop_exit_pattern() {
        // A loop branch: taken 7 times, then not taken, repeatedly. The
        // 12-bit history covers the whole period, so the exit becomes
        // predictable once trained.
        let mut bp = Gshare::new(16, 12);
        let mut wrong_late = 0;
        for rep in 0..200 {
            for i in 0..8 {
                let taken = i != 7;
                let ok = bp.execute(0, 7, taken);
                if rep >= 100 && !ok {
                    wrong_late += 1;
                }
            }
        }
        let rate = 1.0 - wrong_late as f64 / (100.0 * 8.0);
        assert!(rate > 0.95, "trained loop accuracy {rate}");
    }

    #[test]
    fn random_branches_unpredictable() {
        // A deterministic pseudo-random outcome stream: accuracy ~50%.
        let mut bp = Gshare::new(14, 12);
        let mut x = 0x12345678u64;
        let mut correct = 0;
        let n = 4000;
        for _ in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let taken = (x >> 33) & 1 == 1;
            if bp.execute(0, 9, taken) {
                correct += 1;
            }
        }
        let rate = correct as f64 / n as f64;
        assert!(rate > 0.35 && rate < 0.65, "random stream accuracy {rate}");
    }

    #[test]
    fn smt_sibling_interference_hurts() {
        // Context 0 runs a predictable loop; context 1 sprays random
        // branches over many sites. Shared PHT: context 0's accuracy must
        // drop versus running alone.
        let run = |interfere: bool| -> f64 {
            let mut bp = Gshare::new(6, 4); // tiny PHT to force aliasing
            let mut x = 0x9876_5432u64;
            let mut correct = 0u32;
            let mut total = 0u32;
            for rep in 0..400 {
                for i in 0..8 {
                    if interfere {
                        for _ in 0..8 {
                            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                            bp.execute(1, x >> 40, (x >> 17) & 1 == 1);
                        }
                    }
                    let taken = i != 7;
                    let ok = bp.execute(0, 3, taken);
                    if rep >= 100 {
                        total += 1;
                        correct += ok as u32;
                    }
                }
            }
            correct as f64 / total as f64
        };
        let alone = run(false);
        let shared = run(true);
        assert!(
            alone > shared + 0.02,
            "interference should hurt: alone {alone}, shared {shared}"
        );
    }

    #[test]
    fn a_restored_predictor_holds_the_original_counters() {
        let mut a = Gshare::new(6, 4);
        let mut x = 0x2545_f491u64;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            a.execute((x >> 7) as usize & 1, x >> 40, (x >> 17) & 3 != 0);
        }
        let canon = a.canon();
        assert_eq!(canon.pht.len(), (1 << 6) / 4);
        let mut b = Gshare::new(6, 4);
        b.restore(&canon);
        assert_eq!((&b.pht, b.ghr), (&a.pht, a.ghr));
        assert_eq!(b.canon(), canon);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The predictor never panics and accuracy on a constant stream
            /// converges to ≥ 90% for any site.
            #[test]
            fn constant_streams_learned(site in 0u64..u64::MAX, taken in proptest::bool::ANY) {
                let mut bp = Gshare::new(14, 12);
                let mut late_correct = 0;
                for i in 0..200 {
                    let ok = bp.execute(0, site, taken);
                    if i >= 100 && ok {
                        late_correct += 1;
                    }
                }
                prop_assert!(late_correct >= 90);
            }
        }
    }
}
