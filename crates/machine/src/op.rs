//! Trace operations — the instruction-stream abstraction between workloads
//! and the machine model.
//!
//! A workload (a NAS kernel running under the `paxsim-omp` runtime) executes
//! its real numerics natively and, as it does so, emits one [`Op`] per
//! architecturally interesting event. The engine replays these per-thread
//! streams against the shared hardware structures.
//!
//! Storage is *packed*: a [`TraceBuf`](crate::trace::TraceBuf) holds one
//! 8-byte word per op (two for the rare oversized block id), with the op
//! kind in the top three tag bits and the payload below. The codec here
//! ([`pack_into`] / [`unpack_at`]) is lossless, so the engine and the
//! reference engine decode the exact same `Op` stream the emitters produced.

/// One traced operation.
///
/// Addresses are *virtual* addresses in the job's address space; the engine
/// tags them with the job's ASID before they touch any cache or TLB, so the
/// same trace can be replayed as several concurrent jobs (multi-program
/// workloads) without aliasing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// An independent (streaming) load: later work does not wait on the
    /// result, so the context only stalls when its miss-level-parallelism
    /// budget is exhausted.
    Load { addr: u64 },
    /// A dependent load on the program's critical path (pointer chase,
    /// indexed gather): the context blocks until the line arrives.
    LoadDep { addr: u64 },
    /// A store. L1 is write-through (as on Netburst); misses allocate via
    /// the write buffer without stalling unless the buffer is full.
    Store { addr: u64 },
    /// `n` uops of FP/ALU work with no memory side effects.
    Flops { n: u32 },
    /// A conditional branch at static site `site` with its actual outcome.
    Branch { site: u32, taken: bool },
    /// Entry into basic block `bb`, costing `uops` front-end uops
    /// (loop/address overhead); drives the trace cache and the ITLB.
    /// `body` is the block's full decoded footprint — every uop executed
    /// until the next block begins — which is what occupies trace-cache
    /// capacity. The trace builder backfills it.
    Block { bb: u32, uops: u16, body: u16 },
}

impl Op {
    /// Number of retired instructions (uops) this operation represents.
    #[inline]
    pub fn uops(&self) -> u64 {
        match *self {
            Op::Load { .. } | Op::LoadDep { .. } | Op::Store { .. } => 1,
            Op::Flops { n } => n as u64,
            Op::Branch { .. } => 1,
            Op::Block { uops, .. } => uops as u64,
        }
    }

    /// Trace-cache footprint of this op (only blocks occupy the TC).
    #[inline]
    pub fn tc_footprint(&self) -> u32 {
        match *self {
            Op::Block { uops, body, .. } => uops.max(body) as u32,
            _ => 0,
        }
    }

    /// Is this a memory operation?
    #[inline]
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            Op::Load { .. } | Op::LoadDep { .. } | Op::Store { .. }
        )
    }
}

/// Highest address (exclusive) a trace may reference: the ASID byte starts
/// at bit 56, and [`tag_address`] must never destroy address bits.
pub const ADDR_LIMIT: u64 = 1 << 56;

/// Compose the effective physical tag for `addr` under address-space `asid`.
/// The ASID occupies the top byte, well above any arena-assigned address;
/// debug builds verify the address really is below the ASID byte instead of
/// silently masking it away.
#[inline]
pub fn tag_address(asid: u8, addr: u64) -> u64 {
    debug_assert!(
        addr < ADDR_LIMIT,
        "address {addr:#x} collides with the ASID byte (>= {ADDR_LIMIT:#x})"
    );
    addr | ((asid as u64) << 56)
}

// ---------------------------------------------------------------------------
// Packed codec: one 8-byte word per op (two for oversized block ids).
//
// Word layout: [ tag: 3 bits | payload: 61 bits ].
//
//   tag 0  Load      payload = addr            (addr < 2^56 < 2^61)
//   tag 1  LoadDep   payload = addr
//   tag 2  Store     payload = addr
//   tag 3  Flops     payload = n               (u32)
//   tag 4  Branch    payload = site << 1 | taken
//   tag 5  Block     payload = bb << 32 | uops << 16 | body   (bb < 2^29)
//   tag 6  BlockExt  payload = uops << 16 | body; the *next* word is the
//                    raw 64-bit block id (no tag — never inspect a word
//                    without decoding from a known op boundary)
//
// In both block encodings `body` occupies the low 16 bits of the first
// word, so the trace builder can backfill it with one masked store.
// ---------------------------------------------------------------------------

const TAG_SHIFT: u32 = 61;
const PAYLOAD_MASK: u64 = (1 << TAG_SHIFT) - 1;

const TAG_LOAD: u64 = 0;
const TAG_LOAD_DEP: u64 = 1;
const TAG_STORE: u64 = 2;
const TAG_FLOPS: u64 = 3;
const TAG_BRANCH: u64 = 4;
const TAG_BLOCK: u64 = 5;
const TAG_BLOCK_EXT: u64 = 6;

/// Largest block id that fits the one-word `Block` encoding.
const BB_INLINE_LIMIT: u64 = 1 << 29;

#[inline]
fn word(tag: u64, payload: u64) -> u64 {
    debug_assert!(payload <= PAYLOAD_MASK);
    (tag << TAG_SHIFT) | payload
}

/// Append the packed encoding of `op` (one word, or two for a `Block` with
/// an id of 2^29 or more). Always inlined: every emitter passes a known
/// variant, so the match folds away and only the push is left.
#[inline(always)]
pub fn pack_into(op: Op, words: &mut Vec<u64>) {
    match op {
        Op::Load { addr } => {
            debug_assert!(addr < ADDR_LIMIT, "trace address {addr:#x} out of range");
            words.push(word(TAG_LOAD, addr));
        }
        Op::LoadDep { addr } => {
            debug_assert!(addr < ADDR_LIMIT, "trace address {addr:#x} out of range");
            words.push(word(TAG_LOAD_DEP, addr));
        }
        Op::Store { addr } => {
            debug_assert!(addr < ADDR_LIMIT, "trace address {addr:#x} out of range");
            words.push(word(TAG_STORE, addr));
        }
        Op::Flops { n } => words.push(word(TAG_FLOPS, n as u64)),
        Op::Branch { site, taken } => {
            words.push(word(TAG_BRANCH, ((site as u64) << 1) | taken as u64));
        }
        Op::Block { bb, uops, body } => {
            let tail = ((uops as u64) << 16) | body as u64;
            if (bb as u64) < BB_INLINE_LIMIT {
                words.push(word(TAG_BLOCK, ((bb as u64) << 32) | tail));
            } else {
                words.push(word(TAG_BLOCK_EXT, tail));
                words.push(bb as u64);
            }
        }
    }
}

/// Decode the op whose first word is `words[i]`; returns the op and the
/// index of the next op's first word. `i` must be an op boundary.
#[inline]
pub fn unpack_at(words: &[u64], i: usize) -> (Op, usize) {
    let w = words[i];
    let payload = w & PAYLOAD_MASK;
    let op = match w >> TAG_SHIFT {
        TAG_LOAD => Op::Load { addr: payload },
        TAG_LOAD_DEP => Op::LoadDep { addr: payload },
        TAG_STORE => Op::Store { addr: payload },
        TAG_FLOPS => Op::Flops { n: payload as u32 },
        TAG_BRANCH => Op::Branch {
            site: (payload >> 1) as u32,
            taken: payload & 1 != 0,
        },
        TAG_BLOCK => Op::Block {
            bb: (payload >> 32) as u32,
            uops: (payload >> 16) as u16,
            body: payload as u16,
        },
        TAG_BLOCK_EXT => {
            return (
                Op::Block {
                    bb: words[i + 1] as u32,
                    uops: (payload >> 16) as u16,
                    body: payload as u16,
                },
                i + 2,
            );
        }
        t => unreachable!("corrupt packed trace word: tag {t}"),
    };
    (op, i + 1)
}

/// Is `w` (known to start an op) a `Flops` word? Used by the trace builder
/// for adjacent-`Flops` coalescing.
#[inline]
pub(crate) fn is_flops_word(w: u64) -> bool {
    w >> TAG_SHIFT == TAG_FLOPS
}

/// The `n` of a `Flops` word.
#[inline]
pub(crate) fn flops_of(w: u64) -> u32 {
    debug_assert!(is_flops_word(w));
    (w & PAYLOAD_MASK) as u32
}

/// Build a `Flops` word.
#[inline]
pub(crate) fn flops_word(n: u32) -> u64 {
    word(TAG_FLOPS, n as u64)
}

/// Replace the `body` field (low 16 bits) of a block's first word.
#[inline]
pub(crate) fn patch_body(w: u64, body: u16) -> u64 {
    debug_assert!(matches!(w >> TAG_SHIFT, TAG_BLOCK | TAG_BLOCK_EXT));
    (w & !0xffff) | body as u64
}

/// The current `body` field of a block's first word.
#[inline]
pub(crate) fn body_of(w: u64) -> u16 {
    debug_assert!(matches!(w >> TAG_SHIFT, TAG_BLOCK | TAG_BLOCK_EXT));
    w as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uop_accounting() {
        assert_eq!(Op::Load { addr: 0 }.uops(), 1);
        assert_eq!(Op::Flops { n: 17 }.uops(), 17);
        assert_eq!(
            Op::Block {
                bb: 3,
                uops: 5,
                body: 9
            }
            .uops(),
            5
        );
        assert_eq!(
            Op::Branch {
                site: 1,
                taken: true
            }
            .uops(),
            1
        );
    }

    #[test]
    fn memory_classification() {
        assert!(Op::Load { addr: 1 }.is_memory());
        assert!(Op::LoadDep { addr: 1 }.is_memory());
        assert!(Op::Store { addr: 1 }.is_memory());
        assert!(!Op::Flops { n: 1 }.is_memory());
        assert!(!Op::Block {
            bb: 0,
            uops: 1,
            body: 1
        }
        .is_memory());
    }

    #[test]
    fn asid_tagging_disjoint() {
        let a = tag_address(1, 0xdead_beef);
        let b = tag_address(2, 0xdead_beef);
        assert_ne!(a, b);
        assert_eq!(a & (ADDR_LIMIT - 1), 0xdead_beef);
        // The largest legal arena address keeps all its bits.
        assert_eq!(tag_address(3, ADDR_LIMIT - 1) >> 56, 3);
        assert_eq!(
            tag_address(3, ADDR_LIMIT - 1) & (ADDR_LIMIT - 1),
            ADDR_LIMIT - 1
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "collides with the ASID byte")]
    fn asid_collision_caught_in_debug() {
        let _ = tag_address(1, ADDR_LIMIT);
    }

    #[test]
    fn op_is_compact() {
        // Keep the trace footprint bounded: 16 bytes per decoded op, and
        // the packed form is a single 8-byte word for every common op.
        assert!(std::mem::size_of::<Op>() <= 16);
        let mut w = Vec::new();
        for op in [
            Op::Load { addr: 0x1234 },
            Op::Flops { n: 9 },
            Op::Branch {
                site: 7,
                taken: true,
            },
            Op::Block {
                bb: 205_000,
                uops: 5,
                body: 40,
            },
        ] {
            w.clear();
            pack_into(op, &mut w);
            assert_eq!(w.len(), 1, "{op:?} must pack to one word");
        }
    }

    #[test]
    fn codec_roundtrips_every_kind() {
        let ops = [
            Op::Load { addr: 0 },
            Op::Load {
                addr: ADDR_LIMIT - 1,
            },
            Op::LoadDep {
                addr: 0x7f00_0000_0000,
            },
            Op::Store {
                addr: 0x0e80_0000_0040,
            },
            Op::Flops { n: 0 },
            Op::Flops { n: u32::MAX },
            Op::Branch {
                site: u32::MAX,
                taken: false,
            },
            Op::Branch {
                site: 0,
                taken: true,
            },
            Op::Block {
                bb: (BB_INLINE_LIMIT - 1) as u32,
                uops: u16::MAX,
                body: 0,
            },
            // Oversized id: takes the two-word escape.
            Op::Block {
                bb: u32::MAX,
                uops: 3,
                body: 77,
            },
        ];
        let mut words = Vec::new();
        for &op in &ops {
            pack_into(op, &mut words);
        }
        let mut i = 0;
        for &op in &ops {
            let (got, next) = unpack_at(&words, i);
            assert_eq!(got, op);
            i = next;
        }
        assert_eq!(i, words.len());
    }

    #[test]
    fn block_ext_uses_two_words() {
        let mut w = Vec::new();
        pack_into(
            Op::Block {
                bb: u32::MAX,
                uops: 1,
                body: 2,
            },
            &mut w,
        );
        assert_eq!(w.len(), 2);
        // Body patching works on both encodings.
        assert_eq!(body_of(w[0]), 2);
        w[0] = patch_body(w[0], 500);
        let (op, n) = unpack_at(&w, 0);
        assert_eq!(n, 2);
        assert_eq!(
            op,
            Op::Block {
                bb: u32::MAX,
                uops: 1,
                body: 500
            }
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        pub(crate) fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0..ADDR_LIMIT).prop_map(|addr| Op::Load { addr }),
                (0..ADDR_LIMIT).prop_map(|addr| Op::LoadDep { addr }),
                (0..ADDR_LIMIT).prop_map(|addr| Op::Store { addr }),
                (0u32..=u32::MAX).prop_map(|n| Op::Flops { n }),
                ((0u32..=u32::MAX), proptest::bool::ANY)
                    .prop_map(|(site, taken)| Op::Branch { site, taken }),
                ((0u32..=u32::MAX), (0u16..=u16::MAX), (0u16..=u16::MAX))
                    .prop_map(|(bb, uops, body)| Op::Block { bb, uops, body }),
            ]
        }

        proptest! {
            /// Pack → unpack is the identity on arbitrary op streams, and
            /// op boundaries re-synchronize exactly.
            #[test]
            fn codec_roundtrip(ops in proptest::collection::vec(arb_op(), 0..300)) {
                let mut words = Vec::new();
                for &op in &ops {
                    pack_into(op, &mut words);
                }
                let mut decoded = Vec::with_capacity(ops.len());
                let mut i = 0;
                while i < words.len() {
                    let (op, next) = unpack_at(&words, i);
                    decoded.push(op);
                    i = next;
                }
                prop_assert_eq!(decoded, ops);
            }
        }
    }
}
