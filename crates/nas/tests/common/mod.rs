//! Helpers shared by the trace golden tests.

use paxsim_machine::op::Op;
use paxsim_machine::trace::TraceBuf;

/// `buf`'s ops in the 8-byte words the digests were recorded over: a
/// 3-bit tag above a 61-bit payload, and a block id of 2^29 or more as a
/// tag-6 word followed by the raw id.
pub fn eight_byte_words(buf: &TraceBuf) -> Vec<u64> {
    let word = |tag: u64, payload: u64| (tag << 61) | payload;
    let mut words = Vec::with_capacity(buf.len());
    for op in buf {
        match op {
            Op::Load { addr } => words.push(word(0, addr)),
            Op::LoadDep { addr } => words.push(word(1, addr)),
            Op::Store { addr } => words.push(word(2, addr)),
            Op::Flops { n } => words.push(word(3, n as u64)),
            Op::Branch { site, taken } => words.push(word(4, (site as u64) << 1 | taken as u64)),
            Op::Block { bb, uops, body } => {
                let tail = (uops as u64) << 16 | body as u64;
                if bb < 1 << 29 {
                    words.push(word(5, (bb as u64) << 32 | tail));
                } else {
                    words.extend([word(6, tail), bb as u64]);
                }
            }
        }
    }
    words
}
