//! Trace operations — the instruction-stream abstraction between workloads
//! and the machine model.
//!
//! A workload (a NAS kernel running under the `paxsim-omp` runtime) executes
//! its real numerics natively and, as it does so, emits one [`Op`] per
//! architecturally interesting event. The engine replays these per-thread
//! streams against the shared hardware structures.
//!
//! Storage is *packed*: a [`TraceBuf`](crate::trace::TraceBuf) holds one
//! 32-bit word per op — two for a `Block` — with the op kind in the top
//! three tag bits and a 29-bit payload below. A memory op stores its
//! address as an offset from its buffer's *base* (see [`base_for`]); an
//! address outside the base's ±2^28 window, or any other value too wide
//! for 29 bits, takes the *wide* form: a tag of its own, then the value as
//! two raw words. The codec ([`pack_into`] / [`unpack_at`]) is lossless, so the
//! engine and the reference engine decode the exact `Op` stream the
//! emitters produced. A buffer a build keeps is stored *run-encoded*
//! (`RunEncoder`): one word stands for each stretch of whole ops whose
//! words repeat the words one loop body back, advanced by their stride.

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
/// at bit 56, and [`tag_address`] must never destroy address bits. The
/// codec refuses a larger address in every build (see [`pack_into`]).
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
// Packed codec: one 32-bit word per op, two for a `Block`.
//
// Word layout: [ tag: 3 bits | payload: 29 bits ].
//
//   tag 0  Load      payload = addr - base + 2^28
//   tag 1  LoadDep   payload = addr - base + 2^28
//   tag 2  Store     payload = addr - base + 2^28
//   tag 3  Flops     payload = n
//   tag 4  Branch    payload = site << 1 | taken
//   tag 5  Block     payload = bb; the next word is uops << 16 | body
//   tag 6  Run       payload = count << 5 | (period - 1): the next `count`
//                    words (1 <= period <= 32, count <= RUN_CAP) are each
//                    w[j-p] + (w[j-p] - w[j-2p]) over the decoded words
//   tag 7  Wide      payload = the tag the op would have had; its value
//                    follows as two raw words, low half first (after the
//                    uops/body word for a `Block`): the absolute address
//                    of a memory op, `n`, `site << 1 | taken` or `bb`
//
// An op takes the wide form only when its value does not fit 29 bits, so
// the inline decode is one dispatch on the tag. Raw words carry no tag:
// decoding is only defined from a known op boundary. A run starts and
// ends on op boundaries, so its word sits where a tag is read; only a
// kept buffer holds runs, and a reader expands them (`trace::Cursor`).
// ---------------------------------------------------------------------------

const TAG_SHIFT: u32 = 29;
/// Values below this fit a word's payload; also one past its mask.
const INLINE: u32 = 1 << TAG_SHIFT;
/// An inline memory op stores `addr - base + BIAS`: addresses from
/// `base - 2^28` up to `base + 2^28 - 1` fit.
const BIAS: u64 = 1 << 28;

const TAG_LOAD: u32 = 0;
const TAG_LOAD_DEP: u32 = 1;
const TAG_STORE: u32 = 2;
const TAG_FLOPS: u32 = 3;
const TAG_BRANCH: u32 = 4;
const TAG_BLOCK: u32 = 5;
const TAG_RUN: u32 = 6;
const TAG_WIDE: u32 = 7;

/// The longest period a run word names, in words.
pub(crate) const RUN_PERIOD_MAX: usize = 32;
/// The most words one run word stands for: what a reader expands at once.
/// A longer stretch takes several run words.
pub(crate) const RUN_CAP: usize = 256;
/// The fewest words worth a run word; a shorter stretch stays literal,
/// where reading it costs the engine nothing extra.
const RUN_MIN: usize = 16;

/// The base a buffer whose first memory op is at `addr` encodes against:
/// `addr` itself, clamped so that every address inside the base's window
/// lies in `0..ADDR_LIMIT`. An address the window does not hold takes the
/// wide form, and that is where the codec refuses one at the ASID byte.
/// Never 0, so a buffer may use 0 for "no base yet".
#[inline]
pub fn base_for(addr: u64) -> u64 {
    addr.clamp(BIAS, ADDR_LIMIT - BIAS)
}

/// Append the packed encoding of `op` against address base `base` (a
/// [`base_for`] value; only memory ops read it). Always inlined: every
/// emitter passes a known variant, so the match folds away and only the
/// push is left.
///
/// # Panics
///
/// On an address at or above [`ADDR_LIMIT`], in release builds too: the
/// engine's ASID tag would alias it into another job's lines. Such an
/// address is never inside a base's window, so only the cold wide path
/// checks.
#[inline(always)]
pub fn pack_into(op: Op, base: u64, words: &mut Vec<u32>) {
    match op {
        Op::Load { addr } => push_addr(TAG_LOAD, addr, base, words),
        Op::LoadDep { addr } => push_addr(TAG_LOAD_DEP, addr, base, words),
        Op::Store { addr } => push_addr(TAG_STORE, addr, base, words),
        Op::Flops { n } => push_value(TAG_FLOPS, n as u64, words),
        Op::Branch { site, taken } => {
            push_value(TAG_BRANCH, ((site as u64) << 1) | taken as u64, words)
        }
        Op::Block { bb, uops, body } => {
            let tail = ((uops as u32) << 16) | body as u32;
            if bb < INLINE {
                words.extend_from_slice(&[(TAG_BLOCK << TAG_SHIFT) | bb, tail]);
            } else {
                wide(TAG_BLOCK, Some(tail), bb as u64, words);
            }
        }
    }
}

#[inline(always)]
fn push_addr(tag: u32, addr: u64, base: u64, words: &mut Vec<u32>) {
    debug_assert_eq!(base, base_for(base), "not a codec base: {base:#x}");
    let off = addr.wrapping_sub(base).wrapping_add(BIAS);
    if off < INLINE as u64 {
        words.push((tag << TAG_SHIFT) | off as u32);
    } else {
        wide_addr(tag, addr, words);
    }
}

#[inline(always)]
fn push_value(tag: u32, v: u64, words: &mut Vec<u32>) {
    if v < INLINE as u64 {
        words.push((tag << TAG_SHIFT) | v as u32);
    } else {
        wide(tag, None, v, words);
    }
}

#[cold]
#[inline(never)]
fn wide_addr(tag: u32, addr: u64, words: &mut Vec<u32>) {
    assert!(
        addr < ADDR_LIMIT,
        "trace address {addr:#x} reaches the ASID byte (>= {ADDR_LIMIT:#x})"
    );
    wide(tag, None, addr, words);
}

#[cold]
#[inline(never)]
fn wide(tag: u32, block_tail: Option<u32>, v: u64, words: &mut Vec<u32>) {
    words.push((TAG_WIDE << TAG_SHIFT) | tag);
    words.extend(block_tail);
    words.extend_from_slice(&[v as u32, (v >> 32) as u32]);
}

/// Decode the op whose first word is `words[i]` in a buffer with address
/// base `base`; returns the op and the index of the next op's first word,
/// or `None` where a run word stands instead (a reader expands it; see
/// `trace::Cursor`). `i` must be an op boundary. Always inlined: it is the
/// engine's inner loop, and building the `Op` right here lets the caller's
/// match on it fold into this one — a run word is one more arm of it.
#[inline(always)]
pub fn unpack_at(words: &[u32], base: u64, i: usize) -> Option<(Op, usize)> {
    let w = words[i];
    let p = w & (INLINE - 1);
    let addr = || base.wrapping_sub(BIAS).wrapping_add(p as u64);
    Some(match w >> TAG_SHIFT {
        TAG_LOAD => (Op::Load { addr: addr() }, i + 1),
        TAG_LOAD_DEP => (Op::LoadDep { addr: addr() }, i + 1),
        TAG_STORE => (Op::Store { addr: addr() }, i + 1),
        TAG_FLOPS => (Op::Flops { n: p }, i + 1),
        TAG_BRANCH => (
            Op::Branch {
                site: p >> 1,
                taken: p & 1 != 0,
            },
            i + 1,
        ),
        TAG_BLOCK => (block(p, words[i + 1]), i + 2),
        TAG_RUN => return None,
        TAG_WIDE => {
            let at = i + 1 + (p == TAG_BLOCK) as usize;
            let v = words[at] as u64 | (words[at + 1] as u64) << 32;
            let op = match p {
                TAG_LOAD => Op::Load { addr: v },
                TAG_LOAD_DEP => Op::LoadDep { addr: v },
                TAG_STORE => Op::Store { addr: v },
                TAG_FLOPS => Op::Flops { n: v as u32 },
                TAG_BRANCH => Op::Branch {
                    site: (v >> 1) as u32,
                    taken: v & 1 != 0,
                },
                TAG_BLOCK => block(v as u32, words[i + 1]),
                t => unreachable!("corrupt packed trace word: wide tag {t}"),
            };
            (op, at + 2)
        }
        t => unreachable!("corrupt packed trace word: tag {t}"),
    })
}

/// The index after the op whose first word is `words[i]` (not a run word).
#[inline]
pub(crate) fn op_end(words: &[u32], i: usize) -> usize {
    match words[i] >> TAG_SHIFT {
        TAG_BLOCK => i + 2,
        TAG_WIDE => i + 3 + (words[i] & (INLINE - 1) == TAG_BLOCK) as usize,
        _ => i + 1,
    }
}

/// The `(count, period)` of a run word, `None` for any other first word.
#[inline(always)]
pub(crate) fn run_of(w: u32) -> Option<(usize, usize)> {
    (w >> TAG_SHIFT == TAG_RUN).then(|| (((w & (INLINE - 1)) >> 5) as usize, (w & 31) as usize + 1))
}

/// The word a run of period `p` holds at `k` of `words`.
#[inline(always)]
pub(crate) fn predicted(words: &[u32], k: usize, p: usize) -> u32 {
    words[k - p].wrapping_mul(2).wrapping_sub(words[k - 2 * p])
}

/// Write the words of a run of period `p` to `out`, after the `2p` words
/// of `history`. Each word is the one `p` back plus that position's
/// stride, so it is the one `q` back plus `q / p` strides for `q` any
/// multiple of `p`: with `q` at least 16, the words fill in blocks the
/// compiler vectorizes, starting from a block `q` before the run's first.
pub(crate) fn expand_run(history: &[u32], out: &mut [u32], p: usize) {
    let reps = 16usize.div_ceil(p);
    let q = reps * p;
    let (mut step, mut block) = ([0u32; 2 * RUN_PERIOD_MAX], [0u32; 2 * RUN_PERIOD_MAX]);
    for r in 0..p {
        let last = history[p + r];
        let stride = last.wrapping_sub(history[r]);
        for m in 0..reps {
            block[m * p + r] = last.wrapping_sub(stride.wrapping_mul((reps - 1 - m) as u32));
            step[m * p + r] = stride.wrapping_mul(reps as u32);
        }
    }
    for words in out.chunks_mut(q) {
        let n = words.len();
        let (block, step) = (&mut block[..n], &step[..n]);
        for k in 0..n {
            block[k] = block[k].wrapping_add(step[k]);
            words[k] = block[k];
        }
    }
}

/// The run encoder: decoded words in, pushed in chunks of any size, run-
/// encoded words and the index of each run word among them out. A greedy
/// walk over the ops: an op opens a run with the first period that
/// predicts the `RUN_MIN` words from it — the last run's, then the
/// distances back to the last two ops with its tag (the same op one loop
/// body back, when a body holds two of them) — and the run takes every
/// whole op after it up to the first word the period does not predict. A
/// run reads back no further than the start of the run before it, so a
/// reader keeps just that run's words. O(words): a run's words are checked
/// once, in blocks, and an op outside runs against at most three periods,
/// none twice where it already failed. Every decision waits for the words
/// it reads, so the output is the same however the input is chunked, and
/// equal words encode equal. It holds the words it may still read — two
/// periods before the run or op it is at, and the run's words — and
/// passes every word behind them on to the output.
#[derive(Debug)]
pub(crate) struct RunEncoder {
    /// The input words it may still read. Every index below is into them,
    /// and moves down as they are dropped from the front.
    raw: Vec<u32>,
    /// The encoded words so far, and the index of each run word in them.
    out: Vec<u32>,
    runs: Vec<u32>,
    /// Per period, the first word it failed to predict: an op before that
    /// word cannot open a run with it (0: none yet).
    failed: [usize; RUN_PERIOD_MAX + 1],
    /// Per tag, the first words of the last two ops with it.
    last: [[usize; 2]; 8],
    /// The period of the last run opened, and where the last run kept
    /// starts.
    period: usize,
    floor: usize,
    /// The first word not yet on `out`.
    lit: usize,
    /// The op to look at next, while no run is open (stale while one is).
    at: usize,
    /// The run being extended.
    run: Option<OpenRun>,
}

/// A run the encoder has opened and not yet closed.
#[derive(Debug, Clone, Copy)]
struct OpenRun {
    p: usize,
    /// Where the part not yet closed starts, and the op after its last.
    start: usize,
    j: usize,
    /// Every word before `checked` is predicted.
    checked: usize,
}

impl Default for RunEncoder {
    fn default() -> Self {
        RunEncoder {
            raw: Vec::new(),
            out: Vec::new(),
            runs: Vec::new(),
            failed: [0; RUN_PERIOD_MAX + 1],
            last: [[usize::MAX; 2]; 8],
            period: 0,
            floor: 0,
            lit: 0,
            at: 0,
            run: None,
        }
    }
}

impl RunEncoder {
    /// Take the next words of the input.
    pub(crate) fn push(&mut self, words: &[u32]) {
        self.raw.extend_from_slice(words);
        self.advance(false);
        // Every word before the op or run it is at is decided: pass the
        // literal ones on, and keep two periods of them to read back.
        let pos = self.run.map_or(self.at, |r| r.start);
        self.out.extend_from_slice(&self.raw[self.lit..pos]);
        self.lit = pos;
        let gone = pos.saturating_sub(2 * RUN_PERIOD_MAX);
        if gone > 0 {
            self.raw.drain(..gone);
            self.rebase(gone);
        }
    }

    /// The encoded words and the index of their run words, the input ended.
    pub(crate) fn finish(mut self) -> (Vec<u32>, Vec<u32>) {
        self.advance(true);
        self.out.extend_from_slice(&self.raw[self.lit..]);
        (self.out, self.runs)
    }

    /// Move every index down by the `gone` words dropped from the front.
    /// The last ops of each tag keep their distances, wrapping; a failure
    /// or floor that falls below the front saturates to 0, which still
    /// says what it said: every op from here on, at or past
    /// `2 * RUN_PERIOD_MAX`, is past it.
    fn rebase(&mut self, gone: usize) {
        for f in &mut self.failed {
            *f = f.saturating_sub(gone);
        }
        for i in self.last.iter_mut().flatten() {
            *i = i.wrapping_sub(gone);
        }
        self.floor = self.floor.saturating_sub(gone);
        self.lit -= gone;
        match &mut self.run {
            Some(run) => {
                run.start -= gone;
                run.j -= gone;
                run.checked -= gone;
            }
            None => self.at -= gone,
        }
    }

    /// Walk the ops as far as the words seen decide; at the `end` of the
    /// input, to it.
    fn advance(&mut self, end: bool) {
        // The tables the walk reads and writes per op, as locals.
        let (mut last, mut failed) = (self.last, self.failed);
        self.walk(end, &mut last, &mut failed);
        (self.last, self.failed) = (last, failed);
    }

    /// [`RunEncoder::advance`] with `last` and `failed` held apart.
    fn walk(
        &mut self,
        end: bool,
        last: &mut [[usize; 2]; 8],
        failed: &mut [usize; RUN_PERIOD_MAX + 1],
    ) {
        let raw = &self.raw[..];
        let len = raw.len();
        // Note the op at `i` among its tag's last two; the two before it.
        let mut seen = |i: usize| {
            let tag = (raw[i] >> TAG_SHIFT) as usize;
            let [a, b] = last[tag];
            last[tag] = [i, a];
            [a, b]
        };
        let (out, runs, lit) = (&mut self.out, &mut self.runs, &mut self.lit);
        let mut close = |start: usize, end: usize, p: usize| {
            let kept = end - start >= RUN_MIN;
            if kept {
                out.extend_from_slice(&raw[*lit..start]);
                runs.push(out.len() as u32);
                out.push(TAG_RUN << TAG_SHIFT | ((end - start) as u32) << 5 | (p as u32 - 1));
                *lit = end;
            }
            kept
        };
        loop {
            if let Some(OpenRun {
                p,
                mut start,
                mut j,
                checked,
            }) = self.run
            {
                let stop = predicted_to(raw, checked, p).or(end.then_some(len));
                let limit = stop.unwrap_or(len);
                while j < limit {
                    let next = op_end(raw, j);
                    if next > limit {
                        break;
                    }
                    seen(j);
                    if next - start > RUN_CAP {
                        close(start, j, p);
                        (self.floor, start) = (start, j);
                    }
                    j = next;
                }
                if stop.is_none() {
                    let run = OpenRun {
                        p,
                        start,
                        j,
                        checked: len,
                    };
                    self.run = Some(run);
                    return;
                }
                if close(start, j, p) {
                    self.floor = start;
                }
                (self.at, self.run) = (j, None);
                continue;
            }
            // No run open: look at one op after another, with what a run
            // opening would change held still.
            let (floor, period) = (self.floor, self.period);
            let mut opens = |i: usize, p: usize| {
                if p.wrapping_sub(1) >= RUN_PERIOD_MAX || i < floor + 2 * p || i + RUN_MIN > len {
                    return false;
                }
                if i <= failed[p] && failed[p] != 0 {
                    return false;
                }
                match (i..i + RUN_MIN).find(|&k| raw[k] != predicted(raw, k, p)) {
                    Some(k) => {
                        failed[p] = k;
                        false
                    }
                    None => true,
                }
            };
            // Short of the end, an op waits for the RUN_MIN words it reads.
            let scan_end = if end {
                len
            } else {
                (len + 1).saturating_sub(RUN_MIN)
            };
            let mut i = self.at;
            let opened = loop {
                if i >= scan_end {
                    break None;
                }
                let next = op_end(raw, i);
                let [a, b] = seen(i);
                let tries = [period, i.wrapping_sub(a), i.wrapping_sub(b)];
                if let Some(p) = tries.into_iter().find(|&p| opens(i, p)) {
                    break Some((p, next));
                }
                i = next;
            };
            self.at = i;
            let Some((p, next)) = opened else {
                return;
            };
            self.period = p;
            self.run = Some(OpenRun {
                p,
                start: i,
                j: next,
                checked: i + RUN_MIN,
            });
        }
    }
}

/// The first index from `start` on whose word a run of period `p` does not
/// predict, checked sixteen words at a time; `None` if every word to the
/// end of `raw` is predicted.
fn predicted_to(raw: &[u32], start: usize, p: usize) -> Option<usize> {
    let mut k = start;
    while k < raw.len() {
        let end = (k + 16).min(raw.len());
        if !follows(raw, k, end, p) {
            let miss = (k..end).find(|&m| raw[m] != predicted(raw, m, p));
            return Some(miss.expect("a word the block check missed"));
        }
        k = end;
    }
    None
}

/// How far a stream of decoded words has followed a run-encoded array:
/// compared without decoding, each literal stretch as it is, and each word
/// a run stands for against what the run predicts from the stream itself —
/// then, word by word, it is what a reader would expand. The stream may
/// come in chunks of any size.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Follow {
    /// Index in the stored words of the next literal word, or of the word
    /// after the run being followed.
    s: usize,
    /// Index in the run index of the next run word.
    r: usize,
    /// Words of that run still to come, and its period.
    left: usize,
    p: usize,
}

impl Follow {
    /// Do `raw[from..]` continue the words run-encoded `stored`, with its
    /// run words at `runs`, decodes to, from where this follow stands?
    /// `raw[..from]` are the words before, as far back as a run reads.
    pub(crate) fn advance(
        &mut self,
        stored: &[u32],
        runs: &[u32],
        raw: &[u32],
        from: usize,
    ) -> bool {
        let mut a = from;
        while a < raw.len() {
            if self.left > 0 {
                let n = self.left.min(raw.len() - a);
                if a < 2 * self.p || !follows(raw, a, a + n, self.p) {
                    return false;
                }
                (self.left, a) = (self.left - n, a + n);
                continue;
            }
            let run = runs.get(self.r).map_or(stored.len(), |&r| r as usize);
            if self.s == run {
                let Some((count, p)) = stored.get(run).and_then(|&w| run_of(w)) else {
                    return false;
                };
                (self.left, self.p, self.s, self.r) = (count, p, run + 1, self.r + 1);
                continue;
            }
            let n = (run - self.s).min(raw.len() - a);
            if raw[a..a + n] != stored[self.s..self.s + n] {
                return false;
            }
            (self.s, a) = (self.s + n, a + n);
        }
        true
    }

    /// Has the stream followed every word `stored` decodes to?
    pub(crate) fn done(&self, stored: &[u32]) -> bool {
        self.left == 0 && self.s == stored.len()
    }
}

/// Do `raw[start..end]` follow the run of period `p`? Branch-free over the
/// words, so it vectorizes: a build compares every repeat this way.
fn follows(raw: &[u32], start: usize, end: usize, p: usize) -> bool {
    let (now, back, back2) = (&raw[start..end], &raw[start - p..], &raw[start - 2 * p..]);
    now.iter()
        .zip(back)
        .zip(back2)
        .fold(0, |miss, ((&w, &b), &b2)| {
            miss | (w ^ b.wrapping_mul(2).wrapping_sub(b2))
        })
        == 0
}

#[inline(always)]
fn block(bb: u32, tail: u32) -> Op {
    Op::Block {
        bb,
        uops: (tail >> 16) as u16,
        body: tail as u16,
    }
}

/// The `n` of the `Flops` op whose first word is `words[i]`. Used by the
/// trace builder for adjacent-`Flops` coalescing.
#[inline(always)]
pub(crate) fn flops_at(words: &[u32], i: usize) -> u32 {
    match words[i] >> TAG_SHIFT {
        TAG_WIDE => words[i + 1],
        _ => words[i] & (INLINE - 1),
    }
}

/// Replace the `body` field of a block's uops/body word (the word after
/// its id word, in both forms).
#[inline]
pub(crate) fn patch_body(tail: u32, body: u16) -> u32 {
    (tail & !0xffff) | body as u32
}

/// The current `body` field of a block's uops/body word.
#[inline]
pub(crate) fn body_of(tail: u32) -> u16 {
    tail as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pack `ops` against `base` and decode them back, checking that op
    /// boundaries re-synchronize exactly.
    fn roundtrip(ops: &[Op], base: u64) -> (Vec<Op>, usize) {
        let mut words = Vec::new();
        for &op in ops {
            pack_into(op, base, &mut words);
        }
        let mut decoded = Vec::with_capacity(ops.len());
        let mut i = 0;
        while i < words.len() {
            let (op, next) = unpack_at(&words, base, i).expect("no run words");
            decoded.push(op);
            i = next;
        }
        assert_eq!(i, words.len());
        (decoded, words.len())
    }

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

    /// Not gated on `debug_assertions`: a release build refuses the
    /// address too, whether it is a buffer's first or sits beside a base.
    #[test]
    fn an_address_at_the_asid_byte_is_refused_in_every_build() {
        for (base_addr, addr) in [
            (ADDR_LIMIT, ADDR_LIMIT),
            (ADDR_LIMIT - 1, ADDR_LIMIT),
            (0x1000_0000, ADDR_LIMIT + 0x40),
            (0x1000_0000, u64::MAX),
        ] {
            let r = std::panic::catch_unwind(|| {
                pack_into(Op::Store { addr }, base_for(base_addr), &mut Vec::new())
            });
            let msg = r.expect_err("refused").downcast::<String>().unwrap();
            assert!(msg.contains("reaches the ASID byte"), "{msg}");
        }
    }

    #[test]
    fn op_is_compact() {
        // Keep the trace footprint bounded: 16 bytes per decoded op, and
        // the packed form is one 4-byte word for every common op but a
        // block, which is two.
        assert!(std::mem::size_of::<Op>() <= 16);
        let base = base_for(0x1000_0000);
        for (op, n) in [
            (Op::Load { addr: 0x1234_5678 }, 1),
            (Op::Flops { n: 9 }, 1),
            (
                Op::Branch {
                    site: 7,
                    taken: true,
                },
                1,
            ),
            (
                Op::Block {
                    bb: 205_000,
                    uops: 5,
                    body: 40,
                },
                2,
            ),
        ] {
            let mut w = Vec::new();
            pack_into(op, base, &mut w);
            assert_eq!(w.len(), n, "{op:?} must pack to {n} word(s)");
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
                bb: INLINE - 1,
                uops: u16::MAX,
                body: 0,
            },
            Op::Block {
                bb: u32::MAX,
                uops: 3,
                body: 77,
            },
        ];
        for base in [base_for(0), base_for(0x1000_0000), base_for(u64::MAX)] {
            assert_eq!(roundtrip(&ops, base).0, ops);
        }
    }

    #[test]
    fn codec_roundtrips_at_the_offset_edges() {
        let base = base_for(0x1000_0000 + 0x7_7740);
        let far = BIAS as i64;
        // (offset from base, inline?)
        let edges = [
            (0, true),
            (-1, true),
            (-far, true),
            (-far - 1, false),
            (far - 1, true), // an all-ones payload
            (far, false),
            (1 << 40, false), // a reduction line of the runtime
        ];
        for (off, inline) in edges {
            let addr = base.wrapping_add_signed(off);
            for op in [Op::Load { addr }, Op::LoadDep { addr }, Op::Store { addr }] {
                let (decoded, words) = roundtrip(&[op], base);
                assert_eq!(decoded, [op], "offset {off}");
                assert_eq!(words, if inline { 1 } else { 3 }, "offset {off}");
            }
        }
        // The last inline value and the first wide one of every kind.
        let ops = [
            Op::Flops { n: INLINE - 1 },
            Op::Flops { n: INLINE },
            Op::Branch {
                site: (INLINE >> 1) - 1,
                taken: true,
            },
            Op::Branch {
                site: INLINE >> 1,
                taken: false,
            },
            Op::Block {
                bb: INLINE - 1,
                uops: 1,
                body: 2,
            },
            Op::Block {
                bb: INLINE,
                uops: 1,
                body: 2,
            },
        ];
        let (decoded, words) = roundtrip(&ops, base);
        assert_eq!(decoded, ops);
        assert_eq!(words, 1 + 3 + 1 + 3 + 2 + 4);
        // A base at either clamp keeps its whole window below the ASID
        // byte and above 0.
        for base in [base_for(0), base_for(u64::MAX)] {
            let ops = [
                Op::Load { addr: base - BIAS },
                Op::Load {
                    addr: base + BIAS - 1,
                },
            ];
            assert_eq!(roundtrip(&ops, base), (ops.to_vec(), 2));
        }
    }

    #[test]
    fn block_body_patches_in_both_forms() {
        let body_word = |bb: u32| {
            let mut w = Vec::new();
            pack_into(
                Op::Block {
                    bb,
                    uops: 1,
                    body: 2,
                },
                0,
                &mut w,
            );
            // The uops/body word follows the id word in both forms.
            assert_eq!(body_of(w[1]), 2);
            w[1] = patch_body(w[1], 500);
            let (op, n) = unpack_at(&w, 0, 0).unwrap();
            assert_eq!(n, w.len());
            assert_eq!(
                op,
                Op::Block {
                    bb,
                    uops: 1,
                    body: 500
                }
            );
            n
        };
        assert_eq!(body_word(INLINE - 1), 2, "the largest inline id");
        assert_eq!(body_word(INLINE), 4, "the first wide id");
        assert_eq!(body_word(u32::MAX), 4);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_op() -> impl Strategy<Value = Op> {
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

        /// An op whose value lies within four of an edge: for a memory op
        /// the base window's two ends, the base itself or either end of the
        /// address space; otherwise the inline limit, `u32::MAX` or 0.
        fn edge_op(base: u64, kind: u8, edge: u8, d: u64, tail: u16) -> Op {
            let near = |c: u64| c.wrapping_add(d).wrapping_sub(4);
            let addrs = [base - BIAS, base + BIAS, base, ADDR_LIMIT - 4, 4];
            let addr = near(addrs[edge as usize % addrs.len()]).min(ADDR_LIMIT - 1);
            let values = [INLINE as u64, u32::MAX as u64 - 3, 4];
            let v = near(values[edge as usize % values.len()]).min(u32::MAX as u64) as u32;
            match kind {
                0 => Op::Load { addr },
                1 => Op::LoadDep { addr },
                2 => Op::Store { addr },
                3 => Op::Flops { n: v },
                4 => Op::Branch {
                    site: v,
                    taken: d & 1 != 0,
                },
                _ => Op::Block {
                    bb: v,
                    uops: tail,
                    body: tail.rotate_left(5),
                },
            }
        }

        proptest! {
            /// Pack → unpack is the identity on arbitrary op streams and
            /// bases, and op boundaries re-synchronize exactly.
            #[test]
            fn codec_roundtrip(
                ops in proptest::collection::vec(arb_op(), 0..300),
                first in 0..ADDR_LIMIT,
            ) {
                prop_assert_eq!(roundtrip(&ops, base_for(first)).0, ops);
            }

            /// The same at the edges, where inline and wide forms meet.
            #[test]
            fn codec_edges_roundtrip(
                first in 0..ADDR_LIMIT,
                picks in proptest::collection::vec(
                    (0u8..6, 0u8..15, 0u64..9, 0u16..=u16::MAX),
                    0..100,
                ),
            ) {
                let base = base_for(first);
                let ops: Vec<Op> = picks
                    .iter()
                    .map(|&(kind, edge, d, tail)| edge_op(base, kind, edge, d, tail))
                    .collect();
                prop_assert_eq!(roundtrip(&ops, base).0, ops);
            }
        }
    }
}
