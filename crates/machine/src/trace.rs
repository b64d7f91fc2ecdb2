//! Per-thread operation traces and whole-program trace containers.
//!
//! A [`ProgramTrace`] is a sequence of fork/join *regions*. Each region has
//! one [`TraceBuf`] per OpenMP thread (serial regions carry ops only on
//! thread 0). Traces depend only on the thread count and loop schedule —
//! *not* on the machine configuration — so one trace can be replayed across
//! every hardware configuration of the study, and twice concurrently for
//! multi-program workloads.
//!
//! Four layers keep big iterative programs small:
//!
//! * each buffer stores its ops *packed* — one 4-byte word per op, two
//!   for a block, addresses as offsets from the buffer's base (see
//!   [`crate::op`]) — with adjacent `Flops` coalesced and uops counted at
//!   emission time, so neither replay nor an instruction count needs the
//!   16-byte `Op`;
//! * regions are held by `Arc`, so emitters (the `paxsim-omp` runtime)
//!   can *intern* structurally identical regions: an iterative solver's
//!   N identical iterations occupy one region's storage, not N;
//! * a build's buffers share their *words*: a buffer whose words equal
//!   those of a buffer the same build kept earlier — the same thread of an
//!   earlier region, or another thread's, the same sweep over its own
//!   slab — holds that array and keeps its own base ([`WordTable`]);
//! * a kept array is *run-encoded*: one word stands for each stretch of
//!   whole ops whose words repeat the words one loop body back, advanced
//!   by their stride — a strided loop keeps two iterations and a run word
//!   per 256 words. Readers see the decoded words through a `Cursor`:
//!   literal stretches in place, runs expanded into a small buffer of
//!   the reader's. A kept array is never written again.
//!
//! A build never holds a region's words whole. A buffer it writes
//! ([`WordTable::open`]) keeps a small window: a word leaves it once
//! neither the body backfill nor `Flops` coalescing can rewrite it, and is
//! compared with the kept arrays it may repeat — or, once none is left,
//! run-encoded.

use std::collections::HashMap;
use std::sync::Arc;

use crate::op::{self, Op};

/// A buffer's packed words: its own while it is written, and once a build
/// keeps it the run-encoded array every kept buffer with equal words holds.
#[derive(Debug)]
enum Words {
    Own(Vec<u32>),
    Kept(Arc<Kept>),
}

/// A kept buffer's run-encoded words, and the index of each run word among
/// them, so that comparing words against them takes whole literal
/// stretches at a time.
#[derive(Debug)]
struct Kept {
    stored: Box<[u32]>,
    runs: Box<[u32]>,
}

impl Kept {
    /// Bytes held: the stored words and the run index.
    fn bytes(&self) -> usize {
        (self.stored.len() + self.runs.len()) * std::mem::size_of::<u32>()
    }

    /// Pass the first `n` decoded words to `f`, a literal stretch or a run
    /// at a time, as every reader reads them.
    fn decode(&self, mut n: usize, mut f: impl FnMut(&[u32])) {
        let stored = &self.stored[..];
        let (mut cursor, mut x) = (Cursor::default(), [0; op::RUN_CAP]);
        let mut runs = self.runs.iter().map(|&r| r as usize);
        let mut stretch_end = runs.next().unwrap_or(stored.len());
        while n > 0 {
            let seg = cursor.segment(stored, &x);
            let len = if cursor.in_run {
                seg.len()
            } else {
                stretch_end - cursor.at
            };
            let take = len.min(n);
            f(&seg[..take]);
            n -= take;
            if !cursor.in_run {
                stretch_end = runs.next().unwrap_or(stored.len());
            }
            if !cursor.refill(len, stored, &mut x) {
                return;
            }
        }
    }
}

impl Default for Words {
    fn default() -> Self {
        Words::Own(Vec::new())
    }
}

impl Words {
    /// The words, to write to.
    #[inline(always)]
    fn vec(&mut self) -> &mut Vec<u32> {
        match self {
            Words::Own(words) => words,
            Words::Kept(_) => written_after_keep(),
        }
    }

    /// The words as stored: run-encoded once kept.
    #[inline]
    fn stored(&self) -> &[u32] {
        match self {
            Words::Own(words) => words,
            Words::Kept(kept) => &kept.stored,
        }
    }
}

/// A write to a kept buffer, which no code makes: a build closes a buffer
/// ([`WordTable::close`]) once written and moves it behind its region's
/// `Arc`, and `TraceBuf` is not `Clone`, so none is copied out to write to.
#[cold]
#[inline(never)]
fn written_after_keep() -> ! {
    unreachable!("a kept buffer is never written: its array may be shared")
}

/// Words a streamed buffer's window may grow by before its final words
/// leave it.
const WINDOW: usize = 4096;

/// A growable buffer of trace operations for one thread in one region,
/// with convenience emitters used by the runtime and by tests.
#[derive(Debug)]
pub struct TraceBuf {
    /// Packed op words (see [`crate::op::pack_into`]); while a build
    /// streams them, the window of those not yet passed on.
    words: Words,
    /// Address base the memory ops encode against: [`op::base_for`] of
    /// the first one, 0 (never a base) until there is one.
    base: u64,
    /// Decoded op count (a multi-word op is still one op).
    n_ops: usize,
    /// Uops of every op emitted so far.
    uops: u64,
    /// Word index of the most recent `Block` op's uops/body word, for body
    /// backfilling.
    open_block: Option<usize>,
    /// Uops accumulated since that block began (including its own).
    open_uops: u64,
    /// Word index of a trailing `Flops` op eligible for coalescing. Must be
    /// tracked explicitly: the last *word* of the buffer may be a raw
    /// word of a multi-word op and carries no tag.
    tail_flops: Option<usize>,
    /// Where the final words go while a build streams them.
    stream: Option<Box<Stream>>,
    /// The window length at which its final words leave it; never for a
    /// buffer that is not streamed.
    limit: usize,
}

impl Default for TraceBuf {
    fn default() -> Self {
        TraceBuf {
            words: Words::default(),
            base: 0,
            n_ops: 0,
            uops: 0,
            open_block: None,
            open_uops: 0,
            tail_flops: None,
            stream: None,
            limit: usize::MAX,
        }
    }
}

impl TraceBuf {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(n: usize) -> Self {
        Self {
            words: Words::Own(Vec::with_capacity(n)),
            ..Self::default()
        }
    }

    /// Append one encoded op without touching the open-block or
    /// coalescing state beyond what `op` requires.
    #[inline(always)]
    fn emit(&mut self, op: Op) {
        let words = self.words.vec();
        op::pack_into(op, self.base, words);
        if words.len() >= self.limit {
            self.pass_on();
        }
        self.n_ops += 1;
        self.uops += op.uops();
    }

    /// Pass the window's final words on to the stream: every word before
    /// the open block's body word, which the backfill patches, and before
    /// a trailing `Flops` op, which coalescing rewrites. Two periods of
    /// them stay behind, for a run to read back.
    #[cold]
    #[inline(never)]
    fn pass_on(&mut self) {
        let Words::Own(window) = &mut self.words else {
            unreachable!("a streamed buffer writes its own words")
        };
        let stream = self
            .stream
            .as_mut()
            .expect("only a streamed buffer passes words on");
        // A body of u16::MAX uops or more is final: backfill it now.
        if let Some(i) = self
            .open_block
            .filter(|_| self.open_uops >= u16::MAX as u64)
        {
            window[i] = op::patch_body(window[i], u16::MAX);
            self.open_block = None;
        }
        let end = [self.open_block, self.tail_flops]
            .into_iter()
            .flatten()
            .fold(window.len(), usize::min);
        stream.push(&window[..end]);
        let gone = end.saturating_sub(HIST);
        window.drain(..gone);
        stream.front = end - gone;
        self.open_block = self.open_block.map(|i| i - gone);
        self.tail_flops = self.tail_flops.map(|i| i - gone);
        self.limit = window.len() + WINDOW;
    }

    /// Append a memory op, fixing the buffer's address base on its first.
    #[inline(always)]
    fn memory(&mut self, op: Op, addr: u64) {
        if self.base == 0 {
            self.base = op::base_for(addr);
        }
        self.open_uops += 1;
        self.tail_flops = None;
        self.emit(op);
    }

    /// Append `op`. `Flops` coalesce with a trailing `Flops` op exactly as
    /// [`TraceBuf::flops`] does; other ops are stored verbatim (in
    /// particular a pushed `Block` keeps its given `body` and does not open
    /// a new block for backfilling).
    #[inline]
    pub fn push(&mut self, op: Op) {
        match op {
            Op::Flops { n } => self.flops(n),
            Op::Load { addr } | Op::LoadDep { addr } | Op::Store { addr } => self.memory(op, addr),
            _ => {
                self.open_uops += op.uops();
                self.tail_flops = None;
                self.emit(op);
            }
        }
    }

    /// Emit an independent (streaming) load.
    #[inline(always)]
    pub fn load(&mut self, addr: u64) {
        self.memory(Op::Load { addr }, addr);
    }

    /// Emit a dependent (critical-path) load.
    #[inline(always)]
    pub fn load_dep(&mut self, addr: u64) {
        self.memory(Op::LoadDep { addr }, addr);
    }

    /// Emit a store.
    #[inline(always)]
    pub fn store(&mut self, addr: u64) {
        self.memory(Op::Store { addr }, addr);
    }

    /// Emit `n` uops of FP/ALU work. Coalesces with a preceding `Flops` op
    /// to keep traces compact when kernels emit work in small pieces.
    #[inline(always)]
    pub fn flops(&mut self, n: u32) {
        if n == 0 {
            return;
        }
        self.open_uops += n as u64;
        if let Some(i) = self.tail_flops {
            let words = self.words.vec();
            if let Some(sum) = op::flops_at(words, i).checked_add(n) {
                // The trailing op is rewritten whole: the sum may need the
                // wide form where the addend did not.
                words.truncate(i);
                op::pack_into(Op::Flops { n: sum }, self.base, words);
                self.uops += n as u64;
                return;
            }
        }
        self.tail_flops = Some(self.words.vec().len());
        self.emit(Op::Flops { n });
    }

    /// Emit a conditional branch outcome at static site `site`.
    #[inline(always)]
    pub fn branch(&mut self, site: u32, taken: bool) {
        self.open_uops += 1;
        self.tail_flops = None;
        self.emit(Op::Branch { site, taken });
    }

    /// Emit a basic-block fetch. The previous block's decoded-body
    /// footprint is backfilled now that its extent is known; call
    /// [`TraceBuf::seal`] (or let the runtime do it) after the last op so
    /// the final block is finalized too.
    #[inline(always)]
    pub fn block(&mut self, bb: u32, uops: u16) {
        self.seal();
        self.tail_flops = None;
        // The uops/body word follows the id word in both forms.
        self.open_block = Some(self.words.vec().len() + 1);
        self.open_uops = uops as u64;
        self.emit(Op::Block {
            bb,
            uops,
            body: uops,
        });
    }

    /// Finalize the trailing open block's body footprint.
    pub fn seal(&mut self) {
        if let Some(i) = self.open_block.take() {
            let total = self.open_uops.min(u16::MAX as u64) as u16;
            let words = self.words.vec();
            words[i] = op::patch_body(words[i], total.max(op::body_of(words[i])));
        }
        self.open_uops = 0;
    }

    /// Number of (decoded) ops.
    pub fn len(&self) -> usize {
        self.n_ops
    }

    pub fn is_empty(&self) -> bool {
        self.n_ops == 0
    }

    /// The packed op words as stored — run-encoded once a build kept the
    /// buffer, so decode them with [`TraceBuf::iter`]. Only word 0 is
    /// sure to start an op.
    #[inline]
    pub fn words(&self) -> &[u32] {
        self.words.stored()
    }

    /// The address base the memory ops are encoded against.
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Do `self` and `other`, both kept by one build, hold the same ops?
    /// They do when they share a base and either hold one kept array or
    /// are both empty: a build keeps one array per distinct word sequence
    /// ([`WordTable`]), so for its buffers the array's identity is its
    /// content.
    pub fn same_kept(&self, other: &TraceBuf) -> bool {
        self.base == other.base
            && match (&self.words, &other.words) {
                (Words::Kept(a), Words::Kept(b)) => Arc::ptr_eq(a, b),
                (a, b) => a.stored().is_empty() && b.stored().is_empty(),
            }
    }

    /// Bytes of packed op storage: the words as stored, and a kept
    /// buffer's index of its run words.
    pub fn packed_bytes(&self) -> usize {
        match &self.words {
            Words::Own(words) => words.len() * std::mem::size_of::<u32>(),
            Words::Kept(kept) => kept.bytes(),
        }
    }

    /// Iterate the ops, decoding on the fly.
    pub fn iter(&self) -> OpIter<'_> {
        OpIter::new(self.words(), self.base)
    }

    /// Decode the full op sequence (tests / diagnostics; the engine replays
    /// the packed words directly).
    pub fn to_ops(&self) -> Vec<Op> {
        self.iter().collect()
    }

    /// Total retired instructions represented by this buffer, counted as
    /// the ops were emitted.
    pub fn instructions(&self) -> u64 {
        self.uops
    }

    /// Number of memory operations.
    pub fn memory_ops(&self) -> u64 {
        self.iter().filter(Op::is_memory).count() as u64
    }
}

impl FromIterator<Op> for TraceBuf {
    fn from_iter<T: IntoIterator<Item = Op>>(iter: T) -> Self {
        let mut buf = Self::new();
        for op in iter {
            buf.push(op);
        }
        buf
    }
}

/// Where a streamed buffer's final words go: compared with the kept arrays
/// they may repeat, as they come, and run-encoded once none is left.
#[derive(Debug, Default)]
struct Stream {
    /// The kept arrays the words have followed so far, each with how far.
    follows: Vec<(Arc<Kept>, op::Follow)>,
    /// Their run encoding, from the first word on, once every array failed.
    encoder: Option<op::RunEncoder>,
    /// Words passed on so far.
    n: usize,
    /// Words at the window's front passed on already, which a run reads
    /// back.
    front: usize,
}

impl Stream {
    /// Take `window[front..]`, the next final words.
    fn push(&mut self, window: &[u32]) {
        let (front, n) = (self.front, self.n);
        let new = &window[front..];
        if new.is_empty() {
            return;
        }
        if self.encoder.is_none() {
            let mut lost = None;
            self.follows.retain_mut(|(kept, follow)| {
                let on = follow.advance(&kept.stored, &kept.runs, window, front);
                if !on {
                    lost = Some(Arc::clone(kept));
                }
                on
            });
            if self.follows.is_empty() {
                self.encoder = Some(encoder_after(lost.as_deref(), n));
            }
        }
        if let Some(encoder) = &mut self.encoder {
            encoder.push(new);
        }
        self.n += new.len();
    }

    /// The words, all passed on: the kept array they repeat, or their own
    /// run encoding, shared through `table`.
    fn finish(self, table: &mut WordTable) -> Words {
        let n = self.n;
        if n == 0 {
            return Words::default();
        }
        let encoder = match self.encoder {
            Some(encoder) => encoder,
            None => {
                let done = self.follows.iter().find(|(kept, f)| f.done(&kept.stored));
                if let Some((kept, _)) = done {
                    return Words::Kept(Arc::clone(kept));
                }
                // Every array still followed is longer: the words are a
                // prefix of any of them.
                encoder_after(self.follows.first().map(|(kept, _)| &**kept), n)
            }
        };
        let (stored, runs) = encoder.finish();
        table.encoded += n;
        Words::Kept(table.share(Kept {
            stored: stored.into(),
            runs: runs.into(),
        }))
    }
}

/// An encoder that has taken the first `n` words, which `prefix` decodes
/// to: the words a stream had followed when the last array failed.
fn encoder_after(prefix: Option<&Kept>, n: usize) -> op::RunEncoder {
    let mut encoder = op::RunEncoder::default();
    if let Some(kept) = prefix {
        kept.decode(n, |w| encoder.push(w));
    }
    encoder
}

/// The words of the buffers one build kept, by content: a bucket key of a
/// few sampled stored words selects, equality of the stored words decides
/// (equal words encode equal). Owned by the build (the `paxsim-omp`
/// `Team`), so it lives as long as the build does.
#[derive(Debug, Default)]
pub struct WordTable {
    kept: HashMap<u64, Vec<Arc<Kept>>>,
    /// Words run-encoded so far.
    encoded: usize,
}

impl WordTable {
    /// A buffer to write one thread's words into, through `window` (empty;
    /// its allocation is reused). As they become final its words are
    /// compared with the kept arrays the `candidates` hold — buffers they
    /// may repeat; the others are passed over — and once every one has
    /// differed, run-encoded. [`WordTable::close`] ends it.
    pub fn open<'a>(
        &self,
        window: Vec<u32>,
        candidates: impl IntoIterator<Item = &'a TraceBuf>,
    ) -> TraceBuf {
        let mut follows: Vec<(Arc<Kept>, op::Follow)> = Vec::new();
        for buf in candidates {
            if let Words::Kept(kept) = &buf.words {
                if !follows.iter().any(|(k, _)| Arc::ptr_eq(k, kept)) {
                    follows.push((Arc::clone(kept), op::Follow::default()));
                }
            }
        }
        debug_assert!(window.is_empty());
        TraceBuf {
            words: Words::Own(window),
            stream: Some(Box::new(Stream {
                follows,
                ..Stream::default()
            })),
            limit: WINDOW,
            ..TraceBuf::default()
        }
    }

    /// Seal streamed `buf` and keep its words for good: the kept array
    /// they repeat, or their run encoding, shared with any equal array
    /// kept before. Its base stays its own. Returns the window, emptied.
    pub fn close(&mut self, buf: &mut TraceBuf) -> Vec<u32> {
        buf.seal();
        let mut stream = buf.stream.take().expect("a streamed buffer");
        let Words::Own(mut window) = std::mem::take(&mut buf.words) else {
            unreachable!("a streamed buffer writes its own words")
        };
        stream.push(&window);
        buf.limit = usize::MAX;
        buf.words = stream.finish(self);
        window.clear();
        window
    }

    /// Words run-encoded so far: every word of an array no candidate held.
    pub fn encoded_words(&self) -> usize {
        self.encoded
    }

    /// The array kept earlier with `kept`'s words, or `kept` from now on.
    fn share(&mut self, kept: Kept) -> Arc<Kept> {
        let bucket = self.kept.entry(sampled_key(&kept.stored)).or_default();
        if let Some(same) = bucket.iter().find(|k| k.stored == kept.stored) {
            return Arc::clone(same);
        }
        let kept = Arc::new(kept);
        bucket.push(Arc::clone(&kept));
        kept
    }
}

/// [`WordTable`]'s bucket: the length and five words spread over the
/// array, never the words in between.
fn sampled_key(words: &[u32]) -> u64 {
    let n = words.len();
    let at = [0, n / 4, n / 2, n - n / 4 - 1, n - 1];
    at.iter().fold(n as u64, |h, &i| {
        (h ^ words[i] as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Decoded words a run reads back: two of its longest periods.
const HIST: usize = 2 * op::RUN_PERIOD_MAX;

/// A reader's place in a buffer's stored words: in a *literal stretch* —
/// every op up to the next run word, read in place — or in a *run*,
/// expanded into the reader's buffer `x` of `RUN_CAP` words, where it
/// stays while the next stretch is read: a run reads back no further than
/// the start of the run before it.
///
/// A reader decodes ops from [`Cursor::segment`] with [`op::unpack_at`];
/// where that finds a run word, or the segment ends, it calls
/// [`Cursor::refill`] and goes on from index 0 of the new segment. The
/// engine and [`OpIter`] read this way.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Cursor {
    /// Stored index of the literal stretch being read, or the one after the
    /// word of the run being read.
    at: usize,
    /// Words of the last run expanded, `x[..run]`.
    run: usize,
    /// Reading that run, not the stretch at `at`.
    in_run: bool,
}

impl Cursor {
    /// The words being read: a literal stretch to the end of `stored`, or
    /// the run expanded into `x`.
    #[inline(always)]
    pub(crate) fn segment<'a>(&self, stored: &'a [u32], x: &'a [u32]) -> &'a [u32] {
        if self.in_run {
            &x[..self.run]
        } else {
            &stored[self.at..]
        }
    }

    /// Move on from index `i` of the segment — its end, or a run word in a
    /// literal stretch — to the next segment; `false` at the end of the
    /// words, where the segment is empty from then on. A run's history is
    /// the tail of the last run, in `x`, and the stretch since, in place.
    #[inline]
    pub(crate) fn refill(&mut self, i: usize, stored: &[u32], x: &mut [u32]) -> bool {
        if self.in_run {
            self.in_run = false;
            return self.at < stored.len();
        }
        let s = self.at + i;
        let Some(&w) = stored.get(s) else {
            self.at = stored.len();
            return false;
        };
        let (count, p) = op::run_of(w).expect("a segment ends at a run word or its end");
        let lit = &stored[self.at..s];
        let mut history = [0; HIST];
        let history = &mut history[..2 * p];
        let from_lit = lit.len().min(2 * p);
        let (from_run, in_lit) = history.split_at_mut(2 * p - from_lit);
        from_run.copy_from_slice(&x[self.run - from_run.len()..self.run]);
        in_lit.copy_from_slice(&lit[lit.len() - from_lit..]);
        op::expand_run(history, &mut x[..count], p);
        *self = Cursor {
            at: s + 1,
            run: count,
            in_run: true,
        };
        true
    }
}

/// Decoding iterator over a packed op stream. Allocates nothing: runs
/// expand into a buffer of its own.
#[derive(Debug, Clone)]
pub struct OpIter<'a> {
    stored: &'a [u32],
    base: u64,
    cursor: Cursor,
    /// The next op's index in the segment.
    i: usize,
    x: [u32; op::RUN_CAP],
}

impl<'a> OpIter<'a> {
    fn new(stored: &'a [u32], base: u64) -> Self {
        OpIter {
            stored,
            base,
            cursor: Cursor::default(),
            i: 0,
            x: [0; op::RUN_CAP],
        }
    }

    /// Decode the next op: it and where its words lie in `segment()`.
    #[inline]
    fn step(&mut self) -> Option<(Op, std::ops::Range<usize>)> {
        loop {
            let seg = self.cursor.segment(self.stored, &self.x);
            let i = self.i;
            let op = if i < seg.len() {
                op::unpack_at(seg, self.base, i)
            } else {
                None
            };
            if let Some((op, next)) = op {
                self.i = next;
                return Some((op, i..next));
            }
            if !self.cursor.refill(i, self.stored, &mut self.x) {
                return None;
            }
            self.i = 0;
        }
    }
}

impl Iterator for OpIter<'_> {
    type Item = Op;

    #[inline]
    fn next(&mut self) -> Option<Op> {
        self.step().map(|(op, _)| op)
    }
}

impl<'a> IntoIterator for &'a TraceBuf {
    type Item = Op;
    type IntoIter = OpIter<'a>;

    fn into_iter(self) -> OpIter<'a> {
        self.iter()
    }
}

/// One fork/join region: a trace per thread. All threads join a barrier at
/// the region's end. Thread `i`'s buffer may be empty (it still participates
/// in the barrier), which is how serial sections are represented.
#[derive(Debug, Clone)]
pub struct RegionTrace {
    pub threads: Vec<Arc<TraceBuf>>,
    /// Optional label for diagnostics ("cg.spmv", "ft.transpose", …).
    pub label: String,
}

impl RegionTrace {
    pub fn new(threads: Vec<TraceBuf>) -> Self {
        Self::labeled(threads, "")
    }

    pub fn labeled(threads: Vec<TraceBuf>, label: impl Into<String>) -> Self {
        Self {
            threads: threads
                .into_iter()
                .map(|mut t| {
                    t.seal();
                    Arc::new(t)
                })
                .collect(),
            label: label.into(),
        }
    }

    pub fn nthreads(&self) -> usize {
        self.threads.len()
    }

    pub fn instructions(&self) -> u64 {
        self.threads.iter().map(|t| t.instructions()).sum()
    }

    pub fn total_ops(&self) -> usize {
        self.threads.iter().map(|t| t.len()).sum()
    }
}

/// A complete traced program: an ordered list of regions, all with the same
/// thread arity. Regions are `Arc`-shared so iterative emitters can intern
/// repeated regions; `regions.len()` still counts *occurrences*.
#[derive(Debug, Clone)]
pub struct ProgramTrace {
    pub name: String,
    pub nthreads: usize,
    pub regions: Vec<Arc<RegionTrace>>,
}

impl ProgramTrace {
    pub fn new(name: impl Into<String>, nthreads: usize) -> Self {
        assert!(nthreads >= 1, "a program needs at least one thread");
        Self {
            name: name.into(),
            nthreads,
            regions: Vec::new(),
        }
    }

    /// Convenience constructor for a program with exactly one region.
    pub fn single_region(name: impl Into<String>, threads: Vec<TraceBuf>) -> Self {
        let nthreads = threads.len();
        let mut p = Self::new(name, nthreads);
        p.push_region(RegionTrace::new(threads));
        p
    }

    /// Append a region; its thread arity must match the program's.
    pub fn push_region(&mut self, region: RegionTrace) {
        self.push_region_arc(Arc::new(region));
    }

    /// Append an already-shared (interned) region.
    pub fn push_region_arc(&mut self, region: Arc<RegionTrace>) {
        assert_eq!(
            region.nthreads(),
            self.nthreads,
            "region thread arity must match program arity"
        );
        self.regions.push(region);
    }

    pub fn instructions(&self) -> u64 {
        self.regions.iter().map(|r| r.instructions()).sum()
    }

    pub fn total_ops(&self) -> usize {
        self.regions.iter().map(|r| r.total_ops()).sum()
    }

    /// Number of *distinct* region objects (interned regions count once).
    pub fn unique_regions(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        self.regions
            .iter()
            .filter(|r| seen.insert(Arc::as_ptr(r)))
            .count()
    }

    /// Bytes of packed op storage actually held, counting each word array
    /// once however many buffers (of interned regions, or threads sharing
    /// words) hold it.
    pub fn packed_bytes(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        self.regions
            .iter()
            .flat_map(|r| r.threads.iter())
            .filter(|t| seen.insert(t.words().as_ptr()))
            .map(|t| t.packed_bytes())
            .sum()
    }

    /// Bytes the same program would occupy as one decoded [`Op`] record per
    /// occurrence (the pre-packing, pre-interning layout) — the baseline
    /// for the trace-memory reduction tracked by the benches.
    pub fn unpacked_bytes(&self) -> usize {
        self.total_ops() * std::mem::size_of::<Op>()
    }

    /// Summary statistics, useful for sanity checks and reports.
    pub fn stats(&self) -> TraceStats {
        let mut s = TraceStats {
            regions: self.regions.len() as u64,
            ..Default::default()
        };
        for r in &self.regions {
            for t in &r.threads {
                for op in t.iter() {
                    match op {
                        Op::Load { .. } => s.loads += 1,
                        Op::LoadDep { .. } => s.dep_loads += 1,
                        Op::Store { .. } => s.stores += 1,
                        Op::Flops { n } => s.flop_uops += n as u64,
                        Op::Branch { .. } => s.branches += 1,
                        Op::Block { uops, .. } => {
                            s.blocks += 1;
                            s.block_uops += uops as u64;
                        }
                    }
                }
            }
        }
        s
    }
}

/// Aggregate composition of a program trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    pub regions: u64,
    pub loads: u64,
    pub dep_loads: u64,
    pub stores: u64,
    pub flop_uops: u64,
    pub branches: u64,
    pub blocks: u64,
    pub block_uops: u64,
}

impl TraceStats {
    pub fn instructions(&self) -> u64 {
        self.loads + self.dep_loads + self.stores + self.flop_uops + self.branches + self.block_uops
    }

    pub fn memory_ops(&self) -> u64 {
        self.loads + self.dep_loads + self.stores
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flops_coalesce() {
        let mut b = TraceBuf::new();
        b.flops(3);
        b.flops(4);
        assert_eq!(b.len(), 1);
        assert_eq!(b.instructions(), 7);
        b.load(64);
        b.flops(1);
        assert_eq!(b.len(), 3);
        b.flops(0); // no-op
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn flops_coalesce_saturates() {
        let mut b = TraceBuf::new();
        b.flops(u32::MAX - 1);
        b.flops(10); // would overflow: must start a new op
        assert_eq!(b.len(), 2);
        assert_eq!(b.instructions(), (u32::MAX - 1) as u64 + 10);
    }

    #[test]
    fn push_coalesces_adjacent_flops() {
        // Emission-time coalescing applies to `push` (and so to
        // `FromIterator`) exactly as to the `flops` emitter.
        let ops = [
            Op::Flops { n: 3 },
            Op::Flops { n: 4 },
            Op::Load { addr: 64 },
            Op::Flops { n: 2 },
        ];
        let b: TraceBuf = ops.into_iter().collect();
        assert_eq!(b.len(), 3);
        assert_eq!(b.instructions(), 3 + 4 + 1 + 2);
        assert_eq!(
            b.to_ops(),
            vec![
                Op::Flops { n: 7 },
                Op::Load { addr: 64 },
                Op::Flops { n: 2 }
            ]
        );
    }

    #[test]
    fn two_word_block_does_not_confuse_coalescing() {
        let mut b = TraceBuf::new();
        b.flops(5);
        // A block is two words, and an oversized id takes the wide form,
        // two raw words more; none of them may be mistaken for anything by
        // the coalescer.
        b.push(Op::Block {
            bb: u32::MAX,
            uops: 2,
            body: 2,
        });
        b.flops(6);
        b.flops(1);
        assert_eq!(b.len(), 3);
        assert_eq!(
            b.to_ops(),
            vec![
                Op::Flops { n: 5 },
                Op::Block {
                    bb: u32::MAX,
                    uops: 2,
                    body: 2
                },
                Op::Flops { n: 7 },
            ]
        );
    }

    #[test]
    fn packed_storage_is_compact() {
        let mut b = TraceBuf::new();
        b.block(1, 2);
        b.load(0x1000);
        b.flops(9);
        b.branch(1, true);
        b.seal();
        assert_eq!(b.len(), 4);
        // One 4-byte word per op, two for the block: under a third of the
        // 16-byte decoded Op.
        assert_eq!(b.packed_bytes(), 5 * 4);
        assert!(b.packed_bytes() * 3 <= b.len() * std::mem::size_of::<Op>());
    }

    #[test]
    fn seal_backfills_block_body() {
        let mut b = TraceBuf::new();
        b.block(7, 3);
        b.load(64);
        b.flops(10);
        b.seal();
        match b.to_ops()[0] {
            Op::Block { bb, uops, body } => {
                assert_eq!((bb, uops), (7, 3));
                assert_eq!(body, 3 + 1 + 10);
            }
            ref o => panic!("expected block, got {o:?}"),
        }
    }

    #[test]
    fn equal_words_at_different_bases_are_different_buffers() {
        let emit = |base: u64| {
            let mut b = TraceBuf::new();
            b.load(base);
            b.store(base + 64);
            b.seal();
            b
        };
        let (a, b) = (emit(0x1000_0000), emit(0x2000_0000));
        assert_eq!(a.words(), b.words(), "offsets from each base agree");
        assert_ne!(a.base(), b.base());
        assert_ne!(a.to_ops(), b.to_ops());
        // Kept, they hold one array, and are still not the same buffer.
        let mut table = WordTable::default();
        let (a, b) = (kept(&mut table, &a), kept(&mut table, &b));
        assert_eq!(a.words().as_ptr(), b.words().as_ptr());
        assert!(!a.same_kept(&b));
    }

    /// `buf`'s ops written into `table` and kept, as a build keeps a
    /// thread's.
    fn kept(table: &mut WordTable, buf: &TraceBuf) -> TraceBuf {
        let mut kept = table.open(Vec::new(), std::iter::empty());
        buf.iter().for_each(|op| kept.push(op));
        table.close(&mut kept);
        kept
    }

    fn load_and_flops() -> TraceBuf {
        let mut b = TraceBuf::new();
        b.load(0x1000);
        b.flops(3);
        b.seal();
        b
    }

    #[test]
    fn kept_buffers_share_equal_words() {
        let mut table = WordTable::default();
        let a = kept(&mut table, &load_and_flops());
        let b = kept(&mut table, &load_and_flops());
        assert_eq!(a.words().as_ptr(), b.words().as_ptr());
        assert!(a.same_kept(&b));
        assert_eq!(b.to_ops(), load_and_flops().to_ops());
        let empty = kept(&mut table, &TraceBuf::new());
        assert!(empty.words().is_empty(), "no words, no array");
        assert!(empty.same_kept(&TraceBuf::new()));
        assert!(!empty.same_kept(&a));
    }

    #[test]
    #[should_panic(expected = "a kept buffer is never written")]
    fn a_kept_buffer_refuses_a_write() {
        let mut b = kept(&mut WordTable::default(), &load_and_flops());
        b.store(0x1040);
    }

    #[test]
    fn a_streamed_buffer_keeps_the_words_a_plain_one_holds() {
        // Many windows of words: wide stores, `Flops` coalescing across
        // the window's edge, a block whose body passes u16::MAX uops before
        // the next block, and a trailing `Flops` op at the close.
        let emit = |buf: &mut TraceBuf, last: u32| {
            for i in 0..3000u64 {
                buf.block(1, 2);
                buf.load(0x4000_0000 + i * 64);
                buf.flops(1);
                buf.flops(2);
                if i % 7 == 0 {
                    buf.store((1 << 40) + i * 64);
                }
                buf.branch(1, i + 1 < 3000);
            }
            buf.block(2, 3);
            for i in 0..70_000u64 {
                buf.load(0x4800_0000 + i * 8);
            }
            buf.flops(last);
        };
        let mut table = WordTable::default();
        let plain = |last: u32| {
            let mut buf = TraceBuf::new();
            emit(&mut buf, last);
            buf.seal();
            buf
        };
        let stream = |table: &mut WordTable, candidates: &[&TraceBuf], last: u32| {
            let mut buf = table.open(Vec::new(), candidates.iter().copied());
            emit(&mut buf, last);
            // At most a body of u16::MAX one-word ops waits in the window.
            let window = table.close(&mut buf);
            assert!(window.is_empty() && window.capacity() <= 2 * (u16::MAX as usize + WINDOW));
            buf
        };
        let kept = kept(&mut table, &plain(5));
        let words = plain(5).words().len();
        assert!(words > 20 * WINDOW);
        // Encoded afresh, the words are the kept array's.
        let alone = stream(&mut table, &[], 5);
        assert_eq!(alone.words().as_ptr(), kept.words().as_ptr());
        assert_eq!(table.encoded_words(), 2 * words);
        assert_eq!(
            (alone.len(), alone.instructions()),
            (kept.len(), kept.instructions())
        );
        assert_eq!(alone.to_ops(), plain(5).to_ops());
        // Followed against the kept array, they encode nothing.
        let repeat = stream(&mut table, &[&kept, &alone], 5);
        assert_eq!(repeat.words().as_ptr(), kept.words().as_ptr());
        assert_eq!(table.encoded_words(), 2 * words);
        // One word apart at the very end: every word is encoded, the ones
        // before read back from the array they followed.
        let apart = stream(&mut table, &[&kept], 6);
        assert_ne!(apart.words().as_ptr(), kept.words().as_ptr());
        assert_eq!(table.encoded_words(), 3 * words);
        assert_eq!(apart.to_ops(), plain(6).to_ops());
        // A strict prefix (no trailing `Flops` op): read back whole.
        let prefix = stream(&mut table, &[&kept], 0);
        assert_eq!(table.encoded_words(), 4 * words - 1);
        assert_eq!(prefix.to_ops(), plain(0).to_ops());
        // A stream that stops short of its candidate's words, and differs.
        let short = |buf: &mut TraceBuf| {
            buf.block(1, 2);
            buf.load(0x4000_0000);
            buf.seal();
        };
        let mut streamed = table.open(Vec::new(), [&kept]);
        short(&mut streamed);
        table.close(&mut streamed);
        assert_eq!(table.encoded_words(), 4 * words - 1 + 3);
        let mut want = TraceBuf::new();
        short(&mut want);
        assert_eq!(streamed.to_ops(), want.to_ops());
    }

    #[test]
    fn flops_coalesce_across_the_wide_boundary() {
        // 2^29 is the first count a word's payload cannot hold.
        let wide = 1u32 << 29;
        let mut b = TraceBuf::new();
        b.flops(wide - 1);
        assert_eq!(b.packed_bytes(), 4);
        b.flops(1); // the sum takes the wide form
        assert_eq!(b.packed_bytes(), 3 * 4);
        b.flops(u32::MAX - wide); // exactly u32::MAX: still one op
        b.flops(1); // would overflow: a new, inline op
        b.branch(3, false);
        b.flops(wide);
        b.flops(2);
        assert_eq!(
            b.to_ops(),
            [
                Op::Flops { n: u32::MAX },
                Op::Flops { n: 1 },
                Op::Branch {
                    site: 3,
                    taken: false
                },
                Op::Flops { n: wide + 2 },
            ]
        );
        assert_eq!(b.len(), 4);
        assert_eq!(b.packed_bytes(), (3 + 1 + 1 + 3) * 4);
        assert_eq!(b.instructions(), u32::MAX as u64 + 1 + 1 + wide as u64 + 2);
    }

    #[test]
    fn program_arity_checked() {
        let mut p = ProgramTrace::new("t", 2);
        p.push_region(RegionTrace::new(vec![TraceBuf::new(), TraceBuf::new()]));
        assert_eq!(p.regions.len(), 1);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn program_arity_mismatch_panics() {
        let mut p = ProgramTrace::new("t", 2);
        p.push_region(RegionTrace::new(vec![TraceBuf::new()]));
    }

    #[test]
    fn interned_regions_counted_once_in_bytes() {
        let region = || {
            let mut b = TraceBuf::new();
            for i in 0..100u64 {
                b.load(i * 64);
            }
            RegionTrace::labeled(vec![b], "r")
        };
        let shared = Arc::new(region());
        let mut p = ProgramTrace::new("t", 1);
        for _ in 0..10 {
            p.push_region_arc(shared.clone());
        }
        assert_eq!(p.regions.len(), 10);
        assert_eq!(p.unique_regions(), 1);
        assert_eq!(p.total_ops(), 1000);
        // Storage: one interned copy of 100 packed words.
        assert_eq!(p.packed_bytes(), 100 * 4);
        assert_eq!(p.unpacked_bytes(), 1000 * std::mem::size_of::<Op>());
        // Identical content in fresh (non-interned) regions still counts
        // per copy — only true sharing is credited.
        let mut q = ProgramTrace::new("t", 1);
        q.push_region(region());
        q.push_region(region());
        assert_eq!(q.unique_regions(), 2);
        assert_eq!(q.packed_bytes(), 2 * 100 * 4);
    }

    #[test]
    fn stats_accounting() {
        let mut a = TraceBuf::new();
        a.block(1, 2);
        a.load(0);
        a.load_dep(64);
        a.store(128);
        a.flops(5);
        a.branch(1, true);
        let p = ProgramTrace::single_region("s", vec![a]);
        let s = p.stats();
        assert_eq!(s.loads, 1);
        assert_eq!(s.dep_loads, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(s.flop_uops, 5);
        assert_eq!(s.branches, 1);
        assert_eq!(s.blocks, 1);
        assert_eq!(s.block_uops, 2);
        assert_eq!(s.instructions(), 1 + 1 + 1 + 5 + 1 + 2);
        assert_eq!(s.instructions(), p.instructions());
        assert_eq!(s.memory_ops(), 3);
    }

    /// Run-encode the words of `chunks`, pushed one chunk at a time: the
    /// stored words and the index of the run words among them.
    fn encode(chunks: &[&[u32]]) -> (Vec<u32>, Vec<u32>) {
        let mut encoder = op::RunEncoder::default();
        for chunk in chunks {
            encoder.push(chunk);
        }
        encoder.finish()
    }

    /// Run-encode `raw`: the stored words and the `(count, period)` of each
    /// run word, after checking the words decode back to `raw` and that
    /// each run starts and ends on an op boundary of `raw`.
    fn encoded(raw: &[u32]) -> (Vec<u32>, Vec<(usize, usize)>) {
        let (stored, runs) = encode(&[raw]);
        let kept = Kept {
            stored: stored.as_slice().into(),
            runs: runs.as_slice().into(),
        };
        let mut decoded = Vec::new();
        kept.decode(usize::MAX, |w| decoded.extend_from_slice(w));
        assert_eq!(decoded, raw, "decodes to what was encoded");
        let mut follow = op::Follow::default();
        assert!(follow.advance(&stored, &runs, raw, 0) && follow.done(&stored));
        let mut bounds = vec![false; raw.len() + 1];
        let mut i = 0;
        while i < raw.len() {
            bounds[i] = true;
            i = op::op_end(raw, i);
        }
        bounds[raw.len()] = true;
        let (mut s, mut j, mut found) = (0, 0, Vec::new());
        while s < stored.len() {
            if let Some((count, p)) = op::run_of(stored[s]) {
                assert!(
                    bounds[j] && bounds[j + count],
                    "a run of {count} at {j} ends mid-op"
                );
                assert_eq!(
                    runs[found.len()] as usize,
                    s,
                    "the index holds each run word"
                );
                found.push((count, p));
                (s, j) = (s + 1, j + count);
            } else {
                let end = op::op_end(&stored, s);
                (s, j) = (end, j + end - s);
            }
        }
        assert_eq!(found.len(), runs.len());
        (stored, found)
    }

    /// `passes` passes over a loop body: each slot is an op, and a memory
    /// slot's address advances by its stride from pass to pass.
    fn strided(body: &[(Op, u64)], passes: u64) -> TraceBuf {
        let at = |addr: u64, stride: u64, pass: u64| addr + stride * pass;
        let mut buf = TraceBuf::new();
        for pass in 0..passes {
            for &(op, stride) in body {
                buf.push(match op {
                    Op::Load { addr } => Op::Load {
                        addr: at(addr, stride, pass),
                    },
                    Op::LoadDep { addr } => Op::LoadDep {
                        addr: at(addr, stride, pass),
                    },
                    Op::Store { addr } => Op::Store {
                        addr: at(addr, stride, pass),
                    },
                    other => other,
                });
            }
        }
        buf.seal();
        buf
    }

    #[test]
    fn a_one_word_body_is_a_period_one_run_split_at_the_cap() {
        let buf = strided(&[(Op::Load { addr: 0x4000 }, 64)], 600);
        let (stored, runs) = encoded(buf.words());
        // Two words of history, then runs of at most RUN_CAP words back to
        // back: the second and third read their history from the one
        // before.
        assert_eq!(runs, [(256, 1), (256, 1), (86, 1)]);
        assert_eq!(stored.len(), 2 + 3);
    }

    #[test]
    fn a_thirty_two_word_body_is_a_period_32_run_whose_history_is_a_run() {
        // A block (two words) and 30 loads whose bases no shorter period
        // predicts: only the block one body back names the period.
        let mut body = vec![(
            Op::Block {
                bb: 7,
                uops: 2,
                body: 40,
            },
            0,
        )];
        body.extend((0..30u64).map(|s| {
            (
                Op::Load {
                    addr: 0x10_0000 + s * s * 0x1000,
                },
                8,
            )
        }));
        let buf = strided(&body, 11);
        assert_eq!(buf.words().len(), 11 * 32);
        let (stored, runs) = encoded(buf.words());
        assert_eq!(runs, [(256, 32), (32, 32)]);
        assert_eq!(
            stored.len(),
            2 * 32 + 2,
            "two passes of history, two run words"
        );
        let kept = kept(&mut WordTable::default(), &buf);
        assert_eq!(kept.to_ops(), buf.to_ops());
        assert_eq!(kept.packed_bytes(), (stored.len() + runs.len()) * 4);
    }

    #[test]
    fn a_stretch_shorter_than_a_run_is_worth_stays_literal() {
        // Each pass is broken by a load no period predicts, so no stretch
        // reaches RUN_MIN words.
        let mut buf = TraceBuf::new();
        for pass in 0..200u64 {
            buf.block(3, 2);
            buf.load(0x8000 + pass * 8);
            buf.load_dep(0x9_0000 + (pass * pass * 0x40) % 0x7_0000);
            buf.flops(2);
        }
        buf.seal();
        let (stored, runs) = encoded(buf.words());
        assert!(runs.is_empty());
        assert_eq!(stored, buf.words());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A loop body slot: any kind, a value on either side of the wide
        /// form, and for a memory op a base near the buffer's or far from
        /// it (wide) and a stride.
        fn arb_slot() -> impl Strategy<Value = (Op, u64)> {
            let value = prop_oneof![0u32..5000, ((1u32 << 29) - 4)..((1u32 << 29) + 4)];
            let addr = prop_oneof![
                0x4000_0000u64..0x4010_0000,
                0x7f_0000_0000u64..0x7f_1000_0000
            ];
            ((0u8..6, value), (addr, 0u64..300, proptest::bool::ANY)).prop_map(
                |((kind, v), (addr, stride, taken))| {
                    let op = match kind {
                        0 => Op::Load { addr },
                        1 => Op::LoadDep { addr },
                        2 => Op::Store { addr },
                        3 => Op::Flops { n: v + 1 },
                        4 => Op::Branch { site: v, taken },
                        _ => Op::Block {
                            bb: v,
                            uops: 2,
                            body: 9,
                        },
                    };
                    (op, stride)
                },
            )
        }

        /// A strided loop, with arbitrary ops before it and after it and
        /// one pass's slot replaced by an arbitrary op — the edges of runs.
        fn arb_loop() -> impl Strategy<Value = Vec<Op>> {
            (
                proptest::collection::vec(arb_op(), 0..6),
                proptest::collection::vec(arb_slot(), 1..12),
                (0u64..70, 0usize..1000, arb_op()),
                proptest::collection::vec(arb_op(), 0..6),
            )
                .prop_map(|(before, body, (passes, at, odd), after)| {
                    let mut ops = before;
                    let mut looped = strided(&body, passes).to_ops();
                    if let Some(op) = looped.get_mut(at) {
                        *op = odd;
                    }
                    ops.extend(looped);
                    ops.extend(after);
                    ops
                })
        }

        proptest! {
            /// Run encoding is lossless on arbitrary op streams — wide ops
            /// and blocks inside runs and at their edges — and every run
            /// starts and ends on an op boundary (`encoded` checks both);
            /// the ops read back through the cursor, and words with one
            /// changed no longer follow the encoding to its end.
            #[test]
            fn runs_roundtrip(ops in arb_loop(), flip in 0usize..4000) {
                let buf: TraceBuf = ops.iter().copied().collect();
                let raw = buf.words();
                let (stored, _) = encoded(raw);
                prop_assert_eq!(OpIter::new(&stored, buf.base()).collect::<Vec<_>>(), buf.to_ops());
                if !raw.is_empty() {
                    let mut changed = raw.to_vec();
                    changed[flip % raw.len()] ^= 1;
                    let (stored, runs) = encode(&[raw]);
                    let mut follow = op::Follow::default();
                    let followed = follow.advance(&stored, &runs, &changed, 0);
                    prop_assert!(!(followed && follow.done(&stored)));
                }
            }

            /// The encoding does not depend on how the words come: pushed
            /// in chunks of arbitrary sizes — one word at a time, chunks
            /// that split a wide op or a block, a finish while a run is
            /// still open — the encoder stores the same words and run
            /// index as from one push of them all.
            #[test]
            fn chunked_pushes_encode_as_one_push(
                ops in arb_loop(),
                sizes in proptest::collection::vec(1usize..40, 1..8),
                one_at_a_time in proptest::bool::ANY,
            ) {
                let buf: TraceBuf = ops.iter().copied().collect();
                let raw = buf.words();
                let sizes = if one_at_a_time { vec![1] } else { sizes };
                let mut chunks = Vec::new();
                let mut rest = raw;
                for &size in sizes.iter().cycle() {
                    if rest.is_empty() {
                        break;
                    }
                    let (chunk, tail) = rest.split_at(size.min(rest.len()));
                    chunks.push(chunk);
                    rest = tail;
                }
                prop_assert_eq!(encode(&chunks), encode(&[raw]));
            }

            /// A kept, run-encoded buffer decodes to the ops of the buffer
            /// it was kept from, and counts them the same.
            #[test]
            fn a_kept_buffer_equals_its_raw_twin(ops in arb_loop()) {
                let raw: TraceBuf = ops.iter().copied().collect();
                let kept = kept(&mut WordTable::default(), &raw);
                prop_assert_eq!(kept.to_ops(), raw.to_ops());
                prop_assert_eq!(
                    (kept.len(), kept.instructions(), kept.base()),
                    (raw.len(), raw.instructions(), raw.base())
                );
            }
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u64..crate::op::ADDR_LIMIT).prop_map(|addr| Op::Load { addr }),
                (0u64..crate::op::ADDR_LIMIT).prop_map(|addr| Op::LoadDep { addr }),
                (0u64..crate::op::ADDR_LIMIT).prop_map(|addr| Op::Store { addr }),
                // Small counts, and counts on either side of the wide form
                // and of u32 overflow.
                prop_oneof![
                    1u32..5000,
                    ((1u32 << 29) - 8)..((1u32 << 29) + 8),
                    (u32::MAX - 8)..=u32::MAX,
                ]
                .prop_map(|n| Op::Flops { n }),
                ((0u32..=u32::MAX), proptest::bool::ANY)
                    .prop_map(|(site, taken)| Op::Branch { site, taken }),
                ((0u32..=u32::MAX), 0u16..200, 0u16..400).prop_map(|(bb, uops, body)| Op::Block {
                    bb,
                    uops,
                    body
                }),
            ]
        }

        proptest! {
            /// Building a buffer from arbitrary ops and decoding it back
            /// yields the same stream up to `Flops` coalescing: non-`Flops`
            /// ops are bit-identical and in order, adjacent `Flops` runs
            /// merge without changing the `uops()` total.
            #[test]
            fn buffer_roundtrip_with_coalescing(
                ops in proptest::collection::vec(arb_op(), 0..200),
            ) {
                let buf: TraceBuf = ops.iter().copied().collect();
                let decoded = buf.to_ops();

                // uops totals are exactly preserved.
                let want: u64 = ops.iter().map(|o| o.uops()).sum();
                prop_assert_eq!(buf.instructions(), want);
                prop_assert_eq!(decoded.iter().map(Op::uops).sum::<u64>(), want);

                // The decoded stream equals the input with adjacent Flops
                // coalesced (splitting on u32 overflow, as the builder
                // does).
                let mut expect: Vec<Op> = Vec::new();
                for &op in &ops {
                    match (op, expect.last_mut()) {
                        (Op::Flops { n: 0 }, _) => {}
                        (Op::Flops { n }, Some(Op::Flops { n: last }))
                            if last.checked_add(n).is_some() =>
                        {
                            *last += n;
                        }
                        _ => expect.push(op),
                    }
                }
                prop_assert_eq!(decoded, expect);
            }

            /// Decoding never loses ops: count, memory ops and per-kind
            /// totals survive packing.
            #[test]
            fn accounting_survives_packing(
                ops in proptest::collection::vec(arb_op(), 0..200),
            ) {
                let buf: TraceBuf = ops.iter().copied().collect();
                let mem = ops.iter().filter(|o| o.is_memory()).count() as u64;
                prop_assert_eq!(buf.memory_ops(), mem);
                prop_assert_eq!(buf.iter().count(), buf.len());
                // Packed size never exceeds the decoded AoS size and is at
                // least 2x smaller once every op packs to one word.
                prop_assert!(buf.packed_bytes() <= buf.len() * 16);
            }

            /// The count kept while emitting is the decoded sum, whatever
            /// mix of emitters built the buffer — `block` backfills — and
            /// whether a build streamed its words or not.
            #[test]
            fn instructions_are_the_decoded_sum(
                ops in proptest::collection::vec(arb_op(), 0..200),
                blocks in proptest::collection::vec((0u32..=u32::MAX, 0u16..=u16::MAX), 0..20),
                streamed in proptest::bool::ANY,
            ) {
                let mut table = WordTable::default();
                let mut buf = if streamed {
                    table.open(Vec::new(), std::iter::empty())
                } else {
                    TraceBuf::new()
                };
                for (k, &op) in ops.iter().enumerate() {
                    if let Some(&(bb, uops)) = blocks.get(k % 10) {
                        buf.block(bb, uops);
                    }
                    match op {
                        Op::Load { addr } => buf.load(addr),
                        Op::LoadDep { addr } => buf.load_dep(addr),
                        Op::Store { addr } => buf.store(addr),
                        Op::Flops { n } => buf.flops(n),
                        Op::Branch { site, taken } => buf.branch(site, taken),
                        Op::Block { .. } => buf.push(op),
                    }
                }
                if streamed {
                    table.close(&mut buf);
                } else {
                    buf.seal();
                }
                let decoded: u64 = buf.iter().map(|o| o.uops()).sum();
                prop_assert_eq!(buf.instructions(), decoded);
                let region = RegionTrace::new(vec![buf.iter().collect(), buf]);
                prop_assert_eq!(region.instructions(), 2 * decoded);
            }
        }
    }
}
