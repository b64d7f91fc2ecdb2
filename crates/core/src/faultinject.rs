//! Deterministic fault injection for the resilience and chaos tests.
//!
//! A fault plan is a value. Every component with fault points holds a
//! [`Faults`] handle: the default is empty, one word wide, and a hook on
//! it is one branch. A test or a binary that wants faults parses a plan
//! into a handle and hands clones of it to the components it builds; the
//! clones share one plan, so use budgets and counters belong to one
//! daemon or one sweep, and two daemons with different plans can run
//! side by side in one process.
//!
//! | holder | faults |
//! |---|---|
//! | [`TraceStore::with_faults`](crate::store::TraceStore::with_faults) | `build-panic`, `build-asid` |
//! | [`CellPolicy::faults`](crate::pool::CellPolicy) | `cell-panic`, `cell-slow` |
//! | [`DriftSentinel::with_faults`](crate::sentinel::DriftSentinel::with_faults) | `drift` |
//! | [`Journal::open_with`](crate::journal::Journal::open_with) | `journal-fail` |
//! | the serve result cache | `serve-shard-slow` |
//! | the serve `ServeConfig::faults` | the rest; the daemon hands its clones to all of the above |
//!
//! A study sweep takes its plan from its `ResilienceOptions`' policy.
//! `PAXSIM_FAULTS` is read in one place, [`Faults::from_env`]; the
//! binaries that accept it call [`Faults::from_env_or_exit`], which
//! refuses a malformed spec with exit 2.
//!
//! Spec syntax — comma-separated faults, colon-separated fields. A kernel
//! is named as in a wire request; an unknown kernel, a field the kind does
//! not take, and a zero budget or period are refused:
//!
//! ```text
//! build-panic:<kernel>[:times]   panic the first <times> trace builds of <kernel> (default 1)
//! build-asid:<kernel>[:times]    make the first <times> trace builds of <kernel> emit a store at
//!                                the ASID byte, which the trace codec refuses (default 1)
//! cell-panic:<index>[:times]     panic the first <times> executions of sweep item <index> (default 1)
//! cell-slow:<index>:<ms>[:times] sleep <ms> at the start of sweep item <index> (default unlimited)
//! drift:<kernel>[:times]         perturb the fast-engine counters for <kernel> cells (default unlimited)
//! journal-fail[:times]           fail the next <times> journal appends with an I/O error (default 1)
//! serve-worker-panic:<period>[:times]  panic serve worker job n when n % period == 0 (default 1 use)
//! serve-conn-kill:<period>[:times]     kill the connection carrying dispatched frame n when
//!                                      n % period == 0 (default 1 use)
//! serve-batch-panic[:times]      panic the next <times> batch-leader sweep executions (default 1)
//! serve-shard-slow:<ms>[:times]  sleep <ms> inside every shard cache lookup (default unlimited)
//! serve-partial-write[:times]    cap the next <times> reactor write passes at one byte each,
//!                                exercising the partial-write/slow-reader path (default 64)
//! predict-bias[:times]           bias the analytical predictor's wall-clock estimate so the
//!                                prediction auditor must catch it (default unlimited)
//! tune-abort:<period>[:times]    fail a tune search on evaluation n when n % period == 0
//!                                (default 1)
//! ```
//!
//! Jobs and frames are counted per plan, and so are the fired worker
//! panics, connection kills and partial writes a soak asserts on. The
//! module also ships journal corruption helpers ([`truncate_tail`],
//! [`flip_bit`]) used by the resume/corruption tests.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use paxsim_machine::op::ADDR_LIMIT;
use paxsim_machine::trace::TraceBuf;
use paxsim_nas::{kernel_by_name, KernelId};
use paxsim_obs::Tally;

/// One injected fault with its remaining-use budget.
#[derive(Debug)]
struct Fault {
    kind: FaultKind,
    remaining: AtomicU32,
}

/// A fault kind with its fields, in spec order (indices, milliseconds,
/// periods).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    BuildPanic(KernelId),
    BuildAsid(KernelId),
    CellPanic(usize),
    CellSlow(usize, u64),
    Drift(KernelId),
    JournalFail,
    ServeWorkerPanic(u64),
    ServeConnKill(u64),
    ServeBatchPanic,
    ServeShardSlow(u64),
    ServePartialWrite,
    PredictBias,
    TuneAbort(u64),
}

/// A parsed fault plan, with the counters its serve hooks keep.
#[derive(Debug)]
struct FaultPlan {
    faults: Vec<Fault>,
    /// Worker jobs and dispatched frames seen, for the `<period>` matchers.
    jobs: AtomicU64,
    frames: AtomicU64,
    /// Worker panics, connection kills and partial writes fired.
    fired: [Tally; 3],
}

impl FaultPlan {
    /// Claim one use of the first fault `want` accepts that has budget
    /// left; a raced-out decrement means that budget is spent.
    fn consume(&self, want: impl Fn(&FaultKind) -> bool) -> Option<FaultKind> {
        self.faults
            .iter()
            .filter(|f| want(&f.kind))
            .find(|f| {
                f.remaining
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                    .is_ok()
            })
            .map(|f| f.kind)
    }

    /// Claim one use of exactly `kind`.
    fn fires(&self, kind: FaultKind) -> bool {
        self.consume(|k| *k == kind).is_some()
    }
}

/// The fields after a fault's kind, read in order; a field's name is what
/// an error calls it.
struct Fields<'a> {
    args: Vec<&'a str>,
    read: usize,
}

impl<'a> Fields<'a> {
    fn next(&mut self, what: &str) -> Result<&'a str, String> {
        let arg = self.args.get(self.read).ok_or(format!("missing {what}"))?;
        self.read += 1;
        Ok(arg)
    }

    fn num(&mut self, what: &str) -> Result<u64, String> {
        let arg = self.next(what)?;
        arg.parse().map_err(|_| format!("bad {what} `{arg}`"))
    }

    fn nonzero(&mut self, what: &str) -> Result<u64, String> {
        match self.num(what)? {
            0 => Err(format!("{what} 0 never fires")),
            n => Ok(n),
        }
    }

    /// A kernel, resolved as a wire request resolves it.
    fn kernel(&mut self) -> Result<KernelId, String> {
        let arg = self.next("kernel")?;
        kernel_by_name(arg).ok_or_else(|| format!("unknown kernel `{arg}`"))
    }

    /// The optional trailing use budget of kind `name`, `default` when
    /// absent; any field past it is refused.
    fn times(mut self, name: &str, default: u32) -> Result<u32, String> {
        let most = self.read + 1;
        match self.args.len() {
            n if n > most => Err(format!("{n} fields, {name} takes at most {most}")),
            n if n < most => Ok(default),
            _ => Ok(self.nonzero("times")?.min(u32::MAX.into()) as u32),
        }
    }
}

/// One fault of a spec: each kind's fields in order, then the use budget
/// it gets when `times` is absent.
fn parse_fault(part: &str) -> Result<(FaultKind, u32), String> {
    use FaultKind::*;
    let mut args = part.split(':');
    let name = args.next().unwrap_or_default();
    let mut f = Fields {
        args: args.collect(),
        read: 0,
    };
    let (kind, default) = match name {
        "build-panic" => (BuildPanic(f.kernel()?), 1),
        "build-asid" => (BuildAsid(f.kernel()?), 1),
        "cell-panic" => (CellPanic(f.num("index")? as usize), 1),
        "cell-slow" => (
            CellSlow(f.num("index")? as usize, f.num("milliseconds")?),
            u32::MAX,
        ),
        "drift" => (Drift(f.kernel()?), u32::MAX),
        "journal-fail" => (JournalFail, 1),
        "serve-worker-panic" => (ServeWorkerPanic(f.nonzero("period")?), 1),
        "serve-conn-kill" => (ServeConnKill(f.nonzero("period")?), 1),
        "serve-batch-panic" => (ServeBatchPanic, 1),
        "serve-shard-slow" => (ServeShardSlow(f.num("milliseconds")?), u32::MAX),
        "serve-partial-write" => (ServePartialWrite, 64),
        "predict-bias" => (PredictBias, u32::MAX),
        "tune-abort" => (TuneAbort(f.nonzero("period")?), 1),
        _ => return Err(format!("unknown kind `{name}`")),
    };
    Ok((kind, f.times(name, default)?))
}

/// The fault points of one component: empty (the default, and what
/// production runs) or a parsed plan shared with every other clone.
#[derive(Debug, Clone, Default)]
pub struct Faults(Option<Arc<FaultPlan>>);

impl Faults {
    /// Parse a `PAXSIM_FAULTS`-syntax spec into a handle; an empty spec
    /// is the empty handle.
    ///
    /// # Errors
    ///
    /// The first fault that does not parse, named with what is wrong.
    pub fn parse(spec: &str) -> Result<Faults, String> {
        let mut faults = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (kind, times) = parse_fault(part).map_err(|e| format!("fault `{part}`: {e}"))?;
            faults.push(Fault {
                kind,
                remaining: AtomicU32::new(times),
            });
        }
        if faults.is_empty() {
            return Ok(Faults::default());
        }
        Ok(Faults(Some(Arc::new(FaultPlan {
            faults,
            jobs: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            fired: [
                Tally::new("serve.chaos.worker_panics"),
                Tally::new("serve.chaos.conn_kills"),
                Tally::new("serve.chaos.partial_writes"),
            ],
        }))))
    }

    /// The plan `PAXSIM_FAULTS` spells, empty when it is unset.
    ///
    /// # Errors
    ///
    /// A malformed (or non-UTF-8) value, naming the fault that is wrong.
    pub fn from_env() -> Result<Faults, String> {
        match std::env::var("PAXSIM_FAULTS") {
            Err(std::env::VarError::NotPresent) => Ok(Faults::default()),
            spec => spec
                .map_err(|e| e.to_string())
                .and_then(|spec| Faults::parse(&spec))
                .map_err(|e| format!("PAXSIM_FAULTS: {e}")),
        }
    }

    /// [`Faults::from_env`] for a binary's `main`: a malformed plan is
    /// printed as `<bin>: <error>` and the process exits 2, so a typo in a
    /// plan stops the run instead of letting it run clean.
    pub fn from_env_or_exit(bin: &str) -> Faults {
        Faults::from_env().unwrap_or_else(|e| {
            eprintln!("{bin}: {e}");
            std::process::exit(2);
        })
    }

    /// True for the handle that never fires.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    #[inline]
    fn take(&self, want: impl Fn(&FaultKind) -> bool) -> Option<FaultKind> {
        self.0.as_ref()?.consume(want)
    }

    #[inline]
    fn fires(&self, kind: FaultKind) -> bool {
        self.0.as_ref().is_some_and(|plan| plan.fires(kind))
    }

    /// Start of a trace build of `kernel`: panics on a matching
    /// `build-panic`; on a matching `build-asid` emits a store at
    /// [`ADDR_LIMIT`], the first address the engine's ASID tag would
    /// alias, which the trace codec itself refuses.
    #[inline]
    pub fn build_start(&self, kernel: KernelId) {
        let Some(plan) = &self.0 else { return };
        if plan.fires(FaultKind::BuildPanic(kernel)) {
            panic!("injected build fault for {kernel}");
        }
        if plan.fires(FaultKind::BuildAsid(kernel)) {
            TraceBuf::new().store(ADDR_LIMIT);
        }
    }

    /// Start of sweep item `index`: sleeps on a matching `cell-slow`,
    /// panics on a matching `cell-panic`.
    #[inline]
    pub fn cell_start(&self, index: usize) {
        let Some(plan) = &self.0 else { return };
        if let Some(FaultKind::CellSlow(_, ms)) =
            plan.consume(|k| matches!(k, FaultKind::CellSlow(i, _) if *i == index))
        {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        if plan.fires(FaultKind::CellPanic(index)) {
            panic!("injected cell fault at item {index}");
        }
    }

    /// Should the fast-engine result for `kernel` be perturbed (engine
    /// drift the sentinel must catch)?
    #[inline]
    pub fn drift(&self, kernel: KernelId) -> bool {
        self.fires(FaultKind::Drift(kernel))
    }

    /// About to append a journal record: true while `journal-fail` has
    /// budget — the caller turns that into an I/O error.
    #[inline]
    pub fn journal_fail(&self) -> bool {
        self.fires(FaultKind::JournalFail)
    }

    /// Top of every serve worker job, inside the worker's `catch_unwind`
    /// boundary: panics when a `serve-worker-panic:<period>` matches this
    /// job's number.
    #[inline]
    pub fn worker_job(&self) {
        let Some(plan) = &self.0 else { return };
        let n = plan.jobs.fetch_add(1, Ordering::Relaxed) + 1;
        let hit = plan
            .consume(|k| matches!(k, FaultKind::ServeWorkerPanic(p) if n.is_multiple_of(*p)))
            .is_some();
        if hit {
            plan.fired[0].inc();
            panic!("injected serve worker fault (job {n})");
        }
    }

    /// Once per frame the reactor dispatches: true when a
    /// `serve-conn-kill:<period>` matches — the reactor drops the
    /// connection that carried the frame.
    #[inline]
    pub fn conn_kill(&self) -> bool {
        let Some(plan) = &self.0 else { return false };
        let n = plan.frames.fetch_add(1, Ordering::Relaxed) + 1;
        let kill = plan
            .consume(|k| matches!(k, FaultKind::ServeConnKill(p) if n.is_multiple_of(*p)))
            .is_some();
        if kill {
            plan.fired[1].inc();
        }
        kill
    }

    /// Byte cap for one reactor write pass: `Some(1)` while
    /// `serve-partial-write` has budget, leaving the rest of the reply
    /// queued as a saturated socket would.
    #[inline]
    pub fn write_cap(&self) -> Option<usize> {
        let plan = self
            .0
            .as_ref()
            .filter(|p| p.fires(FaultKind::ServePartialWrite))?;
        plan.fired[2].inc();
        Some(1)
    }

    /// Batch leader about to execute a gathered sweep: true while
    /// `serve-batch-panic` has budget — the caller panics so the
    /// batcher's poison recovery runs.
    #[inline]
    pub fn batch_panic(&self) -> bool {
        self.fires(FaultKind::ServeBatchPanic)
    }

    /// A tune search is about to run evaluation number `evals` (1-based):
    /// true when a `tune-abort:<period>` matches — the caller fails the
    /// search so the resume runs.
    #[inline]
    pub fn tune_abort(&self, evals: u64) -> bool {
        self.take(|k| matches!(k, FaultKind::TuneAbort(p) if evals.is_multiple_of(*p)))
            .is_some()
    }

    /// Shard cache lookup: sleeps for a `serve-shard-slow` fault's
    /// milliseconds while it has budget.
    #[inline]
    pub fn shard_slow(&self) {
        if let Some(FaultKind::ServeShardSlow(ms)) =
            self.take(|k| matches!(k, FaultKind::ServeShardSlow(_)))
        {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
    }

    /// The analytical predictor is about to emit a prediction: true while
    /// `predict-bias` has budget — the caller skews the prediction past
    /// its declared bound for the auditor to catch.
    #[inline]
    pub fn predict_bias(&self) -> bool {
        self.fires(FaultKind::PredictBias)
    }

    /// Serve faults this plan fired: `(worker_panics, conn_kills,
    /// partial_writes)`.
    pub fn fired(&self) -> (u64, u64, u64) {
        let n = |i: usize| self.0.as_ref().map_or(0, |p| p.fired[i].get());
        (n(0), n(1), n(2))
    }
}

/// Keep the backtraces of injected panics (which the daemon and the
/// sweeps absorb by design) out of the log, so a real panic stands out.
pub fn hide_injected_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        if !msg.is_some_and(|m| m.contains("injected")) {
            prev(info);
        }
    }));
}

/// No-op. Fault plans are values a caller hands to what it builds, so
/// nothing is live unless it was given one; kept for callers that still
/// hold the guard across a run.
pub fn quiesced() {}

// ---------------------------------------------------------------------------
// Journal corruption helpers (used by the resume/corruption tests).
// ---------------------------------------------------------------------------

/// Truncate the last `bytes` bytes of `path` — models a process killed
/// mid-append leaving a partial record.
pub fn truncate_tail(path: &std::path::Path, bytes: u64) -> std::io::Result<()> {
    let len = std::fs::metadata(path)?.len();
    let f = std::fs::OpenOptions::new().write(true).open(path)?;
    f.set_len(len.saturating_sub(bytes))?;
    Ok(())
}

/// Flip one bit of the byte at `offset` in `path` — models on-disk
/// corruption the journal CRC must catch.
pub fn flip_bit(path: &std::path::Path, offset: u64) -> std::io::Result<()> {
    let mut data = std::fs::read(path)?;
    let i = offset as usize;
    if i >= data.len() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("offset {offset} beyond file of {} bytes", data.len()),
        ));
    }
    data[i] ^= 0x10;
    std::fs::write(path, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faults(spec: &str) -> Faults {
        Faults::parse(spec).unwrap()
    }

    fn plan(spec: &str) -> Arc<FaultPlan> {
        faults(spec).0.unwrap()
    }

    fn remaining(p: &FaultPlan) -> Vec<u32> {
        let n = |f: &Fault| f.remaining.load(Ordering::Relaxed);
        p.faults.iter().map(n).collect()
    }

    #[test]
    fn parse_all_kinds() {
        let p = plan("build-panic:cg:2, cell-panic:7, cell-slow:3:50, drift:ep:4");
        assert_eq!(remaining(&p), [2, 1, u32::MAX, 4]);
        assert_eq!(p.faults[0].kind, FaultKind::BuildPanic(KernelId::Cg));
    }

    #[test]
    fn parse_serve_kinds() {
        let p = plan(
            "journal-fail:3, serve-worker-panic:97:5, serve-conn-kill:83, \
             serve-batch-panic, serve-shard-slow:25:2, serve-partial-write:10",
        );
        assert_eq!(remaining(&p), [3, 5, 1, 1, 2, 10]);
        assert_eq!(p.faults[1].kind, FaultKind::ServeWorkerPanic(97));
        assert_eq!(p.faults[3].kind, FaultKind::ServeBatchPanic);
        assert_eq!(p.faults[4].kind, FaultKind::ServeShardSlow(25));
    }

    #[test]
    fn serve_hooks_match_period_and_budget() {
        let f = faults("serve-conn-kill:3:1, tune-abort:10:2");
        assert!(!f.conn_kill() && !f.conn_kill(), "frames 1, 2");
        assert!(f.conn_kill(), "frame 3");
        assert!(
            !f.conn_kill() && !f.conn_kill() && !f.conn_kill(),
            "budget of 1 spent"
        );
        assert!(!f.tune_abort(7), "7 % 10 != 0");
        assert!(f.tune_abort(20));
        assert!(f.tune_abort(30));
        assert!(!f.tune_abort(40), "budget of 2 spent");
        assert_eq!(f.fired(), (0, 1, 0));
        let f = faults("serve-shard-slow:17:1, serve-partial-write:2");
        let t0 = std::time::Instant::now();
        f.shard_slow();
        assert!(t0.elapsed() >= std::time::Duration::from_millis(17));
        f.shard_slow();
        assert_eq!(
            remaining(f.0.as_ref().unwrap()),
            [0, 2],
            "budget of 1 spent"
        );
        let f = faults("journal-fail, serve-batch-panic");
        assert!(f.journal_fail());
        assert!(!f.journal_fail());
        assert!(f.batch_panic());
        assert!(!f.batch_panic());
    }

    #[test]
    fn tune_abort_parses_and_fires_on_period() {
        let p = plan("tune-abort:3:2");
        assert_eq!(p.faults[0].kind, FaultKind::TuneAbort(3));
        assert_eq!(remaining(&p), [2]);
        let f = faults("tune-abort:3:1");
        assert!(!f.tune_abort(1));
        assert!(!f.tune_abort(2));
        assert!(f.tune_abort(3));
        assert!(!f.tune_abort(6), "budget of 1 spent");
    }

    #[test]
    fn predict_bias_parses_and_consumes() {
        let p = plan("predict-bias");
        assert_eq!(p.faults[0].kind, FaultKind::PredictBias);
        assert_eq!(remaining(&p), [u32::MAX]);
        assert_eq!(remaining(&plan("predict-bias:2")), [2]);
        let f = faults("predict-bias:1");
        assert!(f.predict_bias());
        assert!(!f.predict_bias(), "budget of 1 spent");
        assert!(!Faults::default().predict_bias(), "no plan, no bias");
    }

    #[test]
    fn parse_rejects_garbage() {
        for (spec, why) in [
            ("explode:now", "unknown kind `explode`"),
            ("cell-panic:notanumber", "bad index `notanumber`"),
            ("build-panic", "missing kernel"),
            ("build-asid", "missing kernel"),
            ("serve-worker-panic", "missing period"),
            ("serve-shard-slow:fast", "bad milliseconds `fast`"),
            // Surplus fields were silently dropped.
            ("journal-fail:3:9", "2 fields, journal-fail takes at most 1"),
            ("cell-slow:3:50:1:2", "4 fields, cell-slow takes at most 3"),
            // A kernel no request can name never matched a build or a cell.
            ("build-panic:epp", "unknown kernel `epp`"),
            ("drift:e p", "unknown kernel `e p`"),
            // Neither does a budget or a period of zero.
            ("cell-panic:1:0", "times 0 never fires"),
            ("serve-conn-kill:0", "period 0 never fires"),
        ] {
            let err = Faults::parse(spec).unwrap_err();
            assert_eq!(err, format!("fault `{spec}`: {why}"));
        }
        // A kernel resolves as on the wire, so this one fires on ep cells.
        let p = plan("drift:EP");
        assert_eq!(p.faults[0].kind, FaultKind::Drift(KernelId::Ep));
        assert!(faults("").is_empty() && faults(" , ").is_empty());
    }

    #[test]
    fn budgets_are_consumed() {
        let p = plan("cell-panic:5:2");
        let kind = FaultKind::CellPanic(5);
        assert!(p.fires(kind));
        assert!(p.fires(kind));
        assert!(!p.fires(kind), "budget of 2 must be spent");
    }

    #[test]
    fn a_plan_lives_in_its_handle_alone() {
        // Clones share one plan and its budget; another handle, or the
        // default one, never sees it.
        let drifting = faults("drift:ep:2");
        let clone = drifting.clone();
        let other = faults("drift:cg");
        assert!(drifting.drift(KernelId::Ep));
        assert!(!other.drift(KernelId::Ep) && !Faults::default().drift(KernelId::Ep));
        assert!(
            clone.drift(KernelId::Ep),
            "the clone spends the same budget"
        );
        assert!(!drifting.drift(KernelId::Ep), "budget of 2 spent");
        assert!(other.drift(KernelId::Cg));
    }

    #[test]
    fn hooks_panic_with_budget() {
        let f = faults("cell-panic:3:1");
        let r = std::panic::catch_unwind(|| f.cell_start(3));
        assert!(r.is_err(), "first use must panic");
        f.cell_start(3); // budget spent: no panic
        f.cell_start(4); // different index: no panic
    }

    #[test]
    fn worker_panic_fires_on_period_and_is_counted() {
        let f = faults("serve-worker-panic:2:1");
        f.worker_job(); // job 1: 1 % 2 != 0
        let r = std::panic::catch_unwind(|| f.worker_job());
        assert!(r.is_err(), "period 2 must fire on job 2");
        assert_eq!(f.fired(), (1, 0, 0));
        f.worker_job(); // budget spent: quiet
        f.worker_job();
        assert_eq!(f.fired(), (1, 0, 0));
    }

    #[test]
    fn partial_write_cap_respects_budget() {
        let f = faults("serve-partial-write:2");
        assert_eq!(f.write_cap(), Some(1));
        assert_eq!(f.write_cap(), Some(1));
        assert_eq!(f.write_cap(), None, "budget of 2 spent");
        assert_eq!(f.fired(), (0, 0, 2));
    }

    /// The default handle is one word and none of its hooks fires or
    /// counts, whichever of the thirteen kinds it stands for.
    #[test]
    fn hooks_are_quiet_without_a_plan() {
        assert_eq!(std::mem::size_of::<Faults>(), std::mem::size_of::<usize>());
        let f = Faults::default();
        assert!(f.is_empty());
        for n in 0..64u64 {
            for kernel in paxsim_nas::all_kernels() {
                f.build_start(kernel); // build-panic, build-asid
                assert!(!f.drift(kernel));
            }
            f.cell_start(n as usize); // cell-panic, cell-slow
            assert!(!f.journal_fail());
            f.worker_job();
            assert!(!f.conn_kill());
            assert!(!f.batch_panic());
            f.shard_slow();
            assert_eq!(f.write_cap(), None);
            assert!(!f.predict_bias());
            assert!(!f.tune_abort(n));
        }
        assert_eq!(f.fired(), (0, 0, 0));
    }

    #[test]
    fn corruption_helpers_edit_files() {
        let dir = std::env::temp_dir().join("paxsim_faultinject_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.txt");
        std::fs::write(&path, b"hello world\n").unwrap();
        truncate_tail(&path, 6).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hello ");
        flip_bit(&path, 0).unwrap();
        assert_ne!(std::fs::read(&path).unwrap()[0], b'h');
        assert!(flip_bit(&path, 10_000).is_err());
    }
}
