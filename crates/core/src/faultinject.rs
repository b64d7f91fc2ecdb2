//! Deterministic fault injection for the resilience test harness.
//!
//! The sweep machinery calls tiny hooks at its recovery-relevant choke
//! points (trace build start, cell start, fast-engine result). Each hook
//! first does a single relaxed atomic load; when no faults are installed —
//! the production configuration — that load is the *entire* cost, so the
//! harness is a no-op on the hot path.
//!
//! Faults come from two sources:
//!
//! * the `PAXSIM_FAULTS` environment variable, parsed once per process
//!   (used by `ci.sh` to run the whole resilience suite under injection);
//! * [`with_plan`], which installs a plan for the duration of a closure
//!   under a global lock (used by tests; overrides the env plan).
//!
//! Spec syntax — comma-separated faults, colon-separated fields:
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
//! ```
//!
//! Every fault carries a remaining-use counter, so "fail the first
//! attempt, succeed on retry" scenarios are expressed as `…:1`. The
//! module also ships journal corruption helpers ([`truncate_tail`],
//! [`flip_bit`]) used by the resume/corruption tests and the CI smoke.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use paxsim_machine::op::ADDR_LIMIT;
use paxsim_machine::trace::TraceBuf;

/// One injected fault with its remaining-use budget.
#[derive(Debug)]
struct Fault {
    kind: FaultKind,
    remaining: AtomicU32,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum FaultKind {
    BuildPanic { kernel: String },
    BuildAsid { kernel: String },
    CellPanic { index: usize },
    CellSlow { index: usize, ms: u64 },
    Drift { kernel: String },
    JournalFail,
    ServeWorkerPanic { period: u64 },
    ServeConnKill { period: u64 },
    ServeBatchPanic,
    ServeShardSlow { ms: u64 },
    ServePartialWrite,
    PredictBias,
    TuneAbort { period: u64 },
}

/// A parsed fault plan.
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// Parse a `PAXSIM_FAULTS`-syntax spec. Empty spec = empty plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut faults = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let fields: Vec<&str> = part.split(':').collect();
            let u = |i: usize, what: &str| -> Result<u64, String> {
                fields
                    .get(i)
                    .ok_or_else(|| format!("fault `{part}`: missing {what}"))?
                    .parse::<u64>()
                    .map_err(|_| format!("fault `{part}`: bad {what}"))
            };
            let (kind, default_times) = match fields[0] {
                "build-panic" => (
                    FaultKind::BuildPanic {
                        kernel: fields
                            .get(1)
                            .ok_or_else(|| format!("fault `{part}`: missing kernel"))?
                            .to_string(),
                    },
                    1,
                ),
                "build-asid" => (
                    FaultKind::BuildAsid {
                        kernel: fields
                            .get(1)
                            .ok_or_else(|| format!("fault `{part}`: missing kernel"))?
                            .to_string(),
                    },
                    1,
                ),
                "cell-panic" => (
                    FaultKind::CellPanic {
                        index: u(1, "index")? as usize,
                    },
                    1,
                ),
                "cell-slow" => (
                    FaultKind::CellSlow {
                        index: u(1, "index")? as usize,
                        ms: u(2, "milliseconds")?,
                    },
                    u32::MAX as u64,
                ),
                "drift" => (
                    FaultKind::Drift {
                        kernel: fields
                            .get(1)
                            .ok_or_else(|| format!("fault `{part}`: missing kernel"))?
                            .to_string(),
                    },
                    u32::MAX as u64,
                ),
                "journal-fail" => (FaultKind::JournalFail, 1),
                "serve-worker-panic" => (
                    FaultKind::ServeWorkerPanic {
                        period: u(1, "period")?.max(1),
                    },
                    1,
                ),
                "serve-conn-kill" => (
                    FaultKind::ServeConnKill {
                        period: u(1, "period")?.max(1),
                    },
                    1,
                ),
                "serve-batch-panic" => (FaultKind::ServeBatchPanic, 1),
                "serve-shard-slow" => (
                    FaultKind::ServeShardSlow {
                        ms: u(1, "milliseconds")?,
                    },
                    u32::MAX as u64,
                ),
                "serve-partial-write" => (FaultKind::ServePartialWrite, 64),
                "predict-bias" => (FaultKind::PredictBias, u32::MAX as u64),
                "tune-abort" => (
                    FaultKind::TuneAbort {
                        period: u(1, "period")?.max(1),
                    },
                    1,
                ),
                other => return Err(format!("unknown fault kind `{other}`")),
            };
            // The trailing optional field is always the use budget.
            let times_idx = match kind {
                FaultKind::CellSlow { .. } => 3,
                FaultKind::JournalFail
                | FaultKind::ServeBatchPanic
                | FaultKind::ServePartialWrite
                | FaultKind::PredictBias => 1,
                _ => 2,
            };
            let times = match fields.get(times_idx) {
                Some(_) => u(times_idx, "times")?,
                None => default_times,
            };
            faults.push(Fault {
                kind,
                remaining: AtomicU32::new(times.min(u32::MAX as u64) as u32),
            });
        }
        Ok(FaultPlan { faults })
    }

    fn consume(&self, want: impl Fn(&FaultKind) -> bool) -> Option<&FaultKind> {
        for f in &self.faults {
            if want(&f.kind) {
                // Claim one use; a raced-out decrement means the budget is
                // spent and the fault no longer fires.
                let mut cur = f.remaining.load(Ordering::Relaxed);
                while cur > 0 {
                    match f.remaining.compare_exchange(
                        cur,
                        cur - 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => return Some(&f.kind),
                        Err(now) => cur = now,
                    }
                }
            }
        }
        None
    }
}

/// Fast-path gate: true iff *any* plan (env or installed) is live.
static ACTIVE: AtomicBool = AtomicBool::new(false);
/// Test-installed plan; overrides the env plan while present.
static INSTALLED: Mutex<Option<FaultPlan>> = Mutex::new(None);
/// Serializes tests that install plans (fault state is process-global).
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking faulted test must not poison the harness for the rest
    // of the suite — the guarded state stays consistent either way.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The process-wide env plan, parsed once from `PAXSIM_FAULTS`.
fn env_plan() -> &'static Option<FaultPlan> {
    static PLAN: OnceLock<Option<FaultPlan>> = OnceLock::new();
    PLAN.get_or_init(|| {
        let spec = std::env::var("PAXSIM_FAULTS").ok()?;
        match FaultPlan::parse(&spec) {
            Ok(p) if !p.faults.is_empty() => {
                ACTIVE.store(true, Ordering::Relaxed);
                Some(p)
            }
            Ok(_) => None,
            Err(e) => {
                eprintln!("PAXSIM_FAULTS ignored: {e}");
                None
            }
        }
    })
}

/// Force env-plan parsing (call once early so `active()` is accurate
/// before the first hook fires). Returns whether an env plan is live.
pub fn init_from_env() -> bool {
    env_plan().is_some()
}

/// Is any fault plan live? One relaxed load — the entire disabled-path
/// cost of every hook.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Hold off every [`with_plan`] caller for the guard's lifetime.
///
/// Fault plans are process-global: a sweep running in one test can
/// consume a fault another test just installed. Tests that run clean
/// sweeps (baselines for a bit-identity comparison, resume runs) take
/// this guard so no plan can be live while they execute; tests that
/// inject take [`with_plan`], which holds the same lock. Acquire it
/// *before* computing a baseline and drop it before calling `with_plan`
/// — the lock is not reentrant.
pub fn quiesced() -> MutexGuard<'static, ()> {
    lock(&TEST_LOCK)
}

/// Run `f` with `spec` installed as the process fault plan, serializing
/// against every other `with_plan` caller. The previous state is restored
/// even if `f` panics.
pub fn with_plan<R>(spec: &str, f: impl FnOnce() -> R) -> R {
    let plan = FaultPlan::parse(spec).expect("with_plan: bad fault spec");
    let _serial = lock(&TEST_LOCK);
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            *lock(&INSTALLED) = None;
            ACTIVE.store(env_plan().is_some(), Ordering::Relaxed);
        }
    }
    *lock(&INSTALLED) = Some(plan);
    ACTIVE.store(true, Ordering::Relaxed);
    let _restore = Restore;
    f()
}

fn consume(want: impl Fn(&FaultKind) -> bool + Copy) -> Option<FaultKind> {
    let installed = lock(&INSTALLED);
    if let Some(plan) = installed.as_ref() {
        return plan.consume(want).cloned();
    }
    drop(installed);
    env_plan().as_ref().and_then(|p| p.consume(want).cloned())
}

/// Hook: start of a trace build for `kernel`. Panics if a matching
/// `build-panic` fault has budget left; on a matching `build-asid` fault
/// emits a store at [`ADDR_LIMIT`], the first address the engine's ASID
/// tag would alias, which the trace codec itself refuses.
#[inline]
pub(crate) fn build_hook(kernel: &str) {
    if !active() {
        return;
    }
    if consume(|k| matches!(k, FaultKind::BuildPanic { kernel: fk } if fk == kernel)).is_some() {
        panic!("injected build fault for {kernel}");
    }
    if consume(|k| matches!(k, FaultKind::BuildAsid { kernel: fk } if fk == kernel)).is_some() {
        TraceBuf::new().store(ADDR_LIMIT);
    }
}

/// Hook: start of sweep item `index`. Sleeps on a matching `cell-slow`
/// fault, panics on a matching `cell-panic` fault.
#[inline]
pub(crate) fn cell_hook(index: usize) {
    if !active() {
        return;
    }
    if let Some(FaultKind::CellSlow { ms, .. }) =
        consume(|k| matches!(k, FaultKind::CellSlow { index: fi, .. } if *fi == index))
    {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
    if consume(|k| matches!(k, FaultKind::CellPanic { index: fi } if *fi == index)).is_some() {
        panic!("injected cell fault at item {index}");
    }
}

/// Hook: should the fast-engine result for `kernel` be perturbed
/// (simulating engine drift the sentinel must catch)?
#[inline]
pub(crate) fn drift_hook(kernel: &str) -> bool {
    if !active() {
        return false;
    }
    consume(|k| matches!(k, FaultKind::Drift { kernel: fk } if fk == kernel)).is_some()
}

/// Hook: about to append a journal record. True iff a `journal-fail`
/// fault has budget left — the caller must turn that into an I/O error.
#[inline]
pub(crate) fn journal_fail_hook() -> bool {
    if !active() {
        return false;
    }
    consume(|k| matches!(k, FaultKind::JournalFail)).is_some()
}

/// Hook: serve worker about to run job number `job`. True iff a
/// `serve-worker-panic` fault matches (`job % period == 0`) and has
/// budget left — the caller panics inside its own isolation boundary.
#[inline]
pub fn serve_worker_panic(job: u64) -> bool {
    if !active() {
        return false;
    }
    consume(|k| matches!(k, FaultKind::ServeWorkerPanic { period } if job.is_multiple_of(*period)))
        .is_some()
}

/// Hook: reactor dispatched frame number `frame`. True iff a
/// `serve-conn-kill` fault matches (`frame % period == 0`) and has budget
/// left — the caller drops the connection carrying that frame.
#[inline]
pub fn serve_conn_kill(frame: u64) -> bool {
    if !active() {
        return false;
    }
    consume(|k| matches!(k, FaultKind::ServeConnKill { period } if frame.is_multiple_of(*period)))
        .is_some()
}

/// Hook: batch leader about to execute a gathered sweep. True iff a
/// `serve-batch-panic` fault has budget left — the caller panics so the
/// batcher's poison-recovery path is exercised.
#[inline]
pub fn serve_batch_panic() -> bool {
    if !active() {
        return false;
    }
    consume(|k| matches!(k, FaultKind::ServeBatchPanic)).is_some()
}

/// Hook: tune search about to run fresh evaluation number `evals`
/// (1-based within one search). True iff a `tune-abort` fault matches
/// (`evals % period == 0`) and has budget left — the caller fails the
/// tune request mid-search so the journaled-resume path is exercised.
#[inline]
pub fn tune_abort(evals: u64) -> bool {
    if !active() {
        return false;
    }
    consume(|k| matches!(k, FaultKind::TuneAbort { period } if evals.is_multiple_of(*period)))
        .is_some()
}

/// Hook: shard cache lookup. Returns the injected latency of a matching
/// `serve-shard-slow` fault, if any — the caller sleeps that long.
#[inline]
pub fn serve_shard_slow() -> Option<u64> {
    if !active() {
        return None;
    }
    match consume(|k| matches!(k, FaultKind::ServeShardSlow { .. })) {
        Some(FaultKind::ServeShardSlow { ms }) => Some(ms),
        _ => None,
    }
}

/// Hook: reactor about to flush a connection's write queue. True iff a
/// `serve-partial-write` fault has budget left — the caller caps this
/// write pass at one byte, modelling a saturated socket / slow reader.
#[inline]
pub fn serve_partial_write() -> bool {
    if !active() {
        return false;
    }
    consume(|k| matches!(k, FaultKind::ServePartialWrite)).is_some()
}

/// Hook: the analytical predictor is about to emit a prediction. True iff
/// a `predict-bias` fault has budget left — the caller skews the
/// predicted wall clock well past its declared error bound, modelling a
/// miscalibrated model the prediction auditor must detect and quarantine.
#[inline]
pub fn predict_bias() -> bool {
    if !active() {
        return false;
    }
    consume(|k| matches!(k, FaultKind::PredictBias)).is_some()
}

// ---------------------------------------------------------------------------
// Journal corruption helpers (used by resume/corruption tests and CI).
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

    #[test]
    fn parse_all_kinds() {
        let p =
            FaultPlan::parse("build-panic:cg:2, cell-panic:7, cell-slow:3:50, drift:ep:4").unwrap();
        assert_eq!(p.faults.len(), 4);
        assert_eq!(p.faults[0].remaining.load(Ordering::Relaxed), 2);
        assert_eq!(p.faults[1].remaining.load(Ordering::Relaxed), 1);
        assert_eq!(p.faults[2].remaining.load(Ordering::Relaxed), u32::MAX);
        assert_eq!(p.faults[3].remaining.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn parse_serve_kinds() {
        let p = FaultPlan::parse(
            "journal-fail:3, serve-worker-panic:97:5, serve-conn-kill:83, \
             serve-batch-panic, serve-shard-slow:25:2, serve-partial-write:10",
        )
        .unwrap();
        assert_eq!(p.faults.len(), 6);
        assert_eq!(p.faults[0].remaining.load(Ordering::Relaxed), 3);
        assert_eq!(p.faults[1].kind, FaultKind::ServeWorkerPanic { period: 97 });
        assert_eq!(p.faults[1].remaining.load(Ordering::Relaxed), 5);
        assert_eq!(p.faults[2].remaining.load(Ordering::Relaxed), 1);
        assert_eq!(p.faults[3].kind, FaultKind::ServeBatchPanic);
        assert_eq!(p.faults[4].kind, FaultKind::ServeShardSlow { ms: 25 });
        assert_eq!(p.faults[4].remaining.load(Ordering::Relaxed), 2);
        assert_eq!(p.faults[5].remaining.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn serve_hooks_match_period_and_budget() {
        with_plan("serve-worker-panic:10:2, serve-conn-kill:3:1", || {
            assert!(!serve_worker_panic(7), "7 % 10 != 0");
            assert!(serve_worker_panic(20));
            assert!(serve_worker_panic(30));
            assert!(!serve_worker_panic(40), "budget of 2 spent");
            assert!(serve_conn_kill(9));
            assert!(!serve_conn_kill(12), "budget of 1 spent");
        });
        with_plan("serve-shard-slow:17:1, serve-partial-write:2", || {
            assert_eq!(serve_shard_slow(), Some(17));
            assert_eq!(serve_shard_slow(), None);
            assert!(serve_partial_write());
            assert!(serve_partial_write());
            assert!(!serve_partial_write());
        });
        with_plan("journal-fail, serve-batch-panic", || {
            assert!(journal_fail_hook());
            assert!(!journal_fail_hook());
            assert!(serve_batch_panic());
            assert!(!serve_batch_panic());
        });
    }

    #[test]
    fn tune_abort_parses_and_fires_on_period() {
        let p = FaultPlan::parse("tune-abort:3:2").unwrap();
        assert_eq!(p.faults[0].kind, FaultKind::TuneAbort { period: 3 });
        assert_eq!(p.faults[0].remaining.load(Ordering::Relaxed), 2);
        with_plan("tune-abort:3:1", || {
            assert!(!tune_abort(1));
            assert!(!tune_abort(2));
            assert!(tune_abort(3));
            assert!(!tune_abort(6), "budget of 1 spent");
        });
    }

    #[test]
    fn predict_bias_parses_and_consumes() {
        let p = FaultPlan::parse("predict-bias").unwrap();
        assert_eq!(p.faults[0].kind, FaultKind::PredictBias);
        assert_eq!(p.faults[0].remaining.load(Ordering::Relaxed), u32::MAX);
        let p = FaultPlan::parse("predict-bias:2").unwrap();
        assert_eq!(p.faults[0].remaining.load(Ordering::Relaxed), 2);
        with_plan("predict-bias:1", || {
            assert!(predict_bias());
            assert!(!predict_bias(), "budget of 1 spent");
        });
        let _q = quiesced();
        assert!(!predict_bias(), "no plan, no bias");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("explode:now").is_err());
        assert!(FaultPlan::parse("cell-panic:notanumber").is_err());
        assert!(FaultPlan::parse("build-panic").is_err());
        assert!(FaultPlan::parse("build-asid").is_err());
        assert!(FaultPlan::parse("serve-worker-panic").is_err());
        assert!(FaultPlan::parse("serve-shard-slow:fast").is_err());
        assert!(FaultPlan::parse("").unwrap().faults.is_empty());
    }

    #[test]
    fn budgets_are_consumed() {
        let p = FaultPlan::parse("cell-panic:5:2").unwrap();
        let hit = |p: &FaultPlan| {
            p.consume(|k| matches!(k, FaultKind::CellPanic { index: 5 }))
                .is_some()
        };
        assert!(hit(&p));
        assert!(hit(&p));
        assert!(!hit(&p), "budget of 2 must be spent");
    }

    #[test]
    fn with_plan_installs_and_restores() {
        // Either fully off, or the env plan. Read under the plan lock: a
        // sibling test's plan may be live at any other moment.
        let at_rest = || {
            let _quiet = quiesced();
            let env = env_plan().is_some();
            active() == env
        };
        assert!(at_rest());
        with_plan("drift:ep", || {
            assert!(active());
            assert!(drift_hook("ep"));
            assert!(!drift_hook("cg"));
        });
        assert!(at_rest(), "restored");
    }

    #[test]
    fn hooks_panic_with_budget() {
        with_plan("cell-panic:3:1", || {
            let r = std::panic::catch_unwind(|| cell_hook(3));
            assert!(r.is_err(), "first use must panic");
            cell_hook(3); // budget spent: no panic
            cell_hook(4); // different index: no panic
        });
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
