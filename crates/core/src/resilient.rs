//! The machinery every study sweep runs on: per-cell fault isolation,
//! checkpoint/resume and the runtime drift sentinel.
//!
//! Each study (`single`, `multi`, `cross`) has one sweep, and each of its
//! cells runs through `Ctx::cell` on [`pool::map_indexed_isolated`]:
//!
//! 1. **Fault isolation** — panics become typed
//!    [`StudyError`](crate::error::StudyError)s,
//!    transient failures retry with bounded backoff, a watchdog deadline
//!    flags runaway cells, and the sweep always completes around poisoned
//!    cells (rendered via [`Cell::poisoned`]).
//! 2. **Checkpoint/resume** — with a journal configured, each completed
//!    cell is appended (checksummed) to the [`Journal`]; a re-run with
//!    the same options serves journaled cells without recomputation.
//!    Corrupt records are detected on load and their cells re-run.
//! 3. **Drift sentinel** — a deterministic sample of computed cells is
//!    re-run on the reference engine; a mismatch quarantines the
//!    kernel's fast path, and a repair pass re-runs *every* cell of
//!    quarantined kernels (journaled ones included) through the same
//!    cell function on [`simulate_reference`], making the final study
//!    bit-identical to an all-reference run (see `sentinel`).
//!
//! Resumed cells skip the sentinel: they were subject to it in the run
//! that journaled them. [`ResilienceOptions::none`] turns all three off;
//! the plain entry points (`run_single_program` …) run under it and
//! panic on a failed cell, naming its journal key.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use paxsim_machine::sim::{simulate_reference, JobSpec, SimOutcome};
use paxsim_machine::trace::ProgramTrace;
use paxsim_nas::KernelId;
use serde::Serialize;

use crate::error::StudyResult;
use crate::journal::{cell_key, FsyncPolicy, Journal, SideRecord};
use crate::pool::{self, CellPolicy};
use crate::sentinel::{sampled, DriftEvent, DriftSentinel};
use crate::store::{TraceKey, TraceStore};
use crate::study::{Cell, StudyOptions};

/// Knobs for the resilience layer.
#[derive(Debug, Clone)]
pub struct ResilienceOptions {
    /// Checkpoint journal path; `None` disables checkpoint/resume.
    pub journal_path: Option<PathBuf>,
    /// Drift-sentinel sampling period: each kernel's first computed cell
    /// plus every `sample_every`-th cell overall is cross-checked on the
    /// reference engine. `1` checks every cell, `0` disables the
    /// sentinel.
    pub sample_every: usize,
    /// Per-cell retry/backoff/watchdog policy, and the fault plan of the
    /// whole sweep.
    pub policy: CellPolicy,
}

impl Default for ResilienceOptions {
    fn default() -> Self {
        Self {
            journal_path: None,
            sample_every: 16,
            policy: CellPolicy::default(),
        }
    }
}

impl ResilienceOptions {
    /// The empty policy: no journal, no sentinel, no retry, no deadline,
    /// no faults. The plain entry points run under it.
    pub fn none() -> Self {
        Self {
            journal_path: None,
            sample_every: 0,
            policy: CellPolicy {
                max_retries: 0,
                ..CellPolicy::default()
            },
        }
    }

    /// Builder: checkpoint to (and resume from) `path`.
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal_path = Some(path.into());
        self
    }

    /// Builder: set the sentinel sampling period (0 disables).
    pub fn with_sampling(mut self, sample_every: usize) -> Self {
        self.sample_every = sample_every;
        self
    }

    /// Builder: replace the per-cell failure policy.
    pub fn with_policy(mut self, policy: CellPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// One cell that stayed failed after retries, with its journal key.
#[derive(Debug, Clone, Serialize)]
pub struct FailedCell {
    pub key: String,
    pub error: String,
}

/// Everything the resilience layer observed during one study run.
#[derive(Debug, Clone, Serialize)]
pub struct Resilience {
    /// Cells whose every attempt failed (rendered as poisoned cells, or
    /// dropped points in the cross-product study), sorted by key.
    pub failed_cells: Vec<FailedCell>,
    /// Retry attempts spent on transiently failing cells.
    pub retries: u32,
    /// Cells flagged by the watchdog deadline.
    pub timeouts: u32,
    /// Cells served from the journal instead of recomputed.
    pub resumed_cells: usize,
    /// Journal records dropped on load (CRC/parse failure, partial tail).
    pub corrupt_records: usize,
    /// Journal appends that failed (the study kept running).
    pub journal_write_errors: usize,
    /// Sentinel cross-checks performed.
    pub sentinel_checks: usize,
    /// Simulations answered by the reference engine due to a quarantine.
    pub sentinel_fallbacks: usize,
    /// Kernels whose fast path was quarantined.
    pub quarantined: Vec<String>,
    /// The fast-vs-reference disagreements that caused the quarantines.
    pub drift_events: Vec<DriftEvent>,
    /// Cells re-run on the reference engine by the repair pass.
    pub repaired_cells: usize,
}

impl Resilience {
    /// Did the run complete without failures, drift or corruption?
    /// (Resumed cells and sentinel checks are normal operation.)
    pub fn is_clean(&self) -> bool {
        self.failed_cells.is_empty()
            && self.timeouts == 0
            && self.corrupt_records == 0
            && self.journal_write_errors == 0
            && self.quarantined.is_empty()
    }
}

/// A study result annotated with what the resilience layer did to
/// produce it.
#[derive(Debug, Clone)]
pub struct Resilient<S> {
    pub study: S,
    pub resilience: Resilience,
}

/// The study of a run under [`ResilienceOptions::none`].
///
/// # Panics
///
/// On a failed cell, with its journal key and error: the panic payload,
/// or the trace build failure.
pub(crate) fn plain<S>(run: StudyResult<Resilient<S>>) -> S {
    let run = run.expect("the empty policy opens no journal, so the run cannot fail");
    if let Some(f) = run.resilience.failed_cells.first() {
        panic!("study cell {} failed: {}", f.key, f.error);
    }
    run.study
}

/// The serial-baseline mean a parallel cell's speedups divide by.
pub(crate) fn base(serial: &StudyResult<Cell>) -> StudyResult<f64> {
    serial.as_ref().map(|c| c.cycles.mean).map_err(Clone::clone)
}

/// How a cell is simulated.
#[derive(Clone, Copy)]
pub(crate) enum Engine {
    /// The sweep: served from the journal if it is there, else the fast
    /// engine through the sentinel, cross-checked when `check`.
    Sweep { check: bool },
    /// The repair pass: the reference engine, journal or not.
    Repair,
}

/// The simulation function a cell's trials run through.
pub(crate) type Sim<'s> = &'s dyn Fn(Vec<JobSpec>) -> SimOutcome;

/// Sweep item `i`'s cell. A trait object, so the pool's sweep is built
/// once per cell type rather than once per call site.
pub(crate) type CellFn<'f, T> = dyn Fn(usize) -> StudyResult<T> + Sync + 'f;

/// One study run's shared cell context.
pub(crate) struct Ctx<'a> {
    pub(crate) opts: &'a StudyOptions,
    store: &'a TraceStore,
    ropts: &'a ResilienceOptions,
    journal: Option<Journal>,
    sentinel: DriftSentinel,
    resumed: AtomicUsize,
    repaired: AtomicUsize,
    retries: AtomicU32,
    timeouts: AtomicU32,
    failed: Mutex<Vec<FailedCell>>,
    /// Content digest of `opts.machine`, folded into every journal key so
    /// a journal written under different hardware parameters cannot
    /// serve this study's cells.
    machine_hash: String,
}

impl<'a> Ctx<'a> {
    /// # Errors
    ///
    /// Only an unusable journal path; every per-cell failure is isolated
    /// and reported in the run's [`Resilience`].
    pub(crate) fn new(
        opts: &'a StudyOptions,
        store: &'a TraceStore,
        ropts: &'a ResilienceOptions,
    ) -> StudyResult<Self> {
        let faults = &ropts.policy.faults;
        let journal = match &ropts.journal_path {
            Some(p) => Some(Journal::open_with(p, FsyncPolicy::Flush, faults.clone())?),
            None => None,
        };
        Ok(Self {
            opts,
            store,
            ropts,
            journal,
            sentinel: DriftSentinel::with_faults(faults.clone()),
            resumed: AtomicUsize::new(0),
            repaired: AtomicUsize::new(0),
            retries: AtomicU32::new(0),
            timeouts: AtomicU32::new(0),
            failed: Mutex::new(Vec::new()),
            machine_hash: crate::hash::content_hash(&opts.machine).to_string(),
        })
    }

    /// Canonical journal key for one cell of this study.
    fn key(&self, driver: &str, kernels: &[KernelId], config: &str) -> String {
        let names: Vec<&str> = kernels.iter().map(|k| k.name()).collect();
        cell_key(
            driver,
            &names,
            &self.opts.class.to_string(),
            config,
            self.opts.trials,
            self.opts.jitter_cycles,
            &self.opts.schedule.to_string(),
            &self.machine_hash,
        )
    }

    pub(crate) fn trace(
        &self,
        kernel: KernelId,
        nthreads: usize,
    ) -> StudyResult<Arc<ProgramTrace>> {
        self.store.try_get(TraceKey {
            kernel,
            class: self.opts.class,
            nthreads,
            schedule: self.opts.schedule,
        })
    }

    /// The sweep engine for cell `linear`, `cfg_i` within its kernel's
    /// row, under the sentinel's sampling policy.
    pub(crate) fn sample(&self, cfg_i: usize, linear: usize) -> Engine {
        Engine::Sweep {
            check: sampled(self.ropts.sample_every, cfg_i, linear),
        }
    }

    pub(crate) fn quarantined(&self, kernel: KernelId) -> bool {
        self.sentinel.is_quarantined(kernel)
    }

    /// Run `f(0) … f(n-1)` on the pool under the run's cell policy.
    pub(crate) fn sweep<T: Send>(&self, n: usize, f: &CellFn<'_, T>) -> Vec<StudyResult<T>> {
        let sweep = pool::map_indexed_isolated(n, &self.ropts.policy, f);
        self.retries.fetch_add(sweep.retries, Ordering::Relaxed);
        self.timeouts.fetch_add(sweep.timeouts, Ordering::Relaxed);
        sweep.results
    }

    /// The repair pass over `slots`: re-run `f(i)` for every `i` that
    /// `stale` names, keeping each success.
    pub(crate) fn repair<T: Send>(
        &self,
        slots: &mut [StudyResult<T>],
        stale: impl Fn(usize) -> bool,
        f: &CellFn<'_, T>,
    ) {
        let items: Vec<usize> = (0..slots.len()).filter(|&i| stale(i)).collect();
        for (r, &i) in self
            .sweep(items.len(), &|k| f(items[k]))
            .into_iter()
            .zip(&items)
        {
            if r.is_ok() {
                slots[i] = r;
            }
        }
    }

    /// One cell, a side per kernel, of study `driver` on `config`: served
    /// from the journal, or `compute`d through `engine`'s simulation
    /// function and journaled.
    pub(crate) fn cell<const N: usize>(
        &self,
        driver: &str,
        kernels: [KernelId; N],
        config: &str,
        engine: Engine,
        compute: impl FnOnce(Sim) -> StudyResult<[Cell; N]>,
    ) -> StudyResult<[Cell; N]> {
        let cells = match engine {
            Engine::Sweep { check } => {
                if let Some(cells) = self.lookup(driver, &kernels, config) {
                    return Ok(cells);
                }
                let m = &self.opts.machine;
                compute(&|jobs| {
                    self.sentinel
                        .simulate_checked(&kernels, config, check, m, jobs)
                })?
            }
            Engine::Repair => {
                let cells = compute(&|jobs| simulate_reference(&self.opts.machine, jobs))?;
                self.repaired.fetch_add(1, Ordering::Relaxed);
                cells
            }
        };
        if let Some(j) = &self.journal {
            let sides = kernels.iter().zip(&cells);
            let sides = sides.map(|(k, c)| SideRecord::of(k.name(), c)).collect();
            // Append failures are counted by the journal: the study keeps
            // running, the cell just won't resume.
            let _ = j.record(&self.key(driver, &kernels, config), sides);
        }
        Ok(cells)
    }

    /// A journaled cell with one side per kernel, if any.
    fn lookup<const N: usize>(
        &self,
        driver: &str,
        kernels: &[KernelId; N],
        config: &str,
    ) -> Option<[Cell; N]> {
        let rec = self
            .journal
            .as_ref()?
            .lookup(&self.key(driver, kernels, config))?;
        if rec.sides.len() != N {
            return None;
        }
        self.resumed.fetch_add(1, Ordering::Relaxed);
        Some(std::array::from_fn(|i| rec.sides[i].to_cell()))
    }

    /// Report `r`'s failure, if it failed, under the cell's journal key.
    pub(crate) fn note<T>(
        &self,
        r: &StudyResult<T>,
        driver: &str,
        kernels: &[KernelId],
        config: &str,
    ) {
        if let Err(e) = r {
            let key = self.key(driver, kernels, config);
            let mut failed = self.failed.lock().unwrap_or_else(|e| e.into_inner());
            failed.push(FailedCell {
                key,
                error: e.to_string(),
            });
        }
    }

    pub(crate) fn finish<S>(self, study: S) -> Resilient<S> {
        let mut failed_cells = self.failed.into_inner().unwrap_or_else(|e| e.into_inner());
        failed_cells.sort_by(|a, b| a.key.cmp(&b.key));
        let journal = self.journal.as_ref();
        Resilient {
            study,
            resilience: Resilience {
                failed_cells,
                retries: self.retries.into_inner(),
                timeouts: self.timeouts.into_inner(),
                resumed_cells: self.resumed.into_inner(),
                corrupt_records: journal.map_or(0, |j| j.corrupt_records()),
                journal_write_errors: journal.map_or(0, |j| j.write_errors()),
                sentinel_checks: self.sentinel.checks(),
                sentinel_fallbacks: self.sentinel.fallbacks(),
                quarantined: self.sentinel.quarantined(),
                drift_events: self.sentinel.events(),
                repaired_cells: self.repaired.into_inner(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::sweep_single_program;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("paxsim_resilient_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn none_is_the_empty_policy() {
        let none = ResilienceOptions::none();
        assert!(none.journal_path.is_none());
        assert_eq!(none.sample_every, 0);
        assert_eq!(none.policy.max_retries, 0);
        assert!(none.policy.deadline.is_none());
        let default = ResilienceOptions::default();
        assert_eq!(default.sample_every, 16);
        assert_eq!(default.policy.max_retries, 2);
    }

    #[test]
    fn journal_resume_skips_recompute() {
        let opts = StudyOptions::quick().with_benchmarks(vec![KernelId::Ep, KernelId::Is]);
        let path = tmp("resume_unit.jsonl");
        let ropts = ResilienceOptions::default().with_journal(&path);
        let first = sweep_single_program(&opts, &TraceStore::new(), &ropts).unwrap();
        assert_eq!(first.resilience.resumed_cells, 0);
        let store = TraceStore::new();
        let second = sweep_single_program(&opts, &store, &ropts).unwrap();
        let total = opts.benchmarks.len() * second.study.configs.len();
        assert_eq!(second.resilience.resumed_cells, total);
        assert_eq!(store.builds(), 0, "a full resume builds no traces");
        for (a, b) in first.study.cells.iter().zip(&second.study.cells) {
            for (ca, cb) in a.iter().zip(b) {
                assert_eq!(ca.cycles, cb.cycles);
                assert_eq!(ca.speedup, cb.speedup);
                assert_eq!(ca.counters, cb.counters);
            }
        }
    }
}
