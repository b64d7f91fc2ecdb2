//! Resilient sweep execution: the §4.1–4.3 study drivers wrapped in
//! checkpoint/resume, per-cell fault isolation and the runtime drift
//! sentinel.
//!
//! Three layers compose around the plain drivers' cell functions:
//!
//! 1. **Fault isolation** — every cell runs on
//!    [`pool::map_indexed_isolated`]: panics become typed
//!    [`StudyError`]s, transient failures retry with bounded backoff, a
//!    watchdog deadline flags runaway cells, and the sweep always
//!    completes around poisoned cells (rendered via [`Cell::poisoned`]).
//! 2. **Checkpoint/resume** — with a journal configured, each completed
//!    cell is appended (checksummed) to the [`Journal`]; a re-run with
//!    the same options serves journaled cells without recomputation, so
//!    an interrupted or partially-failed study resumes where it stopped.
//!    Corrupt records are detected on load and their cells re-run.
//! 3. **Drift sentinel** — a deterministic sample of computed cells is
//!    re-run on the reference engine; a mismatch quarantines the
//!    kernel's fast path, and a repair pass then re-runs *every* cell of
//!    quarantined kernels (journaled ones included) on the reference
//!    engine, making the final study bit-identical to an all-reference
//!    run (see `sentinel` module docs for the exactness argument).
//!
//! Resumed cells skip the sentinel: they were subject to it in the run
//! that computed and journaled them.
//!
//! Faults: the cell policy's [`Faults`](crate::faultinject::Faults) handle
//! reaches the cells, the sentinel and the journal; trace builds take the
//! plan of the [`TraceStore`] the caller passes.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use paxsim_machine::sim::{simulate_reference, JobSpec, SimOutcome};
use paxsim_machine::trace::ProgramTrace;
use paxsim_nas::KernelId;
use paxsim_perfmon::stats::Summary;
use serde::Serialize;

use crate::configs::{parallel_configs, serial, HwConfig};
use crate::cross::{all_pairs, CrossStudy, PairPoint};
use crate::error::StudyResult;
use crate::journal::{cell_key, FsyncPolicy, Journal, SideRecord};
use crate::multi::{run_workload_with, JobSide, MultiCell, MultiStudy};
use crate::pool::{self, CellPolicy};
use crate::sentinel::{sampled, DriftEvent, DriftSentinel};
use crate::single::{run_trials_with, SingleStudy};
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
    /// dropped points in the cross-product study).
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

// ---------------------------------------------------------------------------
// Shared driver context.
// ---------------------------------------------------------------------------

struct Ctx<'a> {
    opts: &'a StudyOptions,
    store: &'a TraceStore,
    ropts: &'a ResilienceOptions,
    journal: Option<Journal>,
    sentinel: DriftSentinel,
    resumed: AtomicUsize,
    repaired: AtomicUsize,
    /// Content digest of `opts.machine`, folded into every journal key so
    /// a journal written under different hardware parameters cannot
    /// serve this study's cells.
    machine_hash: String,
}

impl<'a> Ctx<'a> {
    fn new(
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
            machine_hash: crate::hash::content_hash(&opts.machine).to_string(),
        })
    }

    /// Canonical journal key for one cell of this study.
    fn key(&self, driver: &str, benches: &[&str], config: &str) -> String {
        cell_key(
            driver,
            benches,
            &self.opts.class.to_string(),
            config,
            self.opts.trials,
            self.opts.jitter_cycles,
            &self.opts.schedule.to_string(),
            &self.machine_hash,
        )
    }

    /// A journaled cell with the expected number of sides, if any.
    fn lookup(&self, key: &str, sides: usize) -> Option<Vec<SideRecord>> {
        let rec = self.journal.as_ref()?.lookup(key)?;
        if rec.sides.len() != sides {
            return None;
        }
        self.resumed.fetch_add(1, Ordering::Relaxed);
        Some(rec.sides)
    }

    /// Checkpoint a completed cell. Append failures are counted by the
    /// journal (the study keeps running; the cell just won't resume).
    fn save(&self, key: &str, sides: Vec<SideRecord>) {
        if let Some(j) = &self.journal {
            let _ = j.record(key, sides);
        }
    }

    fn trace(&self, kernel: KernelId, nthreads: usize) -> StudyResult<Arc<ProgramTrace>> {
        self.store.try_get(TraceKey {
            kernel,
            class: self.opts.class,
            nthreads,
            schedule: self.opts.schedule,
        })
    }

    /// Simulation function routed through the drift sentinel.
    fn checked_sim<'s>(
        &'s self,
        kernels: &'s [KernelId],
        config: &'s str,
        check: bool,
    ) -> impl Fn(Vec<JobSpec>) -> SimOutcome + 's {
        move |jobs| {
            self.sentinel
                .simulate_checked(kernels, config, check, &self.opts.machine, jobs)
        }
    }

    /// The reference engine, unconditionally (repair pass).
    fn reference_sim(&self) -> impl Fn(Vec<JobSpec>) -> SimOutcome + '_ {
        move |jobs| simulate_reference(&self.opts.machine, jobs)
    }

    fn mark_repaired(&self) {
        self.repaired.fetch_add(1, Ordering::Relaxed);
    }

    fn into_resilience(
        self,
        failed_cells: Vec<FailedCell>,
        retries: u32,
        timeouts: u32,
    ) -> Resilience {
        Resilience {
            failed_cells,
            retries,
            timeouts,
            resumed_cells: self.resumed.load(Ordering::Relaxed),
            corrupt_records: self.journal.as_ref().map_or(0, |j| j.corrupt_records()),
            journal_write_errors: self.journal.as_ref().map_or(0, |j| j.write_errors()),
            sentinel_checks: self.sentinel.checks(),
            sentinel_fallbacks: self.sentinel.fallbacks(),
            quarantined: self.sentinel.quarantined(),
            drift_events: self.sentinel.events(),
            repaired_cells: self.repaired.load(Ordering::Relaxed),
        }
    }

    // --- single-program cells ---

    /// Serial baseline cell of `benchmarks[bi]` (speedup ≡ 1).
    fn single_serial(&self, bi: usize, config: &HwConfig) -> StudyResult<Cell> {
        let bench = self.opts.benchmarks[bi];
        let key = self.key("single", &[bench.name()], &config.name);
        if let Some(sides) = self.lookup(&key, 1) {
            return Ok(sides[0].to_cell());
        }
        let trace = self.trace(bench, 1)?;
        let kernels = [bench];
        let check = sampled(self.ropts.sample_every, 0, bi);
        let sim = self.checked_sim(&kernels, &config.name, check);
        let (cycles, counters) = run_trials_with(self.opts, &trace, config, &sim);
        let cell = Cell {
            speedup: Summary::of(&vec![1.0; self.opts.trials]),
            cycles: Summary::of(&cycles),
            counters,
        };
        self.save(&key, vec![SideRecord::of(bench.name(), &cell)]);
        Ok(cell)
    }

    /// Parallel cell of `benchmarks[bi]` on `config`, with speedups
    /// against the serial baseline mean `base`.
    fn single_parallel(
        &self,
        bi: usize,
        cfg_i: usize,
        linear: usize,
        config: &HwConfig,
        base: f64,
    ) -> StudyResult<Cell> {
        let bench = self.opts.benchmarks[bi];
        let key = self.key("single", &[bench.name()], &config.name);
        if let Some(sides) = self.lookup(&key, 1) {
            return Ok(sides[0].to_cell());
        }
        let trace = self.trace(bench, config.threads)?;
        let kernels = [bench];
        let check = sampled(self.ropts.sample_every, cfg_i, linear);
        let sim = self.checked_sim(&kernels, &config.name, check);
        let (cycles, counters) = run_trials_with(self.opts, &trace, config, &sim);
        let speedups: Vec<f64> = cycles.iter().map(|&c| base / c).collect();
        let cell = Cell {
            cycles: Summary::of(&cycles),
            speedup: Summary::of(&speedups),
            counters,
        };
        self.save(&key, vec![SideRecord::of(bench.name(), &cell)]);
        Ok(cell)
    }

    // --- pair cells (multi-program and cross-product) ---

    /// Serial baseline cell for a pair study (single quiet run, as in
    /// the plain drivers). Shared between `multi` and `cross` under the
    /// `serial` driver tag, so either study resumes the other's bases.
    fn serial_base(&self, bench: KernelId, bi: usize) -> StudyResult<Cell> {
        let cfg = serial();
        let key = self.key("serial", &[bench.name()], &cfg.name);
        if let Some(sides) = self.lookup(&key, 1) {
            return Ok(sides[0].to_cell());
        }
        let trace = self.trace(bench, 1)?;
        let kernels = [bench];
        let check = sampled(self.ropts.sample_every, 0, bi);
        let sim = self.checked_sim(&kernels, &cfg.name, check);
        let out = sim(vec![JobSpec::pinned(trace, cfg.contexts)]);
        let cell = Cell {
            cycles: Summary::of(&[out.jobs[0].cycles as f64]),
            speedup: Summary::of(&[1.0]),
            counters: out.jobs[0].counters,
        };
        self.save(&key, vec![SideRecord::of(bench.name(), &cell)]);
        Ok(cell)
    }

    /// One two-program cell (a §4.2 workload or a §4.3 pair).
    fn pair_cell(
        &self,
        driver: &str,
        w: (KernelId, KernelId),
        cfg_i: usize,
        linear: usize,
        config: &HwConfig,
        bases: (f64, f64),
    ) -> StudyResult<MultiCell> {
        let names = [w.0.name(), w.1.name()];
        let key = self.key(driver, &names, &config.name);
        if let Some(sides) = self.lookup(&key, 2) {
            return Ok(MultiCell {
                config: config.clone(),
                sides: vec![
                    JobSide {
                        bench: w.0,
                        cell: sides[0].to_cell(),
                    },
                    JobSide {
                        bench: w.1,
                        cell: sides[1].to_cell(),
                    },
                ],
            });
        }
        let per = config.threads / 2;
        let traces = [self.trace(w.0, per)?, self.trace(w.1, per)?];
        let kernels = [w.0, w.1];
        let check = sampled(self.ropts.sample_every, cfg_i, linear);
        let sim = self.checked_sim(&kernels, &config.name, check);
        let cell = run_workload_with(self.opts, traces, w, config, bases, &sim);
        self.save(
            &key,
            vec![
                SideRecord::of(names[0], &cell.sides[0].cell),
                SideRecord::of(names[1], &cell.sides[1].cell),
            ],
        );
        Ok(cell)
    }

    // --- quarantine repair ---

    /// Recompute the serial bases of quarantined kernels on the
    /// reference engine; returns the quarantined kernel-name set.
    fn repair_bases(&self, bases: &mut HashMap<KernelId, StudyResult<Cell>>) -> Vec<String> {
        let q = self.sentinel.quarantined();
        if q.is_empty() {
            return q;
        }
        let cfg = serial();
        for (&bench, slot) in bases.iter_mut() {
            if !q.contains(&bench.name().to_string()) {
                continue;
            }
            if let Ok(trace) = self.trace(bench, 1) {
                let out = simulate_reference(
                    &self.opts.machine,
                    vec![JobSpec::pinned(trace, cfg.contexts.clone())],
                );
                let cell = Cell {
                    cycles: Summary::of(&[out.jobs[0].cycles as f64]),
                    speedup: Summary::of(&[1.0]),
                    counters: out.jobs[0].counters,
                };
                self.save(
                    &self.key("serial", &[bench.name()], &cfg.name),
                    vec![SideRecord::of(bench.name(), &cell)],
                );
                *slot = Ok(cell);
                self.mark_repaired();
            }
        }
        q
    }

    /// Recompute one two-program cell on the reference engine.
    fn repair_pair_cell(
        &self,
        driver: &str,
        w: (KernelId, KernelId),
        config: &HwConfig,
        bases: (f64, f64),
    ) -> StudyResult<MultiCell> {
        let per = config.threads / 2;
        let traces = [self.trace(w.0, per)?, self.trace(w.1, per)?];
        let sim = self.reference_sim();
        let cell = run_workload_with(self.opts, traces, w, config, bases, &sim);
        let names = [w.0.name(), w.1.name()];
        self.save(
            &self.key(driver, &names, &config.name),
            vec![
                SideRecord::of(names[0], &cell.sides[0].cell),
                SideRecord::of(names[1], &cell.sides[1].cell),
            ],
        );
        self.mark_repaired();
        Ok(cell)
    }
}

// ---------------------------------------------------------------------------
// §4.1 single-program.
// ---------------------------------------------------------------------------

/// Resilient variant of [`crate::single::run_single_program`].
///
/// # Errors
///
/// Only an unusable journal path fails the call; every per-cell failure
/// is isolated and reported in the returned [`Resilience`].
pub fn run_single_program_resilient(
    opts: &StudyOptions,
    store: &TraceStore,
    ropts: &ResilienceOptions,
) -> StudyResult<Resilient<SingleStudy>> {
    let ctx = Ctx::new(opts, store, ropts)?;
    let configs: Vec<HwConfig> = {
        let mut v = vec![serial()];
        v.extend(parallel_configs());
        v
    };
    let nb = opts.benchmarks.len();
    let npar = configs.len() - 1;

    // Phase 1: serial baselines (fault-isolated).
    let serial_sweep =
        pool::map_indexed_isolated(nb, &ropts.policy, |bi| ctx.single_serial(bi, &configs[0]));
    let mut serial_cells = serial_sweep.results;

    // Phase 2: parallel cells. A failed serial baseline poisons its row
    // (no baseline, no speedup).
    let par_sweep = pool::map_indexed_isolated(nb * npar, &ropts.policy, |i| {
        let (bi, ci) = (i / npar, i % npar);
        let base = match &serial_cells[bi] {
            Ok(c) => c.cycles.mean,
            Err(e) => return Err(e.clone()),
        };
        ctx.single_parallel(bi, ci, i, &configs[1 + ci], base)
    });
    let mut par_cells = par_sweep.results;

    // Phase 3: quarantine repair — re-run every cell of quarantined
    // kernels (journaled ones included) on the reference engine, serial
    // bases first so the row's speedups are recomputed consistently.
    let q = ctx.sentinel.quarantined();
    if !q.is_empty() {
        let reference = ctx.reference_sim();
        for (bi, &bench) in opts.benchmarks.iter().enumerate() {
            if !q.contains(&bench.name().to_string()) {
                continue;
            }
            let Ok(trace) = ctx.trace(bench, 1) else {
                continue;
            };
            let (cycles, counters) = run_trials_with(opts, &trace, &configs[0], &reference);
            let cell = Cell {
                speedup: Summary::of(&vec![1.0; opts.trials]),
                cycles: Summary::of(&cycles),
                counters,
            };
            ctx.save(
                &ctx.key("single", &[bench.name()], &configs[0].name),
                vec![SideRecord::of(bench.name(), &cell)],
            );
            let base = cell.cycles.mean;
            serial_cells[bi] = Ok(cell);
            ctx.mark_repaired();
            for ci in 0..npar {
                let config = &configs[1 + ci];
                let Ok(trace) = ctx.trace(bench, config.threads) else {
                    continue;
                };
                let (cycles, counters) = run_trials_with(opts, &trace, config, &reference);
                let speedups: Vec<f64> = cycles.iter().map(|&c| base / c).collect();
                let cell = Cell {
                    cycles: Summary::of(&cycles),
                    speedup: Summary::of(&speedups),
                    counters,
                };
                ctx.save(
                    &ctx.key("single", &[bench.name()], &config.name),
                    vec![SideRecord::of(bench.name(), &cell)],
                );
                par_cells[bi * npar + ci] = Ok(cell);
                ctx.mark_repaired();
            }
        }
    }

    // Assemble, poisoning failed cells, and collect failures with keys.
    let mut failed = Vec::new();
    for (bi, r) in serial_cells.iter().enumerate() {
        if let Err(e) = r {
            failed.push(FailedCell {
                key: ctx.key("single", &[opts.benchmarks[bi].name()], &configs[0].name),
                error: e.to_string(),
            });
        }
    }
    for (i, r) in par_cells.iter().enumerate() {
        if let Err(e) = r {
            let (bi, ci) = (i / npar, i % npar);
            failed.push(FailedCell {
                key: ctx.key(
                    "single",
                    &[opts.benchmarks[bi].name()],
                    &configs[1 + ci].name,
                ),
                error: e.to_string(),
            });
        }
    }
    let cells: Vec<Vec<Cell>> = (0..nb)
        .map(|bi| {
            let mut row = Vec::with_capacity(configs.len());
            row.push(take_or_poison(&serial_cells[bi]));
            for ci in 0..npar {
                row.push(take_or_poison(&par_cells[bi * npar + ci]));
            }
            row
        })
        .collect();

    let resilience = ctx.into_resilience(
        failed,
        serial_sweep.retries + par_sweep.retries,
        serial_sweep.timeouts + par_sweep.timeouts,
    );
    Ok(Resilient {
        study: SingleStudy {
            options_class: opts.class.to_string(),
            benchmarks: opts.benchmarks.clone(),
            configs,
            cells,
        },
        resilience,
    })
}

fn take_or_poison(r: &StudyResult<Cell>) -> Cell {
    r.as_ref().cloned().unwrap_or_else(|_| Cell::poisoned())
}

fn base_of(bases: &HashMap<KernelId, StudyResult<Cell>>, k: KernelId) -> StudyResult<f64> {
    match &bases[&k] {
        Ok(c) => Ok(c.cycles.mean),
        Err(e) => Err(e.clone()),
    }
}

// ---------------------------------------------------------------------------
// §4.2 multi-program.
// ---------------------------------------------------------------------------

/// Resilient variant of [`crate::multi::run_multi_program`].
///
/// # Errors
///
/// Only an unusable journal path fails the call.
pub fn run_multi_program_resilient(
    opts: &StudyOptions,
    store: &TraceStore,
    workloads: &[(KernelId, KernelId)],
    ropts: &ResilienceOptions,
) -> StudyResult<Resilient<MultiStudy>> {
    let ctx = Ctx::new(opts, store, ropts)?;
    let configs: Vec<HwConfig> = parallel_configs()
        .into_iter()
        .filter(|c| c.threads >= 2)
        .collect();
    let mut benches: Vec<KernelId> = workloads.iter().flat_map(|&(a, b)| [a, b]).collect();
    benches.sort();
    benches.dedup();

    // Phase 1: serial baselines.
    let base_sweep = pool::map_indexed_isolated(benches.len(), &ropts.policy, |bi| {
        ctx.serial_base(benches[bi], bi)
    });
    let mut bases: HashMap<KernelId, StudyResult<Cell>> =
        benches.iter().copied().zip(base_sweep.results).collect();

    // Phase 2: workload cells.
    let nc = configs.len();
    let cell_sweep = pool::map_indexed_isolated(workloads.len() * nc, &ropts.policy, |i| {
        let (wi, ci) = (i / nc, i % nc);
        let w = workloads[wi];
        let b = (base_of(&bases, w.0)?, base_of(&bases, w.1)?);
        ctx.pair_cell("multi", w, ci, i, &configs[ci], b)
    });
    let mut cell_results = cell_sweep.results;

    // Phase 3: quarantine repair.
    let q = ctx.repair_bases(&mut bases);
    if !q.is_empty() {
        for (i, slot) in cell_results.iter_mut().enumerate() {
            let (wi, ci) = (i / nc, i % nc);
            let w = workloads[wi];
            if !q.contains(&w.0.name().to_string()) && !q.contains(&w.1.name().to_string()) {
                continue;
            }
            let Ok(b0) = base_of(&bases, w.0) else {
                continue;
            };
            let Ok(b1) = base_of(&bases, w.1) else {
                continue;
            };
            if let Ok(cell) = ctx.repair_pair_cell("multi", w, &configs[ci], (b0, b1)) {
                *slot = Ok(cell);
            }
        }
    }

    // Assemble; a failed cell keeps its config shape with poisoned sides.
    let mut failed = Vec::new();
    for (bench, r) in &bases {
        if let Err(e) = r {
            failed.push(FailedCell {
                key: ctx.key("serial", &[bench.name()], &serial().name),
                error: e.to_string(),
            });
        }
    }
    for (i, r) in cell_results.iter().enumerate() {
        if let Err(e) = r {
            let (wi, ci) = (i / nc, i % nc);
            let w = workloads[wi];
            failed.push(FailedCell {
                key: ctx.key("multi", &[w.0.name(), w.1.name()], &configs[ci].name),
                error: e.to_string(),
            });
        }
    }
    failed.sort_by(|a, b| a.key.cmp(&b.key));
    let mut it = cell_results.into_iter();
    let cells: Vec<Vec<MultiCell>> = workloads
        .iter()
        .map(|&w| {
            configs
                .iter()
                .map(|config| {
                    it.next()
                        .expect("sweep covered every (workload, config)")
                        .unwrap_or_else(|_| MultiCell {
                            config: config.clone(),
                            sides: vec![
                                JobSide {
                                    bench: w.0,
                                    cell: Cell::poisoned(),
                                },
                                JobSide {
                                    bench: w.1,
                                    cell: Cell::poisoned(),
                                },
                            ],
                        })
                })
                .collect()
        })
        .collect();

    let resilience = ctx.into_resilience(
        failed,
        base_sweep.retries + cell_sweep.retries,
        base_sweep.timeouts + cell_sweep.timeouts,
    );
    Ok(Resilient {
        study: MultiStudy {
            workloads: workloads.to_vec(),
            configs,
            cells,
        },
        resilience,
    })
}

// ---------------------------------------------------------------------------
// §4.3 cross-product.
// ---------------------------------------------------------------------------

/// Resilient variant of [`crate::cross::run_cross_product`]. Failed pair
/// cells are dropped from the point cloud (and reported); a
/// configuration losing every point is omitted from the Figure 5 boxes.
///
/// # Errors
///
/// Only an unusable journal path fails the call.
pub fn run_cross_product_resilient(
    opts: &StudyOptions,
    store: &TraceStore,
    ropts: &ResilienceOptions,
) -> StudyResult<Resilient<CrossStudy>> {
    let ctx = Ctx::new(opts, store, ropts)?;
    let configs: Vec<HwConfig> = parallel_configs()
        .into_iter()
        .filter(|c| c.threads >= 2)
        .collect();
    let pairs = all_pairs(&opts.benchmarks);
    let np = pairs.len();

    // Phase 1: serial baselines (shared `serial` journal tag with §4.2).
    let base_sweep = pool::map_indexed_isolated(opts.benchmarks.len(), &ropts.policy, |bi| {
        ctx.serial_base(opts.benchmarks[bi], bi)
    });
    let mut bases: HashMap<KernelId, StudyResult<Cell>> = opts
        .benchmarks
        .iter()
        .copied()
        .zip(base_sweep.results)
        .collect();

    // Phase 2: pair cells. The first configuration's whole row is
    // sentinel-eligible (cfg_i = ci), giving every pair — hence every
    // kernel — first-cell coverage.
    let point_sweep = pool::map_indexed_isolated(configs.len() * np, &ropts.policy, |i| {
        let (ci, pi) = (i / np, i % np);
        let pair = pairs[pi];
        let b = (base_of(&bases, pair.0)?, base_of(&bases, pair.1)?);
        let cell = ctx.pair_cell("cross", pair, ci, i, &configs[ci], b)?;
        Ok((pair, ci, cell))
    });
    let mut point_results = point_sweep.results;

    // Phase 3: quarantine repair.
    let q = ctx.repair_bases(&mut bases);
    if !q.is_empty() {
        for (i, slot) in point_results.iter_mut().enumerate() {
            let (ci, pi) = (i / np, i % np);
            let pair = pairs[pi];
            if !q.contains(&pair.0.name().to_string()) && !q.contains(&pair.1.name().to_string()) {
                continue;
            }
            let Ok(b0) = base_of(&bases, pair.0) else {
                continue;
            };
            let Ok(b1) = base_of(&bases, pair.1) else {
                continue;
            };
            if let Ok(cell) = ctx.repair_pair_cell("cross", pair, &configs[ci], (b0, b1)) {
                *slot = Ok((pair, ci, cell));
            }
        }
    }

    let mut failed = Vec::new();
    for (bench, r) in &bases {
        if let Err(e) = r {
            failed.push(FailedCell {
                key: ctx.key("serial", &[bench.name()], &serial().name),
                error: e.to_string(),
            });
        }
    }
    let mut points = Vec::new();
    for (i, r) in point_results.into_iter().enumerate() {
        match r {
            Ok((pair, ci, cell)) => points.push(PairPoint {
                pair,
                config: configs[ci].name.clone(),
                speedups: [
                    cell.sides[0].cell.speedup.mean,
                    cell.sides[1].cell.speedup.mean,
                ],
            }),
            Err(e) => {
                let (ci, pi) = (i / np, i % np);
                let pair = pairs[pi];
                failed.push(FailedCell {
                    key: ctx.key("cross", &[pair.0.name(), pair.1.name()], &configs[ci].name),
                    error: e.to_string(),
                });
            }
        }
    }
    failed.sort_by(|a, b| a.key.cmp(&b.key));

    let resilience = ctx.into_resilience(
        failed,
        base_sweep.retries + point_sweep.retries,
        base_sweep.timeouts + point_sweep.timeouts,
    );
    Ok(Resilient {
        study: CrossStudy { configs, points },
        resilience,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::paper_workloads;

    fn quick() -> StudyOptions {
        StudyOptions::quick().with_benchmarks(vec![KernelId::Ep, KernelId::Is])
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("paxsim_resilient_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn single_matches_plain_driver_bitwise() {
        let opts = quick();
        let plain = crate::single::run_single_program(&opts, &TraceStore::new());
        let res =
            run_single_program_resilient(&opts, &TraceStore::new(), &Default::default()).unwrap();
        assert!(res.resilience.is_clean());
        assert!(res.resilience.sentinel_checks > 0);
        for (pr, rr) in plain.cells.iter().zip(&res.study.cells) {
            for (pc, rc) in pr.iter().zip(rr) {
                assert_eq!(pc.cycles, rc.cycles);
                assert_eq!(pc.speedup, rc.speedup);
                assert_eq!(pc.counters, rc.counters);
            }
        }
    }

    #[test]
    fn multi_matches_plain_driver_bitwise() {
        let opts = StudyOptions::quick();
        let w = paper_workloads();
        let plain = crate::multi::run_multi_program(&opts, &TraceStore::new(), &w);
        let res = run_multi_program_resilient(&opts, &TraceStore::new(), &w, &Default::default())
            .unwrap();
        assert!(res.resilience.is_clean());
        for (pr, rr) in plain.cells.iter().zip(&res.study.cells) {
            for (pc, rc) in pr.iter().zip(rr) {
                for (ps, rs) in pc.sides.iter().zip(&rc.sides) {
                    assert_eq!(ps.bench, rs.bench);
                    assert_eq!(ps.cell.cycles, rs.cell.cycles);
                    assert_eq!(ps.cell.speedup, rs.cell.speedup);
                    assert_eq!(ps.cell.counters, rs.cell.counters);
                }
            }
        }
    }

    #[test]
    fn cross_matches_plain_driver_bitwise() {
        let opts = quick();
        let plain = crate::cross::run_cross_product(&opts, &TraceStore::new());
        let res =
            run_cross_product_resilient(&opts, &TraceStore::new(), &Default::default()).unwrap();
        assert!(res.resilience.is_clean());
        assert_eq!(plain.points.len(), res.study.points.len());
        for (pp, rp) in plain.points.iter().zip(&res.study.points) {
            assert_eq!(pp.pair, rp.pair);
            assert_eq!(pp.config, rp.config);
            assert_eq!(pp.speedups, rp.speedups);
        }
    }

    #[test]
    fn journal_resume_skips_recompute() {
        let opts = quick();
        let path = tmp("resume_unit.jsonl");
        let ropts = ResilienceOptions::default().with_journal(&path);
        let first = run_single_program_resilient(&opts, &TraceStore::new(), &ropts).unwrap();
        assert_eq!(first.resilience.resumed_cells, 0);
        let store = TraceStore::new();
        let second = run_single_program_resilient(&opts, &store, &ropts).unwrap();
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
