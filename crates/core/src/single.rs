//! Section 4.1 — multithreaded, single-program experiments.
//!
//! Runs every benchmark on every Table 1 configuration (including the
//! serial baseline), over several OS-noise trials, collecting wall cycles
//! and the full counter set. This regenerates Figure 2 (nine metric
//! panels), Figure 3 (speedup) and Table 2 (average speedup per
//! architecture).

use std::sync::Arc;

use paxsim_machine::sim::JobSpec;
use paxsim_machine::trace::ProgramTrace;
use paxsim_nas::KernelId;
use paxsim_perfmon::stats::Summary;

use crate::configs::{parallel_configs, serial, HwConfig};
use crate::error::StudyResult;
use crate::resilient::{base, plain, Ctx, Engine, ResilienceOptions, Resilient};
use crate::store::TraceStore;
use crate::study::{Cell, StudyOptions};

/// Results of the single-program study.
#[derive(Debug, Clone)]
pub struct SingleStudy {
    pub options_class: String,
    pub benchmarks: Vec<KernelId>,
    /// Table 1 configurations (serial first).
    pub configs: Vec<HwConfig>,
    /// `cells[bench][config]`, aligned with `benchmarks` × `configs`.
    pub cells: Vec<Vec<Cell>>,
}

impl SingleStudy {
    /// Index of the serial configuration in `configs`.
    pub fn serial_index(&self) -> usize {
        0
    }

    /// The Figure 3 speedup matrix: `speedups[bench][parallel_config]`
    /// (mean over trials; serial column omitted).
    pub fn speedup_matrix(&self) -> Vec<Vec<f64>> {
        self.cells
            .iter()
            .map(|row| row.iter().skip(1).map(|c| c.speedup.mean).collect())
            .collect()
    }

    /// Table 2: average speedup per architecture across all benchmarks.
    pub fn average_speedups(&self) -> Vec<(String, f64)> {
        let m = self.speedup_matrix();
        self.configs
            .iter()
            .skip(1)
            .enumerate()
            .map(|(ci, cfg)| {
                let avg = m.iter().map(|row| row[ci]).sum::<f64>() / m.len() as f64;
                (cfg.arch.clone(), avg)
            })
            .collect()
    }

    /// Cell lookup by benchmark and configuration name.
    pub fn cell(&self, bench: KernelId, config_name: &str) -> Option<&Cell> {
        let bi = self.benchmarks.iter().position(|&b| b == bench)?;
        let ci = self.configs.iter().position(|c| {
            c.name.eq_ignore_ascii_case(config_name) || c.arch.eq_ignore_ascii_case(config_name)
        })?;
        Some(&self.cells[bi][ci])
    }
}

/// Simulate `trace` on `config` for `trials` trials through `sim` (a
/// sweep's sentinel-checked or reference engine, or the serve daemon's
/// plain engine on its own machine model); returns (per-trial cycles,
/// counters of trial 0 — the quiet reference trial).
pub fn run_trials_with(
    opts: &StudyOptions,
    trace: &Arc<ProgramTrace>,
    config: &HwConfig,
    sim: &dyn Fn(Vec<JobSpec>) -> paxsim_machine::sim::SimOutcome,
) -> (Vec<f64>, paxsim_machine::counters::Counters) {
    let mut cycles = Vec::with_capacity(opts.trials);
    let mut counters0 = None;
    for trial in 0..opts.trials {
        let jitter = if trial == 0 { 0 } else { opts.jitter_cycles };
        let spec = JobSpec::pinned(trace.clone(), config.contexts.clone())
            .with_jitter(jitter, trial as u64);
        let out = sim(vec![spec]);
        cycles.push(out.jobs[0].cycles as f64);
        if trial == 0 {
            counters0 = Some(out.jobs[0].counters);
        }
    }
    (cycles, counters0.unwrap())
}

/// Table 1's configurations, serial first.
fn table1() -> Vec<HwConfig> {
    let mut v = vec![serial()];
    v.extend(parallel_configs());
    v
}

/// Run the full Section 4.1 study.
pub fn run_single_program(opts: &StudyOptions, store: &TraceStore) -> SingleStudy {
    run_single_program_on(opts, store, table1())
}

/// [`sweep_single_program_on`] under [`ResilienceOptions::none`].
///
/// # Panics
///
/// On a failed cell, naming its journal key and error.
pub fn run_single_program_on(
    opts: &StudyOptions,
    store: &TraceStore,
    configs: Vec<HwConfig>,
) -> SingleStudy {
    plain(sweep_single_program_on(
        opts,
        store,
        configs,
        &ResilienceOptions::none(),
    ))
}

/// [`sweep_single_program_on`] over Table 1.
///
/// # Errors
///
/// Only an unusable journal path fails the call.
pub fn sweep_single_program(
    opts: &StudyOptions,
    store: &TraceStore,
    ropts: &ResilienceOptions,
) -> StudyResult<Resilient<SingleStudy>> {
    sweep_single_program_on(opts, store, table1(), ropts)
}

/// The single-program sweep over an arbitrary configuration list —
/// `configs[0]` is the serial baseline the speedups divide by, and every
/// context named must exist on `opts.machine`'s topology (the quad-core
/// and L3-backed topologies run this way). A failed serial baseline
/// poisons its row: no baseline, no speedup.
///
/// # Errors
///
/// Only an unusable journal path fails the call; every per-cell failure
/// is isolated and reported in the returned [`Resilience`](crate::resilient::Resilience).
pub fn sweep_single_program_on(
    opts: &StudyOptions,
    store: &TraceStore,
    configs: Vec<HwConfig>,
    ropts: &ResilienceOptions,
) -> StudyResult<Resilient<SingleStudy>> {
    assert!(!configs.is_empty(), "need at least a serial baseline");
    assert_eq!(
        configs[0].threads, 1,
        "configs[0] is the serial baseline the speedups divide by"
    );
    let ctx = Ctx::new(opts, store, ropts)?;
    let (nb, npar) = (opts.benchmarks.len(), configs.len() - 1);

    // The cell of `benchmarks[bi]` on `configs[ci]`; a parallel cell's
    // per-trial speedups divide by its row's serial mean `base`.
    let cell = |bi: usize, ci: usize, base: Option<f64>, engine: Engine| -> StudyResult<Cell> {
        let (bench, config) = (opts.benchmarks[bi], &configs[ci]);
        let [cell] = ctx.cell("single", [bench], &config.name, engine, |sim| {
            let trace = ctx.trace(bench, config.threads)?;
            let (cycles, counters) = run_trials_with(opts, &trace, config, sim);
            let speedups: Vec<f64> = match base {
                None => vec![1.0; opts.trials],
                Some(base) => cycles.iter().map(|&c| base / c).collect(),
            };
            Ok([Cell {
                cycles: Summary::of(&cycles),
                speedup: Summary::of(&speedups),
                counters,
            }])
        })?;
        Ok(cell)
    };
    let par_cell = |bases: &[StudyResult<Cell>], i: usize, engine: Engine| -> StudyResult<Cell> {
        let (bi, ci) = (i / npar, i % npar);
        cell(bi, 1 + ci, Some(base(&bases[bi])?), engine)
    };

    // Serial baselines, then every (benchmark, parallel config) cell as
    // one pool item; then the repair pass re-runs quarantined rows,
    // serial bases first so the row's speedups are recomputed from them.
    let mut bases = ctx.sweep(nb, &|bi| cell(bi, 0, None, ctx.sample(0, bi)));
    let mut par = ctx.sweep(nb * npar, &|i| par_cell(&bases, i, ctx.sample(i % npar, i)));
    let stale = |bi: usize| ctx.quarantined(opts.benchmarks[bi]);
    ctx.repair(&mut bases, stale, &|bi| cell(bi, 0, None, Engine::Repair));
    ctx.repair(&mut par, |i| stale(i / npar), &|i| {
        par_cell(&bases, i, Engine::Repair)
    });

    let mut par = par.into_iter();
    let cells = bases
        .into_iter()
        .enumerate()
        .map(|(bi, s)| {
            let row = std::iter::once(s).chain(par.by_ref().take(npar));
            row.zip(&configs)
                .map(|(r, config)| {
                    ctx.note(&r, "single", &[opts.benchmarks[bi]], &config.name);
                    r.unwrap_or_else(|_| Cell::poisoned())
                })
                .collect()
        })
        .collect();
    Ok(ctx.finish(SingleStudy {
        options_class: opts.class.to_string(),
        benchmarks: opts.benchmarks.clone(),
        configs,
        cells,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxsim_nas::Class;

    fn quick_study() -> SingleStudy {
        let opts = StudyOptions::quick().with_benchmarks(vec![KernelId::Ep, KernelId::Cg]);
        run_single_program(&opts, &TraceStore::new())
    }

    #[test]
    fn study_shape() {
        let s = quick_study();
        assert_eq!(s.benchmarks.len(), 2);
        assert_eq!(s.configs.len(), 8);
        assert_eq!(s.cells.len(), 2);
        assert!(s.cells.iter().all(|r| r.len() == 8));
    }

    #[test]
    fn serial_speedup_is_one() {
        let s = quick_study();
        for row in &s.cells {
            assert_eq!(row[0].speedup.mean, 1.0);
        }
    }

    #[test]
    fn parallel_configs_speed_up_ep() {
        // EP is embarrassingly parallel: every multi-context configuration
        // must beat serial, and CMP-SMP (4 real cores) must scale well.
        let s = quick_study();
        let ep = &s.cells[0];
        for (ci, cell) in ep.iter().enumerate().skip(1) {
            assert!(
                cell.speedup.mean > 1.0,
                "{}: EP speedup {}",
                s.configs[ci].name,
                cell.speedup.mean
            );
        }
        let cmp_smp = s.cell(KernelId::Ep, "CMP-based SMP").unwrap();
        assert!(
            cmp_smp.speedup.mean > 3.0,
            "EP on 4 cores: {}",
            cmp_smp.speedup.mean
        );
    }

    #[test]
    fn speedup_matrix_aligned() {
        let s = quick_study();
        let m = s.speedup_matrix();
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].len(), 7);
        let avg = s.average_speedups();
        assert_eq!(avg.len(), 7);
        assert_eq!(avg[0].0, "SMT");
    }

    #[test]
    fn cell_lookup_by_names() {
        let s = quick_study();
        assert!(s.cell(KernelId::Cg, "CMT").is_some());
        assert!(s.cell(KernelId::Cg, "HT on -4-1").is_some());
        assert!(
            s.cell(KernelId::Mg, "CMT").is_none(),
            "mg not in this study"
        );
    }

    #[test]
    #[should_panic(expected = "trace build failed")]
    fn a_failed_build_panics_the_plain_study() {
        let faults = crate::faultinject::Faults::parse("build-panic:ep:3").unwrap();
        let opts = StudyOptions::quick().with_benchmarks(vec![KernelId::Ep]);
        run_single_program(&opts, &TraceStore::with_faults(faults));
    }

    #[test]
    fn the_default_policy_agrees_with_none_bit_for_bit() {
        let opts = StudyOptions::quick().with_benchmarks(vec![KernelId::Ep, KernelId::Is]);
        let run = |ropts: &ResilienceOptions| {
            sweep_single_program(&opts, &TraceStore::new(), ropts).unwrap()
        };
        let (checked, none) = (
            run(&ResilienceOptions::default()),
            run(&ResilienceOptions::none()),
        );
        assert!(checked.resilience.is_clean(), "{:?}", checked.resilience);
        assert!(checked.resilience.sentinel_checks > 0);
        assert_eq!(none.resilience.sentinel_checks, 0);
        for (rc, rn) in checked.study.cells.iter().zip(&none.study.cells) {
            for (c, n) in rc.iter().zip(rn) {
                assert_eq!(c.cycles, n.cycles);
                assert_eq!(c.speedup, n.speedup);
                assert_eq!(c.counters, n.counters);
            }
        }
    }

    #[test]
    fn trials_reduce_to_deterministic_without_jitter() {
        let mut opts = StudyOptions::quick().with_benchmarks(vec![KernelId::Ep]);
        opts.trials = 2;
        opts.jitter_cycles = 0;
        opts.class = Class::T;
        let s = run_single_program(&opts, &TraceStore::new());
        for row in &s.cells {
            for cell in row {
                assert!(cell.cycles.cv() < 1e-9, "quiet trials must agree");
            }
        }
    }
}
