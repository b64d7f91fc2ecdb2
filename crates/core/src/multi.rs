//! Section 4.2 — multithreaded, multi-program experiments.
//!
//! Two benchmarks run concurrently, each getting half of a configuration's
//! hardware contexts ("threads distributed evenly between the executing
//! programs"). The paper pairs its compute-bound benchmark (FT) with its
//! memory-bound one (CG — see DESIGN.md §5 on reconstructing the garbled
//! benchmark name) in three workloads: CG/FT, FT/FT and CG/CG.

use std::sync::Arc;

use paxsim_machine::sim::JobSpec;
use paxsim_machine::trace::ProgramTrace;
use paxsim_nas::KernelId;
use paxsim_omp::os::{split_jobs, PlacementPolicy};
use paxsim_perfmon::stats::Summary;

use crate::configs::{parallel_configs, serial, HwConfig};
use crate::error::StudyResult;
use crate::resilient::{base, plain, Ctx, Engine, ResilienceOptions, Resilient, Sim};
use crate::store::TraceStore;
use crate::study::{Cell, StudyOptions};

/// One side of a multi-program run.
#[derive(Debug, Clone)]
pub struct JobSide {
    pub bench: KernelId,
    pub cell: Cell,
}

/// One (workload, configuration) data point.
#[derive(Debug, Clone)]
pub struct MultiCell {
    pub config: HwConfig,
    pub sides: Vec<JobSide>,
}

/// Results of the multi-program study.
#[derive(Debug, Clone)]
pub struct MultiStudy {
    /// The workloads, e.g. `[(Cg, Ft), (Ft, Ft), (Cg, Cg)]`.
    pub workloads: Vec<(KernelId, KernelId)>,
    pub configs: Vec<HwConfig>,
    /// `cells[workload][config]`.
    pub cells: Vec<Vec<MultiCell>>,
}

impl MultiStudy {
    pub fn cell(&self, workload: (KernelId, KernelId), config_name: &str) -> Option<&MultiCell> {
        let wi = self.workloads.iter().position(|&w| w == workload)?;
        let ci = self.configs.iter().position(|c| {
            c.name.eq_ignore_ascii_case(config_name) || c.arch.eq_ignore_ascii_case(config_name)
        })?;
        Some(&self.cells[wi][ci])
    }
}

/// The paper's three §4.2 workloads.
pub fn paper_workloads() -> Vec<(KernelId, KernelId)> {
    vec![
        (KernelId::Cg, KernelId::Ft),
        (KernelId::Ft, KernelId::Ft),
        (KernelId::Cg, KernelId::Cg),
    ]
}

/// The configurations a pair study runs on: every one with two or more
/// contexts, so each program gets half.
pub(crate) fn pair_configs() -> Vec<HwConfig> {
    parallel_configs()
        .into_iter()
        .filter(|c| c.threads >= 2)
        .collect()
}

/// Run two programs together on `config` over trials, each on half its
/// contexts, through `sim`; returns each side's cell, with speedups over
/// its serial mean in `bases`.
fn run_pair(
    opts: &StudyOptions,
    traces: [Arc<ProgramTrace>; 2],
    config: &HwConfig,
    bases: [f64; 2],
    sim: Sim,
) -> [Cell; 2] {
    assert!(
        config.threads >= 2 && config.threads.is_multiple_of(2),
        "{} cannot host two programs",
        config.name
    );
    let placements = split_jobs(&config.contexts, 2, PlacementPolicy::Spread);

    let mut cycles = [Vec::new(), Vec::new()];
    let mut counters0 = [None, None];
    for trial in 0..opts.trials {
        let jitter = if trial == 0 { 0 } else { opts.jitter_cycles };
        let jobs: Vec<JobSpec> = (0..2)
            .map(|j| {
                JobSpec::pinned(traces[j].clone(), placements[j].clone())
                    .with_jitter(jitter, (trial * 2 + j) as u64)
            })
            .collect();
        let out = sim(jobs);
        for j in 0..2 {
            cycles[j].push(out.jobs[j].cycles as f64);
            if trial == 0 {
                counters0[j] = Some(out.jobs[j].counters);
            }
        }
    }
    std::array::from_fn(|j| Cell {
        cycles: Summary::of(&cycles[j]),
        speedup: Summary::of(&cycles[j].iter().map(|&c| bases[j] / c).collect::<Vec<_>>()),
        counters: counters0[j].unwrap(),
    })
}

/// The sweep both pair studies run. First the serial bases of `benches`,
/// one quiet run each, under the journal tag `serial`, so either study
/// resumes the other's. Then pair item `i`, `pairs[at(i).0]` on
/// `configs[at(i).1]`, under the journal tag `driver`. Then the repair
/// pass. Returns the pair cells in item order.
pub(crate) fn pair_sweep(
    ctx: &Ctx,
    driver: &str,
    benches: &[KernelId],
    pairs: &[(KernelId, KernelId)],
    configs: &[HwConfig],
    at: &(dyn Fn(usize) -> (usize, usize) + Sync),
) -> Vec<StudyResult<MultiCell>> {
    let serial = serial();
    let base_cell = |bi: usize, engine: Engine| -> StudyResult<Cell> {
        let bench = benches[bi];
        let [cell] = ctx.cell("serial", [bench], &serial.name, engine, |sim| {
            let trace = ctx.trace(bench, 1)?;
            let out = sim(vec![JobSpec::pinned(trace, serial.contexts.clone())]);
            Ok([Cell {
                cycles: Summary::of(&[out.jobs[0].cycles as f64]),
                speedup: Summary::of(&[1.0]),
                counters: out.jobs[0].counters,
            }])
        })?;
        Ok(cell)
    };
    let bi = |k: KernelId| {
        benches
            .iter()
            .position(|&b| b == k)
            .expect("a studied kernel")
    };
    let pair_cell = |bases: &[StudyResult<Cell>], i: usize, engine: Engine| {
        let (pi, ci) = at(i);
        let ((a, b), config) = (pairs[pi], &configs[ci]);
        let means = [base(&bases[bi(a)])?, base(&bases[bi(b)])?];
        let cells = ctx.cell(driver, [a, b], &config.name, engine, |sim| {
            let per = config.threads / 2;
            let traces = [ctx.trace(a, per)?, ctx.trace(b, per)?];
            Ok(run_pair(ctx.opts, traces, config, means, sim))
        })?;
        Ok(MultiCell {
            config: config.clone(),
            sides: sides((a, b), cells),
        })
    };

    let n = pairs.len() * configs.len();
    let mut bases = ctx.sweep(benches.len(), &|bi| base_cell(bi, ctx.sample(0, bi)));
    let mut cells = ctx.sweep(n, &|i| pair_cell(&bases, i, ctx.sample(at(i).1, i)));
    let stale = |(a, b): (KernelId, KernelId)| ctx.quarantined(a) || ctx.quarantined(b);
    ctx.repair(&mut bases, |i| ctx.quarantined(benches[i]), &|i| {
        base_cell(i, Engine::Repair)
    });
    ctx.repair(&mut cells, |i| stale(pairs[at(i).0]), &|i| {
        pair_cell(&bases, i, Engine::Repair)
    });
    for (r, &bench) in bases.iter().zip(benches) {
        ctx.note(r, "serial", &[bench], &serial.name);
    }
    for (i, r) in cells.iter().enumerate() {
        let (pi, ci) = at(i);
        ctx.note(r, driver, &[pairs[pi].0, pairs[pi].1], &configs[ci].name);
    }
    cells
}

fn sides(w: (KernelId, KernelId), cells: [Cell; 2]) -> Vec<JobSide> {
    let sides = [w.0, w.1].into_iter().zip(cells);
    sides.map(|(bench, cell)| JobSide { bench, cell }).collect()
}

/// Run the full Section 4.2 study.
///
/// # Panics
///
/// On a failed cell, naming its journal key and error.
pub fn run_multi_program(
    opts: &StudyOptions,
    store: &TraceStore,
    workloads: &[(KernelId, KernelId)],
) -> MultiStudy {
    plain(sweep_multi_program(
        opts,
        store,
        workloads,
        &ResilienceOptions::none(),
    ))
}

/// The Section 4.2 sweep: every workload on every configuration with two
/// or more contexts. A failed cell keeps its configuration's shape with
/// poisoned sides.
///
/// # Errors
///
/// Only an unusable journal path fails the call.
pub fn sweep_multi_program(
    opts: &StudyOptions,
    store: &TraceStore,
    workloads: &[(KernelId, KernelId)],
    ropts: &ResilienceOptions,
) -> StudyResult<Resilient<MultiStudy>> {
    let ctx = Ctx::new(opts, store, ropts)?;
    let configs = pair_configs();
    let mut benches: Vec<KernelId> = workloads.iter().flat_map(|&(a, b)| [a, b]).collect();
    benches.sort();
    benches.dedup();
    let nc = configs.len();
    let cells = pair_sweep(&ctx, "multi", &benches, workloads, &configs, &|i| {
        (i / nc, i % nc)
    });
    let mut cells = cells.into_iter();
    let cells = workloads
        .iter()
        .map(|&w| {
            let row = cells.by_ref().take(nc).zip(&configs);
            row.map(|(r, config)| {
                r.unwrap_or_else(|_| MultiCell {
                    config: config.clone(),
                    sides: sides(w, [Cell::poisoned(), Cell::poisoned()]),
                })
            })
            .collect()
        })
        .collect();
    Ok(ctx.finish(MultiStudy {
        workloads: workloads.to_vec(),
        configs,
        cells,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_workloads_match_section_4_2() {
        let w = paper_workloads();
        assert_eq!(w.len(), 3);
        assert!(w.contains(&(KernelId::Cg, KernelId::Ft)));
        assert!(w.contains(&(KernelId::Ft, KernelId::Ft)));
        assert!(w.contains(&(KernelId::Cg, KernelId::Cg)));
    }

    #[test]
    fn the_default_policy_agrees_with_none_bit_for_bit() {
        let (opts, w) = (StudyOptions::quick(), paper_workloads());
        let run = |ropts: &ResilienceOptions| {
            sweep_multi_program(&opts, &TraceStore::new(), &w, ropts).unwrap()
        };
        let (checked, none) = (
            run(&ResilienceOptions::default()),
            run(&ResilienceOptions::none()),
        );
        assert!(checked.resilience.is_clean(), "{:?}", checked.resilience);
        assert!(checked.resilience.sentinel_checks > 0);
        for (rc, rn) in checked.study.cells.iter().zip(&none.study.cells) {
            for (c, n) in rc.iter().zip(rn) {
                for (cs, ns) in c.sides.iter().zip(&n.sides) {
                    assert_eq!(cs.bench, ns.bench);
                    assert_eq!(cs.cell.cycles, ns.cell.cycles);
                    assert_eq!(cs.cell.speedup, ns.cell.speedup);
                    assert_eq!(cs.cell.counters, ns.cell.counters);
                }
            }
        }
    }

    #[test]
    fn multi_study_shape() {
        let opts = StudyOptions::quick();
        let store = TraceStore::new();
        let s = run_multi_program(&opts, &store, &[(KernelId::Ep, KernelId::Ep)]);
        assert_eq!(s.workloads.len(), 1);
        assert_eq!(s.configs.len(), 7);
        for row in &s.cells {
            for cell in row {
                assert_eq!(cell.sides.len(), 2);
                assert!(cell.sides[0].cell.cycles.mean > 0.0);
            }
        }
    }

    #[test]
    fn concurrent_programs_slower_than_alone() {
        // Two EPs sharing the machine: each side must be slower than the
        // same program running alone on its half… at minimum, slower than
        // its own serial baseline divided by its thread count would imply
        // perfect scaling; we check the weaker, robust property that
        // speedups are finite and positive and both sides finish.
        let opts = StudyOptions::quick();
        let store = TraceStore::new();
        let s = run_multi_program(&opts, &store, &[(KernelId::Ep, KernelId::Ep)]);
        let cell = s
            .cell((KernelId::Ep, KernelId::Ep), "CMP-based SMP")
            .unwrap();
        for side in &cell.sides {
            assert!(side.cell.speedup.mean > 0.5, "{}", side.cell.speedup.mean);
            assert!(side.cell.speedup.mean < 4.0);
        }
    }

    #[test]
    fn identical_pair_is_symmetric_without_jitter() {
        // Same program twice, quiet trials, symmetric placement: both
        // sides should finish in nearly the same time.
        let opts = StudyOptions::quick();
        let store = TraceStore::new();
        let s = run_multi_program(&opts, &store, &[(KernelId::Ep, KernelId::Ep)]);
        let cell = s
            .cell((KernelId::Ep, KernelId::Ep), "CMP-based SMP")
            .unwrap();
        let a = cell.sides[0].cell.cycles.mean;
        let b = cell.sides[1].cell.cycles.mean;
        assert!((a - b).abs() / a < 0.05, "asymmetry: {a} vs {b}");
    }
}
