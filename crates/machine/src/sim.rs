//! Public simulation API: bind traced programs to hardware contexts and run
//! them to completion.

use std::sync::Arc;

use crate::config::MachineConfig;
use crate::counters::Counters;
use crate::engine;
use crate::to_cycles;
use crate::topology::Lcpu;
use crate::trace::ProgramTrace;

/// One job: a traced program pinned to a set of hardware contexts.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub trace: Arc<ProgramTrace>,
    /// Thread `i` of the program runs on `placement[i]`. Must have exactly
    /// `trace.nthreads` entries, and placements of concurrent jobs must be
    /// disjoint (one software thread per hardware context, as in the
    /// paper's fully loaded configurations).
    pub placement: Vec<Lcpu>,
    /// Cycles to delay this job's start (e.g. staggered multi-program
    /// launches).
    pub start_delay_cycles: u64,
    /// Maximum per-region, per-thread OS scheduling jitter in cycles;
    /// 0 (the default) is perfectly quiet. Trial drivers use this to model
    /// the run-to-run variance the paper averaged over ten trials.
    pub jitter_cycles: u64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl JobSpec {
    /// A quiet, immediately starting job.
    pub fn pinned(trace: Arc<ProgramTrace>, placement: Vec<Lcpu>) -> Self {
        Self {
            trace,
            placement,
            start_delay_cycles: 0,
            jitter_cycles: 0,
            seed: 0,
        }
    }

    /// Builder: set OS-noise jitter.
    pub fn with_jitter(mut self, jitter_cycles: u64, seed: u64) -> Self {
        self.jitter_cycles = jitter_cycles;
        self.seed = seed;
        self
    }
}

/// Time span of one completed fork/join region (for phase analysis).
#[derive(Debug, Clone)]
pub struct RegionSpan {
    /// Region label from the runtime ("cg.spmv", …; may be empty).
    pub label: String,
    /// Cycles from job start to the region's barrier release.
    pub end: u64,
    /// Cycles this region occupied (end − previous region's end).
    pub cycles: u64,
}

/// Per-job result.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    pub name: String,
    /// Wall cycles from the job's start to its last barrier release.
    pub cycles: u64,
    /// VTune-style counters attributed to this job.
    pub counters: Counters,
    /// Completed regions in order, with their time spans.
    pub regions: Vec<RegionSpan>,
}

/// Whole-simulation result.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Cycles until the last job finished.
    pub wall_cycles: u64,
    pub jobs: Vec<JobOutcome>,
    /// Sum of all jobs' counters (machine-wide view).
    pub total: Counters,
    /// Region-memoization telemetry (all zeros where memoization never
    /// engages: the reference engine, multi-job runs, jittered runs of two
    /// or more contexts — one context replays under jitter too — and runs
    /// no later run can repeat: a trace moved into this call and held by
    /// no one else, none of whose regions occurs twice or is held
    /// elsewhere).
    pub memo: crate::memo::MemoStats,
    /// Event-scheduler telemetry: dispatches taken and idle ticks skipped
    /// by quiescent-skip (all zeros for the reference engine, which scans
    /// contexts linearly instead of scheduling events).
    pub sched: crate::component::SchedStats,
}

/// Run `jobs` concurrently on a machine configured by `cfg` until all
/// complete. Deterministic: identical inputs give identical outcomes.
///
/// # Panics
///
/// Panics if a placement's arity mismatches its trace, a placement names a
/// context outside the configured topology, or two jobs share a context.
pub fn simulate(cfg: &MachineConfig, jobs: Vec<JobSpec>) -> SimOutcome {
    validate(cfg, &jobs);
    let built = engine::machines_built();
    let out = shape_outcome(engine::run(cfg, &jobs), &jobs);
    record_run_metrics(&out, engine::machines_built() - built);
    out
}

/// Post-run observability counters (no-ops while the obs layer is off;
/// recorded *after* the outcome is fully shaped, so they cannot feed back
/// into simulated state). `built` is 0 for a run replayed in full from the
/// memo table and 1 for one that had to simulate a region.
fn record_run_metrics(out: &SimOutcome, built: u64) {
    static RUNS: paxsim_obs::LazyCounter = paxsim_obs::LazyCounter::new("machine.sim.runs");
    static BUILT: paxsim_obs::LazyCounter =
        paxsim_obs::LazyCounter::new("machine.sim.machines_built");
    static PROBES: paxsim_obs::LazyCounter = paxsim_obs::LazyCounter::new("machine.memo.probes");
    static HITS: paxsim_obs::LazyCounter = paxsim_obs::LazyCounter::new("machine.memo.hits");
    static EVENTS: paxsim_obs::LazyCounter =
        paxsim_obs::LazyCounter::new("machine.sched.events_scheduled");
    static SKIPPED: paxsim_obs::LazyCounter =
        paxsim_obs::LazyCounter::new("machine.sched.cycles_skipped");
    RUNS.inc();
    BUILT.add(built);
    PROBES.add(out.memo.probes);
    HITS.add(out.memo.hits);
    EVENTS.add(out.sched.events_scheduled);
    SKIPPED.add(out.sched.cycles_skipped);
}

/// Run `jobs` through the seed-shaped reference engine: linear context
/// scanning and full DTLB/L1/L2 lookups on every reference, with none of
/// the fast paths. [`simulate`] must produce bit-identical outcomes; this
/// entry point exists as the oracle for differential tests and as the
/// baseline for throughput benchmarks.
pub fn simulate_reference(cfg: &MachineConfig, jobs: Vec<JobSpec>) -> SimOutcome {
    validate(cfg, &jobs);
    shape_outcome(engine::run_reference(cfg, &jobs), &jobs)
}

fn shape_outcome(out: engine::EngineOutcome, jobs: &[JobSpec]) -> SimOutcome {
    let mut total = Counters::default();
    let mut results = Vec::with_capacity(jobs.len());
    let mut wall = 0u64;
    for (i, spec) in jobs.iter().enumerate() {
        total.add(&out.job_counters[i]);
        let cycles = to_cycles(out.job_finishes[i] - out.job_starts[i]);
        wall = wall.max(to_cycles(out.job_finishes[i]));
        let mut prev = out.job_starts[i];
        let regions = out.job_region_ends[i]
            .iter()
            .enumerate()
            .map(|(r, &end)| {
                let span = RegionSpan {
                    label: spec.trace.regions[r].label.clone(),
                    end: to_cycles(end - out.job_starts[i]),
                    cycles: to_cycles(end - prev),
                };
                prev = end;
                span
            })
            .collect();
        results.push(JobOutcome {
            name: spec.trace.name.clone(),
            cycles,
            counters: out.job_counters[i],
            regions,
        });
    }
    SimOutcome {
        wall_cycles: wall,
        jobs: results,
        total,
        memo: out.memo,
        sched: out.sched,
    }
}

fn validate(cfg: &MachineConfig, jobs: &[JobSpec]) {
    assert!(!jobs.is_empty(), "simulate() needs at least one job");
    assert!(
        jobs.len() <= 254,
        "too many concurrent jobs for 8-bit ASIDs"
    );
    let mut used = std::collections::HashSet::new();
    for (ji, job) in jobs.iter().enumerate() {
        assert_eq!(
            job.placement.len(),
            job.trace.nthreads,
            "job {ji} ({}): placement arity {} != trace arity {}",
            job.trace.name,
            job.placement.len(),
            job.trace.nthreads
        );
        for &l in &job.placement {
            assert!(
                (l.chip as usize) < cfg.chips
                    && (l.core as usize) < cfg.cores_per_chip
                    && (l.ctx as usize) < cfg.contexts_per_core,
                "job {ji}: context {l} outside the configured topology"
            );
            assert!(
                used.insert(l),
                "job {ji}: context {l} already bound to another thread"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuf;

    fn stream_program(name: &str, lines: u64, base: u64) -> Arc<ProgramTrace> {
        let mut b = TraceBuf::new();
        for i in 0..lines {
            b.block(1, 2);
            b.load(base + i * 64);
            b.flops(4);
            b.branch(1, i != lines - 1);
        }
        Arc::new(ProgramTrace::single_region(name, vec![b]))
    }

    #[test]
    fn single_job_runs_to_completion() {
        let cfg = MachineConfig::paxville_smp();
        let out = simulate(
            &cfg,
            vec![JobSpec::pinned(
                stream_program("s", 2048, 0x10_0000),
                vec![Lcpu::A0],
            )],
        );
        assert!(out.wall_cycles > 0);
        let c = &out.jobs[0].counters;
        assert_eq!(c.l1d_access, 2048);
        assert!(c.l1d_miss >= 2048 / 2, "streaming loads mostly miss L1");
        assert!(c.instructions > 2048 * 7);
        assert_eq!(out.total.instructions, c.instructions);
    }

    #[test]
    fn determinism() {
        let cfg = MachineConfig::paxville_smp();
        let p = stream_program("s", 1024, 0x20_0000);
        let a = simulate(&cfg, vec![JobSpec::pinned(p.clone(), vec![Lcpu::A0])]);
        let b = simulate(&cfg, vec![JobSpec::pinned(p, vec![Lcpu::A0])]);
        assert_eq!(a.wall_cycles, b.wall_cycles);
        assert_eq!(a.jobs[0].counters, b.jobs[0].counters);
    }

    #[test]
    fn smt_siblings_contend_for_issue() {
        // Two pure-compute jobs. Sharing a core's issue ports must be
        // slower than using two different cores.
        let cfg = MachineConfig::paxville_smp();
        let compute = |name: &str| {
            let mut b = TraceBuf::new();
            for i in 0..400u64 {
                b.block(1, 2);
                b.flops(64);
                b.branch(1, i != 399);
            }
            Arc::new(ProgramTrace::single_region(name, vec![b]))
        };
        let smt = simulate(
            &cfg,
            vec![
                JobSpec::pinned(compute("a"), vec![Lcpu::A0]),
                JobSpec::pinned(compute("b"), vec![Lcpu::A1]),
            ],
        );
        let cmp = simulate(
            &cfg,
            vec![
                JobSpec::pinned(compute("a"), vec![Lcpu::A0]),
                JobSpec::pinned(compute("b"), vec![Lcpu::A2]),
            ],
        );
        assert!(
            smt.wall_cycles as f64 > 1.5 * cmp.wall_cycles as f64,
            "SMT {} vs CMP {}",
            smt.wall_cycles,
            cmp.wall_cycles
        );
        // And contention shows up as issue stalls.
        assert!(smt.total.ticks_stall_issue > cmp.total.ticks_stall_issue);
    }

    #[test]
    fn memory_bound_jobs_benefit_from_smt() {
        // Dependent-load chains leave issue slots idle; an SMT sibling
        // should overlap its own chain with little mutual harm, so one core
        // running two such jobs is much faster than running them serially.
        let cfg = MachineConfig::paxville_smp();
        let chase = |name: &str, base: u64| {
            let mut b = TraceBuf::new();
            for i in 0..512u64 {
                b.block(1, 2);
                // Large stride defeats the prefetcher: every load misses L2.
                b.load_dep(base + (i * 67) % 512 * 8192);
                b.branch(1, i != 511);
            }
            Arc::new(ProgramTrace::single_region(name, vec![b]))
        };
        let together = simulate(
            &cfg,
            vec![
                JobSpec::pinned(chase("a", 0x100_0000), vec![Lcpu::A0]),
                JobSpec::pinned(chase("b", 0x800_0000), vec![Lcpu::A1]),
            ],
        );
        let alone = simulate(
            &cfg,
            vec![JobSpec::pinned(chase("a", 0x100_0000), vec![Lcpu::A0])],
        );
        // Two overlapped chains should take well under 2× one chain.
        assert!(
            (together.wall_cycles as f64) < 1.5 * alone.wall_cycles as f64,
            "together {} vs alone {}",
            together.wall_cycles,
            alone.wall_cycles
        );
    }

    #[test]
    fn multi_threaded_job_with_barrier() {
        let cfg = MachineConfig::paxville_smp();
        // Thread 1 does 4× the work of thread 0: thread 0 accumulates sync
        // wait at the barrier.
        let mut t0 = TraceBuf::new();
        let mut t1 = TraceBuf::new();
        t0.flops(1000);
        t1.flops(4000);
        let p = Arc::new(ProgramTrace::single_region("imb", vec![t0, t1]));
        let out = simulate(&cfg, vec![JobSpec::pinned(p, vec![Lcpu::B0, Lcpu::B1])]);
        assert!(
            out.jobs[0].counters.ticks_sync > 0,
            "imbalance must show as sync wait"
        );
        assert!(out.jobs[0].cycles >= 4000 / 3); // at least the long thread's issue time
    }

    #[test]
    fn serial_region_idles_other_threads() {
        let cfg = MachineConfig::paxville_smp();
        let mut t0 = TraceBuf::new();
        t0.flops(3000);
        let p = Arc::new(ProgramTrace::single_region(
            "serial",
            vec![t0, TraceBuf::new()],
        ));
        let out = simulate(&cfg, vec![JobSpec::pinned(p, vec![Lcpu::B0, Lcpu::B1])]);
        let c = &out.jobs[0].counters;
        assert!(
            c.ticks_sync >= crate::cycles(900),
            "idle thread waits out the serial region"
        );
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn overlapping_placements_rejected() {
        let cfg = MachineConfig::paxville_smp();
        let p = stream_program("s", 16, 0);
        let _ = simulate(
            &cfg,
            vec![
                JobSpec::pinned(p.clone(), vec![Lcpu::A0]),
                JobSpec::pinned(p, vec![Lcpu::A0]),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "placement arity")]
    fn arity_mismatch_rejected() {
        let cfg = MachineConfig::paxville_smp();
        let p = stream_program("s", 16, 0);
        let _ = simulate(&cfg, vec![JobSpec::pinned(p, vec![Lcpu::A0, Lcpu::A1])]);
    }

    #[test]
    fn region_spans_cover_the_run() {
        let cfg = MachineConfig::paxville_smp();
        let mut p = ProgramTrace::new("r", 1);
        for _ in 0..3 {
            let mut b = TraceBuf::new();
            b.flops(3000);
            p.push_region(crate::trace::RegionTrace::labeled(vec![b], "phase"));
        }
        let out = simulate(&cfg, vec![JobSpec::pinned(Arc::new(p), vec![Lcpu::A0])]);
        let spans = &out.jobs[0].regions;
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.label == "phase"));
        // Span cycles sum to the job's wall cycles; ends are monotone.
        let total: u64 = spans.iter().map(|s| s.cycles).sum();
        assert!(
            out.jobs[0].cycles.abs_diff(total) <= 1,
            "{total} vs {}",
            out.jobs[0].cycles
        );
        assert!(spans.windows(2).all(|w| w[0].end <= w[1].end));
        assert_eq!(spans.last().unwrap().end, out.jobs[0].cycles);
    }

    #[test]
    fn start_delay_shifts_finish() {
        let cfg = MachineConfig::paxville_smp();
        let p = stream_program("s", 256, 0x40_0000);
        let a = simulate(&cfg, vec![JobSpec::pinned(p.clone(), vec![Lcpu::A0])]);
        let mut spec = JobSpec::pinned(p, vec![Lcpu::A0]);
        spec.start_delay_cycles = 10_000;
        let b = simulate(&cfg, vec![spec]);
        assert_eq!(
            a.jobs[0].cycles, b.jobs[0].cycles,
            "job-relative time unchanged"
        );
        assert_eq!(b.wall_cycles, a.wall_cycles + 10_000);
    }

    #[test]
    fn jitter_changes_timing_but_not_work() {
        let cfg = MachineConfig::paxville_smp();
        let mut t0 = TraceBuf::new();
        let mut t1 = TraceBuf::new();
        for i in 0..256u64 {
            t0.load(0x10_0000 + i * 64);
            t1.load(0x90_0000 + i * 64);
        }
        let p = Arc::new(ProgramTrace::single_region("j", vec![t0, t1]));
        let a = simulate(
            &cfg,
            vec![JobSpec::pinned(p.clone(), vec![Lcpu::B0, Lcpu::B1]).with_jitter(500, 1)],
        );
        let b = simulate(
            &cfg,
            vec![JobSpec::pinned(p, vec![Lcpu::B0, Lcpu::B1]).with_jitter(500, 2)],
        );
        assert_eq!(a.total.instructions, b.total.instructions);
        assert_ne!(
            a.wall_cycles, b.wall_cycles,
            "different seeds, different timing"
        );
    }
}
