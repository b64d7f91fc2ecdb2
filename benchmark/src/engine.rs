//! `engine_jittered` and `engine_quiet`: the cycle engine called
//! directly, single-threaded, on prebuilt traces — the same sixteen points
//! used two ways. Jittered runs never memoize, so the engine does all the
//! work; quiet runs fill the region memo once and then replay from it.

use std::sync::Arc;

use paxsim_core::configs::{config_by_name, serial, HwConfig};
use paxsim_core::hash::canonical_json;
use paxsim_core::pool;
use paxsim_core::store::{TraceKey, TraceStore};
use paxsim_machine::config::MachineConfig;
use paxsim_machine::memo::MemoStats;
use paxsim_machine::sim::{simulate, JobSpec, SimOutcome};
use paxsim_machine::trace::ProgramTrace;
use paxsim_nas::{all_kernels, Class, KernelId};
use paxsim_omp::schedule::Schedule;

use crate::golden::{digest, Goldens};
use crate::host::{self, Rng};
use crate::metrics::{median, Metrics, Outcome};
use crate::spans::Tracer;
use crate::Ctx;

/// OS-noise amplitude of a jittered run, the paper study's own value.
pub const JITTER_CYCLES: u64 = 2_000;

/// Jitter seeds with committed goldens; passes cycle through them.
const JITTER_SEEDS: [u64; 3] = [1, 2, 3];

/// A point of more than this many simulated uops is left out of the traced
/// run's plain-vs-traced-vs-obs comparison, which repeats a pass nine
/// times and has to stay inside the run's time.
const LIGHT_POINT_UOPS: u64 = 10_000_000;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Jittered,
    Quiet,
}

/// A cold trace build and the seconds it took.
pub type Build = (Arc<ProgramTrace>, f64);

/// One (kernel, configuration) pair with its prebuilt trace.
pub struct Point {
    pub kernel: KernelId,
    pub config: HwConfig,
    pub trace: Arc<ProgramTrace>,
    /// Simulated uops of one run of the trace.
    pub uops: u64,
}

/// What one timed `simulate` call did.
pub struct SimRecord {
    pub kernel: KernelId,
    pub threads: usize,
    pub secs: f64,
    pub uops: u64,
    pub cycles: u64,
    pub events: u64,
    pub skipped: u64,
    pub memo: MemoStats,
    pub golden_ok: bool,
}

/// FNV fingerprint of everything a run simulated: wall cycles and every
/// counter of every job.
pub fn fingerprint(out: &SimOutcome) -> u64 {
    let mut text = out.wall_cycles.to_string();
    for job in &out.jobs {
        text.push('|');
        text.push_str(&job.cycles.to_string());
        text.push('|');
        text.push_str(&canonical_json(&job.counters));
    }
    digest(&text)
}

pub fn golden_key(class: Class, kernel: KernelId, config: &str, jitter: u64, seed: u64) -> String {
    format!("engine:{class}:{kernel}:{config}:j{jitter}:s{seed}")
}

/// Time one `simulate` call inside a span.
#[allow(clippy::too_many_arguments)]
pub fn timed_simulate(
    tracer: &mut Tracer,
    machine: &MachineConfig,
    kernel: KernelId,
    config: &HwConfig,
    trace: &Arc<ProgramTrace>,
    jitter: u64,
    jitter_seed: u64,
    request_id: u64,
) -> (SimRecord, SimOutcome) {
    let spec =
        JobSpec::pinned(trace.clone(), config.contexts.clone()).with_jitter(jitter, jitter_seed);
    let (out, secs) = tracer.call("machine.sim.simulate", request_id, || {
        std::hint::black_box(simulate(machine, vec![std::hint::black_box(spec)]))
    });
    let record = SimRecord {
        kernel,
        threads: config.threads,
        secs,
        uops: out.total.instructions,
        cycles: out.wall_cycles,
        events: out.sched.events_scheduled,
        skipped: out.sched.cycles_skipped,
        memo: out.memo,
        golden_ok: true,
    };
    (record, out)
}

/// The `machine.engine.*` and `machine.memo.*` counts and rates of a set
/// of timed runs.
pub fn layer_metrics(records: &[SimRecord], m: &mut Metrics) {
    let secs_uops = |keep: &dyn Fn(&SimRecord) -> bool| {
        records
            .iter()
            .filter(|r| keep(r))
            .fold((0.0, 0u64), |(s, u), r| (s + r.secs, u + r.uops))
    };
    let ns_per = |(secs, n): (f64, u64)| if n == 0 { 0.0 } else { secs * 1e9 / n as f64 };
    let (sim_s, uops) = secs_uops(&|_| true);
    let sum = |f: &dyn Fn(&SimRecord) -> u64| records.iter().map(f).sum::<u64>();
    m.set("machine.engine.sim_s", sim_s);
    m.set("machine.engine.ns_per_uop", ns_per((sim_s, uops)));
    m.set(
        "machine.engine.ns_per_uop.serial",
        ns_per(secs_uops(&|r| r.threads == 1)),
    );
    m.set(
        "machine.engine.ns_per_uop.smt8",
        ns_per(secs_uops(&|r| r.threads == 8)),
    );
    m.set(
        "machine.engine.ns_per_event",
        ns_per((sim_s, sum(&|r| r.events))),
    );
    for k in all_kernels() {
        let (s, u) = secs_uops(&|r| r.kernel == k);
        let rate = if s > 0.0 { u as f64 / 1e6 / s } else { 0.0 };
        m.set(&format!("machine.engine.muops_per_s.{k}"), rate);
    }
    m.set("machine.engine.sim_uops", uops as f64);
    m.set("machine.engine.sim_cycles", sum(&|r| r.cycles) as f64);
    m.set("machine.engine.events_scheduled", sum(&|r| r.events) as f64);
    m.set("machine.engine.cycles_skipped", sum(&|r| r.skipped) as f64);
    m.set(
        "machine.engine.fingerprint_mismatches",
        records.iter().filter(|r| !r.golden_ok).count() as f64,
    );
    let (probes, hits) = (sum(&|r| r.memo.probes), sum(&|r| r.memo.hits));
    m.set("machine.memo.probes", probes as f64);
    m.set("machine.memo.hits", hits as f64);
    m.set(
        "machine.memo.hit_ratio",
        if probes == 0 {
            0.0
        } else {
            hits as f64 / probes as f64
        },
    );
}

/// The `nas.*`, `machine.trace.*` and `core.store.*` metrics of a set of
/// cold trace builds.
pub fn build_metrics(builds: &[Build], store: &TraceStore, m: &mut Metrics) {
    let secs: f64 = builds.iter().map(|(_, s)| s).sum();
    let muops: f64 = builds
        .iter()
        .map(|(t, _)| t.instructions() as f64 / 1e6)
        .sum();
    let regions: usize = builds.iter().map(|(t, _)| t.regions.len()).sum();
    let unique: usize = builds.iter().map(|(t, _)| t.unique_regions()).sum();
    let packed: usize = builds.iter().map(|(t, _)| t.packed_bytes()).sum();
    m.set("nas.build_s", secs);
    m.set(
        "nas.build_ms_per_muop",
        if muops > 0.0 { secs * 1e3 / muops } else { 0.0 },
    );
    m.set("machine.trace.packed_mb", packed as f64 / (1024.0 * 1024.0));
    m.set(
        "machine.trace.unique_region_ratio",
        if regions == 0 {
            0.0
        } else {
            unique as f64 / regions as f64
        },
    );
    m.set("core.store.builds", store.builds() as f64);
}

/// Set-up: build every point's trace cold through the `TraceStore`, on
/// paxsim's own bounded pool. Returns the points in seed-permuted order,
/// each build with its time, and the store.
fn build_points(class: Class, seed: u64) -> (Vec<Point>, Vec<Build>, TraceStore) {
    let smt8 = config_by_name("HT on -8-2").expect("Table 1 has HT on -8-2");
    let wanted: Vec<(KernelId, HwConfig)> = all_kernels()
        .into_iter()
        .flat_map(|k| [(k, serial()), (k, smt8.clone())])
        .collect();
    let store = TraceStore::new();
    let built: Vec<Build> = pool::map(&wanted, |(kernel, config)| {
        let t = std::time::Instant::now();
        let trace = store.get(TraceKey {
            kernel: *kernel,
            class,
            nthreads: config.threads,
            schedule: Schedule::Static,
        });
        (trace, t.elapsed().as_secs_f64())
    });
    let mut points: Vec<Point> = wanted
        .into_iter()
        .zip(&built)
        .map(|((kernel, config), (trace, _))| Point {
            kernel,
            config,
            uops: trace.instructions(),
            trace: trace.clone(),
        })
        .collect();
    Rng::new(seed).shuffle(&mut points);
    (points, built, store)
}

struct Pass<'a> {
    points: &'a [Point],
    class: Class,
    machine: &'a MachineConfig,
}

impl Pass<'_> {
    /// One pass over `which` points: every point simulated once.
    fn run(
        &self,
        tracer: &mut Tracer,
        goldens: &mut Goldens,
        which: &dyn Fn(&Point) -> bool,
        jitter: u64,
        jitter_seed: u64,
        pass_id: u64,
    ) -> Vec<SimRecord> {
        let (records, _) = tracer.span("bench.engine.pass", pass_id, |tracer| {
            self.points
                .iter()
                .enumerate()
                .filter(|(_, p)| which(p))
                .map(|(i, p)| {
                    let id = pass_id * 1_000 + i as u64;
                    let (mut record, out) = timed_simulate(
                        tracer,
                        self.machine,
                        p.kernel,
                        &p.config,
                        &p.trace,
                        jitter,
                        jitter_seed,
                        id,
                    );
                    let key = golden_key(self.class, p.kernel, &p.config.name, jitter, jitter_seed);
                    record.golden_ok = tracer
                        .call("bench.golden.check", id, || {
                            goldens.check(&key, fingerprint(&out))
                        })
                        .0;
                    record
                })
                .collect::<Vec<_>>()
        });
        records
    }
}

fn total_secs(records: &[SimRecord]) -> f64 {
    records.iter().map(|r| r.secs).sum()
}

pub fn run(kind: Kind, ctx: &Ctx, goldens: &mut Goldens) -> Outcome {
    let mut o = Outcome::default();
    let class = if ctx.quick { Class::T } else { Class::S };
    let machine = MachineConfig::paxville_smp();

    let t_setup = std::time::Instant::now();
    let (points, builds, store) = build_points(class, ctx.seed);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let pass = Pass {
        points: &points,
        class,
        machine: &machine,
    };
    let all = |_: &Point| true;
    let mut tracer = Tracer::new(ctx.traced);
    let mut timed: Vec<SimRecord> = Vec::new();

    if !ctx.traced {
        // A caller of the engine waits for a sweep: one pass over the
        // sixteen points is the unit a wait is measured in.
        // (jitter, jitter seed) of every pass; a quiet run's first pass
        // fills the memo and the rest replay from it.
        let plan: Vec<(u64, u64)> = match kind {
            Kind::Jittered => {
                let n = (ctx.seconds * 3 / 10).max(1) as usize;
                let seeds = JITTER_SEEDS.iter().cycle().take(n);
                seeds.map(|s| (JITTER_CYCLES, *s)).collect()
            }
            Kind::Quiet => vec![(0, 0); 1 + (ctx.seconds * 6 / 10).max(1) as usize],
        };
        let passes: Vec<Vec<SimRecord>> = plan
            .iter()
            .enumerate()
            .map(|(p, &(jitter, jitter_seed))| {
                // Not before every replay: a check costs a third of one,
                // and a disturbed replay is dropped below anyway.
                if jitter > 0 || p <= 1 {
                    host::wait_for_quiet_cpu();
                }
                pass.run(&mut tracer, goldens, &all, jitter, jitter_seed, p as u64)
            })
            .collect();
        // One pass with every point at the fastest of its runs in `which`
        // passes, seconds. A neighbour on the host only ever adds time, a
        // hundredth of a second at a time and up to half as much again on
        // the replays, so the fastest run of a point is the one that
        // repeats (over ten runs a replay pass built from medians spread
        // 23 %, this one 9 %).
        let fastest_s = |which: std::ops::Range<usize>| -> f64 {
            (0..points.len())
                .map(|j| {
                    passes[which.clone()]
                        .iter()
                        .map(|p| p[j].secs)
                        .fold(f64::INFINITY, f64::min)
                })
                .sum()
        };
        let pass_uops = passes[0].iter().map(|r| r.uops).sum::<u64>() as f64;
        let (work_per_s, typical_s) = match kind {
            Kind::Jittered => {
                let typical_s = fastest_s(0..passes.len());
                (pass_uops / typical_s, typical_s)
            }
            Kind::Quiet => {
                let replays = (passes.len() - 1) as f64;
                let (fill_s, replay_s) = (total_secs(&passes[0]), fastest_s(1..passes.len()));
                let work = (1.0 + replays) * pass_uops / (fill_s + replays * replay_s);
                (work, replay_s)
            }
        };
        o.metrics.set("setup_s", setup_s);
        o.metrics.set("work_per_s", work_per_s);
        o.metrics.set("wait_ms", typical_s * 1e3);
        o.metrics.set("peak_rss_mb", host::peak_rss_mb());
        o.notes.push(format!(
            "{} passes over {} class {class} points took {} s",
            plan.len(),
            points.len(),
            passes
                .iter()
                .map(|p| format!("{:.3}", total_secs(p)))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        o.notes.push(
            match kind {
                Kind::Jittered => "wait_ms is one pass with each point at its fastest run, work_per_s the uops of a pass over that time",
                Kind::Quiet => "the first pass fills the memo; wait_ms is one replay pass with each point at its fastest replay, work_per_s the uops of the fill and the replays over the fill's time and that of as many such replay passes",
            }
            .to_string(),
        );
        timed.extend(passes.into_iter().flatten());
    } else {
        build_metrics(&builds, &store, &mut o.metrics);
        // The jittered pass is the layer budget of `engine_jittered` and
        // the base both memo ratios of `engine_quiet` divide by.
        let jittered = pass.run(
            &mut tracer,
            goldens,
            &all,
            JITTER_CYCLES,
            JITTER_SEEDS[0],
            0,
        );
        match kind {
            Kind::Jittered => {
                // The same warm pass three ways (plain, harness spans on,
                // paxsim's own obs on), three rounds in turn, over the light
                // points only so that the run stays inside its time.
                let light = |p: &Point| p.uops < LIGHT_POINT_UOPS;
                let mut secs: [Vec<f64>; 3] = Default::default();
                for round in 0..3 {
                    for (way, (spans, obs)) in [(false, false), (true, false), (false, true)]
                        .into_iter()
                        .enumerate()
                    {
                        tracer.set_on(spans);
                        paxsim_obs::set_enabled(obs);
                        let id = 1 + round * 3 + way as u64;
                        let records = pass.run(
                            &mut tracer,
                            goldens,
                            &light,
                            JITTER_CYCLES,
                            JITTER_SEEDS[0],
                            id,
                        );
                        secs[way].push(total_secs(&records));
                        timed.extend(records);
                    }
                }
                paxsim_obs::set_enabled(false);
                tracer.set_on(true);
                let [plain, traced, obs] = secs.map(|v| median(&v));
                o.metrics.set("bench.trace_overhead_ratio", traced / plain);
                o.metrics.set("obs.overhead_ratio.engine", obs / plain);
                o.notes.push(format!(
                    "overhead ratios: medians of 3 passes each over the {} points under {} Muops",
                    points.iter().filter(|p| light(p)).count(),
                    LIGHT_POINT_UOPS / 1_000_000
                ));
                layer_metrics(&jittered, &mut o.metrics);
            }
            Kind::Quiet => {
                let before = host::rss_mb();
                let fill = pass.run(&mut tracer, goldens, &all, 0, 0, 1);
                let grown = host::rss_mb() - before;
                let replay = pass.run(&mut tracer, goldens, &all, 0, 0, 2);
                let mut quiet: Vec<SimRecord> = Vec::new();
                let (fill_s, replay_s, base) = (
                    total_secs(&fill),
                    total_secs(&replay),
                    total_secs(&jittered),
                );
                quiet.extend(fill);
                quiet.extend(replay);
                layer_metrics(&quiet, &mut o.metrics);
                o.metrics.set("machine.memo.fill_s", fill_s);
                o.metrics.set("machine.memo.replay_s", replay_s);
                o.metrics
                    .set("machine.memo.fill_over_jittered", fill_s / base);
                o.metrics
                    .set("machine.memo.replay_over_jittered", replay_s / base);
                o.metrics.set("machine.memo.rss_growth_mb", grown);
                timed.extend(quiet);
            }
        }
        timed.extend(jittered);
        o.metrics.set("bench.spans", tracer.spans().len() as f64);
        o.metrics.set("bench.trace_coverage", tracer.coverage());
        let name = match kind {
            Kind::Jittered => "engine_jittered",
            Kind::Quiet => "engine_quiet",
        };
        crate::write_spans(&tracer, name, &mut o);
    }

    for r in &timed {
        o.check(r.golden_ok, || {
            format!(
                "{} on {} threads: fingerprint differs from golden",
                r.kernel, r.threads
            )
        });
    }
    o.check(store.builds() == builds.len() as u64, || {
        format!(
            "{} trace builds for {} traces",
            store.builds(),
            builds.len()
        )
    });
    o
}
