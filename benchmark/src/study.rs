//! `study_cold`: what a researcher regenerating the paper's figures waits
//! for — an empty `TraceStore` to rendered text and JSON. Every pass runs
//! in a fresh child process: the engine's region memo is process-global
//! and only grows, so a second pass in one process is neither cold nor
//! the same size as the first.

use std::time::Instant;

use paxsim_core::calibrate::calibrate;
use paxsim_core::configs::all_configs;
use paxsim_core::report::{fig2_text, fig3_text, single_to_json, table2_text};
use paxsim_core::single::{run_single_program, SingleStudy};
use paxsim_core::store::{TraceKey, TraceStore};
use paxsim_core::study::{Cell, StudyOptions};
use paxsim_machine::config::MachineConfig;
use paxsim_nas::{Class, KernelId};
use paxsim_perfmon::stats::{BoxWhisker, Summary};
use serde::Value;

use crate::engine::{build_metrics, layer_metrics, timed_simulate, Build, SimRecord};
use crate::golden::{digest, Goldens};
use crate::host::{self, Rng};
use crate::metrics::{Metrics, Outcome};
use crate::spans::Tracer;
use crate::Ctx;

/// The study's kernels: two of the paper's panels, sized so one cold
/// class S pass (8 configurations × 3 trials each) takes 3–4 s and a run
/// has three passes to take the fastest of.
const KERNELS: [KernelId; 2] = [KernelId::Mg, KernelId::Ft];

fn options(ctx: &Ctx) -> StudyOptions {
    let mut kernels = KERNELS.to_vec();
    Rng::new(ctx.seed).shuffle(&mut kernels);
    let class = if ctx.quick { Class::T } else { Class::S };
    StudyOptions::paper(class).with_benchmarks(kernels)
}

/// Everything the study rendered, with its rows back in `KERNELS` order
/// so the digests do not depend on the seed's permutation.
fn rendered(study: &SingleStudy) -> (String, String) {
    let mut rows: Vec<(KernelId, Vec<Cell>)> = study
        .benchmarks
        .iter()
        .copied()
        .zip(study.cells.iter().cloned())
        .collect();
    rows.sort_by_key(|(k, _)| KERNELS.iter().position(|x| x == k));
    let canonical = SingleStudy {
        options_class: study.options_class.clone(),
        benchmarks: rows.iter().map(|(k, _)| *k).collect(),
        configs: study.configs.clone(),
        cells: rows.into_iter().map(|(_, r)| r).collect(),
    };
    render(&canonical)
}

fn render(study: &SingleStudy) -> (String, String) {
    let text = format!(
        "{}{}{}",
        fig2_text(study),
        fig3_text(study),
        table2_text(study)
    );
    // An unrenderable study digests as the empty string, which no golden matches.
    let json = single_to_json(study)
        .ok()
        .and_then(|v| serde_json::to_string(&v).ok())
        .unwrap_or_default();
    (text, json)
}

/// Simulated uops of a whole study: every trial of a cell retires the
/// instructions its quiet trial counted.
fn study_uops(study: &SingleStudy, trials: usize) -> u64 {
    study
        .cells
        .iter()
        .flatten()
        .map(|c| c.counters.instructions * trials as u64)
        .sum()
}

/// The study as `run_single_program` runs it, on paxsim's pool.
fn pooled_pass(opts: &StudyOptions) -> (SingleStudy, f64) {
    let t = Instant::now();
    let store = TraceStore::new();
    let study = run_single_program(opts, &store);
    std::hint::black_box(render(&study));
    (study, t.elapsed().as_secs_f64())
}

/// The same study driven cell by cell from here, one span per call into a
/// layer. Produces the same `SingleStudy`, which the digests prove.
fn traced_pass(opts: &StudyOptions, tracer: &mut Tracer, m: &mut Metrics) -> (SingleStudy, f64) {
    let configs = all_configs();
    let store = TraceStore::new();
    let mut builds: Vec<Build> = Vec::new();
    let mut records: Vec<SimRecord> = Vec::new();
    let (mut quiet_s, mut jittered_s, mut summarize_s) = (0.0, 0.0, 0.0);
    let rss_before = host::rss_mb();

    let (study, wall) = tracer.span("bench.study.pass", 0, |tracer| {
        let mut cells: Vec<Vec<Cell>> = Vec::new();
        for (bi, &bench) in opts.benchmarks.iter().enumerate() {
            let mut row: Vec<Cell> = Vec::new();
            for (ci, config) in configs.iter().enumerate() {
                let id = (bi * configs.len() + ci) as u64;
                let built_before = store.builds();
                let (trace, secs) = tracer.call("core.store.get", id, || {
                    store.get(TraceKey {
                        kernel: bench,
                        class: opts.class,
                        nthreads: config.threads,
                        schedule: opts.schedule,
                    })
                });
                if store.builds() > built_before {
                    builds.push((trace.clone(), secs));
                }
                let mut cycles = Vec::with_capacity(opts.trials);
                let mut counters = None;
                for trial in 0..opts.trials {
                    let jitter = if trial == 0 { 0 } else { opts.jitter_cycles };
                    let (rec, out) = timed_simulate(
                        tracer,
                        &opts.machine,
                        bench,
                        config,
                        &trace,
                        jitter,
                        trial as u64,
                        id,
                    );
                    if trial == 0 {
                        quiet_s += rec.secs;
                        counters = Some(out.jobs[0].counters);
                    } else {
                        jittered_s += rec.secs;
                    }
                    cycles.push(out.jobs[0].cycles as f64);
                    records.push(rec);
                }
                let base = row
                    .first()
                    .map_or(f64::NAN, |serial: &Cell| serial.cycles.mean);
                let (cell, secs) = tracer.call("perfmon.stats.summarize", id, || {
                    std::hint::black_box(BoxWhisker::of(&cycles));
                    let speedups: Vec<f64> = if ci == 0 {
                        vec![1.0; opts.trials]
                    } else {
                        cycles.iter().map(|&c| base / c).collect()
                    };
                    Cell {
                        cycles: Summary::of(&cycles),
                        speedup: Summary::of(&speedups),
                        counters: counters.expect("trial 0 ran"),
                    }
                });
                summarize_s += secs;
                row.push(cell);
            }
            cells.push(row);
        }
        let study = SingleStudy {
            options_class: opts.class.to_string(),
            benchmarks: opts.benchmarks.clone(),
            configs: configs.clone(),
            cells,
        };
        let (_, render_s) = tracer.call("core.report.render", 0, || {
            std::hint::black_box(render(&study))
        });
        m.set("core.report.render_ms", render_s * 1e3);
        study
    });

    build_metrics(&builds, &store, m);
    layer_metrics(&records, m);
    let trials = opts.trials as f64;
    m.set("machine.memo.fill_s", quiet_s);
    if jittered_s > 0.0 {
        // Per run: one quiet trial against the mean of the jittered ones.
        m.set(
            "machine.memo.fill_over_jittered",
            quiet_s / (jittered_s / (trials - 1.0)),
        );
    }
    m.set(
        "machine.memo.rss_growth_mb",
        host::rss_mb() - rss_before - m.get("machine.trace.packed_mb"),
    );
    m.set("perfmon.summarize_us", summarize_s * 1e6);
    let self_ns = tracer
        .self_times()
        .get("bench.study.pass")
        .map_or(0, |s| s.1);
    m.set("core.driver.self_s", self_ns as f64 / 1e9);
    m.set("bench.spans", tracer.spans().len() as f64);
    m.set("bench.trace_coverage", tracer.coverage());
    (study, wall)
}

/// The child process: one cold pass, reported as one JSON line.
pub fn child_pass(ctx: &Ctx) -> String {
    let opts = options(ctx);
    let mut m = Metrics::default();
    let mut tracer = Tracer::new(ctx.traced);
    let (study, wall_s) = if ctx.traced {
        traced_pass(&opts, &mut tracer, &mut m)
    } else {
        pooled_pass(&opts)
    };
    let mut spans_written = true;
    if ctx.traced {
        let path = host::out_dir().join("study_cold.trace.jsonl");
        spans_written = tracer.write_jsonl(&path).is_ok();
    }
    let (text, json) = rendered(&study);
    let busy_s = m.get("nas.build_s") + m.get("machine.engine.sim_s");
    let metrics: Vec<String> = m
        .names()
        .map(|n| format!(r#""{n}":{:?}"#, m.get(n)))
        .collect();
    format!(
        r#"{{"wall_s":{wall_s:?},"uops":{},"peak_rss_mb":{:?},"text":"{:016x}","json":"{:016x}","busy_s":{busy_s:?},"spans_written":{spans_written},"metrics":{{{}}}}}"#,
        study_uops(&study, opts.trials),
        host::peak_rss_mb(),
        digest(&text),
        digest(&json),
        metrics.join(",")
    )
}

/// Spawn one child pass and parse its line.
fn spawn_pass(ctx: &Ctx, traced: bool) -> Result<Value, String> {
    let mut args = vec!["study-pass".to_string()];
    args.extend(crate::ctx_args(&Ctx { traced, ..*ctx }));
    crate::spawn_self(&args)
}

fn hex(v: &Value) -> Option<u64> {
    u64::from_str_radix(v.as_str()?, 16).ok()
}

pub fn run(ctx: &Ctx, goldens: &mut Goldens) -> Outcome {
    let mut o = Outcome::default();
    let class = if ctx.quick { "T" } else { "S" };

    // Set-up is what the paper does before its studies: the §3 platform
    // characterization, whose worst row is a golden number.
    let machine = MachineConfig::paxville_smp();
    let repeats = if ctx.quick || ctx.traced { 1 } else { 5 };
    let mut setups = Vec::new();
    let mut worst = 0.0;
    for _ in 0..repeats {
        let t = Instant::now();
        let report = calibrate(&machine);
        setups.push(t.elapsed().as_secs_f64());
        worst = report.worst().rel_err();
        let ok = goldens.check_value("value:calib_max_rel_err", worst);
        o.check(ok, || {
            format!("calib_max_rel_err {worst} differs from golden")
        });
    }
    // The fastest: calibrations are equal work, and the host only adds time.
    let setup_s = setups.iter().copied().fold(f64::INFINITY, f64::min);

    let mut passes: Vec<Value> = Vec::new();
    let plain_passes = if ctx.traced {
        1
    } else {
        (ctx.seconds * 3 / 10).max(1)
    };
    for i in 0..plain_passes + u64::from(ctx.traced) {
        if !ctx.traced {
            host::wait_for_quiet_cpu();
        }
        match spawn_pass(ctx, i >= plain_passes) {
            Ok(v) => {
                for part in ["text", "json"] {
                    let ok = hex(&v[part])
                        .is_some_and(|d| goldens.check(&format!("study:{class}:{part}"), d));
                    o.check(ok, || format!("study {part} digest differs from golden"));
                }
                passes.push(v);
            }
            Err(e) => o.check(false, || e),
        }
    }
    let field = |v: &Value, k: &str| v[k].as_f64().unwrap_or(0.0);

    if !ctx.traced {
        // Equal passes differ only by what the host did to them, and it
        // only ever adds time: the fastest pass is the one that repeats
        // (over ten runs the median pass spread 19 %, the fastest 9 %).
        let fastest = passes
            .iter()
            .min_by(|a, b| field(a, "wall_s").total_cmp(&field(b, "wall_s")));
        let (wall_s, uops) = fastest.map_or((0.0, 0.0), |v| (field(v, "wall_s"), field(v, "uops")));
        let child_peak = passes
            .iter()
            .map(|v| field(v, "peak_rss_mb"))
            .fold(0.0, f64::max);
        o.metrics.set("setup_s", setup_s);
        o.metrics
            .set("work_per_s", if wall_s > 0.0 { uops / wall_s } else { 0.0 });
        o.metrics.set("wait_ms", wall_s * 1e3);
        o.metrics
            .set("peak_rss_mb", child_peak.max(host::peak_rss_mb()));
        o.notes.push(format!(
            "{} cold passes (class {class}, {} kernels x 8 configurations x 3 trials), each in its own process, took {} s; wait_ms and work_per_s are the fastest pass",
            passes.len(),
            KERNELS.len(),
            passes
                .iter()
                .map(|v| format!("{:.3}", field(v, "wall_s")))
                .collect::<Vec<_>>()
                .join(" ")
        ));
    } else if let [plain, traced] = passes.as_slice() {
        if let Value::Object(entries) = &traced["metrics"] {
            for (name, v) in entries {
                o.metrics.set(name, v.as_f64().unwrap_or(0.0));
            }
        }
        let width = host::nproc() as f64;
        o.metrics.set(
            "core.pool.busy_ratio",
            field(traced, "busy_s") / (field(plain, "wall_s") * width),
        );
        o.metrics.set("lmbench.calibrate_ms", setup_s * 1e3);
        o.metrics.set("lmbench.calib_max_rel_err", worst);
        o.check(traced["spans_written"].as_bool() == Some(true), || {
            "span file not written".into()
        });
        o.notes.push(format!(
            "pooled pass {:.3} s on {width} threads; traced serial pass {:.3} s; spans in out/study_cold.trace.jsonl",
            field(plain, "wall_s"),
            field(traced, "wall_s")
        ));
    }
    o
}
