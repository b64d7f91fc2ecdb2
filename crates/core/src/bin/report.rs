//! Regenerate the paper's tables and figures.
//!
//! ```text
//! report [--class T|S|W] [--trials N] [--json DIR] [--csv DIR] [SECTION...]
//!
//! SECTION ∈ { table1, platform, fig2, fig3, table2, headlines,
//!             efficiency, phases, fig4, fig5, all }        (default: all)
//! ```
//!
//! Two extra sections are opt-in only (never part of `all`): `profile`
//! turns the observability layer on and prints per-region
//! cycle/instruction/stall attribution from the engine's profiling
//! hooks (`report profile --class S`); `--json DIR` also writes
//! `profile.json`. `ablation` prints the model-design ablations of
//! DESIGN.md §3, each on the workload most sensitive to it.
//!
//! Nothing here is a performance gate: a performance claim is a paired
//! parent-vs-change run of paxbench (`benchmark/`, `BENCHMARK.json`).

use std::io::Write;

use paxsim_core::prelude::*;
use paxsim_core::report;
use paxsim_nas::{all_kernels, Class};

struct Args {
    class: Class,
    trials: usize,
    json_dir: Option<String>,
    csv_dir: Option<String>,
    sections: Vec<String>,
}

/// Every section name the command line accepts: the module doc's set
/// plus the opt-in `profile` and `ablation`.
const SECTIONS: [&str; 13] = [
    "table1",
    "platform",
    "fig2",
    "fig3",
    "table2",
    "headlines",
    "efficiency",
    "phases",
    "fig4",
    "fig5",
    "all",
    "profile",
    "ablation",
];

fn usage() -> ! {
    eprintln!(
        "usage: report [--class T|S|W] [--trials N] [--json DIR] [--csv DIR] [SECTION...]\n\
         SECTION: {}",
        SECTIONS.join(" ")
    );
    std::process::exit(2);
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        class: Class::S,
        trials: 3,
        json_dir: None,
        csv_dir: None,
        sections: Vec::new(),
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--class" => {
                args.class = match it.next().as_deref() {
                    Some("T") | Some("t") => Class::T,
                    Some("S") | Some("s") => Class::S,
                    Some("W") | Some("w") => Class::W,
                    other => return Err(format!("unknown class {other:?}")),
                }
            }
            "--trials" => {
                args.trials = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--trials needs a number")?
            }
            "--json" => args.json_dir = Some(it.next().ok_or("--json needs a directory")?),
            "--csv" => args.csv_dir = Some(it.next().ok_or("--csv needs a directory")?),
            s if SECTIONS.contains(&s) => args.sections.push(a),
            s if s.starts_with('-') => return Err(format!("unknown flag `{s}`")),
            s => return Err(format!("unknown section `{s}`")),
        }
    }
    if args.sections.is_empty() {
        args.sections.push("all".into());
    }
    Ok(args)
}

fn want(args: &Args, s: &str) -> bool {
    args.sections.iter().any(|x| x == s || x == "all")
}

fn write_json(
    dir: &Option<String>,
    name: &str,
    value: paxsim_core::error::StudyResult<serde_json::Value>,
) {
    let Some(dir) = dir else { return };
    let value = value.unwrap_or_else(|e| {
        eprintln!("report: rendering {name} JSON: {e}");
        std::process::exit(1);
    });
    let path = format!("{dir}/{name}.json");
    let result = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|mut f| {
            let body = serde_json::to_string_pretty(&value)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
            f.write_all(body.as_bytes())
        });
    match result {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => {
            eprintln!("report: writing {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Render one benchmark's per-region attribution table.
fn profile_text(title: &str, rows: &[paxsim_machine::profile::RegionRow]) -> String {
    let total: u64 = rows.iter().map(|r| r.cycles()).sum();
    let mut out = format!(
        "Per-region attribution: {title}\n\
         {:<16} {:>5} {:>7} {:>14} {:>6} {:>14} {:>6} {:>7}\n",
        "region", "runs", "replays", "cycles", "%cyc", "instructions", "cpi", "%stall"
    );
    for r in rows {
        let cycles = r.cycles();
        let active = r.counters.ticks_active();
        out.push_str(&format!(
            "{:<16} {:>5} {:>7} {:>14} {:>5.1}% {:>14} {:>6.2} {:>6.1}%\n",
            r.label,
            r.executions,
            r.memo_replays,
            cycles,
            100.0 * cycles as f64 / total.max(1) as f64,
            r.counters.instructions,
            cycles as f64 / (r.counters.instructions.max(1)) as f64,
            100.0 * r.counters.ticks_stall() as f64 / active.max(1) as f64,
        ));
    }
    out.push_str(&format!(
        "{:<16} {:>5} {:>7} {:>14}\n",
        "total", "", "", total
    ));
    out
}

/// The same attribution as a JSON tree for `--json DIR`.
fn profile_json(
    sections: &[(String, Vec<paxsim_machine::profile::RegionRow>)],
) -> serde_json::Value {
    use serde_json::Value;
    Value::Object(
        sections
            .iter()
            .map(|(bench, rows)| {
                (
                    bench.clone(),
                    Value::Array(
                        rows.iter()
                            .map(|r| {
                                Value::Object(vec![
                                    ("label".to_string(), Value::String(r.label.clone())),
                                    ("executions".to_string(), Value::UInt(r.executions)),
                                    ("memo_replays".to_string(), Value::UInt(r.memo_replays)),
                                    ("cycles".to_string(), Value::UInt(r.cycles())),
                                    (
                                        "instructions".to_string(),
                                        Value::UInt(r.counters.instructions),
                                    ),
                                    (
                                        "ticks_stall".to_string(),
                                        Value::UInt(r.counters.ticks_stall()),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                )
            })
            .collect(),
    )
}

/// Cycles with the stock model and with one knob changed: the prefetcher
/// (MG), the trace cache (LU), SMT issue partitioning (FT) and memory
/// bandwidth (CG); then the wall cycles of a CG+FT pair under each
/// placement policy.
fn ablation_text(opts: &StudyOptions, store: &TraceStore) -> String {
    use paxsim_machine::config::MachineConfig;
    use paxsim_machine::sim::{simulate, JobSpec};
    use paxsim_nas::KernelId::{Cg, Ft, Lu, Mg};
    use paxsim_omp::os::{split_jobs, PlacementPolicy};
    use paxsim_omp::schedule::Schedule;
    let trace = |kernel, nthreads| {
        store.get(TraceKey {
            kernel,
            class: opts.class,
            nthreads,
            schedule: Schedule::Static,
        })
    };
    let stock = &opts.machine;
    // Cycles of `kernel` on `config` with the stock model and with `change`.
    let pair = |kernel, config, change: fn(&mut MachineConfig)| {
        let cfg = config_by_name(config).expect("a Table 1 configuration");
        let mut ablated = stock.clone();
        change(&mut ablated);
        let cycles = |machine| {
            let job = JobSpec::pinned(trace(kernel, cfg.threads), cfg.contexts.clone());
            simulate(machine, vec![job]).jobs[0].cycles
        };
        (cycles(stock), cycles(&ablated))
    };
    let (cmp, cmt) = ("CMP-based SMP", "CMT-based SMP");
    let mut out = format!("Model ablations (class {})\n", opts.class);
    let (on, off) = pair(Mg, cmp, |m| m.prefetch = false);
    out += &format!("prefetcher: on {on} cycles, off {off} cycles (MG, {cmp})\n");
    let (full, half) = pair(Lu, cmt, |m| m.tc_uops /= 2);
    out += &format!("trace cache: 12K {full} cycles, 6K {half} cycles (LU, {cmt})\n");
    // Without the tax a context issues as it does alone.
    let (with, without) = pair(Ft, cmt, |m| m.smt_tpu = 12 / m.issue_width);
    out += &format!("SMT issue tax: with {with} cycles, without {without} cycles (FT, {cmt})\n");
    let (narrow, wide) = pair(Cg, cmt, |m| m.mem_read_cpl /= 2);
    out += &format!("memory bandwidth: stock {narrow} cycles, 2x {wide} cycles (CG, {cmt})\n");
    let cfg = config_by_name(cmp).expect("a Table 1 configuration");
    for policy in [PlacementPolicy::Spread, PlacementPolicy::Packed] {
        let placements = split_jobs(&cfg.contexts, 2, policy);
        let jobs = [Cg, Ft]
            .into_iter()
            .zip(placements)
            .map(|(kernel, at)| JobSpec::pinned(trace(kernel, cfg.threads / 2), at))
            .collect();
        let wall = simulate(stock, jobs).wall_cycles;
        out += &format!("placement {policy:?}: wall {wall} cycles (CG+FT, {cmp})\n");
    }
    out
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("report: {e}");
        usage()
    });
    let opts = StudyOptions::paper(args.class).with_trials(args.trials);
    let store = TraceStore::new();

    if want(&args, "table1") {
        println!("{}", table1_text());
    }
    if want(&args, "platform") {
        let cal = calibrate(&opts.machine);
        println!("{}", platform_text(&cal));
    }

    let needs_single = ["fig2", "fig3", "table2", "headlines", "efficiency"]
        .iter()
        .any(|s| want(&args, s));
    if needs_single {
        eprintln!("running single-program study (class {})…", args.class);
        let study = run_single_program(&opts, &store);
        if want(&args, "fig2") {
            println!("{}", fig2_text(&study));
        }
        if want(&args, "fig3") {
            println!("{}", fig3_text(&study));
        }
        if want(&args, "table2") {
            println!("{}", table2_text(&study));
        }
        if want(&args, "headlines") {
            println!("{}", headlines_text(&headlines(&study)));
        }
        if want(&args, "efficiency") {
            println!("{}", efficiency_text(&study));
        }
        write_json(&args.json_dir, "single", report::single_to_json(&study));
        if let Some(dir) = &args.csv_dir {
            std::fs::create_dir_all(dir).expect("create csv dir");
            let mut csv = paxsim_perfmon::Csv::new(&[
                "benchmark",
                "config",
                "arch",
                "cycles_mean",
                "cycles_cv",
                "speedup_mean",
                "cpi",
                "l1_miss_rate",
                "l2_miss_rate",
                "tc_miss_rate",
                "itlb_miss_rate",
                "dtlb_misses",
                "pct_stalled",
                "branch_prediction_rate",
                "pct_prefetch_bus",
            ]);
            for (bi, bench) in study.benchmarks.iter().enumerate() {
                for (ci, cfg) in study.configs.iter().enumerate() {
                    let cell = &study.cells[bi][ci];
                    let m = cell.metrics();
                    csv.row(&[
                        bench.to_string(),
                        cfg.name.clone(),
                        cfg.arch.clone(),
                        format!("{:.0}", cell.cycles.mean),
                        format!("{:.4}", cell.cycles.cv()),
                        format!("{:.3}", cell.speedup.mean),
                        format!("{:.3}", m.cpi),
                        format!("{:.4}", m.l1_miss_rate),
                        format!("{:.4}", m.l2_miss_rate),
                        format!("{:.4}", m.tc_miss_rate),
                        format!("{:.5}", m.itlb_miss_rate),
                        m.dtlb_misses.to_string(),
                        format!("{:.4}", m.pct_stalled),
                        format!("{:.4}", m.branch_prediction_rate),
                        format!("{:.4}", m.pct_prefetch_bus),
                    ]);
                }
            }
            let path = std::path::Path::new(dir).join("single.csv");
            csv.write_to(&path).expect("write csv");
            eprintln!("wrote {}", path.display());
        }
    }

    if want(&args, "phases") {
        use paxsim_machine::sim::{simulate, JobSpec};
        use paxsim_omp::schedule::Schedule;
        let cfg = config_by_name("CMP-based SMP").unwrap();
        for bench in &opts.benchmarks {
            let trace = store.get(TraceKey {
                kernel: *bench,
                class: opts.class,
                nthreads: cfg.threads,
                schedule: Schedule::Static,
            });
            let out = simulate(
                &opts.machine,
                vec![JobSpec::pinned(trace, cfg.contexts.clone())],
            );
            println!(
                "{}",
                phases_text(&format!("{bench} on {}", cfg.name), &out.jobs[0], 6)
            );
        }
    }

    // Explicit opt-in only: `all` must not silently flip the obs layer on.
    if args.sections.iter().any(|s| s == "profile") {
        use paxsim_machine::sim::{simulate, JobSpec};
        use paxsim_omp::schedule::Schedule;
        paxsim_obs::set_enabled(true);
        let cfg = config_by_name("CMP-based SMP").unwrap();
        let mut sections: Vec<(String, Vec<paxsim_machine::profile::RegionRow>)> = Vec::new();
        for bench in &opts.benchmarks {
            let trace = store.get(TraceKey {
                kernel: *bench,
                class: opts.class,
                nthreads: cfg.threads,
                schedule: Schedule::Static,
            });
            let _ = simulate(
                &opts.machine,
                vec![JobSpec::pinned(trace, cfg.contexts.clone())],
            );
            let rows = paxsim_machine::profile::take_last_run()
                .expect("a profiled run publishes its region rows");
            println!(
                "{}",
                profile_text(&format!("{bench} on {}", cfg.name), &rows)
            );
            sections.push((bench.to_string(), rows));
        }
        write_json(&args.json_dir, "profile", Ok(profile_json(&sections)));
    }

    if args.sections.iter().any(|s| s == "ablation") {
        println!("{}", ablation_text(&opts, &store));
    }

    if want(&args, "fig4") {
        eprintln!("running multi-program study…");
        let multi = run_multi_program(&opts, &store, &paper_workloads());
        println!("{}", fig4_text(&multi));
        write_json(&args.json_dir, "multi", report::multi_to_json(&multi));
    }

    if want(&args, "fig5") {
        eprintln!("running cross-product study…");
        // Figure 5 pairs every benchmark in the suite.
        let opts5 = opts.clone().with_benchmarks(all_kernels().to_vec());
        let cross = run_cross_product(&opts5, &store);
        println!("{}", fig5_text(&cross));
        write_json(&args.json_dir, "cross", report::cross_to_json(&cross));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    /// The accepted list is the module doc's `SECTION ∈ { … }` set plus
    /// `profile` and `ablation`; a section added to one and not the other
    /// fails here.
    #[test]
    fn accepted_sections_are_the_documented_ones() {
        let doc: String = include_str!("report.rs")
            .lines()
            .map_while(|l| l.strip_prefix("//!"))
            .collect();
        let set = &doc[doc.find('{').unwrap() + 1..doc.find('}').unwrap()];
        let mut documented: Vec<&str> = set.split(',').map(str::trim).collect();
        for opt_in in ["profile", "ablation"] {
            assert!(
                doc.contains(&format!("`{opt_in}`")),
                "the doc names the opt-in section"
            );
            documented.push(opt_in);
        }
        assert_eq!(documented, SECTIONS);
        for s in SECTIONS {
            assert_eq!(parse(s).unwrap().sections, [s]);
        }
    }

    #[test]
    fn unknown_sections_and_flags_are_refused() {
        assert_eq!(parse("").unwrap().sections, ["all"]);
        assert!(parse("--class T --trials 2 fig3").is_ok());
        assert_eq!(parse("tabel2").err().unwrap(), "unknown section `tabel2`");
        assert_eq!(parse("--clas S").err().unwrap(), "unknown flag `--clas`");
        assert!(parse("--class X").is_err());
        assert!(parse("--trials").is_err());
    }
}
