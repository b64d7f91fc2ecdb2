//! `paxbench` — one benchmark for both paxsim pipelines.
//!
//! ```text
//! paxbench --workload W --seed N --seconds S --trace 0|1   one run, result line last (the driver's form)
//! paxbench run W [--seed N] [--seconds S] [--traced] [--quick]
//! paxbench all [--seed N] [--seconds S] [--quick]          every workload, untraced then traced
//! paxbench repeat [K] [--seed N] [--seconds S]             K sets, medians, quartiles, spread vs bound
//! paxbench bless                                           rewrite golden/goldens.tsv
//! ```
//!
//! README.md and WORKLOADS.md beside this package say what every metric
//! and workload means.

mod engine;
mod golden;
mod host;
mod metrics;
mod serve;
mod spans;
mod study;

use std::process::{Command, ExitCode, Stdio};

use golden::Goldens;
use metrics::{median, quartiles, Outcome, END_TO_END, PER_LAYER, WORKLOADS};

/// What one run was asked for.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Permutes input order and derives the never-seen request keys.
    pub seed: u64,
    /// Run length: scales pass counts and serving durations.
    pub seconds: u64,
    /// Record spans and report per-layer metrics instead of end-to-end.
    pub traced: bool,
    /// Class T inputs and second-long phases, for CI smoke runs.
    pub quick: bool,
}

/// `run_seconds` of `BENCHMARK.json`, the default run length.
const RUN_SECONDS: u64 = 10;

fn usage() -> ExitCode {
    eprintln!(
        "usage: paxbench --workload W --seed N --seconds S --trace 0|1\n\
         \x20      paxbench run W [--seed N] [--seconds S] [--traced] [--quick]\n\
         \x20      paxbench all [--seed N] [--seconds S] [--quick]\n\
         \x20      paxbench repeat [K] [--seed N] [--seconds S]\n\
         \x20      paxbench bless\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    ExitCode::from(2)
}

/// Write a traced run's spans to `out/<workload>.trace.jsonl`; a run
/// whose span file is missing is a failed run.
pub fn write_spans(tracer: &spans::Tracer, workload: &str, o: &mut Outcome) {
    let path = host::out_dir().join(format!("{workload}.trace.jsonl"));
    let written = tracer.write_jsonl(&path);
    o.check(written.is_ok(), || {
        format!("writing {}: {written:?}", path.display())
    });
    o.notes.push(format!(
        "{} spans in out/{workload}.trace.jsonl",
        tracer.spans().len()
    ));
}

fn run_workload(name: &str, ctx: &Ctx, goldens: &mut Goldens) -> Option<Outcome> {
    Some(match name {
        "study_cold" => study::run(ctx, goldens),
        "engine_jittered" => engine::run(engine::Kind::Jittered, ctx, goldens),
        "engine_quiet" => engine::run(engine::Kind::Quiet, ctx, goldens),
        "serve_hot" => serve::run(serve::Kind::Hot, ctx, goldens),
        "serve_mixed" => serve::run(serve::Kind::Mixed, ctx, goldens),
        _ => return None,
    })
}

/// One run in this process: the report on stderr, the result line last
/// on stdout.
fn run_here(name: &str, ctx: &Ctx) -> ExitCode {
    eprintln!(
        "paxbench: {name} seed {} seconds {} traced {} quick {} — nproc {}, pool width {}, scale {:.2} of run_seconds {RUN_SECONDS}",
        ctx.seed,
        ctx.seconds,
        ctx.traced,
        ctx.quick,
        host::nproc(),
        host::nproc(),
        ctx.seconds as f64 / RUN_SECONDS as f64,
    );
    let Some(o) = run_workload(name, ctx, &mut Goldens::committed()) else {
        eprintln!("paxbench: unknown workload `{name}`");
        return usage();
    };
    eprint!("{}", o.report(name));
    println!(
        "{}",
        o.result_line(if ctx.traced { PER_LAYER } else { END_TO_END })
    );
    exit_code(o.failed == 0)
}

/// Run this executable again with `args` and parse the last line it
/// prints; a child that exits nonzero is an error carrying that line.
pub fn spawn_self(args: &[String]) -> Result<serde_json::Value, String> {
    let what = args.join(" ");
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn `{what}`: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!("`{what}` exited with {}: {line}", out.status));
    }
    serde_json::parse(line).map_err(|e| format!("`{what}` printed `{line}`: {e}"))
}

/// The flags that hand `ctx` to a child process.
pub fn ctx_args(ctx: &Ctx) -> Vec<String> {
    let mut args = vec![
        "--seed".to_string(),
        ctx.seed.to_string(),
        "--seconds".to_string(),
        ctx.seconds.to_string(),
    ];
    args.extend(ctx.traced.then(|| "--traced".to_string()));
    args.extend(ctx.quick.then(|| "--quick".to_string()));
    args
}

/// One run in a child process (a fresh region memo and a fresh peak RSS,
/// exactly as the driver measures); returns its parsed result line.
fn run_child(name: &str, ctx: &Ctx) -> Result<serde_json::Value, String> {
    let mut args = vec!["run".to_string(), name.to_string()];
    args.extend(ctx_args(ctx));
    spawn_self(&args)
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn all(ctx: &Ctx) -> ExitCode {
    let mut failed = false;
    for name in WORKLOADS {
        for traced in [false, true] {
            if let Err(e) = run_child(name, &Ctx { traced, ..*ctx }) {
                eprintln!("paxbench: {e}");
                failed = true;
            }
        }
    }
    exit_code(!failed)
}

/// `sets` full sets of untraced runs, alternating workload order, each
/// run with its own seed; then for every workload and end-to-end metric
/// the median, quartiles and quartile spread beside the bound.
fn repeat(sets: u64, ctx: &Ctx) -> ExitCode {
    let mut values: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()];
    let mut broken = false;
    for set in 0..sets {
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if set % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let run = Ctx {
                seed: ctx.seed + set,
                ..*ctx
            };
            match run_child(WORKLOADS[w], &run) {
                Ok(v) => {
                    for (m, d) in END_TO_END.iter().enumerate() {
                        values[w][m]
                            .push(v["metrics"][d.name]["value"].as_f64().unwrap_or(f64::NAN));
                    }
                }
                Err(e) => {
                    eprintln!("paxbench: {e}");
                    broken = true;
                }
            }
        }
    }
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>14} {:>8} {:>7}  over {sets} sets",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    for (w, name) in WORKLOADS.iter().enumerate() {
        for (m, d) in END_TO_END.iter().enumerate() {
            let v = &values[w][m];
            if v.len() < 2 {
                continue;
            }
            let (q1, q3) = quartiles(v);
            let med = median(v);
            let spread = (q3 - q1) / med;
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            // The driver does not gate the spread of set-up time.
            let over = spread > bound && d.name != "setup_s";
            broken |= over;
            println!(
                "{name:<16} {:<12} {med:>14.4} {q1:>14.4} {q3:>14.4} {:>7.2}% {:>6.0}%{}",
                d.name,
                spread * 100.0,
                bound * 100.0,
                if over {
                    "  SPREAD EXCEEDS BOUND"
                } else if spread > bound / 3.0 {
                    "  (above a third of the bound)"
                } else {
                    ""
                }
            );
        }
    }
    exit_code(!broken)
}

/// Regenerate every golden: both input sizes of every workload, and all
/// three jitter seeds.
fn bless() -> ExitCode {
    let mut g = Goldens::blessing();
    let mut failed = 0;
    for quick in [false, true] {
        for (name, seconds, traced) in [
            ("study_cold", 5, false),
            ("engine_jittered", 10, false),
            ("engine_quiet", 1, false),
            ("serve_hot", 1, false),
            ("serve_mixed", 1, true),
        ] {
            let ctx = Ctx {
                seed: 1,
                seconds,
                traced,
                quick,
            };
            eprintln!("paxbench: blessing {name} (quick {quick})");
            failed += run_workload(name, &ctx, &mut g).map_or(1, |o| o.failed);
        }
    }
    if failed > 0 {
        eprintln!("paxbench: {failed} operations failed while blessing; goldens left untouched");
        return ExitCode::FAILURE;
    }
    match std::fs::write(golden::file_path(), g.render()) {
        Ok(()) => {
            println!(
                "wrote {} goldens to {}; rebuild to compile them in",
                g.len(),
                golden::file_path().display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("paxbench: writing goldens: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--flag value` and bare `--flag` options after the subcommand.
struct Options {
    positional: Vec<String>,
    ctx: Ctx,
    workload: Option<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        positional: Vec::new(),
        ctx: Ctx {
            seed: 1,
            seconds: RUN_SECONDS,
            traced: false,
            quick: false,
        },
        workload: None,
    };
    let mut explicit_seconds = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{what} needs a value"));
        let number = |s: String, what: &str| {
            s.parse::<u64>()
                .map_err(|_| format!("{what}: `{s}` is not a whole number"))
        };
        match a.as_str() {
            "--workload" => o.workload = Some(value("--workload")?),
            "--seed" => o.ctx.seed = number(value("--seed")?, "--seed")?,
            "--seconds" => {
                o.ctx.seconds = number(value("--seconds")?, "--seconds")?.max(1);
                explicit_seconds = true;
            }
            "--trace" => o.ctx.traced = number(value("--trace")?, "--trace")? != 0,
            "--traced" => o.ctx.traced = true,
            "--quick" => o.ctx.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            _ => o.positional.push(a.clone()),
        }
    }
    if o.ctx.quick && !explicit_seconds {
        o.ctx.seconds = 1;
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let set = host::paxsim_env_vars();
    if !set.is_empty() {
        eprintln!(
            "paxbench: refusing to measure with {} set; unset every PAXSIM_* variable",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("paxbench: {e}");
            return usage();
        }
    };
    // No fault plan may be live while anything here is measured, and
    // nothing inside paxsim records metrics or spans unless a traced run
    // turns that on to price it.
    let _quiesced = paxsim_core::faultinject::quiesced();
    paxsim_obs::set_enabled(false);

    let positional: Vec<&str> = o.positional.iter().map(String::as_str).collect();
    match (o.workload.as_deref(), positional.as_slice()) {
        (Some(w), []) | (None, &["run", w]) => run_here(w, &o.ctx),
        (None, ["study-pass"]) => {
            println!("{}", study::child_pass(&o.ctx));
            ExitCode::SUCCESS
        }
        (None, ["all"]) => all(&o.ctx),
        (None, ["repeat"]) => repeat(3, &o.ctx),
        (None, ["repeat", k]) => match k.parse::<u64>() {
            Ok(k) if k >= 2 => repeat(k, &o.ctx),
            _ => {
                eprintln!("paxbench: repeat needs at least 2 sets to have quartiles");
                usage()
            }
        },
        (None, ["bless"]) => bless(),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::Better;
    use serde_json::Value;

    fn manifest() -> Value {
        let text = std::fs::read_to_string(host::bench_dir().join("../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the root of the repository");
        serde_json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn entries(v: &Value) -> &[Value] {
        match v {
            Value::Array(a) => a,
            other => panic!("expected an array, got {other:?}"),
        }
    }

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_metric_printed_is_in_the_manifest_and_the_reverse() {
        let m = manifest();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = entries(&m[key]);
            assert_eq!(declared.len(), table.len(), "{key}: count differs");
            for (j, d) in declared.iter().zip(table) {
                assert_eq!(
                    j["name"].as_str(),
                    Some(d.name),
                    "{key}: order or name differs"
                );
                assert_eq!(j["unit"].as_str(), Some(d.unit), "{}: unit", d.name);
                assert_eq!(
                    j["better"].as_str(),
                    Some(d.better.word()),
                    "{}: better",
                    d.name
                );
                assert_eq!(j["bound"].as_f64(), d.bound, "{}: bound", d.name);
            }
        }
        let names: Vec<&str> = entries(&m["workloads"])
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
        assert_eq!(m["run_seconds"].as_u64(), Some(RUN_SECONDS));
    }

    #[test]
    fn manifest_stays_inside_the_contract_limits() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad metric name `{}`", d.name);
            assert!(seen.insert(d.name), "`{}` declared twice", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit `{}`",
                d.unit
            );
            assert!(d.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        for w in WORKLOADS {
            assert!(valid_name(w) && seen.insert(w));
        }
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|d| d.bound <= setup.bound),
            "setup_s gets the largest bound"
        );
        for w in entries(&manifest()["workloads"]) {
            let why = w["why"].as_str().unwrap();
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why of {:?}",
                w["name"]
            );
        }
    }

    #[test]
    fn options_parse_in_the_drivers_form_and_ours() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse(&args(
            "--workload serve_hot --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("serve_hot"));
        assert_eq!(
            (o.ctx.seed, o.ctx.seconds, o.ctx.traced, o.ctx.quick),
            (7, 10, true, false)
        );
        let o = parse(&args("run engine_quiet --quick")).unwrap();
        assert_eq!(o.positional, ["run", "engine_quiet"]);
        assert_eq!((o.ctx.seconds, o.ctx.quick, o.ctx.traced), (1, true, false));
        assert!(parse(&args("run x --bogus")).is_err());
        assert!(parse(&args("--seed")).is_err());
    }
}
