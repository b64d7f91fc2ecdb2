//! End-to-end resilience suite: every recovery path the study sweep
//! machinery promises, proven against injected faults.
//!
//! Each scenario follows the same shape — compute a clean study, break
//! something (a panicking cell, an exhausted build budget, a truncated or
//! bit-flipped journal, a drifting fast engine, a runaway cell), run the
//! study's sweep, and assert both the recovery bookkeeping *and* that
//! every unaffected cell is bit-identical to the clean run. A faulted run
//! hands one [`Faults`] handle to its trace store and its cell policy;
//! nothing else in the process sees it.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use paxsim_core::faultinject::{self, Faults};
use paxsim_core::journal::{Journal, SideRecord};
use paxsim_core::prelude::*;
use paxsim_core::report::{cross_to_json, multi_to_json, single_to_json};
use paxsim_core::single::SingleStudy;
use paxsim_machine::counters::Counters;
use paxsim_nas::{Class, KernelId};
use paxsim_perfmon::stats::Summary;

/// Two-benchmark quick study: 2 benches × (1 serial + 7 parallel) cells.
fn quick2() -> StudyOptions {
    StudyOptions::quick().with_benchmarks(vec![KernelId::Ep, KernelId::Is])
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("paxsim_resilience_suite");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    let _ = std::fs::remove_file(&p);
    p
}

/// The plain entry point's study: the sweep under `ResilienceOptions::none()`.
fn clean_single(opts: &StudyOptions) -> SingleStudy {
    paxsim_core::single::run_single_program(opts, &TraceStore::new())
}

fn plan(spec: &str) -> Faults {
    Faults::parse(spec).unwrap()
}

/// The resilient study with `faults` in its trace store and its policy.
fn resilient(
    opts: &StudyOptions,
    faults: &Faults,
    mut ropts: ResilienceOptions,
) -> Resilient<SingleStudy> {
    ropts.policy.faults = faults.clone();
    let store = TraceStore::with_faults(faults.clone());
    sweep_single_program(opts, &store, &ropts).unwrap()
}

/// The final report artifact, as bytes — what "byte-identical" means.
fn report_bytes(s: &SingleStudy) -> String {
    format!(
        "{}{}{}",
        fig3_text(s),
        table2_text(s),
        serde_json::to_string(&single_to_json(s).unwrap()).unwrap()
    )
}

fn assert_cell_eq(a: &Cell, b: &Cell, what: &str) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.speedup, b.speedup, "{what}: speedup");
    assert_eq!(a.counters, b.counters, "{what}: counters");
}

fn assert_study_eq(a: &SingleStudy, b: &SingleStudy) {
    for (bi, (ra, rb)) in a.cells.iter().zip(&b.cells).enumerate() {
        for (ci, (ca, cb)) in ra.iter().zip(rb).enumerate() {
            assert_cell_eq(ca, cb, &format!("cell [{bi}][{ci}]"));
        }
    }
}

fn assert_renders_finite(s: &SingleStudy) {
    let rendered = format!("{}{}{}", fig2_text(s), fig3_text(s), table2_text(s));
    assert!(!rendered.contains("NaN"), "NaN leaked into a report table");
    assert!(!rendered.contains("inf"), "inf leaked into a report table");
}

// ---------------------------------------------------------------------------
// Cell panic isolation.
// ---------------------------------------------------------------------------

#[test]
fn transient_cell_panic_is_retried_to_a_bit_identical_study() {
    let opts = quick2();
    let clean = clean_single(&opts);
    // Parallel-sweep item 3 panics exactly once; the retry succeeds.
    let res = resilient(&opts, &plan("cell-panic:3:1"), Default::default());
    assert!(res.resilience.is_clean(), "{:?}", res.resilience);
    assert!(res.resilience.retries >= 1);
    assert_study_eq(&clean, &res.study);
}

#[test]
fn persistent_cell_panic_poisons_only_that_cell() {
    let opts = quick2();
    let clean = clean_single(&opts);
    // Item 5 of the parallel sweep panics on every attempt.
    let res = resilient(&opts, &plan("cell-panic:5:100"), Default::default());
    let r = &res.resilience;
    assert!(!r.is_clean());
    assert_eq!(r.failed_cells.len(), 1, "{:?}", r.failed_cells);
    assert!(
        r.failed_cells[0].key.starts_with("single|ep|"),
        "{}",
        r.failed_cells[0].key
    );
    assert!(
        r.failed_cells[0].error.contains("panicked"),
        "{}",
        r.failed_cells[0].error
    );
    assert_eq!(r.retries, 2, "default policy: two retries, both consumed");

    // The failed parallel item maps to one poisoned cell; all others are
    // bit-identical to the clean study.
    let npar = res.study.configs.len() - 1;
    let (bad_bi, bad_ci) = (5 / npar, 1 + 5 % npar);
    for (bi, (cr, rr)) in clean.cells.iter().zip(&res.study.cells).enumerate() {
        for (ci, (cc, rc)) in cr.iter().zip(rr).enumerate() {
            if (bi, ci) == (bad_bi, bad_ci) {
                assert_eq!(rc.cycles.n, 0, "failed cell must be poisoned");
            } else {
                assert_cell_eq(cc, rc, &format!("cell [{bi}][{ci}]"));
            }
        }
    }
    assert_renders_finite(&res.study);
    // The resilience summary names the failed cell.
    let txt = resilience_text(r);
    assert!(txt.contains(&r.failed_cells[0].key), "{txt}");
}

// ---------------------------------------------------------------------------
// Trace-build failure.
// ---------------------------------------------------------------------------

#[test]
fn exhausted_build_budget_poisons_the_whole_row() {
    let opts = quick2();
    let clean = clean_single(&opts);
    // Every one of the store's bounded build attempts for ep panics.
    let res = resilient(&opts, &plan("build-panic:ep:3"), Default::default());
    let r = &res.resilience;
    // The serial baseline failed, so the entire ep row is unusable.
    assert_eq!(
        r.failed_cells.len(),
        res.study.configs.len(),
        "{:?}",
        r.failed_cells
    );
    assert!(r
        .failed_cells
        .iter()
        .all(|f| f.key.starts_with("single|ep|")));
    assert!(
        r.failed_cells[0].error.contains("trace build failed"),
        "{}",
        r.failed_cells[0].error
    );
    for cell in &res.study.cells[0] {
        assert_eq!(cell.cycles.n, 0, "every ep cell must be poisoned");
    }
    // The is row is untouched and bit-identical.
    for (ci, (cc, rc)) in clean.cells[1].iter().zip(&res.study.cells[1]).enumerate() {
        assert_cell_eq(cc, rc, &format!("is cell [{ci}]"));
    }
    assert_renders_finite(&res.study);
}

// ---------------------------------------------------------------------------
// Journal corruption and resume.
// ---------------------------------------------------------------------------

#[test]
fn truncated_journal_tail_is_detected_and_recomputed() {
    let opts = quick2();
    let path = tmp("truncated.jsonl");
    let ropts = ResilienceOptions::default().with_journal(&path);
    let first = sweep_single_program(&opts, &TraceStore::new(), &ropts).unwrap();
    assert!(first.resilience.is_clean());

    // Chop into the last record, as a kill mid-append would.
    faultinject::truncate_tail(&path, 17).unwrap();
    let second = sweep_single_program(&opts, &TraceStore::new(), &ropts).unwrap();
    let total = opts.benchmarks.len() * second.study.configs.len();
    assert_eq!(second.resilience.corrupt_records, 1);
    assert_eq!(second.resilience.resumed_cells, total - 1);
    assert_eq!(
        report_bytes(&first.study),
        report_bytes(&second.study),
        "resumed report must be byte-identical"
    );
}

#[test]
fn bit_flipped_journal_record_fails_crc_and_is_recomputed() {
    let opts = quick2();
    let path = tmp("bitflip.jsonl");
    let ropts = ResilienceOptions::default().with_journal(&path);
    let first = sweep_single_program(&opts, &TraceStore::new(), &ropts).unwrap();
    assert!(first.resilience.is_clean());

    let len = std::fs::metadata(&path).unwrap().len();
    faultinject::flip_bit(&path, len / 2).unwrap();
    let second = sweep_single_program(&opts, &TraceStore::new(), &ropts).unwrap();
    let total = opts.benchmarks.len() * second.study.configs.len();
    assert!(second.resilience.corrupt_records >= 1);
    assert!(second.resilience.resumed_cells < total);
    assert!(second.resilience.resumed_cells > 0);
    assert_eq!(
        report_bytes(&first.study),
        report_bytes(&second.study),
        "a CRC-rejected record must be recomputed, not trusted"
    );
}

// ---------------------------------------------------------------------------
// Drift sentinel.
// ---------------------------------------------------------------------------

#[test]
fn injected_engine_drift_is_quarantined_and_repaired_bit_identically() {
    let opts = quick2();
    let clean = clean_single(&opts);
    let ropts = ResilienceOptions::default().with_sampling(1);
    let res = resilient(&opts, &plan("drift:ep"), ropts);
    let r = &res.resilience;
    assert!(!r.is_clean());
    assert_eq!(r.quarantined, vec!["ep".to_string()]);
    assert!(!r.drift_events.is_empty());
    assert!(r.sentinel_checks > 0);
    // The repair pass re-ran every ep cell on the reference engine.
    assert_eq!(r.repaired_cells, res.study.configs.len());
    assert!(r.failed_cells.is_empty(), "drift is repaired, not failed");
    // A drifting fast path must not leak a single wrong number: the study
    // is bit-identical to the clean run (fast == reference when healthy).
    assert_study_eq(&clean, &res.study);
    let txt = resilience_text(r);
    assert!(txt.contains("drift"), "{txt}");
    assert!(txt.contains("ep"), "{txt}");
}

// ---------------------------------------------------------------------------
// The pair studies: resume and repair.
// ---------------------------------------------------------------------------

/// One pair-study run: its Figure 4 or 5 text and JSON, what the
/// resilience layer did, and how many cells it journals when all succeed.
struct PairRun {
    report: String,
    resilience: Resilience,
    records: usize,
}

type PairStudy = fn(&StudyOptions, &TraceStore, &ResilienceOptions) -> PairRun;

fn multi_run(opts: &StudyOptions, store: &TraceStore, ropts: &ResilienceOptions) -> PairRun {
    let w = paper_workloads();
    let r = sweep_multi_program(opts, store, &w, ropts).unwrap();
    let json = multi_to_json(&r.study).unwrap();
    PairRun {
        report: format!(
            "{}{}",
            fig4_text(&r.study),
            serde_json::to_string(&json).unwrap()
        ),
        resilience: r.resilience,
        // The cg and ft serial bases, then every workload on every config.
        records: 2 + w.len() * r.study.configs.len(),
    }
}

fn cross_run(opts: &StudyOptions, store: &TraceStore, ropts: &ResilienceOptions) -> PairRun {
    let r = sweep_cross_product(opts, store, ropts).unwrap();
    let json = cross_to_json(&r.study).unwrap();
    let pairs = all_pairs(&opts.benchmarks).len();
    PairRun {
        report: format!(
            "{}{}",
            fig5_text(&r.study),
            serde_json::to_string(&json).unwrap()
        ),
        resilience: r.resilience,
        records: opts.benchmarks.len() + pairs * r.study.configs.len(),
    }
}

const PAIR_STUDIES: [(&str, PairStudy); 2] = [("multi", multi_run), ("cross", cross_run)];

/// Both pair studies' kernels: the paper's CG and FT.
fn pair_opts() -> StudyOptions {
    StudyOptions::quick().with_benchmarks(vec![KernelId::Cg, KernelId::Ft])
}

#[test]
fn a_pair_study_resumes_from_a_truncated_journal_byte_identically() {
    let opts = pair_opts();
    for (name, run) in PAIR_STUDIES {
        let path = tmp(&format!("pair_truncated_{name}.jsonl"));
        let ropts = ResilienceOptions::default().with_journal(&path);
        let first = run(&opts, &TraceStore::new(), &ropts);
        assert!(
            first.resilience.is_clean(),
            "{name}: {:?}",
            first.resilience
        );

        faultinject::truncate_tail(&path, 17).unwrap();
        let second = run(&opts, &TraceStore::new(), &ropts);
        assert_eq!(second.resilience.corrupt_records, 1, "{name}");
        assert_eq!(second.resilience.resumed_cells, first.records - 1, "{name}");
        assert_eq!(
            first.report, second.report,
            "{name}: resumed report differs"
        );
    }
}

#[test]
fn pair_study_drift_is_repaired_bit_identically() {
    let opts = pair_opts();
    for (name, run) in PAIR_STUDIES {
        let clean = run(&opts, &TraceStore::new(), &ResilienceOptions::none());
        let mut ropts = ResilienceOptions::default().with_sampling(1);
        ropts.policy.faults = plan("drift:cg");
        let res = run(&opts, &TraceStore::new(), &ropts);
        let r = &res.resilience;
        assert_eq!(r.quarantined, vec!["cg".to_string()], "{name}");
        assert!(!r.drift_events.is_empty(), "{name}");
        assert!(
            r.failed_cells.is_empty(),
            "{name}: drift is repaired, not failed"
        );
        assert!(r.repaired_cells > 1, "{name}: the cg base and its pairs");
        assert_eq!(clean.report, res.report, "{name}: a drifted number leaked");
    }
}

// ---------------------------------------------------------------------------
// Watchdog.
// ---------------------------------------------------------------------------

#[test]
fn watchdog_flags_a_runaway_cell_and_the_sweep_completes() {
    let opts = quick2();
    let ropts = ResilienceOptions::default()
        .with_sampling(0)
        .with_policy(CellPolicy {
            max_retries: 0,
            backoff: Duration::from_millis(1),
            deadline: Some(Duration::from_millis(500)),
            ..CellPolicy::default()
        });
    // Serial-sweep item 1 (the is baseline) stalls well past the deadline,
    // once.
    let res = resilient(&opts, &plan("cell-slow:1:2000:1"), ropts);
    let r = &res.resilience;
    assert_eq!(r.timeouts, 1, "{r:?}");
    // Baseline lost → the whole is row reports failed cells.
    assert_eq!(
        r.failed_cells.len(),
        res.study.configs.len(),
        "{:?}",
        r.failed_cells
    );
    assert!(r
        .failed_cells
        .iter()
        .all(|f| f.key.starts_with("single|is|")));
    assert!(
        r.failed_cells.iter().any(|f| f.error.contains("deadline")),
        "{:?}",
        r.failed_cells
    );
    assert_eq!(res.study.cells.len(), 2, "sweep completed around the stall");
    assert_renders_finite(&res.study);
}

// ---------------------------------------------------------------------------
// A plan spent across runs.
// ---------------------------------------------------------------------------

/// Both faults are single-use, so a resilient study must absorb them
/// (retry the cell, rebuild the trace) and still come out clean — and a
/// second run under the same plan, its budgets spent, must reproduce it
/// bit-identically.
#[test]
fn env_fault_plan_is_absorbed_cleanly() {
    let opts = quick2();
    let faults = plan("cell-panic:1:1,build-panic:ep:1");
    let first = resilient(&opts, &faults, Default::default());
    assert!(first.resilience.is_clean(), "{:?}", first.resilience);
    assert!(first.resilience.retries >= 1, "the cell fault fired");
    let second = resilient(&opts, &faults, Default::default());
    assert!(second.resilience.is_clean(), "{:?}", second.resilience);
    assert_eq!(second.resilience.retries, 0, "budgets spent");
    assert_study_eq(&first.study, &second.study);
    assert_eq!(report_bytes(&first.study), report_bytes(&second.study));
}

// ---------------------------------------------------------------------------
// Crashes: this test binary re-executed as a child, SIGKILLed by its parent.
// ---------------------------------------------------------------------------

/// Names a re-executed child's job; read by this file alone.
const CHILD_JOB: &str = "PAXSIM_TEST_CHILD_JOB";

/// Runs the job `CHILD_JOB` names; returns at once in a normal test run.
#[test]
fn crash_child() {
    let Ok(job) = std::env::var(CHILD_JOB) else {
        return;
    };
    match job.split_once(':') {
        // A cell past the kill point sleeps for ten minutes, so the study
        // cannot finish before its parent kills it.
        Some(("study", path)) => drop(paper_study(Path::new(path), &plan("cell-slow:40:600000:1"))),
        Some(("journal", path)) => {
            let journal = Journal::open(Path::new(path)).expect("open journal for writing");
            for i in 0.. {
                journal
                    .record(&format!("k{i}"), torture_sides(i))
                    .expect("append");
            }
        }
        None if job == "faults" => drop(Faults::from_env_or_exit("crash_child")),
        _ => panic!("unknown child job {job}"),
    }
}

/// This binary running `crash_child` alone on `job` under the fault plan
/// `faults`, killed and reaped on drop.
struct Child(std::process::Child);

impl Child {
    fn spawn(job: String, faults: &str) -> Child {
        let child = Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "crash_child", "--nocapture"])
            .env(CHILD_JOB, job)
            .env("PAXSIM_FAULTS", faults)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("re-execute the test binary");
        Child(child)
    }

    /// SIGKILL once `path` holds `lines` complete lines.
    fn kill_at(mut self, path: &Path, lines: usize) {
        let complete =
            || std::fs::read(path).map_or(0, |b| b.iter().filter(|&&c| c == b'\n').count());
        while complete() < lines {
            assert!(
                self.0.try_wait().unwrap().is_none(),
                "the child exited before the kill"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        self.0.kill().unwrap();
    }

    /// The exit code and stderr of a child that exits by itself.
    fn exit(mut self) -> (Option<i32>, String) {
        let mut err = String::new();
        self.0
            .stderr
            .take()
            .unwrap()
            .read_to_string(&mut err)
            .unwrap();
        (self.0.wait().unwrap().code(), err)
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The `resilient_study` example's study: §4.1 and §4.2 at class T, with
/// a journal at `path` and `faults` in the store and the policy. Returns
/// the report (text, then JSON), the resumed cells and the cells in all.
fn paper_study(path: &Path, faults: &Faults) -> (String, usize, usize) {
    let opts = StudyOptions::paper(Class::T);
    let mut ropts = ResilienceOptions::default().with_journal(path);
    ropts.policy.faults = faults.clone();
    let store = TraceStore::with_faults(faults.clone());
    let w = paper_workloads();
    let single = sweep_single_program(&opts, &store, &ropts).unwrap();
    let multi = sweep_multi_program(&opts, &store, &w, &ropts).unwrap();
    let (s, m) = (&single.study, &multi.study);
    let report = format!(
        "{}{}{}{}{}{}\n{}\n",
        fig2_text(s),
        fig3_text(s),
        table2_text(s),
        headlines_text(&headlines(s)),
        fig4_text(m),
        serde_json::to_string(&single_to_json(s).unwrap()).unwrap(),
        serde_json::to_string(&multi_to_json(m).unwrap()).unwrap(),
    );
    let resumed = single.resilience.resumed_cells + multi.resilience.resumed_cells;
    let cells = opts.benchmarks.len() * s.configs.len() + 2 + w.len() * m.configs.len();
    (report, resumed, cells)
}

/// A study SIGKILLed with 40 of its 71 cells journaled resumes, fault
/// free, to the uninterrupted run's report byte for byte, serving what
/// the journal holds and computing the rest.
#[test]
fn a_sigkilled_study_resumes_byte_identically() {
    const KILLED_AT: usize = 40;
    let path = tmp("sigkilled.jsonl");
    let child = Child::spawn(format!("study:{}", path.display()), "");
    let (clean, _, cells) = paper_study(&tmp("uninterrupted.jsonl"), &Faults::default());
    child.kill_at(&path, KILLED_AT);
    let (resumed, served, _) = paper_study(&path, &Faults::default());
    assert!(served >= KILLED_AT - 1, "resumed only {served} cells");
    assert!(served < cells, "the kill came after the study finished");
    assert_eq!(resumed, clean, "the resumed report differs");
}

fn torture_sides(i: u64) -> Vec<SideRecord> {
    let cell = Cell {
        cycles: Summary::of(&[100.0 + i as f64]),
        speedup: Summary::of(&[1.5]),
        counters: Counters {
            instructions: 1_000 + i,
            ..Counters::default()
        },
    };
    vec![SideRecord::of("ep", &cell)]
}

/// A writer appending as fast as it can, SIGKILLed mid-append: at most the
/// in-flight record is torn, and the survivors are the contiguous prefix
/// k0..k(n-1), bit-exact.
#[test]
fn a_journal_sigkilled_mid_append_keeps_a_lossless_prefix() {
    let path = tmp("torture.jsonl");
    Child::spawn(format!("journal:{}", path.display()), "").kill_at(&path, 1);
    let journal = Journal::open(&path).expect("reopen after the kill");
    let n = journal.len() as u64;
    assert!(n > 0, "the writer must have landed a record");
    assert!(
        journal.corrupt_records() <= 1,
        "{} torn",
        journal.corrupt_records()
    );
    for i in 0..n {
        let rec = journal
            .lookup(&format!("k{i}"))
            .unwrap_or_else(|| panic!("hole in the prefix: k{i} missing of {n}"));
        assert_eq!(rec.sides[0].counters.instructions, 1_000 + i, "k{i}");
    }
}

/// `Faults::from_env_or_exit` refuses a malformed plan: exit 2, naming it.
#[test]
fn a_malformed_fault_plan_exits_2_naming_the_fault() {
    let (code, err) = Child::spawn("faults".into(), "explode:now").exit();
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("explode:now"), "{err}");
}
