//! Paper regeneration with checkpoint/resume.
//!
//! ```sh
//! cargo run --release --example resilient_study -- /tmp/study.jsonl /tmp/study.report
//! ```
//!
//! Runs the §4.1 and §4.2 sweeps with a journal at the given path and
//! writes the report to the given file. Kill it mid-sweep and run it
//! again: journaled cells resume (a torn last record fails its CRC and
//! is recomputed) and the report is byte-identical to an uninterrupted
//! run's, as `resilience.rs` checks.
//!
//! The resilience summary (resumed cells, corrupt records, retries,
//! drift events) goes to stdout only; the report file holds nothing but
//! study results, so two runs of the same study always compare equal.
//!
//! Set `PAXSIM_FAULTS` (see `paxsim_core::faultinject`) to watch the
//! recovery paths fire on a real sweep; a malformed plan exits 2.

use paxsim_core::faultinject::Faults;
use paxsim_core::prelude::*;
use paxsim_core::report::{multi_to_json, single_to_json};
use paxsim_nas::Class;

fn main() {
    let faults = Faults::from_env_or_exit("resilient_study");
    let mut args = std::env::args().skip(1);
    let (Some(journal), Some(report)) = (args.next(), args.next()) else {
        eprintln!("usage: resilient_study <journal-path> <report-path>");
        std::process::exit(2);
    };

    let opts = StudyOptions::paper(Class::T);
    let store = TraceStore::with_faults(faults.clone());
    let mut ropts = ResilienceOptions::default().with_journal(&journal);
    ropts.policy.faults = faults;

    let single = sweep_single_program(&opts, &store, &ropts)
        .unwrap_or_else(|e| panic!("single-program study: {e}"));
    let multi = sweep_multi_program(&opts, &store, &paper_workloads(), &ropts)
        .unwrap_or_else(|e| panic!("multi-program study: {e}"));

    let mut out = String::new();
    out.push_str(&fig2_text(&single.study));
    out.push_str(&fig3_text(&single.study));
    out.push_str(&table2_text(&single.study));
    out.push_str(&headlines_text(&headlines(&single.study)));
    out.push_str(&fig4_text(&multi.study));
    let single_json =
        single_to_json(&single.study).unwrap_or_else(|e| panic!("single-program report: {e}"));
    let multi_json =
        multi_to_json(&multi.study).unwrap_or_else(|e| panic!("multi-program report: {e}"));
    out.push_str(&serde_json::to_string(&single_json).expect("single json"));
    out.push('\n');
    out.push_str(&serde_json::to_string(&multi_json).expect("multi json"));
    out.push('\n');
    if let Err(e) = std::fs::write(&report, &out) {
        panic!("writing report to {report}: {e}");
    }

    println!("report: {report} ({} bytes)", out.len());
    println!("{}", resilience_text(&single.resilience));
    println!("{}", resilience_text(&multi.resilience));
    if !single.resilience.is_clean() || !multi.resilience.is_clean() {
        // Degraded but complete: poisoned cells are visible above.
        std::process::exit(1);
    }
}
