//! One booking per count: a count `op=stats` reads and the `op=metrics`
//! series beside it move together, on the paths where the two once
//! drifted apart. Series are process-wide, so this binary holds only
//! tests that pin their exact deltas, one at a time.

use std::sync::{Mutex, MutexGuard};

use paxsim_core::faultinject::Faults;
use paxsim_serve::{ServeConfig, Service};

fn series_lock() -> MutexGuard<'static, ()> {
    static SERIES: Mutex<()> = Mutex::new(());
    SERIES.lock().unwrap_or_else(|e| e.into_inner())
}

fn open(name: &str, faults: &str, batch_window_ms: u64) -> Service {
    let dir = std::env::temp_dir().join("paxsim_serve_booking").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    Service::open(ServeConfig {
        cache_dir: dir,
        batch_window_ms,
        faults: Faults::parse(faults).unwrap(),
        ..ServeConfig::default()
    })
    .unwrap()
}

fn series(name: &str) -> u64 {
    paxsim_obs::counter(name).get()
}

fn stat(s: &Service, block: &str, key: &str) -> u64 {
    let stats = s.handle_line(r#"{"op":"stats"}"#);
    serde_json::parse(&stats).unwrap()[block][key]
        .as_u64()
        .unwrap_or_else(|| panic!("no {block}.{key} in {stats}"))
}

#[test]
fn a_poisoned_batch_books_its_solo_rerun_in_stats_and_metrics_alike() {
    // Regression: the batcher counted the solo re-run of a poisoned
    // batch, but `serve.batch.batches` and the `serve.batch.size`
    // histogram were booked only for a `Led` role, so `op=metrics`
    // missed every re-run `op=stats` reported.
    let _lock = series_lock();
    let s = open("batch_panic", "serve-batch-panic:1", 20);
    let sizes = || paxsim_obs::histogram("serve.batch.size").count();
    let batches = || {
        let stats = stat(&s, "batch", "batches");
        (stats, series("serve.batch.batches"), sizes())
    };
    let (before, poisoned) = (batches(), series("serve.batch.poisoned"));
    let r = s.handle_line(r#"{"op":"simulate","kernel":"ep","config":"CMP"}"#);
    assert!(r.contains("\"ok\":true"), "{r}");
    assert_eq!(s.batch_poisoned(), 1, "the leader fault poisons the batch");
    let after = batches();
    let moved = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
    assert_eq!(
        moved,
        (1, 1, 1),
        "the solo re-run is one batch in all three"
    );
    assert_eq!(series("serve.batch.poisoned") - poisoned, 1);
}

#[test]
fn an_audit_whose_reference_fails_is_booked_in_neither() {
    // Regression: `serve.predict.audits` moved before the audit fetched
    // its exact reference, the auditor's count only once it had one, so
    // an audit that stood down counted in `op=metrics` alone. The plan
    // panics cell 0 on all three of the pool's attempts: the first
    // audit's reference fails, and the second pair's audit runs clean.
    let _lock = series_lock();
    let s = open("audit_fails", "cell-panic:0:3", 0);
    let predicted = |config: &str| {
        let line = format!(
            r#"{{"op":"simulate","kernel":"ep","config":"{config}","fidelity":"predicted"}}"#
        );
        let r = s.handle_line(&line);
        assert!(r.contains("\"ok\":true"), "{r}");
    };
    let before = series("serve.predict.audits");
    predicted("CMP");
    assert_eq!(s.baseline_fetches(), 1, "the audit asked for its reference");
    let moved = || {
        let auditor = s.predict_auditor().audits() as u64;
        (auditor, series("serve.predict.audits") - before)
    };
    assert_eq!(moved(), (0, 0), "an audit that stood down");
    predicted("CMT");
    assert_eq!(moved(), (1, 1), "an audit that ran");
    assert_eq!(stat(&s, "predict", "audits"), 1);
}
