//! Runtime drift sentinel: a sampling cross-check of the fast engine
//! against the in-tree reference engine.
//!
//! The fast engine (way-prediction filters, event-driven scheduling,
//! region memoization) is *proven* bit-identical to the reference engine
//! by the differential test suite — but that proof runs in CI, not in a
//! week-long study. The sentinel enforces it at runtime: a configurable
//! fraction of cells is re-run on [`simulate_reference`], and on the
//! first counter or cycle mismatch the offending kernel's region class is
//! *quarantined* — every subsequent (and, via the drivers' repair pass,
//! every already-computed) cell of that kernel transparently falls back
//! to the reference engine, and the event lands in the study report.
//!
//! Exactness argument: both engines are deterministic, so a fast-path
//! defect is systematic in the cell key — if any cell of a kernel drifts,
//! it drifts every time that cell runs. The drivers' sampling policy
//! always checks each kernel's first cell and every `sample_every`-th
//! cell after that, so a kernel-wide defect is caught by the first sample
//! of that kernel; quarantine plus the repair pass then replaces *all* of
//! the kernel's cells with reference results, making the final report
//! bit-identical to an all-reference run. A defect confined to a single
//! (kernel, config) cell is caught with probability `1/sample_every`
//! (certainty at `sample_every = 1`) — the documented trade against
//! paying the reference engine's cost on every cell.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use paxsim_machine::config::MachineConfig;
use paxsim_machine::sim::{simulate, simulate_reference, JobSpec, SimOutcome};
use paxsim_nas::KernelId;
use paxsim_obs::Tally;
use serde::Serialize;

use crate::faultinject::Faults;

/// One observed fast-vs-reference disagreement.
#[derive(Debug, Clone, Serialize)]
pub struct DriftEvent {
    pub kernel: String,
    pub config: String,
    pub detail: String,
}

/// Shared sentinel state for one study run.
#[derive(Default)]
pub struct DriftSentinel {
    quarantined: Mutex<BTreeSet<String>>,
    events: Mutex<Vec<DriftEvent>>,
    checks: AtomicUsize,
    fallbacks: AtomicUsize,
    faults: Faults,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl DriftSentinel {
    pub fn new() -> Self {
        Self::default()
    }

    /// A sentinel whose fast results `faults`' `drift` perturbs.
    pub fn with_faults(faults: Faults) -> Self {
        Self {
            faults,
            ..Self::default()
        }
    }

    /// Is this kernel's fast path quarantined?
    pub fn is_quarantined(&self, kernel: KernelId) -> bool {
        lock(&self.quarantined).contains(kernel.name())
    }

    /// Quarantined kernel names, sorted.
    pub fn quarantined(&self) -> Vec<String> {
        lock(&self.quarantined).iter().cloned().collect()
    }

    /// Drift events observed so far.
    pub fn events(&self) -> Vec<DriftEvent> {
        lock(&self.events).clone()
    }

    /// Cross-checks performed.
    pub fn checks(&self) -> usize {
        self.checks.load(Ordering::Relaxed)
    }

    /// Simulate calls answered by the reference engine because of a
    /// quarantine (excludes the cross-check runs themselves).
    pub fn fallbacks(&self) -> usize {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// Run `jobs`, cross-checking against the reference engine when
    /// `check` is set.
    ///
    /// * Quarantined kernel present → reference engine, unconditionally.
    /// * Otherwise the fast engine runs; with `check`, so does the
    ///   reference engine, and any mismatch records a [`DriftEvent`],
    ///   quarantines every kernel in the cell, and returns the
    ///   *reference* outcome — a checked cell is always trustworthy.
    ///
    /// Fault injection: a `drift:<kernel>` fault perturbs the
    /// fast outcome here (modeling a fast-path defect); the perturbation
    /// never touches the reference path, so the sentinel sees exactly
    /// what a real defect would produce.
    pub fn simulate_checked(
        &self,
        kernels: &[KernelId],
        config_name: &str,
        check: bool,
        cfg: &MachineConfig,
        jobs: Vec<JobSpec>,
    ) -> SimOutcome {
        if kernels.iter().any(|&k| self.is_quarantined(k)) {
            self.fallbacks.fetch_add(1, Ordering::Relaxed);
            return simulate_reference(cfg, jobs);
        }
        // Only a checked cell pays for cloning the job specs.
        let checked_jobs = check.then(|| jobs.clone());
        let mut fast = simulate(cfg, jobs);
        for &k in kernels {
            if self.faults.drift(k) {
                // Model a miscounting fast path: one phantom L1 miss.
                fast.jobs[0].counters.l1d_miss += 1;
                fast.total.l1d_miss += 1;
            }
        }
        let Some(jobs) = checked_jobs else {
            return fast;
        };
        self.checks.fetch_add(1, Ordering::Relaxed);
        let reference = simulate_reference(cfg, jobs);
        if let Some(detail) = first_difference(&fast, &reference) {
            let mut q = lock(&self.quarantined);
            for &k in kernels {
                q.insert(k.name().to_string());
            }
            drop(q);
            for &k in kernels {
                lock(&self.events).push(DriftEvent {
                    kernel: k.name().to_string(),
                    config: config_name.to_string(),
                    detail: detail.clone(),
                });
            }
            return reference;
        }
        fast
    }
}

/// First observable difference between two outcomes, if any.
fn first_difference(a: &SimOutcome, b: &SimOutcome) -> Option<String> {
    if a.wall_cycles != b.wall_cycles {
        return Some(format!(
            "wall cycles {} (fast) vs {} (reference)",
            a.wall_cycles, b.wall_cycles
        ));
    }
    for (ji, (ja, jb)) in a.jobs.iter().zip(&b.jobs).enumerate() {
        if ja.cycles != jb.cycles {
            return Some(format!(
                "job {ji} cycles {} (fast) vs {} (reference)",
                ja.cycles, jb.cycles
            ));
        }
        if ja.counters != jb.counters {
            return Some(format!(
                "job {ji} counters diverge (fast instructions {}, l1d_miss {} \
                 vs reference instructions {}, l1d_miss {})",
                ja.counters.instructions,
                ja.counters.l1d_miss,
                jb.counters.instructions,
                jb.counters.l1d_miss
            ));
        }
    }
    None
}

/// The drivers' deterministic sampling policy: cell `linear` (row-major
/// over a kernel's configs, `cfg_i` within the row) is cross-checked iff
/// sampling is on (`sample_every > 0`) and this is the kernel's first
/// cell or a `sample_every`-th cell overall.
pub fn sampled(sample_every: usize, cfg_i: usize, linear: usize) -> bool {
    sample_every > 0 && (cfg_i == 0 || linear.is_multiple_of(sample_every))
}

// ---------------------------------------------------------------------------
// Prediction auditor: measured fidelity for the analytical tier.
// ---------------------------------------------------------------------------

/// One measured prediction-vs-engine error for one metric, against the
/// bound the prediction *declared*. `relative` and `bound` are
/// dimensionless (relative error for cycle-scale metrics, absolute
/// difference for rates — the caller picks, the auditor only compares).
#[derive(Debug, Clone, Copy)]
pub struct MetricError {
    pub metric: &'static str,
    pub relative: f64,
    pub bound: f64,
}

/// One audit that found a prediction outside its declared bound.
#[derive(Debug, Clone, Serialize)]
pub struct AuditEvent {
    pub kernel: String,
    pub config: String,
    pub metric: String,
    pub relative: f64,
    pub bound: f64,
}

/// Sentinel for the analytical prediction tier, mirroring
/// [`DriftSentinel`]'s quarantine discipline: a deterministic sample of
/// predicted answers is re-run on the cycle engine, the measured relative
/// error is published, and any (kernel, config-class) pair whose error
/// exceeds the bound its prediction declared is quarantined — every
/// later predicted-fidelity request for that pair silently falls back to
/// the exact engine.
///
/// The auditor is deliberately ignorant of *how* predictions are made:
/// it sees opaque pair keys and [`MetricError`]s, so the model can evolve
/// without touching the enforcement mechanism. Sampling is per pair and
/// deterministic — the **first** cold prediction of a pair is always
/// audited (a systematically miscalibrated pair is caught before a
/// second predicted answer ships), then every `sample_every`-th after
/// that (`0` audits only the first).
pub struct PredictAuditor {
    sample_every: usize,
    /// Cold predicted computations seen, per pair key.
    served: Mutex<std::collections::BTreeMap<u64, u64>>,
    quarantined: Mutex<BTreeSet<u64>>,
    events: Mutex<Vec<AuditEvent>>,
    /// Measured relative wall-clock errors, for the `predict_error_p95`
    /// gauge.
    wall_errors: Mutex<Vec<f64>>,
    audits: Tally,
    fallbacks: Tally,
}

impl PredictAuditor {
    pub fn new(sample_every: usize) -> Self {
        Self {
            sample_every,
            served: Mutex::default(),
            quarantined: Mutex::default(),
            events: Mutex::default(),
            wall_errors: Mutex::default(),
            audits: Tally::new("serve.predict.audits"),
            fallbacks: Tally::new("serve.predict.fallbacks"),
        }
    }

    /// The opaque audit key of a (kernel, config, class) triple.
    pub fn pair_key(kernel: &str, config: &str, class: &str) -> u64 {
        crate::hash::fnv1a(format!("{kernel}|{config}|{class}").as_bytes())
    }

    /// Is this pair's predictor quarantined (predictions must fall back
    /// to the exact engine)?
    pub fn is_quarantined(&self, pair: u64) -> bool {
        lock(&self.quarantined).contains(&pair)
    }

    /// Record one cold predicted computation of `pair` and decide whether
    /// it must be audited: always the pair's first, then every
    /// `sample_every`-th.
    pub fn should_audit(&self, pair: u64) -> bool {
        let mut served = lock(&self.served);
        let n = served.entry(pair).or_insert(0);
        let audit =
            *n == 0 || (self.sample_every > 0 && n.is_multiple_of(self.sample_every as u64));
        *n += 1;
        audit
    }

    /// Record one completed audit. Any metric beyond its declared bound
    /// quarantines the pair and logs an [`AuditEvent`] per exceeded
    /// metric; returns whether the prediction held its bounds.
    pub fn record(&self, pair: u64, kernel: &str, config: &str, errors: &[MetricError]) -> bool {
        self.audits.inc();
        if let Some(wall) = errors.iter().find(|e| e.metric == "wall") {
            lock(&self.wall_errors).push(wall.relative);
        }
        let exceeded: Vec<&MetricError> = errors.iter().filter(|e| e.relative > e.bound).collect();
        if exceeded.is_empty() {
            return true;
        }
        lock(&self.quarantined).insert(pair);
        let mut events = lock(&self.events);
        for e in exceeded {
            events.push(AuditEvent {
                kernel: kernel.to_string(),
                config: config.to_string(),
                metric: e.metric.to_string(),
                relative: e.relative,
                bound: e.bound,
            });
        }
        false
    }

    /// Count one predicted-fidelity request served by the exact engine
    /// because its pair is quarantined.
    pub fn record_fallback(&self) {
        self.fallbacks.inc();
    }

    /// Audits performed.
    pub fn audits(&self) -> usize {
        self.audits.get() as usize
    }

    /// Predicted requests served exact because of a quarantine.
    pub fn fallbacks(&self) -> usize {
        self.fallbacks.get() as usize
    }

    /// Quarantined pairs right now.
    pub fn quarantined_pairs(&self) -> usize {
        lock(&self.quarantined).len()
    }

    /// Out-of-bound audit events observed so far.
    pub fn events(&self) -> Vec<AuditEvent> {
        lock(&self.events).clone()
    }

    /// p95 of the measured relative wall-clock errors (`None` before the
    /// first audit).
    pub fn error_p95(&self) -> Option<f64> {
        let mut errs = lock(&self.wall_errors).clone();
        if errs.is_empty() {
            return None;
        }
        errs.sort_by(|a, b| a.partial_cmp(b).expect("audit errors are finite"));
        let idx = ((errs.len() as f64) * 0.95).ceil() as usize;
        Some(errs[idx.saturating_sub(1).min(errs.len() - 1)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxsim_machine::topology::Lcpu;
    use paxsim_machine::trace::{ProgramTrace, TraceBuf};
    use std::sync::Arc;

    fn job() -> (MachineConfig, Vec<JobSpec>) {
        let mut b = TraceBuf::new();
        for i in 0..256u64 {
            b.block(1, 2);
            b.load(0x10_0000 + i * 64);
            b.branch(1, i != 255);
        }
        let p = Arc::new(ProgramTrace::single_region("s", vec![b]));
        (
            MachineConfig::paxville_smp(),
            vec![JobSpec::pinned(p, vec![Lcpu::A0])],
        )
    }

    #[test]
    fn clean_check_passes_and_counts() {
        let s = DriftSentinel::new();
        let (cfg, jobs) = job();
        let out = s.simulate_checked(&[KernelId::Ep], "CMT", true, &cfg, jobs);
        assert!(out.wall_cycles > 0);
        assert_eq!(s.checks(), 1);
        assert!(s.events().is_empty());
        assert!(s.quarantined().is_empty());
    }

    #[test]
    fn injected_drift_quarantines_and_returns_reference() {
        let s = DriftSentinel::with_faults(Faults::parse("drift:ep").unwrap());
        let (cfg, jobs) = job();
        let clean = simulate_reference(&cfg, jobs.clone());
        let out = s.simulate_checked(&[KernelId::Ep], "CMT", true, &cfg, jobs.clone());
        // The drifted fast result was discarded for the reference one.
        assert_eq!(out.jobs[0].counters, clean.jobs[0].counters);
        assert!(s.is_quarantined(KernelId::Ep));
        assert_eq!(s.events().len(), 1);
        assert!(
            s.events()[0].detail.contains("counters"),
            "{:?}",
            s.events()
        );
        // Quarantined: the next call never touches the fast path, so
        // the (still-active) drift fault cannot perturb it.
        let out2 = s.simulate_checked(&[KernelId::Ep], "CMT", false, &cfg, jobs);
        assert_eq!(out2.jobs[0].counters, clean.jobs[0].counters);
        assert_eq!(s.fallbacks(), 1);
    }

    #[test]
    fn unchecked_unquarantined_uses_fast_path() {
        let s = DriftSentinel::new();
        let (cfg, jobs) = job();
        let out = s.simulate_checked(&[KernelId::Ep], "CMT", false, &cfg, jobs);
        assert!(out.wall_cycles > 0);
        assert_eq!(s.checks(), 0);
        assert_eq!(s.fallbacks(), 0);
    }

    #[test]
    fn auditor_samples_first_then_every_nth() {
        let a = PredictAuditor::new(4);
        let pair = PredictAuditor::pair_key("cg", "CMP", "T");
        assert!(a.should_audit(pair), "first prediction always audited");
        assert!(!a.should_audit(pair));
        assert!(!a.should_audit(pair));
        assert!(!a.should_audit(pair));
        assert!(a.should_audit(pair), "every 4th after that");
        // A different pair starts its own sequence.
        let other = PredictAuditor::pair_key("ep", "CMP", "T");
        assert_ne!(pair, other);
        assert!(a.should_audit(other));
        // sample_every = 0: first only.
        let once = PredictAuditor::new(0);
        assert!(once.should_audit(pair));
        for _ in 0..16 {
            assert!(!once.should_audit(pair));
        }
    }

    #[test]
    fn auditor_quarantines_out_of_bound_pairs() {
        let a = PredictAuditor::new(1);
        let pair = PredictAuditor::pair_key("mg", "Serial", "T");
        let ok = a.record(
            pair,
            "mg",
            "Serial",
            &[MetricError {
                metric: "wall",
                relative: 0.10,
                bound: 0.25,
            }],
        );
        assert!(ok);
        assert!(!a.is_quarantined(pair));
        assert_eq!(a.audits(), 1);
        assert_eq!(a.error_p95(), Some(0.10));
        let ok = a.record(
            pair,
            "mg",
            "Serial",
            &[
                MetricError {
                    metric: "wall",
                    relative: 0.60,
                    bound: 0.25,
                },
                MetricError {
                    metric: "l1d_miss_rate",
                    relative: 0.01,
                    bound: 0.10,
                },
            ],
        );
        assert!(!ok, "wall beyond its bound must fail the audit");
        assert!(a.is_quarantined(pair));
        assert_eq!(a.quarantined_pairs(), 1);
        let events = a.events();
        assert_eq!(events.len(), 1, "only the exceeded metric is an event");
        assert_eq!(events[0].metric, "wall");
        assert_eq!(a.error_p95(), Some(0.60));
        a.record_fallback();
        assert_eq!(a.fallbacks(), 1);
    }

    #[test]
    fn sampling_policy_covers_every_kernel() {
        // First cell of each row always sampled; plus every k-th cell.
        assert!(sampled(8, 0, 0));
        assert!(sampled(8, 0, 24), "row start is sampled regardless of k");
        assert!(sampled(8, 2, 16));
        assert!(!sampled(8, 3, 17));
        assert!(!sampled(0, 0, 0), "0 disables the sentinel");
        for linear in 0..64 {
            assert!(sampled(1, linear % 8, linear), "1 checks every cell");
        }
    }
}
