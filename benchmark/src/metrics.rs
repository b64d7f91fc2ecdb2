//! The metric registry (the Rust mirror of `BENCHMARK.json`), the sample
//! statistics every workload reports with, and the result line.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric. `bound` is the share of the parent's median an
/// end-to-end metric may worsen by; per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of paxsim waits for or pays, defined on every workload
/// (WORKLOADS.md says what "work" and "wait" mean on each).
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.2),
    e2e("work_per_s", "1/s", Higher, 0.25),
    e2e("wait_ms", "ms", Lower, 0.25),
];

/// One entry per layer boundary the harness can time or count from
/// outside; names are module paths. A layer a workload does not exercise
/// reports 0.
pub const PER_LAYER: &[Def] = &[
    layer("nas.build_s", "s", Lower),
    layer("nas.build_ms_per_muop", "ms", Lower),
    layer("machine.trace.packed_mb", "MB", Lower),
    layer("machine.trace.unique_region_ratio", "ratio", Lower),
    layer("machine.engine.sim_s", "s", Lower),
    layer("machine.engine.ns_per_uop", "ns", Lower),
    layer("machine.engine.ns_per_uop.serial", "ns", Lower),
    layer("machine.engine.ns_per_uop.smt8", "ns", Lower),
    layer("machine.engine.ns_per_event", "ns", Lower),
    layer("machine.engine.muops_per_s.ep", "Muops/s", Higher),
    layer("machine.engine.muops_per_s.is", "Muops/s", Higher),
    layer("machine.engine.muops_per_s.cg", "Muops/s", Higher),
    layer("machine.engine.muops_per_s.mg", "Muops/s", Higher),
    layer("machine.engine.muops_per_s.ft", "Muops/s", Higher),
    layer("machine.engine.muops_per_s.bt", "Muops/s", Higher),
    layer("machine.engine.muops_per_s.sp", "Muops/s", Higher),
    layer("machine.engine.muops_per_s.lu", "Muops/s", Higher),
    layer("machine.engine.sim_uops", "count", Higher),
    layer("machine.engine.sim_cycles", "count", Lower),
    layer("machine.engine.events_scheduled", "count", Lower),
    layer("machine.engine.cycles_skipped", "count", Higher),
    layer("machine.engine.fingerprint_mismatches", "count", Lower),
    layer("machine.memo.probes", "count", Higher),
    layer("machine.memo.hits", "count", Higher),
    layer("machine.memo.hit_ratio", "ratio", Higher),
    layer("machine.memo.fill_s", "s", Lower),
    layer("machine.memo.replay_s", "s", Lower),
    layer("machine.memo.fill_over_jittered", "ratio", Lower),
    layer("machine.memo.replay_over_jittered", "ratio", Lower),
    layer("machine.memo.rss_growth_mb", "MB", Lower),
    layer("perfmon.summarize_us", "us", Lower),
    layer("core.store.builds", "count", Lower),
    layer("core.pool.busy_ratio", "ratio", Higher),
    layer("core.driver.self_s", "s", Lower),
    layer("core.report.render_ms", "ms", Lower),
    layer("core.hash.resolve_ns", "ns", Lower),
    layer("core.hash.content_hash_ns", "ns", Lower),
    layer("core.tune.search_ms", "ms", Lower),
    layer("core.tune.cells_scored", "count", Lower),
    layer("serve.frame.ns_per_line", "ns", Lower),
    layer("serve.protocol.parse_ns", "ns", Lower),
    layer("serve.protocol.render_ns", "ns", Lower),
    layer("serve.protocol.reply_bytes", "B", Lower),
    layer("serve.cache.probe_ns", "ns", Lower),
    layer("serve.cache.put_us", "us", Lower),
    layer("serve.cache.hit_ratio", "ratio", Higher),
    layer("serve.cache.mem_hits", "count", Higher),
    layer("serve.cache.disk_hits", "count", Lower),
    layer("serve.cache.misses", "count", Lower),
    layer("serve.cache.journal_bytes", "B", Lower),
    layer("serve.service.try_hit_ns", "ns", Lower),
    layer("serve.service.handle_line_hit_ns", "ns", Lower),
    layer("serve.service.hit_unattributed_ns", "ns", Lower),
    layer("serve.service.miss_inproc_ms", "ms", Lower),
    layer("serve.service.miss_hi_ms", "ms", Lower),
    layer("serve.service.computed", "count", Lower),
    layer("serve.service.baseline_fetches", "count", Lower),
    layer("serve.service.rejected", "count", Lower),
    layer("serve.service.conservation_ok", "bool", Higher),
    layer("serve.batch.batches", "count", Lower),
    layer("serve.batch.merged", "count", Higher),
    layer("serve.server.wire_overhead_us", "us", Lower),
    layer("serve.server.hit_rps_1conn", "1/s", Higher),
    layer("serve.server.hit_p95_us_1conn", "us", Lower),
    layer("serve.server.inline_hit_ratio", "ratio", Higher),
    layer("serve.server.mixed_hit_rps", "1/s", Higher),
    layer("serve.server.mixed_hit_p50_us", "us", Lower),
    layer("serve.server.mixed_hit_p99_us", "us", Lower),
    layer("predict.profile.extract_ms", "ms", Lower),
    layer("predict.model.eval_us", "us", Lower),
    layer("predict.fallback_ratio", "ratio", Lower),
    layer("predict.audits", "count", Higher),
    layer("predict.quarantined_pairs", "count", Lower),
    layer("predict.wall_err_p90", "ratio", Lower),
    layer("obs.overhead_ratio.engine", "ratio", Lower),
    layer("obs.overhead_ratio.serve", "ratio", Lower),
    layer("lmbench.calibrate_ms", "ms", Lower),
    layer("lmbench.calib_max_rel_err", "ratio", Lower),
    layer("bench.trace_overhead_ratio", "ratio", Lower),
    layer("bench.trace_coverage", "ratio", Higher),
    layer("bench.spans", "count", Lower),
];

/// The five workloads, in the order `all` runs them.
pub const WORKLOADS: &[&str] = &[
    "study_cold",
    "engine_jittered",
    "engine_quiet",
    "serve_hot",
    "serve_mixed",
];

/// The name each end-to-end metric went by in the issue that asked for
/// this benchmark, per workload (the driver's contract wants every
/// end-to-end metric on every workload, so the fifteen workload-specific
/// names became five shared ones).
pub fn issue_alias(workload: &str, metric: &str) -> Option<&'static str> {
    Some(match (workload, metric) {
        ("study_cold", "wait_ms") => "study_wall_s x 1e3",
        ("study_cold" | "engine_jittered" | "engine_quiet", "work_per_s") => {
            "sim_muops_per_s x 1e6"
        }
        ("serve_hot", "work_per_s") => "hit_rps",
        ("serve_hot", "wait_ms") => "hit_p50_us / 1e3",
        ("serve_mixed", "work_per_s") => "miss_rps, every kind of request at its fastest",
        ("serve_mixed", "wait_ms") => "miss_p50_ms, every pair at its fastest",
        _ => return None,
    })
}

fn def_of(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Measured values by declared name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `value` under a declared name.
    ///
    /// # Panics
    ///
    /// On a name neither table declares: that is a bug in the harness,
    /// and the self-tests keep the tables equal to `BENCHMARK.json`.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = def_of(name).unwrap_or_else(|| panic!("undeclared metric `{name}`"));
        self.0.insert(def.name, value);
    }

    /// A layer the workload never touched reads 0.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.keys().copied()
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Operations whose output was checked (engine runs, replies, study
    /// digests, golden values).
    pub attempted: u64,
    /// Of those, golden mismatches, non-`ok` replies and I/O failures.
    pub failed: u64,
    pub metrics: Metrics,
    /// Free-text lines for the human report (sample counts, percentile
    /// used, scale).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 8 {
                eprintln!("paxbench: FAILED {}", what());
            }
        }
    }

    /// The driver's result line: every metric of `table`, in table order.
    pub fn result_line(&self, table: &[Def]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|d| {
                format!(
                    r#""{}": {{"value": {:?}, "unit": "{}"}}"#,
                    d.name,
                    self.metrics.get(d.name),
                    d.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The human report: every measured metric with its unit, and for
    /// end-to-end metrics the bound and the issue's name for it.
    pub fn report(&self, workload: &str) -> String {
        let mut out = String::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            if !self.metrics.0.contains_key(d.name) {
                continue;
            }
            let v = self.metrics.get(d.name);
            out.push_str(&format!("  {:<42} {:>16.6} {:<8}", d.name, v, d.unit));
            if let Some(b) = d.bound {
                out.push_str(&format!(
                    " {} is better, bound {:.0} %",
                    d.better.word(),
                    b * 100.0
                ));
                if let Some(alias) = issue_alias(workload, d.name) {
                    out.push_str(&format!("  (= {alias})"));
                }
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "  {:<42} {:>16.6} {:<8} {} failed of {} checked\n",
            "error_rate",
            self.failed as f64 / self.attempted.max(1) as f64,
            "ratio",
            self.failed,
            self.attempted
        ));
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }
}

/// Nearest rank (1-based) of the `pct`-th percentile among `n` samples.
fn rank(pct: usize, n: usize) -> usize {
    (pct * n).div_ceil(100).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], pct: usize) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[rank(pct, n) - 1],
    }
}

/// The percentiles a timing may be reported at.
const LADDER: [usize; 5] = [50, 75, 90, 95, 99];

/// The highest ladder percentile that still has at least ten samples
/// beyond it — the one a timing's tail is reported at. With fewer than
/// twenty samples none has, and the slowest sample is reported.
pub fn hi_percentile(n: usize) -> usize {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&pct| n >= rank(pct, n) + 10)
        .unwrap_or(100)
}

/// Sort `samples` and return (median, value at [`hi_percentile`], that
/// percentile).
pub fn p50_and_hi(samples: &mut [f64]) -> (f64, f64, usize) {
    samples.sort_by(f64::total_cmp);
    let hi = hi_percentile(samples.len());
    (percentile(samples, 50), percentile(samples, hi), hi)
}

/// Interpolated median.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method the driver uses). Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hi_percentile_keeps_ten_samples_beyond() {
        for n in [
            0usize, 1, 2, 10, 19, 20, 32, 48, 100, 199, 200, 750, 1000, 100_000,
        ] {
            let pct = hi_percentile(n);
            assert!(
                pct == 100 || n - rank(pct, n) >= 10,
                "n={n}: p{pct} leaves {}",
                n - rank(pct, n)
            );
            // And the next rung up would not.
            if let Some(&next) = LADDER.iter().find(|&&q| q > pct) {
                assert!(n < rank(next, n) + 10, "n={n}: p{next} also qualifies");
            }
        }
        assert_eq!(hi_percentile(2), 100);
        assert_eq!(hi_percentile(19), 100);
        assert_eq!(hi_percentile(20), 50);
        assert_eq!(hi_percentile(32), 50);
        assert_eq!(hi_percentile(48), 75);
        assert_eq!(hi_percentile(199), 90);
        assert_eq!(hi_percentile(200), 95);
        assert_eq!(hi_percentile(750), 95);
        assert_eq!(hi_percentile(100_000), 99);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
        assert_eq!(percentile(&[], 50), 0.0);
        let mut s = [3.0, 1.0, 2.0];
        assert_eq!(p50_and_hi(&mut s), (2.0, 3.0, 100));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) -> [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
        // statistics.quantiles([3, 5], n=4) -> [2.5, 4.0, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), (2.5, 5.5));
        assert_eq!(median(&v), 5.5);
    }

    #[test]
    fn result_line_prints_every_declared_metric_and_zero_for_untouched_layers() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.metrics.set("setup_s", 0.5);
        let line = o.result_line(END_TO_END);
        let v = serde_json::parse(&line).expect("result line is JSON");
        assert_eq!(v["correct"].as_bool(), Some(true));
        assert_eq!(v["attempted"].as_u64(), Some(1));
        assert_eq!(v["metrics"]["setup_s"]["value"].as_f64(), Some(0.5));
        assert_eq!(v["metrics"]["wait_ms"]["unit"].as_str(), Some("ms"));
        let layers = serde_json::parse(&o.result_line(PER_LAYER)).unwrap();
        assert_eq!(
            layers["metrics"]["bench.spans"]["value"].as_f64(),
            Some(0.0)
        );
    }
}
