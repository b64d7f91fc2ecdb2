//! The lock-light metrics registry.
//!
//! Three instrument kinds: monotonic [`Counter`]s, last-value [`Gauge`]s,
//! and exponential-bucket [`Histogram`]s. Instruments are interned by
//! `(name, labels)` in a global registry; the handle returned by
//! [`counter`] / [`gauge`] / [`histogram`] is `&'static`, so hot paths
//! pay the registry mutex once at first use and plain relaxed atomics
//! after that. [`LazyCounter`] / [`LazyHistogram`] wrap that pattern in a
//! `static`-friendly cell for call sites that fire often; a [`Tally`] is a
//! count its owner reads back, with its series beside it.
//!
//! [`snapshot`] captures every registered instrument into a [`Snapshot`]
//! that renders to a JSON value tree or Prometheus text exposition.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use serde::Value;

/// A monotonic counter. Increments are relaxed atomic adds, dropped
/// entirely while the layer is disabled.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value gauge holding an `f64` (stored as bits).
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn set(&self, v: f64) {
        if crate::enabled() {
            self.0.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of finite histogram buckets (plus an implicit +Inf overflow).
pub const HIST_BUCKETS: usize = 16;

/// Bucket upper bounds in seconds: 1 µs × 4^i — spanning ~1 µs to ~18 min
/// in sixteen exponential steps, which covers everything from a single
/// memoized region replay to a class-W cold compute.
pub fn bucket_bound(i: usize) -> f64 {
    1e-6 * 4f64.powi(i as i32)
}

/// An exponential-bucket histogram of seconds. Observations are two
/// relaxed adds plus a bucket add; the sum is kept in nanoseconds so the
/// whole instrument stays lock-free integer atomics.
pub struct Histogram {
    count: AtomicU64,
    sum_nanos: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Record one observation in seconds.
    pub fn observe(&self, seconds: f64) {
        if !crate::enabled() {
            return;
        }
        let s = if seconds.is_finite() && seconds > 0.0 {
            seconds
        } else {
            0.0
        };
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(
            (s * 1e9).min(u64::MAX as f64 / 2.0) as u64,
            Ordering::Relaxed,
        );
        for i in 0..HIST_BUCKETS {
            if s <= bucket_bound(i) {
                self.buckets[i].fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        // Larger than every finite bound: lands only in +Inf (count).
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum_seconds(&self) -> f64 {
        self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    fn bucket_counts(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

enum Instrument {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    instrument: Instrument,
}

fn registry() -> MutexGuard<'static, BTreeMap<String, Entry>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Entry>>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// The registry key: the metric name plus a sorted `{k="v",…}` suffix.
fn key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort();
    let body: Vec<String> = sorted
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("{name}{{{}}}", body.join(","))
}

fn intern<T: Default>(
    name: &str,
    labels: &[(&str, &str)],
    wrap: fn(&'static T) -> Instrument,
    unwrap: fn(&Instrument) -> Option<&'static T>,
) -> &'static T {
    let k = key(name, labels);
    let mut reg = registry();
    if let Some(entry) = reg.get(&k) {
        return unwrap(&entry.instrument)
            .unwrap_or_else(|| panic!("metric `{k}` re-registered as a different kind"));
    }
    let handle: &'static T = Box::leak(Box::default());
    reg.insert(
        k,
        Entry {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect(),
            instrument: wrap(handle),
        },
    );
    handle
}

/// Intern (or fetch) the counter `name` with no labels.
pub fn counter(name: &str) -> &'static Counter {
    counter_with(name, &[])
}

/// Intern (or fetch) the counter `name` with `labels`.
pub fn counter_with(name: &str, labels: &[(&str, &str)]) -> &'static Counter {
    intern(name, labels, Instrument::Counter, |i| match i {
        Instrument::Counter(c) => Some(c),
        _ => None,
    })
}

pub fn gauge(name: &str) -> &'static Gauge {
    gauge_with(name, &[])
}

pub fn gauge_with(name: &str, labels: &[(&str, &str)]) -> &'static Gauge {
    intern(name, labels, Instrument::Gauge, |i| match i {
        Instrument::Gauge(g) => Some(g),
        _ => None,
    })
}

pub fn histogram(name: &str) -> &'static Histogram {
    histogram_with(name, &[])
}

pub fn histogram_with(name: &str, labels: &[(&str, &str)]) -> &'static Histogram {
    intern(name, labels, Instrument::Histogram, |i| match i {
        Instrument::Histogram(h) => Some(h),
        _ => None,
    })
}

/// A `static`-friendly counter cell: resolves its registry handle once,
/// then increments through one atomic load (the enabled check) plus one
/// atomic add. Registration is deferred to the first *enabled* hit, so a
/// disabled process registers nothing.
#[derive(Debug)]
pub struct LazyCounter {
    name: &'static str,
    slot: OnceLock<&'static Counter>,
}

impl LazyCounter {
    pub const fn new(name: &'static str) -> LazyCounter {
        LazyCounter {
            name,
            slot: OnceLock::new(),
        }
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.slot.get_or_init(|| counter(self.name)).add(n);
        }
    }
}

/// A count its owner reads back (`op=stats`, `op=health`, an accessor)
/// and the registry series that mirrors it, booked by one call: the count
/// always moves, the series while the layer is on. A series nothing
/// reads back is a [`LazyCounter`].
#[derive(Debug)]
pub struct Tally {
    count: AtomicU64,
    series: LazyCounter,
}

impl Tally {
    pub const fn new(name: &'static str) -> Tally {
        Tally {
            count: AtomicU64::new(0),
            series: LazyCounter::new(name),
        }
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
        self.series.add(n);
    }

    pub fn get(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// A `static`-friendly histogram cell (see [`LazyCounter`]).
pub struct LazyHistogram {
    name: &'static str,
    slot: OnceLock<&'static Histogram>,
}

impl LazyHistogram {
    pub const fn new(name: &'static str) -> LazyHistogram {
        LazyHistogram {
            name,
            slot: OnceLock::new(),
        }
    }

    pub fn observe(&self, seconds: f64) {
        if crate::enabled() {
            self.slot
                .get_or_init(|| histogram(self.name))
                .observe(seconds);
        }
    }
}

/// A point-in-time capture of one histogram.
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum_seconds: f64,
    /// Per-bucket (non-cumulative) counts; bounds from [`bucket_bound`].
    pub buckets: [u64; HIST_BUCKETS],
}

enum SnapValue {
    Counter(u64),
    Gauge(f64),
    Histogram(HistogramSnapshot),
}

struct SnapEntry {
    name: String,
    labels: Vec<(String, String)>,
    value: SnapValue,
}

/// A point-in-time capture of the whole registry, ordered by key.
pub struct Snapshot {
    entries: Vec<SnapEntry>,
}

/// Capture every registered instrument.
pub fn snapshot() -> Snapshot {
    let reg = registry();
    Snapshot {
        entries: reg
            .values()
            .map(|e| SnapEntry {
                name: e.name.clone(),
                labels: e.labels.clone(),
                value: match &e.instrument {
                    Instrument::Counter(c) => SnapValue::Counter(c.get()),
                    Instrument::Gauge(g) => SnapValue::Gauge(g.get()),
                    Instrument::Histogram(h) => SnapValue::Histogram(HistogramSnapshot {
                        count: h.count(),
                        sum_seconds: h.sum_seconds(),
                        buckets: h.bucket_counts(),
                    }),
                },
            })
            .collect(),
    }
}

/// `serve.flight.led` → `paxsim_serve_flight_led`.
fn prom_name(name: &str) -> String {
    format!("paxsim_{}", name.replace(['.', '-'], "_"))
}

fn prom_labels(labels: &[(String, String)], extra: Option<(&str, String)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

impl Snapshot {
    /// Sample lines this snapshot renders to (Prometheus series count,
    /// excluding `# TYPE` comments).
    pub fn series(&self) -> usize {
        self.entries
            .iter()
            .map(|e| match &e.value {
                SnapValue::Counter(_) | SnapValue::Gauge(_) => 1,
                // _bucket × (finite + Inf) + _sum + _count
                SnapValue::Histogram(_) => HIST_BUCKETS + 3,
            })
            .sum()
    }

    /// Prometheus text exposition (one `# TYPE` comment per family, one
    /// sample per series, cumulative `le` buckets).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: Vec<String> = Vec::new();
        for e in &self.entries {
            match &e.value {
                SnapValue::Counter(v) => {
                    let fam = format!("{}_total", prom_name(&e.name));
                    if !typed.contains(&fam) {
                        out.push_str(&format!("# TYPE {fam} counter\n"));
                        typed.push(fam.clone());
                    }
                    out.push_str(&format!("{fam}{} {v}\n", prom_labels(&e.labels, None)));
                }
                SnapValue::Gauge(v) => {
                    let fam = prom_name(&e.name);
                    if !typed.contains(&fam) {
                        out.push_str(&format!("# TYPE {fam} gauge\n"));
                        typed.push(fam.clone());
                    }
                    out.push_str(&format!(
                        "{fam}{} {}\n",
                        prom_labels(&e.labels, None),
                        fmt_f64(*v)
                    ));
                }
                SnapValue::Histogram(h) => {
                    let fam = prom_name(&e.name);
                    if !typed.contains(&fam) {
                        out.push_str(&format!("# TYPE {fam} histogram\n"));
                        typed.push(fam.clone());
                    }
                    let mut cum = 0u64;
                    for (i, b) in h.buckets.iter().enumerate() {
                        cum += b;
                        out.push_str(&format!(
                            "{fam}_bucket{} {cum}\n",
                            prom_labels(&e.labels, Some(("le", fmt_f64(bucket_bound(i)))))
                        ));
                    }
                    out.push_str(&format!(
                        "{fam}_bucket{} {}\n",
                        prom_labels(&e.labels, Some(("le", "+Inf".into()))),
                        h.count
                    ));
                    out.push_str(&format!(
                        "{fam}_sum{} {}\n",
                        prom_labels(&e.labels, None),
                        fmt_f64(h.sum_seconds)
                    ));
                    out.push_str(&format!(
                        "{fam}_count{} {}\n",
                        prom_labels(&e.labels, None),
                        h.count
                    ));
                }
            }
        }
        out
    }

    /// JSON value tree: `{"counters":{…},"gauges":{…},"histograms":{…}}`,
    /// keyed by the registry key (name plus label suffix).
    pub fn to_json(&self) -> Value {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut hists = Vec::new();
        for e in &self.entries {
            let k = key(
                &e.name,
                &e.labels
                    .iter()
                    .map(|(a, b)| (a.as_str(), b.as_str()))
                    .collect::<Vec<_>>(),
            );
            match &e.value {
                SnapValue::Counter(v) => counters.push((k, Value::UInt(*v))),
                SnapValue::Gauge(v) => gauges.push((k, Value::Float(*v))),
                SnapValue::Histogram(h) => hists.push((
                    k,
                    Value::Object(vec![
                        ("count".to_string(), Value::UInt(h.count)),
                        ("sum_seconds".to_string(), Value::Float(h.sum_seconds)),
                        (
                            "buckets".to_string(),
                            Value::Array(h.buckets.iter().map(|&b| Value::UInt(b)).collect()),
                        ),
                    ]),
                )),
            }
        }
        Value::Object(vec![
            ("counters".to_string(), Value::Object(counters)),
            ("gauges".to_string(), Value::Object(gauges)),
            ("histograms".to_string(), Value::Object(hists)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_counter_never_moves() {
        let _lock = crate::test_lock();
        crate::set_enabled(false);
        let c = counter("test.disabled");
        c.inc();
        c.add(5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counters_intern_by_name_and_labels() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        let a = counter("test.intern");
        let b = counter("test.intern");
        assert!(std::ptr::eq(a, b), "same key, same instrument");
        let l1 = counter_with("test.intern", &[("k", "x")]);
        assert!(!std::ptr::eq(a, l1), "labels split the series");
        a.inc();
        a.inc();
        l1.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(l1.get(), 1);
        crate::set_enabled(false);
    }

    #[test]
    fn histogram_buckets_are_exponential_and_cumulative_in_prom() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        let h = histogram("test.hist.seconds");
        h.observe(0.5e-6); // bucket 0 (≤1µs)
        h.observe(3e-6); // bucket 1 (≤4µs)
        h.observe(1e9); // beyond every finite bound: +Inf only
        assert_eq!(h.count(), 3);
        let text = snapshot().to_prometheus();
        assert!(
            text.contains("paxsim_test_hist_seconds_bucket{le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("paxsim_test_hist_seconds_count 3"), "{text}");
        // Cumulative: the 4µs bucket includes the 1µs observation.
        assert!(
            text.contains("paxsim_test_hist_seconds_bucket{le=\"0.000004\"} 2")
                || text
                    .contains("paxsim_test_hist_seconds_bucket{le=\"0.000004000000000000001\"} 2"),
            "{text}"
        );
        crate::set_enabled(false);
    }

    #[test]
    fn prometheus_exposition_is_parseable_shape() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        counter("test.prom.requests").inc();
        gauge("test.prom.depth").set(3.0);
        let snap = snapshot();
        let text = snap.to_prometheus();
        let samples = text.lines().filter(|l| !l.starts_with('#')).count();
        assert_eq!(samples, snap.series());
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').expect("name value");
            assert!(series.starts_with("paxsim_"), "{series}");
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "unparseable sample value in {line}"
            );
        }
        assert!(text.contains("# TYPE paxsim_test_prom_requests_total counter"));
        assert!(text.contains("# TYPE paxsim_test_prom_depth gauge"));
        crate::set_enabled(false);
    }

    #[test]
    fn snapshot_json_round_trips_through_serde() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        counter("test.json.hits").add(7);
        let v = snapshot().to_json();
        let text = serde_json::to_string(&v).unwrap();
        let back = serde_json::parse(&text).unwrap();
        assert_eq!(back["counters"]["test.json.hits"].as_u64(), Some(7));
        crate::set_enabled(false);
    }

    #[test]
    fn a_tally_counts_always_and_mirrors_only_while_enabled() {
        let _lock = crate::test_lock();
        let tally = Tally::new("test.tally");
        crate::set_enabled(false);
        tally.add(3);
        assert_eq!(tally.get(), 3, "the count moves with the layer off");
        assert!(
            !registry().contains_key("test.tally"),
            "the series does not"
        );
        crate::set_enabled(true);
        tally.add(4);
        tally.inc();
        let moved = (tally.get() - 3, counter("test.tally").get());
        assert_eq!(moved, (5, 5), "with the layer on both move by the same n");
        crate::set_enabled(false);
    }

    #[test]
    fn lazy_counter_registers_only_when_enabled() {
        let _lock = crate::test_lock();
        crate::set_enabled(false);
        static LAZY: LazyCounter = LazyCounter::new("test.lazy.never");
        LAZY.inc();
        assert!(
            !registry().contains_key("test.lazy.never"),
            "disabled hit must not register"
        );
        crate::set_enabled(true);
        LAZY.inc();
        LAZY.inc();
        assert_eq!(counter("test.lazy.never").get(), 2);
        crate::set_enabled(false);
    }
}
