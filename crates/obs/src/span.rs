//! Structured span tracing with a bounded ring-buffer recorder.
//!
//! A span is opened with the [`span!`](crate::span!) macro and recorded
//! when its guard drops: name, attributes, start offset from process
//! start, and duration. Records land in a process-global ring buffer
//! bounded at [`RING_CAPACITY`] entries; the oldest record is evicted
//! when full, so the recorder's memory is constant no matter how long the
//! process runs. Export is NDJSON — one JSON object per line — the same
//! framing as the serve wire protocol and the journal.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use serde::Value;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: &'static str,
    pub attrs: Vec<(&'static str, String)>,
    /// Microseconds from process start to span open.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Monotonic sequence number (records may be evicted; sequence
    /// numbers never repeat).
    pub seq: u64,
}

impl SpanRecord {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("span".to_string(), Value::String(self.name.to_string())),
            ("seq".to_string(), Value::UInt(self.seq)),
            ("start_us".to_string(), Value::UInt(self.start_us)),
            ("dur_us".to_string(), Value::UInt(self.dur_us)),
        ];
        for (k, v) in &self.attrs {
            fields.push((k.to_string(), Value::String(v.clone())));
        }
        Value::Object(fields)
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Spans the ring holds.
pub const RING_CAPACITY: usize = 4096;

fn ring() -> MutexGuard<'static, VecDeque<SpanRecord>> {
    static RING: OnceLock<Mutex<VecDeque<SpanRecord>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

static SEQ: AtomicU64 = AtomicU64::new(0);

/// A live span's state: opening instant, name, formatted attributes.
type OpenSpan = (Instant, &'static str, Vec<(&'static str, String)>);

/// RAII guard produced by the [`span!`](crate::span!) macro. Dropping it
/// records the span; a disabled guard is a no-op `None`.
pub struct SpanGuard(Option<OpenSpan>);

impl SpanGuard {
    /// Open a live span (the macro calls this only while enabled).
    pub fn start(name: &'static str, attrs: Vec<(&'static str, String)>) -> SpanGuard {
        epoch(); // pin the time base before the first span closes
        SpanGuard(Some((Instant::now(), name, attrs)))
    }

    /// The no-op guard the macro returns while disabled.
    pub fn disabled() -> SpanGuard {
        SpanGuard(None)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((t0, name, attrs)) = self.0.take() else {
            return;
        };
        let rec = SpanRecord {
            name,
            attrs,
            start_us: t0.duration_since(epoch()).as_micros() as u64,
            dur_us: t0.elapsed().as_micros() as u64,
            seq: SEQ.fetch_add(1, Ordering::Relaxed),
        };
        let mut ring = ring();
        if ring.len() >= RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(rec);
    }
}

/// The ring buffer's current contents, oldest first.
pub fn recent_spans() -> Vec<SpanRecord> {
    ring().iter().cloned().collect()
}

/// Spans currently buffered.
pub fn span_count() -> usize {
    ring().len()
}

/// Drop every buffered span (tests and scrape-and-reset consumers).
pub fn clear_spans() {
    ring().clear();
}

/// NDJSON export: one JSON object per line, oldest first.
pub fn spans_ndjson() -> String {
    let mut out = String::new();
    for rec in ring().iter() {
        out.push_str(&serde_json::to_string(&rec.to_value()).expect("span renders infallibly"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_name_attrs_and_duration() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        clear_spans();
        {
            let _s = crate::span!("test.unit", index = 3, kernel = "ep");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let spans = recent_spans();
        let s = spans.last().expect("span recorded");
        assert_eq!(s.name, "test.unit");
        assert!(s.attrs.contains(&("index", "3".to_string())));
        assert!(s.attrs.contains(&("kernel", "ep".to_string())));
        assert!(s.dur_us >= 1_000, "slept 2ms, recorded {}us", s.dur_us);
        crate::set_enabled(false);
    }

    #[test]
    fn disabled_spans_record_nothing_and_skip_attr_eval() {
        let _lock = crate::test_lock();
        crate::set_enabled(false);
        clear_spans();
        let mut evaluated = false;
        {
            let _s = crate::span!(
                "test.off",
                flag = {
                    evaluated = true;
                    1
                }
            );
        }
        assert!(!evaluated, "attribute must not be evaluated while disabled");
        assert_eq!(span_count(), 0);
    }

    #[test]
    fn ring_buffer_is_bounded_with_oldest_evicted() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        clear_spans();
        let cap = RING_CAPACITY;
        for _ in 0..cap + 10 {
            let _s = crate::span!("test.flood");
        }
        assert_eq!(span_count(), cap, "ring must stay bounded");
        let spans = recent_spans();
        // Monotone seq with the oldest ten evicted.
        assert!(spans.windows(2).all(|w| w[0].seq < w[1].seq));
        crate::set_enabled(false);
    }

    #[test]
    fn ndjson_is_one_wellformed_object_per_line() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        clear_spans();
        for i in 0..3 {
            let _s = crate::span!("test.ndjson", i = i);
        }
        let nd = spans_ndjson();
        let lines: Vec<&str> = nd.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in lines {
            let v = serde_json::parse(line).unwrap();
            assert_eq!(v["span"].as_str(), Some("test.ndjson"));
            assert!(v["dur_us"].as_u64().is_some());
        }
        crate::set_enabled(false);
    }
}
