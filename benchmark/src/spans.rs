//! In-memory spans recorded by the harness around each call into a
//! layer. Nothing inside paxsim is instrumented: a span opens before a
//! public function is called and closes when it returns.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request (one study cell, one engine run, one reply)
    /// share an id.
    pub request_id: u64,
}

/// Records spans while `on`; with it off, every call still runs and is
/// still timed, and only the bookkeeping is skipped.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer::with_origin(on, Instant::now())
    }

    /// A tracer sharing another's clock origin, for a second thread whose
    /// spans are later [`Tracer::absorb`]ed.
    pub fn with_origin(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span that may have children; returns `f`'s result
    /// and the elapsed seconds.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request_id: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        if !self.on {
            let t = Instant::now();
            let r = f(self);
            return (r, t.elapsed().as_secs_f64());
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request_id,
        });
        self.open.push(index);
        let r = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[index].end_ns = end_ns;
        (r, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Run a leaf call into a layer inside a span.
    pub fn call<R>(
        &mut self,
        name: &'static str,
        request_id: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        self.span(name, request_id, |_| f())
    }

    /// Take over the spans another thread's tracer recorded (same origin).
    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }

    /// Self time per span name: a span's duration minus the part its
    /// direct children cover. Returns name → (spans, self nanoseconds).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(children) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        out
    }

    /// Share of the root spans' wall time that spans below them account
    /// for with their self time — what is left is harness glue no layer
    /// owns.
    pub fn coverage(&self) -> f64 {
        let root_wall: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        if root_wall == 0 {
            return 0.0;
        }
        let roots: std::collections::BTreeSet<&str> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.name)
            .collect();
        let below: u64 = self
            .self_times()
            .iter()
            .filter(|(name, _)| !roots.contains(*name))
            .map(|(_, (_, ns))| ns)
            .sum();
        below as f64 / root_wall as f64
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request_id":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.request_id
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: Vec<Span>) -> Tracer {
        let mut t = Tracer::new(true);
        t.spans = spans;
        t
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let t = tracer_with(vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 20, 30, Some(1)),
            span("a", 60, 90, Some(0)),
        ]);
        let st = t.self_times();
        assert_eq!(st["root"], (1, 100 - 40 - 30));
        assert_eq!(st["a"], (2, (40 - 10) + 30));
        assert_eq!(st["b"], (1, 10));
        // Everything below the root: 30 + 30 + 10 of 100.
        assert!((t.coverage() - 0.70).abs() < 1e-12);
    }

    #[test]
    fn nesting_links_parents_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let ((), _) = t.span("outer", 7, |t| {
            t.call("inner", 7, || ());
        });
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert_eq!(t.spans()[1].request_id, 7);

        let mut off = Tracer::new(false);
        let (v, secs) = off.call("x", 0, || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn absorb_shifts_parent_links() {
        let mut a = tracer_with(vec![span("r", 0, 10, None)]);
        let b = tracer_with(vec![span("r2", 0, 10, None), span("c", 1, 2, Some(0))]);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
