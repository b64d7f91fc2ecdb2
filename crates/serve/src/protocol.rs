//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one reply per line; the connection stays open
//! for any number of request/reply rounds. Requests are JSON objects
//! dispatched on `"op"`:
//!
//! ```text
//! {"op":"simulate","kernel":"ep","config":"CMP"}
//! {"op":"simulate","kernel":"cg","config":"HT on -4-1","class":"T",
//!  "trials":3,"jitter":2000,"schedule":"static","deadline_ms":30000,
//!  "machine":{…full MachineConfig…}}
//! {"op":"simulate","kernel":"cg","config":"CMP","fidelity":"predicted"}
//! {"op":"stats"}
//! ```
//!
//! `fidelity` selects the answering tier: `exact` (default; cycle
//! engine, byte-identical to pre-fidelity daemons), `predicted`
//! (analytical model, microseconds, reply carries `fidelity` and
//! `error_bounds` extras), or `fast` (cached exact if warm, else
//! predicted).
//!
//! Unknown fields are rejected, and so is a field given twice, at the top
//! level or at any depth of a `machine` override
//! (a typo must not silently change the request's identity, and of a
//! repeated key this parser would keep the first where most clients keep
//! the last); omitted optional fields take the [`StudySpec`]
//! defaults, so a request's content hash is the same whether defaults are
//! spelled out or omitted. Replies are `{"ok":true,…}` or
//! `{"ok":false,"error":"<category>","detail":"…"}` — categories are the
//! closed set in [`error_category`] plus the service-level `overloaded`,
//! `draining`, `shed`, and `quarantined`.
//!
//! Everything up to the resolved request is a pure function of the line's
//! bytes, and clients re-ask the same grid with the same bytes, so the
//! service reads its lines through a [`ResolveMemo`]: a bounded, exact
//! table from line to [`Simulate`] that turns parse, resolve and
//! the content hashes of a repeated line into one comparison.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use paxsim_core::error::{StudyError, StudyResult};
use paxsim_core::hash::{fnv1a, ConfigHash, Fidelity, ResolvedSpec, StudySpec};
use paxsim_core::journal::Record;
use paxsim_core::tune::{TuneAlgo, TuneRequest, TuneResult};
use paxsim_machine::config::MachineConfig;
use serde::{Serialize, Value};

/// Deepest object/array nesting a request line may use. The vendored
/// JSON parser recurses per level, so unbounded nesting is a
/// peer-controlled stack overflow; nothing in the protocol legitimately
/// nests deeper than a machine config (3 levels).
pub const MAX_NESTING_DEPTH: usize = 64;

/// Largest trial count a request may ask for: each trial is a full
/// simulation, so an absurd count is a peer-controlled compute bomb.
pub const MAX_TRIALS: u64 = 100_000;

/// A parsed client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Run (or serve from cache) one simulation point.
    Simulate {
        spec: Box<StudySpec>,
        /// Per-request watchdog deadline for a cache miss's computation.
        deadline_ms: Option<u64>,
        /// How the answer may be produced (`exact` is the wire default
        /// and keeps every pre-fidelity reply byte-identical).
        fidelity: Fidelity,
    },
    /// Run (or serve from cache) a budgeted configuration search.
    Tune {
        req: Box<TuneRequest>,
        /// Per-request deadline applied to each exact-engine evaluation.
        deadline_ms: Option<u64>,
    },
    /// Report daemon statistics.
    Stats,
    /// Scrape the observability metrics snapshot (Prometheus text plus
    /// structured JSON).
    Metrics,
    /// Report liveness/degradation state: drain status, per-shard journal
    /// health, circuit-breaker quarantine list, shed counters. Cheap
    /// enough for an orchestrator to poll every second.
    Health,
}

fn bad(field: &str, detail: impl Into<String>) -> StudyError {
    StudyError::BadSpec {
        field: field.to_string(),
        detail: detail.into(),
    }
}

fn str_field(v: &Value, key: &str) -> StudyResult<Option<String>> {
    match v.get(key) {
        None => Ok(None),
        Some(s) => s
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| bad(key, "must be a string")),
    }
}

fn u64_field(v: &Value, key: &str) -> StudyResult<Option<u64>> {
    match v.get(key) {
        None => Ok(None),
        Some(n) => n
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(key, "must be a non-negative integer")),
    }
}

fn str_list_field(v: &Value, key: &str) -> StudyResult<Option<Vec<String>>> {
    match v.get(key) {
        None => Ok(None),
        Some(Value::Array(items)) => items
            .iter()
            .map(|item| {
                item.as_str()
                    .map(|s| s.to_string())
                    .ok_or_else(|| bad(key, "must be an array of strings"))
            })
            .collect::<StudyResult<Vec<String>>>()
            .map(Some),
        Some(_) => Err(bad(key, "must be an array of strings")),
    }
}

fn f64_field(v: &Value, key: &str) -> StudyResult<Option<f64>> {
    match v.get(key) {
        None => Ok(None),
        Some(n) => n
            .as_f64()
            .map(Some)
            .ok_or_else(|| bad(key, "must be a number")),
    }
}

/// Reject peer-controlled nesting beyond [`MAX_NESTING_DEPTH`] *before*
/// handing the line to the recursive JSON parser. String contents (and
/// escaped quotes inside them) are skipped, so brackets in string
/// literals don't count.
fn check_nesting_depth(line: &str) -> StudyResult<()> {
    let mut depth: usize = 0;
    let mut in_string = false;
    let mut escaped = false;
    for b in line.bytes() {
        if in_string {
            match (escaped, b) {
                (true, _) => escaped = false,
                (false, b'\\') => escaped = true,
                (false, b'"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' | b'[' => {
                depth += 1;
                if depth > MAX_NESTING_DEPTH {
                    return Err(bad(
                        "request",
                        format!("nesting deeper than {MAX_NESTING_DEPTH} levels"),
                    ));
                }
            }
            b'}' | b']' => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    Ok(())
}

#[rustfmt::skip]
const SIMULATE_FIELDS: [&str; 10] = [
    "op", "kernel", "config", "class", "trials", "jitter", "schedule", "machine", "deadline_ms",
    "fidelity",
];

#[rustfmt::skip]
const TUNE_FIELDS: [&str; 13] = [
    "op", "kernel", "class", "trials", "jitter", "configs", "schedules", "budget", "algo",
    "fidelity", "margin", "machine", "deadline_ms",
];

/// The top-level keys an op takes: every key of `obj` is one of `known`,
/// and none is given twice. A key is compared with the keys before it
/// only once those are known and distinct, so the scan is bounded by
/// `known.len()` however many keys the peer sends.
fn check_fields(obj: &[(String, Value)], op: &str, known: &[&str]) -> StudyResult<()> {
    for (i, (k, _)) in obj.iter().enumerate() {
        if !known.contains(&k.as_str()) {
            return Err(bad(k, format!("unknown field for op={op}")));
        }
        if obj[..i].iter().any(|(earlier, _)| earlier == k) {
            return Err(bad(k, "given more than once"));
        }
    }
    Ok(())
}

/// A full `MachineConfig` as the wire spells it, with an L3 so that the
/// keys under `l3` are spelled out too: the keys a `machine` override
/// takes at every path.
fn machine_keys() -> &'static Value {
    static KEYS: OnceLock<Value> = OnceLock::new();
    KEYS.get_or_init(|| {
        serde_json::to_value(MachineConfig::broadwell_l3())
            .expect("a machine config serializes to a JSON object")
    })
}

/// The derived deserializer keeps the first of a repeated key and ignores
/// an unknown one, so `check_fields`' rule is applied here at every depth
/// of a `machine` override, in one pass: each key is looked up among the
/// reference's keys at the same path, and compared with the keys before it
/// only once those are known and distinct. Values that are not objects
/// are left to the deserializer.
fn check_machine_fields(given: &Value, known: &Value, path: &str) -> StudyResult<()> {
    let (Value::Object(given), Value::Object(known)) = (given, known) else {
        return Ok(());
    };
    for (i, (k, v)) in given.iter().enumerate() {
        let field = || format!("{path}.{k}");
        let Some((_, reference)) = known.iter().find(|(name, _)| name == k) else {
            return Err(bad(&field(), "unknown field"));
        };
        if given[..i].iter().any(|(earlier, _)| earlier == k) {
            return Err(bad(&field(), "given more than once"));
        }
        if matches!(v, Value::Object(_)) {
            check_machine_fields(v, reference, &field())?;
        }
    }
    Ok(())
}

/// The `machine` override of a request, when it has one.
fn machine_field(v: &Value) -> StudyResult<Option<MachineConfig>> {
    let Some(m) = v.get("machine") else {
        return Ok(None);
    };
    check_machine_fields(m, machine_keys(), "machine")?;
    let m = serde_json::from_value::<MachineConfig>(m)
        .map_err(|e| bad("machine", format!("not a full machine config: {e}")))?;
    // A geometry the cache and TLB constructors would panic on, refused
    // here rather than in a worker.
    m.check_geometry()
        .map_err(|(field, why)| bad(&format!("machine.{field}"), why))?;
    Ok(Some(m))
}

/// Parse one request line.
///
/// # Errors
///
/// [`StudyError::BadSpec`] naming the malformed field; the server maps
/// this to a `bad-request` reply. Client input must never panic the
/// daemon.
pub fn parse_request(line: &str) -> StudyResult<Request> {
    check_nesting_depth(line)?;
    let v = serde_json::parse(line).map_err(|e| bad("request", format!("not JSON: {e}")))?;
    let obj = match &v {
        Value::Object(entries) => entries,
        _ => return Err(bad("request", "must be a JSON object")),
    };
    let op = str_field(&v, "op")?
        .ok_or_else(|| bad("op", "missing (simulate, tune, stats, metrics or health)"))?;
    match op.as_str() {
        "stats" => check_fields(obj, &op, &["op"]).map(|()| Request::Stats),
        "metrics" => check_fields(obj, &op, &["op"]).map(|()| Request::Metrics),
        "health" => check_fields(obj, &op, &["op"]).map(|()| Request::Health),
        "simulate" => {
            check_fields(obj, &op, &SIMULATE_FIELDS)?;
            let kernel = str_field(&v, "kernel")?.ok_or_else(|| bad("kernel", "missing"))?;
            let config = str_field(&v, "config")?.ok_or_else(|| bad("config", "missing"))?;
            let mut spec = StudySpec::new(&kernel, &config);
            if let Some(class) = str_field(&v, "class")? {
                spec.class = class;
            }
            if let Some(trials) = u64_field(&v, "trials")? {
                if trials > MAX_TRIALS {
                    return Err(bad("trials", format!("must be <= {MAX_TRIALS}")));
                }
                spec.trials = trials as usize;
            }
            if let Some(jitter) = u64_field(&v, "jitter")? {
                spec.jitter = jitter;
            }
            if let Some(schedule) = str_field(&v, "schedule")? {
                spec.schedule = schedule;
            }
            if let Some(m) = machine_field(&v)? {
                spec.machine = m;
            }
            let deadline_ms = u64_field(&v, "deadline_ms")?;
            let fidelity = match str_field(&v, "fidelity")? {
                None => Fidelity::default(),
                Some(s) => Fidelity::parse(&s).ok_or_else(|| {
                    bad(
                        "fidelity",
                        format!("unknown fidelity `{s}` (exact, fast or predicted)"),
                    )
                })?,
            };
            Ok(Request::Simulate {
                spec: Box::new(spec),
                deadline_ms,
                fidelity,
            })
        }
        "tune" => {
            check_fields(obj, &op, &TUNE_FIELDS)?;
            let kernel = str_field(&v, "kernel")?.ok_or_else(|| bad("kernel", "missing"))?;
            let mut req = TuneRequest::new(&kernel);
            if let Some(class) = str_field(&v, "class")? {
                req.class = class;
            }
            if let Some(trials) = u64_field(&v, "trials")? {
                if trials > MAX_TRIALS {
                    return Err(bad("trials", format!("must be <= {MAX_TRIALS}")));
                }
                req.trials = trials as usize;
            }
            if let Some(jitter) = u64_field(&v, "jitter")? {
                req.jitter = jitter;
            }
            if let Some(configs) = str_list_field(&v, "configs")? {
                req.configs = configs;
            }
            if let Some(schedules) = str_list_field(&v, "schedules")? {
                req.schedules = schedules;
            }
            if let Some(budget) = u64_field(&v, "budget")? {
                req.budget = budget as usize;
            }
            if let Some(algo) = str_field(&v, "algo")? {
                req.algo = TuneAlgo::parse(&algo).ok_or_else(|| {
                    bad(
                        "algo",
                        format!("unknown algo `{algo}` (halving or hillclimb)"),
                    )
                })?;
            }
            if let Some(s) = str_field(&v, "fidelity")? {
                req.fidelity = Fidelity::parse(&s).ok_or_else(|| {
                    bad(
                        "fidelity",
                        format!("unknown fidelity `{s}` (exact or predicted)"),
                    )
                })?;
            }
            if let Some(margin) = f64_field(&v, "margin")? {
                req.margin = margin;
            }
            if let Some(m) = machine_field(&v)? {
                req.machine = m;
            }
            let deadline_ms = u64_field(&v, "deadline_ms")?;
            Ok(Request::Tune {
                req: Box::new(req),
                deadline_ms,
            })
        }
        other => Err(bad("op", format!("unknown op `{other}`"))),
    }
}

/// A `simulate` request with the pure half of its handling done: parsed,
/// validated, resolved to canonical spelling and typed pieces. Everything
/// in it is a function of the request line alone; the digests of
/// `resolved` are derived on first use and remembered with it.
#[derive(Debug)]
pub(crate) struct Simulate {
    pub(crate) resolved: ResolvedSpec,
    pub(crate) fidelity: Fidelity,
    /// Per-request watchdog deadline for a cache miss's computation.
    pub(crate) deadline_ms: Option<u64>,
}

/// A request line as the service dispatches it: a [`Request`] whose
/// `simulate` arm is already resolved.
#[derive(Debug)]
pub(crate) enum Line {
    Simulate(Arc<Simulate>),
    Tune {
        req: Box<TuneRequest>,
        deadline_ms: Option<u64>,
    },
    Stats,
    Metrics,
    Health,
}

/// Slots of a [`ResolveMemo`]. A study's grid is tens to hundreds of
/// distinct lines (the paper's is 8 kernels × 8 configurations); two hot
/// lines that share a slot take turns in it and are resolved afresh each
/// time, as every line was before there was a memo.
pub(crate) const MEMO_SLOTS: usize = 1024;

/// Longest line a [`ResolveMemo`] keeps; a full `machine` override is
/// about half of it. A longer line is resolved afresh every time.
pub(crate) const MEMO_MAX_LINE: usize = 2048;

/// More than a resolved request weighs, heap included (a test holds
/// [`Simulate`] to it): the stated worst case of the memo stands on it.
const MEMO_REQUEST_BYTES: usize = 2048;
const _: () = assert!(MEMO_SLOTS * (MEMO_MAX_LINE + MEMO_REQUEST_BYTES) <= 4 << 20);

type MemoSlot = Mutex<Option<(Box<str>, Arc<Simulate>)>>;

/// Request line → [`Simulate`], for lines the service has answered
/// from its cache before: a byte-identical repeat costs one FNV-1a of the
/// line, one comparison with the line its slot holds and one `Arc` clone
/// instead of a `Value` tree, a resolve and a canonical-JSON digest per
/// key.
///
/// It memoizes a **pure function of the line** — no reply, no record, no
/// cache state — so there is nothing to invalidate and an entry can never
/// be stale: whoever gets a request out of it still walks the whole hit
/// ladder, which checks, books and touches what it always did. Nothing in
/// it grows or wants tuning: [`MEMO_SLOTS`] direct-mapped slots indexed by
/// the line's digest, each holding the whole line (a digest match alone
/// never answers) and overwritten on collision; lines over
/// [`MEMO_MAX_LINE`] bytes pass it by; and the service admits a line only
/// once it was answered as a hit, so a stream of never-seen requests
/// writes nothing and cannot push the hot set out. Worst case, every slot
/// holding a line at the cap: `MEMO_SLOTS × (MEMO_MAX_LINE` + a resolved
/// request of about 1 KiB, canonical strings and context list included`)`
/// ≈ 3 MiB, and under 4 MiB even at twice that request (asserted at
/// compile time); a table full of ordinary 80-byte lines is about 1 MiB.
pub(crate) struct ResolveMemo {
    slots: Box<[MemoSlot]>,
}

impl ResolveMemo {
    pub(crate) fn new() -> ResolveMemo {
        ResolveMemo {
            slots: (0..MEMO_SLOTS).map(|_| MemoSlot::default()).collect(),
        }
    }

    /// The slot `line` maps to; `None` for a line too long to keep.
    fn slot(&self, line: &str) -> Option<&MemoSlot> {
        if line.len() > MEMO_MAX_LINE {
            return None;
        }
        let digest = fnv1a(line.as_bytes());
        // FNV-1a mixes upward: fold the well-mixed high half into the index.
        Some(&self.slots[(digest ^ (digest >> 32)) as usize % MEMO_SLOTS])
    }

    /// Parse `line` and resolve its `simulate` request — or, when the memo
    /// holds these very bytes, hand back what that made of them before.
    /// The flag says which: `true` for a request out of the memo.
    ///
    /// # Errors
    ///
    /// [`parse_request`]'s and [`StudySpec::resolve`]'s, unchanged.
    pub(crate) fn resolve(&self, line: &str) -> (StudyResult<Line>, bool) {
        let held = self.slot(line).and_then(|slot| match &*lock(slot) {
            Some((held, request)) if **held == *line => Some(request.clone()),
            _ => None,
        });
        if let Some(request) = held {
            return (Ok(Line::Simulate(request)), true);
        }
        let fresh = parse_request(line).and_then(|request| {
            Ok(match request {
                Request::Simulate {
                    spec,
                    deadline_ms,
                    fidelity,
                } => Line::Simulate(Arc::new(Simulate {
                    resolved: spec.resolve()?,
                    fidelity,
                    deadline_ms,
                })),
                Request::Tune { req, deadline_ms } => Line::Tune { req, deadline_ms },
                Request::Stats => Line::Stats,
                Request::Metrics => Line::Metrics,
                Request::Health => Line::Health,
            })
        });
        (fresh, false)
    }

    /// Keep what `line` resolved to: called once the line was answered as
    /// a cache hit, with the request [`ResolveMemo::resolve`] made of it.
    pub(crate) fn admit(&self, line: &str, request: &Arc<Simulate>) {
        if let Some(slot) = self.slot(line) {
            *lock(slot) = Some((line.into(), request.clone()));
        }
    }

    /// One request line was answered; `memoized` is what
    /// [`ResolveMemo::resolve`] said of it. The two counters give the
    /// repeated-line share of the daemon's traffic — the only traffic the
    /// memo helps — as `hits / (hits + misses)`.
    pub(crate) fn book(memoized: bool) {
        static HITS: paxsim_obs::LazyCounter =
            paxsim_obs::LazyCounter::new("serve.resolve.memo_hits");
        static MISSES: paxsim_obs::LazyCounter =
            paxsim_obs::LazyCounter::new("serve.resolve.memo_misses");
        let counter = if memoized { &HITS } else { &MISSES };
        counter.inc();
    }

    /// Lines held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.iter().filter(|s| lock(s).is_some()).count()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The part of a simulation reply every tier shares —
/// `{"ok":true,"hash":…,"spec":…,"result":…` with the object left open —
/// rendered from the *journal record*, so a cold miss and every later hit
/// carry the same bytes (the journal's JSON round-trip is bit-exact for
/// every f64). A pure function of its arguments: the cache stores it
/// beside the record (`ResultCache::probe_reply`) and a hit only has to
/// [`close`] or [`close_predicted`] it.
pub(crate) fn render_body(hash: ConfigHash, spec: &StudySpec, record: &Record) -> String {
    let v = Value::Object(vec![
        ("ok".to_string(), Value::Bool(true)),
        ("hash".to_string(), Value::String(hash.to_string())),
        ("spec".to_string(), spec.to_value()),
        ("result".to_string(), record.to_value()),
    ]);
    let mut body = serde_json::to_string(&v).expect("value tree renders infallibly");
    body.pop(); // the closing brace
    body
}

/// `body` and `closing` as one reply line, with room for the newline the
/// connection appends (so that push does not reallocate and copy it all).
fn closed(body: &str, closing: &str) -> String {
    let mut reply = String::with_capacity(body.len() + closing.len() + 1);
    reply.push_str(body);
    reply.push_str(closing);
    reply
}

/// Close a reply body as the exact tier's reply.
pub(crate) fn close(body: &str) -> String {
    closed(body, "}")
}

/// Close a reply body as a predicted-tier reply under the declared
/// [`ErrorBounds`](paxsim_predict::ErrorBounds): the fields only this
/// tier carries — the serving `fidelity` and the declared `error_bounds`
/// — are *appended* after the standard ones, so default-fidelity replies
/// stay byte-identical to pre-fidelity daemons and tolerant clients simply
/// see extra keys. The bounds are constants, so each fidelity's closing is
/// rendered once per process.
pub(crate) fn close_predicted(body: &str, fidelity: Fidelity) -> String {
    static CLOSINGS: [OnceLock<String>; 3] = [const { OnceLock::new() }; 3];
    let closing = CLOSINGS[fidelity as usize]
        .get_or_init(|| predicted_closing(fidelity, &paxsim_predict::ErrorBounds::default()));
    closed(body, closing)
}

/// What continues an open reply body as a predicted-tier reply:
/// `,"fidelity":…,"error_bounds":{…}}`.
fn predicted_closing(fidelity: Fidelity, bounds: &paxsim_predict::ErrorBounds) -> String {
    let extras = Value::Object(vec![
        (
            "fidelity".to_string(),
            Value::String(fidelity.wire().to_string()),
        ),
        (
            "error_bounds".to_string(),
            Value::Object(vec![
                ("wall".to_string(), Value::Float(bounds.wall)),
                ("cpi".to_string(), Value::Float(bounds.cpi)),
                ("miss_rate".to_string(), Value::Float(bounds.miss_rate)),
                ("stall".to_string(), Value::Float(bounds.stall)),
            ]),
        ),
    ]);
    let mut closing = serde_json::to_string(&extras).expect("value tree renders infallibly");
    // `{"fidelity":…}` continues the open body as `,"fidelity":…}`.
    closing.replace_range(..1, ",");
    closing
}

/// Render a successful simulation reply.
pub fn render_result(hash: ConfigHash, spec: &StudySpec, record: &Record) -> String {
    close(&render_body(hash, spec, record))
}

/// Render a predicted-tier reply: [`render_result`]'s payload plus the
/// serving `fidelity` and the declared `error_bounds`, appended.
pub fn render_result_predicted(
    hash: ConfigHash,
    spec: &StudySpec,
    record: &Record,
    fidelity: Fidelity,
    bounds: &paxsim_predict::ErrorBounds,
) -> String {
    let closing = predicted_closing(fidelity, bounds);
    closed(&render_body(hash, spec, record), &closing)
}

/// Render a tune reply: the request identity, the normalized request
/// (so a client sees exactly which grid was searched after alias
/// normalization and default expansion), and the search verdict with
/// full round-by-round provenance. Cold computes and cache hits both
/// render from the same [`TuneResult`], so replies are byte-identical.
pub fn render_tune(hash: ConfigHash, req: &TuneRequest, result: &TuneResult) -> String {
    let v = Value::Object(vec![
        ("ok".to_string(), Value::Bool(true)),
        ("hash".to_string(), Value::String(hash.to_string())),
        ("request".to_string(), req.to_value()),
        ("tune".to_string(), result.to_value()),
    ]);
    serde_json::to_string(&v).expect("value tree renders infallibly")
}

/// Render an error reply.
pub fn render_error(category: &str, detail: &str) -> String {
    let v = Value::Object(vec![
        ("ok".to_string(), Value::Bool(false)),
        ("error".to_string(), Value::String(category.to_string())),
        ("detail".to_string(), Value::String(detail.to_string())),
    ]);
    serde_json::to_string(&v).expect("value tree renders infallibly")
}

/// The wire category for a computation-path error. Closed set:
/// `bad-request`, `deadline`, `panic`, `build-failed`, `internal` (plus
/// the service-level `overloaded`, `draining`, `shed`, and
/// `quarantined`).
pub fn error_category(e: &StudyError) -> &'static str {
    match e {
        StudyError::BadSpec { .. } => "bad-request",
        StudyError::CellTimedOut { .. } => "deadline",
        StudyError::CellPanicked { .. } => "panic",
        StudyError::BuildFailed { .. } => "build-failed",
        StudyError::JournalIo { .. }
        | StudyError::JournalCorrupt { .. }
        | StudyError::Serialize { .. } => "internal",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_simulate_takes_defaults() {
        let r = parse_request(r#"{"op":"simulate","kernel":"ep","config":"CMP"}"#).unwrap();
        let Request::Simulate {
            spec,
            deadline_ms,
            fidelity,
        } = r
        else {
            panic!("wrong op");
        };
        assert_eq!(*spec, StudySpec::new("ep", "CMP"));
        assert_eq!(deadline_ms, None);
        assert_eq!(fidelity, Fidelity::Exact, "fidelity defaults to exact");
        // Identity: defaults omitted == defaults spelled out.
        let spelled = parse_request(
            r#"{"op":"simulate","kernel":"ep","config":"CMP","class":"T",
                "trials":1,"jitter":0,"schedule":"static"}"#,
        )
        .unwrap();
        let Request::Simulate { spec: s2, .. } = spelled else {
            panic!("wrong op");
        };
        assert_eq!(spec.content_hash(), s2.content_hash());
    }

    #[test]
    fn metrics_op_parses() {
        assert!(matches!(
            parse_request(r#"{"op":"metrics"}"#).unwrap(),
            Request::Metrics
        ));
    }

    #[test]
    fn health_op_parses_and_rejects_extras() {
        assert!(matches!(
            parse_request(r#"{"op":"health"}"#).unwrap(),
            Request::Health
        ));
        let err = parse_request(r#"{"op":"health","verbose":true}"#).unwrap_err();
        assert!(matches!(err, StudyError::BadSpec { field, .. } if field == "verbose"));
    }

    #[test]
    fn full_simulate_roundtrips_every_field() {
        let r = parse_request(
            r#"{"op":"simulate","kernel":"cg","config":"CMT","class":"S",
                "trials":4,"jitter":1500,"schedule":"dynamic,2","deadline_ms":9000,
                "fidelity":"predicted"}"#,
        )
        .unwrap();
        let Request::Simulate {
            spec,
            deadline_ms,
            fidelity,
        } = r
        else {
            panic!("wrong op");
        };
        assert_eq!(spec.kernel, "cg");
        assert_eq!(spec.class, "S");
        assert_eq!(spec.trials, 4);
        assert_eq!(spec.jitter, 1500);
        assert_eq!(spec.schedule, "dynamic,2");
        assert_eq!(deadline_ms, Some(9000));
        assert_eq!(fidelity, Fidelity::Predicted);
    }

    #[test]
    fn fidelity_parses_all_tiers_and_rejects_unknown() {
        for (s, want) in [
            ("exact", Fidelity::Exact),
            ("fast", Fidelity::Fast),
            ("predicted", Fidelity::Predicted),
        ] {
            let line =
                format!(r#"{{"op":"simulate","kernel":"ep","config":"CMP","fidelity":"{s}"}}"#);
            let Request::Simulate { fidelity, .. } = parse_request(&line).unwrap() else {
                panic!("wrong op");
            };
            assert_eq!(fidelity, want);
        }
        let err =
            parse_request(r#"{"op":"simulate","kernel":"ep","config":"CMP","fidelity":"turbo"}"#)
                .unwrap_err();
        assert!(matches!(err, StudyError::BadSpec { field, .. } if field == "fidelity"));
    }

    #[test]
    fn machine_override_changes_identity() {
        let mut m = MachineConfig::paxville_smp();
        m.l2_lat += 5;
        let line = format!(
            r#"{{"op":"simulate","kernel":"ep","config":"CMP","machine":{}}}"#,
            serde_json::to_string(&m).unwrap()
        );
        let Request::Simulate { spec, .. } = parse_request(&line).unwrap() else {
            panic!("wrong op");
        };
        assert_eq!(spec.machine, m);
        assert_ne!(
            spec.content_hash(),
            StudySpec::new("ep", "CMP").content_hash()
        );
    }

    #[test]
    fn malformed_requests_name_the_field() {
        let field = |line: &str| match parse_request(line).unwrap_err() {
            StudyError::BadSpec { field, .. } => field,
            e => panic!("unexpected error {e}"),
        };
        assert_eq!(field("not json"), "request");
        assert_eq!(field("[1,2]"), "request");
        assert_eq!(field(r#"{"kernel":"ep"}"#), "op");
        assert_eq!(field(r#"{"op":"fly"}"#), "op");
        assert_eq!(field(r#"{"op":"simulate","config":"CMP"}"#), "kernel");
        assert_eq!(field(r#"{"op":"simulate","kernel":"ep"}"#), "config");
        assert_eq!(
            field(r#"{"op":"simulate","kernel":"ep","config":"CMP","trials":"three"}"#),
            "trials"
        );
        assert_eq!(
            field(r#"{"op":"simulate","kernel":"ep","config":"CMP","kernell":"x"}"#),
            "kernell"
        );
        assert_eq!(field(r#"{"op":"stats","extra":1}"#), "extra");
        assert_eq!(field(r#"{"op":"metrics","extra":1}"#), "extra");
        assert_eq!(
            field(r#"{"op":"simulate","kernel":"ep","config":"CMP","machine":{"chips":2}}"#),
            "machine"
        );
    }

    #[test]
    fn a_field_given_twice_is_refused_for_every_op() {
        // Regression: `Value::get` keeps the first of a repeated key and
        // most clients keep the last, so each of these was answered as a
        // request its sender did not mean (`Serial` for `CMP`, a simulate
        // for a stats).
        let refused = |line: &str| match parse_request(line).unwrap_err() {
            StudyError::BadSpec { field, detail } => {
                assert!(detail.contains("more than once"), "{line}: {detail}");
                field
            }
            e => panic!("unexpected error {e}"),
        };
        for (line, field) in [
            (
                r#"{"op":"simulate","kernel":"ep","config":"Serial","config":"CMP"}"#,
                "config",
            ),
            (
                r#"{"op":"simulate","op":"stats","kernel":"ep","config":"CMP"}"#,
                "op",
            ),
            (
                r#"{"op":"simulate","kernel":"ep","config":"CMP","fidelity":"exact","fidelity":"predicted"}"#,
                "fidelity",
            ),
            // Even an identical repeat: the line is not what a client's
            // serializer would have produced.
            (
                r#"{"op":"simulate","kernel":"ep","kernel":"ep","config":"CMP"}"#,
                "kernel",
            ),
            (
                r#"{"op":"tune","kernel":"ep","budget":4,"budget":64}"#,
                "budget",
            ),
            (r#"{"op":"stats","op":"stats"}"#, "op"),
            (r#"{"op":"metrics","op":"health"}"#, "op"),
            (r#"{"op":"health","op":"health"}"#, "op"),
        ] {
            assert_eq!(refused(line), field, "{line}");
        }
        // An unknown field is still named as unknown, repeated or not.
        let err = parse_request(r#"{"op":"stats","x":1,"x":2}"#).unwrap_err();
        assert!(err.to_string().contains("unknown field"), "{err}");
        // A peer cannot buy a quadratic scan with a long run of repeats.
        let many = format!(r#"{{"op":"stats"{}}}"#, r#","op":"stats""#.repeat(10_000));
        assert_eq!(refused(&many), "op");
    }

    /// Regression: the parser re-validated the rest of the line for every
    /// string character, so one 250 KB string (a frame holds 256 KB) held
    /// the reactor thread for seconds in a release build. It is linear
    /// now: well under a second even unoptimized.
    #[test]
    fn a_long_string_parses_in_linear_time() {
        let long = "é".repeat(125_000);
        let line = format!(r#"{{"op":"{long}"}}"#);
        assert!(line.len() > 250_000 && line.len() < crate::frame::MAX_FRAME_BYTES);
        let start = std::time::Instant::now();
        let err = parse_request(&line).unwrap_err();
        let took = start.elapsed();
        assert!(
            matches!(err, StudyError::BadSpec { ref field, .. } if field == "op"),
            "{err}"
        );
        assert!(took.as_secs_f64() < 1.0, "parsing took {took:?}");
    }

    #[test]
    fn a_machine_override_refuses_repeated_and_unknown_keys_at_every_depth() {
        // Regression: the derived deserializer kept the first of a repeated
        // key and ignored an unknown one, so each of these was answered as
        // the stock Paxville machine.
        let full = serde_json::to_string(&MachineConfig::paxville_smp()).unwrap();
        let edit = |from: &str, to: &str| {
            assert!(full.contains(from), "{from}");
            full.replacen(from, to, 1)
        };
        // Both ops that take an override refuse it alike; "field: detail".
        let refused = |machine: &str| {
            let mut seen: Vec<String> = [r#""op":"simulate","config":"CMP""#, r#""op":"tune""#]
                .iter()
                .map(|head| {
                    let line = format!(r#"{{{head},"kernel":"ep","machine":{machine}}}"#);
                    match parse_request(&line).unwrap_err() {
                        StudyError::BadSpec { field, detail } => format!("{field}: {detail}"),
                        e => panic!("unexpected error {e}"),
                    }
                })
                .collect();
            assert_eq!(seen[0], seen[1], "simulate and tune refuse alike");
            seen.swap_remove(0)
        };
        let l3 = r#""l3":{"geom":{"bytes":8388608,"ways":16,"line":64},"lat":50}"#;
        for (machine, want) in [
            (
                edit(r#""l2_lat":28"#, r#""l2_lat":28,"l2_lat":99"#),
                "machine.l2_lat: given more than once",
            ),
            (
                edit(r#""l2_lat":28"#, r#""l2_lat":28,"l2_latt":99"#),
                "machine.l2_latt: unknown field",
            ),
            (
                edit(r#""ways":8"#, r#""ways":8,"ways":2"#),
                "machine.l1d.ways: given more than once",
            ),
            (
                edit(r#""ways":8"#, r#""ways":8,"wayz":4"#),
                "machine.l1d.wayz: unknown field",
            ),
            (
                edit(
                    r#""l3":null"#,
                    &l3.replace(r#""lat":50"#, r#""lat":50,"lat":9"#),
                ),
                "machine.l3.lat: given more than once",
            ),
            (
                edit(
                    r#""l3":null"#,
                    &l3.replace(r#""line":64"#, r#""line":64,"lines":1"#),
                ),
                "machine.l3.geom.lines: unknown field",
            ),
        ] {
            assert_eq!(refused(&machine), want, "{machine}");
        }
        // A full override with an L3 spelled out is still a machine.
        let Request::Simulate { spec, .. } = parse_request(&format!(
            r#"{{"op":"simulate","kernel":"ep","config":"CMP","machine":{}}}"#,
            serde_json::to_string(&MachineConfig::broadwell_l3()).unwrap()
        ))
        .unwrap() else {
            panic!("wrong op");
        };
        assert_eq!(spec.machine, MachineConfig::broadwell_l3());
        // One pass: a long run of repeats or of unknown keys is refused at
        // its first offender, not after a scan quadratic in its length.
        let repeats = edit(
            r#""l2_lat":28"#,
            &format!(r#"{}"l2_lat":28"#, r#""l2_lat":28,"#.repeat(2_000)),
        );
        assert_eq!(refused(&repeats), "machine.l2_lat: given more than once");
        let strangers: String = (0..2_000).map(|i| format!(r#""x{i}":0,"#)).collect();
        let strangers = edit(r#""l2_lat":28"#, &format!(r#"{strangers}"l2_lat":28"#));
        assert_eq!(refused(&strangers), "machine.x0: unknown field");
    }

    #[test]
    fn a_machine_override_refuses_a_geometry_the_caches_would_panic_on() {
        // Regression: each of these parsed, and then panicked the cache or
        // TLB constructor inside a worker.
        let full = serde_json::to_string(&MachineConfig::paxville_smp()).unwrap();
        let edit = |from: &str, to: &str| {
            assert!(full.contains(from), "{from}");
            full.replacen(from, to, 1)
        };
        let l1d = r#""l1d":{"bytes":16384,"ways":8,"line":64}"#;
        let l2 = r#""l2":{"bytes":2097152,"ways":8,"line":64}"#;
        let l3 = |geom: &str| format!(r#""l3":{{"geom":{geom},"lat":50}}"#);
        for (machine, want) in [
            (
                edit(l1d, &l1d.replace(r#""ways":8"#, r#""ways":0"#)),
                "machine.l1d.ways",
            ),
            (
                edit(l2, &l2.replace(r#""ways":8"#, r#""ways":256"#)),
                "machine.l2.ways",
            ),
            (
                edit(l1d, &l1d.replace(r#""line":64"#, r#""line":48"#)),
                "machine.l1d.line",
            ),
            (
                edit(l1d, &l1d.replace("16384", "24576")),
                "machine.l1d.bytes",
            ),
            (
                edit(
                    l1d,
                    &l1d.replace(r#""line":64"#, r#""line":4611686018427387904"#),
                ),
                "machine.l1d.bytes",
            ),
            (edit(l2, &l2.replace("2097152", "32")), "machine.l2.bytes"),
            (
                edit(
                    r#""l3":null"#,
                    &l3(r#"{"bytes":8388608,"ways":0,"line":64}"#),
                ),
                "machine.l3.geom.ways",
            ),
            (
                edit(r#""tlb_ways":4"#, r#""tlb_ways":0"#),
                "machine.tlb_ways",
            ),
            (
                edit(r#""dtlb_entries":64"#, r#""dtlb_entries":60"#),
                "machine.dtlb_entries",
            ),
            (
                edit(r#""itlb_entries":64"#, r#""itlb_entries":0"#),
                "machine.itlb_entries",
            ),
            (edit(r#""page":4096"#, r#""page":4097"#), "machine.page"),
            // 2^32 sets of 255 ways: a legal shape, and 63 TB of lines.
            (
                edit(l2, r#""l2":{"bytes":70093866270720,"ways":255,"line":64}"#),
                "machine.l2.bytes",
            ),
        ] {
            let line =
                format!(r#"{{"op":"simulate","kernel":"ep","config":"CMP","machine":{machine}}}"#);
            match parse_request(&line) {
                Err(StudyError::BadSpec { field, .. }) => assert_eq!(field, want, "{machine}"),
                r => panic!("{want}: expected a bad request, got {r:?}"),
            }
        }
    }

    #[test]
    fn memo_returns_what_resolving_afresh_returns_and_only_what_was_admitted() {
        let memo = ResolveMemo::new();
        let line =
            r#"{"op":"simulate","kernel":"EP","config":"cmp","deadline_ms":7,"fidelity":"fast"}"#;
        let (Ok(Line::Simulate(fresh)), false) = memo.resolve(line) else {
            panic!("a valid simulate line resolves, and not from an empty memo");
        };
        assert_eq!(memo.len(), 0, "resolving admits nothing");
        memo.admit(line, &fresh);
        let (Ok(Line::Simulate(held)), true) = memo.resolve(line) else {
            panic!("an admitted line comes out of the memo");
        };
        assert!(Arc::ptr_eq(&fresh, &held));
        assert_eq!(held.resolved.spec, StudySpec::new("ep", "HT off -2-1"));
        assert_eq!((held.fidelity, held.deadline_ms), (Fidelity::Fast, Some(7)));
        // Whole-line comparison: one byte more is another line.
        assert!(!memo.resolve(&format!("{line} ")).1);
        // A line over the cap is resolved, never kept.
        let long = format!("{line}{}", " ".repeat(MEMO_MAX_LINE));
        let (Ok(Line::Simulate(request)), false) = memo.resolve(&long) else {
            panic!("trailing blanks are valid JSON");
        };
        memo.admit(&long, &request);
        assert!(!memo.resolve(&long).1);
        assert_eq!(memo.len(), 1);
        // The other ops and malformed lines pass through unchanged.
        assert!(matches!(
            memo.resolve(r#"{"op":"stats"}"#),
            (Ok(Line::Stats), false)
        ));
        assert!(matches!(memo.resolve("garbage"), (Err(_), false)));
        assert!(matches!(
            memo.resolve(r#"{"op":"simulate","kernel":"zz","config":"CMP"}"#),
            (Err(StudyError::BadSpec { .. }), false)
        ));
        // The stated worst case: every slot holding a line at the cap and
        // a resolved request — the struct plus what it owns on the heap,
        // five short canonical strings and at most eight contexts, for
        // which 512 bytes is generous.
        let request_bytes = std::mem::size_of::<Simulate>() + 512;
        assert!(request_bytes <= MEMO_REQUEST_BYTES, "{request_bytes}");
    }

    #[test]
    fn minimal_tune_takes_defaults() {
        let r = parse_request(r#"{"op":"tune","kernel":"ep"}"#).unwrap();
        let Request::Tune { req, deadline_ms } = r else {
            panic!("wrong op");
        };
        assert_eq!(*req, TuneRequest::new("ep"));
        assert_eq!(deadline_ms, None);
    }

    #[test]
    fn full_tune_roundtrips_every_field() {
        let r = parse_request(
            r#"{"op":"tune","kernel":"cg","class":"S","trials":2,"jitter":500,
                "configs":["CMP","CMT"],"schedules":["static","dynamic,2"],
                "budget":16,"algo":"hillclimb","fidelity":"predicted",
                "margin":0.1,"deadline_ms":9000}"#,
        )
        .unwrap();
        let Request::Tune { req, deadline_ms } = r else {
            panic!("wrong op");
        };
        assert_eq!(req.kernel, "cg");
        assert_eq!(req.class, "S");
        assert_eq!(req.trials, 2);
        assert_eq!(req.jitter, 500);
        assert_eq!(req.configs, vec!["CMP", "CMT"]);
        assert_eq!(req.schedules, vec!["static", "dynamic,2"]);
        assert_eq!(req.budget, 16);
        assert_eq!(req.algo, TuneAlgo::HillClimb);
        assert_eq!(req.fidelity, Fidelity::Predicted);
        assert_eq!(req.margin, 0.1);
        assert_eq!(deadline_ms, Some(9000));
    }

    #[test]
    fn malformed_tune_names_the_field() {
        let field = |line: &str| match parse_request(line).unwrap_err() {
            StudyError::BadSpec { field, .. } => field,
            e => panic!("unexpected error {e}"),
        };
        assert_eq!(field(r#"{"op":"tune"}"#), "kernel");
        assert_eq!(field(r#"{"op":"tune","kernel":"ep","budge":4}"#), "budge");
        assert_eq!(
            field(r#"{"op":"tune","kernel":"ep","configs":"CMP"}"#),
            "configs"
        );
        assert_eq!(
            field(r#"{"op":"tune","kernel":"ep","configs":[1,2]}"#),
            "configs"
        );
        assert_eq!(
            field(r#"{"op":"tune","kernel":"ep","algo":"anneal"}"#),
            "algo"
        );
        assert_eq!(
            field(r#"{"op":"tune","kernel":"ep","margin":"wide"}"#),
            "margin"
        );
        assert_eq!(
            field(r#"{"op":"tune","kernel":"ep","fidelity":"turbo"}"#),
            "fidelity"
        );
    }

    #[test]
    fn absurd_nesting_is_rejected_not_recursed() {
        // Regression: the vendored JSON parser recurses per nesting
        // level, so a deep-bracket line was a peer-controlled stack
        // overflow. The depth guard must reject it as bad-request.
        let deep = format!("{}1{}", "[".repeat(100_000), "]".repeat(100_000));
        let err = parse_request(&deep).unwrap_err();
        assert!(matches!(err, StudyError::BadSpec { field, .. } if field == "request"));
        // Brackets inside string literals don't count toward depth:
        // this parses fine (an unknown kernel is the service's problem,
        // not the parser's).
        let literal = format!(
            r#"{{"op":"simulate","kernel":"{}","config":"CMP"}}"#,
            "[".repeat(200)
        );
        assert!(parse_request(&literal).is_ok());
        // ... including escaped quotes inside strings.
        let escaped = r#"{"op":"simulate","kernel":"a\"[[[","config":"CMP"}"#;
        assert!(parse_request(escaped).is_ok());
    }

    #[test]
    fn absurd_trials_are_rejected() {
        // Regression: each trial is a full simulation; a peer asking for
        // u64::MAX trials was a compute bomb the gate couldn't shed.
        for line in [
            r#"{"op":"simulate","kernel":"ep","config":"CMP","trials":18446744073709551615}"#,
            r#"{"op":"simulate","kernel":"ep","config":"CMP","trials":100001}"#,
            r#"{"op":"tune","kernel":"ep","trials":100001}"#,
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(
                matches!(err, StudyError::BadSpec { ref field, .. } if field == "trials"),
                "{line} -> {err}"
            );
        }
        // The cap itself is fine.
        assert!(
            parse_request(r#"{"op":"simulate","kernel":"ep","config":"CMP","trials":100000}"#)
                .is_ok()
        );
    }

    #[test]
    fn tune_reply_is_wellformed_and_deterministic() {
        let req = TuneRequest::new("ep");
        let result = TuneResult {
            best_config: "HT off -2-2".into(),
            best_schedule: "static".into(),
            speedup: 1.87,
            fidelity: Fidelity::Exact,
            algo: TuneAlgo::Halving,
            grid: 35,
            evaluated: 20,
            budget: 64,
            budget_spent: 20,
            budget_exhausted: false,
            rounds: vec![],
        };
        let a = render_tune(ConfigHash(0xbeef), &req, &result);
        let b = render_tune(ConfigHash(0xbeef), &req, &result);
        assert_eq!(a, b);
        let v = serde_json::parse(&a).unwrap();
        assert_eq!(v["ok"].as_bool(), Some(true));
        assert_eq!(v["tune"]["best_config"].as_str(), Some("HT off -2-2"));
        assert_eq!(v["tune"]["budget_spent"].as_u64(), Some(20));
        assert!(!a.contains('\n'), "one line");
    }

    #[test]
    fn replies_are_wellformed_json() {
        let rec = Record {
            key: "serve|abc".into(),
            sides: vec![],
        };
        let spec = StudySpec::new("ep", "CMP");
        let ok = render_result(ConfigHash(0xfeed), &spec, &rec);
        let v = serde_json::parse(&ok).unwrap();
        assert_eq!(v["ok"].as_bool(), Some(true));
        assert_eq!(v["hash"].as_str(), Some("000000000000feed"));
        let err = render_error("overloaded", "queue full");
        let v = serde_json::parse(&err).unwrap();
        assert_eq!(v["ok"].as_bool(), Some(false));
        assert_eq!(v["error"].as_str(), Some("overloaded"));
        assert!(!ok.contains('\n') && !err.contains('\n'), "one line each");
    }

    #[test]
    fn predicted_reply_extends_the_exact_shape() {
        let rec = Record {
            key: "serve|abc".into(),
            sides: vec![],
        };
        let spec = StudySpec::new("ep", "CMP");
        let exact = render_result(ConfigHash(0xfeed), &spec, &rec);
        let pred = render_result_predicted(
            ConfigHash(0xfeed),
            &spec,
            &rec,
            Fidelity::Predicted,
            &paxsim_predict::ErrorBounds::default(),
        );
        let v = serde_json::parse(&pred).unwrap();
        assert_eq!(v["ok"].as_bool(), Some(true));
        assert_eq!(v["fidelity"].as_str(), Some("predicted"));
        assert!(v["error_bounds"]["wall"].as_f64().unwrap() > 0.0);
        assert!(!pred.contains('\n'), "one line");
        // The predicted reply is the exact reply plus trailing fields:
        // a tolerant client that ignores unknown keys sees the same
        // record either way.
        let prefix = exact.trim_end_matches('}');
        assert!(pred.starts_with(prefix), "{pred} must extend {exact}");
        // The closings a hit appends — rendered once per fidelity — are
        // the ones the full render makes, and both leave room for the
        // connection's newline.
        let body = render_body(ConfigHash(0xfeed), &spec, &rec);
        for fidelity in [Fidelity::Predicted, Fidelity::Fast, Fidelity::Predicted] {
            let full = render_result_predicted(
                ConfigHash(0xfeed),
                &spec,
                &rec,
                fidelity,
                &paxsim_predict::ErrorBounds::default(),
            );
            let hit = close_predicted(&body, fidelity);
            assert_eq!(hit, full, "{fidelity}");
            assert!(hit.capacity() > hit.len(), "room for the terminator");
        }
        let closed = close(&body);
        assert_eq!(closed, exact);
        assert!(closed.capacity() > closed.len(), "room for the terminator");
    }

    #[test]
    fn categories_cover_every_error() {
        assert_eq!(
            error_category(&StudyError::BadSpec {
                field: "x".into(),
                detail: String::new()
            }),
            "bad-request"
        );
        assert_eq!(
            error_category(&StudyError::CellTimedOut {
                index: 0,
                elapsed_ms: 2,
                deadline_ms: 1
            }),
            "deadline"
        );
        assert_eq!(
            error_category(&StudyError::CellPanicked {
                index: 0,
                payload: String::new()
            }),
            "panic"
        );
    }
}
